//! Sample summaries and the metric table every workload fills in.

use std::time::Duration;

/// Nearest-rank percentile `q` (0..=1) of `values`; 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Samples a p99 needs: ten of 1000 lie beyond it.
const TAIL_SAMPLES: usize = 1000;

/// The median of the p99s of consecutive windows of at least 1000
/// samples, and the number of windows. The p99 of the whole sample moved
/// by 35-50% (IQR/median) between seeds on a 2-core VM, because a host
/// stall of a few hundred ms decides it; with windows of 1-2 s a slowdown
/// that recurs in at least half of them still moves the result.
fn windowed_p99(latencies: &[f64]) -> (f64, usize) {
    let windows = latencies.len() / TAIL_SAMPLES;
    let p99s: Vec<f64> = latencies
        .chunks(latencies.len() / windows.max(1))
        .filter(|w| w.len() >= TAIL_SAMPLES)
        .map(|w| percentile(w, 0.99))
        .collect();
    (median(&p99s), p99s.len())
}

/// Time slices a throughput is measured over.
pub const RATE_WINDOWS: usize = 4;

/// Completions per second as the median over `windows` equal slices of
/// `span_s`, given each completion's time in seconds since the start.
pub fn windowed_rate(done_at: &[f64], span_s: f64, windows: usize) -> f64 {
    let width = span_s / windows as f64;
    let mut counts = vec![0usize; windows];
    for t in done_at {
        let w = ((t / width) as usize).min(windows - 1);
        counts[w] += 1;
    }
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / width).collect();
    median(&rates)
}

/// Records `latency_p50_ms` and `latency_p99_ms` of one latency sample.
pub fn put_latency(report: &mut Report, latencies: &[f64]) {
    report.put("latency_p50_ms", median(latencies), "ms");
    put_p99(report, latencies);
}

/// Records `latency_p99_ms` of a latency sample, with the counts behind
/// it. Under 1000 samples fewer than ten would lie beyond a p99, so the
/// median stands in.
pub fn put_p99(report: &mut Report, latencies: &[f64]) {
    let n = latencies.len();
    if n < TAIL_SAMPLES {
        report.put("latency_p99_ms", median(latencies), "ms");
        report.note(format!(
            "latency_p99_ms: {n} samples support no tail percentile; it repeats their median"
        ));
        return;
    }
    let (p99, windows) = windowed_p99(latencies);
    report.put("latency_p99_ms", p99, "ms");
    report.note(format!(
        "latency_p99_ms: median p99 of {windows} windows of at least {TAIL_SAMPLES} of {n} samples; the p99 of all {n} is {:.3} ms",
        percentile(latencies, 0.99)
    ));
}

/// Named metrics in print order, plus the facts that qualify them
/// (sample counts, definitions) printed beside the table.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// One-line notes printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records one note.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Request accounting shared by every workload: what was attempted and
/// every way it can go wrong.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Verify requests sent (or one-shot verifications started).
    pub attempted: u64,
    /// Replies whose verdict or certificate digest did not match.
    pub wrong: u64,
    /// Requests refused by the service (busy, overloaded, shutting down).
    pub refused: u64,
    /// Protocol errors, timeouts and requests that never got a reply.
    pub errors: u64,
}

impl Tally {
    /// Every failed request, of any kind.
    pub fn failed(&self) -> u64 {
        self.wrong + self.refused + self.errors
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.wrong += other.wrong;
        self.refused += other.refused;
        self.errors += other.errors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        let long: Vec<f64> = (0..3000).map(|i| f64::from(i % 1000)).collect();
        assert_eq!(windowed_p99(&long), (989.0, 3));
        assert_eq!(windowed_rate(&[0.1, 0.2, 1.5, 2.5, 2.6], 3.0, 3), 2.0);
    }
}
