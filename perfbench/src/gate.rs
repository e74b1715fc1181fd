//! The request mix and the verdict gate: what each request must answer,
//! and the certificate digests pinned in set-up that every later reply
//! must reproduce byte for byte.

use std::collections::HashMap;

use reflex_ast::fingerprint::FpHasher;
use reflex_driver::SessionReport;
use reflex_service::Request;
use reflex_verify::{certificate_to_bytes, Outcome};

/// One verify request of a workload.
#[derive(Debug, Clone)]
pub struct Job {
    /// Program name sent with the request.
    pub name: String,
    /// Kernel source.
    pub source: String,
    /// Property scope (`None`: all properties).
    pub property: Option<String>,
    /// The required verdict: the scoped property fails (a real `Failed`,
    /// not a timeout or crash) when set; every property proves otherwise.
    pub fails: bool,
}

impl Job {
    /// A job that must prove every property of `source`.
    pub fn proving(name: &str, source: String) -> Job {
        Job {
            name: name.to_owned(),
            source,
            property: None,
            fails: false,
        }
    }

    /// The wire request for this job.
    pub fn request(&self, want_events: bool) -> Request {
        Request::Verify {
            name: self.name.clone(),
            source: self.source.clone(),
            property: self.property.clone(),
            budget_ms: None,
            budget_nodes: None,
            want_events,
            deadline_ms: None,
            idempotency_key: None,
        }
    }

    /// Whether `verdict` is the answer this job requires.
    pub fn accepts(&self, verdict: &Verdict) -> bool {
        match (&self.property, self.fails) {
            (Some(property), true) => verdict.total == 1 && verdict.failed == [property.clone()],
            _ => verdict.total > 0 && verdict.proved == verdict.total,
        }
    }
}

/// The seven Figure 6 kernels, each proving every property, plus the four
/// §6.3 seeded-bug mutants of `reflex_bench::run_utility`, each scoped to
/// the property its bug breaks.
pub fn fig6_mix() -> Result<Vec<Job>, String> {
    let mut jobs: Vec<Job> = reflex_kernels::all_benchmarks()
        .into_iter()
        .map(|b| Job::proving(b.name, b.source.to_owned()))
        .collect();
    // The same four edits `run_utility` applies, with the property each
    // one must break.
    let mutants = [
        (
            "browser-mutant",
            reflex_kernels::browser::SOURCE,
            "    if (host == sender.domain) {\n      send(N, Connect(host));\n    }",
            "    send(N, Connect(host));",
            "SocketsOnlyToOwnDomain",
        ),
        (
            "car-mutant",
            reflex_kernels::car::SOURCE,
            "    crashed = true;\n",
            "",
            "NoLockAfterCrash",
        ),
        (
            "ssh-mutant",
            reflex_kernels::ssh::SOURCE,
            "    auth_ok = true;\n  }",
            "    auth_ok = true;\n    attempts = 0;\n  }",
            "FirstAttemptOnlyOnce",
        ),
        (
            "webserver-mutant",
            reflex_kernels::webserver::SOURCE,
            "    lookup Client(c : c.user == user) {\n    } else {\n      n <- spawn Client(user);\n    }",
            "    n <- spawn Client(user);",
            "ClientsNeverDuplicated",
        ),
    ];
    for (name, source, find, replace, property) in mutants {
        if !source.contains(find) {
            return Err(format!("{name}: the seeded edit no longer applies"));
        }
        jobs.push(Job {
            name: name.to_owned(),
            source: source.replacen(find, replace, 1),
            property: Some(property.to_owned()),
            fails: true,
        });
    }
    Ok(jobs)
}

/// What a report's outcomes say, reduced to what the gate compares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// FNV-1a over every outcome: property name, kind, and the
    /// certificate bytes (or the failure's location and reason).
    pub digest: u64,
    /// Properties proved.
    pub proved: usize,
    /// Properties whose outcome is a genuine `Failed`.
    pub failed: Vec<String>,
    /// Outcomes in the report.
    pub total: usize,
}

impl Verdict {
    /// Reduces a session report.
    pub fn of(report: &SessionReport) -> Verdict {
        Verdict::of_outcomes(&report.outcomes)
    }

    /// Reduces `(property, outcome)` pairs in declaration order.
    pub fn of_outcomes(outcomes: &[(String, Outcome)]) -> Verdict {
        let mut h = FpHasher::new();
        let mut proved = 0;
        let mut failed = Vec::new();
        for (name, outcome) in outcomes {
            h.write_str(name);
            match outcome {
                Outcome::Proved(cert) => {
                    proved += 1;
                    h.write_str("proved");
                    h.write(&certificate_to_bytes(cert));
                }
                Outcome::Failed(f)
                | Outcome::Timeout(f)
                | Outcome::Cancelled(f)
                | Outcome::Crashed(f) => {
                    let kind = match outcome {
                        Outcome::Failed(_) => {
                            failed.push(name.clone());
                            "failed"
                        }
                        Outcome::Timeout(_) => "timeout",
                        Outcome::Cancelled(_) => "cancelled",
                        _ => "crashed",
                    };
                    h.write_str(kind);
                    h.write_str(&f.location);
                    h.write_str(&f.reason);
                }
            }
        }
        Verdict {
            digest: h.finish().0,
            proved,
            failed,
            total: outcomes.len(),
        }
    }
}

/// Certificate digests pinned per program text: the first verdict seen
/// for a source is the reference every later one must equal.
#[derive(Debug, Default)]
pub struct Pins {
    digests: HashMap<u64, u64>,
}

impl Pins {
    /// Pins `verdict`'s digest for `job` if unseen; otherwise reports
    /// whether it matches the pinned one.
    pub fn check(&mut self, job: &Job, verdict: &Verdict) -> bool {
        *self.digests.entry(Pins::key(job)).or_insert(verdict.digest) == verdict.digest
    }

    fn key(job: &Job) -> u64 {
        let mut h = FpHasher::new();
        h.write_str(&job.source);
        h.write_str(job.property.as_deref().unwrap_or(""));
        h.finish().0
    }
}

/// Checks one verdict against its job and the pins; `true` when correct.
pub fn judge(job: &Job, verdict: &Verdict, pins: &mut Pins) -> bool {
    job.accepts(verdict) && pins.check(job, verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_mutant_edit_applies() {
        let jobs = fig6_mix().expect("mutant edits apply");
        assert_eq!(jobs.len(), 11);
        assert_eq!(jobs.iter().filter(|j| j.fails).count(), 4);
    }
}
