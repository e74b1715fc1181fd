//! Regenerates the paper's evaluation tables and figures as text.
//!
//! ```sh
//! cargo run -p reflex-bench --release --bin figures            # everything
//! cargo run -p reflex-bench --release --bin figures -- fig6    # Figure 6
//! cargo run -p reflex-bench --release --bin figures -- fig6 --json   # + BENCH_fig6.json
//! cargo run -p reflex-bench --release --bin figures -- table1
//! cargo run -p reflex-bench --release --bin figures -- ablation
//! cargo run -p reflex-bench --release --bin figures -- scaling
//! cargo run -p reflex-bench --release --bin figures -- utility
//! ```
//!
//! `fig6 --json` additionally measures the full suite serial (no shared
//! cache) vs. parallel (shared cache, one worker per CPU) and writes the
//! comparison to `BENCH_fig6.json`.
//!
//! What the reproduction adds on top of the paper (the resident daemon,
//! the proof-store edit loop, cold `rx verify` of generated kernels) is
//! measured by `perfbench` (`BENCHMARK.json`), not here.

use reflex_bench::{
    render_ablation, render_figure6, render_figure6_bench_json, render_table1, render_utility,
    run_ablation, run_figure6, run_figure6_bench, run_utility, table1, BenchError,
};
use reflex_verify::ProverOptions;

/// Unwraps a harness result, exiting 1 with the failure on stderr — a
/// failed verification is a real regression, not a panic.
fn check<T>(result: Result<T, BenchError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("figures: {e}");
        std::process::exit(1);
    })
}

/// `--jobs N` from the raw argument list (`0`/absent: one per CPU).
fn jobs_arg() -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".to_owned());
    let json = std::env::args().any(|a| a == "--json");
    let all = what == "all";

    if all || what == "table1" {
        println!("== Table 1: benchmark sizes (lines of Reflex code) ==\n");
        println!("{}", render_table1(&table1()));
    }
    if all || what == "fig6" {
        println!("== Figure 6: the 41 benchmark properties, proved fully automatically ==\n");
        let results = check(run_figure6(&ProverOptions::default()));
        println!("{}", render_figure6(&results));
        if json {
            let bench = check(run_figure6_bench(jobs_arg()));
            let doc = render_figure6_bench_json(&bench);
            let path = "BENCH_fig6.json";
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("figures: cannot write {path}: {e}");
                std::process::exit(1);
            }
            println!(
                "serial {:.1} ms vs parallel+cache ({} jobs) {:.1} ms on {} core(s): {:.2}x \
                 (outcomes identical: {}) -> wrote {path}",
                bench.serial.total_ms,
                bench.parallel.jobs,
                bench.parallel.total_ms,
                bench.cores,
                bench.speedup,
                bench.outcomes_identical
            );
        }
    }
    if all || what == "ablation" {
        println!("== §6.4 ablation: effect of the proof-search optimizations ==\n");
        println!("{}", render_ablation(&check(run_ablation())));
    }
    if all || what == "scaling" {
        println!("== Optimization scaling (synthetic kernels; the §6.4 speedups grow with kernel size) ==\n");
        println!("-- sweep 1: irrelevant handlers (branch depth 8) --");
        let points = reflex_bench::stress::run_scaling(&[0, 4, 8, 16, 32], 8);
        println!("{}", reflex_bench::stress::render_scaling(&points));
        println!("-- sweep 2: branch depth (8 irrelevant handlers; x-axis = depth) --");
        let points = reflex_bench::stress::run_depth_scaling(8, &[2, 4, 6, 8, 10, 12]);
        println!("{}", reflex_bench::stress::render_scaling(&points));
    }
    if all || what == "utility" {
        println!("== §6.3 utility: seeded bugs caught by pushbutton re-verification ==\n");
        println!("{}", render_utility(&check(run_utility())));
    }
    if !all && !["table1", "fig6", "ablation", "scaling", "utility"].contains(&what.as_str()) {
        eprintln!(
            "unknown figure `{what}` (expected table1 | fig6 | ablation | scaling | utility | all)"
        );
        std::process::exit(2);
    }
}
