//! Scheduler-determinism tests: the engine at 1, 3, 4 and 8 pool workers
//! must produce byte-identical outcomes and certificates — identical, too,
//! to the property-at-a-time prover — on the Figure-6 kernels and on
//! generated kernels (several seeds), as promised by the obligation
//! scheduler's design (DESIGN.md §6.9). The CI `scale` job re-checks the
//! same property end-to-end through the `rx` binary.

use reflex_verify::{check_certificate_with, prove_all, prove_with, Abstraction, ProverOptions};

fn options(jobs: usize) -> ProverOptions {
    ProverOptions {
        shared_cache: true,
        jobs,
        ..ProverOptions::default()
    }
}

/// Asserts every pool width agrees outcome-for-outcome with proving each
/// property whole, one after another, on `checked`.
fn assert_jobs_invariant(name: &str, checked: &reflex_typeck::CheckedProgram) {
    let abs = Abstraction::build(checked, &options(1));
    let whole: Vec<_> = checked
        .program()
        .properties
        .iter()
        .map(|p| {
            (
                p.name.clone(),
                prove_with(&abs, &p.name, &options(1)).expect("exists"),
            )
        })
        .collect();
    for jobs in [1, 3, 4, 8] {
        let pooled = prove_all(checked, &options(jobs));
        assert_eq!(whole.len(), pooled.len(), "{name}: run shapes must match");
        for ((sn, so), (pn, po)) in whole.iter().zip(&pooled) {
            assert_eq!(sn, pn, "{name}: property order must match");
            assert_eq!(
                so.is_proved(),
                po.is_proved(),
                "{name}/{sn}: verdict must not depend on the job count ({jobs})"
            );
            assert_eq!(
                so.certificate(),
                po.certificate(),
                "{name}/{sn}: certificates must be identical under any job count ({jobs})"
            );
        }
    }
}

#[test]
fn fig6_kernels_are_certificate_identical_serial_vs_parallel() {
    for bench in reflex_kernels::all_benchmarks() {
        assert_jobs_invariant(bench.name, &(bench.checked)());
    }
}

#[test]
fn generated_kernels_are_certificate_identical_serial_vs_parallel() {
    for seed in [1, 7, 42] {
        let config =
            reflex_kernels::synth::SynthConfig::preset("small", seed).expect("small preset exists");
        let kernel = reflex_kernels::synth::generate(&config);
        let checked = kernel.checked();
        assert_jobs_invariant(&kernel.name, &checked);
        // The small preset is provable by construction: every property
        // proves and the independent checker accepts every certificate.
        let abs = Abstraction::build(&checked, &options(1));
        for (name, outcome) in prove_all(&checked, &options(1)) {
            let cert = outcome
                .certificate()
                .unwrap_or_else(|| panic!("{}: {name} must prove", kernel.name));
            check_certificate_with(&abs, cert, &options(1))
                .unwrap_or_else(|e| panic!("{}: {name}: certificate rejected: {e}", kernel.name));
        }
    }
}

#[test]
fn generated_kernel_variants_stay_deterministic() {
    // The chaos harness replays variants as watch-session edits; each
    // variant must itself be schedulable deterministically.
    let config =
        reflex_kernels::synth::SynthConfig::preset("small", 3).expect("small preset exists");
    for variant in [1, 4] {
        let kernel = reflex_kernels::synth::generate_variant(&config, variant);
        assert_jobs_invariant(&kernel.name, &kernel.checked());
    }
}
