//! Golden `--budget-nodes` sweep: at one worker, every node budget from
//! zero to "enough" must give each property of ssh and car the same
//! outcome kind — and use the same number of budget ticks — as the
//! property-at-a-time session path this engine replaced. The tables were
//! recorded on that path.
//!
//! Each entry `(n, kinds, ticks)` holds for every budget from `n` up to
//! the next entry: one letter per property in declaration order (`P`
//! proved, `T` timeout), or `E` when the session fails — the checker's
//! non-interference re-derivation draws on the same budget, so a budget
//! that lets a proof through but not its re-check is a session error.

use reflex_driver::{NullSink, SessionConfig, VerifySession};
use reflex_verify::Outcome;

const SSH: &[(u64, &str, u64)] = &[
    (0, "TTTTT", 1),
    (1, "TTTTT", 2),
    (2, "TTTTT", 4),
    (3, "TTTTT", 5),
    (4, "TTTTT", 6),
    (6, "PTTTT", 7),
    (7, "PTTTT", 8),
    (8, "PTTTT", 9),
    (9, "PTTTT", 10),
    (10, "PTTTT", 11),
    (11, "PTTTT", 12),
    (12, "PPTTT", 13),
    (13, "PPTTT", 14),
    (14, "PPTTT", 15),
    (15, "PPTTT", 16),
    (16, "PPTTT", 17),
    (17, "PPTTT", 18),
    (18, "PPTTT", 19),
    (19, "PPTTT", 20),
    (20, "PPTTT", 21),
    (21, "PPPTT", 22),
    (22, "PPPTT", 23),
    (23, "PPPTT", 24),
    (24, "PPPTT", 25),
    (25, "PPPTT", 26),
    (26, "PPPTT", 27),
    (27, "PPPPT", 28),
    (28, "PPPPT", 29),
    (29, "PPPPT", 30),
    (30, "PPPPT", 31),
    (31, "PPPPT", 32),
    (32, "PPPPT", 33),
    (33, "PPPPT", 34),
    (34, "PPPPP", 34),
];

const CAR: &[(u64, &str, u64)] = &[
    (0, "TTTTTTTT", 60),
    (35, "TTTTTTTT", 61),
    (61, "E", 121),
    (96, "E", 122),
    (122, "PTTTTTTT", 123),
    (123, "PTTTTTTT", 124),
    (124, "PPTTTTTT", 125),
    (125, "PPTTTTTT", 126),
    (126, "PPPTTTTT", 127),
    (127, "PPPTTTTT", 128),
    (128, "PPPPTTTT", 129),
    (129, "PPPPTTTT", 130),
    (130, "PPPPPTTT", 131),
    (131, "PPPPPTTT", 132),
    (132, "PPPPPPTT", 133),
    (133, "PPPPPPTT", 134),
    (134, "PPPPPPTT", 135),
    (135, "PPPPPPTT", 136),
    (136, "PPPPPPTT", 137),
    (137, "PPPPPPPT", 138),
    (138, "PPPPPPPT", 139),
    (139, "PPPPPPPP", 139),
];

/// Outcome kinds and budget ticks of one session under a node budget.
fn run(checked: &reflex_typeck::CheckedProgram, nodes: u64) -> (String, u64) {
    let session = VerifySession::new(SessionConfig {
        budget_nodes: Some(nodes),
        ..SessionConfig::default()
    })
    .expect("session opens");
    let kinds = match session.verify_checked(checked, &NullSink) {
        Ok(report) => report
            .outcomes
            .iter()
            .map(|(_, o)| match o {
                Outcome::Proved(_) => 'P',
                Outcome::Timeout(_) => 'T',
                Outcome::Failed(_) => 'F',
                Outcome::Cancelled(_) => 'X',
                Outcome::Crashed(_) => 'C',
            })
            .collect(),
        Err(_) => "E".to_owned(),
    };
    let ticks = session.budget().expect("budgeted").nodes_used();
    (kinds, ticks)
}

fn assert_sweep(name: &str, source: &str, golden: &[(u64, &str, u64)]) {
    let program = reflex_parser::parse_program(name, source).expect("parses");
    let checked = reflex_typeck::check(&program).expect("typechecks");
    let last = golden.last().expect("non-empty table").0;
    for nodes in 0..=last + 1 {
        let (_, kinds, ticks) = golden
            .iter()
            .rev()
            .find(|(n, _, _)| *n <= nodes)
            .expect("the table starts at zero");
        assert_eq!(
            run(&checked, nodes),
            ((*kinds).to_owned(), *ticks),
            "{name} under --budget-nodes {nodes}"
        );
    }
}

#[test]
fn ssh_budget_sweep_matches_the_recorded_outcomes() {
    assert_sweep("ssh", reflex_kernels::ssh::SOURCE, SSH);
}

#[test]
fn car_budget_sweep_matches_the_recorded_outcomes() {
    assert_sweep("car", reflex_kernels::car::SOURCE, CAR);
}
