//! # Reflex
//!
//! A Rust reproduction of **"Automating Formal Proofs for Reactive
//! Systems"** (Ricketts, Robert, Jang, Tatlock, Lerner — PLDI 2014): the
//! Reflex DSL for reactive-system kernels together with fully automatic,
//! pushbutton verification of trace and non-interference properties.
//!
//! This crate is a façade re-exporting the workspace's sub-crates:
//!
//! * [`ast`] — program and property syntax ([`ast::Program`]).
//! * [`parser`] — the concrete `.rx` frontend ([`parser::parse_program`]).
//! * [`typeck`] — static well-formedness checking.
//! * [`trace`] — actions, traces and the five trace-property primitives.
//! * [`symbolic`] — symbolic terms, the constraint solver and the symbolic
//!   evaluator over loop-free handlers.
//! * [`verify`] — the paper's core contribution: automatic proof search
//!   producing machine-checkable certificates, plus a bounded
//!   counterexample finder.
//! * [`runtime`] — an executable interpreter with simulated components and
//!   a `BehAbs` trace-inclusion oracle.
//! * [`kernels`] — the paper's benchmark kernels (car, ssh, ssh2,
//!   browser 1–3, webserver) and their 41 properties.
//! * [`bench`] — the evaluation harness (Figure 6, Table 1, ablation),
//!   the recorded edit session, and the supervised-runtime soak engine
//!   that `rx run --faults` and the simulator's soak scenario share.
//! * [`driver`] — the instrumented [`driver::VerifySession`] pipeline
//!   engine every entry point (CLI, watch loop, benches) runs on.
//! * [`rng`] — the one splittable deterministic RNG and the labelled
//!   seed-derivation tree every stochastic component draws from.
//! * [`sim`] — the deterministic whole-stack simulator behind
//!   `rx sim run / swarm / replay`, the one chaos and soak engine: one
//!   root seed, virtual time, scenario traces, automatic shrinking.
//! * [`service`] — the resident service core behind `rxd` and
//!   `rx client`: one long-lived shared `Env`, a framed wire protocol
//!   with streamed events, and the thin client SDK.
//! * [`cli`] — shared option-table flag parsing for the `rx` frontend.
//!
//! # Quickstart
//!
//! ```
//! use reflex::prelude::*;
//!
//! // The simplified SSH kernel from Figure 3 of the paper.
//! let program = reflex::kernels::ssh::program();
//! let checked = reflex::typeck::check(&program).expect("well-formed");
//!
//! // Prove every declared property, fully automatically.
//! for prop in &program.properties {
//!     let outcome = reflex::verify::prove(&checked, &prop.name, &Default::default())
//!         .expect("verification ran");
//!     assert!(outcome.is_proved(), "{} should verify", prop.name);
//! }
//! ```

#![forbid(unsafe_code)]

pub mod cli;

pub use reflex_ast as ast;
pub use reflex_bench as bench;
pub use reflex_driver as driver;
pub use reflex_kernels as kernels;
pub use reflex_parser as parser;
pub use reflex_rng as rng;
pub use reflex_runtime as runtime;
pub use reflex_service as service;
pub use reflex_sim as sim;
pub use reflex_symbolic as symbolic;
pub use reflex_trace as trace;
pub use reflex_typeck as typeck;
pub use reflex_verify as verify;

/// Commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use reflex_ast::{
        ActionPat, Cmd, CompPat, Expr, PatField, Program, PropBody, PropertyDecl, TraceProp,
        TracePropKind, Ty, Value,
    };
    pub use reflex_parser::parse_program;
    pub use reflex_typeck::check;
}
