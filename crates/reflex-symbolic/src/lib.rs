//! Symbolic terms, a constraint solver, and symbolic evaluation of Reflex
//! handlers.
//!
//! This crate is the substrate of the proof automation in `reflex-verify`:
//!
//! * [`Term`] — the symbolic value language, with aggressive bottom-up
//!   simplification (constant folding, linear arithmetic normalization,
//!   canonical ordering);
//! * [`Solver`] — a sound-for-UNSAT decision procedure over conjunctions of
//!   boolean literals (equality classes + constant propagation + interval
//!   reasoning + unit propagation), used for path feasibility and
//!   entailment;
//! * [`SymComp`], [`SymAction`], [`unify_action`] — symbolic components and
//!   actions, with pattern unification producing bindings and equality
//!   side-conditions;
//! * [`Evaluator`] — total symbolic evaluation of loop-free handlers: the
//!   `Exchange` relation of the behavioral abstraction `BehAbs` (paper §3.3).
//!
//! # Example
//!
//! ```
//! use reflex_ast::build::ProgramBuilder;
//! use reflex_ast::{Expr, Ty};
//! use reflex_symbolic::{Evaluator, SymCtx};
//!
//! let program = ProgramBuilder::new("gate")
//!     .component("C", "c.py", [])
//!     .message("Go", [Ty::Num])
//!     .state("armed", Ty::Bool, Expr::lit(false))
//!     .init_spawn("c0", "C", [])
//!     .handler("C", "Go", ["n"], |h| {
//!         h.when(Expr::var("armed"), |t| {
//!             t.send(Expr::var("c0"), "Go", [Expr::var("n")]);
//!         });
//!     })
//!     .finish();
//! let checked = reflex_typeck::check(&program).unwrap();
//! let eval = Evaluator::new(&checked);
//! let mut ctx = SymCtx::new();
//! let init = eval.eval_init(&mut ctx);
//! assert_eq!(init.len(), 1);
//! let pre = eval.generic_pre_state(&mut ctx, &init[0].state);
//! let exchange = eval.eval_exchange(&mut ctx, &pre, "C", "Go");
//! // Two paths: guard true (one send) and guard false (silent).
//! assert_eq!(exchange.paths.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod arena;
mod comp;
mod eval;
mod intern;
mod memo;
mod solver;
mod stats;
mod term;

pub use action::{binding_literal, unify_action, SymAction, SymBindings, Unify};
pub use arena::with_scratch;
pub use comp::{CompOrigin, SymComp};
pub use eval::{CondKind, Evaluator, Exchange, MissedLookup, Path, SymState};
pub use intern::{intern_stats, InternStats, TermRef};
pub use memo::{
    clear_entailment_memo, entailment_memo_stats, reset_entailment_memo_stats, EntailmentMemoStats,
};
pub use solver::Solver;
pub use stats::{current_session_stats, note_path, with_session_stats, SymSessionStats};
pub use term::{SymCtx, SymKind, SymVar, Term};
