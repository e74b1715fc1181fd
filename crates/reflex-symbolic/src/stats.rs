//! Per-session statistics for the symbolic engine.
//!
//! The interner and the entailment memo are process-global (that is what
//! makes them effective), but their *counters* must not be: a long-lived
//! process running several verification sessions (`rx watch`, the
//! benchmark harness, the test binary) would otherwise report hit/miss
//! counts polluted by every session that came before. [`SymSessionStats`]
//! is an explicitly owned counter block that a session scopes onto a
//! thread with [`with_session_stats`]; while scoped, every interner and
//! memo event bumps the innermost session's counters (in addition to the
//! legacy process-global ones, which remain for whole-process reporting).
//!
//! The scope is thread-local, so a job pool must wrap each *task* — the
//! driver's `Session` does exactly that, giving `rx verify --stats` counts
//! that belong to that run alone.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters for one verification session. Shareable across worker threads
/// (each wraps its tasks in [`with_session_stats`] with a clone of the
/// same `Arc`).
#[derive(Debug, Default)]
pub struct SymSessionStats {
    /// `TermRef::new` calls answered from the interner (or its scratch).
    pub intern_hits: AtomicU64,
    /// `TermRef::new` calls that allocated a new node.
    pub intern_misses: AtomicU64,
    /// `Solver::entails` queries issued.
    pub memo_queries: AtomicU64,
    /// Queries answered from the entailment memo.
    pub memo_hits: AtomicU64,
    /// Symbolic path segments the provers (and the checker's
    /// re-derivations) analyzed.
    pub paths_explored: AtomicU64,
}

impl SymSessionStats {
    /// A fresh zeroed counter block.
    pub fn new() -> Arc<SymSessionStats> {
        Arc::new(SymSessionStats::default())
    }

    /// Interner hits so far.
    pub fn intern_hits(&self) -> u64 {
        self.intern_hits.load(Ordering::Relaxed)
    }

    /// Interner misses (new nodes) so far.
    pub fn intern_misses(&self) -> u64 {
        self.intern_misses.load(Ordering::Relaxed)
    }

    /// Entailment queries so far.
    pub fn memo_queries(&self) -> u64 {
        self.memo_queries.load(Ordering::Relaxed)
    }

    /// Entailment memo hits so far.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits.load(Ordering::Relaxed)
    }

    /// Path segments analyzed so far.
    pub fn paths_explored(&self) -> u64 {
        self.paths_explored.load(Ordering::Relaxed)
    }
}

thread_local! {
    static ACTIVE: RefCell<Vec<Arc<SymSessionStats>>> = const { RefCell::new(Vec::new()) };
}

/// Runs `f` with `stats` as this thread's innermost session counter
/// block. Nestable; panic-safe (the scope pops on unwind).
pub fn with_session_stats<R>(stats: Arc<SymSessionStats>, f: impl FnOnce() -> R) -> R {
    ACTIVE.with(|a| a.borrow_mut().push(stats));
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            ACTIVE.with(|a| {
                a.borrow_mut().pop();
            });
        }
    }
    let _guard = Guard;
    f()
}

/// This thread's innermost session counter block, if one is scoped. Job
/// pools use this to inherit the spawning thread's scope onto their
/// workers (the scope itself is thread-local).
pub fn current_session_stats() -> Option<Arc<SymSessionStats>> {
    ACTIVE.with(|a| a.borrow().last().map(Arc::clone))
}

fn bump(field: impl Fn(&SymSessionStats) -> &AtomicU64) {
    ACTIVE.with(|a| {
        if let Some(stats) = a.borrow().last() {
            field(stats).fetch_add(1, Ordering::Relaxed);
        }
    });
}

pub(crate) fn note_intern_hit() {
    bump(|s| &s.intern_hits);
}

pub(crate) fn note_intern_miss() {
    bump(|s| &s.intern_misses);
}

pub(crate) fn note_memo_query() {
    bump(|s| &s.memo_queries);
}

pub(crate) fn note_memo_hit() {
    bump(|s| &s.memo_hits);
}

/// Records one analyzed symbolic path segment against the innermost
/// scoped session (nothing is counted outside a scope).
pub fn note_path() {
    bump(|s| &s.paths_explored);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{SymCtx, SymKind, Term};
    use reflex_ast::{BinOp, Ty};

    #[test]
    fn scoped_counters_see_only_their_own_session() {
        let first = SymSessionStats::new();
        let second = SymSessionStats::new();
        let probe = |n: i64| {
            let mut ctx = SymCtx::new();
            let x = ctx.fresh_term(Ty::Num, SymKind::Fresh);
            let mut s = crate::Solver::new();
            s.assert_term(Term::bin(BinOp::Eq, x.clone(), Term::lit(n)), true);
            s.entails(&Term::bin(BinOp::Eq, x, Term::lit(n)), true);
        };
        with_session_stats(Arc::clone(&first), || probe(11));
        with_session_stats(Arc::clone(&second), || {
            probe(12);
            probe(13);
        });
        assert!(first.memo_queries() >= 1);
        assert!(second.memo_queries() >= 2);
        assert!(
            second.memo_queries() > first.memo_queries(),
            "sessions do not leak into each other: {} vs {}",
            first.memo_queries(),
            second.memo_queries()
        );
        // Outside any scope, nothing is counted against either session.
        let before = first.memo_queries();
        probe(14);
        assert_eq!(first.memo_queries(), before);
    }
}
