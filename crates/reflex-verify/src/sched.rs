//! A hand-rolled work-stealing pool over pre-enumerated, independent
//! proof tasks — the one scheduler every verification fans out on (the
//! engine in [`crate::incremental`] is its only caller).
//!
//! The engine hands it flat lists of independent tasks (property
//! preparations, then every obligation of every property, then per-property
//! assembly) whose results must be collected *in index order* so outcomes
//! and certificates are identical to a serial run regardless of thread
//! timing.
//!
//! [`run_indexed`] implements that shape as an injector/stealer pool (no
//! external deps — crossbeam is not vendored):
//!
//! * a global **injector** hands out contiguous chunks of indices via one
//!   atomic cursor, amortizing contention to one fetch-add per chunk;
//! * each worker drains its chunk from a **local deque**; when both its
//!   deque and the injector are empty it **steals half** of the richest
//!   victim's remaining work, so a worker stuck behind one expensive
//!   obligation cannot strand the tail of its chunk while others idle;
//! * every result lands in its index's slot; the caller reads the slots
//!   in order. Scheduling decides only *who* computes a result, never
//!   *what* it is, which is the whole determinism argument (DESIGN.md
//!   §6.9).
//!
//! Panics on worker threads propagate to the caller (the scope joins the
//! workers), preserving `std::thread::scope` semantics; callers that want
//! panic isolation wrap the task body in
//! [`crate::options::catch_crash`] themselves.
//!
//! Every worker (and the calling thread, when the pool degenerates to a
//! serial loop) runs inside one scratch term arena scope
//! ([`reflex_symbolic::with_scratch`]) for the whole call, so tasks nest
//! into it instead of allocating and dropping a table each. The calling
//! thread's symbolic session-stats scope
//! ([`reflex_symbolic::with_session_stats`]) is inherited by every worker,
//! so per-session counters survive the hop onto pool threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `run(i)` for every `i in 0..count` on `workers` threads and
/// returns the results in index order. `workers <= 1` (or `count <= 1`)
/// degenerates to a serial loop on the calling thread.
pub fn run_indexed<R, F>(workers: usize, count: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.min(count).max(1);
    if workers == 1 {
        return reflex_symbolic::with_scratch(|| (0..count).map(run).collect());
    }

    // Chunk size: small enough that stealing has something to rebalance,
    // large enough to amortize the injector cursor. ~8 chunks per worker.
    let chunk = (count / (workers * 8)).max(1);
    let injector = AtomicUsize::new(0);
    let locals: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let slots: Vec<Mutex<Option<R>>> = (0..count).map(|_| Mutex::new(None)).collect();

    let pop_local = |me: usize| -> Option<usize> {
        locals[me].lock().expect("sched local poisoned").pop_front()
    };
    let refill = |me: usize| -> Option<usize> {
        let start = injector.fetch_add(chunk, Ordering::Relaxed);
        if start >= count {
            return None;
        }
        let end = (start + chunk).min(count);
        let mut local = locals[me].lock().expect("sched local poisoned");
        local.extend(start + 1..end);
        Some(start)
    };
    let steal = |me: usize| -> Option<usize> {
        // Victim with the most queued work; take the back half of its
        // deque (the part it would reach last).
        let victim = (0..workers)
            .filter(|&v| v != me)
            .max_by_key(|&v| locals[v].lock().expect("sched local poisoned").len())?;
        let mut theirs = locals[victim].lock().expect("sched local poisoned");
        let n = theirs.len();
        if n == 0 {
            return None;
        }
        let take = n.div_ceil(2);
        let stolen: Vec<usize> = (0..take).filter_map(|_| theirs.pop_back()).collect();
        drop(theirs);
        let (&first, rest) = stolen.split_first()?;
        let mut mine = locals[me].lock().expect("sched local poisoned");
        mine.extend(rest.iter().copied());
        Some(first)
    };

    // The session-stats scope is thread-local; carry the caller's onto
    // each worker so scoped counters keep counting across the pool.
    let session = reflex_symbolic::current_session_stats();
    std::thread::scope(|scope| {
        for me in 0..workers {
            let run = &run;
            let slots = &slots;
            let pop_local = &pop_local;
            let refill = &refill;
            let steal = &steal;
            let session = session.clone();
            let work = move || {
                reflex_symbolic::with_scratch(|| {
                    while let Some(i) = pop_local(me).or_else(|| refill(me)).or_else(|| steal(me)) {
                        *slots[i].lock().expect("sched slot poisoned") = Some(run(i));
                    }
                })
            };
            scope.spawn(move || match session {
                Some(stats) => reflex_symbolic::with_session_stats(stats, work),
                None => work(),
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("sched slot poisoned")
                .expect("every obligation slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_index_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 17] {
            let out = run_indexed(workers, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let ran = (0..257).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let _ = run_indexed(8, 257, |i| ran[i].fetch_add(1, Ordering::SeqCst));
        assert!(ran.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn empty_and_single_counts_work() {
        assert_eq!(run_indexed(4, 0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(4, 1, |i| i + 7), vec![7]);
    }

    #[test]
    fn workers_inherit_the_callers_session_stats_scope() {
        use reflex_ast::{BinOp, Ty};
        use reflex_symbolic::{Solver, SymCtx, SymKind, Term};
        let stats = reflex_symbolic::SymSessionStats::new();
        reflex_symbolic::with_session_stats(std::sync::Arc::clone(&stats), || {
            let _ = run_indexed(4, 16, |i| {
                let mut ctx = SymCtx::new();
                let x = ctx.fresh_term(Ty::Num, SymKind::Fresh);
                let mut s = Solver::new();
                s.assert_term(Term::bin(BinOp::Eq, x.clone(), Term::lit(i as i64)), true);
                s.entails(&Term::bin(BinOp::Eq, x, Term::lit(i as i64)), true)
            });
        });
        assert!(
            stats.memo_queries() >= 16,
            "queries issued on pool workers must land in the scoped session: {}",
            stats.memo_queries()
        );
    }

    #[test]
    fn uneven_task_costs_rebalance() {
        // One pathological task; the rest must not wait behind it.
        let out = run_indexed(4, 64, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i
        });
        assert_eq!(out.len(), 64);
    }
}
