//! Cooperative proof-search budgets.
//!
//! A [`ProofBudget`] bounds one verification session by wall-clock time
//! and/or explored-path count, and doubles as a cancellation token. The
//! provers poll it at every path they explore (the same cadence as
//! the session's path counter), so a stuck property degrades to a
//! reported [`crate::Outcome::Timeout`] instead of hanging the batch.
//!
//! The checks are *cooperative*: nothing is interrupted mid-obligation.
//! Each poll is one atomic load plus (when a deadline is set) one
//! monotonic-clock read, so the overhead is negligible next to a solver
//! query. Budgets deliberately live outside [`crate::ProverOptions`]'s
//! certificate fingerprint: like `jobs`, they can only stop a search
//! early, never change what a completed search proves.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::clock::{Clock, RealClock};

/// Why a budgeted proof search was stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// [`ProofBudget::cancel`] was called (e.g. ctrl-C or a supervisor).
    Cancelled,
    /// The wall-clock deadline passed.
    WallClock,
    /// The explored-path allowance ran out.
    Nodes,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Cancelled => write!(f, "cancelled"),
            BudgetExceeded::WallClock => write!(f, "wall-clock budget exhausted"),
            BudgetExceeded::Nodes => write!(f, "node budget exhausted"),
        }
    }
}

/// A shared wall-clock / node budget and cancellation token for one
/// verification session.
///
/// Clone an `Arc<ProofBudget>` into [`crate::ProverOptions::budget`] to
/// bound every proof attempt of a session collectively: the node counter
/// and the deadline are session-wide, not per-property, so a session that
/// exhausts its budget fails *fast* on the remaining properties instead of
/// burning the same allowance again on each.
#[derive(Debug)]
pub struct ProofBudget {
    clock: Arc<dyn Clock>,
    deadline_ns: Option<u64>,
    max_nodes: Option<u64>,
    nodes: AtomicU64,
    cancelled: AtomicBool,
}

impl ProofBudget {
    /// A budget with the given limits; `None` means unlimited on that
    /// axis. Deadlines are measured on the machine's monotonic clock; use
    /// [`ProofBudget::new_with_clock`] to measure simulated time instead.
    pub fn new(wall: Option<Duration>, max_nodes: Option<u64>) -> Self {
        Self::new_with_clock(RealClock::shared(), wall, max_nodes)
    }

    /// A budget whose wall-clock axis reads `clock`. Under a
    /// [`crate::clock::VirtualClock`] the deadline becomes a deterministic
    /// function of how many times the provers poll the budget, so the
    /// same seed and budget yield the same timeout set on every machine.
    pub fn new_with_clock(
        clock: Arc<dyn Clock>,
        wall: Option<Duration>,
        max_nodes: Option<u64>,
    ) -> Self {
        let deadline_ns = wall.map(|d| {
            clock
                .now_ns()
                .saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        });
        ProofBudget {
            clock,
            deadline_ns,
            max_nodes,
            nodes: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
        }
    }

    /// An unlimited budget that still works as a cancellation token.
    pub fn unlimited() -> Self {
        Self::new(None, None)
    }

    /// Requests cooperative cancellation: every prover polling this budget
    /// stops at its next path boundary.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether [`ProofBudget::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Paths charged against this budget so far.
    pub fn nodes_used(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Charges one explored path and reports whether the budget still
    /// holds. Called by the provers at every path boundary.
    pub fn tick(&self) -> Result<(), BudgetExceeded> {
        let used = self.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        self.check_with_nodes(used)
    }

    /// Checks the budget without charging a node (used between phases,
    /// e.g. before starting the next property of a batch).
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        self.check_with_nodes(self.nodes.load(Ordering::Relaxed))
    }

    fn check_with_nodes(&self, used: u64) -> Result<(), BudgetExceeded> {
        if self.is_cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        if let Some(max) = self.max_nodes {
            if used > max {
                return Err(BudgetExceeded::Nodes);
            }
        }
        if let Some(deadline_ns) = self.deadline_ns {
            if self.clock.now_ns() >= deadline_ns {
                return Err(BudgetExceeded::WallClock);
            }
        }
        Ok(())
    }
}

/// Marker prefix on [`crate::ProofFailure::reason`] for budget-induced
/// stops; [`crate::prove_with_cache`] uses it to classify the result as
/// [`crate::Outcome::Timeout`] rather than a genuine proof failure.
pub(crate) const BUDGET_REASON_PREFIX: &str = "proof-search budget exhausted";

/// Whether a failure was manufactured by [`tick_path`] (as opposed to a
/// genuinely unprovable obligation).
pub(crate) fn is_budget_failure(failure: &crate::ProofFailure) -> bool {
    failure.reason.starts_with(BUDGET_REASON_PREFIX)
}

/// Whether a budget failure was specifically an explicit cancellation
/// (as opposed to an exhausted wall-clock or node allowance). The reason
/// embeds [`BudgetExceeded`]'s Display, so `(cancelled)` appears exactly
/// when [`ProofBudget::cancel`] tripped the search.
pub(crate) fn is_cancel_failure(failure: &crate::ProofFailure) -> bool {
    is_budget_failure(failure) && failure.reason.contains("(cancelled)")
}

/// Records one explored path and charges it against the session budget,
/// if any. Every prover path loop calls this; the `Err` unwinds the
/// search like an ordinary unprovable obligation and is re-classified as
/// a timeout at the [`crate::prove_with_cache`] boundary.
pub(crate) fn tick_path(
    options: &crate::ProverOptions,
    location: &str,
) -> Result<(), crate::ProofFailure> {
    reflex_symbolic::note_path();
    if let Some(budget) = &options.budget {
        if let Err(why) = budget.tick() {
            return Err(crate::ProofFailure {
                location: location.to_owned(),
                reason: format!("{BUDGET_REASON_PREFIX} ({why})"),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let b = ProofBudget::unlimited();
        for _ in 0..10_000 {
            assert_eq!(b.tick(), Ok(()));
        }
    }

    #[test]
    fn node_budget_trips_after_allowance() {
        let b = ProofBudget::new(None, Some(3));
        assert_eq!(b.tick(), Ok(()));
        assert_eq!(b.tick(), Ok(()));
        assert_eq!(b.tick(), Ok(()));
        assert_eq!(b.tick(), Err(BudgetExceeded::Nodes));
        // Exhaustion is sticky: later ticks keep failing.
        assert_eq!(b.tick(), Err(BudgetExceeded::Nodes));
        assert_eq!(b.check(), Err(BudgetExceeded::Nodes));
    }

    #[test]
    fn zero_wall_budget_trips_immediately() {
        let b = ProofBudget::new(Some(Duration::from_millis(0)), None);
        assert_eq!(b.tick(), Err(BudgetExceeded::WallClock));
    }

    #[test]
    fn virtual_clock_budget_trips_after_a_fixed_poll_count() {
        use crate::clock::VirtualClock;
        // 1µs per poll, 10µs budget: construction reads the clock once,
        // so exactly 9 polls pass and the 10th trips — on any machine,
        // any number of times.
        let trip_poll = |_| {
            let b = ProofBudget::new_with_clock(
                Arc::new(VirtualClock::new(1_000)),
                Some(Duration::from_micros(10)),
                None,
            );
            let mut polls = 0u64;
            while b.tick().is_ok() {
                polls += 1;
            }
            polls
        };
        let first = trip_poll(0);
        assert_eq!(first, 9);
        assert!((1..5).map(trip_poll).all(|p| p == first));
    }

    #[test]
    fn cancellation_wins_over_other_axes() {
        let b = ProofBudget::new(Some(Duration::from_millis(0)), Some(0));
        b.cancel();
        assert_eq!(b.tick(), Err(BudgetExceeded::Cancelled));
    }
}
