//! The session counter block: what `rx verify --stats`, `--json` and the
//! service's `SessionReport` carry about one run.

use reflex_verify::CacheStats;

/// Per-property measurement row.
#[derive(Debug, Clone)]
pub struct PropStats {
    /// Property name.
    pub name: String,
    /// Whether the proof search succeeded.
    pub proved: bool,
    /// Proof-search wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Discharged obligations in the certificate (`0` if failed).
    pub obligations: usize,
}

/// The counter block for one prover run.
#[derive(Debug, Clone)]
pub struct ProverStats {
    /// Proof threads: the width of the obligation pool the run used.
    pub jobs: usize,
    /// Total wall-clock of the run, milliseconds.
    pub total_ms: f64,
    /// Per-property rows, in declaration order.
    pub properties: Vec<PropStats>,
    /// Symbolic path segments analyzed during the run.
    pub paths_explored: u64,
    /// Shared proof-cache counters (zero when `shared_cache` is off).
    pub cache: CacheStats,
    /// Solver entailment queries issued during the run.
    pub solver_queries: u64,
    /// Entailment queries answered from the global memo table.
    pub solver_memo_hits: u64,
    /// Distinct hash-consed term nodes alive in the interner.
    pub interned_terms: u64,
}

impl ProverStats {
    /// Renders the counter block as human-readable text.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "prover stats: {} propert{} in {:.1} ms ({} job{})",
            self.properties.len(),
            if self.properties.len() == 1 {
                "y"
            } else {
                "ies"
            },
            self.total_ms,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
        );
        let _ = writeln!(s, "  paths explored:     {}", self.paths_explored);
        let _ = writeln!(
            s,
            "  invariant cache:    {} hits / {} misses ({} entries)",
            self.cache.invariant_hits, self.cache.invariant_misses, self.cache.invariant_entries
        );
        let _ = writeln!(
            s,
            "  lemma cache:        {} hits / {} misses ({} entries)",
            self.cache.lemma_hits, self.cache.lemma_misses, self.cache.lemma_entries
        );
        let _ = writeln!(
            s,
            "  solver entailments: {} queries, {} memo hits",
            self.solver_queries, self.solver_memo_hits
        );
        let _ = writeln!(s, "  interned terms:     {}", self.interned_terms);
        for p in &self.properties {
            let _ = writeln!(
                s,
                "  {:>10.2} ms  {}  {} ({} obligations)",
                p.wall_ms,
                if p.proved { "✓" } else { "✗" },
                p.name,
                p.obligations
            );
        }
        s
    }
}
