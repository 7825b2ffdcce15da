//! The multi-query batch verification engine.
//!
//! [`Engine`] runs a whole manifest of extraction / equivalence queries
//! over a work-stealing pool of verification workers, sharing two
//! caches across every query:
//!
//! * an [`ArtifactCache`](crate::ArtifactCache) of completed flat
//!   extractions (via [`CachingExtract`]) — duplicate circuits and
//!   structurally identical hierarchical sub-blocks extract once per
//!   batch, not once per occurrence;
//! * a [`ContextCache`] of constructed field contexts — each distinct
//!   modulus is Rabin-tested once.
//!
//! # Determinism
//!
//! Every query runs through the exact same [`Verifier`] ladder as a
//! standalone `Verifier::check`/`extract` call; the only batch-level
//! sharing is through providers bound by the [`ExtractProvider`]
//! determinism contract. Batch results are therefore bit-identical to running the
//! queries sequentially, at any worker count — the scheduler decides
//! *when* a query runs, never *what* it computes. (A shared wall-clock
//! deadline is the one intentional exception, exactly as it is for
//! sequential runs under a deadline.)
//!
//! # Scheduling
//!
//! Queries run over the shared work-stealing scheduler in
//! [`gfab_core::pool`] (round-robin deal onto per-worker deques, idle
//! workers steal from the back of their neighbours' deques). When a
//! batch-wide deadline is configured, each dequeue grants the query its
//! fair share of the *remaining* wall clock
//! (`remaining_wall / unstarted_queries`), so early finishers donate
//! their slack to later queries instead of stranding it.

use crate::cache::{CacheStats, CachingExtract};
use crate::core::equiv::EquivReport;
use crate::core::{pool, CoreError, ExtractProvider};
use crate::field::{ContextCache, Gf2Poly};
use crate::netlist::hierarchy::HierDesign;
use crate::netlist::Netlist;
use crate::telemetry::{EventBus, EventKind, HistData};
use crate::verifier::{Circuit, ExtractReport, Verifier};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Verification workers (`0` = available parallelism). With more
    /// than one worker, each query runs single-threaded internally;
    /// with one worker, queries keep their internal thread budget.
    pub threads: usize,
    /// Artifact-cache capacity in entries.
    pub cache_capacity: usize,
    /// Shared wall-clock budget for the whole batch, split fairly
    /// across queries at dequeue time. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Conflict cap of each query's SAT fallback rung.
    pub sat_conflicts: u64,
    /// Record a per-query telemetry span tree on each result.
    pub trace: bool,
    /// Live event bus the batch publishes into: per-query lifecycle
    /// (which worker picked up which query, how each ended) plus every
    /// in-flight phase/budget event of the queries themselves.
    /// Disabled by default; publishing never blocks workers.
    pub events: EventBus,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cache_capacity: 256,
            deadline: None,
            sat_conflicts: 1_000_000,
            trace: false,
            events: EventBus::default(),
        }
    }
}

/// An owned circuit in a batch query (the owning twin of
/// [`Circuit`], which borrows).
#[derive(Debug, Clone)]
pub enum OwnedCircuit {
    /// A flat gate-level netlist.
    Flat(Netlist),
    /// A hierarchical design.
    Hier(HierDesign),
}

impl OwnedCircuit {
    /// Borrows as the [`Verifier`]-facing [`Circuit`] view.
    #[must_use]
    pub fn as_circuit(&self) -> Circuit<'_> {
        match self {
            OwnedCircuit::Flat(nl) => Circuit::Flat(nl),
            OwnedCircuit::Hier(d) => Circuit::Hier(d),
        }
    }
}

/// What one batch query asks for.
#[derive(Debug, Clone)]
pub enum BatchOp {
    /// Abstract the circuit to its word-level polynomial.
    Extract(OwnedCircuit),
    /// Check a flat spec against an implementation.
    Equiv {
        /// The specification netlist.
        spec: Netlist,
        /// The implementation (flat or hierarchical).
        impl_: OwnedCircuit,
    },
}

/// One query of a batch: a name for reporting, the field modulus, and
/// the operation.
#[derive(Debug, Clone)]
pub struct BatchQuery {
    /// Name echoed on the query's result line.
    pub name: String,
    /// Irreducible modulus defining the query's field.
    pub modulus: Gf2Poly,
    /// What to do.
    pub op: BatchOp,
}

/// How one query ended.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// An extraction query completed (possibly with a Case-2 residual).
    Extracted(Box<ExtractReport>),
    /// An equivalence query completed (the verdict may be `Unknown`).
    Checked(Box<EquivReport>),
    /// The query's budget ran out before any verdict-bearing report
    /// existed (e.g. during model construction) — the batch-level
    /// analogue of a standalone TIMED OUT run, distinct from an error.
    TimedOut(String),
    /// The query failed outright (bad field, malformed design, internal
    /// error). Failure of one query never aborts the rest of the batch.
    Failed(String),
}

impl QueryOutcome {
    /// The one-word verdict used on result lines, in ledger lines and in
    /// live `query-done` events: `failed`, `timeout`, an extraction's
    /// [`word`](crate::core::Extraction::word) (`extracted` for a
    /// hierarchical design) or a verdict's [`word`](crate::core::equiv::Verdict::word).
    #[must_use]
    pub fn verdict_word(&self) -> &'static str {
        match self {
            QueryOutcome::Failed(_) => "failed",
            QueryOutcome::TimedOut(_) => "timeout",
            QueryOutcome::Extracted(report) => {
                report.as_flat().map_or("extracted", |r| r.outcome.word())
            }
            QueryOutcome::Checked(report) => report.verdict.word(),
        }
    }

    /// The process-exit severity of the outcome: [`exit_code`] of its
    /// [`verdict_word`](QueryOutcome::verdict_word).
    #[must_use]
    pub fn exit_severity(&self) -> u8 {
        exit_code(self.verdict_word())
    }
}

/// The exit code of a verdict word, the one mapping behind every
/// `gfab` subcommand and the batch aggregation: 0 ok, 1 inequivalent,
/// 2 failure, 3 resource exhausted (`timeout`, `unknown`).
#[must_use]
pub fn exit_code(verdict_word: &str) -> u8 {
    match verdict_word {
        "failed" => 2,
        "timeout" | "unknown" => 3,
        "inequivalent" => 1,
        _ => 0,
    }
}

/// One query's result within a [`BatchReport`].
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The query's name, as given.
    pub name: String,
    /// How it ended.
    pub outcome: QueryOutcome,
    /// Time the query spent queued before a worker picked it up, µs.
    pub queue_us: u64,
    /// Wall-clock time of the query itself.
    pub duration: Duration,
}

/// The result of [`Engine::run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-query results, indexed exactly like the submitted queries.
    pub results: Vec<QueryResult>,
    /// Artifact-cache counters after this pass (cumulative across the
    /// engine's lifetime).
    pub cache: CacheStats,
    /// Field-context cache hits so far (cumulative).
    pub context_hits: u64,
    /// Field-context cache misses so far (cumulative).
    pub context_misses: u64,
    /// Extraction work units (reduction steps + gates modelled) actually
    /// computed during *this* pass — a warm repeat of the same batch
    /// must come out strictly lower than its cold pass.
    pub work_units: u64,
    /// Queue-latency histogram over this pass
    /// ([`Hist::QueueLatencyUs`](crate::telemetry::Hist) semantics).
    pub queue_latency: HistData,
    /// Wall-clock time of the whole pass.
    pub wall: Duration,
}

/// A batch verification engine: a work-stealing worker pool plus
/// cross-query artifact and field-context caches (see module docs).
/// Caches persist across [`run_batch`](Engine::run_batch) calls, so a
/// repeated batch runs warm.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    provider: Arc<CachingExtract>,
    contexts: ContextCache,
}

impl Engine {
    /// Builds an engine from its configuration.
    #[must_use]
    pub fn new(config: EngineConfig) -> Engine {
        let provider = Arc::new(CachingExtract::new(config.cache_capacity));
        Engine {
            config,
            provider,
            contexts: ContextCache::new(16),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Artifact-cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.provider.stats()
    }

    /// Runs every query and returns their results in submission order.
    /// Individual query failures are captured as
    /// [`QueryOutcome::Failed`]; this method itself never fails.
    pub fn run_batch(&self, queries: &[BatchQuery]) -> BatchReport {
        let start = Instant::now();
        let work_before = self.provider.computed_work();
        let n = queries.len();
        let workers = self.resolve_workers(n);
        let inner_threads = if workers > 1 { 1 } else { self.config.threads };
        let unstarted = AtomicUsize::new(n);

        let results: Vec<QueryResult> = pool::run_indexed(workers, n, |w, i| {
            let queue_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let left = unstarted.fetch_sub(1, Ordering::Relaxed).max(1);
            let deadline = self
                .config
                .deadline
                .map(|d| d.saturating_sub(start.elapsed()) / left as u32);
            self.config.events.publish(EventKind::QueryStart {
                query: queries[i].name.clone(),
                worker: w as u64,
            });
            let q_start = Instant::now();
            let outcome = self.run_query(&queries[i], deadline, inner_threads);
            let duration = q_start.elapsed();
            self.config.events.publish(EventKind::QueryDone {
                query: queries[i].name.clone(),
                verdict: outcome.verdict_word().to_string(),
                exit: u64::from(outcome.exit_severity()),
                wall_us: duration.as_micros().min(u128::from(u64::MAX)) as u64,
                worker: w as u64,
            });
            QueryResult {
                name: queries[i].name.clone(),
                outcome,
                queue_us,
                duration,
            }
        });

        let mut queue_latency = HistData::new();
        for r in &results {
            queue_latency.record(r.queue_us);
        }
        BatchReport {
            results,
            cache: self.provider.stats(),
            context_hits: self.contexts.hits(),
            context_misses: self.contexts.misses(),
            work_units: self.provider.computed_work() - work_before,
            queue_latency,
            wall: start.elapsed(),
        }
    }

    fn resolve_workers(&self, n: usize) -> usize {
        let hw = || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        };
        let t = if self.config.threads == 0 {
            hw()
        } else {
            self.config.threads
        };
        t.min(n).max(1)
    }

    fn run_query(
        &self,
        q: &BatchQuery,
        deadline: Option<Duration>,
        inner_threads: usize,
    ) -> QueryOutcome {
        let ctx = match self.contexts.get(&q.modulus) {
            Ok(ctx) => ctx,
            Err(e) => return QueryOutcome::Failed(format!("field construction: {e}")),
        };
        let mut v = Verifier::new(&ctx)
            .threads(inner_threads)
            .sat_conflicts(self.config.sat_conflicts)
            .trace(self.config.trace)
            .events(&self.config.events)
            .extract_provider(Arc::clone(&self.provider) as Arc<dyn ExtractProvider>);
        if let Some(d) = deadline {
            v = v.deadline(d);
        }
        // Budget exhaustion is a verdictless timeout, not an error —
        // same split the standalone CLI makes (exit 3, not 2).
        let classify = |e: CoreError| match e {
            CoreError::BudgetExhausted { .. } => QueryOutcome::TimedOut(e.to_string()),
            other => QueryOutcome::Failed(other.to_string()),
        };
        match &q.op {
            BatchOp::Extract(c) => match v.extract(c.as_circuit()) {
                Ok(report) => QueryOutcome::Extracted(Box::new(report)),
                Err(e) => classify(e),
            },
            BatchOp::Equiv { spec, impl_ } => match v.check(spec, impl_.as_circuit()) {
                Ok(report) => QueryOutcome::Checked(Box::new(report)),
                Err(e) => classify(e),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
    use crate::field::nist::irreducible_polynomial;
    use crate::field::GfContext;

    fn mastrovito_query(name: &str, k: usize) -> BatchQuery {
        let m = irreducible_polynomial(k).unwrap();
        let ctx = GfContext::shared(m.clone()).unwrap();
        BatchQuery {
            name: name.to_string(),
            modulus: m,
            op: BatchOp::Extract(OwnedCircuit::Flat(mastrovito_multiplier(&ctx))),
        }
    }

    #[test]
    fn duplicate_queries_hit_the_cache() {
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let queries = vec![
            mastrovito_query("a", 4),
            mastrovito_query("b", 4),
            mastrovito_query("c", 4),
        ];
        let report = engine.run_batch(&queries);
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            let QueryOutcome::Extracted(e) = &r.outcome else {
                panic!("{}: {:?}", r.name, r.outcome)
            };
            assert_eq!(format!("{}", e.function().unwrap().display()), "A*B");
        }
        assert_eq!(report.cache.misses, 1, "one structure extracts once");
        assert_eq!(report.cache.hits, 2);
        assert_eq!(report.context_misses, 1, "one field, one Rabin test");
        assert_eq!(report.queue_latency.count, 3);
    }

    #[test]
    fn shared_sub_blocks_extract_once_within_one_design() {
        // Montgomery's four blocks contain two structurally identical
        // MonPro pairs → 4 lookups but fewer distinct extractions.
        let engine = Engine::new(EngineConfig {
            threads: 1,
            ..EngineConfig::default()
        });
        let m = irreducible_polynomial(4).unwrap();
        let ctx = GfContext::shared(m.clone()).unwrap();
        let queries = vec![BatchQuery {
            name: "mont".into(),
            modulus: m,
            op: BatchOp::Extract(OwnedCircuit::Hier(montgomery_multiplier_hier(&ctx))),
        }];
        let report = engine.run_batch(&queries);
        let QueryOutcome::Extracted(e) = &report.results[0].outcome else {
            panic!("{:?}", report.results[0].outcome)
        };
        assert_eq!(format!("{}", e.function().unwrap().display()), "A*B");
        assert_eq!(report.cache.hits + report.cache.misses, 4);
        assert!(
            report.cache.hits >= 1,
            "identical MonPro blocks must share an extraction: {:?}",
            report.cache
        );
    }

    #[test]
    fn warm_pass_does_strictly_less_work() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let queries = vec![mastrovito_query("a", 4), mastrovito_query("b", 5)];
        let cold = engine.run_batch(&queries);
        let warm = engine.run_batch(&queries);
        assert!(cold.work_units > 0);
        assert_eq!(warm.work_units, 0, "fully warm pass recomputes nothing");
    }

    #[test]
    fn failures_are_isolated_per_query() {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            ..EngineConfig::default()
        });
        let mut bad = mastrovito_query("bad", 4);
        bad.modulus = Gf2Poly::from_exponents(&[4, 0]); // reducible
        let queries = vec![bad, mastrovito_query("good", 4)];
        let report = engine.run_batch(&queries);
        assert!(matches!(report.results[0].outcome, QueryOutcome::Failed(_)));
        assert!(matches!(
            report.results[1].outcome,
            QueryOutcome::Extracted(_)
        ));
    }
}
