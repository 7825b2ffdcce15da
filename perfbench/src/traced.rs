//! The traced run: every query is run untraced (the reference) and then
//! once more through the benchmark's own mirror of the program's verdict
//! ladder, which calls each layer's public function inside a span. No span
//! is added inside the program. Where a step has no public entry point
//! (Case-2 completion, hierarchical composition) the program's own timing
//! is used and labelled as program-reported.
//!
//! The mirror must do the same work as `Verifier::check`: its reduction
//! steps, peak terms and verdict step are compared with the reference run
//! of the same query, and any difference marks the run incorrect.

use crate::alloc;
use crate::inputs::{Impl, Query, Setup, SetupTimes};
use crate::run::{Record, Step};
use crate::stats::median;
use crate::{Args, Metrics};
use gfab::core::hier::extract_hierarchical_budgeted_with;
use gfab::core::model::CircuitModel;
use gfab::core::{
    extract_word_polynomial_with, CoreError, ExtractOptions, ExtractProvider, Extraction,
    ExtractionResult, ExtractionStats, WordFunction,
};
use gfab::field::budget::Budget;
use gfab::field::{Gf, GfContext, Rng};
use gfab::netlist::hierarchy::HierDesign;
use gfab::netlist::sim::random_equivalence_check;
use gfab::netlist::Netlist;
use gfab::poly::reduce::Reducer;
use gfab::poly::{Monomial, Poly, VarId, VarKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

// The verdict ladder of `gfab_core::equiv::check_equivalence_budgeted_with`,
// mirrored constant for constant so the traced run repeats its work.
/// The simulation pre-check runs for k above this.
const PRECHECK_ABOVE_K: usize = 5;
const PRECHECK_VECTORS: usize = 64;
const PRECHECK_SEED: u64 = 0xFA57;
/// Vectors of the refutation sweep after a residual extraction.
const REFUTE_VECTORS: usize = 256;
const REFUTE_SEED: u64 = 0xCEC;
/// Counterexample search after a coefficient mismatch.
const CEX_TRIES: usize = 4096;
const CEX_SEED: u64 = 0x5EED;

/// Field multiplies per timed batch of `field.mul_ns`, and batches.
const MUL_BATCH: usize = 50_000;
const MUL_BATCHES: usize = 9;

/// Directory, relative to the working directory, the span tables go to.
const SPAN_DIR: &str = "perfbench-out";

/// Spans that are layers: their time is attributed. Every other span is a
/// grouping whose self time is unattributed.
const LAYERS: [&str; 7] = [
    "model.build",
    "model.drop",
    "reduce.prepare",
    "reduce.nf",
    "extract.canon",
    "netlist.sim",
    "equiv.decide",
];

#[derive(Debug, Clone)]
struct SpanRec {
    round: usize,
    query: usize,
    parent: Option<usize>,
    name: &'static str,
    label: String,
    start: Duration,
    end: Duration,
    allocs: u64,
    /// Live-heap peak during the span above its level at the start.
    peak_growth: u64,
}

/// Counts and program-reported times of one round.
#[derive(Debug, Clone, Default)]
struct RoundAgg {
    untraced_s: f64,
    traced_s: f64,
    steps: u64,
    peak_terms: usize,
    cancellations: u64,
    coeff_muls: u64,
    reduction_folds: u64,
    sims: u64,
    sim_refutes: u64,
    case2_runs: u64,
    case2_completed: u64,
    case2_s: f64,
    compose_s: f64,
    by_word: u64,
    by_sim: u64,
    by_sat: u64,
    unknown: u64,
    sat_calls: u64,
    sat_conflicts: u64,
}

#[derive(Default)]
struct State {
    epoch: Option<Instant>,
    round: usize,
    query: usize,
    spans: Vec<SpanRec>,
    stack: Vec<(usize, u64, u64, u64)>,
    rounds: Vec<RoundAgg>,
}

impl State {
    fn agg(&mut self) -> &mut RoundAgg {
        let r = self.round;
        if self.rounds.len() <= r {
            self.rounds.resize(r + 1, RoundAgg::default());
        }
        &mut self.rounds[r]
    }
}

/// Span recorder and per-round accumulator of the traced run.
#[derive(Default)]
pub struct Tracer {
    state: Mutex<State>,
    mismatches: Vec<String>,
}

/// What the mirror decided and how much reduction work it did per side.
struct Mirrored {
    step: Step,
    spec_steps: u64,
    impl_steps: u64,
    spec_peak: usize,
    impl_peak: usize,
}

impl Tracer {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer state is never left poisoned")
    }

    /// Runs `f` inside a span named `name`.
    fn span<T>(&self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        {
            let mut s = self.lock();
            let epoch = *s.epoch.get_or_insert_with(Instant::now);
            let id = s.spans.len();
            let (round, query) = (s.round, s.query);
            let parent = s.stack.last().map(|e| e.0);
            s.spans.push(SpanRec {
                round,
                query,
                parent,
                name,
                label: label.to_owned(),
                start: Duration::ZERO,
                end: Duration::ZERO,
                allocs: 0,
                peak_growth: 0,
            });
            let saved_peak = alloc::peak();
            let live = alloc::live();
            alloc::set_peak(live);
            s.stack.push((id, saved_peak, live, alloc::calls()));
            s.spans[id].start = epoch.elapsed();
        }
        let out = f();
        let mut s = self.lock();
        let epoch = s.epoch.expect("set when the span opened");
        let end = epoch.elapsed();
        let (id, saved_peak, live, calls) = s.stack.pop().expect("spans nest");
        let peak = alloc::peak();
        let rec = &mut s.spans[id];
        rec.end = end;
        rec.allocs = alloc::calls() - calls;
        rec.peak_growth = peak.saturating_sub(live);
        alloc::set_peak(saved_peak.max(peak));
        out
    }

    /// Re-runs query `qi` of round `round` through the traced mirror and
    /// checks that it did the work the untraced `record` reports.
    pub fn mirror(&mut self, round: usize, qi: usize, q: &Query, setup: &Setup, record: &Record) {
        {
            let mut s = self.lock();
            s.round = round;
            s.query = qi;
            let agg = s.agg();
            agg.untraced_s += record.seconds;
            match record.step {
                Step::Word => agg.by_word += 1,
                Step::Sim => agg.by_sim += 1,
                Step::Sat => agg.by_sat += 1,
                Step::Unknown => agg.unknown += 1,
            }
            if let Some(conflicts) = record.sat_conflicts {
                agg.sat_calls += 1;
                agg.sat_conflicts += conflicts;
            }
        }
        let start = Instant::now();
        let m = self.span("query", &q.label, || self.ladder(q, setup));
        let traced = start.elapsed().as_secs_f64();
        self.lock().agg().traced_s += traced;
        // The SAT rung has no mirror: where the word level gave up, the
        // reference's SAT verdict is accepted.
        let step_ok = m.step == record.step
            || (m.step == Step::Unknown && matches!(record.step, Step::Sat | Step::Unknown));
        let same = (m.spec_steps, m.impl_steps, m.spec_peak, m.impl_peak)
            == (
                record.spec_steps,
                record.impl_steps,
                record.spec_peak_terms,
                record.impl_peak_terms,
            );
        if !step_ok || !same {
            self.mismatches.push(format!(
                "{}: traced mirror {:?} steps {}+{} peak {}/{}, untraced {:?} steps {}+{} peak {}/{}",
                q.label,
                m.step,
                m.spec_steps,
                m.impl_steps,
                m.spec_peak,
                m.impl_peak,
                record.step,
                record.spec_steps,
                record.impl_steps,
                record.spec_peak_terms,
                record.impl_peak_terms
            ));
        }
    }

    /// The verdict ladder of `Verifier::check`, one public call per step.
    fn ladder(&self, q: &Query, setup: &Setup) -> Mirrored {
        let ctx = setup.ctx(q.k);
        let spec = &setup.netlists[q.spec];
        let mut m = Mirrored {
            step: Step::Unknown,
            spec_steps: 0,
            impl_steps: 0,
            spec_peak: 0,
            impl_peak: 0,
        };
        let flat_impl = match q.impl_ {
            Impl::Flat(i) => Some(&setup.netlists[i]),
            Impl::Hier => None,
        };
        if let Some(imp) = flat_impl.filter(|_| q.k > PRECHECK_ABOVE_K) {
            if self.simulate(spec, imp, ctx, PRECHECK_VECTORS, PRECHECK_SEED) {
                m.step = Step::Sim;
                return m;
            }
        }
        let spec_res = self.span("extract", "spec", || self.extract(spec, ctx));
        let spec_fn = match &spec_res {
            Ok(r) => {
                (m.spec_steps, m.spec_peak) = (r.stats.reduction_steps, r.stats.peak_terms);
                r.canonical().cloned()
            }
            Err(_) => None,
        };
        // A flat impl's result, like the spec's, lives until the verdict.
        let mut impl_res = None;
        let impl_fn = match (q.impl_, flat_impl) {
            (Impl::Flat(_), Some(imp)) => {
                let res = self.span("extract", "impl", || self.extract(imp, ctx));
                let f = res.as_ref().ok().and_then(|r| {
                    (m.impl_steps, m.impl_peak) = (r.stats.reduction_steps, r.stats.peak_terms);
                    r.canonical().cloned()
                });
                impl_res = Some(res);
                f
            }
            _ => {
                let design = setup.hier.as_ref().expect("hier workload");
                let options = ExtractOptions::default().with_threads(1);
                let provider = TracedExtract(self, design);
                let hier = self.span("hier.extract", "impl", || {
                    extract_hierarchical_budgeted_with(
                        &provider,
                        design,
                        ctx,
                        &options,
                        &Budget::unlimited(),
                    )
                });
                hier.ok().map(|h| {
                    for (_, _, s) in &h.blocks {
                        m.impl_steps += s.reduction_steps;
                        m.impl_peak = m.impl_peak.max(s.peak_terms);
                    }
                    self.lock().agg().compose_s += h.compose_time.as_secs_f64();
                    h.function
                })
            }
        };
        m.step = match (&spec_fn, &impl_fn) {
            (Some(f1), Some(f2)) => {
                self.span("equiv.decide", "", || decide(f1, f2));
                Step::Word
            }
            _ => match flat_impl {
                Some(imp) if self.simulate(spec, imp, ctx, REFUTE_VECTORS, REFUTE_SEED) => {
                    Step::Sim
                }
                _ => Step::Unknown,
            },
        };
        if let Some(res) = impl_res {
            self.span("model.drop", "impl", || drop(res));
        }
        self.span("model.drop", "spec", || drop(spec_res));
        m
    }

    /// One simulation sweep; true when it found a distinguishing input.
    fn simulate(&self, a: &Netlist, b: &Netlist, ctx: &GfContext, n: usize, seed: u64) -> bool {
        let differs = self.span("netlist.sim", "", || {
            random_equivalence_check(a, b, ctx, n, &mut Rng::seed_from_u64(seed)).is_err()
        });
        let mut s = self.lock();
        let agg = s.agg();
        agg.sims += 1;
        agg.sim_refutes += u64::from(differs);
        differs
    }

    /// Gate-level to word-level abstraction of one netlist, layer by layer
    /// (the steps of `gfab_core::extract_word_polynomial_budgeted`).
    fn extract(&self, nl: &Netlist, ctx: &Arc<GfContext>) -> Result<ExtractionResult, CoreError> {
        let start = Instant::now();
        let model = self.span("model.build", "", || CircuitModel::build(nl, ctx))?;
        let model_time = start.elapsed();
        let (r, rs) = {
            let reducer = self.span("reduce.prepare", "", || {
                Reducer::new(&model.ring, model.divisors())
            });
            self.span("reduce.nf", "", || {
                reducer.normal_form_with_stats(&model.output_word_poly)
            })?
        };
        {
            let mut s = self.lock();
            let agg = s.agg();
            agg.steps += rs.steps;
            agg.peak_terms = agg.peak_terms.max(rs.peak_terms);
            agg.cancellations += rs.cancellations;
            agg.coeff_muls += rs.kernel.coeff_muls;
            agg.reduction_folds += rs.kernel.reduction_folds;
        }
        let stats = ExtractionStats {
            gates: nl.num_gates(),
            ring_vars: model.ring.num_vars(),
            reduction_steps: rs.steps,
            peak_terms: rs.peak_terms,
            cancellations: rs.cancellations,
            remainder_terms: r.num_terms(),
            model_time,
            reduce_time: start.elapsed() - model_time,
            ..ExtractionStats::default()
        };
        let has_bits = r
            .variables()
            .iter()
            .any(|&v| model.ring.var_info(v).kind == VarKind::Bit);
        if !has_bits {
            let f = self.span("extract.canon", "", || canonical(&model, ctx, &r));
            return Ok(ExtractionResult {
                model,
                outcome: Extraction::Canonical(f),
                stats: ExtractionStats {
                    duration: start.elapsed(),
                    ..stats
                },
            });
        }
        if ctx.order_u64().is_none() {
            return Ok(ExtractionResult {
                model,
                outcome: Extraction::Residual {
                    remainder: r,
                    note: "case-2 completion needs k <= 63".into(),
                },
                stats,
            });
        }
        // Case 2 has no public entry point: free this model, run the whole
        // extraction again and take its own Case-2 time. The repeated model
        // build and reduction are traced-run overhead, not attributed work.
        self.span("model.drop", "", || drop(model));
        let options = ExtractOptions::default().with_threads(1);
        let full = self.span("case2.extract", "", || {
            extract_word_polynomial_with(nl, ctx, &options)
        })?;
        let mut s = self.lock();
        let agg = s.agg();
        agg.case2_runs += u64::from(full.stats.case2_completion);
        agg.case2_completed += u64::from(full.stats.case2_completion && full.canonical().is_some());
        agg.case2_s += full.stats.case2_time.as_secs_f64();
        Ok(full)
    }

    /// Times `GfContext::mul` on random operands at the workload's
    /// largest k: nanoseconds per multiply, median of the batches.
    fn mul_ns(setup: &Setup) -> f64 {
        let (_, ctx) = setup.ctxs.last().expect("every workload has a field");
        let mut rng = Rng::seed_from_u64(1);
        let xs: Vec<Gf> = (0..1024).map(|_| ctx.random(&mut rng)).collect();
        let batches: Vec<f64> = (0..MUL_BATCHES)
            .map(|_| {
                let start = Instant::now();
                for i in 0..MUL_BATCH {
                    black_box(
                        ctx.mul(black_box(&xs[i % 1024]), black_box(&xs[(i * 7 + 1) % 1024])),
                    );
                }
                start.elapsed().as_secs_f64() * 1e9 / MUL_BATCH as f64
            })
            .collect();
        median(&batches)
    }

    /// Per-layer metrics over all rounds (medians of per-round values),
    /// plus any mismatch between mirror and reference. Prints a self-time
    /// table and writes the span table to [`SPAN_DIR`].
    pub fn finish(
        self,
        args: &Args,
        setup: &Setup,
        setups: &[SetupTimes],
        text_bytes: usize,
    ) -> (Metrics, Vec<String>) {
        let mul_ns = Self::mul_ns(setup);
        let state = self
            .state
            .into_inner()
            .expect("tracer state is never left poisoned");
        let spans = &state.spans;

        // Self time of every span: its duration minus its children's.
        let mut child_time = vec![Duration::ZERO; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let n = state.rounds.len();
        let mut sums: Vec<BTreeMap<&str, Sums>> = vec![BTreeMap::new(); n];
        let mut mid = vec![0.0; n];
        for (i, s) in spans.iter().enumerate() {
            let total = s.end - s.start;
            let e = sums[s.round].entry(s.name).or_default();
            e.self_s += total.saturating_sub(child_time[i]).as_secs_f64();
            e.total_s += total.as_secs_f64();
            e.allocs += s.allocs;
            e.peak_growth = e.peak_growth.max(s.peak_growth);
            if s.name == "hier.block" && s.label == "blk_mid" {
                mid[s.round] += total.as_secs_f64();
            }
        }
        let get = |r: usize, name: &str| sums[r].get(name).copied().unwrap_or_default();
        let per_round = |f: &dyn Fn(usize, &RoundAgg) -> f64| -> f64 {
            median(&(0..n).map(|r| f(r, &state.rounds[r])).collect::<Vec<_>>())
        };
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let hier_drop =
            |r: usize, a: &RoundAgg| (get(r, "hier.extract").self_s - a.compose_s).max(0.0);
        let attributed = |r: usize, a: &RoundAgg| {
            LAYERS.iter().map(|l| get(r, l).self_s).sum::<f64>()
                + a.case2_s
                + a.compose_s
                + hier_drop(r, a)
        };
        let coeff_s = |a: &RoundAgg| a.coeff_muls as f64 * mul_ns * 1e-9;
        let setup_median = |f: fn(&SetupTimes) -> Duration| {
            median(
                &setups
                    .iter()
                    .map(|t| f(t).as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        let parse_s = setup_median(|t| t.parse);

        let mut m: Metrics = vec![
            ("netlist.parse_s".into(), parse_s, "s"),
            (
                "netlist.parse_mb_per_s".into(),
                ratio(text_bytes as f64 / 1e6, parse_s),
                "MB/s",
            ),
            ("field.context_s".into(), setup_median(|t| t.context), "s"),
            ("field.mul_ns".into(), mul_ns, "ns"),
            (
                "trace.mismatches".into(),
                self.mismatches.len() as f64,
                "count",
            ),
        ];
        type Row<'a> = (
            &'static str,
            &'static str,
            &'a dyn Fn(usize, &RoundAgg) -> f64,
        );
        let rows: [Row; 36] = [
            ("model.build_s", "s", &|r, _| get(r, "model.build").self_s),
            ("model.allocs", "count", &|r, _| {
                get(r, "model.build").allocs as f64
            }),
            ("model.drop_s", "s", &|r, _| get(r, "model.drop").self_s),
            ("model.share", "ratio", &|r, a| {
                ratio(get(r, "model.build").self_s, a.untraced_s)
            }),
            ("reduce.prepare_s", "s", &|r, _| {
                get(r, "reduce.prepare").self_s
            }),
            ("reduce.nf_s", "s", &|r, _| get(r, "reduce.nf").self_s),
            ("reduce.ns_per_step", "ns", &|r, a| {
                ratio(get(r, "reduce.nf").self_s * 1e9, a.steps as f64)
            }),
            ("reduce.allocs", "count", &|r, _| {
                get(r, "reduce.nf").allocs as f64
            }),
            ("reduce.peak_mb", "MB", &|r, _| {
                get(r, "reduce.nf").peak_growth as f64 / 1e6
            }),
            ("reduce.steps", "count", &|_, a| a.steps as f64),
            ("reduce.peak_terms", "count", &|_, a| a.peak_terms as f64),
            ("reduce.cancellations", "count", &|_, a| {
                a.cancellations as f64
            }),
            ("reduce.share", "ratio", &|r, a| {
                ratio(
                    get(r, "reduce.prepare").self_s + get(r, "reduce.nf").self_s,
                    a.untraced_s,
                )
            }),
            ("field.coeff_muls", "count", &|_, a| a.coeff_muls as f64),
            ("field.reduction_folds", "count", &|_, a| {
                a.reduction_folds as f64
            }),
            ("field.coeff_share", "ratio", &|r, a| {
                ratio(coeff_s(a), get(r, "reduce.nf").self_s)
            }),
            ("field.coeff_query_share", "ratio", &|_, a| {
                ratio(coeff_s(a), a.untraced_s)
            }),
            ("hier.blocks_s", "s", &|r, _| get(r, "hier.block").total_s),
            ("hier.mid_share", "ratio", &|r, _| {
                ratio(mid[r], get(r, "hier.block").total_s)
            }),
            ("hier.compose_s", "s", &|_, a| a.compose_s),
            ("hier.drop_s", "s", &hier_drop),
            ("netlist.sim_s", "s", &|r, _| get(r, "netlist.sim").self_s),
            ("netlist.sim_refute_ratio", "ratio", &|_, a| {
                ratio(a.sim_refutes as f64, a.sims as f64)
            }),
            ("case2.s", "s", &|_, a| a.case2_s),
            ("case2.runs", "count", &|_, a| a.case2_runs as f64),
            ("case2.completed_ratio", "ratio", &|_, a| {
                ratio(a.case2_completed as f64, a.case2_runs as f64)
            }),
            ("equiv.decide_s", "s", &|r, _| get(r, "equiv.decide").self_s),
            ("equiv.by_word", "count", &|_, a| a.by_word as f64),
            ("equiv.by_sim", "count", &|_, a| a.by_sim as f64),
            ("equiv.by_sat", "count", &|_, a| a.by_sat as f64),
            ("equiv.unknown", "count", &|_, a| a.unknown as f64),
            ("sat.calls", "count", &|_, a| a.sat_calls as f64),
            ("sat.conflicts", "count", &|_, a| a.sat_conflicts as f64),
            ("trace.unattributed_share", "ratio", &|r, a| {
                1.0 - ratio(attributed(r, a), a.untraced_s)
            }),
            ("trace.overhead_share", "ratio", &|_, a| {
                ratio(a.traced_s, a.untraced_s) - 1.0
            }),
            ("trace.untraced_round_s", "s", &|_, a| a.untraced_s),
        ];
        m.extend(
            rows.iter()
                .map(|(name, unit, f)| ((*name).to_owned(), per_round(*f), *unit)),
        );

        // Self time per span name. Grouping spans that enclose
        // program-reported work show only what is left once it is taken out.
        let untraced = per_round(&|_, a| a.untraced_s);
        let mut names: Vec<&str> = sums.iter().flat_map(|m| m.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let mut table: Vec<(f64, &str)> = names
            .iter()
            .map(|&name| match name {
                "case2.extract" => (
                    per_round(&|r, a| get(r, name).self_s - a.case2_s),
                    "case2.extract rebuild (traced only)",
                ),
                "hier.extract" => (per_round(&hier_drop), "hier.drop (derived)"),
                _ => (per_round(&|r, _| get(r, name).self_s), name),
            })
            .collect();
        table.push((per_round(&|_, a| a.case2_s), "case2 (program-reported)"));
        table.push((
            per_round(&|_, a| a.compose_s),
            "hier.compose (program-reported)",
        ));
        table.sort_by(|a, b| b.0.total_cmp(&a.0));
        println!(
            "{} seed {}: self time per round (median of {n}; untraced round {untraced:.4} s)",
            args.workload, args.seed
        );
        for (secs, name) in table.iter().filter(|(s, _)| *s > 0.0) {
            println!(
                "  {name:<36} {secs:>10.4} s  {:>6.1}%",
                100.0 * ratio(*secs, untraced)
            );
        }
        for (name, value, unit) in &m {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
        if let Err(e) = write_spans(args, &state) {
            eprintln!("span table not written: {e}");
        }
        (m, self.mismatches)
    }
}

/// Per-round totals of the spans sharing one name.
#[derive(Debug, Clone, Copy, Default)]
struct Sums {
    self_s: f64,
    total_s: f64,
    allocs: u64,
    peak_growth: u64,
}

/// The extraction provider the hierarchical flow calls once per block:
/// each block's layer calls are traced under a `hier.block` span labelled
/// with the block's instance name.
struct TracedExtract<'a>(&'a Tracer, &'a HierDesign);

impl ExtractProvider for TracedExtract<'_> {
    fn extract(
        &self,
        nl: &Netlist,
        ctx: &Arc<GfContext>,
        _options: &ExtractOptions,
        _budget: &Budget,
    ) -> Result<ExtractionResult, CoreError> {
        let instance = self
            .1
            .blocks
            .iter()
            .find(|b| std::ptr::eq(&b.netlist, nl))
            .map_or("?", |b| b.name.as_str());
        self.0
            .span("hier.block", instance, || self.0.extract(nl, ctx))
    }
}

/// `Z + G(A, B, …)` → `G`, over the input words renumbered from zero: the
/// Case-1 ending of `gfab_core::extract_word_polynomial_budgeted`.
fn canonical(model: &CircuitModel, ctx: &Arc<GfContext>, r: &Poly) -> WordFunction {
    let g = r.add(&Poly::from_terms(vec![(
        Monomial::var(model.z_var),
        ctx.one(),
    )]));
    let relabeled = g.relabel(|v| {
        let pos = model
            .input_vars
            .iter()
            .position(|&w| w == v)
            .expect("a case-1 remainder holds only input words");
        VarId(pos as u32)
    });
    let names = model
        .input_vars
        .iter()
        .map(|&v| model.ring.var_info(v).name.clone())
        .collect();
    WordFunction::new(ctx.clone(), names, relabeled)
}

/// Coefficient matching, then the counterexample search on a mismatch.
fn decide(f1: &WordFunction, f2: &WordFunction) {
    if !f1.matches(f2) {
        black_box(f1.find_counterexample(f2, CEX_TRIES, &mut Rng::seed_from_u64(CEX_SEED)));
    }
}

/// Writes every span as one tab-separated row.
fn write_spans(args: &Args, state: &State) -> std::io::Result<()> {
    std::fs::create_dir_all(SPAN_DIR)?;
    let path = format!("{SPAN_DIR}/spans-{}-seed{}.tsv", args.workload, args.seed);
    let mut out = String::from(
        "round\tquery\tspan\tparent\tname\tlabel\tstart_ns\tend_ns\tallocs\tpeak_growth_bytes\n",
    );
    for (i, s) in state.spans.iter().enumerate() {
        let parent = s.parent.map_or(String::from("-"), |p| p.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{i}\t{parent}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.round,
            s.query,
            s.name,
            s.label,
            s.start.as_nanos(),
            s.end.as_nanos(),
            s.allocs,
            s.peak_growth
        );
    }
    std::fs::write(&path, out)?;
    eprintln!("spans written to {path}");
    Ok(())
}
