//! Integration tests for the telemetry layer: traces are absent (and
//! results unperturbed) when tracing is off, JSONL traces round-trip, and
//! span trees have the shape the pipeline promises (per-block child spans
//! under hierarchical extraction, SAT phases on the fallback rung, the
//! outcome and its evidence on the root span).

use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
use gfab::core::{CoreError, ExtractOptions, ExtractProvider, ExtractionResult};
use gfab::field::budget::{Budget, ExhaustedReason};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::GfContext;
use gfab::netlist::mutate::inject_random_bug;
use gfab::netlist::Netlist;
use gfab::telemetry::{Attr, AttrValue, Counter, Phase, Trace};
use gfab::Verifier;
use std::sync::Arc;

fn field(k: usize) -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap()
}

/// The outcome a traced query's root span names, as
/// `verdict/rung/spec/impl/cex`, with `-` for an absent attribute.
fn outcome(trace: &Trace) -> String {
    let roots: Vec<_> = trace.roots().collect();
    assert_eq!(roots.len(), 1, "one query, one root");
    [Attr::Verdict, Attr::Rung, Attr::Spec, Attr::Impl, Attr::Cex]
        .map(|a| match roots[0].attr(a) {
            Some(AttrValue::Str(s)) => s.as_str(),
            _ => "-",
        })
        .join("/")
}

/// A provider whose every extraction stops on its work cap before the
/// model exists, as a larger query under a tiny work cap does. It sends
/// a query of any size down the SAT fallback rung.
struct OutOfWork;

impl ExtractProvider for OutOfWork {
    fn extract(
        &self,
        _: &Netlist,
        _: &Arc<GfContext>,
        _: &ExtractOptions,
        _: &Budget,
    ) -> Result<ExtractionResult, CoreError> {
        Err(CoreError::BudgetExhausted {
            phase: Phase::ModelBuild,
            block: None,
            reason: ExhaustedReason::WorkCap,
        })
    }
}

#[test]
fn disabled_telemetry_leaves_no_trace_and_identical_results() {
    let ctx = field(8);
    let spec = mastrovito_multiplier(&ctx);
    let design = montgomery_multiplier_hier(&ctx);

    // Tracing off (the default): no trace on either report.
    let v = Verifier::new(&ctx);
    let plain_extract = v.extract(&spec).unwrap();
    assert!(plain_extract.trace.is_none());
    let plain_check = v.check(&spec, &design).unwrap();
    assert!(plain_check.trace.is_none());
    assert!(plain_check.sat.is_none(), "no fallback ran");

    // Tracing on: same function, same verdict, same effort counters —
    // telemetry observes the pipeline, it must not perturb it.
    let t = Verifier::new(&ctx).trace(true);
    let traced_extract = t.extract(&spec).unwrap();
    assert!(traced_extract.trace.is_some());
    assert!(traced_extract
        .function()
        .unwrap()
        .matches(plain_extract.function().unwrap()));
    let (p, q) = (plain_extract.stats(), traced_extract.stats());
    assert_eq!(p.reduction_steps, q.reduction_steps);
    assert_eq!(p.peak_terms, q.peak_terms);
    assert_eq!(p.cancellations, q.cancellations);
    let traced_check = t.check(&spec, &design).unwrap();
    assert!(traced_check.trace.is_some());
    assert_eq!(
        plain_check.verdict.is_equivalent(),
        traced_check.verdict.is_equivalent()
    );
}

#[test]
fn equiv_trace_round_trips_through_jsonl() {
    let ctx = field(16);
    let spec = mastrovito_multiplier(&ctx);
    let impl_ = montgomery_multiplier_hier(&ctx).flatten();
    let report = Verifier::new(&ctx)
        .trace(true)
        .check(&spec, &impl_)
        .unwrap();
    assert!(report.verdict.is_equivalent());
    let trace = report.trace.expect("tracing was enabled");

    // The k=16 flat flow must cover the documented phases: the query
    // root, the simulation pre-check, both extraction sides, and the
    // model/reduction work underneath them.
    for phase in [
        Phase::Check,
        Phase::Simulation,
        Phase::Extract,
        Phase::ModelBuild,
        Phase::GuidedReduction,
    ] {
        assert!(
            trace.phase_spans(phase).next().is_some(),
            "k=16 equiv trace must contain a {phase:?} span"
        );
    }
    assert!(trace.counter_total(Counter::Gates) > 0);
    assert!(trace.counter_total(Counter::ReductionSteps) > 0);
    assert_eq!(trace.counter_total(Counter::SimVectors), 64);
    assert_eq!(outcome(&trace), "equivalent/word/case1/case1/-");
    // Every term of both multipliers' division chains fits the working
    // store's packed key: each guided reduction reports zero spills.
    for span in trace.phase_spans(Phase::GuidedReduction) {
        assert!(span.counters.contains(&(Counter::SpilledTerms, 0)));
    }

    // Round-trip: every span, parent link, label, thread id and counter
    // survives the JSONL encoding exactly; timestamps survive at the
    // schema's microsecond granularity.
    let text = trace.to_jsonl();
    let back = Trace::from_jsonl(&text).expect("emitted traces parse");
    assert_eq!(back.spans().len(), trace.spans().len());
    for (b, t) in back.spans().iter().zip(trace.spans()) {
        assert_eq!(b.id, t.id);
        assert_eq!(b.parent, t.parent);
        assert_eq!(b.phase, t.phase);
        assert_eq!(b.label, t.label);
        assert_eq!(b.thread, t.thread);
        assert_eq!(b.counters, t.counters);
        assert_eq!(b.attrs, t.attrs);
        assert_eq!(b.start.as_micros(), t.start.as_micros());
        assert_eq!(b.duration.as_micros(), t.duration.as_micros());
    }
}

#[test]
fn hier_extraction_trace_has_one_block_span_per_block() {
    let ctx = field(8);
    let design = montgomery_multiplier_hier(&ctx);
    let report = Verifier::new(&ctx).trace(true).extract(&design).unwrap();
    let trace = report.trace.expect("tracing was enabled");

    // One root: the query's Extract span, labelled with the design name.
    let roots: Vec<_> = trace.roots().collect();
    assert_eq!(roots.len(), 1);
    assert_eq!(roots[0].phase, Phase::Extract);
    assert_eq!(roots[0].label.as_deref(), Some(design.name.as_str()));

    // One labelled Block child per block of the design, each nesting its
    // own model/reduction spans, plus the composition span.
    let blocks: Vec<_> = trace
        .children(roots[0].id)
        .filter(|s| s.phase == Phase::Block)
        .collect();
    assert_eq!(blocks.len(), design.blocks.len());
    let mut labels: Vec<_> = blocks
        .iter()
        .map(|b| b.label.clone().expect("block spans are labelled"))
        .collect();
    labels.sort();
    let mut expected: Vec<_> = design.blocks.iter().map(|b| b.name.clone()).collect();
    expected.sort();
    assert_eq!(labels, expected);
    for b in &blocks {
        assert!(
            trace.children(b.id).any(|s| s.phase == Phase::ModelBuild),
            "block {:?} must nest a model-construction span",
            b.label
        );
        assert!(
            trace
                .children(b.id)
                .any(|s| s.phase == Phase::GuidedReduction),
            "block {:?} must nest a guided-reduction span",
            b.label
        );
    }
    assert!(
        trace
            .children(roots[0].id)
            .any(|s| s.phase == Phase::Compose),
        "composition must be recorded under the query root"
    );
}

#[test]
fn sat_fallback_records_solver_phases_and_stats() {
    // The word level stops on its budget before either side returns; the
    // SAT fallback decides the k = 5 miter (about 1,500 conflicts), and
    // the trace must show the solver phases.
    let ctx = field(5);
    let spec = mastrovito_multiplier(&ctx);
    let impl_ = montgomery_multiplier_hier(&ctx).flatten();
    let report = Verifier::new(&ctx)
        .trace(true)
        .extract_provider(Arc::new(OutOfWork))
        .check(&spec, &impl_)
        .unwrap();
    assert!(report.verdict.is_equivalent(), "SAT proves the miter UNSAT");
    let sat = report.sat.expect("the fallback rung ran");
    assert!(sat.cnf_vars > 0 && sat.cnf_clauses > 0);
    assert!(sat.conflicts > 0);

    let trace = report.trace.expect("tracing was enabled");
    for phase in [
        Phase::MiterBuild,
        Phase::TseitinEncode,
        Phase::SolverBuild,
        Phase::SatSolve,
    ] {
        assert!(
            trace.phase_spans(phase).next().is_some(),
            "fallback trace must contain a {phase:?} span"
        );
    }
    assert_eq!(trace.counter_total(Counter::CnfVars), sat.cnf_vars as u64);
    assert_eq!(trace.counter_total(Counter::Conflicts), sat.conflicts);
    assert_eq!(outcome(&trace), "equivalent/sat/timed-out/timed-out/-");
}

#[test]
fn root_span_names_the_rung_that_decided() {
    let traced = |k: usize| Verifier::new(&field(k)).trace(true);
    let check = |v: &Verifier, spec: &Netlist, impl_: gfab::Circuit<'_>| {
        let report = v.check(spec, impl_).unwrap();
        let trace = report.trace.expect("tracing was enabled");
        // A --trace-json file on its own names the same outcome.
        outcome(&Trace::from_jsonl(&trace.to_jsonl()).unwrap())
    };

    // k > 5: the simulation pre-check refutes a faulted flat pair before
    // either side is extracted.
    let ctx = field(8);
    let spec = mastrovito_multiplier(&ctx);
    let (bad, _) = inject_random_bug(&spec, 0);
    assert_eq!(
        check(&traced(8), &spec, (&bad).into()),
        "inequivalent/pre-check/not-run/not-run/pre-check"
    );
    // Coefficient matching of two Case-1 forms.
    let design = montgomery_multiplier_hier(&ctx);
    assert_eq!(
        check(&traced(8), &spec, (&design).into()),
        "equivalent/word/case1/case1/-"
    );

    // k <= 5: no pre-check; the faulted impl reaches its canonical form
    // through Case 2, and the counterexample search is exhaustive.
    let ctx = field(4);
    let spec = mastrovito_multiplier(&ctx);
    let (bad, _) = inject_random_bug(&spec, 0);
    assert_eq!(
        check(&traced(4), &spec, (&bad).into()),
        "inequivalent/word/case1/case2/exhaustive"
    );

    // k = 64, hierarchical impl with a faulted block: no pre-check, the
    // block stays a residual, and the refutation sweep finds the witness.
    let ctx = field(64);
    let spec = mastrovito_multiplier(&ctx);
    let mut design = montgomery_multiplier_hier(&ctx);
    let mid = design
        .blocks
        .iter()
        .position(|b| b.name == "blk_mid")
        .unwrap();
    design.blocks[mid].netlist = inject_random_bug(&design.blocks[mid].netlist, 0).0;
    assert_eq!(
        check(&traced(64), &spec, (&design).into()),
        "inequivalent/refute/case1/residual/refute"
    );

    // Neither the word level nor a 10-conflict SAT rung decides.
    let ctx = field(5);
    let spec = mastrovito_multiplier(&ctx);
    let impl_ = montgomery_multiplier_hier(&ctx).flatten();
    let starved = traced(5)
        .extract_provider(Arc::new(OutOfWork))
        .sat_conflicts(10);
    assert_eq!(
        check(&starved, &spec, (&impl_).into()),
        "unknown/none/timed-out/timed-out/-"
    );

    // An extraction's root names its verdict and case.
    let case = |v: &Verifier, nl: &Netlist| {
        let trace = v.extract(nl).unwrap().trace.expect("traced");
        let root = trace.roots().next().unwrap();
        [Attr::Verdict, Attr::Case].map(|a| root.attr(a).cloned())
    };
    let (bad, _) = inject_random_bug(&mastrovito_multiplier(&field(4)), 0);
    assert_eq!(
        case(&traced(4), &bad),
        [Some("extracted".into()), Some("case2".into())]
    );
    assert_eq!(
        case(&traced(5), &spec),
        [Some("extracted".into()), Some("case1".into())]
    );
}
