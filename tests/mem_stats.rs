//! Integration tests for per-phase memory accounting.
//!
//! The library crate forbids `unsafe`, so — exactly like the `gfab`
//! binary — this test crate installs its own thin `GlobalAlloc` wrapper
//! that forwards allocation sizes to `gfab::telemetry::mem`. The tests
//! then drive the [`Verifier`] session API and assert that:
//!
//! * `mem_stats(true)` attributes a nonzero live-bytes peak to the
//!   phases that do real algebra, and the gauges survive the JSONL
//!   round trip;
//! * runs without `mem_stats` record no memory gauges at all (the
//!   accounting is opt-in, not ambient);
//! * the model build's allocation count does not grow with the gate
//!   count.

use gfab::circuits::{mastrovito_multiplier, montgomery_multiplier_hier};
use gfab::field::nist::irreducible_polynomial;
use gfab::field::GfContext;
use gfab::netlist::Netlist;
use gfab::telemetry::{mem, Counter, Gauge, Trace};
use gfab::Verifier;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

struct TestAlloc;

// SAFETY: delegates verbatim to `System`; the hooks only touch atomics
// and plain thread-locals, so they cannot re-enter the allocator.
unsafe impl GlobalAlloc for TestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            mem::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        mem::on_dealloc(layout.size());
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: TestAlloc = TestAlloc;

/// The tracking enable count is process-global and the test harness
/// runs tests on parallel threads: a guard held by one test would show
/// up as tracking (and as gauges) in another. Serialize all three; a
/// poisoned lock only means another test failed.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ctx() -> Arc<GfContext> {
    GfContext::shared(irreducible_polynomial(16).unwrap()).unwrap()
}

/// The maximum mem-peak-bytes gauge observed on any span of `phase_slug`
/// spans (`None` when no such span carries the gauge).
fn peak_of(trace: &Trace, phase_slug: &str) -> Option<u64> {
    trace
        .spans()
        .iter()
        .filter(|s| s.phase.slug() == phase_slug)
        .flat_map(|s| &s.gauges)
        .filter(|(g, _)| *g == Gauge::MemPeakBytes)
        .map(|(_, v)| *v)
        .max()
}

#[test]
fn mem_stats_attributes_peak_bytes_to_phases() {
    let _serial = serial();
    let ctx = ctx();
    let v = Verifier::new(&ctx).trace(true).mem_stats(true).threads(1);
    let report = v.extract(&mastrovito_multiplier(&ctx)).unwrap();
    let trace = report.trace.expect("tracing on");
    // The phases doing real algebra must show a nonzero live-bytes peak.
    let reduce = peak_of(&trace, "guided-reduction").expect("reduction span has mem gauges");
    assert!(reduce > 0, "guided reduction allocated nothing?");
    let model = peak_of(&trace, "model-build").expect("model span has mem gauges");
    assert!(model > 0);
    // Allocation counts ride along.
    assert!(trace.spans().iter().any(|s| s
        .gauges
        .iter()
        .any(|(g, v)| *g == Gauge::MemAllocs && *v > 0)));
    // The stats table surfaces the peak column.
    let table = trace.render_table();
    assert!(table.contains("peak mem"), "table: {table}");
    // And the gauges survive the JSONL round trip.
    let parsed = Trace::from_jsonl(&trace.to_jsonl()).expect("round trip");
    assert_eq!(peak_of(&parsed, "guided-reduction"), Some(reduce));
}

#[test]
fn model_build_allocations_do_not_grow_with_the_gate_count() {
    let _serial = serial();
    // A model is a few flat tables per netlist: one record per gate, one
    // variable kind per net, no polynomial or name string per gate. The
    // flattened Montgomery multiplier's XOR trees collapse into linear
    // divisors, whose leaves share one arena sized before it is filled.
    let mastrovito = |ctx: &Arc<GfContext>| mastrovito_multiplier(ctx);
    let montgomery = |ctx: &Arc<GfContext>| montgomery_multiplier_hier(ctx).flatten();
    for (arch, build) in [
        (
            "mastrovito",
            &mastrovito as &dyn Fn(&Arc<GfContext>) -> Netlist,
        ),
        ("montgomery", &montgomery),
    ] {
        let [small, large] = [16, 64].map(|k| {
            let ctx = GfContext::shared(irreducible_polynomial(k).unwrap()).unwrap();
            let nl = build(&ctx);
            let v = Verifier::new(&ctx).trace(true).mem_stats(true).threads(1);
            let trace = v.extract(&nl).unwrap().trace.expect("tracing on");
            let model = trace
                .spans()
                .iter()
                .find(|s| s.phase.slug() == "model-build")
                .expect("a model span");
            let allocs = model
                .gauges
                .iter()
                .find(|(g, _)| *g == Gauge::MemAllocs)
                .map(|(_, v)| *v)
                .expect("model span has an allocation count");
            let absorbed = model
                .counters
                .iter()
                .find(|(c, _)| *c == Counter::AbsorbedGates)
                .map_or(0, |(_, v)| *v);
            (nl.num_gates(), allocs, absorbed)
        });
        assert!(
            large.0 > 10 * small.0,
            "{arch} gates: {small:?} vs {large:?}"
        );
        assert_eq!(
            small.1, large.1,
            "{arch} (gates, model-build allocations, absorbed)"
        );
        let collapses = arch == "montgomery";
        assert_eq!(
            small.2 > 0 && large.2 > 0,
            collapses,
            "{arch} {small:?} {large:?}"
        );
    }
}

#[test]
fn without_mem_stats_no_gauges_are_recorded() {
    let _serial = serial();
    let ctx = ctx();
    let v = Verifier::new(&ctx).trace(true).threads(1);
    let report = v.check(
        &mastrovito_multiplier(&ctx),
        &montgomery_multiplier_hier(&ctx),
    );
    let trace = report.unwrap().trace.expect("tracing on");
    assert!(
        trace.spans().iter().all(|s| s.gauges.is_empty()),
        "memory gauges recorded without mem_stats"
    );
    assert!(
        !trace.render_table().contains("peak mem"),
        "peak column without mem_stats"
    );
}

#[test]
fn tracking_is_scoped_to_the_query() {
    let _serial = serial();
    // The Verifier's RAII guard must switch accounting off again: after a
    // mem_stats query returns, allocations are no longer counted.
    let ctx = ctx();
    let v = Verifier::new(&ctx).trace(true).mem_stats(true).threads(1);
    let _ = v.extract(&mastrovito_multiplier(&ctx)).unwrap();
    assert!(
        !mem::is_tracking(),
        "allocator tracking left on after the query"
    );
}
