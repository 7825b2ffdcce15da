//! The recording side: [`Telemetry`] handles, [`Span`] guards and the
//! in-memory [`Collector`].

use crate::events::{EventBus, EventKind};
use crate::mem::{self, MemSnapshot};
use crate::{Attr, AttrValue, Counter, Gauge, Hist, HistData, Phase};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Process-wide assignment of small display indices to OS threads.
///
/// Purely presentational: the index is recorded on spans (and live
/// events) so a trace can show which work ran concurrently. It never
/// feeds back into any computation, so it cannot perturb deterministic
/// results.
pub(crate) fn thread_index() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static INDEX: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    INDEX.with(|i| *i)
}

/// One finished span as stored by the [`Collector`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the trace (1-based; ids order span creation).
    pub id: u64,
    /// Parent span id, or `None` for a root span.
    pub parent: Option<u64>,
    /// The pipeline phase this span timed.
    pub phase: Phase,
    /// Free-form label (block instance name, "spec"/"impl", …).
    pub label: Option<String>,
    /// Display index of the recording thread (see module docs).
    pub thread: u64,
    /// Monotonic start offset from the collector's epoch.
    pub start: Duration,
    /// Wall-clock duration of the span.
    pub duration: Duration,
    /// Typed work counters attributed to this span.
    pub counters: Vec<(Counter, u64)>,
    /// Sampled gauge values (combined per [`Gauge::combine`]).
    pub gauges: Vec<(Gauge, u64)>,
    /// Fixed-bucket histograms attributed to this span.
    pub hists: Vec<(Hist, HistData)>,
    /// Attributes naming the query's outcome; only a root span has any.
    pub attrs: Vec<(Attr, AttrValue)>,
}

impl SpanRecord {
    /// The value of attribute `key`, if the span carries it.
    #[must_use]
    pub fn attr(&self, key: Attr) -> Option<&AttrValue> {
        self.attrs.iter().find(|(a, _)| *a == key).map(|(_, v)| v)
    }
}

/// Folds `value` into the slot of `key` with `combine`, or appends a
/// slot: how a span's counters and gauges accumulate, and a collapsed
/// trace's.
pub(crate) fn accumulate<K: PartialEq>(
    slots: &mut Vec<(K, u64)>,
    key: K,
    value: u64,
    combine: impl Fn(u64, u64) -> u64,
) {
    match slots.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = combine(slot.1, value),
        None => slots.push((key, value)),
    }
}

/// In-memory sink for finished spans.
///
/// Created per traced query (one `Verifier::extract`/`check` call owns
/// one collector); cheap [`Telemetry`] clones share it via `Arc`. Call
/// [`Collector::snapshot`] after the query to obtain the queryable
/// [`crate::Trace`].
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    records: Mutex<Vec<SpanRecord>>,
}

impl Collector {
    /// Creates an empty collector whose epoch is "now".
    #[must_use]
    pub fn new() -> Arc<Collector> {
        Arc::new(Collector {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            records: Mutex::new(Vec::new()),
        })
    }

    fn record(&self, rec: SpanRecord) {
        self.records.lock().expect("collector poisoned").push(rec);
    }

    /// Snapshots all finished spans into a queryable [`crate::Trace`].
    #[must_use]
    pub fn snapshot(&self) -> crate::Trace {
        let mut spans = self.records.lock().expect("collector poisoned").clone();
        spans.sort_by_key(|s| s.id);
        crate::Trace::from_spans(spans)
    }
}

/// A cheaply cloneable recording handle.
///
/// Either attached to a [`Collector`] (tracing on) or disabled (the
/// default). The handle also carries the parent span id under which new
/// spans nest; [`Span::telemetry`] derives re-parented handles, which is
/// how the span tree is threaded down the pipeline — including across
/// threads, by moving a clone into each worker.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
    parent: Option<u64>,
    events: EventBus,
}

impl Telemetry {
    /// A handle that records nothing. Equivalent to `Telemetry::default()`.
    #[must_use]
    pub fn disabled() -> Telemetry {
        Telemetry::default()
    }

    /// A root handle (no parent) recording into `collector`.
    #[must_use]
    pub fn attached(collector: &Arc<Collector>) -> Telemetry {
        Telemetry {
            collector: Some(Arc::clone(collector)),
            parent: None,
            events: EventBus::default(),
        }
    }

    /// The same handle, additionally publishing live span events
    /// (phase enter and exit, with the span's work units) into `bus`.
    /// Publishing is display-only and never blocks — see
    /// [`crate::events`].
    #[must_use]
    pub fn with_events(mut self, bus: &EventBus) -> Telemetry {
        self.events = bus.clone();
        self
    }

    /// The live event bus this handle publishes into (disabled by
    /// default).
    #[must_use]
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// Whether spans opened through this handle are recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Opens a span for `phase` under this handle's parent.
    ///
    /// The guard's clock starts now; [`Span::finish`] (or dropping the
    /// guard) stops it. On a disabled handle this only reads the
    /// monotonic clock — nothing is allocated or locked.
    #[must_use]
    pub fn span(&self, phase: Phase) -> Span {
        self.open(phase, None)
    }

    /// Opens a labelled span (block instance name, "spec"/"impl", …).
    #[must_use]
    pub fn span_labeled(&self, phase: Phase, label: &str) -> Span {
        self.open(phase, Some(label))
    }

    fn open(&self, phase: Phase, label: Option<&str>) -> Span {
        // The single enabled/disabled branch: everything below the `map`
        // is skipped when tracing is off.
        let state = self.collector.as_ref().map(|c| EnabledSpan {
            collector: Arc::clone(c),
            id: c.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent,
            label: label.map(str::to_owned),
            mem: mem::span_enter(),
        });
        // Same contract for live events: one branch when the bus is
        // disabled, nothing allocated.
        let events = self.events.is_enabled().then(|| {
            let label = label.map(str::to_owned);
            self.events.publish(EventKind::PhaseEnter {
                phase,
                label: label.clone(),
            });
            Box::new(SpanEvents {
                bus: self.events.clone(),
                label,
                work: 0,
            })
        });
        Span {
            state,
            events,
            phase,
            start: Instant::now(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            attrs: Vec::new(),
        }
    }
}

#[derive(Debug)]
struct EnabledSpan {
    collector: Arc<Collector>,
    id: u64,
    parent: Option<u64>,
    label: Option<String>,
    mem: Option<MemSnapshot>,
}

/// Live-event state of an open span: the bus to publish into and the
/// work units recorded so far, reported by `phase-exit`. Boxed so an
/// events-off [`Span`] stays small.
#[derive(Debug)]
struct SpanEvents {
    bus: EventBus,
    label: Option<String>,
    work: u64,
}

/// An open span; finishing (or dropping) it records one [`SpanRecord`].
///
/// The guard owns the phase's clock: [`Span::finish`] returns the
/// measured duration, which instrumented code uses to fill its stats
/// structs — the span *is* the timing source, not a second bookkeeping
/// system.
#[derive(Debug)]
pub struct Span {
    state: Option<EnabledSpan>,
    events: Option<Box<SpanEvents>>,
    phase: Phase,
    start: Instant,
    counters: Vec<(Counter, u64)>,
    gauges: Vec<(Gauge, u64)>,
    hists: Vec<(Hist, HistData)>,
    attrs: Vec<(Attr, AttrValue)>,
}

impl Span {
    /// Whether this span records anything. Lets callers skip building
    /// observations (e.g. a full histogram pass) on disabled handles.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.state.is_some()
    }

    /// Attributes `value` units of `counter` to this span.
    ///
    /// Values for the same counter accumulate. No-op (a single branch)
    /// when tracing is disabled.
    pub fn counter(&mut self, counter: Counter, value: u64) {
        if let Some(ev) = self.events.as_mut().filter(|_| counter.is_work()) {
            ev.work += value;
        }
        if self.state.is_some() {
            accumulate(&mut self.counters, counter, value, u64::saturating_add);
        }
    }

    /// Records a gauge observation; repeated observations of the same
    /// gauge combine per [`Gauge::combine`]. No-op when tracing is
    /// disabled.
    pub fn gauge(&mut self, gauge: Gauge, value: u64) {
        if self.state.is_some() {
            accumulate(&mut self.gauges, gauge, value, |a, b| gauge.combine(a, b));
        }
    }

    /// Records one histogram sample. No-op when tracing is disabled.
    pub fn observe(&mut self, hist: Hist, value: u64) {
        if self.state.is_none() {
            return;
        }
        self.hist_mut(hist).record(value);
    }

    /// Merges a pre-aggregated histogram into this span's histogram of
    /// the same kind. No-op when tracing is disabled.
    pub fn observe_hist(&mut self, hist: Hist, data: &HistData) {
        if self.state.is_none() || data.is_empty() {
            return;
        }
        self.hist_mut(hist).merge(data);
    }

    fn hist_mut(&mut self, hist: Hist) -> &mut HistData {
        if let Some(i) = self.hists.iter().position(|(h, _)| *h == hist) {
            &mut self.hists[i].1
        } else {
            self.hists.push((hist, HistData::new()));
            &mut self.hists.last_mut().expect("just pushed").1
        }
    }

    /// Sets attribute `key` of a root span to `value`, replacing an
    /// earlier value. No-op when tracing is disabled or the span has a
    /// parent: only root spans carry attributes. Callers compute values
    /// only when [`Span::is_enabled`] holds, so a disabled span costs
    /// one branch and no allocation.
    pub fn attr(&mut self, key: Attr, value: impl Into<AttrValue>) {
        if self.state.as_ref().is_none_or(|s| s.parent.is_some()) {
            return;
        }
        let value = value.into();
        debug_assert_eq!(key.is_int(), matches!(value, AttrValue::Int(_)), "{key:?}");
        self.attrs.retain(|(a, _)| *a != key);
        self.attrs.push((key, value));
    }

    /// A [`Telemetry`] handle whose spans will nest under this span.
    #[must_use]
    pub fn telemetry(&self) -> Telemetry {
        let events = self
            .events
            .as_ref()
            .map_or_else(EventBus::default, |e| e.bus.clone());
        match &self.state {
            Some(s) => Telemetry {
                collector: Some(Arc::clone(&s.collector)),
                parent: Some(s.id),
                events,
            },
            None => Telemetry {
                collector: None,
                parent: None,
                events,
            },
        }
    }

    /// Stops the clock, records the span and returns its duration.
    #[must_use]
    pub fn finish(mut self) -> Duration {
        self.close()
    }

    fn close(&mut self) -> Duration {
        let duration = self.start.elapsed();
        if let Some(ev) = self.events.take() {
            ev.bus.publish(EventKind::PhaseExit {
                phase: self.phase,
                label: ev.label,
                dur_us: duration.as_micros().min(u128::from(u64::MAX)) as u64,
                work_units: ev.work,
            });
        }
        if let Some(s) = self.state.take() {
            if let Some(snap) = s.mem {
                let d = mem::span_exit(snap);
                self.gauges.push((Gauge::MemPeakBytes, d.peak_bytes));
                self.gauges.push((Gauge::MemAllocBytes, d.alloc_bytes));
                self.gauges.push((Gauge::MemAllocs, d.allocs));
            }
            let start = self.start.saturating_duration_since(s.collector.epoch);
            s.collector.record(SpanRecord {
                id: s.id,
                parent: s.parent,
                phase: self.phase,
                label: s.label,
                thread: thread_index(),
                start,
                duration,
                counters: std::mem::take(&mut self.counters),
                gauges: std::mem::take(&mut self.gauges),
                hists: std::mem::take(&mut self.hists),
                attrs: std::mem::take(&mut self.attrs),
            });
        }
        duration
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.state.is_some() || self.events.is_some() {
            let _ = self.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let tele = Telemetry::disabled();
        assert!(!tele.is_enabled());
        let mut span = tele.span(Phase::Extract);
        span.counter(Counter::Gates, 42);
        span.gauge(Gauge::MemPeakBytes, 9);
        span.observe(Hist::DivisionChainLen, 3);
        assert!(span.counters.is_empty(), "disabled spans must not allocate");
        assert!(span.gauges.is_empty());
        assert!(span.hists.is_empty());
        let _ = span.finish();
    }

    #[test]
    fn spans_nest_and_accumulate_counters() {
        let collector = Collector::new();
        let tele = Telemetry::attached(&collector);
        let mut root = tele.span_labeled(Phase::Extract, "spec");
        root.counter(Counter::Gates, 10);
        root.counter(Counter::Gates, 5);
        let child = root.telemetry().span(Phase::ModelBuild);
        let _ = child.finish();
        let _ = root.finish();

        let trace = collector.snapshot();
        assert_eq!(trace.spans().len(), 2);
        let root_rec = trace.spans().iter().find(|s| s.id == 1).unwrap();
        let child_rec = trace.spans().iter().find(|s| s.id == 2).unwrap();
        assert_eq!(root_rec.parent, None);
        assert_eq!(root_rec.label.as_deref(), Some("spec"));
        assert_eq!(root_rec.counters, vec![(Counter::Gates, 15)]);
        assert_eq!(child_rec.parent, Some(1));
        assert_eq!(child_rec.phase, Phase::ModelBuild);
    }

    #[test]
    fn gauges_combine_and_histograms_accumulate() {
        let collector = Collector::new();
        let tele = Telemetry::attached(&collector);
        let mut span = tele.span(Phase::GuidedReduction);
        span.gauge(Gauge::MemPeakBytes, 100);
        span.gauge(Gauge::MemPeakBytes, 40);
        span.gauge(Gauge::MemAllocs, 2);
        span.gauge(Gauge::MemAllocs, 3);
        span.observe(Hist::DivisionChainLen, 7);
        let mut pre = HistData::new();
        pre.record(9);
        span.observe_hist(Hist::DivisionChainLen, &pre);
        let _ = span.finish();

        let trace = collector.snapshot();
        let rec = &trace.spans()[0];
        assert!(rec.gauges.contains(&(Gauge::MemPeakBytes, 100)));
        assert!(rec.gauges.contains(&(Gauge::MemAllocs, 5)));
        let (_, h) = rec
            .hists
            .iter()
            .find(|(h, _)| *h == Hist::DivisionChainLen)
            .expect("histogram recorded");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 16);
    }

    #[test]
    fn only_enabled_root_spans_carry_attributes() {
        let mut off = Telemetry::disabled().span(Phase::Check);
        off.attr(Attr::Verdict, "equivalent");
        assert!(off.attrs.is_empty(), "disabled spans must not allocate");
        let _ = off.finish();

        let collector = Collector::new();
        let tele = Telemetry::attached(&collector);
        let mut root = tele.span(Phase::Check);
        let mut child = root.telemetry().span(Phase::Extract);
        child.attr(Attr::Case, "case1");
        let _ = child.finish();
        root.attr(Attr::Verdict, "unknown");
        root.attr(Attr::Verdict, "equivalent");
        root.attr(Attr::K, 8u64);
        let _ = root.finish();
        let trace = collector.snapshot();
        let (root, child) = (&trace.spans()[0], &trace.spans()[1]);
        assert_eq!(
            root.attrs,
            [
                (Attr::Verdict, AttrValue::from("equivalent")),
                (Attr::K, AttrValue::Int(8))
            ]
        );
        assert_eq!(root.attr(Attr::K), Some(&AttrValue::Int(8)));
        assert!(child.attrs.is_empty());
    }

    #[test]
    fn dropping_an_open_span_still_records_it() {
        let collector = Collector::new();
        let tele = Telemetry::attached(&collector);
        {
            let _span = tele.span(Phase::SatSolve);
        }
        assert_eq!(collector.snapshot().spans().len(), 1);
    }

    #[test]
    fn spans_publish_live_events_even_without_a_collector() {
        use crate::events::{EventBus, Recv};
        let (bus, rx) = EventBus::bounded(32);
        let tele = Telemetry::disabled().with_events(&bus);
        let mut root = tele.span_labeled(Phase::Extract, "spec");
        root.counter(Counter::ReductionSteps, 4096);
        root.counter(Counter::PeakTerms, 7);
        root.counter(Counter::ReductionSteps, 3);
        let child = root.telemetry().span(Phase::ModelBuild);
        let _ = child.finish();
        let _ = root.finish();
        drop(tele);
        drop(bus);

        let mut events = Vec::new();
        while let Recv::Event(ev) = rx.recv_timeout(std::time::Duration::from_millis(50)) {
            events.push((ev.kind.slug(), ev.kind.work_units()));
        }
        // The root's exit reports its work counters only: 4096 + 3 steps.
        assert_eq!(
            events,
            [
                ("phase-enter", None),
                ("phase-enter", None),
                ("phase-exit", Some(0)),
                ("phase-exit", Some(4099)),
            ]
        );
    }

    #[test]
    fn cross_thread_spans_share_the_collector() {
        let collector = Collector::new();
        let tele = Telemetry::attached(&collector);
        let root = tele.span(Phase::Extract);
        let handle = root.telemetry();
        std::thread::scope(|scope| {
            for name in ["blk_a", "blk_b"] {
                let h = handle.clone();
                scope.spawn(move || {
                    let span = h.span_labeled(Phase::Block, name);
                    let _ = span.finish();
                });
            }
        });
        let _ = root.finish();
        let trace = collector.snapshot();
        assert_eq!(trace.spans().len(), 3);
        let blocks: Vec<_> = trace
            .spans()
            .iter()
            .filter(|s| s.phase == Phase::Block)
            .collect();
        assert_eq!(blocks.len(), 2);
        assert!(blocks.iter().all(|b| b.parent == Some(1)));
    }
}
