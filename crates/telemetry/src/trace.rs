//! The query side: a finished [`Trace`] and its renderers.

use crate::span::accumulate;
use crate::{Counter, Gauge, Hist, HistData, Phase, SpanRecord};
use std::fmt::Write as _;
use std::time::Duration;

/// A finished, queryable span tree.
///
/// Obtained from [`crate::Collector::snapshot`] (after a traced query)
/// or [`Trace::from_jsonl`] (from a `--trace-json` file). Spans are held
/// sorted by id, which is also span-creation order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    spans: Vec<SpanRecord>,
}

impl Trace {
    /// Builds a trace directly from span records (sorted by id on the
    /// way in). Collectors and the JSONL parser are the usual sources;
    /// this is public so trace *tools* — aggregation tests, hand-built
    /// fixtures, merge utilities — can assemble span trees too. Parent
    /// links are not validated here; [`Trace::from_jsonl`] is the strict
    /// gate for untrusted input.
    #[must_use]
    pub fn from_spans(mut spans: Vec<SpanRecord>) -> Trace {
        spans.sort_by_key(|s| s.id);
        Trace { spans }
    }

    /// Stitches several traces into one: span ids (and parent links) of
    /// each part are renumbered above the ids already taken, and every
    /// span's start offset is shifted by the part's `shift` — so a batch
    /// run can merge its per-query traces onto the pass timeline (shift
    /// = the query's queue delay) and shard runs can be recombined for
    /// aggregation. Durations, counters, gauges and histograms are
    /// untouched.
    #[must_use]
    pub fn merged<'a, I>(parts: I) -> Trace
    where
        I: IntoIterator<Item = (&'a Trace, Duration)>,
    {
        let mut spans = Vec::new();
        let mut offset = 0u64;
        for (t, shift) in parts {
            let mut hi = offset;
            for s in t.spans() {
                let mut s = s.clone();
                s.id += offset;
                if let Some(p) = &mut s.parent {
                    *p += offset;
                }
                s.start += shift;
                hi = hi.max(s.id);
                spans.push(s);
            }
            offset = hi;
        }
        Trace::from_spans(spans)
    }

    /// All spans, sorted by id (= creation order).
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Spans with no parent.
    pub fn roots(&self) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(|s| s.parent.is_none())
    }

    /// Direct children of span `id`, in creation order.
    pub fn children(&self, id: u64) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Spans of the given phase, in creation order.
    pub fn phase_spans(&self, phase: Phase) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.phase == phase)
    }

    /// Sum of `duration` over all spans of `phase`.
    #[must_use]
    pub fn phase_total(&self, phase: Phase) -> Duration {
        self.phase_spans(phase).map(|s| s.duration).sum()
    }

    /// Sum of `counter` over all spans.
    #[must_use]
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(c, _)| *c == counter)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Combines `gauge` over all spans per [`Gauge::combine`]; `None`
    /// when no span recorded it.
    #[must_use]
    pub fn gauge_total(&self, gauge: Gauge) -> Option<u64> {
        self.spans
            .iter()
            .flat_map(|s| &s.gauges)
            .filter(|(g, _)| *g == gauge)
            .map(|(_, v)| *v)
            .reduce(|a, b| gauge.combine(a, b))
    }

    /// Merges `hist` over all spans; empty when no span recorded it.
    #[must_use]
    pub fn hist_total(&self, hist: Hist) -> HistData {
        let mut out = HistData::new();
        for s in &self.spans {
            for (h, d) in &s.hists {
                if *h == hist {
                    out.merge(d);
                }
            }
        }
        out
    }

    /// Sum of the deterministic work-unit counters
    /// (see [`Counter::is_work`]) over all spans.
    #[must_use]
    pub fn work_units(&self) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| &s.counters)
            .filter(|(c, _)| c.is_work())
            .map(|(_, v)| *v)
            .sum()
    }

    /// Trace wall clock: latest span end minus earliest span start.
    #[must_use]
    pub fn wall(&self) -> Duration {
        let start = self.spans.iter().map(|s| s.start).min();
        let end = self.spans.iter().map(|s| s.start + s.duration).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s),
            _ => Duration::ZERO,
        }
    }

    /// The whole trace collapsed into one root span of `phase` labelled
    /// `label`, the shape of a ledger line: counters summed over every
    /// span, gauges combined per [`Gauge::combine`], the wall clock as
    /// its duration and the first root's attributes. Histograms are left
    /// out. An empty trace collapses to a root of zero duration.
    #[must_use]
    pub fn collapsed(&self, phase: Phase, label: &str) -> SpanRecord {
        let mut row = SpanRecord {
            id: 1,
            parent: None,
            phase,
            label: Some(label.to_owned()),
            thread: 0,
            start: Duration::ZERO,
            duration: self.wall(),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            attrs: self
                .roots()
                .next()
                .map(|r| r.attrs.clone())
                .unwrap_or_default(),
        };
        for s in &self.spans {
            for &(c, v) in &s.counters {
                accumulate(&mut row.counters, c, v, u64::saturating_add);
            }
            for &(g, v) in &s.gauges {
                accumulate(&mut row.gauges, g, v, |a, b| g.combine(a, b));
            }
        }
        row
    }

    /// Self time of span `s`: its duration minus the duration of its
    /// direct children (work attributed to the span itself).
    #[must_use]
    pub fn self_time(&self, s: &SpanRecord) -> Duration {
        let nested: Duration = self.children(s.id).map(|c| c.duration).sum();
        s.duration.saturating_sub(nested)
    }

    /// Per-phase aggregation: `(phase, span count, total duration, self
    /// time)`, ordered by descending self time.
    ///
    /// Self times partition each thread's wall clock exactly (every
    /// instant inside a span tree is the self time of exactly one span),
    /// so their sum is the honest "where did the time go" answer even
    /// with nested phases — and exceeds the wall clock precisely when
    /// phases ran in parallel.
    #[must_use]
    pub fn phase_table(&self) -> Vec<(Phase, usize, Duration, Duration)> {
        let mut rows: Vec<(Phase, usize, Duration, Duration)> = Vec::new();
        for s in &self.spans {
            let own = self.self_time(s);
            match rows.iter_mut().find(|r| r.0 == s.phase) {
                Some(r) => {
                    r.1 += 1;
                    r.2 += s.duration;
                    r.3 += own;
                }
                None => rows.push((s.phase, 1, s.duration, own)),
            }
        }
        rows.sort_by_key(|r| std::cmp::Reverse(r.3));
        rows
    }

    /// Renders the per-phase table shown by the CLI `--stats`/`--trace`.
    ///
    /// One row per phase with span count, cumulative time and self time
    /// as a percentage of the trace wall clock (self times sum to ≥100%
    /// of the covered wall; >100% means parallel phases).
    #[must_use]
    pub fn render_table(&self) -> String {
        let wall = self.wall();
        let has_mem = self.gauge_total(Gauge::MemPeakBytes).is_some();
        let mut out = String::new();
        let _ = write!(
            out,
            "{:<24} {:>5} {:>12} {:>12} {:>8}",
            "phase", "spans", "total", "self", "% wall"
        );
        if has_mem {
            let _ = write!(out, " {:>10}", "peak mem");
        }
        out.push('\n');
        for (phase, count, total, own) in self.phase_table() {
            let pct = if wall.is_zero() {
                0.0
            } else {
                100.0 * own.as_secs_f64() / wall.as_secs_f64()
            };
            let _ = write!(
                out,
                "{:<24} {:>5} {:>12} {:>12} {:>7.1}%",
                phase.to_string(),
                count,
                fmt_duration(total),
                fmt_duration(own),
                pct
            );
            if has_mem {
                let peak = self
                    .phase_spans(phase)
                    .flat_map(|s| &s.gauges)
                    .filter(|(g, _)| *g == Gauge::MemPeakBytes)
                    .map(|(_, v)| *v)
                    .max();
                match peak {
                    Some(p) => {
                        let _ = write!(out, " {:>10}", fmt_bytes(p));
                    }
                    None => {
                        let _ = write!(out, " {:>10}", "-");
                    }
                }
            }
            out.push('\n');
        }
        let _ = writeln!(out, "wall clock: {}", fmt_duration(wall));
        // Distribution summaries: every histogram kind recorded anywhere
        // in the trace, merged over all spans, as percentiles rather
        // than raw bucket arrays.
        let mut kinds: Vec<Hist> = Vec::new();
        for s in &self.spans {
            for (h, _) in &s.hists {
                if !kinds.contains(h) {
                    kinds.push(*h);
                }
            }
        }
        kinds.sort_by_key(|h| h.slug());
        if !kinds.is_empty() {
            let _ = writeln!(
                out,
                "{:<24} {:>8} {:>10} {:>8} {:>8} {:>8} {:>8}",
                "histogram", "n", "mean", "p50", "p90", "p99", "max"
            );
            for h in kinds {
                let d = self.hist_total(h);
                let _ = writeln!(
                    out,
                    "{:<24} {:>8} {:>10.1} {:>8} {:>8} {:>8} {:>8}",
                    h.to_string(),
                    d.count,
                    d.mean(),
                    d.percentile(50.0),
                    d.percentile(90.0),
                    d.percentile(99.0),
                    d.max
                );
            }
        }
        out
    }

    /// Renders the span tree (the CLI `--trace` view): one line per
    /// span, indented under its parent, with duration and counters.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let roots: Vec<u64> = self.roots().map(|s| s.id).collect();
        for id in roots {
            self.render_subtree(id, 0, &mut out);
        }
        out
    }

    fn render_subtree(&self, id: u64, depth: usize, out: &mut String) {
        let Some(s) = self.spans.iter().find(|s| s.id == id) else {
            return;
        };
        let _ = write!(out, "{:indent$}{}", "", s.phase, indent = depth * 2);
        if let Some(label) = &s.label {
            let _ = write!(out, " [{label}]");
        }
        let _ = write!(out, "  {}", fmt_duration(s.duration));
        if s.thread != 0 {
            let _ = write!(out, "  (thread {})", s.thread);
        }
        for (c, v) in &s.counters {
            let _ = write!(out, "  {c}={v}");
        }
        for (g, v) in &s.gauges {
            match g {
                Gauge::MemPeakBytes | Gauge::MemAllocBytes => {
                    let _ = write!(out, "  {g}={}", fmt_bytes(*v));
                }
                _ => {
                    let _ = write!(out, "  {g}={v}");
                }
            }
        }
        for (h, d) in &s.hists {
            let _ = write!(
                out,
                "  {h}[n={} mean={:.1} p50={} p99={} max={}]",
                d.count,
                d.mean(),
                d.percentile(50.0),
                d.percentile(99.0),
                d.max
            );
        }
        out.push('\n');
        let children: Vec<u64> = self.children(id).map(|c| c.id).collect();
        for child in children {
            self.render_subtree(child, depth + 1, out);
        }
    }
}

/// Compact human byte count (KiB/MiB/GiB with one decimal).
pub(crate) fn fmt_bytes(b: u64) -> String {
    const KIB: f64 = 1024.0;
    let bf = b as f64;
    if bf < KIB {
        format!("{b}B")
    } else if bf < KIB * KIB {
        format!("{:.1}KiB", bf / KIB)
    } else if bf < KIB * KIB * KIB {
        format!("{:.1}MiB", bf / (KIB * KIB))
    } else {
        format!("{:.1}GiB", bf / (KIB * KIB * KIB))
    }
}

/// Compact human duration: microseconds under 1 ms, milliseconds under
/// 1 s, else seconds.
pub(crate) fn fmt_duration(d: Duration) -> String {
    if d < Duration::from_millis(1) {
        format!("{}µs", d.as_micros())
    } else if d < Duration::from_secs(1) {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{:.3}s", d.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, phase: Phase, start_ms: u64, dur_ms: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            phase,
            label: None,
            thread: 0,
            start: Duration::from_millis(start_ms),
            duration: Duration::from_millis(dur_ms),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            attrs: Vec::new(),
        }
    }

    fn sample() -> Trace {
        let mut root = span(1, None, Phase::Extract, 0, 100);
        root.label = Some("spec".into());
        let mut model = span(2, Some(1), Phase::ModelBuild, 0, 30);
        model.counters = vec![(Counter::Gates, 7)];
        let reduce = span(3, Some(1), Phase::GuidedReduction, 30, 60);
        Trace::from_spans(vec![root, model, reduce])
    }

    #[test]
    fn tree_queries() {
        let t = sample();
        assert_eq!(t.roots().count(), 1);
        assert_eq!(t.children(1).count(), 2);
        assert_eq!(t.phase_total(Phase::ModelBuild), Duration::from_millis(30));
        assert_eq!(t.counter_total(Counter::Gates), 7);
        assert_eq!(t.wall(), Duration::from_millis(100));
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = sample();
        let root = &t.spans()[0];
        assert_eq!(t.self_time(root), Duration::from_millis(10));
        let table = t.phase_table();
        let total: Duration = table.iter().map(|r| r.3).sum();
        assert_eq!(total, t.wall(), "self times partition the wall clock");
    }

    #[test]
    fn mem_gauges_add_a_peak_column() {
        let t = sample();
        assert!(!t.render_table().contains("peak mem"));
        let mut spans = t.spans().to_vec();
        spans[1].gauges.push((Gauge::MemPeakBytes, 3 * 1024 * 1024));
        let t = Trace::from_spans(spans);
        let table = t.render_table();
        assert!(table.contains("peak mem"));
        assert!(table.contains("3.0MiB"));
        assert_eq!(t.gauge_total(Gauge::MemPeakBytes), Some(3 * 1024 * 1024));
    }

    #[test]
    fn collapse_sums_counters_over_the_wall_clock() {
        use crate::{Attr, AttrValue};
        let mut spans = sample().spans().to_vec();
        spans[0].attrs = vec![(Attr::Verdict, "extracted".into())];
        spans[1].counters.push((Counter::ReductionSteps, 3));
        spans[1].gauges = vec![(Gauge::MemPeakBytes, 10)];
        spans[2].counters = vec![(Counter::Gates, 2), (Counter::ReductionSteps, 4)];
        spans[2].gauges = vec![(Gauge::MemPeakBytes, 30)];
        let row = Trace::from_spans(spans).collapsed(Phase::Extract, "sq8");
        assert_eq!((row.id, row.parent, row.phase), (1, None, Phase::Extract));
        assert_eq!(row.label.as_deref(), Some("sq8"));
        assert_eq!(row.duration, Duration::from_millis(100));
        assert_eq!(
            row.counters,
            [(Counter::Gates, 9), (Counter::ReductionSteps, 7)]
        );
        assert_eq!(row.gauges, [(Gauge::MemPeakBytes, 30)]);
        assert!(row.hists.is_empty());
        assert_eq!(row.attr(Attr::Verdict), Some(&AttrValue::from("extracted")));
        let empty = Trace::default().collapsed(Phase::Check, "q");
        assert_eq!(empty.duration, Duration::ZERO);
        assert!(empty.counters.is_empty() && empty.attrs.is_empty());
    }

    #[test]
    fn work_units_sum_deterministic_counters() {
        let t = sample();
        // Gates is a work counter; durations are not.
        assert_eq!(t.work_units(), 7);
    }

    #[test]
    fn renderers_cover_all_phases() {
        let t = sample();
        let table = t.render_table();
        assert!(table.contains("model construction"));
        assert!(table.contains("guided reduction"));
        assert!(table.contains("% wall"));
        let tree = t.render_tree();
        assert!(tree.contains("extraction [spec]"));
        assert!(tree.contains("gates=7"));
    }
}
