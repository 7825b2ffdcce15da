//! Trace comparison: align two span trees by phase path and report
//! per-phase deltas (`gfab trace-diff`).
//!
//! # Alignment
//!
//! Spans are aggregated by their *phase path* — the chain of [`Phase`]
//! slugs from the root down, e.g. `check/extract/guided-reduction`.
//! Labels (block instance names, "spec"/"impl") are deliberately **not**
//! part of the key: renaming a hierarchical block must not break the
//! alignment, and the per-phase totals are what regression gating needs.
//! The grouping is [`crate::TraceAgg`]'s by-phase grouping, so diffs and
//! aggregations align on identical keys. Per path, counters and
//! durations sum and histograms merge bucket-wise.
//!
//! # Determinism
//!
//! Regression gating uses *work units* only — the counters for which
//! [`Counter::is_work`] holds (division steps, Gröbner pairs, gates,
//! simulation vectors, CDCL conflicts). These are bit-identical across
//! thread counts and machines (PR 2's budget determinism), so a CI gate
//! built on them is stable; wall time and memory are reported as
//! informational context, never gated.
//!
//! # Overflow
//!
//! Traces are files, and a file can carry any `u64`. Every counter sum
//! and work-unit sum per phase path is checked when the diff is built:
//! a sum that would overflow is an error naming the side, the path and
//! the counter, never a wrapped total that could hide a regression.

use crate::agg::{group_spans, GroupBy};
use crate::trace::fmt_duration;
use crate::{Counter, Hist, HistData, SpanRecord, Trace};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

/// One aligned phase path with the spans it groups on each side (empty
/// when the path only occurs in the other trace).
#[derive(Debug, Clone)]
pub struct DiffRow<'t> {
    /// Slash-joined phase-slug path, e.g. `check/extract/model-build`.
    pub path: String,
    /// The path's spans in the baseline trace (A), in span order.
    pub a: Vec<&'t SpanRecord>,
    /// The path's spans in the current trace (B), in span order.
    pub b: Vec<&'t SpanRecord>,
}

impl DiffRow<'_> {
    /// Baseline work units (0 when the phase is absent in A).
    #[must_use]
    pub fn work_a(&self) -> u64 {
        work(&self.a)
    }

    /// Current work units (0 when the phase is absent in B).
    #[must_use]
    pub fn work_b(&self) -> u64 {
        work(&self.b)
    }
}

/// Checks that the work-unit sum and every counter's sum over `spans`
/// fit in a `u64`; on overflow, names the counter whose addition
/// overflowed. [`TraceDiff::compute`] runs this on every row, so the
/// plain sums below never wrap.
fn check_sums(spans: &[&SpanRecord]) -> Result<(), String> {
    let mut work = 0u64;
    let mut sums: Vec<(Counter, u64)> = Vec::new();
    for &(c, v) in spans.iter().flat_map(|s| &s.counters) {
        if c.is_work() {
            work = work
                .checked_add(v)
                .ok_or_else(|| format!("work units overflow u64 at counter {c}"))?;
        }
        match sums.iter_mut().find(|(k, _)| *k == c) {
            Some(slot) => {
                slot.1 = slot
                    .1
                    .checked_add(v)
                    .ok_or_else(|| format!("the sum of counter {c} overflows u64"))?;
            }
            None => sums.push((c, v)),
        }
    }
    Ok(())
}

/// Sum of the deterministic work-unit counters over `spans`.
fn work(spans: &[&SpanRecord]) -> u64 {
    spans
        .iter()
        .flat_map(|s| &s.counters)
        .filter(|(c, _)| c.is_work())
        .map(|(_, v)| *v)
        .sum()
}

/// Summed durations (cumulative, not self time).
fn wall(spans: &[&SpanRecord]) -> Duration {
    spans.iter().map(|s| s.duration).sum()
}

fn counter(spans: &[&SpanRecord], counter: Counter) -> u64 {
    spans
        .iter()
        .flat_map(|s| &s.counters)
        .filter(|(c, _)| *c == counter)
        .map(|(_, v)| *v)
        .sum()
}

/// The bucket-wise merge of every `hist` histogram over `spans` (empty
/// when none recorded it).
fn hist(spans: &[&SpanRecord], hist: Hist) -> HistData {
    let mut all = spans
        .iter()
        .flat_map(|s| &s.hists)
        .filter(|(h, _)| *h == hist)
        .map(|(_, d)| d);
    let mut merged = all.next().copied().unwrap_or_default();
    for d in all {
        merged.merge(d);
    }
    merged
}

/// A work-unit regression found by [`TraceDiff::regressions`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// The offending phase path.
    pub path: String,
    /// Baseline work units.
    pub baseline: u64,
    /// Current work units (exceeds the threshold over baseline).
    pub current: u64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: work units {} -> {} (+{})",
            self.path,
            self.baseline,
            self.current,
            self.current - self.baseline
        )
    }
}

/// The result of aligning two traces (see the module docs).
#[derive(Debug, Clone)]
pub struct TraceDiff<'t> {
    /// One row per phase path occurring in either trace, sorted by path.
    pub rows: Vec<DiffRow<'t>>,
}

impl<'t> TraceDiff<'t> {
    /// Aligns baseline trace `a` against current trace `b`.
    ///
    /// # Errors
    ///
    /// When a phase path's work-unit sum or one of its counter sums
    /// overflows a `u64` on either side; the message names the side, the
    /// path and the counter.
    pub fn compute(a: &'t Trace, b: &'t Trace) -> Result<TraceDiff<'t>, String> {
        let mut a = group_spans(a, GroupBy::Phase);
        let mut b = group_spans(b, GroupBy::Phase);
        let paths: BTreeSet<String> = a.keys().chain(b.keys()).cloned().collect();
        let rows: Vec<DiffRow> = paths
            .into_iter()
            .map(|path| DiffRow {
                a: a.remove(&path).unwrap_or_default(),
                b: b.remove(&path).unwrap_or_default(),
                path,
            })
            .collect();
        for r in &rows {
            for (side, spans) in [("baseline", &r.a), ("current", &r.b)] {
                check_sums(spans)
                    .map_err(|e| format!("{side} trace, phase path {}: {e}", r.path))?;
            }
        }
        Ok(TraceDiff { rows })
    }

    /// Whether every phase path has identical work units on both sides —
    /// what two runs of the same workload must satisfy regardless of
    /// `--threads` (the CI self-diff smoke check).
    #[must_use]
    pub fn work_identical(&self) -> bool {
        self.rows.iter().all(|r| r.work_a() == r.work_b())
    }

    /// Phase paths whose current work units exceed baseline by more than
    /// `threshold_pct` percent (0.0 = any increase). Phases absent from
    /// the baseline regress on any nonzero work; phases absent from the
    /// current trace never regress (that is an improvement).
    #[must_use]
    pub fn regressions(&self, threshold_pct: f64) -> Vec<Regression> {
        self.rows
            .iter()
            .filter_map(|r| {
                let (base, cur) = (r.work_a(), r.work_b());
                let allowed = base as f64 * (1.0 + threshold_pct / 100.0);
                if cur > base && cur as f64 > allowed {
                    Some(Regression {
                        path: r.path.clone(),
                        baseline: base,
                        current: cur,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    /// Renders the human-readable diff table: one line per phase path
    /// with work units, span counts and wall time on both sides, plus
    /// indented per-counter / per-histogram deltas where they differ.
    #[must_use]
    pub fn render(&self) -> String {
        self.render_opts(false)
    }

    /// [`TraceDiff::render`] with options. `wall_delta` adds a Δwall%
    /// column — **informational only** (wall time varies with machine
    /// load and thread count and never gates; see the module docs), and
    /// the column header says so.
    #[must_use]
    pub fn render_opts(&self, wall_delta: bool) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{:<44} {:>7} {:>12} {:>12} {:>9} {:>10} {:>10}",
            "phase path", "spans", "work A", "work B", "Δwork", "wall A", "wall B"
        );
        if wall_delta {
            let _ = write!(out, " {:>12}", "Δwall%(info)");
        }
        out.push('\n');
        let fmt_wall = |spans: &[&SpanRecord]| match spans {
            [] => "-".to_string(),
            _ => fmt_duration(wall(spans)),
        };
        for r in &self.rows {
            let spans = format!("{}/{}", r.a.len(), r.b.len());
            let (wa, wb) = (r.work_a(), r.work_b());
            let delta = wb as i128 - wa as i128;
            let delta_s = if delta == 0 {
                "+0".to_string()
            } else {
                format!("{delta:+}")
            };
            let _ = write!(
                out,
                "{:<44} {:>7} {:>12} {:>12} {:>9} {:>10} {:>10}",
                r.path,
                spans,
                wa,
                wb,
                delta_s,
                fmt_wall(&r.a),
                fmt_wall(&r.b),
            );
            if wall_delta {
                let _ = write!(out, " {:>12}", fmt_wall_delta(r));
            }
            out.push('\n');
            render_details(r, &mut out);
        }
        out
    }
}

/// The counter and histogram lines under a row: each kind that differs,
/// in order of first appearance in A, then B.
fn render_details(r: &DiffRow, out: &mut String) {
    let spans = || r.a.iter().chain(&r.b);
    let mut counters: Vec<Counter> = Vec::new();
    for (c, _) in spans().flat_map(|s| &s.counters) {
        if !counters.contains(c) {
            counters.push(*c);
        }
    }
    for c in counters {
        let (va, vb) = (counter(&r.a, c), counter(&r.b, c));
        if va != vb {
            let _ = writeln!(out, "    {c}: {va} -> {vb} ({:+})", vb as i128 - va as i128);
        }
    }
    let mut hists: Vec<Hist> = Vec::new();
    for (h, _) in spans().flat_map(|s| &s.hists) {
        if !hists.contains(h) {
            hists.push(*h);
        }
    }
    for h in hists {
        let (da, db) = (hist(&r.a, h), hist(&r.b, h));
        if da != db {
            let _ = writeln!(
                out,
                "    hist {h}: n {} -> {}, mean {:.1} -> {:.1}, max {} -> {}",
                da.count,
                db.count,
                da.mean(),
                db.mean(),
                da.max,
                db.max
            );
        }
    }
}

/// Signed percent change in wall time, B vs A; `-` when either side is
/// absent or the baseline wall is zero (no meaningful ratio).
fn fmt_wall_delta(r: &DiffRow) -> String {
    if r.a.is_empty() || r.b.is_empty() {
        return "-".to_string();
    }
    let (wa, wb) = (wall(&r.a).as_secs_f64(), wall(&r.b).as_secs_f64());
    if wa <= 0.0 {
        return "-".to_string();
    }
    format!("{:+.1}%", 100.0 * (wb - wa) / wa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Phase, SpanRecord};

    fn span(id: u64, parent: Option<u64>, phase: Phase, label: Option<&str>) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            phase,
            label: label.map(str::to_owned),
            thread: 0,
            start: Duration::ZERO,
            duration: Duration::from_millis(10),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            attrs: Vec::new(),
        }
    }

    fn simple(steps: u64) -> Trace {
        let root = span(1, None, Phase::Check, None);
        let ext = span(2, Some(1), Phase::Extract, Some("spec"));
        let mut red = span(3, Some(2), Phase::GuidedReduction, None);
        red.counters = vec![(Counter::ReductionSteps, steps), (Counter::BudgetPolls, 5)];
        Trace::from_spans(vec![root, ext, red])
    }

    #[test]
    fn self_diff_is_work_identical() {
        let t = simple(100);
        let d = TraceDiff::compute(&t, &t).unwrap();
        assert!(d.work_identical());
        assert!(d.regressions(0.0).is_empty());
        assert_eq!(d.rows.len(), 3);
        assert!(d
            .rows
            .iter()
            .any(|r| r.path == "check/extract/guided-reduction"));
    }

    #[test]
    fn inflated_work_regresses_and_names_the_phase() {
        let (base, cur) = (simple(100), simple(120));
        let d = TraceDiff::compute(&base, &cur).unwrap();
        assert!(!d.work_identical());
        // 20% over baseline: above a 5% threshold, below a 50% one.
        let regs = d.regressions(5.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "check/extract/guided-reduction");
        assert_eq!(regs[0].baseline, 100);
        assert_eq!(regs[0].current, 120);
        assert!(d.regressions(50.0).is_empty());
        // Improvements never regress.
        assert!(TraceDiff::compute(&simple(120), &simple(100))
            .unwrap()
            .regressions(0.0)
            .is_empty());
    }

    #[test]
    fn overflowing_sums_are_errors_naming_side_path_and_counter() {
        let half = 1u64 << 63;
        let mut spans = simple(half).spans().to_vec();
        let mut twin = spans[2].clone();
        twin.id = 4;
        spans.push(twin);
        let big = Trace::from_spans(spans);
        let err = TraceDiff::compute(&simple(1), &big).unwrap_err();
        assert!(err.starts_with("current trace"), "{err}");
        assert!(err.contains("check/extract/guided-reduction"), "{err}");
        assert!(err.contains("reduction-steps"), "{err}");
        let err = TraceDiff::compute(&big, &simple(1)).unwrap_err();
        assert!(err.starts_with("baseline trace"), "{err}");
    }

    #[test]
    fn labels_do_not_split_paths() {
        // Two labelled block spans aggregate under one path, so renaming
        // a block between runs cannot break the alignment.
        let mut a_spans = vec![span(1, None, Phase::Extract, None)];
        let mut blk = span(2, Some(1), Phase::Block, Some("old_name"));
        blk.counters = vec![(Counter::Gates, 50)];
        a_spans.push(blk);
        let a = Trace::from_spans(a_spans);

        let mut b_spans = vec![span(1, None, Phase::Extract, None)];
        let mut blk = span(2, Some(1), Phase::Block, Some("renamed"));
        blk.counters = vec![(Counter::Gates, 50)];
        b_spans.push(blk);
        let b = Trace::from_spans(b_spans);

        let d = TraceDiff::compute(&a, &b).unwrap();
        assert!(d.work_identical());
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn missing_phase_sides_are_explicit() {
        let a = simple(100);
        let b = Trace::from_spans(vec![span(1, None, Phase::Check, None)]);
        let d = TraceDiff::compute(&a, &b).unwrap();
        let row = d
            .rows
            .iter()
            .find(|r| r.path == "check/extract/guided-reduction")
            .unwrap();
        assert!(!row.a.is_empty() && row.b.is_empty());
        // Work disappeared: an improvement, not a regression.
        assert!(d.regressions(0.0).is_empty());
        // The reverse direction (new work from nothing) does regress.
        let d = TraceDiff::compute(&b, &a).unwrap();
        let regs = d.regressions(0.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].baseline, 0);
    }

    #[test]
    fn zero_work_spans_diff_cleanly() {
        let mk = || {
            let mut s = span(1, None, Phase::Compose, None);
            s.counters = vec![(Counter::BudgetPolls, 3)]; // not a work counter
            Trace::from_spans(vec![s])
        };
        let (a, b) = (mk(), mk());
        let d = TraceDiff::compute(&a, &b).unwrap();
        assert!(d.work_identical());
        assert_eq!(d.rows[0].work_a(), 0);
        assert!(d.regressions(0.0).is_empty());
    }

    #[test]
    fn wall_delta_column_is_opt_in_and_labeled_informational() {
        let t = simple(100);
        let d = TraceDiff::compute(&t, &t).unwrap();
        assert!(!d.render().contains("Δwall%"));
        let out = d.render_opts(true);
        assert!(out.contains("Δwall%(info)"), "{out}");
        // Identical 10ms spans: +0.0% on every aligned row.
        assert!(out.contains("+0.0%"), "{out}");
        // The column never feeds gating: regressions only see work.
        assert!(d.regressions(0.0).is_empty());
        // One-sided rows render "-" rather than a bogus ratio.
        let b = Trace::from_spans(vec![span(1, None, Phase::Check, None)]);
        let out = TraceDiff::compute(&simple(100), &b)
            .unwrap()
            .render_opts(true);
        let row = out
            .lines()
            .find(|l| l.starts_with("check/extract "))
            .unwrap();
        assert!(row.trim_end().ends_with('-'), "{row:?}");
    }

    #[test]
    fn render_lists_counter_and_hist_deltas() {
        let mut b = simple(120);
        let mut spans = b.spans().to_vec();
        let mut h = HistData::new();
        h.record(12);
        spans[2].hists = vec![(Hist::DivisionChainLen, h)];
        b = Trace::from_spans(spans);
        let out = TraceDiff::compute(&simple(100), &b).unwrap().render();
        assert!(out.contains("check/extract/guided-reduction"));
        assert!(out.contains("reduction-steps: 100 -> 120 (+20)"));
        assert!(out.contains("hist division-chain-len"));
        assert!(out.contains("+20"));
    }
}
