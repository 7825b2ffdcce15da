//! Cross-run trace aggregation (`gfab trace-agg`): many JSONL traces
//! stream into mergeable per-group summaries.
//!
//! # Grouping
//!
//! Spans are bucketed by a [`GroupBy`] key:
//!
//! * [`GroupBy::Phase`] — the label-free phase path used by trace-diff
//!   (`check/extract/guided-reduction`), so aggregation and diffing
//!   align on identical keys.
//! * [`GroupBy::K`] / [`GroupBy::Arch`] — derived from the *root* span's
//!   label and inherited by every descendant. Generator circuit names
//!   (`mastrovito_163`) split at the trailing `_<digits>`; fuzz-case
//!   labels (`arch/k/fault`) split at `/`. Spans whose root carries no
//!   parseable label land in the `"unknown"` group rather than being
//!   dropped, so group totals always cover every span.
//!
//! # Shards
//!
//! Every per-group statistic — span count, summed counters, and the
//! wall-time [`HistData`] the percentiles are computed from — sums
//! exactly: several shard traces folded into one aggregation, one by
//! one, give the aggregation of their concatenation, byte for byte in
//! both the rendered table and the JSONL document. That is what makes
//! sharded sweeps (one trace per worker, per host, per CI job)
//! trustworthy to combine after the fact: give every shard's trace to
//! one `gfab trace-agg` run.
//!
//! # The `agg` document
//!
//! [`TraceAgg::to_jsonl`] writes a line-oriented strict-JSON document
//! framed like every gfab JSONL file (see [`crate::Trace::to_jsonl`]): a
//! header line `{"type":"agg","version":5,"group_by":G,"groups":N}`
//! (plus an optional `"producer"`), then exactly `N` `"group"` lines
//! sorted by key, each carrying the span count, recomputable work
//! units, the counter map, the wall-µs histogram and its p50/p90/p99.
//! [`TraceAgg::from_jsonl`] is as strict as the trace parser — unknown
//! fields, unknown counter slugs, unsorted or duplicate keys, malformed
//! histograms, and `work_units`/percentile fields that do not match
//! recomputation are all errors — which is what lets `gfab trace-check`
//! validate `agg` documents too.
//!
//! # Overflow
//!
//! Counters are summed from files, so every sum is checked: a group's
//! counter, its work units, or the total over all groups overflowing a
//! `u64` is an error naming the group and the counter — from
//! [`TraceAgg::add_trace`] and the parser alike — never a wrapped total.

use crate::json::{write_json_string, Json, Obj};
use crate::jsonl::{
    err_at, expect_keys, field_err, get_count, get_map, get_slug, get_str, get_u64, header_line,
    parse_hist, read, write_hist_json, write_map, write_u64, FieldError, Frame, Kind,
};
use crate::trace::fmt_duration;
use crate::{Counter, HistData, ParseError, SpanRecord, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

slug_enum! {
    /// How [`TraceAgg`] buckets spans into groups.
    pub enum GroupBy {
        /// Label-free phase path from the root down (trace-diff's key).
        Phase = "phase",
        /// Field degree parsed from the root span's label (`k163`).
        K = "k",
        /// Architecture name parsed from the root span's label
        /// (`mastrovito`, `montgomery`, …).
        Arch = "arch",
    }
}

/// Everything aggregated under one group key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggGroup {
    /// Number of spans merged into this group.
    pub spans: u64,
    /// Summed counters, kept sorted by slug (canonical order, so
    /// shards folded in any order serialize identically).
    pub counters: Vec<(Counter, u64)>,
    /// Distribution of span durations in microseconds.
    pub wall_us: HistData,
}

impl AggGroup {
    /// Sum of the deterministic work-unit counters
    /// (see [`Counter::is_work`]). Fits in a `u64` for every group a
    /// [`TraceAgg`] holds (see the module docs on overflow).
    #[must_use]
    pub fn work(&self) -> u64 {
        self.counters
            .iter()
            .filter(|(c, _)| c.is_work())
            .map(|(_, v)| *v)
            .sum()
    }

    /// Adds `value` to `counter`; on overflow, returns the counter.
    fn add_counter(&mut self, counter: Counter, value: u64) -> Result<(), Counter> {
        match self
            .counters
            .binary_search_by(|(c, _)| c.slug().cmp(counter.slug()))
        {
            Ok(i) => {
                let sum = &mut self.counters[i].1;
                *sum = sum.checked_add(value).ok_or(counter)?;
            }
            Err(i) => self.counters.insert(i, (counter, value)),
        }
        Ok(())
    }
}

/// The message for a group's counter sum overflowing.
fn overflow(key: &str, counter: Counter) -> String {
    format!("group {key}: the sum of counter {counter} overflows u64")
}

/// The work-unit total over `groups`, folded in key order; on overflow,
/// the group and counter whose addition overflowed.
fn checked_work<'a>(
    groups: impl IntoIterator<Item = (&'a String, &'a AggGroup)>,
) -> Result<u64, (&'a str, Counter)> {
    let mut total = 0u64;
    for (key, g) in groups {
        for &(c, v) in g.counters.iter().filter(|(c, _)| c.is_work()) {
            total = total.checked_add(v).ok_or((key.as_str(), c))?;
        }
    }
    Ok(total)
}

/// A mergeable multi-trace aggregation (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAgg {
    group_by: GroupBy,
    /// Per-key aggregates, sorted by key (BTreeMap order).
    pub groups: BTreeMap<String, AggGroup>,
}

/// Derives the K/Arch group key from a root span's label. Fuzz-case
/// labels are `arch/k/fault`; generator circuit names are
/// `<arch>_<digits>`. Anything else is `"unknown"` (for K) or the label
/// itself (for Arch — a bare name is still an architecture).
fn root_key(label: Option<&str>, group_by: GroupBy) -> String {
    let unknown = || "unknown".to_string();
    let Some(label) = label else {
        return unknown();
    };
    if let Some((arch, rest)) = label.split_once('/') {
        let k = rest.split('/').next().unwrap_or("");
        return match group_by {
            GroupBy::Arch if !arch.is_empty() => arch.to_string(),
            GroupBy::K if !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()) => {
                format!("k{k}")
            }
            _ => unknown(),
        };
    }
    if let Some((arch, k)) = label.rsplit_once('_') {
        if !arch.is_empty() && !k.is_empty() && k.bytes().all(|b| b.is_ascii_digit()) {
            return match group_by {
                GroupBy::Arch => arch.to_string(),
                _ => format!("k{k}"),
            };
        }
    }
    match group_by {
        GroupBy::Arch => label.to_string(),
        _ => unknown(),
    }
}

/// The spans of `trace` under their group keys, each group in span
/// order. This is trace-diff's alignment too (with [`GroupBy::Phase`]).
pub(crate) fn group_spans(trace: &Trace, group_by: GroupBy) -> BTreeMap<String, Vec<&SpanRecord>> {
    // Spans are sorted by id and parents precede children, so one
    // forward pass with an id → key memo resolves both the phase path
    // and the inherited root label.
    let mut memo: BTreeMap<u64, String> = BTreeMap::new();
    let mut groups: BTreeMap<String, Vec<&SpanRecord>> = BTreeMap::new();
    for s in trace.spans() {
        let key = match (group_by, s.parent.and_then(|p| memo.get(&p))) {
            (GroupBy::Phase, Some(parent_path)) => format!("{parent_path}/{}", s.phase.slug()),
            (GroupBy::Phase, None) => s.phase.slug().to_string(),
            (_, Some(inherited)) => inherited.clone(),
            (_, None) => root_key(s.label.as_deref(), group_by),
        };
        memo.insert(s.id, key.clone());
        groups.entry(key).or_default().push(s);
    }
    groups
}

impl TraceAgg {
    /// An empty aggregation over the given grouping.
    #[must_use]
    pub fn new(group_by: GroupBy) -> TraceAgg {
        TraceAgg {
            group_by,
            groups: BTreeMap::new(),
        }
    }

    /// The grouping this aggregation was built with.
    #[must_use]
    pub fn group_by(&self) -> GroupBy {
        self.group_by
    }

    /// Folds one trace in: every span lands in exactly one group.
    ///
    /// # Errors
    ///
    /// When a counter sum or the work-unit total overflows a `u64`
    /// (naming the group and counter); the aggregation is then only
    /// partly updated.
    pub fn add_trace(&mut self, trace: &Trace) -> Result<(), String> {
        for (key, spans) in group_spans(trace, self.group_by) {
            let g = self.groups.entry(key.clone()).or_default();
            for s in spans {
                g.spans += 1;
                g.wall_us
                    .record(s.duration.as_micros().min(u128::from(u64::MAX)) as u64);
                for (c, v) in &s.counters {
                    g.add_counter(*c, *v).map_err(|c| overflow(&key, c))?;
                }
            }
        }
        self.check_work()
    }

    /// Checks that the work-unit total, and so every group's, fits a
    /// `u64`.
    fn check_work(&self) -> Result<(), String> {
        checked_work(&self.groups).map(|_| ()).map_err(|(key, c)| {
            format!("group {key}: work units overflow u64 when adding counter {c}")
        })
    }

    /// Total deterministic work units over all groups.
    #[must_use]
    pub fn work_units(&self) -> u64 {
        self.groups.values().map(AggGroup::work).sum()
    }

    /// Total span count over all groups.
    #[must_use]
    pub fn total_spans(&self) -> u64 {
        self.groups.values().map(|g| g.spans).sum()
    }

    /// Serializes to the `agg` JSONL document (see the module docs).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        self.emit_jsonl(None)
    }

    /// [`TraceAgg::to_jsonl`] with the optional `"producer"` header
    /// field set (the emitting tool's version string).
    #[must_use]
    pub fn to_jsonl_tagged(&self, producer: &str) -> String {
        self.emit_jsonl(Some(producer))
    }

    fn emit_jsonl(&self, producer: Option<&str>) -> String {
        let fields = format!(
            ",\"group_by\":\"{}\",\"groups\":{}",
            self.group_by.slug(),
            self.groups.len()
        );
        let mut out = header_line("agg", &fields, producer) + "\n";
        for (key, g) in &self.groups {
            out.push_str("{\"type\":\"group\",\"key\":");
            write_json_string(&mut out, key);
            let _ = write!(out, ",\"spans\":{},\"work_units\":{},", g.spans, g.work());
            write_map(&mut out, "counters", &g.counters, Counter::slug, write_u64);
            out.push_str(",\"wall_us\":");
            write_hist_json(&mut out, &g.wall_us);
            let _ = write!(
                out,
                ",\"p50_us\":{},\"p90_us\":{},\"p99_us\":{}}}",
                g.wall_us.percentile(50.0),
                g.wall_us.percentile(90.0),
                g.wall_us.percentile(99.0)
            );
            out.push('\n');
        }
        out
    }

    /// Parses and validates an `agg` document (strictly — see the
    /// module docs for what is rejected).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the offending line and field path.
    pub fn from_jsonl(text: &str) -> Result<TraceAgg, ParseError> {
        TraceAgg::from_frame(read(text, Kind::Agg, false, parse_group)?)
    }

    /// The aggregation of framed group lines, whose keys must ascend.
    pub(crate) fn from_frame(frame: Frame<(String, AggGroup)>) -> Result<TraceAgg, ParseError> {
        let (hline, header) = &frame.header;
        let group_by = get_slug(header, "group_by", "group_by", GroupBy::from_slug)
            .map_err(|e| e.on_line(*hline))?;
        let mut groups: BTreeMap<String, AggGroup> = BTreeMap::new();
        let mut total = 0u64;
        for (n, (key, g)) in frame.records {
            // Canonical form: keys strictly ascending (also rules out
            // duplicates), so a valid document has exactly one byte
            // representation per aggregation.
            if let Some((prev, _)) = groups.last_key_value().filter(|(prev, _)| **prev >= key) {
                let message =
                    format!("group keys must be strictly ascending ({prev:?} >= {key:?})");
                return Err(err_at(n, "key", message));
            }
            // Each group's own work was checked by `parse_group`.
            total = total.checked_add(g.work()).ok_or_else(|| {
                err_at(
                    n,
                    "work_units",
                    "work units summed over groups overflow u64",
                )
            })?;
            groups.insert(key, g);
        }
        Ok(TraceAgg { group_by, groups })
    }

    /// Renders the human-readable summary table: one row per group with
    /// span count, work units and wall-time percentiles.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<44} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}",
            self.group_by.slug(),
            "spans",
            "work",
            "p50 wall",
            "p90 wall",
            "p99 wall",
            "max wall"
        );
        let us = |v: u64| fmt_duration(Duration::from_micros(v));
        for (key, g) in &self.groups {
            let _ = writeln!(
                out,
                "{:<44} {:>7} {:>12} {:>10} {:>10} {:>10} {:>10}",
                key,
                g.spans,
                g.work(),
                us(g.wall_us.percentile(50.0)),
                us(g.wall_us.percentile(90.0)),
                us(g.wall_us.percentile(99.0)),
                us(g.wall_us.max)
            );
        }
        let _ = writeln!(
            out,
            "total: {} group(s), {} span(s), {} work unit(s)",
            self.groups.len(),
            self.total_spans(),
            self.work_units()
        );
        out
    }
}

const GROUP_KEYS: [&str; 9] = [
    "type",
    "key",
    "spans",
    "work_units",
    "counters",
    "wall_us",
    "p50_us",
    "p90_us",
    "p99_us",
];

/// Parses one `group` line (see the module docs).
pub(crate) fn parse_group(obj: &Obj) -> Result<(String, AggGroup), FieldError> {
    expect_keys(obj, &GROUP_KEYS)?;
    let key = get_str(obj, "key")?;
    if key.is_empty() {
        return Err(field_err("key", "group key must be non-empty"));
    }
    let mut g = AggGroup {
        spans: get_u64(obj, "spans")?,
        ..AggGroup::default()
    };
    // The strict JSON reader rejects duplicate keys, so each counter
    // appears once; only the canonical slug order needs restoring.
    g.counters = get_map(obj, "counters", "counter", Counter::from_slug, get_count)?;
    g.counters.sort_by_key(|(c, _)| c.slug());
    g.wall_us =
        parse_hist(obj.get("wall_us").unwrap_or(&Json::Null)).map_err(|e| e.under("wall_us"))?;
    if g.wall_us.count != g.spans {
        return Err(field_err(
            "wall_us.count",
            format!(
                "wall histogram has {} samples but the group declares {} spans",
                g.wall_us.count, g.spans
            ),
        ));
    }
    // Derived fields must match recomputation — they are conveniences
    // for `jq`-style consumers, not trusted input.
    let declared_work = get_u64(obj, "work_units")?;
    let work = checked_work([(&key, &g)]).map_err(|(_, c)| {
        field_err(
            "work_units",
            format!("counters sum past u64 at counter {c}"),
        )
    })?;
    if declared_work != work {
        return Err(field_err(
            "work_units",
            format!("declares {declared_work} work units, counters sum to {work}"),
        ));
    }
    for (field, p) in [("p50_us", 50.0), ("p90_us", 90.0), ("p99_us", 99.0)] {
        let declared_p = get_u64(obj, field)?;
        let computed = g.wall_us.percentile(p);
        if declared_p != computed {
            return Err(field_err(
                field,
                format!("declares {declared_p}, histogram computes {computed}"),
            ));
        }
    }
    Ok((key, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Phase, SpanRecord};

    fn span(
        id: u64,
        parent: Option<u64>,
        phase: Phase,
        label: Option<&str>,
        dur_us: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            phase,
            label: label.map(str::to_owned),
            thread: 0,
            start: Duration::ZERO,
            duration: Duration::from_micros(dur_us),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            attrs: Vec::new(),
        }
    }

    fn sample() -> Trace {
        let mut root = span(1, None, Phase::Check, Some("mastrovito_16"), 900);
        root.counters = vec![(Counter::SimVectors, 64)];
        let mut ext = span(2, Some(1), Phase::Extract, Some("spec"), 500);
        ext.counters = vec![(Counter::ReductionSteps, 100), (Counter::Gates, 7)];
        let ext2 = span(3, Some(1), Phase::Extract, Some("impl"), 300);
        Trace::from_spans(vec![root, ext, ext2])
    }

    #[test]
    fn phase_grouping_matches_diff_paths() {
        let mut agg = TraceAgg::new(GroupBy::Phase);
        agg.add_trace(&sample()).unwrap();
        let keys: Vec<&String> = agg.groups.keys().collect();
        assert_eq!(keys, ["check", "check/extract"]);
        assert_eq!(agg.groups["check/extract"].spans, 2);
        assert_eq!(agg.groups["check/extract"].work(), 107);
        assert_eq!(agg.work_units(), 171);
        assert_eq!(agg.groups["check/extract"].wall_us.count, 2);
    }

    #[test]
    fn root_labels_drive_k_and_arch_keys() {
        assert_eq!(
            root_key(Some("mastrovito_163"), GroupBy::Arch),
            "mastrovito"
        );
        assert_eq!(root_key(Some("mastrovito_163"), GroupBy::K), "k163");
        assert_eq!(
            root_key(Some("montgomery/8/gate-flip"), GroupBy::Arch),
            "montgomery"
        );
        assert_eq!(root_key(Some("montgomery/8/gate-flip"), GroupBy::K), "k8");
        assert_eq!(root_key(Some("spec"), GroupBy::Arch), "spec");
        assert_eq!(root_key(Some("spec"), GroupBy::K), "unknown");
        assert_eq!(root_key(None, GroupBy::Arch), "unknown");

        // Children inherit the root's key, labels of their own ignored.
        let mut agg = TraceAgg::new(GroupBy::Arch);
        agg.add_trace(&sample()).unwrap();
        assert_eq!(agg.groups.len(), 1);
        assert_eq!(agg.groups["mastrovito"].spans, 3);
    }

    #[test]
    fn shard_merge_equals_whole_aggregation() {
        let a = sample();
        let b = {
            let mut root = span(1, None, Phase::Check, Some("montgomery_16"), 2000);
            root.counters = vec![(Counter::Conflicts, 9)];
            Trace::from_spans(vec![root])
        };
        let whole = Trace::merged([(&a, Duration::ZERO), (&b, Duration::from_micros(1000))]);

        for group_by in [GroupBy::Phase, GroupBy::K, GroupBy::Arch] {
            let mut sharded = TraceAgg::new(group_by);
            sharded.add_trace(&a).unwrap();
            sharded.add_trace(&b).unwrap();
            let mut unsharded = TraceAgg::new(group_by);
            unsharded.add_trace(&whole).unwrap();
            assert_eq!(sharded, unsharded, "group_by {}", group_by.slug());
            assert_eq!(sharded.to_jsonl(), unsharded.to_jsonl());
        }
    }

    #[test]
    fn agg_document_round_trips_and_is_strict() {
        let mut agg = TraceAgg::new(GroupBy::Phase);
        agg.add_trace(&sample()).unwrap();
        let text = agg.to_jsonl_tagged("gfab test");
        assert!(text.starts_with("{\"type\":\"agg\",\"version\":5,"));
        let parsed = TraceAgg::from_jsonl(&text).expect("round trip");
        assert_eq!(parsed, agg);
        assert_eq!(parsed.to_jsonl(), agg.to_jsonl());

        // Tampered derived fields are rejected with the field named.
        let bad = text.replace("\"work_units\":107", "\"work_units\":999");
        let e = TraceAgg::from_jsonl(&bad).unwrap_err();
        assert_eq!(e.path, "work_units");
        let bad = text.replacen("\"p50_us\":", "\"p50_us\":1", 1);
        assert!(TraceAgg::from_jsonl(&bad).is_err());
        // Wrong group count, unknown slugs, bad ordering.
        let bad = text.replace("\"groups\":2", "\"groups\":5");
        assert!(TraceAgg::from_jsonl(&bad)
            .unwrap_err()
            .message
            .contains("declares 5"));
        let bad = text.replace("\"reduction-steps\"", "\"warp-steps\"");
        assert!(TraceAgg::from_jsonl(&bad)
            .unwrap_err()
            .path
            .contains("counters."));
        assert!(TraceAgg::from_jsonl("").is_err());
        let lines: Vec<&str> = text.lines().collect();
        let swapped = format!("{}\n{}\n{}\n", lines[0], lines[2], lines[1]);
        let e = TraceAgg::from_jsonl(&swapped).unwrap_err();
        assert!(e.message.contains("ascending"), "{e}");
    }

    #[test]
    fn render_lists_every_group() {
        let mut agg = TraceAgg::new(GroupBy::Phase);
        agg.add_trace(&sample()).unwrap();
        let out = agg.render();
        assert!(out.contains("check/extract"));
        assert!(out.contains("total: 2 group(s), 3 span(s), 171 work unit(s)"));
    }
}
