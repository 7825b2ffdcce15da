//! Flamegraph export and critical-path analysis (`gfab flame`).
//!
//! # Folded stacks
//!
//! [`folded`] collapses the span tree into Brendan-Gregg folded-stack
//! lines — `frame;frame;frame weight` — the input format of
//! `flamegraph.pl` and most flamegraph viewers. Each span contributes
//! one frame (`phase-slug` or `phase-slug[label]`), the weight is the
//! span's *self* time in microseconds (duration minus direct children),
//! and identical stacks from different spans sum. [`parse_folded`] is
//! the strict inverse used by the round-trip tests.
//!
//! # Speedscope
//!
//! [`speedscope`] emits the same tree as a speedscope-compatible JSON
//! file (<https://www.speedscope.app> file-format): one `"evented"`
//! profile per recording thread, open/close events in timestamp order.
//! Spans that overlap without nesting on the same thread are clamped to
//! their enclosing span so the event stream is always well-nested —
//! speedscope rejects crossing events.
//!
//! # Critical path
//!
//! [`critical_path`] finds the maximum-weight *chain* of spans: a
//! sequence s₁, …, sₙ with `end(sᵢ) ≤ start(sᵢ₊₁)` maximizing total
//! duration — the longest serial dependency visible in the start/end
//! intervals. Two invariants hold by construction and are what the CI
//! acceptance test checks:
//!
//! * the path is at least the longest single span (a singleton is a
//!   chain), and
//! * at most the trace wall clock (chain spans are pairwise disjoint
//!   inside the trace window).
//!
//! On a balanced parallel batch the critical path is far below the sum
//! of span times; a critical path close to the wall clock with most
//! time in one shard is the one-line signature of shard imbalance.

use crate::trace::fmt_duration;
use crate::{SpanRecord, Trace};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// One frame name: the phase slug, plus the label when present.
/// `;` (the stack separator) and control characters in labels are
/// replaced so the folded format stays line- and field-safe.
fn frame_name(s: &SpanRecord) -> String {
    match &s.label {
        None => s.phase.slug().to_string(),
        Some(label) => {
            let clean: String = label
                .chars()
                .map(|c| if c == ';' || c.is_control() { '_' } else { c })
                .collect();
            format!("{}[{clean}]", s.phase.slug())
        }
    }
}

/// Renders the trace as folded flamegraph stacks (see module docs).
/// Lines are sorted by stack name; zero-weight stacks are omitted.
#[must_use]
pub fn folded(trace: &Trace) -> String {
    let mut stack_of: BTreeMap<u64, String> = BTreeMap::new();
    let mut weights: BTreeMap<String, u64> = BTreeMap::new();
    for s in trace.spans() {
        let stack = match s.parent.and_then(|p| stack_of.get(&p)) {
            Some(parent_stack) => format!("{parent_stack};{}", frame_name(s)),
            None => frame_name(s),
        };
        stack_of.insert(s.id, stack.clone());
        let self_us = trace.self_time(s).as_micros().min(u128::from(u64::MAX)) as u64;
        if self_us > 0 {
            *weights.entry(stack).or_insert(0) += self_us;
        }
    }
    let mut out = String::new();
    for (stack, w) in &weights {
        let _ = writeln!(out, "{stack} {w}");
    }
    out
}

/// Strict parser for the folded-stack format: each non-empty line is
/// `frame(;frame)* weight` with a positive integer weight.
///
/// # Errors
///
/// A message naming the 1-based offending line for an empty file, a
/// missing/malformed weight, or an empty frame.
pub fn parse_folded(text: &str) -> Result<Vec<(Vec<String>, u64)>, String> {
    let mut rows = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let (stack, weight) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("folded line {lineno}: missing weight"))?;
        let weight: u64 = weight
            .parse()
            .map_err(|_| format!("folded line {lineno}: bad weight {weight:?}"))?;
        if weight == 0 {
            return Err(format!("folded line {lineno}: zero weight"));
        }
        let frames: Vec<String> = stack.split(';').map(str::to_owned).collect();
        if frames.iter().any(String::is_empty) {
            return Err(format!("folded line {lineno}: empty frame in {stack:?}"));
        }
        rows.push((frames, weight));
    }
    if rows.is_empty() {
        return Err("folded input has no stacks".into());
    }
    Ok(rows)
}

/// Renders the trace as a speedscope-compatible JSON document (see
/// module docs): one evented profile per thread, µs units.
#[must_use]
pub fn speedscope(trace: &Trace, name: &str) -> String {
    use crate::json::write_json_string;

    // Frame table, in first-use order.
    let mut frame_index: BTreeMap<String, usize> = BTreeMap::new();
    let mut frames_in_order: Vec<String> = Vec::new();
    let mut index_of = |f: String| -> usize {
        if let Some(&i) = frame_index.get(&f) {
            return i;
        }
        let i = frames_in_order.len();
        frame_index.insert(f.clone(), i);
        frames_in_order.push(f);
        i
    };

    let mut threads: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in trace.spans() {
        threads.entry(s.thread).or_default().push(s);
    }

    let mut profiles = String::new();
    for (pi, (thread, mut spans)) in threads.into_iter().enumerate() {
        // Sort outermost-first so the stack discipline below sees a
        // parent before any span it encloses.
        spans.sort_by_key(|s| (s.start, std::cmp::Reverse(s.start + s.duration), s.id));
        let t0 = spans
            .iter()
            .map(|s| s.start)
            .min()
            .unwrap_or(Duration::ZERO);
        let t1 = spans
            .iter()
            .map(|s| s.start + s.duration)
            .max()
            .unwrap_or(Duration::ZERO);

        // Open/close event stream with clamping: a span is cut down to
        // its innermost open ancestor's window, which keeps the stream
        // well-nested even for siblings that overlap on one thread.
        let mut events = String::new();
        let mut open: Vec<(usize, u64)> = Vec::new(); // (frame, clamped end)
        let mut first = true;
        let emit = |events: &mut String, kind: char, frame: usize, at: u64, first: &mut bool| {
            if !*first {
                events.push(',');
            }
            *first = false;
            let _ = write!(
                events,
                "{{\"type\":\"{kind}\",\"frame\":{frame},\"at\":{at}}}"
            );
        };
        for s in &spans {
            let start = s.start.as_micros() as u64;
            let end = (s.start + s.duration).as_micros() as u64;
            while let Some(&(frame, open_end)) = open.last() {
                if open_end <= start {
                    emit(&mut events, 'C', frame, open_end, &mut first);
                    open.pop();
                } else {
                    break;
                }
            }
            let clamped_end = open.last().map_or(end, |&(_, e)| end.min(e));
            let frame = index_of(frame_name(s));
            emit(&mut events, 'O', frame, start, &mut first);
            open.push((frame, clamped_end.max(start)));
        }
        while let Some((frame, end)) = open.pop() {
            emit(&mut events, 'C', frame, end, &mut first);
        }

        if pi > 0 {
            profiles.push(',');
        }
        let _ = write!(
            profiles,
            "{{\"type\":\"evented\",\"name\":\"thread {thread}\",\"unit\":\"microseconds\",\
             \"startValue\":{},\"endValue\":{},\"events\":[{events}]}}",
            t0.as_micros(),
            t1.as_micros()
        );
    }

    let mut frames_json = String::new();
    for (i, f) in frames_in_order.iter().enumerate() {
        if i > 0 {
            frames_json.push(',');
        }
        frames_json.push_str("{\"name\":");
        write_json_string(&mut frames_json, f);
        frames_json.push('}');
    }

    let mut out = String::new();
    out.push_str("{\"$schema\":\"https://www.speedscope.app/file-format-schema.json\",\"name\":");
    write_json_string(&mut out, name);
    let _ = write!(
        out,
        ",\"activeProfileIndex\":0,\"shared\":{{\"frames\":[{frames_json}]}},\
         \"profiles\":[{profiles}]}}"
    );
    out
}

/// The result of [`critical_path`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPath {
    /// Trace wall clock in microseconds (the path's upper bound).
    pub wall_us: u64,
    /// Total duration of the chain in microseconds.
    pub path_us: u64,
    /// Span ids on the chain, in time order.
    pub span_ids: Vec<u64>,
    /// Total number of spans considered.
    pub total_spans: usize,
}

/// Computes the maximum-weight chain of pairwise non-overlapping spans
/// (weighted interval scheduling over `[start, start+duration)`; see
/// module docs for the invariants).
#[must_use]
pub fn critical_path(trace: &Trace) -> CriticalPath {
    let wall_us = trace.wall().as_micros().min(u128::from(u64::MAX)) as u64;
    let mut iv: Vec<(u64, u64, u64, u64)> = trace
        .spans()
        .iter()
        .map(|s| {
            let start = s.start.as_micros() as u64;
            let end = (s.start + s.duration).as_micros() as u64;
            (end, start, end - start, s.id)
        })
        .collect();
    if iv.is_empty() {
        return CriticalPath {
            wall_us,
            path_us: 0,
            span_ids: Vec::new(),
            total_spans: 0,
        };
    }
    // Sorted by end time; ties broken by start then id for determinism.
    iv.sort();
    let ends: Vec<u64> = iv.iter().map(|x| x.0).collect();

    // dp[i]: best chain weight whose last interval is i.
    // best[i]: max dp over 0..=i, with the argmax for reconstruction.
    let n = iv.len();
    let mut dp = vec![0u64; n];
    let mut prev = vec![usize::MAX; n]; // predecessor interval on i's chain
    let mut best = vec![(0u64, usize::MAX); n]; // (weight, index achieving it)
    for i in 0..n {
        let (_, start, dur, _) = iv[i];
        // Last position whose end ≤ this start; best[p-1] is the best
        // chain that can legally precede interval i.
        let p = ends.partition_point(|&e| e <= start);
        let (prev_w, prev_i) = if p > 0 { best[p - 1] } else { (0, usize::MAX) };
        dp[i] = dur + prev_w;
        prev[i] = prev_i;
        let here = (dp[i], i);
        best[i] = if i > 0 && best[i - 1].0 >= here.0 {
            best[i - 1]
        } else {
            here
        };
    }

    let (path_us, mut at) = best[n - 1];
    let mut span_ids = Vec::new();
    while at != usize::MAX {
        span_ids.push(iv[at].3);
        at = prev[at];
    }
    span_ids.reverse();
    CriticalPath {
        wall_us,
        path_us,
        span_ids,
        total_spans: n,
    }
}

/// Renders a critical path as the one-screen report `gfab flame
/// --critical-path` prints: the headline ratio plus the chain itself.
#[must_use]
pub fn render_critical_path(trace: &Trace, cp: &CriticalPath) -> String {
    let mut out = String::new();
    let pct = if cp.wall_us == 0 {
        0.0
    } else {
        100.0 * cp.path_us as f64 / cp.wall_us as f64
    };
    let _ = writeln!(
        out,
        "critical path: {}us of {}us wall ({pct:.1}%), {} of {} span(s)",
        cp.path_us,
        cp.wall_us,
        cp.span_ids.len(),
        cp.total_spans
    );
    let chain: Vec<String> = cp
        .span_ids
        .iter()
        .filter_map(|id| trace.spans().iter().find(|s| s.id == *id))
        .map(|s| format!("{} {}", frame_name(s), fmt_duration(s.duration)))
        .collect();
    if !chain.is_empty() {
        let _ = writeln!(out, "  {}", chain.join(" -> "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    fn span(id: u64, parent: Option<u64>, thread: u64, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            phase: Phase::Extract,
            label: None,
            thread,
            start: Duration::from_micros(start_us),
            duration: Duration::from_micros(dur_us),
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
            attrs: Vec::new(),
        }
    }

    #[test]
    fn folded_attributes_self_time_and_round_trips() {
        let mut root = span(1, None, 0, 0, 100);
        root.phase = Phase::Check;
        root.label = Some("m;x".into()); // ';' must be sanitized
        let child = span(2, Some(1), 0, 10, 60);
        let t = Trace::from_spans(vec![root, child]);
        let text = folded(&t);
        assert!(text.contains("check[m_x] 40\n"), "{text}");
        assert!(text.contains("check[m_x];extract 60\n"), "{text}");
        let rows = parse_folded(&text).expect("round trip");
        assert_eq!(rows.len(), 2);
        let total: u64 = rows.iter().map(|(_, w)| w).sum();
        assert_eq!(total, 100, "self times partition the root span");

        assert!(parse_folded("").is_err());
        assert!(parse_folded("noweight").is_err());
        assert!(parse_folded("a;b x").is_err());
        assert!(parse_folded("a;;b 3").is_err());
    }

    #[test]
    fn critical_path_crosses_concurrent_siblings() {
        // root [0,100]; two concurrent children [0,60] and [0,40] on
        // other threads, then a serial tail [60,95]. Best chain: the
        // 60us child then the 35us tail = 95us — more than any single
        // child, less than the 100us wall. The root span itself (100us)
        // is the longest single span and is itself a 1-chain.
        let t = Trace::from_spans(vec![
            span(1, None, 0, 0, 100),
            span(2, Some(1), 1, 0, 60),
            span(3, Some(1), 2, 0, 40),
            span(4, Some(1), 1, 60, 35),
        ]);
        let cp = critical_path(&t);
        assert_eq!(cp.wall_us, 100);
        assert_eq!(cp.path_us, 100, "root alone beats 60+35");
        assert_eq!(cp.span_ids, vec![1]);

        // Without the root, the known answer is the 60+35 chain.
        let t = Trace::from_spans(vec![
            span(2, None, 1, 0, 60),
            span(3, None, 2, 0, 40),
            span(4, None, 1, 60, 35),
        ]);
        let cp = critical_path(&t);
        assert_eq!(cp.path_us, 95);
        assert_eq!(cp.span_ids, vec![2, 4]);
        let max_span = 60;
        assert!(cp.path_us >= max_span && cp.path_us <= cp.wall_us);
        let report = render_critical_path(&t, &cp);
        assert!(report.contains("95us of 95us wall"), "{report}");
        assert!(report.contains("extract 60µs -> extract 35µs"), "{report}");
    }

    #[test]
    fn critical_path_invariants_hold_on_awkward_traces() {
        // Empty trace.
        let cp = critical_path(&Trace::from_spans(Vec::new()));
        assert_eq!((cp.path_us, cp.wall_us), (0, 0));
        // Zero-duration spans and exact touching (end == start).
        let t = Trace::from_spans(vec![
            span(1, None, 0, 5, 0),
            span(2, None, 0, 0, 5),
            span(3, None, 0, 5, 5),
        ]);
        let cp = critical_path(&t);
        assert_eq!(cp.path_us, 10, "touching intervals chain");
        assert!(cp.path_us <= cp.wall_us);
    }

    #[test]
    fn speedscope_emits_one_profile_per_thread() {
        let t = Trace::from_spans(vec![span(1, None, 0, 0, 100), span(2, Some(1), 1, 10, 50)]);
        let text = speedscope(&t, "trace.jsonl");
        assert!(text.contains("\"$schema\":\"https://www.speedscope.app/file-format-schema.json\""));
        assert!(text.contains("\"name\":\"thread 0\""));
        assert!(text.contains("\"name\":\"thread 1\""));
        assert!(text.contains("\"unit\":\"microseconds\""));
        // Every open has a close: 2 spans → 2 O and 2 C events.
        assert_eq!(text.matches("\"type\":\"O\"").count(), 2);
        assert_eq!(text.matches("\"type\":\"C\"").count(), 2);
        // The document is a single strict-JSON object.
        crate::json::parse_document(&text).expect("speedscope JSON parses");
    }

    #[test]
    fn speedscope_clamps_overlapping_siblings() {
        // Same thread, overlapping but not nested: [0,100] and [50,150].
        // The second span must be clamped to close no later than 100.
        let t = Trace::from_spans(vec![span(1, None, 0, 0, 100), span(2, None, 0, 50, 100)]);
        let text = speedscope(&t, "t");
        // Closes: inner at 100 (clamped from 150), outer at 100.
        assert_eq!(text.matches("\"type\":\"C\",").count(), 2);
        assert!(!text.contains("\"at\":150"), "{text}");
    }
}
