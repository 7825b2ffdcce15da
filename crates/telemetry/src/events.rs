//! Live event streaming: the bounded, non-blocking channel behind
//! `--progress`, `--events FILE|-` and the reporter thread.
//!
//! Every observability surface before this one (span traces, metrics,
//! the run ledger) is *post-hoc*: nothing is visible until the query
//! exits. This module adds the in-flight view. Instrumented code —
//! span open/close in [`crate::Telemetry`], the budget poller, the
//! batch/fuzz worker loops — publishes typed [`Event`]s into an
//! [`EventBus`]; a dedicated reporter thread drains the matching
//! [`EventReceiver`] and feeds the sinks (live TTY renderer, NDJSON
//! file, …).
//!
//! # The hot path never blocks
//!
//! The bus wraps a bounded [`std::sync::mpsc::sync_channel`] and
//! publishes with `try_send`: when the reporter falls behind and the
//! channel fills, events are *dropped and counted* — never queued
//! unboundedly, never waited on. The drop counter is surfaced both as
//! a queryable metric ([`EventBus::dropped`]) and in the event stream
//! itself (the `events-end` footer line). A disabled bus (the
//! default) is a `None` inside an `Option`, so instrumented code pays
//! one branch when events are off — the same contract as disabled
//! tracing.
//!
//! Events carry wall-clock timestamps for display, but publishing
//! never feeds back into any computation: work-unit counters and
//! verdicts are bit-identical with events on or off, at any thread
//! count.
//!
//! # NDJSON schema (`events` documents)
//!
//! One JSON object per line, framed and read like every gfab JSONL file
//! (see [`crate::Trace::to_jsonl`]) and validated by `gfab trace-check`:
//!
//! * **Header** (first line): `{"type":"events","version":5}` plus an
//!   optional `"producer"` string (the emitting tool's version).
//! * **Event lines**: `{"type":"event","seq":N,"ts_us":N,"thread":N,`
//!   `"event":"<kind>",...}` with kind-specific fields (see
//!   [`EventKind`]). `seq` values are unique but — because publishers
//!   race on a shared counter and drops leave gaps — not necessarily
//!   contiguous or sorted in file order.
//! * **Footer** (optional last line, written when the run completes):
//!   `{"type":"events-end","events":N,"dropped":D}` — `N` must equal
//!   the number of event lines, `D` is the backpressure drop counter.
//!   A file being tailed mid-run simply has no footer yet
//!   ([`EventStream::complete`] is `false`), and may end in a torn
//!   line, which is ignored.

use crate::json::{write_json_string, Obj};
use crate::jsonl::{
    err_at, expect_keys, field_err, get_opt_str, get_opt_u64, get_slug, get_str, get_u64,
    header_line, read, FieldError, Frame, Kind, ParseError,
};
use crate::Phase;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What happened, with the kind-specific payload. The `event` field of
/// the NDJSON line is the kind's slug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A phase span opened (`"phase-enter"`).
    PhaseEnter {
        /// The phase that started.
        phase: Phase,
        /// The span's free-form label, if any.
        label: Option<String>,
    },
    /// A phase span closed (`"phase-exit"`).
    PhaseExit {
        /// The phase that finished.
        phase: Phase,
        /// The span's free-form label, if any.
        label: Option<String>,
        /// Wall-clock duration of the span, microseconds.
        dur_us: u64,
        /// Work units attributed to the span while it was open.
        work_units: u64,
    },
    /// A budget-poller tick (`"budget"`): how much work the query has
    /// charged and how much wall clock remains.
    BudgetTick {
        /// Cumulative work units charged to the query's budget.
        work_done: u64,
        /// Time left until the deadline (`None` when unlimited).
        remaining_us: Option<u64>,
    },
    /// A worker dequeued a batch/fuzz query (`"query-start"`).
    QueryStart {
        /// The query's name.
        query: String,
        /// Worker index that picked it up.
        worker: u64,
    },
    /// A batch/fuzz query finished (`"query-done"`).
    QueryDone {
        /// The query's name.
        query: String,
        /// Its verdict word (`equivalent`, `caught`, `timeout`, …).
        verdict: String,
        /// The exit severity the outcome maps to (0/1/2/3).
        exit: u64,
        /// Wall-clock time of the query, microseconds.
        wall_us: u64,
        /// Worker index that ran it.
        worker: u64,
    },
}

impl EventKind {
    /// Stable kebab-case identifier used in the NDJSON schema.
    #[must_use]
    pub fn slug(&self) -> &'static str {
        match self {
            EventKind::PhaseEnter { .. } => "phase-enter",
            EventKind::PhaseExit { .. } => "phase-exit",
            EventKind::BudgetTick { .. } => "budget",
            EventKind::QueryStart { .. } => "query-start",
            EventKind::QueryDone { .. } => "query-done",
        }
    }

    /// The work-unit total this event reports, if it reports one.
    #[must_use]
    pub fn work_units(&self) -> Option<u64> {
        match self {
            EventKind::PhaseExit { work_units, .. } => Some(*work_units),
            EventKind::BudgetTick { work_done, .. } => Some(*work_done),
            _ => None,
        }
    }
}

/// One published event: a unique sequence number, a wall-clock offset
/// from the bus epoch, the publishing thread's display index, and the
/// kind-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Unique (but not necessarily file-ordered) sequence number.
    pub seq: u64,
    /// Microseconds since the bus was created. Informational only.
    pub ts_us: u64,
    /// Display index of the publishing thread (same assignment as span
    /// records).
    pub thread: u64,
    /// What happened.
    pub kind: EventKind,
}

#[derive(Debug)]
struct BusInner {
    tx: SyncSender<Event>,
    seq: AtomicU64,
    dropped: Arc<AtomicU64>,
    epoch: Instant,
}

/// The publishing side of the live event channel.
///
/// Cheap to clone (an `Arc` bump) and cheap to carry disabled (a
/// `None`): [`EventBus::default`] publishes nothing at the cost of one
/// branch. Publishing never blocks — see the module docs.
#[derive(Debug, Clone, Default)]
pub struct EventBus {
    inner: Option<Arc<BusInner>>,
}

impl EventBus {
    /// A bus that publishes nothing. Equivalent to `EventBus::default()`.
    #[must_use]
    pub fn disabled() -> EventBus {
        EventBus::default()
    }

    /// Creates a live channel bounded at `capacity` queued events
    /// (minimum 1) and returns the publishing and draining halves.
    #[must_use]
    pub fn bounded(capacity: usize) -> (EventBus, EventReceiver) {
        let (tx, rx) = sync_channel(capacity.max(1));
        let dropped = Arc::new(AtomicU64::new(0));
        let bus = EventBus {
            inner: Some(Arc::new(BusInner {
                tx,
                seq: AtomicU64::new(0),
                dropped: Arc::clone(&dropped),
                epoch: Instant::now(),
            })),
        };
        (bus, EventReceiver { rx, dropped })
    }

    /// Whether publishes go anywhere.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Publishes one event. Non-blocking: on a full (or closed)
    /// channel the event is dropped and counted instead. No-op on a
    /// disabled bus.
    pub fn publish(&self, kind: EventKind) {
        // The single enabled/disabled branch.
        let Some(inner) = &self.inner else { return };
        let event = Event {
            seq: inner.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: inner.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            thread: crate::span::thread_index(),
            kind,
        };
        if inner.tx.try_send(event).is_err() {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Events dropped under backpressure so far (0 on a disabled bus).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }
}

/// The outcome of one [`EventReceiver::recv_timeout`] poll.
#[derive(Debug)]
pub enum Recv {
    /// An event arrived.
    Event(Event),
    /// Nothing arrived within the timeout; the channel is still open.
    Timeout,
    /// Every [`EventBus`] clone was dropped; no more events will come.
    Closed,
}

/// The draining side of the live event channel, owned by the reporter
/// thread.
#[derive(Debug)]
pub struct EventReceiver {
    rx: Receiver<Event>,
    dropped: Arc<AtomicU64>,
}

impl EventReceiver {
    /// Waits up to `timeout` for the next event.
    pub fn recv_timeout(&self, timeout: Duration) -> Recv {
        match self.rx.recv_timeout(timeout) {
            Ok(ev) => Recv::Event(ev),
            Err(RecvTimeoutError::Timeout) => Recv::Timeout,
            Err(RecvTimeoutError::Disconnected) => Recv::Closed,
        }
    }

    /// Events dropped under backpressure so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The NDJSON header line (no trailing newline); see the module docs.
#[must_use]
pub fn events_header(producer: Option<&str>) -> String {
    header_line("events", "", producer)
}

/// The NDJSON footer line (no trailing newline); see the module docs.
#[must_use]
pub fn events_footer(events: u64, dropped: u64) -> String {
    format!("{{\"type\":\"events-end\",\"events\":{events},\"dropped\":{dropped}}}")
}

impl Event {
    /// Serializes the event as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"ts_us\":{},\"thread\":{},\"event\":\"{}\"",
            self.seq,
            self.ts_us,
            self.thread,
            self.kind.slug()
        );
        let label_field = |out: &mut String, label: &Option<String>| {
            out.push_str(",\"label\":");
            match label {
                Some(l) => write_json_string(out, l),
                None => out.push_str("null"),
            }
        };
        match &self.kind {
            EventKind::PhaseEnter { phase, label } => {
                let _ = write!(out, ",\"phase\":\"{}\"", phase.slug());
                label_field(&mut out, label);
            }
            EventKind::PhaseExit {
                phase,
                label,
                dur_us,
                work_units,
            } => {
                let _ = write!(out, ",\"phase\":\"{}\"", phase.slug());
                label_field(&mut out, label);
                let _ = write!(out, ",\"dur_us\":{dur_us},\"work_units\":{work_units}");
            }
            EventKind::BudgetTick {
                work_done,
                remaining_us,
            } => {
                let _ = write!(out, ",\"work_done\":{work_done},\"remaining_us\":");
                match remaining_us {
                    Some(r) => {
                        let _ = write!(out, "{r}");
                    }
                    None => out.push_str("null"),
                }
            }
            EventKind::QueryStart { query, worker } => {
                out.push_str(",\"query\":");
                write_json_string(&mut out, query);
                let _ = write!(out, ",\"worker\":{worker}");
            }
            EventKind::QueryDone {
                query,
                verdict,
                exit,
                wall_us,
                worker,
            } => {
                out.push_str(",\"query\":");
                write_json_string(&mut out, query);
                out.push_str(",\"verdict\":");
                write_json_string(&mut out, verdict);
                let _ = write!(
                    out,
                    ",\"exit\":{exit},\"wall_us\":{wall_us},\"worker\":{worker}"
                );
            }
        }
        out.push('}');
        out
    }
}

/// A parsed (and strictly validated) `--events` NDJSON stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventStream {
    /// Every event line, in file order.
    pub events: Vec<Event>,
    /// The producing tool's version string, when the header carried one.
    pub producer: Option<String>,
    /// The footer's backpressure drop counter; `None` while the stream
    /// is still being written (no footer yet).
    pub dropped: Option<u64>,
    /// Whether the `events-end` footer was present — `false` for a
    /// file captured mid-run.
    pub complete: bool,
}

impl EventStream {
    /// Parses and validates an `--events` NDJSON stream (see the
    /// module docs for the schema).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the offending line and field path for
    /// any syntax or schema violation.
    pub fn from_jsonl(text: &str) -> Result<EventStream, ParseError> {
        EventStream::from_frame(read(text, Kind::Events, false, parse_event)?)
    }

    /// The stream of framed event lines, whose seqs must be unique.
    pub(crate) fn from_frame(frame: Frame<Event>) -> Result<EventStream, ParseError> {
        let dropped = match &frame.footer {
            Some((n, footer)) => Some(get_u64(footer, "dropped").map_err(|e| e.on_line(*n))?),
            None => None,
        };
        let mut seqs = BTreeSet::new();
        for (n, ev) in &frame.records {
            if !seqs.insert(ev.seq) {
                return Err(err_at(*n, "seq", format!("duplicate event seq {}", ev.seq)));
            }
        }
        Ok(EventStream {
            events: frame.records.into_iter().map(|(_, ev)| ev).collect(),
            // The reader has checked that a producer, if any, is a string.
            producer: get_str(&frame.header.1, "producer").ok(),
            dropped,
            complete: frame.footer.is_some(),
        })
    }

    /// Per-kind event counts, for summaries (slug → count, sorted).
    #[must_use]
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for ev in &self.events {
            *counts.entry(ev.kind.slug()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }
}

const COMMON_KEYS: [&str; 5] = ["type", "seq", "ts_us", "thread", "event"];

/// Parses one `event` line (see the module docs).
pub(crate) fn parse_event(obj: &Obj) -> Result<Event, FieldError> {
    let slug = get_str(obj, "event")?;
    let kind_keys: &[&str] = match slug.as_str() {
        "phase-enter" => &["phase", "label"],
        "phase-exit" => &["phase", "label", "dur_us", "work_units"],
        "budget" => &["work_done", "remaining_us"],
        "query-start" => &["query", "worker"],
        "query-done" => &["query", "verdict", "exit", "wall_us", "worker"],
        other => return Err(field_err("event", format!("unknown event kind {other:?}"))),
    };
    expect_keys(obj, &[&COMMON_KEYS[..], kind_keys].concat())?;
    let phase = || get_slug(obj, "phase", "phase", Phase::from_slug);
    let num = |key: &str| get_u64(obj, key);
    let kind = match slug.as_str() {
        "phase-enter" => EventKind::PhaseEnter {
            phase: phase()?,
            label: get_opt_str(obj, "label")?,
        },
        "phase-exit" => EventKind::PhaseExit {
            phase: phase()?,
            label: get_opt_str(obj, "label")?,
            dur_us: num("dur_us")?,
            work_units: num("work_units")?,
        },
        "budget" => EventKind::BudgetTick {
            work_done: num("work_done")?,
            remaining_us: get_opt_u64(obj, "remaining_us")?,
        },
        "query-start" => EventKind::QueryStart {
            query: get_str(obj, "query")?,
            worker: num("worker")?,
        },
        "query-done" => EventKind::QueryDone {
            query: get_str(obj, "query")?,
            verdict: get_str(obj, "verdict")?,
            exit: num("exit")?,
            wall_us: num("wall_us")?,
            worker: num("worker")?,
        },
        _ => unreachable!("slug matched above"),
    };
    Ok(Event {
        seq: num("seq")?,
        ts_us: num("ts_us")?,
        thread: num("thread")?,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                seq: 0,
                ts_us: 10,
                thread: 0,
                kind: EventKind::PhaseEnter {
                    phase: Phase::Extract,
                    label: Some("spec \"q\"\\".into()),
                },
            },
            Event {
                seq: 1,
                ts_us: 20,
                thread: 1,
                kind: EventKind::PhaseExit {
                    phase: Phase::GuidedReduction,
                    label: None,
                    dur_us: 10,
                    work_units: 4096,
                },
            },
            Event {
                seq: 2,
                ts_us: 30,
                thread: 0,
                kind: EventKind::BudgetTick {
                    work_done: 5000,
                    remaining_us: Some(120_000),
                },
            },
            Event {
                seq: 3,
                ts_us: 31,
                thread: 0,
                kind: EventKind::BudgetTick {
                    work_done: 6000,
                    remaining_us: None,
                },
            },
            Event {
                seq: 4,
                ts_us: 40,
                thread: 2,
                kind: EventKind::QueryStart {
                    query: "mont-eq".into(),
                    worker: 2,
                },
            },
            Event {
                seq: 5,
                ts_us: 90,
                thread: 2,
                kind: EventKind::QueryDone {
                    query: "mont-eq".into(),
                    verdict: "equivalent".into(),
                    exit: 0,
                    wall_us: 50,
                    worker: 2,
                },
            },
            Event {
                seq: 6,
                ts_us: 95,
                thread: 0,
                kind: EventKind::PhaseExit {
                    phase: Phase::Extract,
                    label: None,
                    dur_us: 85,
                    work_units: 6100,
                },
            },
        ]
    }

    fn render(events: &[Event], footer: bool) -> String {
        let mut text = events_header(Some("gfab 0.5.0"));
        text.push('\n');
        for ev in events {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        if footer {
            text.push_str(&events_footer(events.len() as u64, 3));
            text.push('\n');
        }
        text
    }

    #[test]
    fn round_trip_preserves_every_kind() {
        let events = sample_events();
        let text = render(&events, true);
        let stream = EventStream::from_jsonl(&text).expect("round trip");
        assert_eq!(stream.events, events);
        assert_eq!(stream.producer.as_deref(), Some("gfab 0.5.0"));
        assert_eq!(stream.dropped, Some(3));
        assert!(stream.complete);
        for line in text.lines() {
            parse_object(line).expect("each line parses standalone");
        }
    }

    #[test]
    fn footerless_stream_parses_as_incomplete() {
        let text = render(&sample_events(), false);
        let stream = EventStream::from_jsonl(&text).unwrap();
        assert!(!stream.complete);
        assert_eq!(stream.dropped, None);
        assert_eq!(stream.events.len(), 7);
        // Read mid-run, the file may end part-way through a line: the
        // torn line is ignored, the stream is still in flight.
        let cut = EventStream::from_jsonl(&text[..text.len() - 10]).unwrap();
        assert!(!cut.complete);
        assert_eq!(cut.events, sample_events()[..6]);
    }

    #[test]
    fn strict_parser_names_line_and_field() {
        let good = render(&sample_events(), true);

        let e =
            EventStream::from_jsonl(&good.replace("\"version\":5", "\"version\":1")).unwrap_err();
        assert_eq!(e.path, "version");

        let e =
            EventStream::from_jsonl(&good.replace("\"event\":\"budget\"", "\"event\":\"warp\""))
                .unwrap_err();
        assert_eq!(e.path, "event");
        assert!(e.message.contains("unknown event kind"));

        let e = EventStream::from_jsonl(&good.replace("\"work_units\":4096", "\"bogus\":1"))
            .unwrap_err();
        assert!(e.message.contains("missing required field") || e.message.contains("unexpected"));

        let e = EventStream::from_jsonl(&good.replace("\"events\":7", "\"events\":9")).unwrap_err();
        assert_eq!(e.path, "events");
        assert!(e.message.contains("declares 9"));

        let e = EventStream::from_jsonl(&good.replace("\"seq\":5", "\"seq\":0")).unwrap_err();
        assert_eq!(e.path, "seq");
        assert!(e.message.contains("duplicate"));

        let mut after_footer = good.clone();
        after_footer.push_str("{\"type\":\"event\"}\n");
        assert!(EventStream::from_jsonl(&after_footer)
            .unwrap_err()
            .message
            .contains("after the events-end footer"));

        assert!(EventStream::from_jsonl("").is_err());
    }

    #[test]
    fn disabled_bus_is_inert() {
        let bus = EventBus::disabled();
        assert!(!bus.is_enabled());
        bus.publish(EventKind::BudgetTick {
            work_done: 1,
            remaining_us: None,
        });
        assert_eq!(bus.dropped(), 0);
    }

    #[test]
    fn full_channel_drops_with_counter_without_blocking() {
        let (bus, rx) = EventBus::bounded(2);
        for i in 0..10 {
            bus.publish(EventKind::BudgetTick {
                work_done: i,
                remaining_us: None,
            });
        }
        // Capacity 2: exactly 2 queued, 8 dropped — and no publish blocked.
        assert_eq!(bus.dropped(), 8);
        assert_eq!(rx.dropped(), 8);
        let mut received = 0;
        while let Recv::Event(_) = rx.recv_timeout(Duration::from_millis(10)) {
            received += 1;
        }
        assert_eq!(received, 2);
    }

    #[test]
    fn receiver_sees_closed_after_all_buses_drop() {
        let (bus, rx) = EventBus::bounded(4);
        let clone = bus.clone();
        clone.publish(EventKind::BudgetTick {
            work_done: 7,
            remaining_us: None,
        });
        drop(bus);
        drop(clone);
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Recv::Event(_)
        ));
        assert!(matches!(
            rx.recv_timeout(Duration::from_millis(10)),
            Recv::Closed
        ));
    }
}
