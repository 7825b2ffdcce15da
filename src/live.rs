//! Live event streaming for the CLI: the `--progress` board and the
//! `--events` NDJSON tap.
//!
//! The hot path publishes into a bounded [`EventBus`] and never blocks;
//! everything here runs on a dedicated reporter thread that drains the
//! receiving half. Rendering cadence is pure wall clock — events carry
//! deterministic work-unit totals, but *when* the board repaints has no
//! effect on any counter or verdict.

use crate::cli::Args;
use gfab::telemetry::events::{events_footer, events_header};
use gfab::telemetry::{EventBus, EventKind, EventReceiver, Recv};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on the in-flight event queue. Deep enough that a
/// healthy reporter never drops, small enough that a wedged one cannot
/// buffer unbounded memory; override with `--events-cap`.
const DEFAULT_EVENT_CAP: usize = 4096;

/// How often the reporter repaints, and the drain-poll granularity.
const RENDER_EVERY_ANSI: Duration = Duration::from_millis(100);
const RENDER_EVERY_PLAIN: Duration = Duration::from_millis(250);
const POLL: Duration = Duration::from_millis(50);

/// Starts the live sinks of `extract`, `equiv`, `batch` and `fuzz`
/// (`--progress`, `--events FILE|-`, `--events-cap N`): builds the event
/// channel and the reporter thread. With neither sink the reporter is an
/// inert no-op carrying a disabled bus (the hot path pays one `Option`
/// branch).
pub fn start(args: &Args) -> Result<LiveReporter, String> {
    let cap = args
        .value_with("--events-cap", crate::cli::positive)?
        .unwrap_or(DEFAULT_EVENT_CAP);
    let progress = args.has("--progress");
    let events = args.value("--events");
    if !progress && events.is_none() {
        return Ok(LiveReporter {
            bus: EventBus::disabled(),
            state: None,
        });
    }
    let sink = match events {
        None => None,
        Some("-") => Some(EventSink::Stdout),
        Some(path) => {
            let f = File::create(path).map_err(|e| format!("cannot write {path}: {e}"))?;
            Some(EventSink::File(BufWriter::new(f)))
        }
    };
    let board = progress.then(Board::new);
    let (bus, rx) = EventBus::bounded(cap);
    let stop = Arc::new(AtomicBool::new(false));
    let thread_stop = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("gfab-live".into())
        .spawn(move || report_loop(&rx, sink, board, &thread_stop))
        .map_err(|e| format!("cannot spawn reporter thread: {e}"))?;
    Ok(LiveReporter {
        bus,
        state: Some(ReporterState { stop, handle }),
    })
}

struct ReporterState {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Result<u64, String>>,
}

/// Owns the reporter thread for one query/command lifetime. Callers
/// clone [`LiveReporter::bus`] into the library layer, run the work,
/// then call [`LiveReporter::finish`] to drain and shut down.
pub struct LiveReporter {
    bus: EventBus,
    state: Option<ReporterState>,
}

impl LiveReporter {
    /// The publishing half to hand to the library layer (disabled when
    /// no live sink was requested).
    pub fn bus(&self) -> &EventBus {
        &self.bus
    }

    /// Stops the reporter after it drains everything already published.
    /// Reports the backpressure drop count on stderr when non-zero —
    /// the stream's footer records the same number.
    pub fn finish(self) -> Result<(), String> {
        let Some(st) = self.state else {
            return Ok(());
        };
        // Shutdown is flag-based, not disconnect-based: library structs
        // (Verifier, EngineConfig, FuzzConfig) hold bus clones that
        // outlive the query, so the channel never disconnects here.
        st.stop.store(true, Ordering::Relaxed);
        st.handle
            .join()
            .map_err(|_| "event reporter thread panicked".to_string())??;
        let dropped = self.bus.dropped();
        if dropped > 0 {
            eprintln!("events: {dropped} event(s) dropped under backpressure (raise --events-cap)");
        }
        Ok(())
    }
}

/// The reporter thread: drain events into the NDJSON sink and/or the
/// progress board until the stop flag is raised and the queue is dry.
/// Returns the number of event lines written.
fn report_loop(
    rx: &EventReceiver,
    mut sink: Option<EventSink>,
    mut board: Option<Board>,
    stop: &AtomicBool,
) -> Result<u64, String> {
    if let Some(s) = &mut sink {
        s.line(&events_header(Some(&gfab::version::version_string())))?;
    }
    let mut written = 0u64;
    loop {
        match rx.recv_timeout(POLL) {
            Recv::Event(ev) => {
                if let Some(s) = &mut sink {
                    s.line(&ev.to_json_line())?;
                    written += 1;
                }
                if let Some(b) = &mut board {
                    b.update(&ev);
                    b.maybe_render();
                }
            }
            // A full poll interval of silence after the stop flag went
            // up means the publisher is done and the queue is drained.
            Recv::Timeout => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(b) = &mut board {
                    b.maybe_render();
                }
            }
            Recv::Closed => break,
        }
    }
    if let Some(s) = &mut sink {
        s.line(&events_footer(written, rx.dropped()))?;
        s.flush()?;
    }
    if let Some(b) = &mut board {
        b.close();
    }
    Ok(written)
}

/// Where `--events` lines go: a buffered file or stdout.
enum EventSink {
    File(BufWriter<File>),
    Stdout,
}

impl EventSink {
    fn line(&mut self, s: &str) -> Result<(), String> {
        let io = |e: std::io::Error| format!("cannot write event stream: {e}");
        match self {
            EventSink::File(w) => writeln!(w, "{s}").map_err(io),
            // One write per line under the stdout lock keeps event lines
            // whole even when results interleave on the same stream.
            EventSink::Stdout => {
                println!("{s}");
                Ok(())
            }
        }
    }

    fn flush(&mut self) -> Result<(), String> {
        let io = |e: std::io::Error| format!("cannot write event stream: {e}");
        match self {
            EventSink::File(w) => w.flush().map_err(io),
            // Every stdout line ends in a newline, which flushes it.
            EventSink::Stdout => Ok(()),
        }
    }
}

/// Whether the progress board may use ANSI escapes: both stdio streams
/// must be real terminals, `NO_COLOR` must be unset (or empty), and
/// `TERM` must not be `dumb`. Anything else degrades to plain text.
fn ansi_allowed() -> bool {
    use std::io::IsTerminal;
    if !std::io::stdout().is_terminal() || !std::io::stderr().is_terminal() {
        return false;
    }
    if std::env::var_os("NO_COLOR").is_some_and(|v| !v.is_empty()) {
        return false;
    }
    if std::env::var_os("TERM").is_some_and(|v| v == "dumb") {
        return false;
    }
    true
}

const SPINNER: [char; 4] = ['|', '/', '-', '\\'];

/// The `--progress` renderer: one status line on stderr, rewritten in
/// place at ~10 Hz on a terminal, or appended as periodic plain-text
/// lines (never an escape byte) when piped / `NO_COLOR` / `TERM=dumb`.
struct Board {
    ansi: bool,
    started: Instant,
    last_render: Option<Instant>,
    spin: usize,
    dirty: bool,
    /// Innermost open phase label per publishing thread.
    stack: BTreeMap<u64, Vec<String>>,
    /// Work units banked by closed spans.
    done_work: u64,
    /// Last in-flight progress snapshot per (thread, phase slug).
    live_work: BTreeMap<(u64, &'static str), u64>,
    budget_remaining_us: Option<u64>,
    /// Current query per worker, and finished-query tally.
    running: BTreeMap<u64, String>,
    queries_done: u64,
    /// Which thread updated a phase most recently (display pick).
    last_thread: u64,
}

impl Board {
    fn new() -> Board {
        Board {
            ansi: ansi_allowed(),
            started: Instant::now(),
            last_render: None,
            spin: 0,
            dirty: false,
            stack: BTreeMap::new(),
            done_work: 0,
            live_work: BTreeMap::new(),
            budget_remaining_us: None,
            running: BTreeMap::new(),
            queries_done: 0,
            last_thread: 0,
        }
    }

    fn update(&mut self, ev: &gfab::telemetry::Event) {
        self.dirty = true;
        let t = ev.thread;
        // The board never writes back into the computation: everything
        // below is display state.
        match &ev.kind {
            EventKind::PhaseEnter { phase, label } => {
                let name = match label {
                    Some(l) => format!("{} [{l}]", phase.slug()),
                    None => phase.slug().to_string(),
                };
                self.stack.entry(t).or_default().push(name);
                self.last_thread = t;
            }
            EventKind::PhaseExit {
                phase, work_units, ..
            } => {
                if let Some(stack) = self.stack.get_mut(&t) {
                    stack.pop();
                }
                self.live_work.remove(&(t, phase.slug()));
                self.done_work += work_units;
            }
            EventKind::Progress { phase, work_units } => {
                self.live_work.insert((t, phase.slug()), *work_units);
                self.last_thread = t;
            }
            EventKind::BudgetTick { remaining_us, .. } => {
                self.budget_remaining_us = *remaining_us;
            }
            EventKind::QueryStart { query, worker } => {
                self.running.insert(*worker, query.clone());
            }
            EventKind::QueryDone { worker, .. } => {
                self.running.remove(worker);
                self.queries_done += 1;
            }
        }
    }

    fn maybe_render(&mut self) {
        if !self.dirty {
            return;
        }
        let every = if self.ansi {
            RENDER_EVERY_ANSI
        } else {
            RENDER_EVERY_PLAIN
        };
        if self.last_render.is_some_and(|t| t.elapsed() < every) {
            return;
        }
        self.last_render = Some(Instant::now());
        self.dirty = false;
        let line = self.status_line();
        if self.ansi {
            self.spin = (self.spin + 1) % SPINNER.len();
            let clipped: String = line.chars().take(118).collect();
            eprint!("\r\x1b[2K{} {clipped}", SPINNER[self.spin]);
            let _ = std::io::stderr().flush();
        } else {
            eprintln!("progress: {line}");
        }
    }

    /// The current status, without any cursor control.
    fn status_line(&self) -> String {
        let work: u64 = self.done_work + self.live_work.values().sum::<u64>();
        let secs = self.started.elapsed().as_secs_f64();
        let rate = if secs > 0.0 { work as f64 / secs } else { 0.0 };
        let phase = self
            .stack
            .get(&self.last_thread)
            .and_then(|s| s.last())
            .or_else(|| self.stack.values().find_map(|s| s.last()))
            .map_or("idle", String::as_str);
        let mut out = format!("{phase} | work {work} ({rate:.0}/s)");
        if let Some(us) = self.budget_remaining_us {
            out.push_str(&format!(" | budget {:.1}s left", us as f64 / 1e6));
        }
        if self.queries_done > 0 || !self.running.is_empty() {
            out.push_str(&format!(" | {} done", self.queries_done));
            for (w, q) in self.running.iter().take(4) {
                out.push_str(&format!(" w{w}:{q}"));
            }
            if self.running.len() > 4 {
                out.push_str(&format!(" (+{})", self.running.len() - 4));
            }
        }
        out
    }

    /// Final repaint: leave the terminal on a fresh line (ANSI) or emit
    /// one closing plain line, so the next writer starts clean.
    fn close(&mut self) {
        if self.ansi {
            eprint!("\r\x1b[2K");
        }
        eprintln!(
            "progress: {} (done in {:.1?})",
            self.status_line(),
            self.started.elapsed()
        );
        let _ = std::io::stderr().flush();
    }
}
