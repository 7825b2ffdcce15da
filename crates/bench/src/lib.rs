//! Shared harness utilities for the paper-table binaries: a peak-tracking
//! global allocator (the paper's "Max Mem" column), small formatting
//! helpers, and [`TableArgs`] — the common flags, including
//! `--trace-json FILE`, which writes a run's span trace for
//! `gfab trace-diff` (the perf gate's only comparison).

use gfab_core::telemetry::{Collector, Phase, Span, Telemetry};
use gfab_field::nist::irreducible_polynomial;
use gfab_field::GfContext;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A wrapper around the system allocator that tracks current and peak
/// live allocation. Install in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: gfab_bench::PeakAlloc = gfab_bench::PeakAlloc::new();
/// ```
pub struct PeakAlloc {
    current: AtomicUsize,
    peak: AtomicUsize,
}

impl PeakAlloc {
    /// A fresh tracker.
    pub const fn new() -> Self {
        PeakAlloc {
            current: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    /// Bytes currently allocated.
    pub fn current_bytes(&self) -> usize {
        self.current.load(Ordering::Relaxed)
    }

    /// Peak bytes since the last [`PeakAlloc::reset_peak`].
    pub fn peak_bytes(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current level (per-experiment measurement).
    pub fn reset_peak(&self) {
        self.peak
            .store(self.current.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Default for PeakAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: delegates allocation to `System`; the atomic bookkeeping has no
// effect on the returned memory.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let cur = self.current.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            self.peak.fetch_max(cur, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        self.current.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

/// Formats a byte count as MB with one decimal.
pub fn fmt_mb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Formats a duration in seconds with adaptive precision.
pub fn fmt_secs(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 1.0 {
        format!("{:.3}", s)
    } else {
        format!("{:.2}", s)
    }
}

/// Gate-count pretty printer (`153K`, `1.6M` style, like the paper).
pub fn fmt_gates(n: usize) -> String {
    if n >= 1_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{}K", n / 1_000)
    } else {
        n.to_string()
    }
}

/// The field `GF(2^k)` of a table row. Every `k` reaching a binary's
/// sweep has been through [`require_field`].
pub fn field(k: usize) -> Arc<GfContext> {
    let p = irreducible_polynomial(k).expect("k checked by require_field");
    GfContext::shared(p).expect("irreducible")
}

/// Rejects, before any work runs, a degree with no irreducible
/// polynomial over GF(2) (`k < 2`): exit 2, naming `k`.
pub fn require_field(k: usize) {
    if irreducible_polynomial(k).is_none() {
        eprintln!("k = {k}: no irreducible polynomial of degree {k} over GF(2)");
        std::process::exit(2);
    }
}

/// Parses the common CLI flags of the table binaries: `--full` enables the
/// NIST-scale rows; `--threads N` sets the extraction thread budget;
/// `--timeout SECS` overrides the per-cell wall budget; `--trace-json FILE`
/// writes the run's span trace; a trailing list of integers overrides the
/// k sweep (each checked by [`require_field`]).
///
/// In the trace, every row is one root span labelled with its circuit
/// name ([`TableArgs::row_span`]) and the library's own spans nest under
/// it, so the committed `BENCH_table*.jsonl` baselines gate the rows'
/// work units through `gfab trace-diff`.
pub struct TableArgs {
    /// Whether `--full` was passed.
    pub full: bool,
    /// Explicit k values, if any were given.
    pub ks: Vec<usize>,
    /// Worker-thread budget (`0` = available parallelism).
    pub threads: usize,
    /// Per-cell wall-clock budget override, if `--timeout` was given.
    pub timeout: Option<std::time::Duration>,
    /// The `--trace-json` file and the collector recording into it.
    trace: Option<(String, Arc<Collector>)>,
}

impl TableArgs {
    /// Parses `std::env::args`; exits 2 on a usage error.
    pub fn parse() -> TableArgs {
        let mut args = TableArgs {
            full: false,
            ks: Vec::new(),
            threads: 0,
            timeout: None,
            trace: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut value = |what: &str| {
                it.next().unwrap_or_else(|| {
                    eprintln!("{a} needs {what}");
                    std::process::exit(2);
                })
            };
            let number = |v: String| {
                v.parse().unwrap_or_else(|_| {
                    eprintln!("bad number `{v}`");
                    std::process::exit(2);
                })
            };
            match a.as_str() {
                "--full" => args.full = true,
                "--threads" => args.threads = number(value("a number")),
                "--timeout" => {
                    let secs = number(value("a number of seconds"));
                    args.timeout = Some(std::time::Duration::from_secs(secs as u64));
                }
                "--trace-json" => args.trace = Some((value("a file"), Collector::new())),
                _ => match a.parse::<usize>() {
                    Ok(k) => {
                        require_field(k);
                        args.ks.push(k);
                    }
                    Err(_) => {
                        eprintln!(
                            "usage: [--full] [--threads N] [--timeout SECS] \
                             [--trace-json FILE] [k ...]"
                        );
                        std::process::exit(2);
                    }
                },
            }
        }
        args
    }

    /// The per-cell wall budget: `--timeout` if given, else `default`.
    pub fn wall_budget(&self, default: std::time::Duration) -> std::time::Duration {
        self.timeout.unwrap_or(default)
    }

    /// The k sweep: explicit values win; otherwise `quick`, extended by
    /// `nist_extra` under `--full`.
    pub fn sweep(&self, quick: &[usize], nist_extra: &[usize]) -> Vec<usize> {
        if !self.ks.is_empty() {
            return self.ks.clone();
        }
        let mut v = quick.to_vec();
        if self.full {
            v.extend_from_slice(nist_extra);
        }
        v
    }

    /// Opens the root span of one table row, labelled with its circuit
    /// name (`mastrovito_16`). Hand `span.telemetry()` to the library so
    /// its spans nest under the row; without `--trace-json` the span
    /// records nothing.
    pub fn row_span(&self, phase: Phase, label: &str) -> Span {
        let tele = match &self.trace {
            Some((_, collector)) => Telemetry::attached(collector),
            None => Telemetry::disabled(),
        };
        tele.span_labeled(phase, label)
    }

    /// Ends the run: writes the `--trace-json` file, if one was asked
    /// for, and returns the exit code — 1 when any row gave a wrong
    /// answer (`wrong` names them), 2 when the trace cannot be written,
    /// else 0.
    pub fn finish(&self, wrong: &[String]) -> ExitCode {
        if let Some((path, collector)) = &self.trace {
            let trace = collector.snapshot();
            let producer = concat!("gfab-bench ", env!("CARGO_PKG_VERSION"));
            if let Err(e) = std::fs::write(path, trace.to_jsonl_tagged(producer)) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            eprintln!("wrote {} spans to {path}", trace.spans().len());
        }
        for row in wrong {
            eprintln!("wrong answer: {row}");
        }
        if wrong.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

pub mod timing {
    //! A minimal measurement harness for the workspace's `harness = false`
    //! bench targets: warm-up, repeat until a wall-clock budget, report
    //! min/mean. No external dependencies, so `cargo bench` works in
    //! offline builds.

    use std::hint::black_box;
    use std::time::{Duration, Instant};

    /// Runs and times closures, printing one line per benchmark.
    pub struct Bench {
        budget: Duration,
        min_iters: u32,
        filter: Option<String>,
    }

    impl Bench {
        /// A harness with the given per-benchmark wall-clock budget; the
        /// first non-flag CLI argument (if any) is a name substring filter,
        /// so `cargo bench --bench X -- blk_mid` selects matching rows.
        pub fn from_args(budget: Duration) -> Bench {
            let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
            Bench {
                budget,
                min_iters: 10,
                filter,
            }
        }

        /// Sets the minimum iteration count (default 10).
        #[must_use]
        pub fn min_iters(mut self, n: u32) -> Bench {
            self.min_iters = n.max(1);
            self
        }

        /// Times `f`, printing `name ... min <t> mean <t> (<n> iters)`.
        /// Skipped (with a note) when a filter is set and does not match.
        pub fn run<R>(&self, name: &str, mut f: impl FnMut() -> R) {
            if let Some(filter) = &self.filter {
                if !name.contains(filter.as_str()) {
                    return;
                }
            }
            // Warm-up: one untimed call (page-in, lazy statics).
            black_box(f());
            let mut iters = 0u32;
            let mut total = Duration::ZERO;
            let mut min = Duration::MAX;
            while total < self.budget || iters < self.min_iters {
                let t = Instant::now();
                black_box(f());
                let dt = t.elapsed();
                total += dt;
                min = min.min(dt);
                iters += 1;
            }
            let mean = total / iters;
            println!("{name:40} min {min:>12.3?}  mean {mean:>12.3?}  ({iters} iters)");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_harness_runs_and_reports() {
        let b = timing::Bench::from_args(std::time::Duration::from_millis(1));
        let mut calls = 0u32;
        b.run("noop", || calls += 1);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_gates(512), "512");
        assert_eq!(fmt_gates(153_000), "153K");
        assert_eq!(fmt_gates(1_600_000), "1.6M");
        assert_eq!(fmt_mb(1024 * 1024), "1.0");
        assert_eq!(fmt_secs(std::time::Duration::from_millis(1500)), "1.50");
    }

    #[test]
    fn peak_alloc_tracks_growth() {
        // Not installed as the global allocator here; exercise the
        // bookkeeping directly through GlobalAlloc.
        let a = PeakAlloc::new();
        let layout = Layout::from_size_align(4096, 8).unwrap();
        unsafe {
            let p = a.alloc(layout);
            assert!(a.peak_bytes() >= 4096);
            a.dealloc(p, layout);
        }
        assert_eq!(a.current_bytes(), 0);
        a.reset_peak();
        assert_eq!(a.peak_bytes(), 0);
    }
}
