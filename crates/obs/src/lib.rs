//! `ramp-obs`: zero-dependency tracing and metrics for the RAMP workspace.
//!
//! Hand-rolled in the spirit of the vendored serde/proptest stubs: no
//! external crates, no network, no global init required. The facade has
//! four pieces:
//!
//! - **Log macros** ([`error!`], [`warn!`], [`info!`], [`debug!`],
//!   [`trace!`]) — formatted message events, filtered per target by
//!   `RAMP_LOG` (see [`Filter`]).
//! - **Spans** ([`span!`], [`SpanGuard`]) — nested timing scopes that feed
//!   both the sinks (as `span_start`/`span_end` events) and the collapsed
//!   per-path registry ([`span_tree`]).
//! - **Metrics** ([`counter`], [`gauge`], [`histogram`]) — process-wide
//!   atomics snapshotted into run manifests.
//! - **Sinks** ([`Sink`], [`install_stderr`], [`install_jsonl`]) — where
//!   events go; stderr pretty-printer and a JSONL file writer ship
//!   built-in.
//!
//! Determinism contract: nothing in this crate writes into simulation
//! results. Wall-clock timestamps appear only in sink output (JSONL,
//! stderr) and in snapshots the caller explicitly takes for manifests.
//!
//! Typical binary setup is one call to [`init_from_env`]:
//!
//! ```no_run
//! ramp_obs::init_from_env();
//! ramp_obs::info!("starting study");
//! let span = ramp_obs::span!("study");
//! // ... work ...
//! let wall = span.finish();
//! ramp_obs::info!("done in {:.1}s", wall.as_secs_f64());
//! ```

#![warn(missing_docs)]

mod alloc;
mod export;
mod level;
mod metrics;
pub mod profile;
mod ring;
mod sink;
mod span;
mod trace;

pub use alloc::{
    alloc_stats, alloc_tracking_enabled, set_alloc_tracking, thread_alloc_snapshot, AllocLedger,
    AllocStats, ThreadAllocSnapshot, TrackingAllocator, ALLOC_ENV,
};
pub use export::{
    arg_value, chrome_trace_json, critical_path_report, flush_trace_file, install_trace,
    trace_file_path, write_chrome_trace, AttributionRow, CriticalPathReport, TRACE_CAPACITY_ENV,
    TRACE_ENV,
};
pub use level::{Filter, Level};
pub use metrics::{
    bucket_percentile, bucket_percentile_with_sums, counter, counter_value,
    diff_metric_snapshots, gauge, gauge_value, histogram, metrics_snapshot, reset_metrics,
    Counter, Gauge, Histogram, MetricDelta, MetricSnapshot, MetricValue,
};
pub use profile::{reset_spans, span_stats, span_tree, SpanNode, SpanPathStats};
pub use ring::{ring_snapshot, ring_stats, tracing_enabled, CompletedSpan, RingStats, SpanRing,
    DEFAULT_RING_CAPACITY};
pub use sink::{
    add_sink, enabled, event_file_path, install_jsonl, install_stderr, reset_sinks,
    Event, EventKind, JsonlSink, Sink, StderrSink,
};
pub use span::{current_path, span_guard, with_root_path, SpanGuard};
pub use trace::{
    adopt_trace, current_trace, fnv1a_64, trace_root, with_trace, SpanId, TraceCtx, TraceId,
    TraceScope,
};

/// Environment variable naming the JSONL event file ([`init_from_env`]).
pub const EVENTS_ENV: &str = "RAMP_EVENTS";

/// The workspace-wide global allocator: every binary that links
/// `ramp-obs` (all of them) routes heap traffic through the tracking
/// wrapper. Costs one relaxed atomic load per allocation while tracking
/// is off; see [`crate::alloc_stats`] and `RAMP_ALLOC`.
#[global_allocator]
static GLOBAL_ALLOCATOR: TrackingAllocator = TrackingAllocator;

/// Flushes every sink and, when `RAMP_TRACE` (or [`install_trace`]) has
/// registered a trace file, rewrites it from the current span-ring
/// snapshot. Call before reading either file back; the panic hook calls
/// it automatically.
pub fn flush() {
    sink::flush();
    let _ = export::flush_trace_file();
}

/// One-time convenience initialisation for binaries:
///
/// - installs a stderr sink filtered by `RAMP_LOG` (default `info`);
/// - if `RAMP_EVENTS=<path>` is set, installs a JSONL sink writing there.
///   The JSONL filter is `RAMP_LOG` with its default floored to `debug`,
///   so event files always carry span detail even when the console is
///   quiet.
///
/// Subsequent calls are no-ops, so library code may call it defensively.
///
/// Also installs the sink-flushing panic hook ([`install_panic_hook`]) so
/// a mid-run panic cannot truncate a buffered `RAMP_EVENTS` stream.
///
/// When `RAMP_TRACE=<path>` is set, causal-trace recording is enabled
/// (span ring of `RAMP_TRACE_CAPACITY` slots, default
/// [`DEFAULT_RING_CAPACITY`]) and every [`flush`] rewrites `<path>` as
/// Chrome Trace Event JSON loadable in Perfetto.
///
/// When `RAMP_ALLOC` is set (non-empty and not `0`), heap-allocation
/// tracking is enabled: the global allocator starts counting (see
/// [`alloc_stats`]) and spans attribute per-thread allocation deltas.
pub fn init_from_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        install_panic_hook();
        install_stderr(Filter::from_env());
        if let Ok(path) = std::env::var(EVENTS_ENV) {
            if !path.trim().is_empty() {
                let path = std::path::PathBuf::from(path);
                let filter = Filter::from_env().with_default_at_least(Level::Debug);
                if let Err(err) = install_jsonl(&path, filter) {
                    eprintln!("[ warn ramp_obs] cannot open {}: {err}", path.display());
                }
            }
        }
        if std::env::var(ALLOC_ENV)
            .is_ok_and(|raw| !raw.trim().is_empty() && raw.trim() != "0")
        {
            set_alloc_tracking(true);
        }
        if let Ok(path) = std::env::var(TRACE_ENV) {
            if !path.trim().is_empty() {
                let capacity = std::env::var(TRACE_CAPACITY_ENV)
                    .ok()
                    .and_then(|raw| raw.trim().parse::<usize>().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or(DEFAULT_RING_CAPACITY);
                install_trace(Some(std::path::Path::new(&path)), capacity);
            }
        }
    });
}

/// Chains a panic hook in front of the current one that flushes every
/// sink before the panic is reported.
///
/// The JSONL sink buffers writes; without this, a panic that unwinds (or
/// aborts) after a few small events leaves the `RAMP_EVENTS` file
/// truncated mid-run, losing exactly the events that explain the crash.
/// The hook runs on the panicking thread before unwinding, so everything
/// emitted up to the panic site reaches disk. Installing more than once
/// is a no-op; [`init_from_env`] calls this automatically.
pub fn install_panic_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            flush();
            previous(info);
        }));
    });
}

#[doc(hidden)]
pub fn __emit(level: Level, target: &str, args: std::fmt::Arguments<'_>) {
    sink::emit(level, target, args);
}

/// Logs at [`Level::Error`]. `target:` overrides the default
/// `module_path!()` target: `error!(target: "ramp_core::study", "...")`.
#[macro_export]
macro_rules! error {
    (target: $target:expr, $($arg:tt)+) => {
        $crate::__emit($crate::Level::Error, $target, format_args!($($arg)+))
    };
    ($($arg:tt)+) => {
        $crate::__emit($crate::Level::Error, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    (target: $target:expr, $($arg:tt)+) => {
        $crate::__emit($crate::Level::Warn, $target, format_args!($($arg)+))
    };
    ($($arg:tt)+) => {
        $crate::__emit($crate::Level::Warn, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    (target: $target:expr, $($arg:tt)+) => {
        $crate::__emit($crate::Level::Info, $target, format_args!($($arg)+))
    };
    ($($arg:tt)+) => {
        $crate::__emit($crate::Level::Info, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    (target: $target:expr, $($arg:tt)+) => {
        $crate::__emit($crate::Level::Debug, $target, format_args!($($arg)+))
    };
    ($($arg:tt)+) => {
        $crate::__emit($crate::Level::Debug, module_path!(), format_args!($($arg)+))
    };
}

/// Logs at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    (target: $target:expr, $($arg:tt)+) => {
        $crate::__emit($crate::Level::Trace, $target, format_args!($($arg)+))
    };
    ($($arg:tt)+) => {
        $crate::__emit($crate::Level::Trace, module_path!(), format_args!($($arg)+))
    };
}

/// Enters a span named by a string literal, optionally with a formatted
/// detail string: `span!("timing")` or `span!("run", "app={app}")`.
/// Returns a [`SpanGuard`]; bind it (`let span = …`), not `_`, or it ends
/// immediately.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span_guard(module_path!(), $name, ::std::string::String::new())
    };
    ($name:literal, $($arg:tt)+) => {
        $crate::span_guard(module_path!(), $name, format!($($arg)+))
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_compile_in_all_forms() {
        crate::info!("plain {}", 1);
        crate::debug!(target: "ramp_obs::custom", "targeted {}", 2);
        crate::warn!("warn");
        crate::trace!("trace");
        crate::error!("error");
        let s = crate::span!("macro_test_span", "detail={}", 3);
        assert_eq!(s.path(), "macro_test_span");
        let _ = s.finish();
    }
}
