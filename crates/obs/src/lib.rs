//! Structured observability for the ConfMask pipeline and simulator.
//!
//! A zero-dependency (offline-friendly, like the `crates/vendor` stubs)
//! instrumentation layer with three primitives:
//!
//! * **Spans** ([`span`]) — hierarchical wall-clock timers. A span opened
//!   while another span on the same thread is live becomes its child, so
//!   the pipeline's stage structure (attempt → stage → simulation) falls
//!   out of ordinary RAII scoping. Finished spans are collected globally
//!   (when [`set_enabled`] is on) and/or into a thread-local capture
//!   ([`capture`]) that works regardless of the global switch.
//! * **Metrics** ([`counter_add`], [`gauge_set`], [`observe`]) — a global
//!   registry of saturating counters, gauges, and log-bucketed histograms
//!   with p50/p90/p99 summaries.
//! * **Events** ([`error!`], [`warn!`], [`info!`], [`debug!`]) — a leveled
//!   diagnostic log. Events print to **stderr** (stdout stays reserved for
//!   machine-readable command output) when the level passes the global
//!   verbosity, and are retained for the report when collection is on.
//!
//! Everything funnels into a [`Report`](report::Report): a span tree with
//! durations plus all counters/gauges/histograms, serializable to JSON
//! ([`report::Report::to_json`]), parseable back
//! ([`report::Report::from_json`]), and renderable as an indented
//! flame-style summary ([`report::Report::render`]).
//!
//! ## Cost model
//!
//! With collection disabled (the default) every primitive is a relaxed
//! atomic load away from a no-op: counters and events return immediately,
//! and spans skip the collector entirely — they still measure elapsed time
//! (two `Instant` reads), because callers like the pipeline's deadline
//! checks consume the measured [`Span::finish`] duration directly. The
//! instrumented hot paths add well under 5% wall time when disabled.
//!
//! ## Naming conventions
//!
//! Dotted lowercase paths, crate first: spans `pipeline.anonymize`,
//! `pipeline.attempt`, `pipeline.stage.<stage>`, `sim.control_plane`;
//! counters `sim.bgp.rounds`, `core.route_equiv.iterations`,
//! `topology.kdegree.attempts`; histograms `sim.fib.size`. See DESIGN.md
//! §8 for the full registry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod event;
pub mod json;
mod metrics;
mod prom;
pub mod report;
mod span;
mod trace;

pub use event::{event_records, set_verbosity, verbosity, EventRecord, Level};
pub use metrics::{
    counter_add, gauge_set, histogram_register, observe, observe_all, HistogramSummary,
};
pub use report::Report;
pub use span::{capture, record_span, span, FinishedSpan, Span};
pub use trace::{release_trace, retain_trace, trace_known, trace_spans, SpanContext, TraceId};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Turns global collection (spans, metrics, events retention) on or off.
/// Off by default; verbosity-gated stderr printing works either way.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether global collection is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Microseconds since the process-wide observation epoch (first use).
pub(crate) fn epoch_micros() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_micros() as u64
}

/// Microseconds since the process-wide observation epoch — the timescale
/// of [`FinishedSpan::start_us`]. Public so callers can timestamp
/// synthetic spans ([`record_span`]) consistently with RAII ones.
pub fn now_us() -> u64 {
    epoch_micros()
}

/// Snapshots everything collected so far into a [`Report`].
pub fn report() -> Report {
    Report {
        spans: span::snapshot().into_iter().map(Into::into).collect(),
        dropped_spans: span::dropped(),
        counters: metrics::counters_snapshot(),
        gauges: metrics::gauges_snapshot(),
        histograms: metrics::histograms_snapshot(),
        events: event::event_records(),
    }
}

/// Clears all collected spans, metrics, and events (verbosity and the
/// enabled switch are untouched). Intended for tests.
pub fn reset() {
    span::clear();
    trace::clear();
    metrics::clear();
    event::clear();
}

/// Emits a leveled event: prints to stderr when `level` passes the global
/// verbosity, and retains it for the report when collection is enabled.
/// Prefer the [`error!`]/[`warn!`]/[`info!`]/[`debug!`] macros, which skip
/// message formatting entirely when nothing would consume it.
pub fn emit(level: Level, target: &'static str, message: String) {
    event::emit(level, target, message);
}

/// Whether an event at `level` would be printed to stderr.
pub fn level_enabled(level: Level) -> bool {
    level <= verbosity()
}

/// Emits an error-level event (always printed to stderr).
#[macro_export]
macro_rules! error {
    ($target:expr, $($arg:tt)*) => {
        if $crate::level_enabled($crate::Level::Error) || $crate::enabled() {
            $crate::emit($crate::Level::Error, $target, format!($($arg)*));
        }
    };
}

/// Emits a warning-level event.
#[macro_export]
macro_rules! warn {
    ($target:expr, $($arg:tt)*) => {
        if $crate::level_enabled($crate::Level::Warn) || $crate::enabled() {
            $crate::emit($crate::Level::Warn, $target, format!($($arg)*));
        }
    };
}

/// Emits an info-level event (shown with `-v`).
#[macro_export]
macro_rules! info {
    ($target:expr, $($arg:tt)*) => {
        if $crate::level_enabled($crate::Level::Info) || $crate::enabled() {
            $crate::emit($crate::Level::Info, $target, format!($($arg)*));
        }
    };
}

/// Emits a debug-level event (shown with `-vv`).
#[macro_export]
macro_rules! debug {
    ($target:expr, $($arg:tt)*) => {
        if $crate::level_enabled($crate::Level::Debug) || $crate::enabled() {
            $crate::emit($crate::Level::Debug, $target, format!($($arg)*));
        }
    };
}
