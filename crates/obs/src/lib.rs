//! `eblcio_obs` — the unified telemetry substrate for the eblcio
//! stack: one metrics registry, log-linear latency/size histograms,
//! spans with per-request causality, and a lock-free flight recorder,
//! all dependency-free (std + the vendored `parking_lot` stub) and
//! allocation-free on every hot path.
//!
//! Before this crate each layer kept its own ad-hoc totals
//! (`ReaderStats`, `ObjectStoreStats`, …) with no distributions, no
//! cross-layer causality, and no machine-readable export. Now:
//!
//! * **Metrics** ([`MetricsRegistry`], [`Counter`], [`Gauge`],
//!   [`Histogram`]) — handles are resolved once at construction and
//!   the hot path pays one relaxed atomic op per event. Histograms are
//!   HDR-style log-linear buckets: mergeable across threads, ≤ 6.25%
//!   relative bucket error on p50/p90/p99, exact min/max.
//! * **Phases** ([`Phase`]) — the one way to time a block: a latency
//!   histogram plus, where the flight recorder should show the block, a
//!   span name. A call is timed from one clock read at start to one at
//!   the end, and its span event and histogram sample share both. Spans
//!   carry a per-request id thread-ambiently from serve through
//!   store/codec down to storage ([`Phase::start_root`] opens a
//!   request, [`Phase::start`] nests under it, [`Phase::start_on`]
//!   names it explicitly on a pool thread). A span with no histogram is
//!   [`span_id`] ([`SpanGuard`]).
//! * **Flight recorder** ([`FlightRecorder`]) — a fixed-capacity
//!   lock-free ring of recent span events, dumpable on demand.
//! * **Exporters** ([`prometheus`], [`events_jsonl`], [`report`]) —
//!   all render to `String`; persistence goes through a `Storage`
//!   backend, never through this crate.
//!
//! Span/recorder capture is **off** unless [`enabled`] says otherwise
//! (env `EBLCIO_METRICS=1` or a programmatic [`set_enabled`]); metric
//! counters and histograms always record, because the per-layer stats
//! views are built on them. Layer-owned registries (one per
//! `ArrayReader`, one per simulated object store) keep multi-instance
//! accounting honest; cross-cutting singletons (codec stages, store
//! timings, metered storage by default) report into [`global`].
//!
//! Metric names follow `eblcio_<layer>_<name>_<unit>` — see the
//! README's Observability section for the full scheme.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

mod export;
mod hist;
mod metrics;
mod recorder;
mod span;

pub use export::{events_jsonl, prometheus, report};
pub use hist::{bucket_hi, bucket_index, bucket_lo, Histogram, HistogramSnapshot, BUCKETS, SUBBUCKETS};
pub use metrics::{Counter, Gauge, Metric, MetricSnapshot, MetricValue, MetricsRegistry};
pub use recorder::{FlightRecorder, SpanEvent, DEFAULT_CAPACITY};
pub use span::{current_request_id, intern, name_of, next_request_id, NameId, Phase, PhaseGuard, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// The process-wide registry for cross-cutting metrics (codec stages,
/// store timings, metered storage without an explicit registry).
/// Arc-backed so decorators that hold a shareable registry handle can
/// adopt the global one.
pub fn global() -> &'static std::sync::Arc<MetricsRegistry> {
    static GLOBAL: OnceLock<std::sync::Arc<MetricsRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| std::sync::Arc::new(MetricsRegistry::new()))
}

/// The process-wide flight recorder (every span reports here).
pub fn flight_recorder() -> &'static FlightRecorder {
    recorder::global()
}

/// 0 = follow the environment, 1 = forced off, 2 = forced on.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

fn env_enabled() -> bool {
    static FROM_ENV: OnceLock<bool> = OnceLock::new();
    *FROM_ENV.get_or_init(|| {
        std::env::var("EBLCIO_METRICS")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false)
    })
}

/// Whether span/flight-recorder capture (and the CLI/bench telemetry
/// surfaces) are on: `EBLCIO_METRICS=1` in the environment, unless
/// overridden by [`set_enabled`]. Metric counters/histograms record
/// regardless — this flag only gates the optional capture paths.
#[inline]
pub fn enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => true,
        _ => env_enabled(),
    }
}

/// Programmatically forces telemetry capture on or off, overriding the
/// environment — benches use this to compare both sides in one
/// process.
pub fn set_enabled(on: bool) {
    OVERRIDE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Opens a span with no histogram under the thread's ambient request
/// id. Returns `None` (and records nothing, at the cost of one relaxed
/// load) when capture is off — bind the result to a `_guard` either
/// way. A block that also feeds a latency histogram is a [`Phase`].
///
/// ```
/// eblcio_obs::set_enabled(true);
/// let name = eblcio_obs::intern("doc.example");
/// {
///     let _guard = eblcio_obs::span_id(name);
/// }
/// assert!(eblcio_obs::flight_recorder().recorded() >= 1);
/// ```
#[inline]
pub fn span_id(name: NameId) -> Option<SpanGuard> {
    enabled().then(|| SpanGuard::enter(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that switch capture on or off (the switch
    /// is process-wide) and leaves it off afterwards.
    pub(crate) fn capture(on: bool) -> CaptureGuard {
        static LOCK: parking_lot::Mutex<()> = parking_lot::Mutex::new(());
        let held = LOCK.lock();
        set_enabled(on);
        CaptureGuard { _held: held }
    }

    pub(crate) struct CaptureGuard {
        _held: parking_lot::MutexGuard<'static, ()>,
    }

    impl Drop for CaptureGuard {
        fn drop(&mut self) {
            set_enabled(false);
        }
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let phase = Phase::spanned(std::sync::Arc::new(Histogram::new()), "lib.off.root");
        {
            let _off = capture(false);
            let _g = span_id(intern("lib.off"));
            phase.start_root().finish();
            phase.start().finish();
            phase.start_on(9).finish();
        }
        // Other tests share the global recorder, so assert on our own
        // names rather than the global event count.
        assert!(flight_recorder()
            .events()
            .iter()
            .all(|e| !e.span.starts_with("lib.off")));
        assert_eq!(phase.histogram().count(), 3);
        let _on = capture(true);
        let before = flight_recorder().recorded();
        phase.start_root().finish();
        assert!(flight_recorder().recorded() > before);
    }

    #[test]
    fn global_registry_is_shared() {
        let c = global().counter("eblcio_test_lib_total");
        c.inc();
        assert_eq!(global().counter("eblcio_test_lib_total").get(), 1);
    }
}
