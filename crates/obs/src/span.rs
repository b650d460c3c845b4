//! Phases, spans and per-request ids.
//!
//! A **phase** ([`Phase`]) is the one way this workspace times a block:
//! a latency [`Histogram`] plus, where the flight recorder should show
//! the block, a span name. Each site builds its phase once and times
//! every call through it — [`Phase::start`] (a child of the thread's
//! ambient request), [`Phase::start_on`] (an explicit request id, for
//! work fanned out to pool threads, which do not inherit the ambient
//! id) or [`Phase::start_root`] (a fresh request id, ambient on this
//! thread while the guard lives). The guard reads the clock once at
//! start and once at the end, and the span event and the histogram
//! sample share both readings.
//!
//! [`PhaseGuard::finish`] takes the histogram sample and closes the
//! span. A guard dropped without `finish` closes only its span, so a
//! site whose histogram counts successes alone finishes on its success
//! path and lets an early error return drop the guard.
//!
//! A span with no histogram is [`crate::span_id`] ([`SpanGuard`]); its
//! drop records the event. Either way the event — interned name,
//! request id, start offset, duration — goes to the global
//! [flight recorder](crate::recorder), so a dump groups
//! `serve.read_region` with the `serve.decode` and `storage.get` work
//! it caused. With capture off a span costs one relaxed load: no
//! request id is allocated, no thread-local written, nothing recorded.
//!
//! Everything is allocation-free after the name is interned once, at
//! the site's construction.

use crate::{recorder, Histogram};
use parking_lot::RwLock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// An interned span-name handle — a dense index into the global name
/// table, cheap to copy and to store in atomic flight-recorder slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NameId(pub(crate) u32);

fn names() -> &'static RwLock<Vec<String>> {
    static NAMES: OnceLock<RwLock<Vec<String>>> = OnceLock::new();
    NAMES.get_or_init(|| RwLock::new(Vec::new()))
}

/// Interns `name`, returning a stable [`NameId`]. Call once per site
/// (construction time), not per event — the lookup takes a read lock.
pub fn intern(name: &str) -> NameId {
    {
        let table = names().read();
        if let Some(pos) = table.iter().position(|n| n == name) {
            return NameId(pos as u32);
        }
    }
    let mut table = names().write();
    if let Some(pos) = table.iter().position(|n| n == name) {
        return NameId(pos as u32);
    }
    table.push(name.to_owned());
    NameId((table.len() - 1) as u32)
}

/// The name behind an id (empty string for an id from another process
/// or a corrupted slot — never a panic).
pub fn name_of(id: NameId) -> String {
    names()
        .read()
        .get(id.0 as usize)
        .cloned()
        .unwrap_or_default()
}

static NEXT_REQUEST: AtomicU64 = AtomicU64::new(1);

std::thread_local! {
    /// The request id ambient on this thread (0 = outside any root
    /// span).
    static AMBIENT_REQUEST: Cell<u64> = const { Cell::new(0) };
}

/// Allocates a fresh process-unique request id (root spans do this
/// automatically).
pub fn next_request_id() -> u64 {
    NEXT_REQUEST.fetch_add(1, Ordering::Relaxed)
}

/// The request id ambient on the current thread (0 when no root span
/// is open here).
pub fn current_request_id() -> u64 {
    AMBIENT_REQUEST.with(Cell::get)
}

/// What a closing span records and restores.
#[derive(Clone, Copy, Debug)]
struct OpenSpan {
    name: NameId,
    request: u64,
    /// `Some(previous)` when this span installed the ambient request id
    /// and must restore it (root spans only).
    restore: Option<u64>,
}

impl OpenSpan {
    fn close(self, start: Instant, duration_ns: u64) {
        recorder::global().record(self.name, self.request, start, duration_ns);
        if let Some(prev) = self.restore {
            AMBIENT_REQUEST.with(|c| c.set(prev));
        }
    }
}

/// A live span with no histogram: started at construction, recorded to
/// the flight recorder on drop. Obtain via [`crate::span_id`] (which
/// checks [`crate::enabled`]) or [`SpanGuard::enter`].
#[derive(Debug)]
pub struct SpanGuard {
    span: OpenSpan,
    start: Instant,
}

impl SpanGuard {
    /// Opens a child span under the thread's ambient request id.
    pub fn enter(name: NameId) -> Self {
        let span = OpenSpan { name, request: current_request_id(), restore: None };
        Self { span, start: Instant::now() }
    }

    /// The request id this span records under.
    pub fn request_id(&self) -> u64 {
        self.span.request
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.span.close(self.start, saturating_ns(self.start.elapsed()));
    }
}

/// One timed phase: a latency histogram plus, optionally, the span the
/// flight recorder shows for it. Build it once per site (the name is
/// interned here, never per call) and time each call through
/// [`Phase::start`], [`Phase::start_on`] or [`Phase::start_root`]:
///
/// ```
/// use std::sync::Arc;
/// let phase = eblcio_obs::Phase::spanned(Arc::new(eblcio_obs::Histogram::new()), "doc.phase");
/// let t = phase.start();
/// std::hint::black_box(40 + 2);
/// t.finish();
/// assert_eq!(phase.histogram().count(), 1);
/// ```
#[derive(Debug)]
pub struct Phase {
    hist: Arc<Histogram>,
    span: Option<NameId>,
}

impl Phase {
    /// A phase that only feeds `hist`.
    pub fn new(hist: Arc<Histogram>) -> Self {
        Self { hist, span: None }
    }

    /// A phase that feeds `hist` and, with capture on, records a `span`
    /// event per call.
    pub fn spanned(hist: Arc<Histogram>, span: &str) -> Self {
        Self { hist, span: Some(intern(span)) }
    }

    /// The latency histogram (nanoseconds per finished call).
    pub fn histogram(&self) -> &Arc<Histogram> {
        &self.hist
    }

    /// Starts a call under the thread's ambient request id.
    #[inline]
    pub fn start(&self) -> PhaseGuard<'_> {
        self.open(|| (current_request_id(), None))
    }

    /// Starts a call under an explicit request id — for work fanned out
    /// to pool threads that cannot inherit the ambient id.
    #[inline]
    pub fn start_on(&self, request: u64) -> PhaseGuard<'_> {
        self.open(|| (request, None))
    }

    /// Starts a request: with capture on, allocates a fresh request id
    /// and makes it ambient on this thread until the guard ends. With
    /// capture off the request id is 0 and nothing is allocated,
    /// written or recorded.
    #[inline]
    pub fn start_root(&self) -> PhaseGuard<'_> {
        self.open(|| {
            let request = next_request_id();
            (request, Some(AMBIENT_REQUEST.with(|c| c.replace(request))))
        })
    }

    #[inline]
    fn open(&self, request: impl FnOnce() -> (u64, Option<u64>)) -> PhaseGuard<'_> {
        let span = self.span.filter(|_| crate::enabled()).map(|name| {
            let (request, restore) = request();
            OpenSpan { name, request, restore }
        });
        PhaseGuard { hist: &self.hist, span, start: Instant::now() }
    }
}

/// One running call of a [`Phase`]. [`PhaseGuard::finish`] records the
/// histogram sample and the span event from one clock read; dropping
/// the guard unfinished records only the span event.
#[derive(Debug)]
#[must_use = "a phase is timed until its guard is finished or dropped"]
pub struct PhaseGuard<'a> {
    hist: &'a Histogram,
    span: Option<OpenSpan>,
    start: Instant,
}

impl PhaseGuard<'_> {
    /// The request id the call runs under (0 when no span is open).
    pub fn request_id(&self) -> u64 {
        self.span.map_or(0, |s| s.request)
    }

    /// Ends the call: one clock read feeds the histogram sample and the
    /// span event.
    #[inline]
    pub fn finish(mut self) {
        let ns = saturating_ns(self.start.elapsed());
        self.hist.record(ns);
        if let Some(span) = self.span.take() {
            span.close(self.start, ns);
        }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            span.close(self.start, saturating_ns(self.start.elapsed()));
        }
    }
}

#[inline]
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::capture;
    use crate::SpanEvent;

    fn phase(name: &str) -> Phase {
        Phase::spanned(Arc::new(Histogram::new()), name)
    }

    fn events_named(name: &str) -> Vec<SpanEvent> {
        recorder::global().events().into_iter().filter(|e| e.span == name).collect()
    }

    #[test]
    fn interning_is_stable_and_reversible() {
        let a = intern("test.alpha");
        let b = intern("test.beta");
        assert_ne!(a, b);
        assert_eq!(intern("test.alpha"), a);
        assert_eq!(name_of(a), "test.alpha");
        assert_eq!(name_of(NameId(u32::MAX)), "");
    }

    #[test]
    fn root_span_installs_and_restores_request_id() {
        let _on = capture(true);
        assert_eq!(current_request_id(), 0);
        let root = phase("test.outer");
        let outer = root.start_root();
        let outer_id = outer.request_id();
        assert!(outer_id > 0);
        assert_eq!(current_request_id(), outer_id);
        {
            let inner = SpanGuard::enter(intern("test.inner"));
            assert_eq!(inner.request_id(), outer_id);
            assert_eq!(phase("test.child").start().request_id(), outer_id);
        }
        assert_eq!(current_request_id(), outer_id);
        outer.finish();
        assert_eq!(current_request_id(), 0);
        // An unfinished root guard restores the ambient id as well.
        drop(root.start_root());
        assert_eq!(current_request_id(), 0);
    }

    #[test]
    fn phase_records_monotonic_time() {
        let p = Phase::new(Arc::new(Histogram::new()));
        let t = p.start();
        std::thread::sleep(Duration::from_millis(1));
        t.finish();
        assert_eq!(p.histogram().count(), 1);
        assert!(p.histogram().snapshot().max() >= 1_000_000);
        // Dropped unfinished, a call takes no sample.
        drop(p.start());
        assert_eq!(p.histogram().count(), 1);
    }

    #[test]
    fn span_event_and_sample_share_start_and_duration() {
        let _on = capture(true);
        for how in ["start", "start_on", "start_root"] {
            let name = format!("test.shared.{how}");
            let p = phase(&name);
            let t = match how {
                "start" => p.start(),
                "start_on" => p.start_on(77),
                _ => p.start_root(),
            };
            let (request, start) = (t.request_id(), t.start);
            std::thread::sleep(Duration::from_micros(50));
            t.finish();
            let events = events_named(&name);
            assert_eq!(events.len(), 1, "{how}");
            let sample = p.histogram().snapshot();
            assert_eq!(sample.count, 1, "{how}");
            assert_eq!((sample.min(), sample.max()), (events[0].duration_ns, events[0].duration_ns), "{how}");
            let offset = start.saturating_duration_since(recorder::global().epoch);
            assert_eq!(events[0].start_ns, saturating_ns(offset), "{how}");
            assert_eq!(events[0].request, request, "{how}");
        }
        assert_eq!(events_named("test.shared.start_on")[0].request, 77);
        assert!(events_named("test.shared.start_root")[0].request > 0);
        assert_eq!(current_request_id(), 0);
    }

    #[test]
    fn capture_off_root_allocates_no_request_and_records_nothing() {
        let _off = capture(false);
        let p = phase("test.off.root");
        let next = NEXT_REQUEST.load(Ordering::Relaxed);
        let t = p.start_root();
        assert_eq!(t.request_id(), 0);
        assert_eq!(current_request_id(), 0);
        t.finish();
        drop(p.start_root());
        assert_eq!(NEXT_REQUEST.load(Ordering::Relaxed), next);
        assert!(events_named("test.off.root").is_empty());
        assert_eq!(p.histogram().count(), 1);
    }
}
