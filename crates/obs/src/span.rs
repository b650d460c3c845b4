//! Spans, per-request ids, and the shared timing helpers
//! ([`Stopwatch`], [`Timed`]) that replace the five hand-rolled
//! `Instant::now()` / atomic-nanos idioms scattered across the stack.
//!
//! A span is a scope guard: [`crate::span`] starts the clock, and the
//! guard's drop records one event — interned name, per-request id,
//! start offset, duration — into the global
//! [flight recorder](crate::recorder). Spans carry causality through
//! layers with a **thread-ambient request id**: a root span
//! ([`crate::root_span`]) allocates a fresh id and installs it for its
//! scope, and every child span opened on the same thread inherits it,
//! so a flight-recorder dump groups `serve.read_region` with the
//! `store.decode` and `storage.get` work it caused. (Work handed to a
//! pool thread does not inherit the ambient id automatically — the
//! fan-out sites pass it explicitly via [`SpanGuard`]'s `*_on`
//! constructors.)
//!
//! Everything is allocation-free after the name is interned once:
//! hot paths pre-intern their [`NameId`]s at construction and open
//! spans by id.

use crate::recorder;
use parking_lot::RwLock;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
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

/// A live span: started at construction, recorded to the flight
/// recorder on drop. Obtain via [`crate::span`]/[`crate::root_span`]
/// (by name) or [`SpanGuard::enter`]/[`SpanGuard::enter_root`]/
/// [`SpanGuard::enter_on`] (by pre-interned id, allocation-free).
#[derive(Debug)]
pub struct SpanGuard {
    name: NameId,
    request: u64,
    start: Instant,
    /// `Some(previous)` when this span installed the ambient request id
    /// and must restore it (root spans only).
    restore: Option<u64>,
}

impl SpanGuard {
    /// Opens a child span under the thread's ambient request id.
    pub fn enter(name: NameId) -> Self {
        Self {
            name,
            request: current_request_id(),
            start: Instant::now(),
            restore: None,
        }
    }

    /// Opens a root span: allocates a fresh request id and makes it
    /// ambient on this thread until the guard drops.
    pub fn enter_root(name: NameId) -> Self {
        Self::enter_root_at(name, Instant::now())
    }

    /// [`SpanGuard::enter`] anchored to an already-taken `start` — the
    /// hot-path variant for call sites that just started a
    /// [`Stopwatch`], sparing the span its own clock read.
    pub fn enter_at(name: NameId, start: Instant) -> Self {
        Self {
            name,
            request: current_request_id(),
            start,
            restore: None,
        }
    }

    /// [`SpanGuard::enter_root`] anchored to an already-taken `start`.
    pub fn enter_root_at(name: NameId, start: Instant) -> Self {
        let request = next_request_id();
        let prev = AMBIENT_REQUEST.with(|c| c.replace(request));
        Self {
            name,
            request,
            start,
            restore: Some(prev),
        }
    }

    /// Opens a child span under an explicit request id — for work
    /// fanned out to pool threads that cannot inherit the ambient id.
    pub fn enter_on(name: NameId, request: u64) -> Self {
        Self {
            name,
            request,
            start: Instant::now(),
            restore: None,
        }
    }

    /// The request id this span records under.
    pub fn request_id(&self) -> u64 {
        self.request
    }

    /// Nanoseconds since the span opened.
    pub fn elapsed_ns(&self) -> u64 {
        saturating_ns(self.start.elapsed())
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let dur = saturating_ns(self.start.elapsed());
        recorder::global().record(self.name, self.request, self.start, dur);
        if let Some(prev) = self.restore {
            AMBIENT_REQUEST.with(|c| c.set(prev));
        }
    }
}

#[inline]
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The one way this workspace measures elapsed time: start it, read
/// nanoseconds. Replaces the per-call-site
/// `let t0 = Instant::now(); ... t0.elapsed().as_nanos() as u64`
/// idiom (clamped at `u64::MAX` instead of silently truncated).
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts the clock.
    #[inline]
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// The instant the clock started — lets a span share this
    /// stopwatch's clock read ([`SpanGuard::enter_at`]).
    #[inline]
    pub fn started_at(&self) -> Instant {
        self.0
    }

    /// Nanoseconds since start.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        saturating_ns(self.0.elapsed())
    }

    /// The underlying [`Duration`].
    #[inline]
    pub fn elapsed(&self) -> Duration {
        self.0.elapsed()
    }
}

/// A scope guard that records its lifetime, in nanoseconds, into a
/// [`Histogram`](crate::Histogram) on drop — the zero-boilerplate way
/// to time a block:
///
/// ```
/// let h = std::sync::Arc::new(eblcio_obs::Histogram::new());
/// {
///     let _t = eblcio_obs::Timed::new(&h);
///     std::hint::black_box(40 + 2);
/// }
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug)]
pub struct Timed<'a> {
    hist: &'a crate::Histogram,
    sw: Stopwatch,
}

impl<'a> Timed<'a> {
    /// Starts timing into `hist`.
    #[inline]
    pub fn new(hist: &'a crate::Histogram) -> Self {
        Self { hist, sw: Stopwatch::start() }
    }
}

impl Drop for Timed<'_> {
    fn drop(&mut self) {
        self.hist.record(self.sw.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(current_request_id(), 0);
        let outer = SpanGuard::enter_root(intern("test.outer"));
        let outer_id = outer.request_id();
        assert!(outer_id > 0);
        assert_eq!(current_request_id(), outer_id);
        {
            let inner = SpanGuard::enter(intern("test.inner"));
            assert_eq!(inner.request_id(), outer_id);
        }
        assert_eq!(current_request_id(), outer_id);
        drop(outer);
        assert_eq!(current_request_id(), 0);
    }

    #[test]
    fn stopwatch_and_timed_record_monotonic_time() {
        let sw = Stopwatch::start();
        let h = crate::Histogram::new();
        {
            let _t = Timed::new(&h);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(sw.elapsed_ns() >= 1_000_000);
        assert_eq!(h.count(), 1);
        assert!(h.snapshot().max() >= 1_000_000);
    }
}
