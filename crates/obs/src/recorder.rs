//! [`FlightRecorder`]: a fixed-capacity, lock-free ring of the most
//! recent span events, dumpable on demand for postmortems.
//!
//! Writers claim a slot with one `fetch_add` on the head and publish
//! the event through a seqlock-style stamp: the slot's sequence word
//! goes **odd** while the fields are being stored and **even** (equal
//! to the claiming ticket) when stable. Readers sample the sequence
//! before and after copying the fields and keep the event only when
//! both samples are the same even stamp — a torn slot (a writer lapped
//! the reader) is simply skipped. No locks, no allocation on the
//! record path, and no `unsafe`: every field is its own atomic.
//!
//! The ring keeps the last [`FlightRecorder::capacity`] events;
//! recording the `n+1`-th overwrites the oldest. That bounded-memory
//! "what just happened" property is the whole point — leave it running
//! forever, dump it after the incident.

use crate::span::{name_of, NameId};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Events kept by the global recorder.
pub const DEFAULT_CAPACITY: usize = 1024;

struct Slot {
    /// Seqlock stamp: `2·ticket + 1` while writing, `2·ticket + 2`
    /// once the fields below are stable, 0 = never written.
    seq: AtomicU64,
    name: AtomicU32,
    request: AtomicU64,
    start_ns: AtomicU64,
    duration_ns: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            name: AtomicU32::new(0),
            request: AtomicU64::new(0),
            start_ns: AtomicU64::new(0),
            duration_ns: AtomicU64::new(0),
        }
    }
}

/// One recorded span occurrence, resolved to its name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Interned span name, resolved.
    pub span: String,
    /// Request id the span ran under (0 = outside any root span).
    pub request: u64,
    /// Span start, nanoseconds since the recorder's epoch (its
    /// construction).
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub duration_ns: u64,
}

/// The ring buffer, documented in this file's module comment.
pub struct FlightRecorder {
    pub(crate) epoch: Instant,
    head: AtomicU64,
    slots: Box<[Slot]>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` events (rounded up to a
    /// power of two, minimum 2, so slot selection is a mask).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        Self {
            epoch: Instant::now(),
            head: AtomicU64::new(0),
            slots: (0..cap).map(|_| Slot::empty()).collect(),
        }
    }

    /// Number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (≥ retained).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Records one event. Lock-free and allocation-free. When a writer
    /// laps the ring so fast that another writer is still mid-store on
    /// the claimed slot, the newcomer drops its event instead of
    /// interleaving with the owner — readers therefore only ever see
    /// whole events, and a recorder under overrun degrades by losing
    /// events, never by corrupting them.
    pub fn record(&self, name: NameId, request: u64, start: Instant, duration_ns: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket as usize) & (self.slots.len() - 1)];
        let prev = slot.seq.load(Ordering::Relaxed);
        if prev % 2 == 1 {
            return; // owner mid-write: we lapped a full ring
        }
        if slot
            .seq
            .compare_exchange(prev, 2 * ticket + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return; // lost the claim race to another lapping writer
        }
        let start_ns = u64::try_from(
            start
                .saturating_duration_since(self.epoch)
                .as_nanos(),
        )
        .unwrap_or(u64::MAX);
        slot.name.store(name.0, Ordering::Relaxed);
        slot.request.store(request, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.duration_ns.store(duration_ns, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Copies out every stable retained event, oldest first. Slots
    /// being overwritten while we read (torn stamps) are skipped.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut out: Vec<(u64, SpanEvent)> = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let name = NameId(slot.name.load(Ordering::Relaxed));
            let request = slot.request.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed);
            let duration_ns = slot.duration_ns.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != before {
                continue;
            }
            out.push((
                before,
                SpanEvent { span: name_of(name), request, start_ns, duration_ns },
            ));
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out.into_iter().map(|(_, e)| e).collect()
    }
}

/// The process-wide recorder every span ([`crate::Phase`],
/// [`crate::SpanGuard`]) reports into, sized [`DEFAULT_CAPACITY`].
pub fn global() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::with_capacity(DEFAULT_CAPACITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::intern;

    #[test]
    fn records_and_replays_in_order() {
        let r = FlightRecorder::with_capacity(8);
        let t0 = Instant::now();
        let a = intern("rec.a");
        let b = intern("rec.b");
        r.record(a, 1, t0, 100);
        r.record(b, 1, t0, 200);
        let ev = r.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].span, "rec.a");
        assert_eq!(ev[1].span, "rec.b");
        assert_eq!(ev[1].duration_ns, 200);
    }

    #[test]
    fn ring_keeps_only_the_most_recent() {
        let r = FlightRecorder::with_capacity(4);
        let t0 = Instant::now();
        let n = intern("rec.wrap");
        for i in 0..10u64 {
            r.record(n, i, t0, i);
        }
        let ev = r.events();
        assert_eq!(ev.len(), 4);
        let requests: Vec<u64> = ev.iter().map(|e| e.request).collect();
        assert_eq!(requests, [6, 7, 8, 9]);
        assert_eq!(r.recorded(), 10);
    }

    #[test]
    fn concurrent_recording_never_tears() {
        let r = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        let n = intern("rec.mt");
        let t0 = Instant::now();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    r.record(n, t, t0, t * 10_000 + i);
                }
            }));
        }
        let mut seen_any = false;
        for _ in 0..50 {
            for e in r.events() {
                seen_any = true;
                // A torn event would pair a request with another
                // thread's duration; stable events always agree.
                assert_eq!(e.duration_ns / 10_000, e.request, "{e:?}");
            }
        }
        for h in handles {
            h.join().ok();
        }
        // The concurrent passes above can race an empty ring if the
        // writer threads are slow to schedule; after join the retained
        // slots are all stable, so this pass always observes events.
        for e in r.events() {
            seen_any = true;
            assert_eq!(e.duration_ns / 10_000, e.request, "{e:?}");
        }
        assert!(seen_any);
        assert_eq!(r.recorded(), 4000);
    }
}
