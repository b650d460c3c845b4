//! [`MetricsRegistry`]: named handles to lock-cheap atomic metrics.
//!
//! The registry is a name → handle map behind a `parking_lot::RwLock`
//! that is touched only at registration and export time. Instrumented
//! code resolves its handles **once** at construction (an `Arc` clone
//! per metric) and from then on the hot path pays exactly one relaxed
//! atomic op per event — no map lookup, no lock, no allocation.
//!
//! Naming follows `eblcio_<layer>_<name>_<unit>` (see the README's
//! Observability section): `eblcio_serve_request_ns`,
//! `eblcio_storage_get_bytes`, `eblcio_codec_sz3_encode_ns`. Counters
//! end in `_total`, histograms in their sample unit.

use crate::hist::{Histogram, HistogramSnapshot};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing `u64` (resettable for test harnesses and
/// per-phase accounting).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter (registered or free-standing).
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Sets the value back to zero.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An `f64` gauge/accumulator stored as bits in an `AtomicU64` —
/// lock-free float accumulation for simulated seconds and dollar bills.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Self(AtomicU64::new(0.0f64.to_bits()))
    }

    /// Replaces the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `v` via a compare-exchange loop (contention on a gauge is
    /// registration-rare, so the loop settles in one or two rounds).
    #[inline]
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Sets the value back to zero.
    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// One registered metric handle.
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
}

/// A point-in-time value of one metric (see
/// [`MetricsRegistry::snapshot`]).
#[derive(Clone, Debug)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Full histogram snapshot.
    Histogram(HistogramSnapshot),
}

/// A named snapshot entry.
#[derive(Clone, Debug)]
pub struct MetricSnapshot {
    /// Registered metric name.
    pub name: String,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// The name → handle map, documented in this file's module comment.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    entries: RwLock<Vec<(String, Metric)>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lookup(&self, name: &str) -> Option<Metric> {
        self.entries
            .read()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, m)| m.clone())
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        if let Some(m) = self.lookup(name) {
            return m;
        }
        let mut entries = self.entries.write();
        // Re-check under the write lock: another thread may have
        // registered the name between our read and write.
        if let Some((_, m)) = entries.iter().find(|(n, _)| n == name) {
            return m.clone();
        }
        let m = make();
        entries.push((name.to_owned(), m.clone()));
        m
    }

    /// The counter registered under `name`, created on first use. If
    /// the name is already taken by a different metric kind the caller
    /// gets a fresh free-standing counter (never a panic; the name
    /// collision is a bug the exposition makes visible by omission).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            _ => Arc::new(Counter::new()),
        }
    }

    /// The gauge registered under `name`, created on first use (same
    /// collision policy as [`MetricsRegistry::counter`]).
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            _ => Arc::new(Gauge::new()),
        }
    }

    /// The histogram registered under `name`, created on first use
    /// (same collision policy as [`MetricsRegistry::counter`]).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            _ => Arc::new(Histogram::new()),
        }
    }

    /// Registers an existing counter handle under `name` — the way a
    /// component that owns its counters (e.g. the decoded-chunk cache)
    /// exposes them through a registry it does not own. First
    /// registration wins; the returned handle is the registered one.
    pub fn register_counter(&self, name: &str, handle: Arc<Counter>) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(handle.clone())) {
            Metric::Counter(c) => c,
            _ => handle,
        }
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.read().len()
    }

    /// Whether nothing is registered yet.
    pub fn is_empty(&self) -> bool {
        self.entries.read().is_empty()
    }

    /// A point-in-time copy of every registered metric, sorted by name
    /// — the single input every exporter renders from. Each metric is
    /// read exactly once, in name order, so two snapshots bracket each
    /// other deterministically.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let mut entries: Vec<(String, Metric)> = self.entries.read().clone();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
            .into_iter()
            .map(|(name, m)| MetricSnapshot {
                name,
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect()
    }

    /// Resets every registered metric to zero. Meant for bench phases
    /// and tests; concurrent recorders keep recording (their updates
    /// land before or after the reset per-metric, never half-applied
    /// within one atomic).
    pub fn reset_all(&self) {
        for (_, m) in self.entries.read().iter() {
            match m {
                Metric::Counter(c) => c.reset(),
                Metric::Gauge(g) => g.reset(),
                Metric::Histogram(h) => h.reset(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_shared_by_name() {
        let r = MetricsRegistry::new();
        let a = r.counter("eblcio_test_events_total");
        let b = r.counter("eblcio_test_events_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn kind_collision_yields_detached_handle() {
        let r = MetricsRegistry::new();
        let _h = r.histogram("eblcio_test_mixed");
        let c = r.counter("eblcio_test_mixed");
        c.inc();
        assert_eq!(c.get(), 1);
        assert_eq!(r.len(), 1, "collision must not shadow the original");
    }

    #[test]
    fn gauge_accumulates_floats() {
        let g = Gauge::new();
        g.add(0.25);
        g.add(1.5);
        assert!((g.get() - 1.75).abs() < 1e-12);
        g.set(3.0);
        assert_eq!(g.get(), 3.0);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.counter("eblcio_b_total").add(7);
        r.gauge("eblcio_a_ratio").set(0.5);
        r.histogram("eblcio_c_ns").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["eblcio_a_ratio", "eblcio_b_total", "eblcio_c_ns"]);
        assert!(matches!(snap[1].value, MetricValue::Counter(7)));
    }

    #[test]
    fn register_existing_handle() {
        let r = MetricsRegistry::new();
        let mine = Arc::new(Counter::new());
        mine.add(5);
        let reg = r.register_counter("eblcio_test_shared_total", mine.clone());
        assert_eq!(reg.get(), 5);
        mine.inc();
        match &r.snapshot()[0].value {
            MetricValue::Counter(v) => assert_eq!(*v, 6),
            other => panic!("wrong kind: {other:?}"),
        }
    }
}
