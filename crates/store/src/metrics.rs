//! Process-global telemetry handles for the store layer.
//!
//! Stores are value types opened and dropped freely (a reader may hold
//! dozens of generation snapshots at once), so unlike the serve layer —
//! where one long-lived `ArrayReader` owns a private registry — store
//! timings aggregate into the process registry ([`eblcio_obs::global`])
//! under the `eblcio_store_*` names. Handles are resolved once and
//! cached in a `OnceLock`, so the per-call cost on the read path is one
//! relaxed atomic add into a histogram bucket.

use eblcio_obs::{self as obs, Phase};
use std::sync::OnceLock;

pub(crate) struct StoreMetrics {
    /// Wall time of [`crate::ChunkedStore::read_region_with_stats`]
    /// (decode fan-out + scatter), per successful call; span
    /// `store.read_region`.
    pub read_region: Phase,
    /// Wall time of [`crate::MutableStore::apply`] — a generation
    /// publish: append, root flip, re-validate, backend write-through —
    /// per call, failed ones included; span `store.publish`.
    pub publish: Phase,
    /// Wall time of [`crate::MutableStore::compact`] — the whole-file
    /// rewrite down to the live set — per call, failed ones included;
    /// span `store.compact`.
    pub compact: Phase,
}

pub(crate) fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = obs::global();
        StoreMetrics {
            read_region: Phase::spanned(g.histogram("eblcio_store_read_region_ns"), "store.read_region"),
            publish: Phase::spanned(g.histogram("eblcio_store_publish_ns"), "store.publish"),
            compact: Phase::spanned(g.histogram("eblcio_store_compact_ns"), "store.compact"),
        }
    })
}
