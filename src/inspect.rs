//! Machine-readable inspection of every container the workspace
//! writes: `EBLC` streams, `EBCS` chunked stores (unsharded and
//! sharded), and `EBMS` mutable store files (generation history plus
//! the current generation's store document).
//!
//! [`inspect_json`] builds a [`serde::Value`] document that
//! `serde_json` renders to text — the backing for `eblcio inspect
//! --json`, and usable directly by tooling that wants structured
//! answers instead of scraping the human tables.

use eblcio_codec::header;
use eblcio_data::{dispatch_dtype, Element};
use eblcio_obs::{MetricValue, MetricsRegistry};
use eblcio_store::ChunkedStore;
use serde::Value;

/// The container kinds `eblcio inspect` understands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Container {
    /// A single compressed stream.
    Eblc,
    /// An immutable chunked store.
    Ebcs,
    /// A mutable (generational) store file.
    Ebms,
}

/// Routes a stream by its four magic bytes — the one sniff behind both
/// the text and the `--json` mode. Anything unrecognised is handed to
/// the `EBLC` parser, whose bad-magic error names the problem.
pub fn sniff(stream: &[u8]) -> Container {
    match stream.get(..4) {
        Some(m) if m == eblcio_store::manifest::MAGIC => Container::Ebcs,
        Some(m) if m == eblcio_store::mutable::MUTABLE_MAGIC => Container::Ebms,
        _ => Container::Eblc,
    }
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn usize_seq(v: &[usize]) -> Value {
    Value::Seq(v.iter().map(|&d| Value::U64(d as u64)).collect())
}

/// `(name, bytes per sample)` of the element type a dtype tag names,
/// or the error naming a tag no element type has.
pub fn dtype_info(tag: u8) -> Result<(&'static str, usize), String> {
    dispatch_dtype!(E = tag => (E::NAME, E::BYTES)).ok_or_else(|| format!("unknown dtype tag {tag}"))
}

fn dtype_name(tag: u8) -> Value {
    Value::Str(dtype_info(tag).map_or("unknown", |d| d.0).to_string())
}

/// Inspects any workspace container, returning a JSON-ready document.
///
/// Every document carries `container` (`"EBLC"`, `"EBCS"`, or
/// `"EBMS"`), `version`, `dtype`, `shape`, `abs_bound`, and
/// `stream_bytes`; store documents add the grid, chain table, per-chunk
/// rows, and — when sharded — the shard table. Mutable store files
/// report the generation history, reclaimable bytes, and the current
/// generation's full store document under `current`.
pub fn inspect_json(stream: &[u8]) -> Result<Value, String> {
    let mut doc = match sniff(stream) {
        Container::Ebcs => store_json(stream),
        Container::Ebms => mutable_json(stream),
        Container::Eblc => stream_json(stream),
    }?;
    // With telemetry on (`--metrics` / `EBLCIO_METRICS=1`), the
    // document additionally carries a snapshot of the process-wide
    // metrics registry, so `inspect --json | jq .metrics` works as a
    // scrape endpoint for one-shot tooling.
    if eblcio_obs::enabled() {
        if let Value::Map(entries) = &mut doc {
            entries.push(("metrics".to_string(), metrics_json(eblcio_obs::global())));
        }
    }
    Ok(doc)
}

/// Renders a [`MetricsRegistry`] snapshot as a JSON-ready map: counters
/// as integers, gauges as floats, histograms as
/// `{count, sum, p50, p90, p99, max}` objects.
pub fn metrics_json(registry: &MetricsRegistry) -> Value {
    Value::Map(
        registry
            .snapshot()
            .into_iter()
            .map(|m| {
                let value = match m.value {
                    MetricValue::Counter(v) => Value::U64(v),
                    MetricValue::Gauge(v) => Value::F64(v),
                    MetricValue::Histogram(h) => map(vec![
                        ("count", Value::U64(h.count)),
                        ("sum", Value::U64(h.sum)),
                        ("p50", Value::U64(h.value_at_quantile(0.5))),
                        ("p90", Value::U64(h.value_at_quantile(0.9))),
                        ("p99", Value::U64(h.value_at_quantile(0.99))),
                        ("max", Value::U64(h.max())),
                    ]),
                };
                (m.name, value)
            })
            .collect(),
    )
}

fn stream_json(stream: &[u8]) -> Result<Value, String> {
    let (h, payload) = header::read_stream(stream).map_err(|e| e.to_string())?;
    let raw = h.shape.len() * dtype_info(h.dtype).map_or(0, |d| d.1);
    Ok(map(vec![
        ("container", Value::Str("EBLC".into())),
        ("version", Value::U64(u64::from(stream[4]))),
        ("chain", Value::Str(h.chain.label())),
        ("dtype", dtype_name(h.dtype)),
        ("shape", usize_seq(h.shape.dims())),
        ("abs_bound", Value::F64(h.abs_bound)),
        ("payload_bytes", Value::U64(payload.len() as u64)),
        ("stream_bytes", Value::U64(stream.len() as u64)),
        ("ratio_vs_raw", Value::F64(raw as f64 / stream.len() as f64)),
    ]))
}

fn store_json(stream: &[u8]) -> Result<Value, String> {
    let store = ChunkedStore::open(stream).map_err(|e| e.to_string())?;
    Ok(store_doc(&store, stream[4], stream.len() as u64))
}

/// The generation history + current-generation document of an `EBMS`
/// mutable store file.
fn mutable_json(stream: &[u8]) -> Result<Value, String> {
    // open_arc: one copy of the file image, not two.
    let store = eblcio_store::MutableStore::open_arc(std::sync::Arc::from(stream))
        .map_err(|e| e.to_string())?;
    let history = store.history().map_err(|e| e.to_string())?;
    let generations: Vec<Value> = history
        .iter()
        .map(|g| {
            map(vec![
                ("generation", Value::U64(g.generation)),
                ("parent", Value::U64(g.parent)),
                ("manifest_bytes", Value::U64(g.manifest_len)),
                ("chunks_written", Value::U64(g.chunks_written as u64)),
                ("live_bytes", Value::U64(g.live_bytes)),
            ])
        })
        .collect();
    let current = store.current().map_err(|e| e.to_string())?;
    Ok(map(vec![
        ("container", Value::Str("EBMS".into())),
        ("version", Value::U64(u64::from(stream[4]))),
        ("generation", Value::U64(store.generation())),
        ("file_bytes", Value::U64(stream.len() as u64)),
        (
            "reclaimable_bytes",
            Value::U64(store.reclaimable_bytes().map_err(|e| e.to_string())?),
        ),
        ("generations", Value::Seq(generations)),
        (
            "current",
            store_doc(&current, eblcio_store::manifest::VERSION_V4, stream.len() as u64),
        ),
    ]))
}

fn store_doc(store: &ChunkedStore, version: u8, stream_bytes: u64) -> Value {
    let raw = store.shape().len() * dtype_info(store.dtype()).map_or(0, |d| d.1);
    let chains = Value::Seq(
        store
            .chains()
            .iter()
            .map(|c| Value::Str(c.label()))
            .collect(),
    );
    // Sizes come from the resolved manifest index — inspection is a
    // metadata listing and must not read (or CRC) any payload bytes.
    let chunk_lens = store.chunk_lens();
    let chunks: Vec<Value> = (0..store.n_chunks())
        .map(|i| {
            let region = store.grid().chunk_region(i);
            let mut row = vec![
                ("index", Value::U64(i as u64)),
                ("origin", usize_seq(region.origin())),
                ("extent", usize_seq(region.extent())),
                ("bytes", Value::U64(chunk_lens[i])),
                ("chain", Value::Str(store.chunk_chain(i).label())),
            ];
            if let Some(table) = store.sharding() {
                let slot = table.chunk_slots[i];
                row.push(("shard", Value::U64(u64::from(slot.shard))));
                row.push(("slot", Value::U64(u64::from(slot.slot))));
            }
            if store.generation() > 0 {
                row.push(("born_gen", Value::U64(store.chunk_born_gen(i))));
            }
            map(row)
        })
        .collect();
    let mut doc = vec![
        ("container", Value::Str("EBCS".into())),
        ("version", Value::U64(u64::from(version))),
        ("dtype", dtype_name(store.dtype())),
        ("shape", usize_seq(store.shape().dims())),
        ("chunk_shape", usize_seq(store.chunk_shape().dims())),
        ("grid", usize_seq(store.grid().counts())),
        ("n_chunks", Value::U64(store.n_chunks() as u64)),
        ("abs_bound", Value::F64(store.abs_bound())),
        ("chains", chains),
        ("manifest_bytes", Value::U64(store.manifest_len() as u64)),
        ("stream_bytes", Value::U64(stream_bytes)),
        ("ratio_vs_raw", Value::F64(raw as f64 / stream_bytes as f64)),
    ];
    if store.generation() > 0 {
        doc.push(("generation", Value::U64(store.generation())));
    }
    if let Some(table) = store.sharding() {
        doc.push((
            "sharding",
            map(vec![
                ("n_shards", Value::U64(table.n_shards() as u64)),
                (
                    "shard_bytes",
                    Value::Seq(table.shard_lens.iter().map(|&l| Value::U64(l)).collect()),
                ),
                (
                    "index_bytes",
                    Value::Seq(table.index_lens.iter().map(|&l| Value::U64(l)).collect()),
                ),
            ]),
        ));
    }
    doc.push(("chunks", Value::Seq(chunks)));
    map(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_codec::{compress, CompressorId, ErrorBound};
    use eblcio_data::{NdArray, Shape};

    fn data() -> NdArray<f32> {
        NdArray::from_fn(Shape::d2(32, 32), |i| {
            (i[0] as f32 * 0.2).sin() + i[1] as f32 * 0.01
        })
    }

    /// Serialize → parse → compare: the JSON text must parse back into
    /// the identical value tree for every container kind.
    fn roundtrips(doc: &Value) {
        let text = serde_json::to_string(doc).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(&back, doc);
    }

    #[test]
    fn eblc_stream_document() {
        let codec = CompressorId::Sz3.instance();
        let stream = compress(codec.as_ref(), &data(), ErrorBound::Relative(1e-3)).unwrap();
        let doc = inspect_json(&stream).unwrap();
        assert_eq!(doc.get("container").unwrap().as_str(), Some("EBLC"));
        // Preset chains label as their paper codec name.
        assert_eq!(doc.get("chain").unwrap().as_str(), Some("SZ3"));
        assert_eq!(doc.get("shape").unwrap().as_seq().unwrap().len(), 2);
        roundtrips(&doc);
    }

    #[test]
    fn ebcs_store_documents_plain_and_sharded() {
        use eblcio_store::ChunkedStore;
        let codec = CompressorId::Szx.instance();
        let plain = ChunkedStore::write(
            codec.as_ref(),
            &data(),
            ErrorBound::Relative(1e-3),
            Shape::d2(16, 16),
            2,
        )
        .unwrap();
        let doc = inspect_json(&plain).unwrap();
        assert_eq!(doc.get("container").unwrap().as_str(), Some("EBCS"));
        assert_eq!(doc.get("version").unwrap().as_f64(), Some(2.0));
        assert!(doc.get("sharding").is_none());
        assert_eq!(doc.get("chunks").unwrap().as_seq().unwrap().len(), 4);
        roundtrips(&doc);

        let sharded = ChunkedStore::write_sharded(
            codec.as_ref(),
            &data(),
            ErrorBound::Relative(1e-3),
            Shape::d2(16, 16),
            2,
            2,
        )
        .unwrap();
        let doc = inspect_json(&sharded).unwrap();
        assert_eq!(doc.get("version").unwrap().as_f64(), Some(3.0));
        let sharding = doc.get("sharding").unwrap();
        assert_eq!(sharding.get("n_shards").unwrap().as_f64(), Some(2.0));
        let first = &doc.get("chunks").unwrap().as_seq().unwrap()[0];
        assert_eq!(first.get("shard").unwrap().as_f64(), Some(0.0));
        roundtrips(&doc);
    }

    #[test]
    fn ebms_mutable_store_document() {
        use eblcio_store::{MutableStore, Region};
        let codec = CompressorId::Szx.instance();
        let mut store = MutableStore::create(
            codec.as_ref(),
            &data(),
            ErrorBound::Relative(1e-3),
            Shape::d2(16, 16),
            2,
        )
        .unwrap();
        let patch = NdArray::<f32>::from_fn(Shape::d2(8, 8), |_| 0.5);
        store
            .update_region(&Region::new(&[0, 0], &[8, 8]), &patch, 2)
            .unwrap();

        let doc = inspect_json(store.as_bytes()).unwrap();
        assert_eq!(doc.get("container").unwrap().as_str(), Some("EBMS"));
        assert_eq!(doc.get("generation").unwrap().as_f64(), Some(2.0));
        assert!(doc.get("reclaimable_bytes").unwrap().as_f64().unwrap() > 0.0);
        let gens = doc.get("generations").unwrap().as_seq().unwrap();
        assert_eq!(gens.len(), 2);
        assert_eq!(gens[0].get("generation").unwrap().as_f64(), Some(2.0));
        assert_eq!(gens[0].get("chunks_written").unwrap().as_f64(), Some(1.0));
        let current = doc.get("current").unwrap();
        assert_eq!(current.get("container").unwrap().as_str(), Some("EBCS"));
        assert_eq!(current.get("version").unwrap().as_f64(), Some(4.0));
        let first = &current.get("chunks").unwrap().as_seq().unwrap()[0];
        assert_eq!(first.get("born_gen").unwrap().as_f64(), Some(2.0));
        roundtrips(&doc);
    }

    #[test]
    fn metrics_block_appears_when_enabled_and_roundtrips() {
        // Put something recognisable in the process registry, then
        // flip telemetry on for the duration of the inspection.
        eblcio_obs::global()
            .counter("eblcio_test_inspect_probe_total")
            .add(3);
        eblcio_obs::global()
            .histogram("eblcio_test_inspect_probe_ns")
            .record(1234);
        eblcio_obs::set_enabled(true);
        let codec = CompressorId::Sz3.instance();
        let stream = compress(codec.as_ref(), &data(), ErrorBound::Relative(1e-3)).unwrap();
        let doc = inspect_json(&stream).unwrap();
        let metrics = doc.get("metrics").expect("metrics block when enabled");
        assert_eq!(
            metrics
                .get("eblcio_test_inspect_probe_total")
                .unwrap()
                .as_f64(),
            Some(3.0)
        );
        let probe = metrics.get("eblcio_test_inspect_probe_ns").unwrap();
        assert_eq!(probe.get("count").unwrap().as_f64(), Some(1.0));
        assert!(probe.get("p50").unwrap().as_f64().unwrap() >= 1156.0);
        // The vendored serde_json path must round-trip the enriched
        // document exactly, same as every other container document.
        roundtrips(&doc);
    }

    #[test]
    fn garbage_is_an_error_not_a_panic() {
        assert!(inspect_json(b"not a container at all").is_err());
        assert!(inspect_json(&[]).is_err());
    }
}
