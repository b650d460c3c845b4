//! Per-layer probes shared by the workloads: the codec rungs (whole
//! chain, array stage, byte stages — each called through its public
//! entry point on the workload's own chunks), single-thread codec
//! rates, and the hardware ceilings measured in the same process.

use crate::harness::{es, Metrics};
use crate::report::CODECS;
use eblcio_codec::header::read_stream;
use eblcio_codec::parallel::pool_for;
use eblcio_codec::stage::{build_byte_stage, decode_array, decode_array_region, encode_array};
use eblcio_codec::{
    compress_view, decompress, decompress_region, ArrayStage, ByteStage, ChainSpec, Compressor,
    CompressorId, ErrorBound, Qoz, Sz2, Sz3, Szx, Zfp,
};
use eblcio_data::generators::Scale;
use eblcio_data::{Dataset, DatasetKind, DatasetSpec, Element, NdArray, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_store::{gather, ChunkGrid, ChunkedStore, Region};
use rayon::prelude::*;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Totals a `MeteredStorage` has recorded into `registry` so far.
/// Writes count `set`, `append` and `write_at` alike: all three hand
/// bytes to the backend.
#[derive(Clone, Copy, Default)]
pub struct StorageTotals {
    pub get_calls: u64,
    pub get_range_calls: u64,
    pub read_bytes: u64,
    pub write_bytes: u64,
    pub get_s: f64,
    pub write_s: f64,
}

impl StorageTotals {
    pub fn read(registry: &MetricsRegistry) -> Self {
        let h = |name: &str| registry.histogram(name);
        let (get, range) = (h("eblcio_storage_get_ns"), h("eblcio_storage_get_range_ns"));
        let writes = [
            "eblcio_storage_set_ns",
            "eblcio_storage_append_ns",
            "eblcio_storage_write_at_ns",
        ]
        .map(h);
        Self {
            get_calls: get.count(),
            get_range_calls: range.count(),
            read_bytes: h("eblcio_storage_read_bytes").sum(),
            write_bytes: h("eblcio_storage_write_bytes").sum(),
            get_s: (get.sum() + range.sum()) as f64 * 1e-9,
            write_s: writes.iter().map(|w| w.sum()).sum::<u64>() as f64 * 1e-9,
        }
    }

    pub fn since(self, earlier: Self) -> Self {
        Self {
            get_calls: self.get_calls - earlier.get_calls,
            get_range_calls: self.get_range_calls - earlier.get_range_calls,
            read_bytes: self.read_bytes - earlier.read_bytes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            get_s: self.get_s - earlier.get_s,
            write_s: self.write_s - earlier.write_s,
        }
    }
}

/// Index of a codec in `CompressorId::ALL` / [`CODECS`].
pub fn codec_index(id: CompressorId) -> usize {
    CompressorId::ALL
        .iter()
        .position(|&c| c == id)
        .expect("ALL lists every id")
}

pub fn codec_metric(prefix: &str, id: CompressorId) -> String {
    format!("{prefix}.{}", CODECS[codec_index(id)])
}

/// The array stage at the front of a preset chain, at its defaults
/// (what `CodecRegistry::builtin` registers).
pub fn array_stage(id: CompressorId) -> Box<dyn ArrayStage> {
    match id {
        CompressorId::Sz2 => Box::new(Sz2::default()),
        CompressorId::Sz3 => Box::new(Sz3::default()),
        CompressorId::Zfp => Box::new(Zfp::default()),
        CompressorId::Qoz => Box::new(Qoz::default()),
        CompressorId::Szx => Box::new(Szx),
    }
}

/// The byte stages of a preset chain, in encode order.
pub fn byte_stages(id: CompressorId) -> Vec<Box<dyn ByteStage>> {
    ChainSpec::preset(id)
        .bytes
        .into_iter()
        .map(build_byte_stage)
        .collect()
}

/// The repository's bench field of `kind` (`DatasetSpec::new`: default
/// seed, `Scale::Small`), double precision. Fields do not follow
/// `--seed`: the synthetic generators' CR moves ±3 % and NYX's PSNR by
/// 30 dB from seed to seed, which would bury the exact metrics. The
/// seed drives every box, slab, scale factor and start offset instead.
pub fn field_f64(kind: DatasetKind) -> Result<NdArray<f64>, String> {
    match DatasetSpec::new(kind, Scale::Small).generate() {
        Dataset::F64(a) => Ok(a),
        Dataset::F32(_) => Err(format!("{} is not a double-precision set", kind.name())),
    }
}

/// The repository's bench field of `kind`, single precision.
pub fn field_f32(kind: DatasetKind) -> Result<NdArray<f32>, String> {
    match DatasetSpec::new(kind, Scale::Small).generate() {
        Dataset::F32(a) => Ok(a),
        Dataset::F64(_) => Err(format!("{} is not a single-precision set", kind.name())),
    }
}

/// Copies every chunk of `field` out of the array, raster order.
pub fn gather_chunks<T: Element>(field: &NdArray<T>, chunk: Shape) -> Vec<NdArray<T>> {
    let grid = ChunkGrid::new(field.shape(), chunk);
    (0..grid.n_chunks())
        .map(|i| gather(field, &grid.chunk_region(i)))
        .collect()
}

/// Maps `f` over `items` on `t` pool threads — the shape
/// `ChunkedStore::write_sharded` and the readers fan chunks out in.
pub fn par_map<I: Sync, R: Send>(
    t: usize,
    items: &[I],
    f: impl Fn(&I) -> R + Sync,
) -> Result<Vec<R>, String> {
    let pool = pool_for(t).map_err(es("thread pool"))?;
    Ok(pool.install(|| items.par_iter().map(f).collect()))
}

/// What one chunk read needs decoded: the whole chunk, or — when the
/// store's eligibility rule and the chain allow it — a sub-box given in
/// chunk-local coordinates.
pub struct ChunkNeed {
    pub chunk: usize,
    pub part: Option<(Vec<usize>, Vec<usize>)>,
}

/// The decode plan of a cold region read, mirroring the reader's miss
/// path: `decode_chunk_region` where it applies, else the whole chunk.
pub fn decode_plan<T: Element>(
    store: &ChunkedStore,
    codec: &dyn Compressor,
    region: &Region,
) -> Result<Vec<ChunkNeed>, String> {
    let mut plan = Vec::new();
    for i in store.grid().chunks_intersecting(region) {
        let part = store
            .decode_chunk_region::<T>(codec, i, region)
            .map_err(es("decode_chunk_region"))?
            .map(|(_, covered)| {
                let base = store.grid().chunk_region(i);
                let origin = covered
                    .origin()
                    .iter()
                    .zip(base.origin())
                    .map(|(c, b)| c - b)
                    .collect();
                (origin, covered.extent().to_vec())
            });
        plan.push(ChunkNeed { chunk: i, part });
    }
    Ok(plan)
}

/// Store rung of a read: each planned chunk through the store's public
/// decode entry points.
pub fn store_decode<T: Element>(
    store: &ChunkedStore,
    codec: &dyn Compressor,
    region: &Region,
    plan: &[ChunkNeed],
    t: usize,
) -> Result<(), String> {
    for r in par_map(t, plan, |need| match need.part {
        Some(_) => store
            .decode_chunk_region::<T>(codec, need.chunk, region)
            .map(|p| {
                black_box(p);
            }),
        None => store.decode_chunk::<T>(codec, need.chunk).map(|a| {
            black_box(a);
        }),
    })? {
        r.map_err(es("store decode rung"))?;
    }
    Ok(())
}

/// The compressed payload of each planned chunk (CRC-verified by the
/// store, outside any timed rung).
pub fn payloads<'a>(
    store: &'a ChunkedStore,
    plan: &'a [ChunkNeed],
) -> Result<Vec<(&'a [u8], &'a ChunkNeed)>, String> {
    plan.iter()
        .map(|n| store.chunk_payload(n.chunk).map(|p| (p, n)))
        .collect::<Result<_, _>>()
        .map_err(es("chunk payload"))
}

/// Codec rung of a read: `decompress` / `decompress_region` on each
/// planned chunk's payload.
pub fn codec_decode<T: Element>(
    codec: &dyn Compressor,
    payloads: &[(&[u8], &ChunkNeed)],
    t: usize,
) -> Result<(), String> {
    for r in par_map(t, payloads, |(p, need)| match &need.part {
        Some((o, e)) => decompress_region::<T>(codec, p, o, e).map(|a| {
            black_box(a);
        }),
        None => decompress::<T>(codec, p).map(|a| {
            black_box(a);
        }),
    })? {
        r.map_err(es("codec decode rung"))?;
    }
    Ok(())
}

/// Innermost rungs of a read, timed separately: the byte stages'
/// `inverse` and the array stage's `decode_array`. Returns
/// `(byte_stage_seconds, array_stage_seconds)` of wall time on `t`
/// threads.
pub fn stage_decode<T: Element>(
    id: CompressorId,
    payloads: &[(&[u8], &ChunkNeed)],
    t: usize,
) -> Result<(f64, f64), String> {
    let (array, bytes) = (array_stage(id), byte_stages(id));
    let mut framed = Vec::with_capacity(payloads.len());
    for &(stream, need) in payloads {
        let (header, payload) = read_stream(stream).map_err(es("read_stream"))?;
        framed.push((header, payload, need));
    }
    let t0 = Instant::now();
    let unwound: Vec<Vec<u8>> = par_map(t, &framed, |(_, payload, _)| {
        let mut stages = bytes.iter().rev();
        let Some(last) = stages.next() else {
            return Ok(payload.to_vec());
        };
        let mut cur = last.inverse(payload)?;
        for s in stages {
            cur = s.inverse(&cur)?;
        }
        Ok::<_, eblcio_codec::CodecError>(cur)
    })?
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(es("byte stage inverse"))?;
    // With no byte stage the pass above is one copy the real chain does
    // not make; charge nothing for it.
    let byte_s = if bytes.is_empty() {
        0.0
    } else {
        t0.elapsed().as_secs_f64()
    };

    let jobs: Vec<_> = framed.iter().zip(&unwound).collect();
    let t1 = Instant::now();
    for r in par_map(t, &jobs, |((h, _, need), buf)| match &need.part {
        Some((o, e)) => decode_array_region::<T>(array.as_ref(), buf, h.shape, h.abs_bound, o, e)
            .map(|a| {
                black_box(a);
            }),
        None => decode_array::<T>(array.as_ref(), buf, h.shape, h.abs_bound).map(|a| {
            black_box(a);
        }),
    })? {
        r.map_err(es("array stage decode"))?;
    }
    Ok((byte_s, t1.elapsed().as_secs_f64()))
}

/// Codec rung of a write: `compress_view` on each chunk.
pub fn codec_encode<T: Element>(
    codec: &dyn Compressor,
    chunks: &[&NdArray<T>],
    abs: f64,
    t: usize,
) -> Result<u64, String> {
    let mut bytes = 0;
    for r in par_map(t, chunks, |c| {
        compress_view(codec, c.view(), ErrorBound::Absolute(abs))
    })? {
        bytes += r.map_err(es("compress_view"))?.len() as u64;
    }
    Ok(bytes)
}

/// Innermost rungs of a write: `encode_array`, then the byte stages'
/// `forward` on its payloads. Returns `(array_stage_s, byte_stage_s)`.
pub fn stage_encode<T: Element>(
    id: CompressorId,
    chunks: &[&NdArray<T>],
    abs: f64,
    t: usize,
) -> Result<(f64, f64), String> {
    let (array, bytes) = (array_stage(id), byte_stages(id));
    let t0 = Instant::now();
    let payloads: Vec<Vec<u8>> = par_map(t, chunks, |c| {
        encode_array(array.as_ref(), c.view(), abs).map(|p| p.0)
    })?
    .into_iter()
    .collect::<Result<_, _>>()
    .map_err(es("encode_array"))?;
    let array_s = t0.elapsed().as_secs_f64();
    if bytes.is_empty() {
        return Ok((array_s, 0.0));
    }
    let t1 = Instant::now();
    black_box(par_map(t, &payloads, |p| {
        let mut cur = bytes[0].forward(p);
        for s in &bytes[1..] {
            cur = s.forward(&cur);
        }
        cur.len()
    })?);
    Ok((array_s, t1.elapsed().as_secs_f64()))
}

/// Single-thread codec rates run on every fourth chunk of the field.
const PROBE_STRIDE: usize = 4;

/// `codec.encode_mbps.*`, `codec.decode_mbps.*` and (for the chains with
/// a partial path) `codec.region_decode_mbps.*` of `codecs`, single
/// thread, on a fixed subset of the workload's own chunks.
pub fn put_codec_rates<T: Element>(
    field: &NdArray<T>,
    chunk: Shape,
    codecs: &[(&dyn Compressor, CompressorId)],
    abs: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let chunks = gather_chunks(field, chunk);
    let probe: Vec<&NdArray<T>> = chunks.iter().step_by(PROBE_STRIDE).collect();
    for &(codec, id) in codecs {
        let (enc, dec) = single_thread_rates(codec, &probe, abs)?;
        metrics.insert(codec_metric("codec.encode_mbps", id), (enc, "MB/s"));
        metrics.insert(codec_metric("codec.decode_mbps", id), (dec, "MB/s"));
        if matches!(id, CompressorId::Zfp | CompressorId::Szx) {
            let mbps = region_decode_mbps(codec, &probe, abs)?;
            metrics.insert(codec_metric("codec.region_decode_mbps", id), (mbps, "MB/s"));
        }
    }
    Ok(())
}

/// Single-thread encode and decode MB/s (raw bytes) of one codec on
/// `chunks`, plus the compressed streams' total size.
fn single_thread_rates<T: Element>(
    codec: &dyn Compressor,
    chunks: &[&NdArray<T>],
    abs: f64,
) -> Result<(f64, f64), String> {
    let raw_mb = chunks.iter().map(|c| c.nbytes()).sum::<usize>() as f64 / 1e6;
    let t0 = Instant::now();
    let streams: Vec<Vec<u8>> = chunks
        .iter()
        .map(|c| compress_view(codec, c.view(), ErrorBound::Absolute(abs)))
        .collect::<Result<_, _>>()
        .map_err(es("compress_view"))?;
    let enc = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for s in &streams {
        black_box(decompress::<T>(codec, s).map_err(es("decompress"))?);
    }
    let dec = t1.elapsed().as_secs_f64();
    Ok((raw_mb / enc, raw_mb / dec))
}

/// MB/s of delivered samples when only one octant of each chunk is
/// decoded through `decompress_region` (0 when the chain has no
/// partial path).
fn region_decode_mbps<T: Element>(
    codec: &dyn Compressor,
    chunks: &[&NdArray<T>],
    abs: f64,
) -> Result<f64, String> {
    let mut delivered = 0usize;
    let mut secs = 0.0;
    for c in chunks {
        let stream = compress_view(codec, c.view(), ErrorBound::Absolute(abs))
            .map_err(es("compress_view"))?;
        let dims = c.shape();
        let origin = vec![0usize; dims.rank()];
        let extent: Vec<usize> = dims.dims().iter().map(|&d| (d / 2).max(1)).collect();
        let t0 = Instant::now();
        let part = decompress_region::<T>(codec, &stream, &origin, &extent)
            .map_err(es("decompress_region"))?;
        secs += t0.elapsed().as_secs_f64();
        match part {
            Some(p) => delivered += black_box(p).nbytes(),
            None => return Ok(0.0),
        }
    }
    Ok(delivered as f64 / 1e6 / secs)
}

/// `codec.encode_mbps_hacc.*`: the five codecs, single thread, on a
/// HACC-like 1-D field (CR 2–3 — the paper's "maybe don't compress").
pub fn hacc_encode_rates(metrics: &mut Metrics) -> Result<(), String> {
    let field = field_f32(DatasetKind::Hacc)?;
    for id in CompressorId::ALL {
        let codec = id.instance();
        let t0 = Instant::now();
        black_box(
            compress_view(
                codec.as_ref(),
                field.view(),
                ErrorBound::Relative(crate::harness::EPSILON),
            )
            .map_err(es("hacc compress"))?,
        );
        let mbps = field.nbytes() as f64 / 1e6 / t0.elapsed().as_secs_f64();
        metrics.insert(codec_metric("codec.encode_mbps_hacc", id), (mbps, "MB/s"));
    }
    Ok(())
}

/// Hardware ceilings, measured in this process and this run so every
/// rate reads as a fraction of what the machine allows.
pub struct Ceilings {
    pub memcpy_mbps: f64,
    pub loopback_mbps: f64,
    pub fs_write_mbps: f64,
    pub fs_read_mbps: f64,
}

/// Best of `reps` timings of `f`, as MB/s for `bytes` moved per call.
fn best_mbps(
    bytes: usize,
    reps: usize,
    mut f: impl FnMut() -> Result<(), String>,
) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        best = best.min(t.elapsed().as_secs_f64());
    }
    Ok(bytes as f64 / 1e6 / best)
}

/// 256 MiB buffers: four times the largest LLC the reference machines
/// have, so the copy streams from memory.
const MEMCPY_BYTES: usize = 256 << 20;
const LOOPBACK_REQUEST: usize = 64;
const LOOPBACK_REPLY: usize = 1 << 20;
const LOOPBACK_REPLIES: usize = 128;
const FS_BYTES: usize = 64 << 20;

/// A served read on one connection with nothing behind it: a small
/// request out, a 1 MiB reply back, `TCP_NODELAY` both ends.
fn loopback_mbps() -> Result<f64, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(es("bind"))?;
    let addr = listener.local_addr().map_err(es("local_addr"))?;
    std::thread::scope(|s| {
        let server = s.spawn(move || -> std::io::Result<()> {
            let (mut peer, _) = listener.accept()?;
            peer.set_nodelay(true)?;
            let reply = vec![0xA5u8; LOOPBACK_REPLY];
            let mut request = [0u8; LOOPBACK_REQUEST];
            // Ends on the client's close, read as an error here.
            while peer.read_exact(&mut request).is_ok() {
                peer.write_all(&reply)?;
            }
            Ok(())
        });
        let run = || -> std::io::Result<f64> {
            let mut sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            let request = [1u8; LOOPBACK_REQUEST];
            let mut reply = vec![0u8; LOOPBACK_REPLY];
            let t = Instant::now();
            for _ in 0..LOOPBACK_REPLIES {
                sock.write_all(&request)?;
                sock.read_exact(&mut reply)?;
            }
            Ok((LOOPBACK_REPLY * LOOPBACK_REPLIES) as f64 / 1e6 / t.elapsed().as_secs_f64())
        };
        let rate = run().map_err(es("loopback exchange"));
        server
            .join()
            .map_err(|_| "loopback thread panicked".to_string())?
            .map_err(es("loopback thread"))?;
        rate
    })
}

pub fn ceilings(dir: &Path) -> Result<Ceilings, String> {
    let src = vec![1u8; MEMCPY_BYTES];
    let mut dst = vec![0u8; MEMCPY_BYTES];
    let memcpy_mbps = best_mbps(MEMCPY_BYTES, 3, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        Ok(())
    })?;
    drop((src, dst));

    let path = dir.join("ceiling.bin");
    let block = vec![7u8; FS_BYTES];
    let fs_write_mbps = best_mbps(FS_BYTES, 2, || {
        std::fs::write(&path, &block).map_err(es("fs write"))
    })?;
    let fs_read_mbps = best_mbps(FS_BYTES, 2, || {
        black_box(std::fs::read(&path).map_err(es("fs read"))?);
        Ok(())
    })?;
    std::fs::remove_file(&path).map_err(es("remove ceiling file"))?;

    Ok(Ceilings {
        memcpy_mbps,
        loopback_mbps: loopback_mbps()?,
        fs_write_mbps,
        fs_read_mbps,
    })
}

pub fn put_ceilings(c: &Ceilings, metrics: &mut Metrics) {
    metrics.insert("ceiling.memcpy_mbps".into(), (c.memcpy_mbps, "MB/s"));
    metrics.insert("ceiling.loopback_mbps".into(), (c.loopback_mbps, "MB/s"));
    metrics.insert("ceiling.fs_write_mbps".into(), (c.fs_write_mbps, "MB/s"));
    metrics.insert("ceiling.fs_read_mbps".into(), (c.fs_read_mbps, "MB/s"));
}
