//! `dump_write`: the paper's Figs. 5/7/11 path. One op takes an
//! S3D-like f64 field through one of the five preset codecs
//! (`ChunkedStore::write_sharded`, `T` threads) and hands the stream to
//! `FilesystemStorage::set` (temp file + rename, no fsync: page-cache
//! speed, which is this sandbox's, not a device's). Codecs round-robin;
//! each round also `set`s the raw field once as the paper's "Original"
//! baseline, timed separately. Codec encode does nearly all the work;
//! serve and daemon do none.

use super::{base_slice, ladder_passes, put_ladder_check, traced_slice, SLICE_SHARE};
use crate::harness::{
    compute_joules, es, io_wait_joules, median_setup_s, peak_rss_mb, pfs_write_joules,
    put_window_e2e, timed, Ctx, Outcome, Sample, Window, EPSILON,
};
use crate::layers::{self, codec_metric, StorageTotals};
use crate::report::CODECS;
use crate::stats::median;
use crate::trace::{Ladder, Tracer};
use eblcio_codec::{Compressor, CompressorId, ErrorBound};
use eblcio_data::{max_abs_error, psnr, DatasetKind, NdArray, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_store::{ChunkedStore, FilesystemStorage, MeteredStorage, Storage};
use std::sync::Arc;
use std::time::Instant;

const CHUNKS_PER_SHARD: usize = 8;
/// Rounds a window holds at least, so every sub-window sees every codec.
const MIN_ROUNDS: usize = 5;
/// Dimension-0 planes of the field (of 11) the ladder's ops cover.
const LADDER_PLANES: usize = 2;

fn chunk_shape() -> Shape {
    Shape::d4(1, 32, 32, 32)
}

struct Setup {
    field: NdArray<f64>,
    raw: Vec<u8>,
    codecs: Vec<Box<dyn Compressor>>,
    /// Where the compressed objects go (metered: exact bytes and calls).
    objects: MeteredStorage,
    registry: Arc<MetricsRegistry>,
    /// Where the uncompressed "Original" goes.
    original: FilesystemStorage,
    t: usize,
}

impl Setup {
    fn build(ctx: &Ctx) -> Result<Self, String> {
        let field = layers::field_f64(DatasetKind::S3d)?;
        let raw = field.to_le_bytes();
        let root = ctx.scratch.join("dump_write");
        let registry = Arc::new(MetricsRegistry::default());
        let objects = MeteredStorage::with_registry(
            Arc::new(FilesystemStorage::create(root.join("objects")).map_err(es("storage root"))?),
            registry.clone(),
        );
        let setup = Self {
            field,
            raw,
            codecs: CompressorId::ALL.iter().map(|id| id.instance()).collect(),
            objects,
            registry,
            original: FilesystemStorage::create(root.join("original"))
                .map_err(es("storage root"))?,
            t: ctx.t,
        };
        // Warm-up round: thread pool, page cache, allocator arenas.
        let mut tr = Tracer::off();
        for class in 0..setup.codecs.len() {
            setup.write_op(class, &mut tr, 0, Instant::now())?;
        }
        setup.original_op()?;
        Ok(setup)
    }

    fn key(class: usize) -> String {
        format!("field.{}", CODECS[class])
    }

    /// One op: field → codec → stream → storage.
    fn write_op(
        &self,
        class: usize,
        tr: &mut Tracer,
        op: u64,
        epoch: Instant,
    ) -> Result<(Vec<u8>, Sample), String> {
        let t0 = Instant::now();
        let root = tr.begin("op.dump_write", 0, op);
        let s = tr.begin("store.write_sharded", root, op);
        let stream = ChunkedStore::write_sharded(
            self.codecs[class].as_ref(),
            &self.field,
            ErrorBound::Relative(EPSILON),
            chunk_shape(),
            CHUNKS_PER_SHARD,
            self.t,
        )
        .map_err(es("write_sharded"))?;
        tr.end(s);
        let s = tr.begin("storage.set", root, op);
        self.objects
            .set(&Self::key(class), &stream)
            .map_err(es("set"))?;
        tr.end(s);
        tr.end(root);
        let sample = Sample {
            class: class as u8,
            end_ns: epoch.elapsed().as_nanos() as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
            raw_bytes: self.field.nbytes() as u64,
            io_joules: pfs_write_joules(stream.len() as u64, 1),
        };
        Ok((stream, sample))
    }

    /// The "Original" baseline: the raw field straight to storage.
    fn original_op(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        self.original
            .set("field.raw", &self.raw)
            .map_err(es("set original"))?;
        Ok(t0.elapsed().as_secs_f64())
    }

    /// Whole rounds until `seconds` have passed. Each stream must equal
    /// the checked pass's, byte for byte.
    fn window(
        &self,
        seconds: f64,
        tr: &mut Tracer,
        reference: &[Vec<u8>],
        out: &mut Outcome,
    ) -> Result<(Window, Vec<f64>), String> {
        let epoch = Instant::now();
        let mut samples = Vec::new();
        let mut original_s = Vec::new();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || epoch.elapsed().as_secs_f64() < seconds {
            for class in 0..self.codecs.len() {
                let op = out.attempted;
                let (stream, sample) = self.write_op(class, tr, op, epoch)?;
                samples.push(sample);
                out.attempt(None);
                out.check(stream == reference[class], || {
                    format!("{} stream differs from the first round's", CODECS[class])
                });
            }
            original_s.push(self.original_op()?);
            rounds += 1;
        }
        let wall_s = epoch.elapsed().as_secs_f64();
        Ok((
            Window {
                samples,
                clients: 1,
                unit: self.codecs.len(),
                wall_s,
            },
            original_s,
        ))
    }
}

/// The checked pass: one round whose stored objects are read back whole
/// and held to the error bound. Returns the reference streams.
fn checked_pass(s: &Setup, out: &mut Outcome) -> Result<Vec<Vec<u8>>, String> {
    let abs = EPSILON * s.field.value_range();
    let before = StorageTotals::read(&s.registry);
    let mut reference = Vec::new();
    let (mut stored, mut psnr_sum, mut manifest) = (0u64, 0.0, 0usize);
    let mut tr = Tracer::off();
    for (class, id) in CompressorId::ALL.iter().enumerate() {
        let (stream, _) = s.write_op(class, &mut tr, 0, Instant::now())?;
        out.attempt(None);
        let store =
            ChunkedStore::open_from(&s.objects, &Setup::key(class)).map_err(es("open_from"))?;
        let back = store.read_full::<f64>(s.t).map_err(es("read_full"))?;
        let err = max_abs_error(&s.field, &back);
        out.check(err <= abs * (1.0 + 1e-9), || {
            format!("{}: max error {err:e} exceeds the bound {abs:e}", id.name())
        });
        psnr_sum += psnr(&s.field, &back);
        stored += stream.len() as u64;
        manifest += store.manifest_len();
        out.put(
            &codec_metric("codec.cr", *id),
            s.field.nbytes() as f64 / stream.len() as f64,
            "ratio",
        );
        reference.push(stream);
    }
    let n = reference.len() as f64;
    out.put(
        "stored_bytes_per_raw_byte",
        stored as f64 / (n * s.field.nbytes() as f64),
        "B/B",
    );
    out.put("psnr_db", psnr_sum / n, "dB");
    out.put("store.manifest_bytes", manifest as f64 / n, "B");
    let io = StorageTotals::read(&s.registry).since(before);
    out.put("storage.set_bytes_per_op", io.write_bytes as f64 / n, "B");
    // The read-back above is verification, not part of an op.
    Ok(reference)
}

/// After the window the stored objects must still be the reference
/// streams (the last round overwrote them with identical bytes).
fn verify_stored(s: &Setup, reference: &[Vec<u8>], out: &mut Outcome) -> Result<(), String> {
    for (class, want) in reference.iter().enumerate() {
        let got = s.objects.get(&Setup::key(class)).map_err(es("get"))?;
        out.check(&got[..] == want.as_slice(), || {
            format!(
                "{} object on storage differs from the stream written",
                CODECS[class]
            )
        });
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (s, first_setup_s) = timed(|| Setup::build(ctx))?;
    let mut out = Outcome::default();
    if ctx.trace {
        out.metrics = crate::report::per_layer_zeros();
    }
    let reference = checked_pass(&s, &mut out)?;
    if ctx.trace {
        traced(ctx, &s, &reference, &mut out)?;
    } else {
        let (mut w, _) = s.window(ctx.seconds, &mut Tracer::off(), &reference, &mut out)?;
        w.sort();
        put_window_e2e(&mut out, &w, ctx.t);
    }
    verify_stored(&s, &reference, &mut out)?;
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    drop(s);
    out.put(
        "setup_s",
        median_setup_s(first_setup_s, || Setup::build(ctx))?,
        "s",
    );
    Ok(out)
}

fn traced(ctx: &Ctx, s: &Setup, reference: &[Vec<u8>], out: &mut Outcome) -> Result<(), String> {
    let n = s.codecs.len();
    // Untraced slice: the base the traced slice is compared with.
    let io0 = StorageTotals::read(&s.registry);
    let mut original_s = Vec::new();
    let base = base_slice(ctx, out, |seconds, out| {
        let (w, orig) = s.window(seconds, &mut Tracer::off(), reference, out)?;
        original_s = orig;
        Ok(w)
    })?;
    let io = StorageTotals::read(&s.registry).since(io0);
    out.put("storage.set_s", io.write_s / base.samples.len() as f64, "s");

    // Eq. 3: E(compress + write compressed) over E(write Original).
    let e_original = io_wait_joules(median(&original_s)) + pfs_write_joules(s.raw.len() as u64, 1);
    for (class, id) in CompressorId::ALL.iter().enumerate() {
        let of_class: Vec<&Sample> = base
            .samples
            .iter()
            .filter(|x| x.class as usize == class)
            .collect();
        let wall = median(
            &of_class
                .iter()
                .map(|x| x.dur_ns as f64 * 1e-9)
                .collect::<Vec<_>>(),
        );
        let e = compute_joules(wall, ctx.t) + of_class[0].io_joules;
        out.put(
            &codec_metric("core.energy_ratio_vs_original", *id),
            e / e_original,
            "ratio",
        );
    }

    // Traced slice: same schedule, spans on.
    let mut tr = Tracer::on(Instant::now(), 0);
    let (traced, _) = s.window(ctx.seconds * SLICE_SHARE, &mut tr, reference, out)?;
    traced_slice(ctx, "dump_write", &base, &traced, &tr.into_spans(), out)?;

    // Ladder: write_sharded ⊃ per-chunk compress_view ⊃ encode_array +
    // byte stages, each rung over one round of the five codecs. It runs
    // on the first planes of the field (same chunks, same code path) so
    // that enough passes fit the run; the bound is the whole field's.
    let abs = EPSILON * s.field.value_range();
    let part = s.field.slab(0, LADDER_PLANES).to_owned();
    let chunks = layers::gather_chunks(&part, chunk_shape());
    let all: Vec<&NdArray<f64>> = chunks.iter().collect();
    let write = |codec: &dyn Compressor| {
        ChunkedStore::write_sharded(
            codec,
            &part,
            ErrorBound::Absolute(abs),
            chunk_shape(),
            CHUNKS_PER_SHARD,
            ctx.t,
        )
        .map_err(es("write_sharded"))
    };
    let streams: Vec<Vec<u8>> = s
        .codecs
        .iter()
        .map(|c| write(c.as_ref()))
        .collect::<Result<_, _>>()?;
    let ladder_key = |c: usize| format!("ladder.{}", CODECS[c]);
    let mut l = Ladder::new(n, 1);
    let r_op = l.rung("op.dump_write", None);
    let r_write = l.rung("store.write_sharded", Some(r_op));
    let r_set = l.rung("storage.set", Some(r_op));
    let r_codec = l.rung("codec.compress_view", Some(r_write));
    let r_array = l.rung("codec.array_stage", Some(r_codec));
    let r_byte = l.rung("codec.byte_stage", Some(r_codec));
    ladder_passes(ctx, n, |c| {
        let codec = s.codecs[c].as_ref();
        l.time(r_op, c, || {
            s.objects
                .set(&ladder_key(c), &write(codec)?)
                .map_err(es("set"))
        })?;
        l.time(r_write, c, || write(codec).map(drop))?;
        l.time(r_set, c, || {
            s.objects
                .set(&ladder_key(c), &streams[c])
                .map_err(es("set"))
        })?;
        l.time(r_codec, c, || {
            layers::codec_encode(codec, &all, abs, ctx.t).map(drop)
        })?;
        let (array_s, byte_s) = layers::stage_encode(CompressorId::ALL[c], &all, abs, ctx.t)?;
        l.record(r_array, c, array_s);
        l.record(r_byte, c, byte_s);
        Ok(())
    })?;
    let own = l.self_per_op();
    out.put("store.write_self_s", own[r_write], "s");
    out.put("codec.array_stage_encode_s", l.per_op(r_array), "s");
    out.put("codec.byte_stage_encode_s", l.per_op(r_byte), "s");
    put_ladder_check(&l, out);
    out.put(
        "trace.primary_layer_share",
        l.per_op(r_codec) / l.per_op(r_op),
        "ratio",
    );

    // Single-thread rates on the workload's own chunks, and HACC.
    let codecs: Vec<_> = s
        .codecs
        .iter()
        .map(|c| c.as_ref())
        .zip(CompressorId::ALL)
        .collect();
    layers::put_codec_rates(&s.field, chunk_shape(), &codecs, abs, &mut out.metrics)?;
    layers::hacc_encode_rates(&mut out.metrics)?;
    layers::put_ceilings(&layers::ceilings(&ctx.scratch)?, &mut out.metrics);
    Ok(())
}
