//! `cold_region_read`: a post-hoc analysis job. One op opens an
//! uncached reader on one of five stores (`ArrayReader::open_from`, one
//! per preset codec, written at set-up), reads one seeded non-aligned
//! 1/8-volume box into the caller's buffer, and drops the reader. The
//! backend is `SimulatedObjectStorage` over `MeteredStorage` over
//! `FilesystemStorage`, so billed requests, bytes, seconds and dollars
//! are exact counts. Codec decode, store open and storage GET do the
//! work; the cache never hits and the daemon is not involved. The
//! working set (five whole objects per round) never fits a cache of 0.

use super::{
    base_slice, ladder_passes, put_ladder_check, put_reader_counts, traced_slice, SLICE_SHARE,
};
use crate::harness::{
    es, median_setup_s, peak_rss_mb, pfs_read_joules, psnr_db, put_window_e2e, timed, Ctx, Outcome,
    Sample, Window, EPSILON,
};
use crate::layers::{self, codec_metric, ChunkNeed, StorageTotals};
use crate::report::CODECS;
use crate::schedule::{box_pool, BoxSpec};
use crate::trace::{Ladder, Tracer};
use eblcio_codec::{Compressor, CompressorId, ErrorBound};
use eblcio_data::{DatasetKind, NdArray, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig, ReaderStats};
use eblcio_store::{
    gather, ChunkedStore, FilesystemStorage, MeteredStorage, ObjectCostModel, Region,
    SimulatedObjectStorage, Storage,
};
use std::sync::Arc;
use std::time::Instant;

const CHUNKS_PER_SHARD: usize = 8;
/// Distinct boxes per seed; the checked pass reads each through each
/// codec once.
const BOX_POOL: usize = 8;
/// Ops in the window re-checked against the original field.
const RECHECK_EVERY: u64 = 64;
/// Ops each ladder pass covers: one box through each codec.
const LADDER_OPS: usize = 5;

const SHAPE: [usize; 4] = [11, 64, 64, 64];
const CHUNK: [usize; 4] = [1, 32, 32, 32];
/// One eighth of the volume.
const EXTENT: [usize; 4] = [11, 32, 32, 32];

struct Setup {
    field: NdArray<f64>,
    codecs: Vec<Box<dyn Compressor>>,
    /// What readers open: billed object store over the metered backend.
    object: SimulatedObjectStorage,
    registry: Arc<MetricsRegistry>,
    object_bytes: Vec<u64>,
    boxes: Vec<BoxSpec>,
    config: ReaderConfig,
}

fn key(class: usize) -> String {
    format!("field.{}.ebcs", CODECS[class])
}

impl Setup {
    fn build(ctx: &Ctx) -> Result<Self, String> {
        let field = layers::field_f64(DatasetKind::S3d)?;
        let backend: Arc<dyn Storage> = Arc::new(
            FilesystemStorage::create(ctx.scratch.join("cold_region_read"))
                .map_err(es("storage root"))?,
        );
        let codecs: Vec<Box<dyn Compressor>> =
            CompressorId::ALL.iter().map(|id| id.instance()).collect();
        let mut object_bytes = Vec::new();
        for (class, codec) in codecs.iter().enumerate() {
            let stream = ChunkedStore::write_sharded(
                codec.as_ref(),
                &field,
                ErrorBound::Relative(EPSILON),
                Shape::new(&CHUNK),
                CHUNKS_PER_SHARD,
                ctx.t,
            )
            .map_err(es("write_sharded"))?;
            // Straight to the backend: building the stores is not billed.
            backend.set(&key(class), &stream).map_err(es("set"))?;
            object_bytes.push(stream.len() as u64);
        }
        let registry = Arc::new(MetricsRegistry::default());
        let metered = MeteredStorage::with_registry(backend, registry.clone());
        let setup = Self {
            field,
            codecs,
            object: SimulatedObjectStorage::over(Arc::new(metered), ObjectCostModel::default()),
            registry,
            object_bytes,
            boxes: box_pool(ctx.seed, 0xC01D, &SHAPE, &EXTENT, &CHUNK, BOX_POOL),
            config: ReaderConfig {
                cache: CacheConfig {
                    capacity_bytes: 0,
                    ..CacheConfig::default()
                },
                threads: ctx.t,
                ..ReaderConfig::default()
            },
        };
        // Warm-up round: each codec once.
        let mut buf = NdArray::<f64>::zeros(Shape::new(&EXTENT));
        let mut tr = Tracer::off();
        for i in 0..setup.codecs.len() as u64 {
            setup.read_op(i, &mut buf, &mut tr, Instant::now(), false)?;
        }
        Ok(setup)
    }

    /// Op `i` of the schedule reads box `(i / 5) % pool` through codec
    /// `i % 5`.
    fn plan(&self, i: u64) -> (usize, Region) {
        let n = self.codecs.len() as u64;
        (
            (i % n) as usize,
            self.boxes[(i / n) as usize % self.boxes.len()].region(),
        )
    }

    fn read_op(
        &self,
        i: u64,
        buf: &mut NdArray<f64>,
        tr: &mut Tracer,
        epoch: Instant,
        want_stats: bool,
    ) -> Result<(Sample, Option<ReaderStats>), String> {
        let (class, region) = self.plan(i);
        let t0 = Instant::now();
        let root = tr.begin("op.cold_region_read", 0, i);
        let s = tr.begin("serve.open_from", root, i);
        let reader = ArrayReader::<f64>::open_from(&self.object, &key(class), self.config)
            .map_err(es("open_from"))?;
        tr.end(s);
        let s = tr.begin("serve.read_region_into", root, i);
        reader
            .read_region_into(&region, buf)
            .map_err(es("read_region_into"))?;
        tr.end(s);
        let stats = want_stats.then(|| reader.stats());
        let s = tr.begin("serve.drop_reader", root, i);
        drop(reader);
        tr.end(s);
        tr.end(root);
        let sample = Sample {
            class: class as u8,
            end_ns: epoch.elapsed().as_nanos() as u64,
            dur_ns: t0.elapsed().as_nanos() as u64,
            raw_bytes: buf.nbytes() as u64,
            io_joules: pfs_read_joules(self.object_bytes[class], 1),
        };
        Ok((sample, stats))
    }

    /// Holds a delivered box to the error bound against the original
    /// field; returns its summed squared error.
    fn check(&self, i: u64, buf: &NdArray<f64>, out: &mut Outcome) -> f64 {
        let (class, region) = self.plan(i);
        let want = gather(&self.field, &region);
        let abs = EPSILON * self.field.value_range();
        let (mut worst, mut sq) = (0.0f64, 0.0);
        for (a, b) in want.as_slice().iter().zip(buf.as_slice()) {
            let e = (a - b).abs();
            worst = worst.max(e);
            sq += e * e;
        }
        out.check(worst <= abs * (1.0 + 1e-9), || {
            format!(
                "{} box {:?}: max error {worst:e} exceeds {abs:e}",
                CODECS[class],
                region.origin()
            )
        });
        sq
    }

    fn window(&self, seconds: f64, tr: &mut Tracer, out: &mut Outcome) -> Result<Window, String> {
        let mut buf = NdArray::<f64>::zeros(Shape::new(&EXTENT));
        let epoch = Instant::now();
        let mut samples = Vec::new();
        let mut i = 0u64;
        while epoch.elapsed().as_secs_f64() < seconds || !i.is_multiple_of(self.codecs.len() as u64)
        {
            let (sample, _) = self.read_op(i, &mut buf, tr, epoch, false)?;
            samples.push(sample);
            out.attempt(None);
            if i.is_multiple_of(RECHECK_EVERY) {
                self.check(i, &buf, out);
            }
            i += 1;
        }
        Ok(Window {
            samples,
            clients: 1,
            unit: self.codecs.len(),
            wall_s: epoch.elapsed().as_secs_f64(),
        })
    }
}

/// Every (codec, box) pair once, each checked against the original
/// field; the exact counts of the layers come from this pass.
fn checked_pass(s: &Setup, out: &mut Outcome) -> Result<(), String> {
    let ops = (s.codecs.len() * s.boxes.len()) as u64;
    let mut buf = NdArray::<f64>::zeros(Shape::new(&EXTENT));
    let (io0, bill0) = (StorageTotals::read(&s.registry), s.object.stats());
    let mut reader = ReaderStats::default();
    let mut sq = 0.0;
    let mut tr = Tracer::off();
    for i in 0..ops {
        let (_, stats) = s.read_op(i, &mut buf, &mut tr, Instant::now(), true)?;
        out.attempt(None);
        sq += s.check(i, &buf, out);
        let st = stats.expect("asked for");
        reader.cache_hits += st.cache_hits;
        reader.cache_misses += st.cache_misses;
        reader.decodes += st.decodes;
        reader.partial_decodes += st.partial_decodes;
        reader.decoded_bytes += st.decoded_bytes;
        reader.evictions += st.evictions;
        reader.flight_waits += st.flight_waits;
    }
    let (io, bill) = (
        StorageTotals::read(&s.registry).since(io0),
        s.object.stats(),
    );
    let n = ops as f64;
    let delivered = n * buf.nbytes() as f64;
    let stored: u64 = s.object_bytes.iter().sum();
    out.put(
        "stored_bytes_per_raw_byte",
        stored as f64 / (s.codecs.len() * s.field.nbytes()) as f64,
        "B/B",
    );
    out.put(
        "psnr_db",
        psnr_db(sq, ops * buf.len() as u64, s.field.value_range()),
        "dB",
    );
    for (id, bytes) in CompressorId::ALL.iter().zip(&s.object_bytes) {
        out.put(
            &codec_metric("codec.cr", *id),
            s.field.nbytes() as f64 / *bytes as f64,
            "ratio",
        );
    }
    out.put("storage.get_calls_per_op", io.get_calls as f64 / n, "count");
    out.put(
        "storage.get_range_calls_per_op",
        io.get_range_calls as f64 / n,
        "count",
    );
    out.put("storage.get_bytes_per_op", io.read_bytes as f64 / n, "B");
    out.put("storage.set_bytes_per_op", io.write_bytes as f64 / n, "B");
    out.put(
        "storage.billed_seconds_per_op",
        (bill.simulated_seconds - bill0.simulated_seconds) / n,
        "s",
    );
    out.put(
        "storage.billed_usd_per_op",
        (bill.cost_usd - bill0.cost_usd) / n,
        "USD",
    );
    put_reader_counts(&ReaderStats::default(), &reader, n, delivered, out);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (s, first_setup_s) = timed(|| Setup::build(ctx))?;
    let mut out = Outcome::default();
    if ctx.trace {
        out.metrics = crate::report::per_layer_zeros();
    }
    checked_pass(&s, &mut out)?;
    if ctx.trace {
        traced(ctx, &s, &mut out)?;
    } else {
        let mut w = s.window(ctx.seconds, &mut Tracer::off(), &mut out)?;
        w.sort();
        put_window_e2e(&mut out, &w, ctx.t);
    }
    out.put("peak_rss_mb", peak_rss_mb(), "MB");
    drop(s);
    out.put(
        "setup_s",
        median_setup_s(first_setup_s, || Setup::build(ctx))?,
        "s",
    );
    Ok(out)
}

/// One ladder op with everything its inner rungs need prepared.
struct Prepared {
    class: usize,
    region: Region,
    store: ChunkedStore,
    plan: Vec<ChunkNeed>,
}

fn traced(ctx: &Ctx, s: &Setup, out: &mut Outcome) -> Result<(), String> {
    let io0 = StorageTotals::read(&s.registry);
    let base = base_slice(ctx, out, |seconds, out| {
        s.window(seconds, &mut Tracer::off(), out)
    })?;
    let io = StorageTotals::read(&s.registry).since(io0);
    out.put("storage.get_s", io.get_s / base.samples.len() as f64, "s");

    let mut tr = Tracer::on(Instant::now(), 0);
    let traced = s.window(ctx.seconds * SLICE_SHARE, &mut tr, out)?;
    traced_slice(
        ctx,
        "cold_region_read",
        &base,
        &traced,
        &tr.into_spans(),
        out,
    )?;

    // Ladder: open_from = Storage::get → ChunkedStore::open_arc →
    // ArrayReader::over; read_region_into ⊃ store chunk decode ⊃
    // decompress ⊃ byte stages + decode_array.
    let mut prepared = Vec::new();
    for i in 0..LADDER_OPS as u64 {
        let (class, region) = s.plan(i);
        let store = ChunkedStore::open_from(&s.object, &key(class)).map_err(es("open_from"))?;
        let plan = layers::decode_plan::<f64>(&store, s.codecs[class].as_ref(), &region)?;
        prepared.push(Prepared {
            class,
            region,
            store,
            plan,
        });
    }
    let mut buf = NdArray::<f64>::zeros(Shape::new(&EXTENT));
    let mut l = Ladder::new(LADDER_OPS, 1);
    let r_op = l.rung("op.cold_region_read", None);
    let r_get = l.rung("storage.get", Some(r_op));
    let r_open = l.rung("store.open_arc", Some(r_op));
    let r_reader = l.rung("serve.reader_over_and_drop", Some(r_op));
    let r_read = l.rung("serve.read_region_into", Some(r_op));
    let r_store = l.rung("store.decode_chunks", Some(r_read));
    let r_codec = l.rung("codec.decompress", Some(r_store));
    let r_byte = l.rung("codec.byte_stage", Some(r_codec));
    let r_array = l.rung("codec.array_stage", Some(r_codec));
    ladder_passes(ctx, LADDER_OPS, |g| {
        let p = &prepared[g];
        let codec = s.codecs[p.class].as_ref();
        let mut off = Tracer::off();
        l.time(r_op, g, || {
            s.read_op(g as u64, &mut buf, &mut off, Instant::now(), false)
                .map(drop)
        })?;
        let object = l.time(r_get, g, || s.object.get(&key(p.class)).map_err(es("get")))?;
        let store = l.time(r_open, g, || {
            ChunkedStore::open_arc(object).map_err(es("open_arc"))
        })?;
        l.time(r_reader, g, || {
            ArrayReader::<f64>::over(store, s.config)
                .map(drop)
                .map_err(es("over"))
        })?;
        let reader = ArrayReader::<f64>::over(p.store.clone(), s.config).map_err(es("over"))?;
        l.time(r_read, g, || {
            reader
                .read_region_into(&p.region, &mut buf)
                .map(drop)
                .map_err(es("read_region_into"))
        })?;
        drop(reader);
        l.time(r_store, g, || {
            layers::store_decode::<f64>(&p.store, codec, &p.region, &p.plan, ctx.t)
        })?;
        let payloads = layers::payloads(&p.store, &p.plan)?;
        l.time(r_codec, g, || {
            layers::codec_decode::<f64>(codec, &payloads, ctx.t)
        })?;
        let (byte_s, array_s) =
            layers::stage_decode::<f64>(CompressorId::ALL[p.class], &payloads, ctx.t)?;
        l.record(r_byte, g, byte_s);
        l.record(r_array, g, array_s);
        Ok(())
    })?;
    let own = l.self_per_op();
    out.put("store.open_s", l.per_op(r_open), "s");
    out.put("store.read_region_self_s", own[r_store], "s");
    out.put("serve.assemble_self_s", own[r_read], "s");
    out.put("codec.byte_stage_decode_s", l.per_op(r_byte), "s");
    out.put("codec.array_stage_decode_s", l.per_op(r_array), "s");
    put_ladder_check(&l, out);
    out.put(
        "trace.primary_layer_share",
        (l.per_op(r_codec) + l.per_op(r_open) + l.per_op(r_get)) / l.per_op(r_op),
        "ratio",
    );
    let manifest: usize = prepared
        .iter()
        .take(s.codecs.len())
        .map(|p| p.store.manifest_len())
        .sum();
    out.put(
        "store.manifest_bytes",
        manifest as f64 / s.codecs.len() as f64,
        "B",
    );

    // Single-thread rates on the workload's own chunks.
    let abs = EPSILON * s.field.value_range();
    let codecs: Vec<_> = s
        .codecs
        .iter()
        .map(|c| c.as_ref())
        .zip(CompressorId::ALL)
        .collect();
    layers::put_codec_rates(&s.field, Shape::new(&CHUNK), &codecs, abs, &mut out.metrics)?;
    layers::put_ceilings(&layers::ceilings(&ctx.scratch)?, &mut out.metrics);
    Ok(())
}
