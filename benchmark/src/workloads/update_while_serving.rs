//! `update_while_serving`: writes beside reads through the same
//! store/serve code. One op is one cycle on an NYX-like f32 128³
//! `MutableStore` (SZx, 32³ chunks — a fast codec on purpose, so store,
//! manifest and cache costs are visible): publish a seeded chunk-aligned
//! 16-chunk slab, `refresh_from`, read a box overlapping the update
//! (must re-decode exactly the invalidated chunks), read a disjoint box
//! (must be all cache hits), and every [`ROUND`]th cycle `compact()`.
//! One client.

use super::{
    base_slice, ladder_passes, put_ladder_check, put_reader_counts, traced_slice, SLICE_SHARE,
};
use crate::harness::{
    es, median_setup_s, peak_rss_mb, pfs_write_joules, psnr_db, put_window_e2e, timed, Ctx,
    Outcome, Sample, Window, EPSILON,
};
use crate::layers::{self, codec_metric, ChunkNeed, StorageTotals};
use crate::schedule::{update_cycles, UpdateCycle};
use crate::trace::{self, Ladder, Tracer};
use eblcio_codec::{Compressor, CompressorId, ErrorBound};
use eblcio_data::{DatasetKind, NdArray, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_serve::{ArrayReader, ReaderConfig, RefreshStats, RequestStats};
use eblcio_store::{
    gather, scatter_chunk, CompactStats, FilesystemStorage, MeteredStorage, MutableStore, Region,
    UpdateStats,
};
use std::sync::Arc;
use std::time::Instant;

const SIDE: usize = 128;
const CHUNK: usize = 32;
/// Chunks one slab replaces: a plane of the 4 × 4 × 4 chunk grid.
const SLAB_CHUNKS: usize = 16;
/// Cycles per round; the last one compacts. One in 16 (not the 32 first
/// planned) so compaction cycles are more than a twentieth of the ops
/// and `op_p95_ms` lands on them, as periodic background work should.
const ROUND: usize = 16;
const KEY: &str = "field.ebms";
/// Cycles each ladder pass covers.
const LADDER_OPS: usize = 4;

struct Setup {
    original: NdArray<f32>,
    /// What the store should hold now: the original with every
    /// published slab laid over it.
    oracle: NdArray<f32>,
    store: MutableStore,
    reader: ArrayReader<f32>,
    registry: Arc<MetricsRegistry>,
    cycles: Vec<UpdateCycle>,
    codec: Box<dyn Compressor>,
    abs: f64,
    t: usize,
}

/// What one cycle did, for the checks and the counts.
struct CycleReport {
    update: UpdateStats,
    refresh: RefreshStats,
    overlap: RequestStats,
    disjoint: RequestStats,
    compact: Option<CompactStats>,
    overlap_buf: NdArray<f32>,
    disjoint_buf: NdArray<f32>,
}

fn whole() -> Region {
    Region::full(Shape::d3(SIDE, SIDE, SIDE))
}

impl Setup {
    fn build(ctx: &Ctx) -> Result<Self, String> {
        let original = layers::field_f32(DatasetKind::Nyx)?;
        let registry = Arc::new(MetricsRegistry::default());
        let storage = Arc::new(MeteredStorage::with_registry(
            Arc::new(
                FilesystemStorage::create(ctx.scratch.join("update_while_serving"))
                    .map_err(es("storage root"))?,
            ),
            registry.clone(),
        ));
        let codec = CompressorId::Szx.instance();
        let store = MutableStore::create_on(
            storage,
            KEY,
            codec.as_ref(),
            &original,
            ErrorBound::Relative(EPSILON),
            Shape::d3(CHUNK, CHUNK, CHUNK),
            ctx.t,
        )
        .map_err(es("create_on"))?;
        let reader = ArrayReader::<f32>::serve(
            &store,
            ReaderConfig {
                threads: ctx.t,
                ..ReaderConfig::default()
            },
        )
        .map_err(es("serve"))?;
        // Pre-warm: every chunk decoded into the cache.
        reader.read_region(&whole()).map_err(es("pre-warm"))?;
        let mut setup = Self {
            abs: EPSILON * original.value_range(),
            oracle: original.clone(),
            original,
            store,
            reader,
            registry,
            cycles: update_cycles(ctx.seed, SIDE, CHUNK, ROUND),
            codec,
            t: ctx.t,
        };
        // Warm-up round; it also brings the store to the state every
        // later round starts from (the schedule repeats per round).
        let mut tr = Tracer::off();
        for i in 0..ROUND as u64 {
            setup.cycle(i, Self::ends_round(i), &mut tr, Instant::now())?;
        }
        Ok(setup)
    }

    /// The slab a cycle publishes: the original samples times the
    /// cycle's seeded scale.
    fn slab_data(&self, c: &UpdateCycle) -> NdArray<f32> {
        let mut data = gather(&self.original, &c.slab.region());
        for v in data.as_mut_slice() {
            *v = (f64::from(*v) * c.scale) as f32;
        }
        data
    }

    /// Whether cycle `i` ends its round (and so compacts).
    fn ends_round(i: u64) -> bool {
        (i + 1).is_multiple_of(ROUND as u64)
    }

    /// One cycle. Buffers and the slab are made outside the timed span;
    /// the oracle is updated after it.
    fn cycle(
        &mut self,
        i: u64,
        compacts: bool,
        tr: &mut Tracer,
        epoch: Instant,
    ) -> Result<(Sample, CycleReport), String> {
        let c = self.cycles[i as usize % ROUND].clone();
        let (slab, overlap, disjoint) = (c.slab.region(), c.overlap.region(), c.disjoint.region());
        let data = self.slab_data(&c);
        let mut overlap_buf = NdArray::<f32>::zeros(overlap.shape());
        let mut disjoint_buf = NdArray::<f32>::zeros(disjoint.shape());

        let t0 = Instant::now();
        let root = tr.begin("op.update_cycle", 0, i);
        // `MutableStore::update_region`, step by step.
        let s = tr.begin("store.stage_region", root, i);
        let mut writer = self.store.writer().map_err(es("writer"))?;
        writer
            .stage_region(&slab, &data, self.t)
            .map_err(es("stage_region"))?;
        tr.end(s);
        let s = tr.begin("store.prepare", root, i);
        let ops = writer.prepare().map_err(es("prepare"))?;
        tr.end(s);
        let s = tr.begin("store.apply", root, i);
        let update = self.store.apply(ops).map_err(es("apply"))?;
        tr.end(s);
        let s = tr.begin("serve.refresh_from", root, i);
        let refresh = self
            .reader
            .refresh_from(&self.store)
            .map_err(es("refresh_from"))?;
        tr.end(s);
        let s = tr.begin("serve.read_overlap", root, i);
        let overlap_stats = self
            .reader
            .read_region_into(&overlap, &mut overlap_buf)
            .map_err(es("overlapping read"))?;
        tr.end(s);
        let s = tr.begin("serve.read_disjoint", root, i);
        let disjoint_stats = self
            .reader
            .read_region_into(&disjoint, &mut disjoint_buf)
            .map_err(es("disjoint read"))?;
        tr.end(s);
        let compact = if compacts {
            let s = tr.begin("store.compact", root, i);
            let stats = self.store.compact().map_err(es("compact"))?;
            tr.end(s);
            Some(stats)
        } else {
            None
        };
        tr.end(root);
        let dur_ns = t0.elapsed().as_nanos() as u64;

        scatter_chunk(&data, &slab, &whole(), &mut self.oracle);
        let appended = update.object_bytes + update.manifest_bytes;
        let sample = Sample {
            class: 0,
            end_ns: epoch.elapsed().as_nanos() as u64,
            dur_ns,
            raw_bytes: (data.nbytes() + overlap_buf.nbytes() + disjoint_buf.nbytes()) as u64,
            io_joules: pfs_write_joules(appended, update.chunks_written as u32 + 1)
                + compact.map_or(0.0, |c| pfs_write_joules(c.after_bytes, 1)),
        };
        let report = CycleReport {
            update,
            refresh,
            overlap: overlap_stats,
            disjoint: disjoint_stats,
            compact,
            overlap_buf,
            disjoint_buf,
        };
        Ok((sample, report))
    }

    /// Holds a cycle's reads and cache behaviour to the oracle.
    fn check(&self, i: u64, r: &CycleReport, out: &mut Outcome) {
        let c = &self.cycles[i as usize % ROUND];
        out.check(r.update.chunks_written == SLAB_CHUNKS, || {
            format!(
                "cycle {i}: published {} chunks, the slab holds {SLAB_CHUNKS}",
                r.update.chunks_written
            )
        });
        out.check(r.refresh.invalidated == SLAB_CHUNKS, || {
            format!(
                "cycle {i}: refresh invalidated {} cached chunks, not {SLAB_CHUNKS}",
                r.refresh.invalidated
            )
        });
        let redecoded = r.overlap.chunks_touched - r.overlap.chunks_from_cache;
        out.check(redecoded == SLAB_CHUNKS && r.overlap.partial_decodes == 0, || {
            format!("cycle {i}: overlapping read decoded {redecoded} chunks ({} partial), not the {SLAB_CHUNKS} invalidated", r.overlap.partial_decodes)
        });
        out.check(
            r.disjoint.chunks_from_cache == r.disjoint.chunks_touched,
            || {
                format!(
                    "cycle {i}: disjoint read decoded {} chunks, expected none",
                    r.disjoint.chunks_touched - r.disjoint.chunks_from_cache
                )
            },
        );
        // Slabs replace whole chunks from exact values, so the
        // (k+1)·ε drift bound holds with k = 0.
        for (b, buf) in [(&c.overlap, &r.overlap_buf), (&c.disjoint, &r.disjoint_buf)] {
            let want = gather(&self.oracle, &b.region());
            let worst = want
                .as_slice()
                .iter()
                .zip(buf.as_slice())
                .map(|(a, g)| (f64::from(*a) - f64::from(*g)).abs())
                .fold(0.0, f64::max);
            out.check(worst <= self.abs * (1.0 + 1e-6), || {
                format!(
                    "cycle {i} box {:?}: max error {worst:e} exceeds {:e}",
                    b.origin, self.abs
                )
            });
        }
    }

    /// The store read back whole, outside the reader and its cache.
    fn read_back(&self) -> Result<NdArray<f32>, String> {
        self.store
            .current()
            .and_then(|s| s.read_full::<f32>(self.t))
            .map_err(es("read back"))
    }

    /// Whole rounds until `seconds` have passed; the last cycle of each
    /// round (the compacting one) is checked.
    fn window(
        &mut self,
        seconds: f64,
        tr: &mut Tracer,
        out: &mut Outcome,
    ) -> Result<Window, String> {
        let epoch = Instant::now();
        let mut samples = Vec::new();
        let mut i = 0u64;
        while epoch.elapsed().as_secs_f64() < seconds || !i.is_multiple_of(ROUND as u64) {
            let (sample, report) = self.cycle(i, Self::ends_round(i), tr, epoch)?;
            samples.push(sample);
            out.attempt(None);
            if report.compact.is_some() {
                self.check(i, &report, out);
            }
            i += 1;
        }
        Ok(Window {
            samples,
            clients: 1,
            unit: ROUND,
            wall_s: epoch.elapsed().as_secs_f64(),
        })
    }
}

/// One round with every cycle checked and the bytes read back identical
/// across the compaction; the layers' exact counts come from this pass.
fn checked_pass(s: &mut Setup, out: &mut Outcome) -> Result<(), String> {
    let raw = s.original.nbytes() as f64;
    let io0 = StorageTotals::read(&s.registry);
    let reader0 = s.reader.stats();
    let (mut appended, mut manifest, mut invalidated, mut stored, mut updated) =
        (0u64, 0u64, 0usize, 0.0, 0usize);
    let mut delivered = 0usize;
    let mut tr = Tracer::off();
    for i in 0..ROUND as u64 {
        // The round's compaction is done below, between two read-backs.
        let (_, report) = s.cycle(i, false, &mut tr, Instant::now())?;
        out.attempt(None);
        s.check(i, &report, out);
        appended += report.update.object_bytes + report.update.manifest_bytes;
        manifest += report.update.manifest_bytes;
        invalidated += report.refresh.invalidated;
        stored += report.update.file_bytes as f64 / raw;
        updated += s.cycles[i as usize].slab.len() * 4;
        delivered += report.overlap_buf.nbytes() + report.disjoint_buf.nbytes();
    }
    // PSNR over the whole array as stored at the end of the round (over
    // the boxes read it would follow where the seeded boxes fall in
    // NYX's peaky density).
    let before = s.read_back()?;
    let stored_sq: f64 = s
        .oracle
        .as_slice()
        .iter()
        .zip(before.as_slice())
        .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
        .sum();
    let compact = s.store.compact().map_err(es("compact"))?;
    out.check(s.read_back()?.as_slice() == before.as_slice(), || {
        "bytes read back differ across compact()".to_string()
    });
    out.put(
        "store.compact_bytes_rewritten",
        compact.after_bytes as f64,
        "B",
    );
    out.put("store.dead_bytes", compact.reclaimed_bytes as f64, "B");
    let io = StorageTotals::read(&s.registry).since(io0);
    let reader = s.reader.stats();
    let rounds = ROUND as f64;
    out.put("stored_bytes_per_raw_byte", stored / rounds, "B/B");
    out.put(
        "psnr_db",
        psnr_db(stored_sq, before.len() as u64, s.original.value_range()),
        "dB",
    );
    out.put(
        &codec_metric("codec.cr", CompressorId::Szx),
        raw / s
            .store
            .current()
            .map_err(es("current"))?
            .chunk_lens()
            .iter()
            .sum::<u64>() as f64,
        "ratio",
    );
    out.put(
        "store.append_bytes_per_update",
        appended as f64 / rounds,
        "B",
    );
    out.put("store.manifest_bytes", manifest as f64 / rounds, "B");
    out.put(
        "store.write_amplification",
        io.write_bytes as f64 / updated as f64,
        "ratio",
    );
    out.put(
        "storage.set_bytes_per_op",
        io.write_bytes as f64 / rounds,
        "B",
    );
    out.put(
        "storage.get_calls_per_op",
        io.get_calls as f64 / rounds,
        "count",
    );
    out.put(
        "storage.get_range_calls_per_op",
        io.get_range_calls as f64 / rounds,
        "count",
    );
    out.put(
        "storage.get_bytes_per_op",
        io.read_bytes as f64 / rounds,
        "B",
    );
    out.put(
        "serve.invalidations_per_refresh",
        invalidated as f64 / rounds,
        "count",
    );
    put_reader_counts(&reader0, &reader, rounds, delivered as f64, out);
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (mut s, first_setup_s) = timed(|| Setup::build(ctx))?;
    let mut out = Outcome::default();
    if ctx.trace {
        out.metrics = crate::report::per_layer_zeros();
    }
    checked_pass(&mut s, &mut out)?;
    if ctx.trace {
        traced(ctx, &mut s, &mut out)?;
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

fn traced(ctx: &Ctx, s: &mut Setup, out: &mut Outcome) -> Result<(), String> {
    let io0 = StorageTotals::read(&s.registry);
    let base = base_slice(ctx, out, |seconds, out| {
        s.window(seconds, &mut Tracer::off(), out)
    })?;
    let io = StorageTotals::read(&s.registry).since(io0);
    out.put("storage.set_s", io.write_s / base.samples.len() as f64, "s");
    out.put("storage.get_s", io.get_s / base.samples.len() as f64, "s");

    // Traced slice. The steps of a cycle follow one another, so their
    // spans (not a ladder) give the store and serve times per cycle.
    let mut tr = Tracer::on(Instant::now(), 0);
    let traced = s.window(ctx.seconds * SLICE_SHARE, &mut tr, out)?;
    let spans = tr.into_spans();
    traced_slice(ctx, "update_while_serving", &base, &traced, &spans, out)?;
    let own = trace::self_times(&spans);
    let cycles = traced.samples.len() as f64;
    let total = |name: &str| own.get(name).map_or(0.0, |e| e.1);
    let mean = |name: &str| own.get(name).map_or(0.0, |e| e.1 / e.0 as f64);
    out.put(
        "store.publish_s",
        (total("store.prepare") + total("store.apply")) / cycles,
        "s",
    );
    out.put("store.compact_s", mean("store.compact"), "s");
    out.put("serve.refresh_s", mean("serve.refresh_from"), "s");
    out.put("serve.assemble_self_s", mean("serve.read_disjoint"), "s");
    let in_store = [
        "store.stage_region",
        "store.prepare",
        "store.apply",
        "store.compact",
    ]
    .iter()
    .map(|n| total(n))
    .sum::<f64>();
    let in_ops: f64 = traced.samples.iter().map(|x| x.dur_ns as f64 * 1e-9).sum();
    out.put("trace.primary_layer_share", in_store / in_ops, "ratio");

    // Ladders over the parts of a cycle that leave the store untouched:
    // stage_region ⊃ compress_view ⊃ encode_array, and the store's
    // chunk decode ⊃ decompress ⊃ decode_array for the slab's chunks.
    let snapshot = s.store.current().map_err(es("current"))?;
    let slabs: Vec<(Region, NdArray<f32>)> = s
        .cycles
        .iter()
        .take(LADDER_OPS)
        .map(|c| (c.slab.region(), s.slab_data(c)))
        .collect();
    let slab_chunks: Vec<NdArray<f32>> = slabs
        .iter()
        .flat_map(|(region, _)| {
            snapshot
                .grid()
                .chunks_intersecting(region)
                .into_iter()
                .map(|i| gather(&s.oracle, &snapshot.grid().chunk_region(i)))
        })
        .collect();
    let chunk_refs: Vec<&NdArray<f32>> = slab_chunks.iter().collect();
    let plans: Vec<(Region, Vec<ChunkNeed>)> = slabs
        .iter()
        .map(|(region, _)| {
            let plan = snapshot
                .grid()
                .chunks_intersecting(region)
                .into_iter()
                .map(|chunk| ChunkNeed { chunk, part: None })
                .collect();
            (*region, plan)
        })
        .collect();
    let mut l = Ladder::new(1, LADDER_OPS);
    let r_stage = l.rung("store.stage_region", None);
    let r_enc = l.rung("codec.compress_view", Some(r_stage));
    let r_enc_array = l.rung("codec.array_stage_encode", Some(r_enc));
    let r_dec = l.rung("store.decode_chunks", None);
    let r_dec_codec = l.rung("codec.decompress", Some(r_dec));
    let r_dec_array = l.rung("codec.array_stage_decode", Some(r_dec_codec));
    ladder_passes(ctx, 1, |_| {
        l.time(r_stage, 0, || {
            slabs.iter().try_for_each(|(region, data)| {
                let mut w = s.store.writer().map_err(es("writer"))?;
                w.stage_region(region, data, ctx.t)
                    .map(drop)
                    .map_err(es("stage_region"))
            })
        })?;
        l.time(r_enc, 0, || {
            layers::codec_encode(s.codec.as_ref(), &chunk_refs, s.abs, ctx.t).map(drop)
        })?;
        let (array_s, _) = layers::stage_encode(CompressorId::Szx, &chunk_refs, s.abs, ctx.t)?;
        l.record(r_enc_array, 0, array_s);
        l.time(r_dec, 0, || {
            plans.iter().try_for_each(|(region, plan)| {
                layers::store_decode::<f32>(&snapshot, s.codec.as_ref(), region, plan, ctx.t)
            })
        })?;
        let payloads = plans
            .iter()
            .map(|(_, plan)| layers::payloads(&snapshot, plan))
            .collect::<Result<Vec<_>, _>>()?;
        l.time(r_dec_codec, 0, || {
            payloads
                .iter()
                .try_for_each(|p| layers::codec_decode::<f32>(s.codec.as_ref(), p, ctx.t))
        })?;
        let mut array_s = 0.0;
        for p in &payloads {
            array_s += layers::stage_decode::<f32>(CompressorId::Szx, p, ctx.t)?.1;
        }
        l.record(r_dec_array, 0, array_s);
        Ok(())
    })?;
    let rung_own = l.self_per_op();
    out.put("store.update_self_s", rung_own[r_stage], "s");
    out.put("store.read_region_self_s", rung_own[r_dec], "s");
    out.put("codec.array_stage_encode_s", l.per_op(r_enc_array), "s");
    out.put("codec.array_stage_decode_s", l.per_op(r_dec_array), "s");
    put_ladder_check(&l, out);

    // Single-thread SZx rates on the workload's own chunks.
    layers::put_codec_rates(
        &s.original,
        Shape::d3(CHUNK, CHUNK, CHUNK),
        &[(s.codec.as_ref(), CompressorId::Szx)],
        s.abs,
        &mut out.metrics,
    )?;
    layers::put_ceilings(&layers::ceilings(&ctx.scratch)?, &mut out.metrics);
    Ok(())
}
