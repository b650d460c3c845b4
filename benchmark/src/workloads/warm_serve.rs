//! `warm_serve`: `T` `DaemonClient` connections against an in-process
//! `Daemon` (`T` workers, queue 64) over an SZ3 CESM-like f32 store
//! whose 6.7 MB of decoded chunks fit the 256 MiB default cache and are
//! pre-warmed. One op is one seeded 1 MiB non-aligned `read_region`
//! (one size class, so latency is unimodal). Every probe hits: daemon,
//! wire and serve assembly do all the work; codec and storage none. The
//! daemon shares the `T` cores with its clients.

use super::{
    base_slice, ladder_passes, put_ladder_check, put_reader_counts, traced_slice, SLICE_SHARE,
};
use crate::alloc_count::allocations;
use crate::harness::{
    es, median_setup_s, peak_rss_mb, psnr_db, put_window_e2e, timed, Ctx, Outcome, Sample, Window,
    EPSILON,
};
use crate::layers::{self, codec_metric};
use crate::schedule::{box_pool, BoxSpec, Rng};
use crate::stats::median;
use crate::trace::{Ladder, Span, Tracer};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_daemon::{AnyReader, Daemon, DaemonClient, DaemonConfig, RegionSpec, Reply};
use eblcio_data::{DatasetKind, NdArray, Shape};
use eblcio_obs::MetricsRegistry;
use eblcio_serve::{ArrayReader, ReaderConfig};
use eblcio_store::{gather, ChunkedStore, Region};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SHAPE: [usize; 3] = [26, 180, 360];
const CHUNK: [usize; 3] = [13, 45, 90];
/// 8 × 128 × 256 f32 samples: 1 MiB.
const EXTENT: [usize; 3] = [8, 128, 256];
const CHUNKS_PER_SHARD: usize = 8;
const BOX_POOL: usize = 64;
const QUEUE_DEPTH: usize = 64;
/// Window ops re-checked against the in-process reader.
const RECHECK_EVERY: u64 = 64;
/// Boxes each ladder pass covers.
const LADDER_OPS: usize = 32;
/// One-sample round trips behind `daemon.small_rtt_us`.
const SMALL_RTTS: usize = 200;

struct Setup {
    // Declared (and so dropped) before the daemon they talk to.
    clients: Vec<DaemonClient>,
    daemon: Daemon,
    /// The served reader's registry: reader and daemon counters.
    registry: Arc<MetricsRegistry>,
    /// A second reader over the same stream, for expected bytes and the
    /// in-process rungs.
    oracle: AnyReader,
    field: NdArray<f32>,
    stream_bytes: usize,
    boxes: Vec<BoxSpec>,
    seed: u64,
}

/// What one client thread brings back from a window.
#[derive(Default)]
struct Lane {
    samples: Vec<Sample>,
    errors: Vec<String>,
    mismatches: Vec<String>,
    spans: Vec<Span>,
}

fn spec_of(b: &BoxSpec) -> RegionSpec {
    RegionSpec::from(&b.region())
}

impl Setup {
    fn build(ctx: &Ctx) -> Result<Self, String> {
        let field = layers::field_f32(DatasetKind::Cesm)?;
        let stream = ChunkedStore::write_sharded(
            CompressorId::Sz3.instance().as_ref(),
            &field,
            ErrorBound::Relative(EPSILON),
            Shape::new(&CHUNK),
            CHUNKS_PER_SHARD,
            ctx.t,
        )
        .map_err(es("write_sharded"))?;
        let config = ReaderConfig {
            threads: ctx.t,
            ..ReaderConfig::default()
        };
        let open = || AnyReader::open(&stream, config).map_err(es("open reader"));
        let (served, oracle) = (open()?, open()?);
        // Pre-warm: every chunk decoded into both caches.
        let full = Region::full(field.shape());
        for r in [&served, &oracle] {
            r.read_region_data(&full).map_err(es("pre-warm"))?;
        }
        let registry = served.metrics().clone();
        let daemon = Daemon::start(
            served,
            DaemonConfig {
                workers: ctx.t,
                queue_depth: QUEUE_DEPTH,
                ..DaemonConfig::default()
            },
            "127.0.0.1:0",
        )
        .map_err(es("daemon start"))?;
        let clients = (0..ctx.t)
            .map(|_| DaemonClient::connect(daemon.local_addr()).map_err(es("connect")))
            .collect::<Result<Vec<_>, _>>()?;
        let mut setup = Self {
            clients,
            daemon,
            registry,
            oracle,
            field,
            stream_bytes: stream.len(),
            boxes: box_pool(ctx.seed, 0x5E4E, &SHAPE, &EXTENT, &CHUNK, BOX_POOL),
            seed: ctx.seed,
        };
        // Warm-up round: sockets, worker threads, reply buffers.
        for k in 0..setup.clients.len() {
            for b in setup.boxes.iter().take(8) {
                setup.clients[k]
                    .read_region(&spec_of(b))
                    .map_err(es("warm-up read"))?;
            }
        }
        Ok(setup)
    }

    fn typed(&self) -> Result<&ArrayReader<f32>, String> {
        match &self.oracle {
            AnyReader::F32(r) => Ok(r),
            AnyReader::F64(_) => Err("CESM store opened as f64".into()),
        }
    }

    /// `T` closed-loop clients for `seconds`, each walking the box pool
    /// from its own seeded offset.
    fn window(
        &mut self,
        seconds: f64,
        traced: bool,
        out: &mut Outcome,
    ) -> Result<(Window, Vec<Span>), String> {
        let epoch = Instant::now();
        let (boxes, oracle, seed) = (&self.boxes, &self.oracle, self.seed);
        let lanes: Vec<Lane> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(k, client)| {
                    scope.spawn(move || {
                        let mut tr = if traced {
                            Tracer::on(epoch, k as u64)
                        } else {
                            Tracer::off()
                        };
                        let mut lane = Lane::default();
                        let offset = Rng::new(seed, k as u64).below(boxes.len());
                        let mut j = 0u64;
                        while epoch.elapsed().as_secs_f64() < seconds {
                            let b = &boxes[(offset + j as usize) % boxes.len()];
                            let spec = spec_of(b);
                            let op = ((k as u64) << 32) | j;
                            let t0 = Instant::now();
                            let root = tr.begin("op.warm_serve", 0, op);
                            let s = tr.begin("daemon.client.read_region", root, op);
                            let reply = client.read_region(&spec);
                            tr.end(s);
                            tr.end(root);
                            let dur_ns = t0.elapsed().as_nanos() as u64;
                            match reply {
                                Ok(data) => {
                                    lane.samples.push(Sample {
                                        class: 0,
                                        end_ns: epoch.elapsed().as_nanos() as u64,
                                        dur_ns,
                                        raw_bytes: data.bytes.len() as u64,
                                        io_joules: 0.0,
                                    });
                                    // The checked pass saw every box; re-check a sample.
                                    if j.is_multiple_of(RECHECK_EVERY) {
                                        match oracle.read_region_data(&b.region()) {
                                            Ok(want) if want == data => {}
                                            Ok(_) => lane.mismatches.push(format!(
                                                "box {:?}: reply differs from the in-process read",
                                                b.origin
                                            )),
                                            Err(e) => lane
                                                .mismatches
                                                .push(format!("in-process read: {e}")),
                                        }
                                    }
                                }
                                // Refused (`Overloaded`) and failed alike.
                                Err(e) => lane.errors.push(format!("client {k} op {j}: {e}")),
                            }
                            j += 1;
                        }
                        lane.spans = tr.into_spans();
                        lane
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = epoch.elapsed().as_secs_f64();
        let clients = lanes.len();
        let (mut samples, mut spans) = (Vec::new(), Vec::new());
        for lane in lanes {
            out.attempted += (lane.samples.len() + lane.errors.len()) as u64;
            lane.errors
                .into_iter()
                .chain(lane.mismatches)
                .for_each(|e| out.fail(e));
            samples.extend(lane.samples);
            spans.extend(lane.spans);
        }
        if samples.is_empty() {
            return Err("no op of the window succeeded".into());
        }
        Ok((
            Window {
                samples,
                clients,
                unit: 1,
                wall_s,
            },
            spans,
        ))
    }
}

/// Client 0 reads every box of the pool once; each reply must equal the
/// in-process read byte for byte and sit within the bound of the field.
fn checked_pass(s: &mut Setup, out: &mut Outcome) -> Result<(), String> {
    let abs = EPSILON * s.field.value_range();
    let (open, want) = (s.daemon.active_connections(), s.clients.len());
    out.check(open == want, || {
        format!("daemon holds {open} connections, the benchmark opened {want}")
    });
    let before = s.clients[0].stats().map_err(es("stats"))?;
    let mut sq = 0.0;
    let mut samples = 0u64;
    for b in &s.boxes {
        let reply = s.clients[0].read_region(&spec_of(b));
        out.attempt(reply.as_ref().err().map(|e| format!("read_region: {e}")));
        let Ok(data) = reply else { continue };
        let want = s
            .oracle
            .read_region_data(&b.region())
            .map_err(es("in-process read"))?;
        out.check(want == data, || {
            format!("box {:?}: reply differs from the in-process read", b.origin)
        });
        let original = gather(&s.field, &b.region());
        let got = data.as_f32().ok_or("reply is not f32")?;
        let mut worst = 0.0f64;
        for (a, g) in original.as_slice().iter().zip(&got) {
            let e = (f64::from(*a) - f64::from(*g)).abs();
            worst = worst.max(e);
            sq += e * e;
        }
        samples += got.len() as u64;
        out.check(worst <= abs * (1.0 + 1e-6), || {
            format!("box {:?}: max error {worst:e} exceeds {abs:e}", b.origin)
        });
    }
    let after = s.clients[0].stats().map_err(es("stats"))?;
    let n = s.boxes.len() as f64;
    out.put(
        "stored_bytes_per_raw_byte",
        s.stream_bytes as f64 / s.field.nbytes() as f64,
        "B/B",
    );
    out.put(
        "psnr_db",
        psnr_db(sq, samples.max(1), s.field.value_range()),
        "dB",
    );
    out.put(
        &codec_metric("codec.cr", CompressorId::Sz3),
        s.field.nbytes() as f64 / s.stream_bytes as f64,
        "ratio",
    );
    put_reader_counts(&before, &after, n, (samples.max(1) * 4) as f64, out);
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
        let (mut w, _) = s.window(ctx.seconds, false, &mut out)?;
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
    let registry = s.registry.clone();
    let counter = |name: &str| registry.counter(name).get();
    let failed0 = out.failed;
    let served0 = s.clients[0].stats().map_err(es("stats"))?;
    let base = base_slice(ctx, out, |seconds, out| {
        s.window(seconds, false, out).map(|w| w.0)
    })?;
    let served = s.clients[0].stats().map_err(es("stats"))?;
    let base_mbps = base.stats(ctx.t).throughput_mbps;
    out.put("daemon.errors", (out.failed - failed0) as f64, "count");
    // Whatever of the ops' time was not codec decode belongs to the
    // daemon, its wire and serve assembly (there is no storage here).
    let in_ops: f64 = base.samples.iter().map(|x| x.dur_ns as f64 * 1e-9).sum();
    out.put(
        "trace.primary_layer_share",
        1.0 - (served.decode_seconds - served0.decode_seconds) / in_ops,
        "ratio",
    );

    let (traced, spans) = s.window(ctx.seconds * SLICE_SHARE, true, out)?;
    traced_slice(ctx, "warm_serve", &base, &traced, &spans, out)?;
    out.put(
        "daemon.requests_total",
        counter("eblcio_daemon_requests_total") as f64,
        "count",
    );
    out.put(
        "daemon.overloaded",
        counter("eblcio_daemon_overloaded_total") as f64,
        "count",
    );

    // Ladder, one client: DaemonClient::read_region ⊃
    // AnyReader::read_region_data ⊃ ArrayReader::read_region_into.
    let regions: Vec<Region> = s
        .boxes
        .iter()
        .take(LADDER_OPS)
        .map(BoxSpec::region)
        .collect();
    let specs: Vec<RegionSpec> = regions.iter().map(RegionSpec::from).collect();
    let mut buf = NdArray::<f32>::zeros(Shape::new(&EXTENT));
    let mut l = Ladder::new(1, LADDER_OPS);
    let r_client = l.rung("daemon.client.read_region", None);
    let r_any = l.rung("serve.any.read_region_data", Some(r_client));
    let r_into = l.rung("serve.read_region_into", Some(r_any));
    let (mut wire_allocs, mut warm_allocs) = (Vec::new(), Vec::new());
    ladder_passes(ctx, 1, |_| {
        let a0 = allocations();
        l.time(r_client, 0, || {
            specs.iter().try_for_each(|sp| {
                s.clients[0]
                    .read_region(sp)
                    .map(|d| drop(black_box(d)))
                    .map_err(es("read_region"))
            })
        })?;
        wire_allocs.push((allocations() - a0) as f64 / LADDER_OPS as f64);
        l.time(r_any, 0, || {
            regions.iter().try_for_each(|r| {
                s.oracle
                    .read_region_data(r)
                    .map(|d| drop(black_box(d)))
                    .map_err(es("read_region_data"))
            })
        })?;
        let typed = s.typed()?;
        let a0 = allocations();
        l.time(r_into, 0, || {
            regions.iter().try_for_each(|r| {
                typed
                    .read_region_into(r, &mut buf)
                    .map(drop)
                    .map_err(es("read_region_into"))
            })
        })?;
        warm_allocs.push((allocations() - a0) as f64 / LADDER_OPS as f64);
        Ok(())
    })?;
    let own = l.self_per_op();
    let ceilings = layers::ceilings(&ctx.scratch)?;
    let warm_mbps = buf.nbytes() as f64 / 1e6 / l.per_op(r_into);
    out.put("daemon.wire_self_s", own[r_client], "s");
    out.put("serve.assemble_self_s", l.per_op(r_into), "s");
    out.put("serve.warm_region_mbps", warm_mbps, "MB/s");
    out.put(
        "serve.warm_region_memcpy_fraction",
        warm_mbps / ceilings.memcpy_mbps,
        "ratio",
    );
    out.put("serve.allocs_per_warm_op", median(&warm_allocs), "count");
    out.put("daemon.allocs_per_op", median(&wire_allocs), "count");
    out.put(
        "daemon.loopback_fraction",
        base_mbps / ceilings.loopback_mbps,
        "ratio",
    );
    put_ladder_check(&l, out);
    layers::put_ceilings(&ceilings, &mut out.metrics);

    // Reply framing on its own, and the fixed per-request floor.
    let replies: Vec<Reply> = regions
        .iter()
        .map(|r| {
            s.oracle
                .read_region_data(r)
                .map(Reply::Data)
                .map_err(es("read_region_data"))
        })
        .collect::<Result<_, _>>()?;
    let t0 = Instant::now();
    let payloads: Vec<Vec<u8>> = replies.iter().map(Reply::encode).collect();
    out.put(
        "daemon.reply_encode_s",
        t0.elapsed().as_secs_f64() / LADDER_OPS as f64,
        "s",
    );
    let t0 = Instant::now();
    for p in &payloads {
        black_box(Reply::decode(p).map_err(es("reply decode"))?);
    }
    out.put(
        "daemon.reply_decode_s",
        t0.elapsed().as_secs_f64() / LADDER_OPS as f64,
        "s",
    );
    let one = RegionSpec::new(&[0, 0, 0], &[1, 1, 1]);
    let mut rtts = Vec::with_capacity(SMALL_RTTS);
    for _ in 0..SMALL_RTTS {
        let t0 = Instant::now();
        black_box(s.clients[0].read_region(&one).map_err(es("small read"))?);
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    out.put("daemon.small_rtt_us", median(&rtts), "us");
    Ok(())
}
