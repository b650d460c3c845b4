//! The four workloads. Each drives the stack only through public
//! functions, in a closed loop (the store API and `DaemonClient` are
//! synchronous callers that wait for their reply).
//!
//! A run is: set-up (ending in one untimed warm-up round), one *checked
//! pass* over a fixed op list (outputs verified, exact counts taken),
//! the timed window, and last the set-up repeats behind `setup_s`. A
//! traced run replaces the window with four shorter phases — an
//! untraced slice, the same slice with spans, the ladder, and the
//! single-thread probes and ceilings.

use crate::harness::{Ctx, Outcome, Window};
use crate::trace::{self, Ladder, Span};
use eblcio_energy::rapl::{RaplMeter, RaplSnapshot};
use eblcio_serve::ReaderStats;
use std::time::Instant;

pub mod cold_region_read;
pub mod dump_write;
pub mod update_while_serving;
pub mod warm_serve;

pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "dump_write" => dump_write::run(ctx),
        "cold_region_read" => cold_region_read::run(ctx),
        "warm_serve" => warm_serve::run(ctx),
        "update_while_serving" => update_while_serving::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Share of `--seconds` each replay slice of a traced run gets.
pub const SLICE_SHARE: f64 = 0.2;
/// Share of `--seconds` the ladder may use beyond its minimum passes.
pub const LADDER_SHARE: f64 = 0.4;
/// Fewest ladder passes per op group.
pub const LADDER_MIN_PASSES: usize = 3;
/// Most negative self time, as a share of the outer rung, a ladder may
/// show before the traced run counts as failed.
pub const LADDER_MIN_SELF: f64 = -0.05;

/// Runs ladder passes, group after group, until both the minimum count
/// and the time share are spent.
pub fn ladder_passes(
    ctx: &Ctx,
    groups: usize,
    mut pass: impl FnMut(usize) -> Result<(), String>,
) -> Result<(), String> {
    let t0 = Instant::now();
    let mut done = 0;
    while done < LADDER_MIN_PASSES || t0.elapsed().as_secs_f64() < ctx.seconds * LADDER_SHARE {
        (0..groups).try_for_each(&mut pass)?;
        done += 1;
    }
    Ok(())
}

/// RAPL counters around a slice, where `/sys/class/powercap` is
/// readable; reported beside the modelled joules, never gated.
pub struct Rapl(Option<(RaplMeter, RaplSnapshot)>);

impl Rapl {
    pub fn start() -> Self {
        Self(RaplMeter::discover().and_then(|m| m.snapshot().ok().map(|s| (m, s))))
    }

    pub fn finish(self, raw_gb: f64, out: &mut Outcome) {
        if let Some((meter, start)) = self.0 {
            if let Ok(end) = meter.snapshot() {
                out.put("energy.rapl_available", 1.0, "count");
                out.put(
                    "energy.rapl_joules_per_gb",
                    meter.energy_between(&start, &end).value() / raw_gb,
                    "J/GB",
                );
            }
        }
    }
}

/// Runs the untraced slice of a traced run between RAPL snapshots and
/// reports its client-side and energy layer metrics.
pub fn base_slice(
    ctx: &Ctx,
    out: &mut Outcome,
    window: impl FnOnce(f64, &mut Outcome) -> Result<Window, String>,
) -> Result<Window, String> {
    let rapl = Rapl::start();
    let mut base = window(ctx.seconds * SLICE_SHARE, out)?;
    base.sort();
    let raw_gb = base.samples.iter().map(|s| s.raw_bytes).sum::<u64>() as f64 / 1e9;
    rapl.finish(raw_gb, out);
    let stats = base.stats(ctx.t);
    out.put("client.op_p99_ms", stats.op_p99_ms, "ms");
    out.put("client.op_max_ms", stats.op_max_ms, "ms");
    out.put("client.samples", base.samples.len() as f64, "count");
    out.put("client.window_spread", stats.window_spread, "ratio");
    out.put(
        "energy.compute_joules_per_gb",
        stats.compute_joules_per_gb,
        "J/GB",
    );
    out.put("energy.io_joules_per_gb", stats.io_joules_per_gb, "J/GB");
    out.window_ops = base.samples.len() as u64;
    out.window_wall_s = base.wall_s;
    Ok(base)
}

/// Reports the traced slice against the untraced one and writes the
/// span file.
pub fn traced_slice(
    ctx: &Ctx,
    workload: &str,
    base: &Window,
    traced: &Window,
    spans: &[Span],
    out: &mut Outcome,
) -> Result<(), String> {
    out.put("trace.spans", spans.len() as f64, "count");
    out.put(
        "trace.overhead_fraction",
        traced.median_latency_ms() / base.median_latency_ms() - 1.0,
        "ratio",
    );
    trace::write_jsonl(&ctx.out_dir.join(format!("trace-{workload}.jsonl")), spans)
        .map_err(|e| format!("span file: {e}"))
}

/// Prints the ladder and reports its honesty check. Self times sum to
/// the outer rung by construction, so what can go wrong is a rung that
/// costs more than the rung said to contain it: below −5 % of the outer
/// rung, the traced run fails.
pub fn put_ladder_check(ladder: &Ladder, out: &mut Outcome) {
    for (i, (r, own)) in ladder.rungs.iter().zip(ladder.self_per_op()).enumerate() {
        eprintln!(
            "ladder: {:<34} {:>10.6} s/op, self {:>10.6} s/op, {} passes",
            r.name,
            ladder.per_op(i),
            own,
            r.passes.first().map_or(0, Vec::len)
        );
    }
    let worst = ladder.min_self_fraction();
    out.put("trace.ladder_min_self_fraction", worst, "ratio");
    out.check(worst >= LADDER_MIN_SELF, || {
        format!("a ladder self time is {worst:.3} of the outer rung, below {LADDER_MIN_SELF}")
    });
}

/// The serve layer's exact counts over a checked pass of `ops` ops that
/// delivered `delivered_bytes`: what the reader's counters gained
/// between `before` and `after`.
pub fn put_reader_counts(
    before: &ReaderStats,
    after: &ReaderStats,
    ops: f64,
    delivered_bytes: f64,
    out: &mut Outcome,
) {
    let hits = after.cache_hits - before.cache_hits;
    let probes = hits + (after.cache_misses - before.cache_misses);
    let partial = after.partial_decodes - before.partial_decodes;
    let decodes = (after.decodes - before.decodes) + partial;
    let decoded = after.decoded_bytes - before.decoded_bytes;
    out.put(
        "serve.hit_rate",
        hits as f64 / probes.max(1) as f64,
        "ratio",
    );
    out.put("serve.decodes_per_op", decodes as f64 / ops, "count");
    out.put(
        "serve.partial_decodes_per_op",
        partial as f64 / ops,
        "count",
    );
    out.put(
        "serve.decoded_bytes_per_delivered_byte",
        decoded as f64 / delivered_bytes,
        "ratio",
    );
    out.put(
        "serve.evictions",
        (after.evictions - before.evictions) as f64,
        "count",
    );
    out.put(
        "serve.flight_waits",
        (after.flight_waits - before.flight_waits) as f64,
        "count",
    );
}
