//! Telemetry overhead gate: proves that turning the `eblcio_obs`
//! layer on (spans + flight recorder; the metric histograms record
//! unconditionally either way) keeps the warm `read_region_into` hot
//! path within `GATE_PCT` percent of the telemetry-off baseline, and
//! exits 1 when it does not.
//!
//! This is not a `benchmark/` metric because it toggles
//! `eblcio_obs::set_enabled` inside one process; the benchmark's
//! `trace.overhead_fraction` prices the benchmark's own spans instead.
//!
//! The workload is the allocation-free serving loop `serve_alloc.rs`
//! pins down: one warm reader, a multi-chunk slab region (half the
//! leading dimension) fully resident in the decoded-chunk cache,
//! repeated `read_region_into` calls into a preallocated buffer. Both
//! arms run the identical loop; the only difference is
//! `eblcio_obs::set_enabled(true/false)`. The two arms are interleaved
//! rep-by-rep in short windows (`ITERS` calls per window, `REPS`
//! windows per arm) and each arm keeps its best window, so
//! machine-load drift hits both arms alike instead of masquerading as
//! telemetry cost.
//!
//! Knob: `EBLCIO_SCALE` = tiny|small|paper.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use eblcio_bench::scale_from_env;
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{DatasetKind, DatasetSpec, NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{ChunkedStore, Region};
use std::time::Instant;

const EPS: f64 = 1e-3;
/// Warm `read_region_into` calls per measured window.
const ITERS: usize = 200;
/// Windows per arm.
const REPS: usize = 50;
/// Largest tolerated telemetry-on cost over the baseline, in percent.
const GATE_PCT: f64 = 2.0;

/// Wall time of one window of `ITERS` warm `read_region_into` calls.
fn window(reader: &ArrayReader<f32>, region: &Region, out: &mut NdArray<f32>) -> f64 {
    let t0 = Instant::now();
    for _ in 0..ITERS {
        reader.read_region_into(region, out).expect("warm read");
    }
    t0.elapsed().as_secs_f64()
}

fn main() {
    let data = DatasetSpec::new(DatasetKind::Nyx, scale_from_env()).generate();
    let arr = data.as_f32();
    let shape = arr.shape();
    let chunk_shape = Shape::new(
        &shape
            .dims()
            .iter()
            .map(|&d| d.div_ceil(4).max(1))
            .collect::<Vec<_>>(),
    );
    let codec = CompressorId::Sz3.instance();
    let stream = ChunkedStore::write(codec.as_ref(), arr, ErrorBound::Relative(EPS), chunk_shape, 4)
        .expect("write store");
    let reader = ArrayReader::<f32>::open(
        &stream,
        ReaderConfig {
            cache: CacheConfig::with_capacity_mib(256),
            threads: 1,
            ..Default::default()
        },
    )
    .expect("reader");

    // A slab of half the leading dimension — a multi-chunk region —
    // decoded once up front so every measured call is a pure cache-hit
    // assembly (the zero-alloc path).
    let origin: Vec<usize> = vec![0; shape.rank()];
    let extent: Vec<usize> = shape
        .dims()
        .iter()
        .enumerate()
        .map(|(d, &n)| if d == 0 { (n / 2).max(1) } else { n })
        .collect();
    let region = Region::new(&origin, &extent);
    let mut out = NdArray::<f32>::zeros(region.shape());
    reader.read_region_into(&region, &mut out).expect("warm-up");

    // Force the lazily-allocated telemetry structures into existence
    // outside the measured windows, exactly as serve_alloc.rs does.
    eblcio_obs::set_enabled(true);
    eblcio_obs::flight_recorder();
    eblcio_obs::set_enabled(false);

    // Alternate the arms window-by-window and keep each arm's best
    // window: load drift lands on both arms alike, and the minima
    // compare the two true floors.
    let mut base = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    for _ in 0..REPS {
        eblcio_obs::set_enabled(false);
        base = base.min(window(&reader, &region, &mut out));
        eblcio_obs::set_enabled(true);
        enabled = enabled.min(window(&reader, &region, &mut out));
    }
    eblcio_obs::set_enabled(false);

    let per_call_ns = |s: f64| s * 1e9 / ITERS as f64;
    let overhead_pct = (enabled / base - 1.0) * 100.0;
    println!(
        "obs_overhead: warm read_region_into, {} samples/region, {ITERS} iters x {REPS} reps",
        region.len()
    );
    println!("  telemetry off: {:>9.1} ns/call", per_call_ns(base));
    println!("  telemetry on:  {:>9.1} ns/call", per_call_ns(enabled));
    println!("  overhead:      {overhead_pct:>8.2}% (gate: {GATE_PCT}%)");

    if overhead_pct > GATE_PCT {
        eprintln!(
            "obs overhead gate FAIL: {overhead_pct:.2}% > {GATE_PCT}% \
             (off {:.1} ns/call, on {:.1} ns/call)",
            per_call_ns(base),
            per_call_ns(enabled)
        );
        std::process::exit(1);
    }
    println!("\nobs overhead gate: PASS");
}
