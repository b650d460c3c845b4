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
//! windows per arm, the arm that goes first alternating), each window
//! timed on the thread's own on-CPU clock (field 1 of
//! `/proc/thread-self/schedstat`, in ns), so time the thread spends
//! descheduled on a shared host is not counted. The verdict is the
//! median over reps of the on/off ratio of the rep's two adjacent
//! windows: load drift lands on both windows of a pair alike, and the
//! median ignores the pairs a burst hit.
//!
//! Knob: `EBLCIO_SCALE` = tiny|small|paper.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

use eblcio_bench::scale_from_env;
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{DatasetKind, DatasetSpec, NdArray, Shape};
use eblcio_serve::{ArrayReader, CacheConfig, ReaderConfig};
use eblcio_store::{ChunkedStore, Region};

const EPS: f64 = 1e-3;
/// Warm `read_region_into` calls per measured window.
const ITERS: usize = 200;
/// Windows per arm.
const REPS: usize = 50;
/// Largest tolerated telemetry-on cost over the baseline, in percent.
const GATE_PCT: f64 = 2.0;

/// The calling thread's on-CPU time in ns: field 1 of
/// `/proc/thread-self/schedstat`, read with one `std::fs::read`. The
/// kernel brings a running thread's count up to date only at a
/// scheduler tick or a context switch, so the read follows a
/// `yield_now`, which makes one; read bare, the count lags by up to a
/// tick (4 ms), as long as a whole window. There is no fallback to wall
/// time: without the file the gate cannot judge.
#[allow(
    clippy::disallowed_methods,
    reason = "reads the thread's scheduler clock from procfs, not data-path storage"
)]
fn thread_cpu_ns() -> u64 {
    const PATH: &str = "/proc/thread-self/schedstat";
    std::thread::yield_now();
    let raw = std::fs::read(PATH).unwrap_or_else(|e| fail(&format!("{PATH}: {e}")));
    std::str::from_utf8(&raw)
        .ok()
        .and_then(|text| text.split_whitespace().next())
        .and_then(|field| field.parse().ok())
        .unwrap_or_else(|| fail(&format!("{PATH}: no on-CPU ns in field 1")))
}

fn fail(why: &str) -> ! {
    eprintln!("obs_overhead: {why}");
    std::process::exit(2)
}

/// On-CPU ns of one window of `ITERS` warm `read_region_into` calls
/// with telemetry `on` or off.
fn window(reader: &ArrayReader<f32>, region: &Region, out: &mut NdArray<f32>, on: bool) -> f64 {
    eblcio_obs::set_enabled(on);
    let t0 = thread_cpu_ns();
    for _ in 0..ITERS {
        reader.read_region_into(region, out).expect("warm read");
    }
    (thread_cpu_ns() - t0) as f64
}

/// The median of `v` (sorted in place).
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
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

    // Alternate the arms window-by-window, the first arm alternating
    // too, and judge the median ratio of each rep's adjacent windows.
    let (mut off, mut on, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPS {
        let (a, b) = if rep % 2 == 0 {
            let a = window(&reader, &region, &mut out, false);
            (a, window(&reader, &region, &mut out, true))
        } else {
            let b = window(&reader, &region, &mut out, true);
            (window(&reader, &region, &mut out, false), b)
        };
        off.push(a);
        on.push(b);
        ratios.push(b / a);
    }
    eblcio_obs::set_enabled(false);

    let per_call_ns = |ns: f64| ns / ITERS as f64;
    let overhead_pct = (median(&mut ratios) - 1.0) * 100.0;
    let (base, enabled) = (median(&mut off), median(&mut on));
    println!(
        "obs_overhead: warm read_region_into, {} samples/region, {ITERS} iters x {REPS} reps, \
         thread on-CPU clock",
        region.len()
    );
    println!("  telemetry off: {:>9.1} ns/call (median window)", per_call_ns(base));
    println!("  telemetry on:  {:>9.1} ns/call (median window)", per_call_ns(enabled));
    println!("  overhead:      {overhead_pct:>8.2}% (median on/off pair ratio; gate: {GATE_PCT}%)");

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
