//! What every workload shares: the run context, the per-op sample
//! record, the arithmetic that turns a window of samples into the
//! end-to-end metrics, the energy model, and set-up timing.

use crate::stats::{
    self, favourable_quartile, geomean, median, percentile, sorted, split_windows, SUB_WINDOWS,
};
use eblcio_energy::measure::energy_for_wall;
use eblcio_energy::{Activity, CpuGeneration, CpuProfile, Seconds};
use eblcio_pfs::{IoRequest, PfsSim};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Value-range relative error bound every store is written with.
pub const EPSILON: f64 = 1e-3;

/// Times set-up is repeated in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// The one sizing constant: codec/reader pool threads, daemon workers
/// and client connections are all `T`; the load generator never runs
/// more than `T` threads.
pub fn threads() -> usize {
    nproc().min(4)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Inputs of one workload run.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub t: usize,
    /// This process's scratch directory inside the checkout: storage
    /// roots and ceiling files, removed when the run ends.
    pub scratch: PathBuf,
    /// Where span files and result documents go.
    pub out_dir: PathBuf,
}

/// A metric value with its unit, keyed by metric name.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed op or check (first few are printed).
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Ops in the measured window and its wall time (run metadata).
    pub window_ops: u64,
    pub window_wall_s: f64,
}

impl Outcome {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Counts one attempted op; `err` marks it failed.
    pub fn attempt(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            self.fail(e);
        }
    }

    /// Records a failed check on an op already counted as attempted.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(why);
        }
    }

    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }
}

/// One completed op of the measured window.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Op class (codec index where a workload round-robins codecs).
    pub class: u8,
    /// Completion time since the window opened.
    pub end_ns: u64,
    /// Latency: call to result in the caller's buffer.
    pub dur_ns: u64,
    /// Raw (uncompressed) array bytes the op moved.
    pub raw_bytes: u64,
    /// Modelled CPU-side I/O joules for the bytes handed to `Storage`.
    pub io_joules: f64,
}

/// A measured window: samples in completion order.
pub struct Window {
    pub samples: Vec<Sample>,
    /// Closed-loop clients that were issuing ops concurrently.
    pub clients: usize,
    /// Ops per indivisible round (sub-windows are cut on rounds so each
    /// holds every class equally often).
    pub unit: usize,
    pub wall_s: f64,
}

/// Rate, latency and energy of a window, each the favourable quartile
/// over its sub-windows.
pub struct WindowStats {
    pub throughput_mbps: f64,
    pub op_p50_ms: f64,
    pub op_p95_ms: f64,
    pub joules_per_gb: f64,
    pub compute_joules_per_gb: f64,
    pub io_joules_per_gb: f64,
    pub op_p99_ms: f64,
    pub op_max_ms: f64,
    pub window_spread: f64,
}

fn latencies_ms(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.dur_ns as f64 * 1e-6).collect()
}

fn per_class<R>(w: &[Sample], f: impl Fn(&[&Sample]) -> R) -> Vec<R> {
    let mut by: BTreeMap<u8, Vec<&Sample>> = BTreeMap::new();
    for s in w {
        by.entry(s.class).or_default().push(s);
    }
    by.values().map(|v| f(v)).collect()
}

impl Window {
    pub fn sort(&mut self) {
        self.samples.sort_by_key(|s| s.end_ns);
    }

    /// Raw MB per wall-second of one class in one sub-window. Every
    /// client of a closed loop is always inside an op, so the wall time
    /// a class occupied is its summed latency over the client count;
    /// time spent checking outputs between ops is not charged.
    fn class_rate(&self, v: &[&Sample]) -> f64 {
        let bytes: u64 = v.iter().map(|s| s.raw_bytes).sum();
        let busy: u64 = v.iter().map(|s| s.dur_ns).sum();
        bytes as f64 / 1e6 / (busy as f64 * 1e-9 / self.clients as f64)
    }

    /// (compute, I/O) joules per raw GB of one class in one sub-window.
    fn class_joules(&self, v: &[&Sample], t: usize) -> (f64, f64) {
        let gb = v.iter().map(|s| s.raw_bytes).sum::<u64>() as f64 / 1e9;
        let wall = v.iter().map(|s| s.dur_ns).sum::<u64>() as f64 * 1e-9 / self.clients as f64;
        let io: f64 = v.iter().map(|s| s.io_joules).sum();
        (compute_joules(wall, t) / gb, io / gb)
    }

    pub fn stats(&self, t: usize) -> WindowStats {
        let wins = split_windows(self.samples.len(), SUB_WINDOWS, self.unit);
        let mut rate = Vec::new();
        let (mut p50, mut p95) = (Vec::new(), Vec::new());
        let (mut jc, mut jio, mut jall) = (Vec::new(), Vec::new(), Vec::new());
        for r in wins {
            let w = &self.samples[r];
            rate.push(geomean(&per_class(w, |v| self.class_rate(v))));
            let lat = sorted(&latencies_ms(w));
            p50.push(percentile(&lat, 0.50));
            p95.push(percentile(&lat, 0.95));
            let j = per_class(w, |v| self.class_joules(v, t));
            jc.push(geomean(&j.iter().map(|j| j.0).collect::<Vec<_>>()));
            jall.push(geomean(&j.iter().map(|j| j.0 + j.1).collect::<Vec<_>>()));
            // I/O joules are 0 where nothing reaches storage; no geomean then.
            jio.push(j.iter().map(|j| j.1).sum::<f64>() / j.len() as f64);
        }
        let all = sorted(&latencies_ms(&self.samples));
        WindowStats {
            throughput_mbps: favourable_quartile(&rate, true),
            op_p50_ms: favourable_quartile(&p50, false),
            op_p95_ms: favourable_quartile(&p95, false),
            joules_per_gb: favourable_quartile(&jall, false),
            compute_joules_per_gb: favourable_quartile(&jc, false),
            io_joules_per_gb: favourable_quartile(&jio, false),
            op_p99_ms: percentile(&all, 0.99),
            op_max_ms: all[all.len() - 1],
            window_spread: stats::window_spread(&rate),
        }
    }

    /// Median latency over all ops (for the tracing-overhead ratio).
    pub fn median_latency_ms(&self) -> f64 {
        median(&latencies_ms(&self.samples))
    }
}

/// Stores the end-to-end metrics a window yields.
pub fn put_window_e2e(out: &mut Outcome, w: &Window, t: usize) {
    let s = w.stats(t);
    out.put("throughput_mbps", s.throughput_mbps, "MB/s");
    out.put("op_p50_ms", s.op_p50_ms, "ms");
    out.put("op_p95_ms", s.op_p95_ms, "ms");
    out.put("joules_per_gb", s.joules_per_gb, "J/GB");
    out.window_ops = w.samples.len() as u64;
    out.window_wall_s = w.wall_s;
}

/// The paper's newest platform (Table I): the modelled energy target.
pub fn profile() -> CpuProfile {
    CpuGeneration::SapphireRapids9480.profile()
}

/// Modelled package + DRAM joules of `wall` seconds of `t` busy threads.
pub fn compute_joules(wall: f64, t: usize) -> f64 {
    energy_for_wall(
        &profile(),
        Activity::parallel_compute(t as u32),
        Seconds(wall),
    )
    .total()
    .value()
}

/// Modelled joules of a CPU waiting on `wall` seconds of I/O calls.
pub fn io_wait_joules(wall: f64) -> f64 {
    energy_for_wall(&profile(), Activity::io_phase(), Seconds(wall))
        .total()
        .value()
}

fn io_request(bytes: u64, objects: u32) -> IoRequest {
    IoRequest {
        payload_bytes: bytes,
        meta_bytes: 0,
        ops: objects,
        efficiency: 1.0,
    }
}

/// CPU-side joules the testbed PFS charges for writing `bytes`.
pub fn pfs_write_joules(bytes: u64, objects: u32) -> f64 {
    PfsSim::testbed()
        .write(&io_request(bytes, objects), &profile())
        .cpu_energy
        .value()
}

/// CPU-side joules the testbed PFS charges for reading `bytes`.
pub fn pfs_read_joules(bytes: u64, objects: u32) -> f64 {
    PfsSim::testbed()
        .read_concurrent(&io_request(bytes, objects), 1, &profile())
        .cpu_energy
        .value()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<S>(f: impl FnOnce() -> Result<S, String>) -> Result<(S, f64), String> {
    let t = Instant::now();
    let out = f()?;
    Ok((out, t.elapsed().as_secs_f64()))
}

/// `setup_s`: the median of `first` (the set-up the run used) and
/// [`SETUP_REPS`]` − 1` further builds, each dropped at once. They run
/// after the window and after `peak_rss_mb` was read: what repeated
/// set-ups leave in the allocator's per-thread arenas would otherwise
/// move the high-water mark by tens of MB from run to run.
pub fn median_setup_s<S>(
    first: f64,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 1..SETUP_REPS {
        times.push(timed(&mut build)?.1);
    }
    Ok(median(&times))
}

/// `VmHWM` of this process in MB (0 where `/proc` is unreadable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// PSNR in dB from an accumulated squared error over `n` samples of a
/// field spanning `range`.
pub fn psnr_db(sum_sq_err: f64, n: u64, range: f64) -> f64 {
    let mse = sum_sq_err / n as f64;
    20.0 * range.log10() - 10.0 * mse.max(f64::MIN_POSITIVE).log10()
}

/// Maps a stack error into the harness's string errors.
pub fn es<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: u8, i: u64, ms: u64, mb: u64) -> Sample {
        Sample {
            class,
            end_ns: i,
            dur_ns: ms * 1_000_000,
            raw_bytes: mb * 1_000_000,
            io_joules: 0.0,
        }
    }

    #[test]
    fn throughput_is_the_geomean_of_class_rates() {
        // Class 0 moves 10 MB in 100 ms (100 MB/s); class 1 moves 10 MB
        // in 1 ms (10 000 MB/s): geomean 1000 MB/s, in every sub-window.
        let mut samples = Vec::new();
        for i in 0..10 {
            samples.push(sample(0, 2 * i, 100, 10));
            samples.push(sample(1, 2 * i + 1, 1, 10));
        }
        let w = Window {
            samples,
            clients: 1,
            unit: 2,
            wall_s: 1.01,
        };
        let s = w.stats(2);
        assert!(
            (s.throughput_mbps - 1000.0).abs() < 1e-6,
            "{}",
            s.throughput_mbps
        );
        assert_eq!(s.op_p50_ms, 1.0);
        assert_eq!(s.op_p95_ms, 100.0);
        assert_eq!(s.op_max_ms, 100.0);
        assert!(s.window_spread.abs() < 1e-12);
    }

    #[test]
    fn concurrent_clients_multiply_the_rate() {
        let samples: Vec<Sample> = (0..20).map(|i| sample(0, i, 10, 1)).collect();
        let one = Window {
            samples: samples.clone(),
            clients: 1,
            unit: 1,
            wall_s: 0.2,
        }
        .stats(2);
        let two = Window {
            samples,
            clients: 2,
            unit: 1,
            wall_s: 0.1,
        }
        .stats(2);
        assert!((one.throughput_mbps - 100.0).abs() < 1e-9);
        assert!((two.throughput_mbps - 200.0).abs() < 1e-9);
        // Same machine-seconds per byte either way.
        assert!((one.joules_per_gb - 2.0 * two.joules_per_gb).abs() < 1e-6 * one.joules_per_gb);
    }

    #[test]
    fn psnr_of_unit_error_on_unit_range_is_zero_db() {
        assert!(psnr_db(4.0, 4, 1.0).abs() < 1e-12);
        assert!((psnr_db(0.04, 4, 1.0) - 20.0).abs() < 1e-9);
    }
}
