//! Measurement campaigns (§IV-C protocol).
//!
//! Every cell of every figure in the paper is "mean of up to 25 runs,
//! or until a 95 % confidence interval about the mean is achieved".
//! [`CampaignRunner`] implements that protocol around the codecs: it
//! times a cell once ([`WallCell`]) and prices it on any platform
//! ([`MeasuredCell`], the rows the figures print).

use eblcio_codec::{compress_dataset, decompress_any, CodecError, Compressor, ErrorBound};
use eblcio_data::{
    dispatch_dtype, metrics::QualityReport, stats::repeat_until_ci, Dataset, RunningStats, Shape,
};
use eblcio_energy::{measure::energy_for_wall, Activity, CpuGeneration, Joules, Seconds};
use eblcio_pfs::format::DataObject;
use eblcio_pfs::{tool::write_objects, IoToolKind, PfsSim};
use eblcio_store::ChunkedStore;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Campaign repetition policy.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CampaignRunner {
    /// Minimum repetitions per cell.
    pub min_runs: u64,
    /// Maximum repetitions (paper: 25).
    pub max_runs: u64,
    /// Relative CI half-width target (paper: 95 % CI ⇒ we stop at 5 %).
    pub ci_tol: f64,
}

impl CampaignRunner {
    /// The paper's §IV-C protocol.
    pub fn paper() -> Self {
        Self {
            min_runs: 3,
            max_runs: 25,
            ci_tol: 0.05,
        }
    }

    /// A fast protocol for CI-friendly bench runs.
    pub fn quick() -> Self {
        Self {
            min_runs: 2,
            max_runs: 5,
            ci_tol: 0.15,
        }
    }

    /// Measures one (data set, codec, ε, CPU) cell: repeated compression
    /// and decompression with energy accounting, plus quality metrics —
    /// [`measure_wall`](Self::measure_wall) priced on `generation`.
    pub fn measure_cell(
        &self,
        data: &Dataset,
        codec: &dyn Compressor,
        bound: ErrorBound,
        generation: CpuGeneration,
        threads: u32,
    ) -> Result<MeasuredCell, CodecError> {
        Ok(self.measure_wall(data, codec, bound, threads)?.on(generation))
    }

    /// Times one (data set, codec, ε, threads) cell on this host: a
    /// pilot run for the stream and its quality numbers, then the
    /// §IV-C-stopped compression and decompression wall times. Nothing
    /// here depends on a platform — [`WallCell::on`] prices the result
    /// on any [`CpuGeneration`]. Stopping on wall time is stopping on
    /// energy: the CI test is relative and energy is a constant
    /// multiple of wall time.
    pub fn measure_wall(
        &self,
        data: &Dataset,
        codec: &dyn Compressor,
        bound: ErrorBound,
        threads: u32,
    ) -> Result<WallCell, CodecError> {
        let threads_exec = effective_threads(threads);
        let stream = run_compress(data, codec, bound, threads_exec)?;
        let recon = run_decompress(&stream, threads_exec)?;
        let quality = quality_of(data, &recon, stream.len())?;
        let compress_wall = self
            .repeat_timed(|| run_compress(data, codec, bound, threads_exec).map(|s| s.len()))?;
        let decompress_wall =
            self.repeat_timed(|| run_decompress(&stream, threads_exec).map(|r| r.len()))?;
        Ok(WallCell {
            codec: codec.name().to_string(),
            threads,
            bound,
            original_bytes: data.nbytes() as u64,
            quality,
            compress_wall,
            decompress_wall,
            stream,
        })
    }

    /// Wall-time statistics of `run` under the §IV-C stopping rule. The
    /// pilot run already succeeded with the same arguments, so a
    /// failing repeat is an invariant break; the stopping-rule closure
    /// cannot return `Result`, so the first error is parked and
    /// surfaced after the loop.
    fn repeat_timed(
        &self,
        mut run: impl FnMut() -> Result<usize, CodecError>,
    ) -> Result<RunningStats, CodecError> {
        let mut repeat_err = None;
        let stats = repeat_until_ci(self.min_runs, self.max_runs, self.ci_tol, || {
            let t0 = Instant::now();
            match run() {
                Ok(len) => {
                    std::hint::black_box(len);
                }
                Err(e) => {
                    repeat_err.get_or_insert(e);
                }
            }
            t0.elapsed().as_secs_f64()
        });
        repeat_err.map_or(Ok(stats), Err)
    }

    /// Measures the write phase of a cell's stream (or any payload) via
    /// the PFS model.
    pub fn measure_write(
        &self,
        payload: Vec<u8>,
        label: &str,
        tool: IoToolKind,
        pfs: &PfsSim,
        generation: CpuGeneration,
        writers: u32,
    ) -> WriteCost {
        let profile = generation.profile();
        let obj = DataObject::opaque(label, payload);
        let w = write_objects(tool, std::slice::from_ref(&obj), pfs, &profile, writers);
        WriteCost {
            seconds: w.io.seconds,
            joules: w.io.cpu_energy,
            bytes: obj.payload.len() as u64,
            bandwidth_bps: w.io.bandwidth_bps,
        }
    }
}

/// The thread count a request for `threads` executes with on this
/// host. Threads beyond the host's parallelism cannot run concurrently,
/// so both the run and the power model use the capped count — wall
/// time and power then plateau together, which is exactly the
/// high-thread-count plateau of Fig. 10.
pub fn effective_threads(threads: u32) -> u32 {
    let host = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(4);
    threads.clamp(1, host)
}

/// One cell's compressed stream. Serial mode is a bare `EBLC` stream;
/// the threaded "OpenMP mode" (§IV-C, Fig. 10) is an `EBCS` chunked
/// store with one dimension-0 slab of `ceil(d0 / threads)` rows per
/// thread, compressed on the shared pool of that width with ε resolved
/// once against the global value range.
fn run_compress(
    data: &Dataset,
    codec: &dyn Compressor,
    bound: ErrorBound,
    threads: u32,
) -> Result<Vec<u8>, CodecError> {
    if threads <= 1 {
        return compress_dataset(codec, data, bound);
    }
    let threads = threads as usize;
    dispatch_dtype!(Dataset(a) = data => {
        let mut slab = a.shape().dims().to_vec();
        slab[0] = slab[0].div_ceil(threads);
        ChunkedStore::write(codec, a, bound, Shape::new(&slab), threads)
    })
}

/// Decodes a [`run_compress`] stream into the precision it records,
/// each slab once on `threads` workers.
fn run_decompress(stream: &[u8], threads: u32) -> Result<Dataset, CodecError> {
    if threads <= 1 {
        return decompress_any(stream);
    }
    let store = ChunkedStore::open(stream)?;
    dispatch_dtype!(E = store.dtype() => store.read_full::<E>(threads as usize).map(Dataset::from))
        .unwrap_or(Err(CodecError::Corrupt { context: "dtype tag" }))
}

fn quality_of(
    original: &Dataset,
    recon: &Dataset,
    compressed: usize,
) -> Result<QualityReport, CodecError> {
    match (original, recon) {
        (Dataset::F32(a), Dataset::F32(b)) => Ok(QualityReport::evaluate(a, b, compressed)),
        (Dataset::F64(a), Dataset::F64(b)) => Ok(QualityReport::evaluate(a, b, compressed)),
        // decompress mirrors the input precision; a mismatch is a
        // workspace bug surfaced as a typed error.
        _ => Err(CodecError::Internal { context: "reconstruction precision mismatch" }),
    }
}

/// One timed cell before it is priced on a platform: everything a
/// [`MeasuredCell`] holds that does not depend on the CPU profile.
#[derive(Clone, Debug)]
pub struct WallCell {
    /// Codec display name.
    pub codec: String,
    /// Requested thread count (1 = serial mode); the runs used
    /// [`effective_threads`] of it.
    pub threads: u32,
    /// The requested bound.
    pub bound: ErrorBound,
    /// Original size.
    pub original_bytes: u64,
    /// CR / PSNR / bound verification.
    pub quality: QualityReport,
    /// Compression wall times on this host (§IV-C stopping rule).
    pub compress_wall: RunningStats,
    /// Decompression wall times on this host.
    pub decompress_wall: RunningStats,
    /// The compressed stream (for the downstream write phase).
    pub stream: Vec<u8>,
}

impl WallCell {
    /// Compression ratio.
    pub fn cr(&self) -> f64 {
        self.original_bytes as f64 / self.stream.len() as f64
    }

    /// Prices the measured wall times on `generation`. Energy and
    /// platform runtime are linear in wall time, so the platforms of
    /// one cell are exact projections of one measurement.
    pub fn on(&self, generation: CpuGeneration) -> MeasuredCell {
        let profile = generation.profile();
        let threads_exec = effective_threads(self.threads);
        let activity = if threads_exec <= 1 {
            Activity::serial_compute()
        } else {
            Activity::parallel_compute(threads_exec)
        };
        let price = |wall: f64| energy_for_wall(&profile, activity, Seconds(wall));
        let (compress, decompress) = (&self.compress_wall, &self.decompress_wall);
        MeasuredCell {
            codec: self.codec.clone(),
            generation,
            threads: self.threads,
            bound: self.bound,
            compressed_bytes: self.stream.len() as u64,
            original_bytes: self.original_bytes,
            quality: self.quality,
            compress_joules: price(compress.mean()).total(),
            compress_ci_half: price(compress.ci95().half_width).total(),
            compress_seconds: price(compress.mean()).scaled,
            decompress_joules: price(decompress.mean()).total(),
            decompress_ci_half: price(decompress.ci95().half_width).total(),
            decompress_seconds: price(decompress.mean()).scaled,
            runs: compress.count(),
            stream: self.stream.clone(),
        }
    }
}

/// One measured figure cell.
#[derive(Clone, Debug, Serialize)]
pub struct MeasuredCell {
    /// Codec display name.
    pub codec: String,
    /// CPU platform.
    pub generation: CpuGeneration,
    /// Thread count (1 = serial mode).
    pub threads: u32,
    /// The requested bound.
    pub bound: ErrorBound,
    /// Compressed stream size.
    pub compressed_bytes: u64,
    /// Original size.
    pub original_bytes: u64,
    /// CR / PSNR / bound verification.
    pub quality: QualityReport,
    /// Mean compression energy.
    pub compress_joules: Joules,
    /// 95 % CI half-width of the compression energy.
    pub compress_ci_half: Joules,
    /// Mean compression runtime (scaled to the platform).
    pub compress_seconds: Seconds,
    /// Mean decompression energy.
    pub decompress_joules: Joules,
    /// 95 % CI half-width of the decompression energy.
    pub decompress_ci_half: Joules,
    /// Mean decompression runtime (scaled to the platform).
    pub decompress_seconds: Seconds,
    /// Repetitions actually taken (§IV-C stopping rule).
    pub runs: u64,
    /// The compressed stream (for the downstream write phase).
    #[serde(skip)]
    pub stream: Vec<u8>,
}

impl MeasuredCell {
    /// Compression ratio.
    pub fn cr(&self) -> f64 {
        self.original_bytes as f64 / self.compressed_bytes as f64
    }

    /// Total (compress + decompress) energy — the y-axis of Figs. 7–10.
    pub fn total_joules(&self) -> Joules {
        self.compress_joules + self.decompress_joules
    }
}

/// A measured write phase.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WriteCost {
    /// Write wall time.
    pub seconds: Seconds,
    /// CPU-side write energy (what Fig. 11 plots).
    pub joules: Joules,
    /// Payload bytes written.
    pub bytes: u64,
    /// Achieved bandwidth.
    pub bandwidth_bps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_codec::CompressorId;
    use eblcio_data::generators::Scale;
    use eblcio_data::{DatasetKind, DatasetSpec, NdArray};

    fn tiny_nyx() -> Dataset {
        DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate()
    }

    #[test]
    fn measure_cell_produces_consistent_row() {
        let runner = CampaignRunner::quick();
        let data = tiny_nyx();
        let codec = CompressorId::Szx.instance();
        let cell = runner
            .measure_cell(
                &data,
                codec.as_ref(),
                ErrorBound::Relative(1e-3),
                CpuGeneration::Skylake8160,
                1,
            )
            .unwrap();
        assert!(cell.quality.within_bound(1e-3));
        assert!(cell.cr() > 1.0);
        assert!(cell.compress_joules.value() > 0.0);
        assert!(cell.decompress_joules.value() > 0.0);
        assert!(cell.runs >= runner.min_runs);
        assert_eq!(cell.compressed_bytes as usize, cell.stream.len());
    }

    #[test]
    fn parallel_cell_also_bounded() {
        let runner = CampaignRunner::quick();
        let data = tiny_nyx();
        let codec = CompressorId::Sz3.instance();
        let cell = runner
            .measure_cell(
                &data,
                codec.as_ref(),
                ErrorBound::Relative(1e-2),
                CpuGeneration::SapphireRapids9480,
                4,
            )
            .unwrap();
        assert!(cell.quality.within_bound(1e-2));
        assert_eq!(cell.threads, 4);
    }

    #[test]
    fn f64_dataset_cell() {
        let runner = CampaignRunner::quick();
        let data = DatasetSpec::new(DatasetKind::S3d, Scale::Tiny).generate();
        let codec = CompressorId::Zfp.instance();
        let cell = runner
            .measure_cell(
                &data,
                codec.as_ref(),
                ErrorBound::Relative(1e-3),
                CpuGeneration::CascadeLake8260M,
                1,
            )
            .unwrap();
        assert!(cell.quality.within_bound(1e-3));
    }

    /// The threaded path reads the precision off the store manifest:
    /// an f64 stream comes back as `Dataset::F64` after one decode per
    /// slab, not after a failed f32 pass. `fpzip2` appears in no other
    /// test of this binary, so its decode clock counts only this one.
    #[test]
    fn f64_parallel_stream_decodes_each_slab_once() {
        let data = DatasetSpec::new(DatasetKind::S3d, Scale::Tiny).generate();
        let codec = eblcio_codec::ChainSpec::parse("szx+fpzip2").unwrap().build().unwrap();
        let stream = run_compress(&data, &codec, ErrorBound::Relative(1e-3), 3).unwrap();
        let store = ChunkedStore::open(&stream).unwrap();
        // Three threads over 4 rows: slabs of ceil(4 / 3) = 2 rows.
        assert_eq!(data.shape().dim(0), 4);
        assert_eq!((store.dtype(), store.n_chunks()), (data.dtype(), 2));
        let clock = eblcio_obs::global().histogram("eblcio_codec_fpzip2_decode_ns");
        let before = clock.count();
        let back = run_decompress(&stream, 3).unwrap();
        assert_eq!(clock.count() - before, 2);
        assert!(matches!(back, Dataset::F64(_)));
        assert!(quality_of(&data, &back, stream.len()).unwrap().within_bound(1e-3));
    }

    /// More threads than rows: one single-row slab per row, and the
    /// surplus threads find nothing to claim.
    #[test]
    fn more_threads_than_rows_gives_one_slab_per_row() {
        let data = Dataset::from(NdArray::<f32>::from_fn(Shape::d2(3, 100), |i| {
            (i[0] * 100 + i[1]) as f32
        }));
        let codec = CompressorId::Szx.instance();
        let stream = run_compress(&data, codec.as_ref(), ErrorBound::Relative(1e-2), 16).unwrap();
        let store = ChunkedStore::open(&stream).unwrap();
        assert_eq!((store.n_chunks(), store.chunk_shape()), (3, Shape::d2(1, 100)));
        let back = run_decompress(&stream, 16).unwrap();
        assert!(quality_of(&data, &back, stream.len()).unwrap().within_bound(1e-2));
    }

    /// ε is resolved once on the global range: slabs whose local ranges
    /// are far narrower than the field's keep the whole-array bound, at
    /// every thread count.
    #[test]
    fn slabs_share_the_global_bound() {
        let field = NdArray::<f32>::from_fn(Shape::d3(32, 16, 16), |i| {
            (i[0] as f32).powi(2) + ((i[1] + i[2]) as f32 * 0.3).sin()
        });
        let codec = CompressorId::Sz3.instance();
        let bound = ErrorBound::Relative(1e-3);
        let abs = bound.to_absolute(field.value_range()).unwrap();
        let data = Dataset::from(field);
        for threads in [1, 2, 4, 8] {
            let stream = run_compress(&data, codec.as_ref(), bound, threads).unwrap();
            if threads > 1 {
                let store = ChunkedStore::open(&stream).unwrap();
                assert_eq!((store.abs_bound(), store.n_chunks()), (abs, threads as usize));
            }
            let back = run_decompress(&stream, threads).unwrap();
            assert!(quality_of(&data, &back, stream.len()).unwrap().within_bound(1e-3), "{threads}");
        }
    }

    /// Measure once, project thrice: between any two platforms the
    /// joules and CI half-widths of one [`WallCell`] differ by exactly
    /// the profiles' power-over-throughput ratio, the seconds by the
    /// inverse throughput ratio, and nothing else differs at all.
    #[test]
    fn platforms_are_exact_projections_of_one_wall_cell() {
        let runner = CampaignRunner { min_runs: 3, max_runs: 3, ci_tol: 0.0 };
        let data = tiny_nyx();
        let codec = CompressorId::Szx.instance();
        for threads in [1, 2] {
            // The activity `on` prices with: serial unless more than one
            // thread really ran (a 1-core host clamps the second case).
            let activity = match effective_threads(threads) {
                1 => Activity::serial_compute(),
                n => Activity::parallel_compute(n),
            };
            let bound = ErrorBound::Relative(1e-3);
            let wall = runner.measure_wall(&data, codec.as_ref(), bound, threads).unwrap();
            let watts_per_speed = |g: CpuGeneration| {
                let p = g.profile();
                let package = p.package_power(activity.threads, activity.utilization);
                (package + p.memory_power(activity.memory_intensity)).value() / p.throughput_factor
            };
            for a in CpuGeneration::ALL {
                for b in CpuGeneration::ALL {
                    let (on_a, on_b) = (wall.on(a), wall.on(b));
                    let close = |x: f64, y: f64| (x / y - 1.0).abs() <= 1e-12;
                    let energy = watts_per_speed(a) / watts_per_speed(b);
                    let speed = b.profile().throughput_factor / a.profile().throughput_factor;
                    for (x, y) in [
                        (on_a.compress_joules, on_b.compress_joules),
                        (on_a.compress_ci_half, on_b.compress_ci_half),
                        (on_a.decompress_joules, on_b.decompress_joules),
                        (on_a.decompress_ci_half, on_b.decompress_ci_half),
                    ] {
                        assert!(x.value() > 0.0, "{a:?}");
                        assert!(close(x.value() / y.value(), energy), "{a:?}/{b:?}");
                    }
                    for (x, y) in [
                        (on_a.compress_seconds, on_b.compress_seconds),
                        (on_a.decompress_seconds, on_b.decompress_seconds),
                    ] {
                        assert!(close(x.value() / y.value(), speed), "{a:?}/{b:?}");
                    }
                    assert_eq!(on_a.runs, on_b.runs);
                    assert_eq!(on_a.compressed_bytes, on_b.compressed_bytes);
                    assert_eq!(on_a.quality.psnr_db, on_b.quality.psnr_db);
                    assert_eq!(on_a.quality.max_rel_error, on_b.quality.max_rel_error);
                }
            }
        }
    }

    #[test]
    fn measure_cell_is_measure_wall_priced_on_a_platform() {
        let runner = CampaignRunner::quick();
        let data = tiny_nyx();
        let codec = CompressorId::Sz3.instance();
        let bound = ErrorBound::Relative(1e-2);
        let generation = CpuGeneration::CascadeLake8260M;
        let cell = runner.measure_cell(&data, codec.as_ref(), bound, generation, 2).unwrap();
        let wall = runner.measure_wall(&data, codec.as_ref(), bound, 2).unwrap();
        let priced = wall.on(generation);
        assert_eq!(cell.stream, priced.stream);
        assert_eq!(priced.stream, wall.stream);
        assert_eq!(
            (&cell.codec, cell.generation, cell.threads, cell.bound),
            (&priced.codec, priced.generation, priced.threads, priced.bound)
        );
        assert_eq!(
            (cell.compressed_bytes, cell.original_bytes),
            (priced.compressed_bytes, priced.original_bytes)
        );
        assert_eq!(cell.cr(), wall.cr());
        assert_eq!(cell.quality.psnr_db, priced.quality.psnr_db);
        assert_eq!(cell.quality.max_rel_error, priced.quality.max_rel_error);
        assert_eq!(cell.quality.compression_ratio, priced.quality.compression_ratio);
        // The timed fields differ run to run; their protocol does not.
        for c in [&cell, &priced] {
            assert!((runner.min_runs..=runner.max_runs).contains(&c.runs));
            assert!(c.compress_seconds.value() > 0.0 && c.decompress_joules.value() > 0.0);
        }
    }

    #[test]
    fn write_phase_scales_with_bytes() {
        let runner = CampaignRunner::quick();
        let pfs = PfsSim::testbed();
        let small = runner.measure_write(
            vec![0; 1 << 16],
            "s",
            IoToolKind::Hdf5Lite,
            &pfs,
            CpuGeneration::Skylake8160,
            1,
        );
        let large = runner.measure_write(
            vec![0; 1 << 28],
            "l",
            IoToolKind::Hdf5Lite,
            &pfs,
            CpuGeneration::Skylake8160,
            1,
        );
        assert!(large.joules.value() > 50.0 * small.joules.value());
    }
}
