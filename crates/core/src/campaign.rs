//! Measurement campaigns (§IV-C protocol).
//!
//! Every cell of every figure in the paper is "mean of up to 25 runs,
//! or until a 95 % confidence interval about the mean is achieved".
//! [`CampaignRunner`] implements that protocol around the codecs and the
//! energy meter, producing [`MeasuredCell`] rows the bench binaries
//! print.

use eblcio_codec::{compress_dataset, decompress_any, CodecError, Compressor, ErrorBound};
use eblcio_data::{dispatch_dtype, metrics::QualityReport, stats::repeat_until_ci, Dataset};
use eblcio_energy::{
    measure::energy_for_wall, Activity, CpuGeneration, Joules, Seconds,
};
use eblcio_pfs::format::DataObject;
use eblcio_pfs::{tool::write_objects, IoToolKind, PfsSim};
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
    /// and decompression with energy accounting, plus quality metrics.
    pub fn measure_cell(
        &self,
        data: &Dataset,
        codec: &dyn Compressor,
        bound: ErrorBound,
        generation: CpuGeneration,
        threads: u32,
    ) -> Result<MeasuredCell, CodecError> {
        let profile = generation.profile();
        // Threads beyond this host's parallelism cannot execute
        // concurrently, so both the run and the power model use the
        // capped count — wall time and power then plateau together,
        // which is exactly the high-thread-count plateau of Fig. 10.
        let host = std::thread::available_parallelism()
            .map(|n| n.get() as u32)
            .unwrap_or(4);
        let threads_exec = threads.clamp(1, host);
        let activity = if threads_exec <= 1 {
            Activity::serial_compute()
        } else {
            Activity::parallel_compute(threads_exec)
        };

        // One pilot run for the stream + quality numbers.
        let stream = run_compress(data, codec, bound, threads_exec)?;
        let recon = run_decompress(codec, &stream, threads_exec)?;
        let quality = quality_of(data, &recon, stream.len())?;

        // Repeated timed runs (§IV-C stopping rule) for compression.
        // The pilot run above already succeeded with these exact
        // arguments, so a failing repeat is an invariant break; the
        // closure cannot return `Result`, so the first error is parked
        // and surfaced after the loop.
        let mut repeat_err: Option<CodecError> = None;
        let mut compress_wall = eblcio_data::RunningStats::new();
        let c_stats = repeat_until_ci(self.min_runs, self.max_runs, self.ci_tol, || {
            let t0 = Instant::now();
            match run_compress(data, codec, bound, threads_exec) {
                Ok(s) => std::hint::black_box(&s.len()),
                Err(e) => {
                    repeat_err.get_or_insert(e);
                    &0
                }
            };
            let dt = t0.elapsed().as_secs_f64();
            compress_wall.push(dt);
            let m = energy_for_wall(&profile, activity, Seconds(dt));
            m.total().value()
        });
        if let Some(e) = repeat_err.take() {
            return Err(e);
        }

        // ...and decompression.
        let mut decompress_wall = eblcio_data::RunningStats::new();
        let d_stats = repeat_until_ci(self.min_runs, self.max_runs, self.ci_tol, || {
            let t0 = Instant::now();
            match run_decompress(codec, &stream, threads_exec) {
                Ok(r) => std::hint::black_box(&r.len()),
                Err(e) => {
                    repeat_err.get_or_insert(e);
                    &0
                }
            };
            let dt = t0.elapsed().as_secs_f64();
            decompress_wall.push(dt);
            let m = energy_for_wall(&profile, activity, Seconds(dt));
            m.total().value()
        });
        if let Some(e) = repeat_err {
            return Err(e);
        }

        Ok(MeasuredCell {
            codec: codec.name().to_string(),
            generation,
            threads,
            bound,
            compressed_bytes: stream.len() as u64,
            original_bytes: data.nbytes() as u64,
            quality,
            compress_joules: Joules(c_stats.mean()),
            compress_ci_half: Joules(c_stats.ci95().half_width),
            compress_seconds: Seconds(
                compress_wall.mean() / profile.throughput_factor,
            ),
            decompress_joules: Joules(d_stats.mean()),
            decompress_ci_half: Joules(d_stats.ci95().half_width),
            decompress_seconds: Seconds(
                decompress_wall.mean() / profile.throughput_factor,
            ),
            runs: c_stats.count(),
            stream,
        })
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

fn run_compress(
    data: &Dataset,
    codec: &dyn Compressor,
    bound: ErrorBound,
    threads: u32,
) -> Result<Vec<u8>, CodecError> {
    if threads <= 1 {
        compress_dataset(codec, data, bound)
    } else {
        dispatch_dtype!(Dataset(a) = data =>
            eblcio_codec::compress_parallel(codec, a, bound, threads as usize))
    }
}

fn run_decompress(
    codec: &dyn Compressor,
    stream: &[u8],
    threads: u32,
) -> Result<Dataset, CodecError> {
    if threads <= 1 {
        decompress_any(stream)
    } else {
        eblcio_codec::decompress_parallel_any(codec, stream, threads as usize)
    }
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
    use eblcio_data::{DatasetKind, DatasetSpec};

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

    /// The parallel path reads the precision off the `EBLP` header:
    /// an f64 stream comes back as `Dataset::F64` after one decode per
    /// slab, not after a failed f32 pass. `fpzip2` appears in no other
    /// test of this binary, so its decode clock counts only this one.
    #[test]
    fn f64_parallel_stream_decodes_each_slab_once() {
        let data = DatasetSpec::new(DatasetKind::S3d, Scale::Tiny).generate();
        let codec = eblcio_codec::ChainSpec::parse("szx+fpzip2").unwrap().build().unwrap();
        let stream = run_compress(&data, &codec, ErrorBound::Relative(1e-3), 3).unwrap();
        let info = eblcio_codec::parallel_stream_info(&stream).unwrap();
        assert_eq!((info.dtype, info.n_chunks), (data.dtype(), 3));
        let clock = eblcio_obs::global().histogram("eblcio_codec_fpzip2_decode_ns");
        let before = clock.count();
        let back = run_decompress(&codec, &stream, 3).unwrap();
        assert_eq!(clock.count() - before, 3);
        assert!(matches!(back, Dataset::F64(_)));
        assert!(quality_of(&data, &back, stream.len()).unwrap().within_bound(1e-3));
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
