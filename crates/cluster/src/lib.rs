//! # eblcio-cluster
//!
//! The multi-node experiment harness of the paper's §IV-E / Fig. 6:
//! `N` nodes × `R` MPI ranks each hold a copy of a data set `D`,
//! compress it with the chosen EBLC, and concurrently write `N·R`
//! compressed objects to the shared PFS.
//!
//! Ranks execute as real threads (the compression work is genuinely
//! performed in parallel); node-level energy comes from the profile
//! power model over the measured phase times, and the write phase goes
//! through the contention-aware PFS model — which is what produces the
//! Fig. 12 shape: compression energy dominates the compressed-write
//! path, while the uncompressed baseline blows up at high core counts.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types, clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod report;
pub mod topology;

pub use report::{MultiNodeReport, PhaseCost};
pub use topology::ClusterSpec;

use eblcio_codec::{compress_dataset, Compressor, ErrorBound};
use eblcio_data::Dataset;
use eblcio_energy::{measure::energy_for_wall, Activity, Seconds};
use eblcio_pfs::format::DataObject;
use eblcio_pfs::{IoToolKind, PfsSim};
use rayon::prelude::*;
use std::time::Instant;

/// Runs the Fig. 6 workflow: every rank compresses its copy of `data`
/// and all ranks write concurrently to `pfs` via `tool`.
///
/// Returns the cluster-wide report. `Err` propagates any codec failure.
pub fn run_compress_and_write(
    spec: &ClusterSpec,
    data: &Dataset,
    codec: &dyn Compressor,
    bound: ErrorBound,
    tool: IoToolKind,
    pfs: &PfsSim,
) -> Result<MultiNodeReport, eblcio_codec::CodecError> {
    let total_ranks = spec.total_ranks();

    // Phase 1: all ranks compress in parallel (really), on the pool the
    // store and the reader share for this width.
    let pool = eblcio_codec::parallel::pool_for(spec.local_parallelism())?;
    let start = Instant::now();
    let streams: Vec<Result<Vec<u8>, eblcio_codec::CodecError>> = pool.install(|| {
        (0..total_ranks)
            .into_par_iter()
            .map(|_| compress_dataset(codec, data, bound))
            .collect()
    });
    let compress_wall = Seconds(start.elapsed().as_secs_f64());
    let mut first: Option<Vec<u8>> = None;
    for s in streams {
        let s = s?;
        if first.is_none() {
            first = Some(s);
        }
    }
    let Some(stream) = first else {
        return Err(eblcio_codec::CodecError::Internal { context: "cluster spec with zero ranks" });
    };

    // The wall time above used `local_parallelism` worker threads for
    // `total_ranks` rank-compressions; on the real cluster each rank has
    // its own core, so the per-rank time is wall × workers / ranks.
    let per_rank_wall = Seconds(
        compress_wall.value() * spec.local_parallelism() as f64 / total_ranks as f64,
    );
    let compress_m = energy_for_wall(
        &spec.profile,
        Activity::parallel_compute(spec.ranks_per_node),
        per_rank_wall,
    );
    // Node energy over the compression phase, summed across nodes.
    let compress_energy = compress_m.package * f64::from(spec.nodes)
        + compress_m.dram * f64::from(spec.nodes);

    // Phase 2: N·R concurrent writes of the compressed object.
    let obj = DataObject::opaque("rank_stream", stream)
        .with_attr("compressor", &codec.name())
        .with_attr("ranks", &total_ranks.to_string());
    let req = tool.io_request(std::slice::from_ref(&obj));
    let io = pfs.write_concurrent(&req, total_ranks, &spec.profile);
    let write_energy = io.cpu_energy * f64::from(spec.nodes);

    Ok(MultiNodeReport {
        cores: total_ranks,
        nodes: spec.nodes,
        compressed_bytes_per_rank: obj.payload.len() as u64,
        total_bytes_written: obj.payload.len() as u64 * u64::from(total_ranks),
        compression: PhaseCost {
            seconds: compress_m.scaled,
            joules: compress_energy,
        },
        write: PhaseCost {
            seconds: io.seconds,
            joules: write_energy,
        },
    })
}

/// The uncompressed baseline ("Original" in Figs. 11/12): every rank
/// writes the raw data set.
pub fn run_write_original(
    spec: &ClusterSpec,
    data: &Dataset,
    tool: IoToolKind,
    pfs: &PfsSim,
) -> MultiNodeReport {
    let total_ranks = spec.total_ranks();
    let payload = data.to_le_bytes();
    let shape: Vec<u64> = data.shape().dims().iter().map(|&d| d as u64).collect();
    let obj = DataObject {
        name: "rank_data".into(),
        dtype: data.dtype(),
        shape,
        attrs: vec![("compressor".into(), "Original".into())],
        payload,
    };
    let req = tool.io_request(std::slice::from_ref(&obj));
    let io = pfs.write_concurrent(&req, total_ranks, &spec.profile);
    MultiNodeReport {
        cores: total_ranks,
        nodes: spec.nodes,
        compressed_bytes_per_rank: obj.payload.len() as u64,
        total_bytes_written: obj.payload.len() as u64 * u64::from(total_ranks),
        compression: PhaseCost::default(),
        write: PhaseCost {
            seconds: io.seconds,
            joules: io.cpu_energy * f64::from(spec.nodes),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_codec::{ChainSpec, CompressorId};
    use eblcio_data::generators::Scale;
    use eblcio_data::{DatasetKind, DatasetSpec};
    use eblcio_energy::CpuGeneration;

    fn nyx() -> Dataset {
        DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate()
    }

    #[test]
    fn compressed_write_moves_fewer_bytes() {
        let spec = ClusterSpec::new(2, 4, CpuGeneration::Skylake8160);
        let data = nyx();
        let pfs = PfsSim::testbed();
        let codec = CompressorId::Sz3.instance();
        let r = run_compress_and_write(
            &spec,
            &data,
            codec.as_ref(),
            ErrorBound::Relative(1e-3),
            IoToolKind::Hdf5Lite,
            &pfs,
        )
        .unwrap();
        let orig = run_write_original(&spec, &data, IoToolKind::Hdf5Lite, &pfs);
        assert!(r.total_bytes_written < orig.total_bytes_written / 5);
        assert!(r.write.joules.value() < orig.write.joules.value());
        assert_eq!(r.cores, 8);
    }

    #[test]
    fn compression_dominates_compressed_write() {
        // Fig. 12: "the energy cost of data dumping is significantly
        // less than that of compression" for the compressed path.
        let spec = ClusterSpec::new(2, 8, CpuGeneration::Skylake8160);
        let data = nyx();
        let pfs = PfsSim::new(64, 2.0);
        let codec = CompressorId::Sz2.instance();
        let r = run_compress_and_write(
            &spec,
            &data,
            codec.as_ref(),
            ErrorBound::Relative(1e-3),
            IoToolKind::Hdf5Lite,
            &pfs,
        )
        .unwrap();
        assert!(
            r.compression.joules.value() > r.write.joules.value(),
            "compress {} vs write {}",
            r.compression.joules,
            r.write.joules
        );
    }

    #[test]
    fn custom_chain_runs_through_the_harness() {
        // Chains thread end to end: a non-preset chain (SZx with an LZ
        // backend bolted on) drives the same multi-node workflow from a
        // serialized spec.
        let spec = ClusterSpec::new(1, 4, CpuGeneration::Skylake8160);
        let data = nyx();
        let pfs = PfsSim::testbed();
        let codec = ChainSpec::parse("szx+lz").unwrap().build().unwrap();
        let r = run_compress_and_write(
            &spec,
            &data,
            &codec,
            ErrorBound::Relative(1e-3),
            IoToolKind::Hdf5Lite,
            &pfs,
        )
        .unwrap();
        assert!(r.compressed_bytes_per_rank > 0);
        assert!(r.total_bytes_written < data.nbytes() as u64 * 4);
        assert_eq!(r.cores, 4);
    }

    #[test]
    fn original_write_blows_up_at_scale() {
        // The 256→512 core contention jump for the uncompressed path.
        let data = nyx();
        let pfs = PfsSim::new(64, 2.0);
        let small = run_write_original(
            &ClusterSpec::new(8, 32, CpuGeneration::Skylake8160),
            &data,
            IoToolKind::Hdf5Lite,
            &pfs,
        );
        let large = run_write_original(
            &ClusterSpec::new(16, 32, CpuGeneration::Skylake8160),
            &data,
            IoToolKind::Hdf5Lite,
            &pfs,
        );
        // Doubling writers more than doubles the aggregate write energy.
        let scale = large.write.joules.value() / small.write.joules.value();
        assert!(scale > 2.0, "scale {scale}");
    }
}
