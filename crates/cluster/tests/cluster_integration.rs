//! Cluster-harness integration: Fig. 12 sweep invariants on top of real
//! compressions.

use eblcio_cluster::{run_compress_and_write, run_write_original, ClusterSpec};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::generators::Scale;
use eblcio_data::{DatasetKind, DatasetSpec};
use eblcio_energy::CpuGeneration;
use eblcio_pfs::{IoToolKind, PfsSim};

#[test]
fn fig12_sweep_monotonicities() {
    let data = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate();
    let pfs = PfsSim::new(64, data.nbytes() as f64 * 400.0 / 64.0 / 1e9);
    let codec = CompressorId::Szx.instance();

    let mut originals = Vec::new();
    let mut compressed = Vec::new();
    for spec in ClusterSpec::fig12_sweep() {
        let orig = run_write_original(&spec, &data, IoToolKind::Hdf5Lite, &pfs);
        let comp = run_compress_and_write(
            &spec,
            &data,
            codec.as_ref(),
            ErrorBound::Relative(1e-3),
            IoToolKind::Hdf5Lite,
            &pfs,
        )
        .unwrap();
        originals.push(orig);
        compressed.push(comp);
    }

    // Original write energy grows with cores, super-linearly at the top.
    for w in originals.windows(2) {
        assert!(w[1].write.joules.value() > w[0].write.joules.value());
    }
    let n = originals.len();
    let top_jump = originals[n - 1].write.joules.value() / originals[n - 2].write.joules.value();
    assert!(top_jump > 4.0, "no contention knee: {top_jump}");

    // The compressed path always ships far fewer bytes, and at the top
    // scale beats the original on total energy (the paper's §VII claim).
    for (c, o) in compressed.iter().zip(&originals) {
        assert!(c.total_bytes_written * 5 < o.total_bytes_written);
    }
    assert!(
        compressed[n - 1].beats(&originals[n - 1]),
        "compression must win at 512 cores"
    );
}

#[test]
fn different_codecs_same_harness_consistency() {
    // The harness must report internally consistent numbers for every
    // codec: bytes = per-rank × ranks; phases positive.
    let data = DatasetSpec::new(DatasetKind::Cesm, Scale::Tiny).generate();
    let pfs = PfsSim::testbed();
    let spec = ClusterSpec::new(2, 4, CpuGeneration::SapphireRapids9480);
    for id in CompressorId::ALL {
        let codec = id.instance();
        let r = run_compress_and_write(
            &spec,
            &data,
            codec.as_ref(),
            ErrorBound::Relative(1e-2),
            IoToolKind::NetCdfLite,
            &pfs,
        )
        .unwrap();
        assert_eq!(r.cores, 8, "{}", id.name());
        assert_eq!(
            r.total_bytes_written,
            r.compressed_bytes_per_rank * 8,
            "{}",
            id.name()
        );
        assert!(r.compression.joules.value() > 0.0, "{}", id.name());
        assert!(r.write.joules.value() > 0.0, "{}", id.name());
        assert!(r.total_seconds().value() > 0.0, "{}", id.name());
    }
}
