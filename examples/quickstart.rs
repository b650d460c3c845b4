//! Quickstart: compress a scientific field with an error bound, verify
//! the bound, inspect quality, and write it through the HDF5-lite tool.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use eblcio::prelude::*;
use eblcio_energy::CpuGeneration;
use eblcio_pfs::format::DataObject;
use eblcio_pfs::{tool::write_objects, IoToolKind, PfsSim};

fn main() {
    // 1. A NYX-like cosmology field (deterministic synthetic analog).
    let data = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate();
    println!(
        "dataset: NYX analog, shape {}, {:.1} MB",
        data.shape(),
        data.nbytes() as f64 / 1e6
    );

    // 2. Compress with SZ3 at a 1e-3 value-range relative bound.
    let codec = CompressorId::Sz3.instance();
    let stream = compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(1e-3))
        .expect("compression");
    println!(
        "compressed: {} bytes, CR = {:.1}x",
        stream.len(),
        compression_ratio(data.nbytes(), stream.len())
    );

    // 3. Decompress and verify the error-bound contract (paper Eq. 1).
    let back = decompress::<f32>(codec.as_ref(), &stream).expect("decompression");
    let report = QualityReport::evaluate(data.as_f32(), &back, stream.len());
    println!(
        "quality: PSNR {:.1} dB, max rel err {:.2e} (bound 1e-3): within = {}",
        report.psnr_db,
        report.max_rel_error,
        report.within_bound(1e-3)
    );
    assert!(report.within_bound(1e-3));

    // 4. Write both versions through HDF5-lite to the PFS model and
    //    compare the write energy (the paper's Fig. 11 comparison).
    let pfs = PfsSim::testbed();
    let profile = CpuGeneration::SapphireRapids9480.profile();
    let original = DataObject::opaque("nyx_original", data.to_le_bytes());
    let compressed =
        DataObject::opaque("nyx_sz3", stream).with_attr("compressor", "SZ3");
    let w_orig = write_objects(IoToolKind::Hdf5Lite, &[original], &pfs, &profile, 1);
    let w_comp = write_objects(IoToolKind::Hdf5Lite, &[compressed], &pfs, &profile, 1);
    println!(
        "write energy: original {:.4} J vs compressed {:.4} J ({:.0}x less)",
        w_orig.io.cpu_energy.value(),
        w_comp.io.cpu_energy.value(),
        w_orig.io.cpu_energy.value() / w_comp.io.cpu_energy.value()
    );
}
