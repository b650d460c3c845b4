//! Extension experiment (§VI-A's "doubly effective" remark): reading
//! compressed data back for analysis vs reading the original.
//!
//! Read energy = PFS read + decompression; original read pays full-size
//! I/O but no decode. The crossover mirrors the write side.

use eblcio_bench::{runner_from_env, scale_from_env, TextTable};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_data::{DatasetKind, DatasetSpec};
use eblcio_energy::CpuGeneration;
use eblcio_pfs::format::DataObject;
use eblcio_pfs::{IoToolKind, PfsSim};

fn main() {
    let scale = scale_from_env();
    let runner = runner_from_env();
    let generation = CpuGeneration::SapphireRapids9480;
    let profile = generation.profile();
    // A busy shared PFS slice, where reads are expensive enough for the
    // trade-off to bite.
    let pfs = PfsSim::new(2, 0.05);
    let mut table = TextTable::new(&[
        "dataset", "codec", "rel_eps", "read_J", "decompress_J", "total_J", "vs_original",
    ]);

    for kind in [DatasetKind::Nyx, DatasetKind::Cesm] {
        let data = DatasetSpec::new(kind, scale).generate();
        let raw = data.to_le_bytes();
        let orig_obj = DataObject::opaque("original", raw);
        let orig_req = IoToolKind::Hdf5Lite.io_request(std::slice::from_ref(&orig_obj));
        let orig_read = pfs.read_concurrent(&orig_req, 1, &profile);
        table.row(vec![
            kind.name().into(),
            "Original".into(),
            "-".into(),
            format!("{:.4}", orig_read.cpu_energy.value()),
            "0.0000".into(),
            format!("{:.4}", orig_read.cpu_energy.value()),
            "1.00x".into(),
        ]);

        for id in [CompressorId::Sz3, CompressorId::Szx] {
            let codec = id.instance();
            for eps in [1e-2, 1e-4] {
                let cell = runner
                    .measure_cell(&data, codec.as_ref(), ErrorBound::Relative(eps), generation, 1)
                    .expect("cell");
                let obj = DataObject::opaque("compressed", cell.stream.clone());
                let req = IoToolKind::Hdf5Lite.io_request(std::slice::from_ref(&obj));
                let read = pfs.read_concurrent(&req, 1, &profile);
                let total = read.cpu_energy.value() + cell.decompress_joules.value();
                table.row(vec![
                    kind.name().into(),
                    id.name().into(),
                    format!("{eps:.0e}"),
                    format!("{:.4}", read.cpu_energy.value()),
                    format!("{:.4}", cell.decompress_joules.value()),
                    format!("{total:.4}"),
                    format!("{:.2}x", orig_read.cpu_energy.value() / total),
                ]);
            }
        }
    }

    table.print("Read-back energy: compressed read + decompress vs original read");
    let path = table.write_csv("readback_energy").expect("csv");
    println!("\nCSV: {}", path.display());
    println!("\nShape check: on a contended PFS the compressed read path wins (the\n\"doubly effective\" benefit); on an idle fast PFS the decode cost can flip it.");
}
