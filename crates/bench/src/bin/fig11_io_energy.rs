//! Figure 11: single-node write energy to the PFS, post-compression,
//! for HDF5 and NetCDF — compressed streams at five bounds vs the
//! uncompressed "Original" baseline.

use eblcio_bench::{runner_from_env, scale_from_env, TextTable};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_core::experiment::ExperimentConfig;
use eblcio_data::{DatasetKind, DatasetSpec};
use eblcio_energy::CpuGeneration;
use eblcio_pfs::{IoToolKind, PfsSim};

fn main() {
    let scale = scale_from_env();
    let runner = runner_from_env();
    let generation = CpuGeneration::SapphireRapids9480;
    let pfs = PfsSim::testbed();
    let mut table = TextTable::new(&[
        "tool", "dataset", "codec", "rel_eps", "bytes", "io_J", "io_s", "bw_MBps",
    ]);

    for tool in IoToolKind::ALL {
        for kind in DatasetKind::TABLE2 {
            let data = DatasetSpec::new(kind, scale).generate();

            // Baseline: the original data.
            let raw = data.to_le_bytes();
            let base = runner.measure_write(raw, "original", tool, &pfs, generation, 1);
            table.row(vec![
                tool.name().into(),
                kind.name().into(),
                "Original".into(),
                "-".into(),
                base.bytes.to_string(),
                format!("{:.4}", base.joules.value()),
                format!("{:.4}", base.seconds.value()),
                format!("{:.1}", base.bandwidth_bps / 1e6),
            ]);

            for id in CompressorId::ALL {
                let codec = id.instance();
                for &eps in &ExperimentConfig::paper_epsilons() {
                    let cell = runner
                        .measure_cell(&data, codec.as_ref(), ErrorBound::Relative(eps), generation, 1)
                        .expect("cell");
                    let w = runner.measure_write(
                        cell.stream.clone(),
                        "compressed",
                        tool,
                        &pfs,
                        generation,
                        1,
                    );
                    table.row(vec![
                        tool.name().into(),
                        kind.name().into(),
                        id.name().into(),
                        format!("{eps:.0e}"),
                        w.bytes.to_string(),
                        format!("{:.4}", w.joules.value()),
                        format!("{:.4}", w.seconds.value()),
                        format!("{:.1}", w.bandwidth_bps / 1e6),
                    ]);
                }
            }
        }
    }

    table.print("Fig. 11 — Post-compression write energy to the PFS (HDF5 vs NetCDF)");
    let path = table.write_csv("fig11_io_energy").expect("csv");
    println!("\nCSV: {}", path.display());
    println!(
        "\nShape checks: every compressed write sits below Original (orders of magnitude\n\
         for S3D); energy rises as eps tightens; HDF5 rows sit well below NetCDF rows."
    );
}
