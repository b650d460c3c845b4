//! §I/§VII extrapolation: a simulation campaign with continuous data
//! dumps. How much energy and wall time does EBLC save over a full run,
//! and how many storage bytes does it avoid?

use eblcio_bench::{eng, runner_from_env, scale_from_env, TextTable};
use eblcio_codec::{CompressorId, ErrorBound};
use eblcio_core::workflow::{Campaign, DumpCost};
use eblcio_core::CampaignRunner;
use eblcio_data::{DatasetKind, DatasetSpec};
use eblcio_energy::{CpuGeneration, Seconds};
use eblcio_pfs::{IoToolKind, PfsSim};

fn main() {
    let scale = scale_from_env();
    let runner: CampaignRunner = runner_from_env();
    let generation = CpuGeneration::Skylake8160;
    // A contended PFS share, as seen by one job of many.
    let pfs = PfsSim::new(1, 0.01);
    let data = DatasetSpec::new(DatasetKind::Cesm, scale).generate();
    let campaign = Campaign {
        steps: 1000,
        compute_seconds: Seconds(30.0),
    };

    let raw = data.to_le_bytes();
    let base_write = runner.measure_write(raw, "orig", IoToolKind::Hdf5Lite, &pfs, generation, 1);
    let original = DumpCost::original(base_write);
    let orig_totals = campaign.run(&original, &generation.profile());

    let mut table = TextTable::new(&[
        "strategy",
        "dump_J",
        "campaign_dump_J",
        "wall_h",
        "io_frac",
        "bytes_written",
        "break_even",
    ]);
    table.row(vec![
        "Original".into(),
        format!("{:.2}", original.joules().value()),
        eng(orig_totals.dump_joules.value()),
        format!("{:.2}", orig_totals.wall.value() / 3600.0),
        format!("{:.3}", orig_totals.io_fraction),
        eng(orig_totals.bytes_written as f64),
        "-".into(),
    ]);

    for id in [CompressorId::Sz3, CompressorId::Szx] {
        let codec = id.instance();
        let cell = runner
            .measure_cell(&data, codec.as_ref(), ErrorBound::Relative(1e-3), generation, 1)
            .expect("cell");
        let write = runner.measure_write(
            cell.stream.clone(),
            "comp",
            IoToolKind::Hdf5Lite,
            &pfs,
            generation,
            1,
        );
        let dump = DumpCost {
            compress_seconds: cell.compress_seconds,
            compress_joules: cell.compress_joules,
            write,
        };
        let totals = campaign.run(&dump, &generation.profile());
        table.row(vec![
            format!("{} @1e-3", id.name()),
            format!("{:.2}", dump.joules().value()),
            eng(totals.dump_joules.value()),
            format!("{:.2}", totals.wall.value() / 3600.0),
            format!("{:.3}", totals.io_fraction),
            eng(totals.bytes_written as f64),
            match Campaign::break_even_steps(&dump, &original) {
                Some(n) => format!("step {n}"),
                None => "never".into(),
            },
        ]);
    }

    table.print("Campaign extrapolation — 1000 dumps, 30 s compute between dumps (CESM, HDF5)");
    let path = table.write_csv("campaign_dumps").expect("csv");
    println!("\nCSV: {}", path.display());
    println!(
        "\nShape check: the compressed strategies cut campaign dump energy by the\n\
         per-dump factor, shrink the I/O fraction, and ship 5-200x fewer bytes."
    );
}
