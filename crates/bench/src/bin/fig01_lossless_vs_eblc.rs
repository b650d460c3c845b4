//! Figure 1: lossless versus EBLC compression ratios across scientific
//! data sets (QMCPack, ISABEL, CESM-ATM, EXAFEL).
//!
//! The paper's point: general lossless compressors achieve insignificant
//! ratios on scientific floats, while EBLCs (SZ2, ZFP at a mild bound)
//! reach 10–60×.

use eblcio_bench::{scale_from_env, TextTable};
use eblcio_codec::lossless::all_baselines;
use eblcio_codec::{compress_dataset, CompressorId, ErrorBound};
use eblcio_data::{DatasetKind, DatasetSpec};

fn main() {
    let scale = scale_from_env();
    let eps = 1e-2;
    let mut table = TextTable::new(&["dataset", "compressor", "kind", "ratio"]);

    for kind in DatasetKind::FIG1 {
        let data = DatasetSpec::new(kind, scale).generate();
        let raw = data.to_le_bytes();
        let esize = if kind.is_f64() { 8 } else { 4 };

        for codec in all_baselines(esize) {
            let c = codec.compress(&raw);
            table.row(vec![
                kind.name().into(),
                codec.name().into(),
                "lossless".into(),
                format!("{:.2}", raw.len() as f64 / c.len() as f64),
            ]);
        }
        for id in [CompressorId::Sz2, CompressorId::Zfp] {
            let codec = id.instance();
            let stream = compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(eps))
                .expect("compression");
            table.row(vec![
                kind.name().into(),
                id.name().into(),
                "EBLC".into(),
                format!("{:.2}", raw.len() as f64 / stream.len() as f64),
            ]);
        }
    }

    table.print(&format!(
        "Fig. 1 — Lossless vs EBLC compression ratios (EBLC at rel eps = {eps:.0e})"
    ));
    let path = table.write_csv("fig01_lossless_vs_eblc").expect("csv");
    println!("\nCSV: {}", path.display());
}
