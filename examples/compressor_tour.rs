//! A tour of all five EBLCs on all four Table II data sets: CR, PSNR,
//! bound verification, and relative speed — a Table III-style report
//! over the full matrix.
//!
//! ```sh
//! cargo run --release --example compressor_tour
//! ```

use eblcio::prelude::*;
use std::time::Instant;

fn main() {
    let eps = 1e-3;
    println!(
        "{:<8} {:<6} {:>10} {:>9} {:>10} {:>12} {:>8}",
        "dataset", "codec", "CR", "PSNR_dB", "maxrelerr", "comp_MB/s", "ok"
    );

    for kind in DatasetKind::TABLE2 {
        let data = DatasetSpec::new(kind, Scale::Tiny).generate();
        for id in CompressorId::ALL {
            let codec = id.instance();
            let t0 = Instant::now();
            let stream = compress_dataset(codec.as_ref(), &data, ErrorBound::Relative(eps))
                .expect("compress");
            let dt = t0.elapsed().as_secs_f64();

            let (psnr_db, max_err, ok) = dispatch_dtype!(Dataset(a) = &data => {
                let b = decompress(codec.as_ref(), &stream).expect("decompress");
                let r = QualityReport::evaluate(a, &b, stream.len());
                (r.psnr_db, r.max_rel_error, r.within_bound(eps))
            });
            println!(
                "{:<8} {:<6} {:>10.2} {:>9.2} {:>10.2e} {:>12.1} {:>8}",
                kind.name(),
                id.name(),
                compression_ratio(data.nbytes(), stream.len()),
                psnr_db,
                max_err,
                data.nbytes() as f64 / 1e6 / dt,
                ok
            );
            assert!(ok, "{} violated the bound on {}", id.name(), kind.name());
        }
        println!();
    }
    println!("Every cell verified against the eps = {eps:.0e} value-range relative bound.");
}
