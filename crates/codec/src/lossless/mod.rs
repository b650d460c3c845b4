//! Lossless float coders for the paper's Figure 1.
//!
//! Figure 1 contrasts EBLC ratios against four general/float lossless
//! compressors: zstd, C-Blosc2, fpzip, and FPC. Each is a byte-stage
//! pipeline here: zstd is the LZ stage, C-Blosc2 is [`shuffle`] followed
//! by LZ, and fpzip and FPC are stages of their own. They only need to
//! reproduce the *qualitative* gap (lossless ≈ 1–3× on scientific floats
//! vs EBLC's 10–100×), which is a property of floating-point entropy,
//! not of any specific implementation:
//!
//! * [`shuffle`] — Blosc's byte transpose of fixed-width elements,
//! * [`FpzipLike`] — Lorenzo-predicted, sign-mapped integer residuals,
//!   byte-planed + LZ,
//! * [`Fpc`] — FCM/DFCM hash predictors with leading-zero-byte coding
//!   (Burtscher & Ratanaworabhan, IEEE TC 2009).

mod blosc;
mod fpc;
mod fpzip_like;

pub use blosc::{shuffle, unshuffle};
pub use fpc::Fpc;
pub use fpzip_like::FpzipLike;

#[cfg(test)]
mod tests {
    use crate::stage::{build_byte_stage, ByteStageSpec};

    #[test]
    fn lossless_ratios_are_modest_on_float_data() {
        // The Figure 1 premise: lossless CR stays small on scientific
        // floats, for each of its four pipelines.
        let data: Vec<u8> = (0..50_000)
            .flat_map(|i| ((i as f32 * 0.01).sin() * 100.0).to_le_bytes())
            .collect();
        let pipelines: [&[ByteStageSpec]; 4] = [
            &[ByteStageSpec::Lz],
            &[ByteStageSpec::Shuffle { element_size: 4 }, ByteStageSpec::Lz],
            &[ByteStageSpec::Fpzip { element_size: 4 }],
            &[ByteStageSpec::Fpc { element_size: 4 }],
        ];
        for specs in pipelines {
            let packed = specs.iter().fold(data.clone(), |b, &s| build_byte_stage(s).forward(&b));
            let cr = data.len() as f64 / packed.len() as f64;
            assert!(cr < 10.0, "{specs:?}: CR {cr}");
            assert!(cr > 0.8, "{specs:?}: pathological expansion {cr}");
        }
    }
}
