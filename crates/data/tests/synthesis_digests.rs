//! Pinned synthesis output: the byte length and FNV-1a-64 digest of the
//! little-endian bytes every generator produces, checked in as a table.
//!
//! The rows cover every data set at `Scale::Tiny` in every variable, plus
//! the four `Scale::Small` fields the benchmark measures. The table was
//! recorded from the single-threaded generators, before synthesis ran on
//! worker threads; it must not be edited by a change that claims to keep
//! fields bit-identical. On a mismatch the test prints the full table the
//! current generators produce.

use eblcio_data::generators::{Scale, Variable};
use eblcio_data::{DatasetKind, DatasetSpec};

const KINDS: [DatasetKind; 7] = [
    DatasetKind::Cesm,
    DatasetKind::Hacc,
    DatasetKind::Nyx,
    DatasetKind::S3d,
    DatasetKind::QmcPack,
    DatasetKind::Isabel,
    DatasetKind::ExaFel,
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn row(spec: DatasetSpec, label: String) -> (String, usize, u64) {
    let bytes = spec.generate().to_le_bytes();
    (label, bytes.len(), fnv1a64(&bytes))
}

fn check(what: &str, got: &[(String, usize, u64)], want: &[(&str, usize, u64)]) {
    let same = got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
    if !same {
        let table: String = got
            .iter()
            .map(|(l, n, h)| format!("    (\"{l}\", {n}, 0x{h:016x}),\n"))
            .collect();
        panic!("{what} moved; the current generators produce:\n{table}");
    }
}

#[test]
fn tiny_fields_match_the_recorded_digests() {
    let mut got = Vec::new();
    for kind in KINDS {
        for variable in Variable::ALL {
            let spec = DatasetSpec::new(kind, Scale::Tiny).with_variable(variable);
            got.push(row(
                spec,
                format!("{}/tiny/{}", kind.name(), variable.name()),
            ));
        }
    }
    check("Tiny synthesis output", &got, TINY);
}

#[test]
fn benchmark_small_fields_match_the_recorded_digests() {
    let got: Vec<_> = [
        DatasetKind::S3d,
        DatasetKind::Nyx,
        DatasetKind::Cesm,
        DatasetKind::Hacc,
    ]
    .into_iter()
    .map(|kind| {
        row(
            DatasetSpec::new(kind, Scale::Small),
            format!("{}/small/primary", kind.name()),
        )
    })
    .collect();
    check("Small synthesis output", &got, SMALL);
}

const TINY: &[(&str, usize, u64)] = &[
    ("CESM/tiny/primary", 129600, 0xc6071fd35724672f),
    ("CESM/tiny/velocity", 129600, 0xda87a4b625e3c582),
    ("CESM/tiny/derived", 129600, 0x5ed9c675a5c2f82c),
    ("HACC/tiny/primary", 400000, 0xa2ffcc0e579c4729),
    ("HACC/tiny/velocity", 400000, 0x02cef0022cbeb9be),
    ("HACC/tiny/derived", 400000, 0x602337522dcb03d0),
    ("NYX/tiny/primary", 442368, 0xc6ecc4808849e273),
    ("NYX/tiny/velocity", 442368, 0x8e0fdadc7add71f2),
    ("NYX/tiny/derived", 442368, 0xf937472f202a946c),
    ("S3D/tiny/primary", 442368, 0x86b2e9ac58e3ab45),
    ("S3D/tiny/velocity", 442368, 0x167aae741aeabb71),
    ("S3D/tiny/derived", 442368, 0x261b17755d293f66),
    ("QMCPack/tiny/primary", 96048, 0x1d5a8170286e6bdf),
    ("QMCPack/tiny/velocity", 96048, 0x433b4b2cfd5b1998),
    ("QMCPack/tiny/derived", 96048, 0xab10d6b086a771ae),
    ("ISABEL/tiny/primary", 250000, 0x3be33c7f8daf9052),
    ("ISABEL/tiny/velocity", 250000, 0xc3594ec9be2009f9),
    ("ISABEL/tiny/derived", 250000, 0xa2856fa373e6bee0),
    ("EXAFEL/tiny/primary", 396924, 0xd22740db731d866c),
    ("EXAFEL/tiny/velocity", 396924, 0x362591b5835d8d3c),
    ("EXAFEL/tiny/derived", 396924, 0xe079d03ae05d6533),
];

const SMALL: &[(&str, usize, u64)] = &[
    ("S3D/small/primary", 23068672, 0x92632ef3a9b583bc),
    ("NYX/small/primary", 8388608, 0xa9b04585c4970a9b),
    ("CESM/small/primary", 6739200, 0x357893dd8dd17091),
    ("HACC/small/primary", 8000000, 0x446a45d6ac55a95d),
];
