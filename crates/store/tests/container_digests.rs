//! Pinned container bytes: the length and CRC-32 of every container the
//! store writers produce, checked in as a table.
//!
//! The rows cover `ChunkedStore::write` on an interior-chunk grid and on
//! a slab grid, `write_sharded` at three shard widths, `write_mixed`,
//! `write_adaptive`, `MutableStore::create`, and an `EBMS` file after one
//! `update_region` and again after `compact` — each for an f32 and an f64
//! field with edge chunks on every axis. The table was recorded before
//! the writers shared one chunk-encode loop and one assembler; it must
//! not be edited by a change that claims to keep containers
//! byte-identical. On a mismatch the test prints the full table the
//! current writers produce.

use eblcio_codec::util::crc32;
use eblcio_codec::{ChainSpec, CompressorId, ErrorBound};
use eblcio_data::{Element, NdArray, Shape};
use eblcio_store::{ChunkedStore, MutableStore, Region};

fn shape() -> Shape {
    Shape::d3(20, 12, 11)
}

/// Interior chunks on the first two axes, edge chunks on both.
fn interior() -> Shape {
    Shape::d3(8, 5, 11)
}

/// Dimension-0 slabs (borrowed views on the write path), one edge slab.
fn slab() -> Shape {
    Shape::d3(7, 12, 11)
}

const BOUND: ErrorBound = ErrorBound::Relative(1e-3);
const THREADS: usize = 2;

fn field<T: Element>() -> NdArray<T> {
    NdArray::from_fn(shape(), |i| {
        let v = (i[0] as f64 * 0.23).sin() * 40.0
            + (i[1] as f64 * 0.31).cos() * 15.0
            + i[2] as f64 * 0.5
            + ((i[0] * 7 + i[1] * 3 + i[2]) % 5) as f64 * 0.25;
        T::from_f64(v)
    })
}

fn row(label: String, bytes: &[u8]) -> (String, usize, u32) {
    (label, bytes.len(), crc32(bytes))
}

fn rows<T: Element>() -> Vec<(String, usize, u32)> {
    let data = field::<T>();
    let t = T::NAME;
    let mut out = Vec::new();
    for id in CompressorId::ALL {
        let codec = id.instance();
        let c = codec.as_ref();
        let name = id.name();
        for (grid, chunk) in [("interior", interior()), ("slab", slab())] {
            let bytes = ChunkedStore::write(c, &data, BOUND, chunk, THREADS).unwrap();
            out.push(row(format!("{t}/write/{name}/{grid}"), &bytes));
        }
        for per_shard in [1, 4, 100] {
            let bytes =
                ChunkedStore::write_sharded(c, &data, BOUND, interior(), per_shard, THREADS)
                    .unwrap();
            out.push(row(format!("{t}/write_sharded/{name}/{per_shard}"), &bytes));
        }
        let store = MutableStore::create(c, &data, BOUND, interior(), THREADS).unwrap();
        out.push(row(format!("{t}/create/{name}"), store.as_bytes()));
    }
    let chains: Vec<ChainSpec> = CompressorId::ALL
        .into_iter()
        .map(ChainSpec::preset)
        .collect();
    // Chain 0 is never picked and the rest are first used out of order,
    // so the manifest's chain table is a remapped subset.
    let n_chunks = 3 * 3;
    let picks: Vec<usize> = (0..n_chunks).map(|i| (n_chunks - i) % 4 + 1).collect();
    let bytes =
        ChunkedStore::write_mixed(&chains, &picks, &data, BOUND, interior(), THREADS).unwrap();
    out.push(row(format!("{t}/write_mixed"), &bytes));
    let bytes = ChunkedStore::write_adaptive(&chains, &data, BOUND, interior(), THREADS).unwrap();
    out.push(row(format!("{t}/write_adaptive"), &bytes));

    let codec = CompressorId::Sz3.instance();
    let mut store =
        MutableStore::create(codec.as_ref(), &data, BOUND, interior(), THREADS).unwrap();
    let region = Region::new(&[3, 2, 1], &[9, 6, 5]);
    let patch = NdArray::<T>::from_fn(region.shape(), |i| T::from_f64((i[0] + i[1] + i[2]) as f64));
    store.update_region(&region, &patch, THREADS).unwrap();
    out.push(row(format!("{t}/ebms/updated"), store.as_bytes()));
    store.compact().unwrap();
    out.push(row(format!("{t}/ebms/compacted"), store.as_bytes()));
    out
}

#[test]
fn every_writer_produces_the_recorded_containers() {
    let got: Vec<_> = rows::<f32>().into_iter().chain(rows::<f64>()).collect();
    let same = got.len() == WANT.len()
        && got
            .iter()
            .zip(WANT)
            .all(|(g, w)| g.0 == w.0 && g.1 == w.1 && g.2 == w.2);
    if !same {
        let table: String = got
            .iter()
            .map(|(l, n, c)| format!("    (\"{l}\", {n}, 0x{c:08x}),\n"))
            .collect();
        panic!("container bytes moved; the current writers produce:\n{table}");
    }
}

const WANT: &[(&str, usize, u32)] = &[
    ("f32/write/SZ2/interior", 2133, 0x00326ded),
    ("f32/write/SZ2/slab", 1554, 0x82bbd0f0),
    ("f32/write_sharded/SZ2/1", 2288, 0x5bc8b2b8),
    ("f32/write_sharded/SZ2/4", 2222, 0x06482d84),
    ("f32/write_sharded/SZ2/100", 2200, 0xc210c62f),
    ("f32/create/SZ2", 2243, 0x0d2c0f23),
    ("f32/write/SZ3/interior", 1986, 0x3cbf1015),
    ("f32/write/SZ3/slab", 1426, 0xa7da4342),
    ("f32/write_sharded/SZ3/1", 2140, 0x6a5f4187),
    ("f32/write_sharded/SZ3/4", 2074, 0xb5aa90bb),
    ("f32/write_sharded/SZ3/100", 2053, 0xe134a71f),
    ("f32/create/SZ3", 2096, 0xc7bb0657),
    ("f32/write/ZFP/interior", 3897, 0x2c8f7408),
    ("f32/write/ZFP/slab", 3515, 0x4961ecb5),
    ("f32/write_sharded/ZFP/1", 4052, 0x861cfe3e),
    ("f32/write_sharded/ZFP/4", 3986, 0x167f7422),
    ("f32/write_sharded/ZFP/100", 3964, 0xda967295),
    ("f32/create/ZFP", 4007, 0xbf5e860e),
    ("f32/write/QoZ/interior", 2160, 0x44c332b4),
    ("f32/write/QoZ/slab", 1494, 0xdaa1af55),
    ("f32/write_sharded/QoZ/1", 2315, 0xf74d675f),
    ("f32/write_sharded/QoZ/4", 2249, 0x74e31019),
    ("f32/write_sharded/QoZ/100", 2227, 0x4d36eceb),
    ("f32/create/QoZ", 2270, 0x53c96173),
    ("f32/write/SZx/interior", 2875, 0x8a877ef3),
    ("f32/write/SZx/slab", 2873, 0x5522a9e2),
    ("f32/write_sharded/SZx/1", 3029, 0x0a5909fb),
    ("f32/write_sharded/SZx/4", 2963, 0xb5b6b917),
    ("f32/write_sharded/SZx/100", 2942, 0xb9b678de),
    ("f32/create/SZx", 2985, 0x0992f8a0),
    ("f32/write_mixed", 2805, 0x224ca13a),
    ("f32/write_adaptive", 2078, 0xfe37c562),
    ("f32/ebms/updated", 3911, 0xae19e9c3),
    ("f32/ebms/compacted", 2629, 0x151f714e),
    ("f64/write/SZ2/interior", 2133, 0x37624f1e),
    ("f64/write/SZ2/slab", 1554, 0x02295a26),
    ("f64/write_sharded/SZ2/1", 2288, 0xfb75851d),
    ("f64/write_sharded/SZ2/4", 2222, 0xff8e5c9e),
    ("f64/write_sharded/SZ2/100", 2200, 0xf540e4dc),
    ("f64/create/SZ2", 2243, 0x76dd228b),
    ("f64/write/SZ3/interior", 1986, 0x80995460),
    ("f64/write/SZ3/slab", 1424, 0x3c438106),
    ("f64/write_sharded/SZ3/1", 2140, 0x2ef984a3),
    ("f64/write_sharded/SZ3/4", 2074, 0x56b0e56f),
    ("f64/write_sharded/SZ3/100", 2053, 0x5d12e36a),
    ("f64/create/SZ3", 2096, 0x7be02305),
    ("f64/write/ZFP/interior", 3897, 0x389b6152),
    ("f64/write/ZFP/slab", 3515, 0x933b5387),
    ("f64/write_sharded/ZFP/1", 4052, 0x7f8db710),
    ("f64/write_sharded/ZFP/4", 3986, 0xd6e6041a),
    ("f64/write_sharded/ZFP/100", 3964, 0xce8267cf),
    ("f64/create/ZFP", 4007, 0xfae69afe),
    ("f64/write/QoZ/interior", 2160, 0x1ec15b49),
    ("f64/write/QoZ/slab", 1494, 0x8b3bc292),
    ("f64/write_sharded/QoZ/1", 2315, 0xf4933450),
    ("f64/write_sharded/QoZ/4", 2249, 0x3f894c78),
    ("f64/write_sharded/QoZ/100", 2227, 0x17348516),
    ("f64/create/QoZ", 2270, 0x7548f030),
    ("f64/write/SZx/interior", 2975, 0xc74a9e7a),
    ("f64/write/SZx/slab", 2965, 0x6357305e),
    ("f64/write_sharded/SZx/1", 3130, 0x1711be44),
    ("f64/write_sharded/SZx/4", 3064, 0x39c1cf4e),
    ("f64/write_sharded/SZx/100", 3042, 0x1ff7ef58),
    ("f64/create/SZx", 3085, 0xbc033b3b),
    ("f64/write_mixed", 2821, 0xa95150c3),
    ("f64/write_adaptive", 2106, 0x21686d6b),
    ("f64/ebms/updated", 3878, 0xc4321f26),
    ("f64/ebms/compacted", 2596, 0xf65bcc08),
];
