//! Store containers mutated past their checksums: one field of a valid
//! v2, v3 or `EBMS` container — a manifest varint (shape, chunk, chain,
//! shard or chunk count, chain index, offset, length, shard, slot,
//! generation link), a shard inner-index entry, or an `EBMS` root-slot
//! field — is set, nudged, inflated, duplicated or dropped, or the whole
//! container is cut. Every checksum covering the field is re-sealed, and
//! so is the length field that frames it (a shard's length in the
//! manifest, the live manifest's length in its root slot), so the
//! mutant reaches the parsers behind the CRCs. Opening it and reading
//! the whole array gives a typed error or an array of the right shape,
//! never a panic, and allocates no single buffer beyond a small multiple
//! of the container and the array it holds.
//!
//! The binary runs under an allocator that records, per thread, the
//! largest single allocation; reads run on one worker, which is the
//! calling thread.

use eblcio_codec::util::{crc32, put_varint, ByteReader};
use eblcio_codec::{ChainSpec, CompressorId, ErrorBound};
use eblcio_data::{NdArray, Shape};
use eblcio_store::mutable::SLOT_LEN;
use eblcio_store::{ChunkedStore, MutableStore, Region};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown is not measured.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

struct LargestAllocation;

unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static A: LargestAllocation = LargestAllocation;

/// `f`'s result and the largest single allocation it made on this
/// thread.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|l| l.set(0));
    let r = f();
    (r, LARGEST.with(Cell::get))
}

/// How many times the container plus its decoded array one allocation
/// may reach.
const ALLOCATION_FACTOR: usize = 4;

fn shape() -> Shape {
    Shape::d2(20, 12)
}

fn data() -> NdArray<f32> {
    NdArray::from_fn(shape(), |i| {
        (i[0] as f32 * 0.4).sin() * 30.0 + i[1] as f32 * 1.5 + ((i[0] * 5 + i[1]) % 3) as f32
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Varint,
    /// A little-endian u64 (root-slot fields).
    U64,
}

/// One field a mutation may target.
#[derive(Clone, Copy, Debug)]
struct Field {
    name: &'static str,
    at: usize,
    len: usize,
    kind: Kind,
    value: u64,
    /// The checksummed section that holds it.
    section: usize,
}

/// A checksummed run of bytes: its CRC-32 covers `start..crc_at` and
/// sits at `crc_at` (little-endian). `owner` is the field holding the
/// whole section's byte length, when another section frames it.
#[derive(Clone, Copy, Debug)]
struct Section {
    start: usize,
    crc_at: usize,
    owner: Option<usize>,
}

/// A valid container and the fields and sections a mutation can reach.
struct Container {
    name: &'static str,
    bytes: Vec<u8>,
    fields: Vec<Field>,
    sections: Vec<Section>,
}

/// Records fields while walking bytes from `base` on.
struct Walker<'a> {
    r: ByteReader<'a>,
    base: usize,
    section: usize,
    fields: &'a mut Vec<Field>,
}

impl Walker<'_> {
    fn at(&self) -> usize {
        self.base + self.r.position()
    }

    fn varint(&mut self, name: &'static str) -> u64 {
        let at = self.at();
        let value = self.r.varint(name).unwrap();
        let len = self.at() - at;
        self.fields.push(Field {
            name,
            at,
            len,
            kind: Kind::Varint,
            value,
            section: self.section,
        });
        value
    }

    fn u64(&mut self, name: &'static str) -> u64 {
        let at = self.at();
        let value = self.r.u64(name).unwrap();
        self.fields.push(Field {
            name,
            at,
            len: 8,
            kind: Kind::U64,
            value,
            section: self.section,
        });
        value
    }

    fn skip(&mut self, n: usize) {
        self.r.take(n, "skip").unwrap();
    }
}

/// Walks the `EBCS` manifest at `base`, recording its fields under a new
/// section, and returns `(section, manifest end, shard-length fields)`.
fn walk_manifest(
    bytes: &[u8],
    base: usize,
    fields: &mut Vec<Field>,
    sections: &mut Vec<Section>,
) -> (usize, usize, Vec<usize>) {
    let section = sections.len();
    let mut w = Walker {
        r: ByteReader::new(&bytes[base..]),
        base,
        section,
        fields,
    };
    w.skip(4);
    let version = w.r.u8("version").unwrap();
    w.skip(1); // dtype
    let rank = w.r.u8("rank").unwrap() as usize;
    for _ in 0..rank {
        w.varint("dimension");
    }
    for _ in 0..rank {
        w.varint("chunk dimension");
    }
    w.skip(8); // abs bound
    if version == 4 {
        for name in ["generation", "parent", "parent offset", "parent length"] {
            w.varint(name);
        }
    }
    let n_chains = w.varint("chain count");
    for _ in 0..n_chains {
        ChainSpec::decode(&mut w.r).unwrap();
    }
    let mut shard_len_fields = Vec::new();
    if version == 3 {
        let n_shards = w.varint("shard count");
        for _ in 0..n_shards {
            shard_len_fields.push(w.fields.len());
            w.varint("shard length");
        }
    }
    let n_chunks = w.varint("chunk count");
    for _ in 0..n_chunks {
        w.varint("chunk chain");
        match version {
            3 => {
                w.varint("chunk shard");
                w.varint("chunk slot");
            }
            4 => {
                w.varint("chunk offset");
                w.varint("chunk length");
                w.varint("chunk born generation");
                w.skip(4);
            }
            _ => {
                w.varint("chunk offset");
                w.varint("chunk length");
            }
        }
    }
    let crc_at = w.at();
    sections.push(Section {
        start: base,
        crc_at,
        owner: None,
    });
    (section, crc_at + 4, shard_len_fields)
}

/// Walks the `EBSH` shard at `base`, recording its inner-index fields
/// under a new section framed by `owner`.
fn walk_shard(
    bytes: &[u8],
    base: usize,
    owner: usize,
    fields: &mut Vec<Field>,
    sections: &mut Vec<Section>,
) {
    let section = sections.len();
    let mut w = Walker {
        r: ByteReader::new(&bytes[base..]),
        base,
        section,
        fields,
    };
    w.skip(5);
    let n_slots = w.varint("shard slot count");
    for _ in 0..n_slots {
        w.varint("shard slot offset");
        w.varint("shard slot length");
        w.skip(4);
    }
    sections.push(Section {
        start: base,
        crc_at: w.at(),
        owner: Some(owner),
    });
}

fn ebcs(name: &'static str, bytes: Vec<u8>) -> Container {
    let (mut fields, mut sections) = (Vec::new(), Vec::new());
    let (_, mut at, shard_lens) = walk_manifest(&bytes, 0, &mut fields, &mut sections);
    for owner in shard_lens {
        walk_shard(&bytes, at, owner, &mut fields, &mut sections);
        at += fields[owner].value as usize;
    }
    Container {
        name,
        bytes,
        fields,
        sections,
    }
}

fn ebms(name: &'static str, bytes: Vec<u8>) -> Container {
    let (mut fields, mut sections) = (Vec::new(), Vec::new());
    let mut live = (0, 0, 0); // (generation, manifest offset, length field)
    for which in 0..2 {
        let start = 5 + which * SLOT_LEN;
        let section = sections.len();
        let mut w = Walker {
            r: ByteReader::new(&bytes[start..]),
            base: start,
            section,
            fields: &mut fields,
        };
        let generation = w.u64("root generation");
        let offset = w.u64("root manifest offset");
        let len_field = w.fields.len();
        w.u64("root manifest length");
        sections.push(Section {
            start,
            crc_at: start + 24,
            owner: None,
        });
        if generation > live.0 {
            live = (generation, offset as usize, len_field);
        }
    }
    let (section, _, _) = walk_manifest(&bytes, live.1, &mut fields, &mut sections);
    sections[section].owner = Some(live.2);
    Container {
        name,
        bytes,
        fields,
        sections,
    }
}

/// The three layouts the store writes, built once.
fn containers() -> &'static [Container] {
    static ALL: OnceLock<Vec<Container>> = OnceLock::new();
    ALL.get_or_init(|| {
        let data = data();
        let bound = ErrorBound::Relative(1e-3);
        let chunk = Shape::d2(8, 5);
        let chains: Vec<ChainSpec> = [CompressorId::Sz3, CompressorId::Szx, CompressorId::Zfp]
            .into_iter()
            .map(ChainSpec::preset)
            .collect();
        let picks: Vec<usize> = (0..9).map(|i| i % 3).collect();
        let v2 = ChunkedStore::write_mixed(&chains, &picks, &data, bound, chunk, 1).unwrap();
        let szx = CompressorId::Szx.instance();
        let v3 = ChunkedStore::write_sharded(szx.as_ref(), &data, bound, chunk, 4, 1).unwrap();
        let sz3 = CompressorId::Sz3.instance();
        let mut store = MutableStore::create(sz3.as_ref(), &data, bound, chunk, 1).unwrap();
        let region = Region::new(&[5, 3], &[6, 4]);
        store
            .update_region(&region, &NdArray::from_fn(region.shape(), |_| 2.5f32), 1)
            .unwrap();
        vec![
            ebcs("v2", v2),
            ebcs("v3", v3),
            ebms("EBMS", store.as_bytes().to_vec()),
        ]
    })
}

/// One change to one field, or a cut of the whole container.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    Set(u64),
    Nudge(i64),
    /// Multiplies the value by `2^k`, saturating.
    Inflate(u32),
    /// Writes the field's bytes twice.
    Splice,
    /// Deletes the field's bytes.
    Drop,
    Truncate(usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        any::<u64>().prop_map(Mutation::Set),
        (0u64..64).prop_map(Mutation::Set),
        (-3i64..4).prop_map(Mutation::Nudge),
        (1u32..48).prop_map(Mutation::Inflate),
        (0u8..1).prop_map(|_| Mutation::Splice),
        (0u8..1).prop_map(|_| Mutation::Drop),
        any::<usize>().prop_map(Mutation::Truncate),
    ]
}

fn encode(kind: Kind, v: u64) -> Vec<u8> {
    match kind {
        Kind::Varint => {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            out
        }
        Kind::U64 => v.to_le_bytes().to_vec(),
    }
}

/// Replaces `field`'s bytes with `new` and re-seals its section; returns
/// the change in the section's length.
fn rewrite(bytes: &mut Vec<u8>, field: &Field, section: &Section, new: &[u8]) -> i64 {
    bytes.splice(field.at..field.at + field.len, new.iter().copied());
    let delta = new.len() as i64 - field.len as i64;
    let crc_at = (section.crc_at as i64 + delta) as usize;
    let crc = crc32(&bytes[section.start..crc_at]);
    bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    delta
}

/// `c` with `m` applied to field `pick`, every covering checksum and the
/// framing length re-sealed.
fn mutate(c: &Container, pick: usize, m: Mutation) -> Vec<u8> {
    let mut bytes = c.bytes.clone();
    let field = c.fields[pick % c.fields.len()];
    let old = &c.bytes[field.at..field.at + field.len];
    let new = match m {
        Mutation::Truncate(cut) => {
            bytes.truncate(cut % bytes.len());
            return bytes;
        }
        Mutation::Set(v) => encode(field.kind, v),
        Mutation::Nudge(k) => encode(field.kind, field.value.saturating_add_signed(k)),
        Mutation::Inflate(k) => encode(field.kind, field.value.saturating_mul(1 << k)),
        Mutation::Splice => [old, old].concat(),
        Mutation::Drop => Vec::new(),
    };
    let section = c.sections[field.section];
    let delta = rewrite(&mut bytes, &field, &section, &new);
    // The framing field precedes the section, so its position holds.
    if let (Some(owner), true) = (section.owner, delta != 0) {
        let owner = c.fields[owner];
        let framed = encode(owner.kind, owner.value.saturating_add_signed(delta));
        rewrite(&mut bytes, &owner, &c.sections[owner.section], &framed);
    }
    bytes
}

/// Opens `bytes` and reads the whole array on the calling thread: a
/// typed error or a right-shaped array, and no allocation beyond
/// [`ALLOCATION_FACTOR`] times the container plus the array.
fn check(bytes: &[u8], what: &str) {
    let read = || ChunkedStore::open(bytes)?.read_full::<f32>(1);
    // The first read on a thread sets up its telemetry buffers; a valid
    // read first keeps them out of the measurement.
    ChunkedStore::open(&containers()[0].bytes)
        .unwrap()
        .read_full::<f32>(1)
        .unwrap();
    let (got, largest) = largest_allocation(read);
    if let Ok(a) = &got {
        assert_eq!(a.shape(), shape(), "{what}: wrong shape");
    }
    let limit = ALLOCATION_FACTOR * (bytes.len() + shape().len() * 4);
    assert!(
        largest <= limit,
        "{what}: allocated {largest} bytes, limit {limit} ({got:?})"
    );
}

#[test]
fn the_unmutated_containers_read_back() {
    let want = ChunkedStore::open(&containers()[0].bytes)
        .unwrap()
        .read_full::<f32>(1)
        .unwrap();
    for c in containers() {
        check(&c.bytes, c.name);
        let got = ChunkedStore::open(&c.bytes)
            .unwrap()
            .read_full::<f32>(1)
            .unwrap();
        assert_eq!(got.shape(), want.shape(), "{}", c.name);
        // The walk found every section of the layout.
        let expected_sections = match c.name {
            "v2" => 1,
            "v3" => 1 + 3,
            _ => 2 + 1,
        };
        assert_eq!(c.sections.len(), expected_sections, "{}", c.name);
        // Re-sealing an unchanged field reproduces the container.
        for pick in 0..c.fields.len() {
            assert_eq!(
                mutate(c, pick, Mutation::Nudge(0)),
                c.bytes,
                "{} field {pick}",
                c.name
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// A mutated field past every checksum: a typed result and bounded
    /// allocation.
    #[test]
    fn mutated_containers_give_typed_results(
        layout in 0usize..3,
        pick in any::<usize>(),
        m in mutation(),
    ) {
        let c = &containers()[layout];
        let field = c.fields[pick % c.fields.len()];
        check(&mutate(c, pick, m), &format!("{} {} {m:?}", c.name, field.name));
    }
}
