//! Canonical Huffman coding of quantization codes.
//!
//! The SZ-family pipelines (SZ2 §II-B, SZ3) entropy-code their quantized
//! prediction residuals with Huffman before the lossless backend. This
//! module implements a self-contained canonical-Huffman block format:
//!
//! ```text
//! [n_symbols varint] [table: (symbol delta varint, code len u8)*]
//! [n_values varint] [payload bit length varint] [payload bits…]
//! ```
//!
//! Code lengths are capped at [`MAX_CODE_LEN`]; if the optimal tree is
//! deeper (possible with extremely skewed counts), frequencies are
//! repeatedly halved until the tree fits — the classic pragmatic
//! length-limiting approach.
//!
//! The encoder reads the symbols twice. A min/max scan sizes the census;
//! the census (four interleaved count tables, so a run of one symbol does
//! not chain its increments through one counter) fixes the table, the
//! canonical codes and the payload's exact bit length, so the payload is
//! written straight into the output through a 64-bit accumulator that
//! takes up to four codes per step and leaves 32 bits at a time. Its
//! bytes are those of the per-symbol `BitWriter` encoder it replaced,
//! which the tests keep as their oracle.

#[cfg(test)]
use crate::bitstream::BitReader;
use crate::error::{CodecError, Result};
use crate::scratch::{with_scratch, ArenaBuf};
use crate::util::{put_varint, ByteReader};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Maximum admissible code length in bits.
pub const MAX_CODE_LEN: u8 = 32;

/// Alphabets whose largest symbol is below this are censused and
/// encoded through flat tables indexed by symbol (quantization codes
/// are dense small integers); anything larger goes through a sorted
/// table.
const DENSE_LIMIT: u32 = 1 << 20;

/// Encodes a symbol sequence as a self-contained Huffman block.
pub fn encode_block(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    with_scratch(|s| s.huff_enc.encode_into(symbols, &mut out));
    out
}

/// Census lanes: the dense census counts symbol `k` of every group of
/// `LANES` into its own table, so a run of one symbol (the zero bin)
/// spreads its increments over `LANES` independent cells.
const LANES: usize = 4;

/// Reusable state of the block encoder: census, tree and code tables.
/// Held in [`CodecScratch`](crate::scratch::CodecScratch) so a
/// steady-state encode loop builds its tables in place.
#[derive(Default)]
pub(crate) struct HuffEncoder {
    /// Dense census: `LANES` interleaved count tables, the count of
    /// symbol `min + k` in lane `l` at `k * LANES + l`. All zero between
    /// calls.
    counts: Vec<u64>,
    /// `(symbol, count)` of every symbol present, ascending by symbol —
    /// the order the block's table is written in.
    table: Vec<(u32, u64)>,
    /// Code length per `table` entry.
    lens: Vec<u8>,
    /// Packed `code << 8 | len`: indexed by `symbol − min` on the dense
    /// path, by `table` position on the sparse one.
    codes: Vec<u64>,
    /// Tree construction: pending nodes as `(weight, id, node)`.
    heap: BinaryHeap<Reverse<u128>>,
    /// Parent of each tree node (leaves first, in `table` order).
    parent: Vec<u32>,
    /// Depth of each tree node.
    depth: Vec<u8>,
    /// Sorted copy of the input (sparse census only).
    sorted: Vec<u32>,
}

impl HuffEncoder {
    /// Appends the Huffman block for `symbols` to `out`.
    ///
    /// Two passes over the symbols: a min/max scan sizes the census,
    /// and the census fixes the table, the codes and the payload's
    /// exact bit length, so the payload is emitted straight into `out`.
    pub(crate) fn encode_into(&mut self, symbols: &[u32], out: &mut Vec<u8>) {
        if symbols.is_empty() {
            put_varint(out, 0); // n_symbols
            put_varint(out, 0); // n_values
            put_varint(out, 0); // payload bits
            return;
        }
        let (min_sym, max_sym) = symbols
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &s| (lo.min(s), hi.max(s)));
        let dense = max_sym < DENSE_LIMIT;
        self.census(symbols, min_sym, max_sym, dense);
        self.code_lengths();

        // Table: symbols ascending, delta-coded.
        put_varint(out, self.table.len() as u64);
        let mut prev = 0u32;
        for (&(sym, _), &len) in self.table.iter().zip(&self.lens) {
            put_varint(out, u64::from(sym - prev));
            out.push(len);
            prev = sym;
        }

        self.assign_codes(if dense { Some(min_sym) } else { None });

        // Payload.
        let n_bits: u64 = self
            .table
            .iter()
            .zip(&self.lens)
            .map(|(&(_, c), &l)| c * u64::from(l))
            .sum();
        put_varint(out, symbols.len() as u64);
        put_varint(out, n_bits);
        let codes = self.codes.as_slice();
        if dense {
            emit(out, symbols, n_bits, |s| codes[(s - min_sym) as usize]);
        } else {
            let table = self.table.as_slice();
            emit(out, symbols, n_bits, |s| {
                // Every symbol was counted into `table`, so the search
                // always lands on its entry.
                let (Ok(i) | Err(i)) = table.binary_search_by_key(&s, |&(sym, _)| sym);
                codes[i]
            });
        }
    }

    /// Assigns canonical codes (shorter codes first, ties by symbol
    /// value) into `codes`: the first code of each length follows from
    /// the counts of the shorter lengths, and `table` is already in
    /// symbol order. `Some(min)` indexes `codes` by `symbol − min`,
    /// `None` by `table` position.
    fn assign_codes(&mut self, dense_from: Option<u32>) {
        let mut per_len = [0u64; MAX_CODE_LEN as usize + 1];
        for &len in &self.lens {
            per_len[len as usize] += 1;
        }
        let mut next = [0u64; MAX_CODE_LEN as usize + 1];
        let mut code = 0u64;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + per_len[len - 1]) << 1;
            next[len] = code;
        }
        let slots = match (dense_from, self.table.last()) {
            (Some(min), Some(&(max, _))) => (max - min) as usize + 1,
            _ => self.table.len(),
        };
        if self.codes.len() < slots {
            self.codes.resize(slots, 0);
        }
        for (i, (&(sym, _), &len)) in self.table.iter().zip(&self.lens).enumerate() {
            let slot = dense_from.map_or(i, |min| (sym - min) as usize);
            self.codes[slot] = next[len as usize] << 8 | u64::from(len);
            next[len as usize] += 1;
        }
    }

    /// Fills `table` with the frequency census of `symbols`, whose
    /// smallest and largest values are `min_sym` and `max_sym`.
    fn census(&mut self, symbols: &[u32], min_sym: u32, max_sym: u32, dense: bool) {
        self.table.clear();
        if dense {
            let cells = ((max_sym - min_sym) as usize + 1) * LANES;
            if self.counts.len() < cells {
                self.counts.resize(cells, 0);
            }
            let counts = &mut self.counts[..cells];
            let mut groups = symbols.chunks_exact(LANES);
            for g in &mut groups {
                for (lane, &s) in g.iter().enumerate() {
                    counts[(s - min_sym) as usize * LANES + lane] += 1;
                }
            }
            for &s in groups.remainder() {
                counts[(s - min_sym) as usize * LANES] += 1;
            }
            for (sym, lanes) in (min_sym..=max_sym).zip(counts.chunks_exact_mut(LANES)) {
                let c: u64 = lanes.iter().sum();
                if c > 0 {
                    lanes.fill(0);
                    self.table.push((sym, c));
                }
            }
        } else {
            self.sorted.clear();
            self.sorted.extend_from_slice(symbols);
            self.sorted.sort_unstable();
            for &s in &self.sorted {
                match self.table.last_mut() {
                    Some((last, c)) if *last == s => *c += 1,
                    _ => self.table.push((s, 1)),
                }
            }
        }
    }

    /// Fills `lens` with optimal (length-limited) code lengths for the
    /// census in `table`.
    fn code_lengths(&mut self) {
        self.lens.clear();
        // Single-symbol alphabets get a 1-bit code.
        if self.table.len() == 1 {
            self.lens.push(1);
            return;
        }
        let mut scale = 0u32;
        loop {
            self.try_code_lengths(scale);
            if self.lens.iter().all(|&l| l <= MAX_CODE_LEN) {
                return;
            }
            scale += 1; // halve frequencies and retry
        }
    }

    /// One Huffman construction over the census with every frequency
    /// shifted right by `scale` (floored at 1). Nodes live in flat
    /// arrays: leaves `0..m` in `table` order, internal nodes after
    /// them in creation order, so a parent always has a larger index
    /// than its children.
    fn try_code_lengths(&mut self, scale: u32) {
        let m = self.table.len();
        self.heap.clear();
        self.heap.extend(
            self.table
                .iter()
                .enumerate()
                // Tie-break on id (the symbol for leaves) for determinism.
                .map(|(i, &(s, f))| Reverse(node_key((f >> scale).max(1), s, i as u32))),
        );
        self.parent.clear();
        self.parent.resize(m, 0);
        // Internal ids count down from the top of the range, so at equal
        // weight every leaf pops before every internal node and a newer
        // internal node before an older one.
        let mut next_id = u32::MAX;
        while self.heap.len() > 1 {
            let (Some(Reverse(a)), Some(Reverse(b))) = (self.heap.pop(), self.heap.pop()) else {
                break;
            };
            let (a, b) = (node_parts(a), node_parts(b));
            next_id -= 1;
            let node = self.parent.len() as u32;
            self.parent[a.2 as usize] = node;
            self.parent[b.2 as usize] = node;
            self.parent.push(node); // the root stays its own parent
            self.heap.push(Reverse(node_key(a.0 + b.0, next_id, node)));
        }
        let total = self.parent.len();
        self.depth.clear();
        self.depth.resize(total, 0);
        for i in (0..total.saturating_sub(1)).rev() {
            self.depth[i] = self.depth[self.parent[i] as usize].saturating_add(1);
        }
        self.lens.clear();
        self.lens.extend(self.depth[..m].iter().map(|&d| d.max(1)));
    }

    /// Visits every growable buffer (the arena's retention policy).
    pub(crate) fn for_each_buf(&mut self, f: &mut dyn FnMut(&mut dyn ArenaBuf)) {
        f(&mut self.counts);
        f(&mut self.table);
        f(&mut self.lens);
        f(&mut self.codes);
        f(&mut self.heap);
        f(&mut self.parent);
        f(&mut self.depth);
        f(&mut self.sorted);
    }
}

/// A tree node's heap key: `(weight, id, node)` packed so that one `u128`
/// compare orders keys exactly as the tuple's lexicographic compare.
#[inline]
fn node_key(weight: u64, id: u32, node: u32) -> u128 {
    u128::from(weight) << 64 | u128::from(id) << 32 | u128::from(node)
}

/// Inverse of [`node_key`].
#[inline]
fn node_parts(key: u128) -> (u64, u32, u32) {
    ((key >> 64) as u64, (key >> 32) as u32, key as u32)
}

/// Appends the MSB-first payload of `symbols` — `n_bits` bits, zero-padded
/// to a whole byte — to `out`, each symbol's packed `code << 8 | len`
/// from `code_of`.
///
/// Codes gather in a 64-bit accumulator that holds fewer than 32
/// pending bits between steps and leaves 32 bits at a time as four
/// big-endian bytes. A step adds one code (≤ [`MAX_CODE_LEN`] = 32
/// bits) or, when four consecutive codes total at most 32 bits (the
/// common case for quantization codes near the zero bin), all four
/// joined — so the accumulator's serial shift-or chain and the flush
/// test run once per group instead of once per code.
fn emit(out: &mut Vec<u8>, symbols: &[u32], n_bits: u64, code_of: impl Fn(u32) -> u64) {
    let start = out.len();
    let n_bytes = n_bits.div_ceil(8) as usize;
    // Whole words are written; the slack holds the last one's padding.
    out.resize(start + n_bytes + 4, 0);
    let dst = &mut out[start..];
    let (mut acc, mut used, mut pos) = (0u64, 0u32, 0usize);
    let mut put = |code: u64, len: u32| {
        // Bits above `used` are already out; shifting them off the top
        // keeps the live `used + len ≤ 63` bits intact.
        acc = (acc << len) | code;
        used += len;
        if used >= 32 {
            used -= 32;
            dst[pos..pos + 4].copy_from_slice(&((acc >> used) as u32).to_be_bytes());
            pos += 4;
        }
    };
    let mut groups = symbols.chunks_exact(4);
    for g in &mut groups {
        let p = [code_of(g[0]), code_of(g[1]), code_of(g[2]), code_of(g[3])];
        let len = p.map(|c| (c & 0xff) as u32);
        let total = len.iter().sum();
        if total <= 32 {
            let joined = p[1..].iter().zip(&len[1..]).fold(p[0] >> 8, |j, (c, &l)| j << l | c >> 8);
            put(joined, total);
        } else {
            for (c, l) in p.into_iter().zip(len) {
                put(c >> 8, l);
            }
        }
    }
    for &s in groups.remainder() {
        let c = code_of(s);
        put(c >> 8, (c & 0xff) as u32);
    }
    if used > 0 {
        dst[pos..pos + 4].copy_from_slice(&((acc << (32 - used)) as u32).to_be_bytes());
    }
    out.truncate(start + n_bytes);
}

/// Decodes a block produced by [`encode_block`].
///
/// Returns the symbols and the number of bytes consumed from `buf`.
/// This is the table-driven fast path; this module's unit tests hold
/// it to the original bit-at-a-time walk, kept as a test-only oracle.
pub fn decode_block(buf: &[u8]) -> Result<(Vec<u32>, usize)> {
    let mut out = Vec::new();
    let mut lut = HuffLookup::default();
    let used = decode_block_into(buf, &mut out, &mut lut)?;
    Ok((out, used))
}

/// Parses the table header shared by both decode paths. Returns `None`
/// (after validating the two trailing zero varints) for an empty block.
/// Every entry takes at least two bytes (a symbol delta and a length),
/// so a count the rest of the buffer cannot hold is rejected before
/// anything is allocated for it.
fn parse_table(r: &mut ByteReader<'_>) -> Result<Option<Vec<(u32, u8)>>> {
    let n_table = r.varint("huffman table size")?;
    if n_table == 0 {
        let n_values = r.varint("huffman value count")?;
        let n_bits = r.varint("huffman bit length")?;
        if n_values != 0 || n_bits != 0 {
            return Err(CodecError::Corrupt { context: "empty huffman block" });
        }
        return Ok(None);
    }
    if n_table > r.remaining() as u64 / 2 {
        return Err(CodecError::Corrupt { context: "huffman table size" });
    }
    let n_table = n_table as usize;

    let mut table = Vec::with_capacity(n_table);
    let mut sym = 0u32;
    for i in 0..n_table {
        let delta = r.varint("huffman table symbol")?;
        if i > 0 && delta == 0 {
            // Symbols are strictly increasing after the first entry.
            return Err(CodecError::Corrupt { context: "huffman duplicate symbol" });
        }
        sym = sym
            .checked_add(u32::try_from(delta).map_err(|_| CodecError::Corrupt {
                context: "huffman symbol delta",
            })?)
            .ok_or(CodecError::Corrupt { context: "huffman symbol overflow" })?;
        let len = r.u8("huffman code length")?;
        if len == 0 || len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt { context: "huffman code length" });
        }
        table.push((sym, len));
    }
    Ok(Some(table))
}

/// Parses the value count, the payload bit length and the payload that
/// follow the table, for both decode paths. Every code is at least one
/// bit long, so a block claiming more values than payload bits is
/// corrupt — rejected here, which bounds every buffer sized by the
/// value count by the payload actually present.
fn parse_payload<'a>(r: &mut ByteReader<'a>) -> Result<(usize, &'a [u8])> {
    let n_values = r.varint("huffman value count")?;
    let n_bits = r.varint("huffman bit length")?;
    if n_values > n_bits {
        return Err(CodecError::Corrupt { context: "huffman value count" });
    }
    let payload = r.take(n_bits.div_ceil(8) as usize, "huffman payload")?;
    Ok((n_values as usize, payload))
}

/// Decodes a block into a caller-owned buffer, replacing its contents
/// (which an error leaves unspecified), reusing the caller's
/// [`HuffLookup`] tables so steady-state chunk serving builds no fresh
/// decoder allocations per block. Returns the bytes consumed from `buf`.
///
/// Symbols decode through the multi-symbol window
/// (`HuffLookup::decode_multi`): one lookup and one buffer shift per
/// window of up to eight symbols instead of per symbol, and one refill
/// per five windows.
pub fn decode_block_into(buf: &[u8], out: &mut Vec<u32>, lut: &mut HuffLookup) -> Result<usize> {
    let mut r = ByteReader::new(buf);
    let Some(table) = parse_table(&mut r)? else {
        out.clear();
        return Ok(r.position());
    };
    lut.prepare(&table)?;
    let (n_values, payload) = parse_payload(&mut r)?;
    let consumed = r.position();

    lut.prepare_multi();
    lut.decode_multi(&mut BatchBits::new(payload), n_values, out)?;
    Ok(consumed)
}

/// The original bit-at-a-time canonical decode, kept verbatim as the
/// oracle the fast path is proptested against (here and, through
/// `codecs::reference`, in the `codecs::decode_fastpath` tests).
#[cfg(test)]
pub(crate) fn decode_block_reference(buf: &[u8]) -> Result<(Vec<u32>, usize)> {
    let mut r = ByteReader::new(buf);
    let Some(table) = parse_table(&mut r)? else {
        return Ok((Vec::new(), r.position()));
    };
    let decoder = Decoder::new(&table)?;
    let (n_values, payload) = parse_payload(&mut r)?;
    let consumed = r.position();

    let mut bits = BitReader::new(payload);
    let mut out = Vec::with_capacity(n_values);
    for _ in 0..n_values {
        out.push(decoder.decode_one(&mut bits)?);
    }
    Ok((out, consumed))
}

/// Canonical decoder: per-length first-code/first-index tables.
#[cfg(test)]
struct Decoder {
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// For each length 1..=MAX: (first code, first index, count).
    per_len: Vec<(u64, usize, usize)>,
}

#[cfg(test)]
impl Decoder {
    fn new(table: &[(u32, u8)]) -> Result<Self> {
        let mut sorted: Vec<(u32, u8)> = table.to_vec();
        sorted.sort_unstable_by_key(|&(s, l)| (l, s));
        let symbols: Vec<u32> = sorted.iter().map(|&(s, _)| s).collect();
        let mut per_len = vec![(0u64, 0usize, 0usize); MAX_CODE_LEN as usize + 1];
        let mut code = 0u64;
        let mut prev_len = 0u8;
        for (i, &(_, len)) in sorted.iter().enumerate() {
            if len != prev_len {
                code <<= len - prev_len;
                per_len[len as usize] = (code, i, 0);
                prev_len = len;
            }
            per_len[len as usize].2 += 1;
            code += 1;
            // Kraft violation ⇒ corrupt table.
            if len < 64 && code > (1u64 << len) {
                return Err(CodecError::Corrupt { context: "huffman kraft inequality" });
            }
        }
        Ok(Self { symbols, per_len })
    }

    fn decode_one(&self, bits: &mut BitReader<'_>) -> Result<u32> {
        let mut code = 0u64;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code << 1) | u64::from(bits.get_bit("huffman payload")?);
            let (first_code, first_idx, count) = self.per_len[len];
            if count > 0 && code >= first_code && code < first_code + count as u64 {
                return Ok(self.symbols[first_idx + (code - first_code) as usize]);
            }
        }
        Err(CodecError::Corrupt { context: "huffman code" })
    }
}

/// Width of the primary lookup window: every code no longer than this
/// decodes with a single table index instead of a per-length scan.
/// Quantization-code tables cluster around the zero bin, so in practice
/// nearly all symbols resolve through the primary table.
const PRIMARY_BITS: u32 = 12;

/// Width of the multi-symbol window: one lookup resolves every whole
/// code among the next `MULTI_BITS` payload bits. Quantization codes
/// average under two bits, so a window typically yields several.
const MULTI_BITS: u32 = 10;
/// Most symbols one multi-symbol window entry holds. A window of
/// one-bit zero-bin codes holds ten; eight keep an entry at 32 bytes.
const MULTI_MAX: usize = 8;
/// Windows decoded after one refill. A refill leaves at least 57 real
/// bits while eight payload bytes remain, and a window consumes at most
/// `MULTI_BITS`, so a whole group reads real bits only.
const GROUP_WINDOWS: usize = 5;
/// Real bits a group needs in the buffer before it starts.
const GROUP_BITS: u32 = GROUP_WINDOWS as u32 * MULTI_BITS;

/// Reusable state of the table-driven canonical decoder: the per-length
/// range tables of the tree decoder, a `PRIMARY_BITS`-wide direct-lookup
/// window and the `MULTI_BITS`-wide multi-symbol window, which returns
/// up to `MULTI_MAX` (8) symbols per lookup. Held in
/// [`CodecScratch`](crate::scratch::CodecScratch) so repeated block
/// decodes on one thread reuse the allocations.
#[derive(Default)]
pub struct HuffLookup {
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// For each length 1..=MAX: (first code, first index, count).
    per_len: Vec<(u64, usize, usize)>,
    /// Decoded symbol per primary window (valid where `len != 0`).
    sym: Vec<u32>,
    /// Matched code length per primary window; 0 = longer than the
    /// window, resolved by the per-length scan.
    len: Vec<u8>,
    /// Actual window width: `min(PRIMARY_BITS, longest code)`.
    bits: u32,
    /// The whole codes at the front of each window, in order (the first
    /// `multi_len >> 4` are valid). Windows of every width `r` up to
    /// `MULTI_BITS` are kept, the `r`-bit window `v` at `1 << r | v`:
    /// the build fills each from a narrower one, and the decoder reads
    /// the widest, the upper half.
    multi_sym: Vec<[u32; MULTI_MAX]>,
    /// Per window, laid out as `multi_sym`: `count << 4 | total bits`;
    /// 0 when the window's first code is longer than the window.
    multi_len: Vec<u8>,
}

impl HuffLookup {
    /// Visits every growable buffer (the arena's retention policy).
    pub(crate) fn for_each_buf(&mut self, f: &mut dyn FnMut(&mut dyn ArenaBuf)) {
        f(&mut self.symbols);
        f(&mut self.per_len);
        f(&mut self.sym);
        f(&mut self.len);
        f(&mut self.multi_sym);
        f(&mut self.multi_len);
    }

    /// Rebuilds the tables for one block's code table. Performs the same
    /// canonical assignment and Kraft validation as [`Decoder::new`].
    fn prepare(&mut self, table: &[(u32, u8)]) -> Result<()> {
        // `table` is in strictly increasing symbol order (`parse_table`
        // checks), so bucketing it by length, in order, sorts it by
        // (length, symbol).
        let mut counts = [0usize; MAX_CODE_LEN as usize + 1];
        for &(_, len) in table {
            counts[len as usize] += 1;
        }
        let mut next = [0usize; MAX_CODE_LEN as usize + 1];
        for len in 1..=MAX_CODE_LEN as usize {
            next[len] = next[len - 1] + counts[len - 1];
        }
        self.symbols.clear();
        self.symbols.resize(table.len(), 0);
        self.per_len.clear();
        self.per_len.resize(MAX_CODE_LEN as usize + 1, (0u64, 0usize, 0usize));
        let mut code = 0u64;
        let mut prev_len = 0usize;
        for len in 1..=MAX_CODE_LEN as usize {
            if counts[len] == 0 {
                continue;
            }
            code <<= len - prev_len;
            self.per_len[len] = (code, next[len], counts[len]);
            prev_len = len;
            code += counts[len] as u64;
            // Kraft violation ⇒ corrupt table.
            if code > 1u64 << len {
                return Err(CodecError::Corrupt { context: "huffman kraft inequality" });
            }
        }
        for &(sym, len) in table {
            self.symbols[next[len as usize]] = sym;
            next[len as usize] += 1;
        }

        // Primary window: each code owns the contiguous run of windows it
        // prefixes. The Kraft check keeps canonical codes prefix-free and
        // inside the window, so the runs neither overlap nor overrun.
        self.bits = (prev_len as u32).min(PRIMARY_BITS);
        let size = 1usize << self.bits;
        self.len.clear();
        self.len.resize(size, 0);
        // `sym` is read only where `len` is set, so it keeps what the
        // last block left elsewhere.
        self.sym.resize(size, 0);
        for len in 1..=self.bits {
            let (first, fidx, count) = self.per_len[len as usize];
            let run = 1usize << (self.bits - len);
            let lo = (first as usize) << (self.bits - len);
            for (k, &symv) in self.symbols[fidx..fidx + count].iter().enumerate() {
                let at = lo + k * run;
                self.len[at..at + run].fill(len as u8);
                self.sym[at..at + run].fill(symv);
            }
        }
        Ok(())
    }

    /// Fills the multi-symbol windows (after [`Self::prepare`]): for
    /// every window of `r ≤ MULTI_BITS` bits, the run of whole codes it
    /// starts with, up to `MULTI_MAX`. A code counts only if all its bits
    /// lie inside the window, so an entry never depends on the bits that
    /// follow it.
    ///
    /// Widths go up from one bit. The `r`-bit windows that start with
    /// the code `c` of `len ≤ r` bits are `c << (r − len) | t` for every
    /// `t` of `r − len` bits, and past `c` each holds what the window `t`
    /// of that narrower width holds, already built. So the entries come
    /// from contiguous runs of narrower ones, `c`'s symbol put in front;
    /// only an entry whose tail is already full walks its codes one by
    /// one. Windows whose first code is longer stay empty.
    fn prepare_multi(&mut self) {
        // Only the first `count` symbols of an entry are ever read, so
        // the symbol table keeps what the last block left; the counts
        // start empty.
        let size = 2usize << MULTI_BITS;
        self.multi_sym.resize(size, [0; MULTI_MAX]);
        self.multi_len.clear();
        self.multi_len.resize(size, 0);
        let shift = 64 - self.bits;
        let (len_of, sym_of) = (self.len.as_slice(), self.sym.as_slice());
        let (multi_sym, multi_len) = (self.multi_sym.as_mut_slice(), self.multi_len.as_mut_slice());
        for r in 1..=MULTI_BITS {
            for len in 1..=r {
                let (first, fidx, count) = self.per_len[len as usize];
                let tail_bits = r - len;
                let tails = 1usize << tail_bits;
                for (c, &sym) in (first as usize..).zip(&self.symbols[fidx..fidx + count]) {
                    let at0 = 1 << r | c << tail_bits;
                    for t in 0..tails {
                        let (tail, at) = (tails | t, at0 | t);
                        let packed = multi_len[tail];
                        let (n, used) = (usize::from(packed >> 4), u32::from(packed & 0xf));
                        if n < MULTI_MAX {
                            let mut syms = [sym; MULTI_MAX];
                            syms[1..].copy_from_slice(&multi_sym[tail][..MULTI_MAX - 1]);
                            multi_sym[at] = syms;
                            multi_len[at] = ((n + 1) << 4) as u8 | (len + used) as u8;
                            continue;
                        }
                        // A full tail: walk the window's codes one by one.
                        let window = ((at ^ 1 << r) as u64) << (64 - r);
                        let (mut used, mut n) = (0u32, 0usize);
                        while n < MULTI_MAX {
                            let idx = ((window << used) >> shift) as usize;
                            let l = u32::from(len_of[idx]);
                            if l == 0 || used + l > r {
                                break;
                            }
                            multi_sym[at][n] = sym_of[idx];
                            n += 1;
                            used += l;
                        }
                        multi_len[at] = (n as u8) << 4 | used as u8;
                    }
                }
            }
        }
    }

    /// Decodes `n` symbols into `out` through the multi-symbol window
    /// (after [`Self::prepare_multi`]). A window whose entry is empty,
    /// or whose codes would run past the payload's real bits, falls back
    /// to [`Self::decode_one`] — so every symbol and every error is the
    /// one the symbol-at-a-time walk produces.
    ///
    /// Windows go in groups of `GROUP_WINDOWS` after one refill. A group
    /// starts only with `GROUP_BITS` real bits buffered and room for
    /// `GROUP_WINDOWS · MULTI_MAX` more symbols before `n`, so none of
    /// its windows tests the bit count or the symbol count: every code
    /// it takes lies in real bits and is one of the first `n`. The last
    /// few windows of the payload go one at a time, with both tests.
    fn decode_multi(&self, bits: &mut BatchBits<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        // Every slot below `n` is written before the end, so the old
        // contents need no clearing. Each entry's symbols are stored as
        // one fixed-size group and the cursor advanced past the valid
        // ones, so the buffer carries `MULTI_MAX` slots of slack until
        // the end.
        if out.len() < n + MULTI_MAX {
            out.resize(n + MULTI_MAX, 0);
        }
        let widest = &self.multi_sym[1 << MULTI_BITS..];
        let widest_len = &self.multi_len[1 << MULTI_BITS..];
        let mut k = 0usize;
        'groups: while k + GROUP_WINDOWS * MULTI_MAX <= n {
            bits.refill();
            if bits.bitcount < GROUP_BITS {
                break;
            }
            for _ in 0..GROUP_WINDOWS {
                let w = (bits.bitbuf >> (64 - MULTI_BITS)) as usize;
                let packed = widest_len[w];
                if packed == 0 {
                    out[k] = self.decode_one(bits)?;
                    k += 1;
                    continue 'groups;
                }
                out[k..k + MULTI_MAX].copy_from_slice(&widest[w]);
                bits.consume(u32::from(packed & 0xf));
                k += usize::from(packed >> 4);
            }
        }
        while k + MULTI_MAX <= n {
            if bits.bitcount < 32 {
                bits.refill();
            }
            let w = (bits.bitbuf >> (64 - MULTI_BITS)) as usize;
            let packed = widest_len[w];
            let (count, used) = (usize::from(packed >> 4), u32::from(packed & 0xf));
            if count == 0 || used > bits.bitcount {
                out[k] = self.decode_one(bits)?;
                k += 1;
                continue;
            }
            out[k..k + MULTI_MAX].copy_from_slice(&widest[w]);
            bits.consume(used);
            k += count;
        }
        while k < n {
            out[k] = self.decode_one(bits)?;
            k += 1;
        }
        out.truncate(n);
        Ok(())
    }

    /// Decodes one symbol, bit-equivalent to [`Decoder::decode_one`]
    /// including its error behaviour (`TruncatedStream` when the payload
    /// runs dry mid-code, `Corrupt` after 32 unmatched bits).
    #[inline]
    fn decode_one(&self, bits: &mut BatchBits<'_>) -> Result<u32> {
        bits.refill();
        let w = bits.bitbuf;
        let idx = (w >> (64 - self.bits)) as usize;
        let len = u32::from(self.len[idx]);
        if len != 0 {
            if len > bits.bitcount {
                return Err(CodecError::TruncatedStream { context: "huffman payload" });
            }
            bits.consume(len);
            return Ok(self.sym[idx]);
        }
        // Long-code fallback: continue the per-length scan past the
        // primary window.
        for l in (self.bits + 1)..=u32::from(MAX_CODE_LEN) {
            let code = w >> (64 - l);
            let (first, fidx, count) = self.per_len[l as usize];
            if count > 0 && code >= first && code < first + count as u64 {
                if l > bits.bitcount {
                    return Err(CodecError::TruncatedStream { context: "huffman payload" });
                }
                bits.consume(l);
                return Ok(self.symbols[fidx + (code - first) as usize]);
            }
        }
        if bits.bitcount < u32::from(MAX_CODE_LEN) {
            Err(CodecError::TruncatedStream { context: "huffman payload" })
        } else {
            Err(CodecError::Corrupt { context: "huffman code" })
        }
    }
}

/// MSB-aligned 64-bit bit buffer over the payload slice: one refill
/// serves several short codes, replacing per-bit bounds checks with one
/// word load per ~4 symbols. Bits beyond the slice peek as zeros and
/// are never consumed (`bitcount` tracks real bits only).
struct BatchBits<'a> {
    bytes: &'a [u8],
    byte_pos: usize,
    /// Upcoming bits, MSB first; bits below `64 - bitcount` are zero.
    bitbuf: u64,
    /// Valid (real) bits currently in `bitbuf`.
    bitcount: u32,
}

impl<'a> BatchBits<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, byte_pos: 0, bitbuf: 0, bitcount: 0 }
    }

    /// Tops the buffer up to ≥ 56 valid bits (or to end of payload).
    #[inline]
    fn refill(&mut self) {
        if self.bitcount < 56 && self.byte_pos + 8 <= self.bytes.len() {
            if let Ok(arr) = <[u8; 8]>::try_from(&self.bytes[self.byte_pos..self.byte_pos + 8]) {
                let loaded = (64 - self.bitcount) / 8; // whole bytes that fit
                let keep = 64 - self.bitcount - 8 * loaded; // low bits to discard
                self.bitbuf |= (u64::from_be_bytes(arr) >> self.bitcount) & (u64::MAX << keep);
                self.byte_pos += loaded as usize;
                self.bitcount += 8 * loaded;
                return;
            }
        }
        while self.bitcount <= 56 && self.byte_pos < self.bytes.len() {
            self.bitbuf |= u64::from(self.bytes[self.byte_pos]) << (56 - self.bitcount);
            self.byte_pos += 1;
            self.bitcount += 8;
        }
    }

    /// Drops the top `n` valid bits (`n ≤ bitcount`).
    #[inline]
    fn consume(&mut self, n: u32) {
        debug_assert!(n <= self.bitcount);
        self.bitbuf <<= n;
        self.bitcount -= n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::BitWriter;

    fn roundtrip(symbols: &[u32]) {
        let enc = encode_block(symbols);
        let (dec, used) = decode_block(&enc).unwrap();
        assert_eq!(dec, symbols);
        assert_eq!(used, enc.len());
    }

    /// The three-pass encoder [`HuffEncoder::encode_into`] replaced: a
    /// `max()` pass, a census with one counter per symbol, and an emit
    /// through [`BitWriter::put_bits`]. The oracle the one-pass encoder
    /// must match byte for byte.
    fn encode_reference(symbols: &[u32]) -> Vec<u8> {
        let mut out = Vec::new();
        let Some(max_sym) = symbols.iter().copied().max() else {
            for _ in 0..3 {
                put_varint(&mut out, 0);
            }
            return out;
        };
        let mut enc = HuffEncoder::default();
        if max_sym < DENSE_LIMIT {
            let mut counts = vec![0u64; max_sym as usize + 1];
            for &s in symbols {
                counts[s as usize] += 1;
            }
            let present = counts.iter().enumerate().filter(|&(_, &c)| c > 0);
            enc.table.extend(present.map(|(s, &c)| (s as u32, c)));
        } else {
            let mut sorted = symbols.to_vec();
            sorted.sort_unstable();
            for s in sorted {
                match enc.table.last_mut() {
                    Some((last, c)) if *last == s => *c += 1,
                    _ => enc.table.push((s, 1)),
                }
            }
        }
        enc.code_lengths();
        put_varint(&mut out, enc.table.len() as u64);
        let mut prev = 0u32;
        for (&(sym, _), &len) in enc.table.iter().zip(&enc.lens) {
            put_varint(&mut out, u64::from(sym - prev));
            out.push(len);
            prev = sym;
        }
        enc.assign_codes(None);
        let mut bits = BitWriter::new();
        for &s in symbols {
            let (Ok(i) | Err(i)) = enc.table.binary_search_by_key(&s, |&(sym, _)| sym);
            let packed = enc.codes[i];
            bits.put_bits(packed >> 8, (packed & 0xff) as u32);
        }
        put_varint(&mut out, symbols.len() as u64);
        put_varint(&mut out, bits.bit_len());
        out.extend_from_slice(&bits.finish());
        out
    }

    /// A symbol stream of one of five shapes: one symbol repeated;
    /// geometric around a zero bin at `base` (so a `base` near
    /// [`DENSE_LIMIT`] lands the largest symbol on either side of it);
    /// runs of up to a thousand of one symbol; uniform over a small
    /// alphabet; or uniform over all of `u32`.
    fn symbol_stream(kind: usize, n: usize, seed: u64, base: u32) -> Vec<u32> {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let geometric = |r: u64| base.wrapping_add(r.trailing_zeros() / 2);
        match kind {
            0 => vec![base; n],
            1 => (0..n).map(|_| geometric(next())).collect(),
            2 => {
                let mut s = Vec::with_capacity(n);
                while s.len() < n {
                    let (sym, run) = (geometric(next()), 1 + next() % 1000);
                    s.extend(std::iter::repeat_n(sym, run as usize).take(n - s.len()));
                }
                s
            }
            3 => (0..n).map(|_| base.wrapping_add((next() % 200) as u32)).collect(),
            _ => (0..n).map(|_| next() as u32).collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-pass encoder writes the oracle's bytes: empty and
        /// one-symbol streams, dense and sparse alphabets either side of
        /// `DENSE_LIMIT`, long runs. Cases run back to back on one
        /// thread, so every one also starts from the tables the last left.
        #[test]
        fn one_pass_encoder_matches_the_three_pass_oracle(
            kind in 0usize..5,
            n in prop_oneof![0usize..4, 4usize..5000],
            seed in any::<u64>(),
            base in prop_oneof![0u32..40_000, DENSE_LIMIT - 40..DENSE_LIMIT + 8, any::<u32>()],
        ) {
            let symbols = symbol_stream(kind, n, seed, base);
            prop_assert_eq!(encode_block(&symbols), encode_reference(&symbols));
        }
    }

    /// Fibonacci-weighted counts over 34 symbols make the optimal tree
    /// deeper than `MAX_CODE_LEN`, so the encoder halves frequencies;
    /// the two encoders must still agree.
    #[test]
    fn frequency_halving_matches_the_oracle() {
        let mut s = Vec::new();
        let mut unscaled = HuffEncoder::default();
        let mut f = (1usize, 1usize);
        for sym in 1000..1034u32 {
            s.extend(std::iter::repeat_n(sym, f.0));
            unscaled.table.push((sym, f.0 as u64));
            f = (f.1, f.0 + f.1);
        }
        unscaled.try_code_lengths(0);
        assert!(unscaled.lens.iter().any(|&l| l > MAX_CODE_LEN), "the census must force halving");
        let enc = encode_block(&s);
        assert_eq!(enc, encode_reference(&s));
        assert_eq!(decode_block(&enc).unwrap().0, s);
    }

    #[test]
    fn empty_roundtrip() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_roundtrip() {
        roundtrip(&[42]);
        roundtrip(&vec![7u32; 1000]);
    }

    #[test]
    fn two_symbol_roundtrip() {
        let s: Vec<u32> = (0..500).map(|i| if i % 3 == 0 { 10 } else { 20 }).collect();
        roundtrip(&s);
    }

    #[test]
    fn skewed_distribution_roundtrip_and_compresses() {
        // Geometric-ish distribution like quantization codes around the
        // zero bin.
        let mut s = Vec::new();
        for i in 0..20_000u32 {
            let v = match i % 100 {
                0..=69 => 512,      // dominant bin
                70..=89 => 511,
                90..=97 => 513,
                _ => 500 + (i % 7), // rare tail
            };
            s.push(v);
        }
        let enc = encode_block(&s);
        // Entropy ≈ 1.2 bits/symbol; raw is 32 bits.
        assert!(enc.len() < s.len() / 2, "encoded {} bytes", enc.len());
        roundtrip(&s);
    }

    #[test]
    fn wide_alphabet_roundtrip() {
        let s: Vec<u32> = (0..4096u64)
            .map(|i| ((i.wrapping_mul(2654435761) >> 20) & 0xfff) as u32)
            .collect();
        roundtrip(&s);
    }

    #[test]
    fn large_symbol_values() {
        roundtrip(&[u32::MAX, 0, u32::MAX - 1, 5, u32::MAX]);
    }

    #[test]
    fn canonical_codes_are_prefix_free() {
        let mut enc = HuffEncoder::default();
        for (i, f) in [50u64, 30, 10, 5, 3, 1, 1].iter().enumerate() {
            enc.table.push((i as u32, *f));
        }
        enc.code_lengths();
        enc.assign_codes(None);
        let entries: Vec<(u64, u8)> = enc.codes.iter().map(|&p| (p >> 8, (p & 0xff) as u8)).collect();
        assert_eq!(entries.len(), 7);
        for (i, &(c1, l1)) in entries.iter().enumerate() {
            for &(c2, l2) in entries.iter().skip(i + 1) {
                let (short, slen, long, llen) = if l1 <= l2 {
                    (c1, l1, c2, l2)
                } else {
                    (c2, l2, c1, l1)
                };
                assert!(
                    long >> (llen - slen) != short,
                    "code {short:b}/{slen} is a prefix of {long:b}/{llen}"
                );
            }
        }
    }

    #[test]
    fn truncated_stream_is_detected() {
        let enc = encode_block(&[1, 2, 3, 1, 2, 1, 1]);
        for cut in 0..enc.len() {
            let r = decode_block(&enc[..cut]);
            assert!(r.is_err(), "cut at {cut} not detected");
        }
    }

    #[test]
    fn kraft_violation_rejected() {
        // Hand-build a table claiming two symbols with 1-bit codes plus
        // one more: 3 × len-1 violates Kraft.
        let mut buf = Vec::new();
        put_varint(&mut buf, 3);
        for (d, l) in [(0u64, 1u8), (1, 1), (1, 1)] {
            put_varint(&mut buf, d);
            buf.push(l);
        }
        put_varint(&mut buf, 1); // one value
        put_varint(&mut buf, 1); // one bit
        buf.push(0);
        assert!(decode_block(&buf).is_err());
    }

    #[test]
    fn deterministic_encoding() {
        let s: Vec<u32> = (0..1000u32).map(|i| i % 17).collect();
        assert_eq!(encode_block(&s), encode_block(&s));
    }

    /// The fast path and the reference walk must agree on every byte of
    /// every block — including every truncation point, where the error
    /// *variant* must match too.
    #[test]
    fn fast_path_matches_reference_at_every_cut() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![42],
            vec![7; 400],
            (0..600u32).map(|i| i % 3).collect(),
            (0..4096u64)
                .map(|i| ((i.wrapping_mul(2654435761) >> 18) & 0x3fff) as u32)
                .collect(),
            vec![u32::MAX, 0, u32::MAX - 1, 5, u32::MAX],
        ];
        for s in &cases {
            let enc = encode_block(s);
            for cut in 0..=enc.len() {
                let fast = decode_block(&enc[..cut]);
                let reference = decode_block_reference(&enc[..cut]);
                assert_eq!(fast, reference, "cut {cut} of {} bytes", enc.len());
            }
            let (dec, used) = decode_block(&enc).unwrap();
            assert_eq!((dec.as_slice(), used), (s.as_slice(), enc.len()));
        }
    }

    /// Deep tables exercise the long-code fallback past the primary
    /// window: a Fibonacci-weighted census forces one length per symbol.
    #[test]
    fn long_codes_take_the_fallback_scan() {
        let mut s = Vec::new();
        let mut f = (1u64, 1u64);
        for sym in 0..24u32 {
            for _ in 0..f.0.min(100_000) {
                s.push(sym);
            }
            f = (f.1, f.0 + f.1);
        }
        let enc = encode_block(&s);
        let (fast, _) = decode_block(&enc).unwrap();
        let (reference, _) = decode_block_reference(&enc).unwrap();
        assert_eq!(fast, reference);
        assert_eq!(fast, s);
    }

    /// The fast and the reference decoder must both give `symbols` back.
    fn huffman_both_decoders(symbols: &[u32]) -> Vec<u8> {
        let enc = encode_block(symbols);
        let (fast, used) = decode_block(&enc).expect("decode");
        assert_eq!(used, enc.len());
        assert!(fast == symbols, "fast decode mismatch");
        drop(fast);
        let (reference, used) = decode_block_reference(&enc).expect("reference decode");
        assert_eq!(used, enc.len());
        assert!(reference == symbols, "reference decode mismatch");
        enc
    }

    #[test]
    fn huffman_length_limit_retry_and_single_symbol_agree_with_the_reference() {
        // Fibonacci counts force one tree level per symbol: 34 symbols want
        // a 33-bit code, one past MAX_CODE_LEN, so the encoder must halve
        // the frequencies and rebuild (and the decoders must follow).
        let mut symbols = Vec::new();
        let mut f = (1u64, 1u64);
        for sym in 0..34u32 {
            symbols.extend(std::iter::repeat_n(1000 + sym, f.0 as usize));
            f = (f.1, f.0 + f.1);
        }
        let enc = huffman_both_decoders(&symbols);
        // Table: count, then (symbol delta varint, length). Unscaled, the
        // rarest symbol would sit 33 levels deep; the rebuilt tree fits.
        assert_eq!(enc[0], 34);
        let mut pos = 1;
        let mut longest = 0u8;
        for i in 0..34 {
            pos += if i == 0 { 2 } else { 1 }; // 1000 needs a two-byte varint
            longest = longest.max(enc[pos]);
            pos += 1;
        }
        assert!(longest > 16 && longest <= MAX_CODE_LEN, "longest code {longest}");

        // One-symbol alphabets: a single 1-bit code, dense and sparse.
        huffman_both_decoders(&[5]);
        huffman_both_decoders(&vec![65_537; 1000]);
        huffman_both_decoders(&vec![u32::MAX - 3; 77]);
    }

    #[test]
    fn decode_block_into_reuses_buffers() {
        let a = encode_block(&[1, 2, 3, 2, 1]);
        let b = encode_block(&(0..200u32).map(|i| i % 9).collect::<Vec<_>>());
        let mut out = Vec::new();
        let mut lut = HuffLookup::default();
        let used = decode_block_into(&a, &mut out, &mut lut).unwrap();
        assert_eq!((out.as_slice(), used), (&[1, 2, 3, 2, 1][..], a.len()));
        let used = decode_block_into(&b, &mut out, &mut lut).unwrap();
        assert_eq!(out, (0..200u32).map(|i| i % 9).collect::<Vec<_>>());
        assert_eq!(used, b.len());
        // Empty block clears the buffer rather than appending.
        let e = encode_block(&[]);
        decode_block_into(&e, &mut out, &mut lut).unwrap();
        assert!(out.is_empty());
    }

    /// A block taken apart into its fields, so a test can change one
    /// and put the block back together.
    #[derive(Clone, Debug)]
    struct Parts {
        /// `(symbol delta, code length)` per table entry.
        table: Vec<(u64, u8)>,
        n_values: u64,
        n_bits: u64,
        payload: Vec<u8>,
    }

    impl Parts {
        fn of(block: &[u8]) -> Self {
            let mut r = ByteReader::new(block);
            let n_table = r.varint("t").unwrap();
            let table = (0..n_table)
                .map(|_| (r.varint("t").unwrap(), r.u8("t").unwrap()))
                .collect();
            let n_values = r.varint("t").unwrap();
            let n_bits = r.varint("t").unwrap();
            let payload = r.take(r.remaining(), "t").unwrap().to_vec();
            Self { table, n_values, n_bits, payload }
        }

        fn bytes(&self) -> Vec<u8> {
            let mut out = Vec::new();
            put_varint(&mut out, self.table.len() as u64);
            for &(delta, len) in &self.table {
                put_varint(&mut out, delta);
                out.push(len);
            }
            put_varint(&mut out, self.n_values);
            put_varint(&mut out, self.n_bits);
            out.extend_from_slice(&self.payload);
            out
        }
    }

    /// A valid block over the complete code with lengths
    /// `1, 2, …, depth − 1, depth, depth` (code length `depth` reaches
    /// 32 without the encoder's Fibonacci-sized census); `picks` are
    /// indices into that table.
    fn deep_block(depth: u8, picks: &[usize]) -> Vec<u8> {
        let mut lens: Vec<u8> = (1..=depth).collect();
        lens.push(depth);
        let table = (0..lens.len() as u32).map(|i| (7 + 3 * i, 1)).collect();
        let mut enc = HuffEncoder { table, lens, ..HuffEncoder::default() };
        enc.assign_codes(None);
        let mut bits = BitWriter::new();
        for &p in picks {
            let packed = enc.codes[p];
            bits.put_bits(packed >> 8, (packed & 0xff) as u32);
        }
        let mut out = Vec::new();
        put_varint(&mut out, enc.table.len() as u64);
        let mut prev = 0;
        for (&(sym, _), &len) in enc.table.iter().zip(&enc.lens) {
            put_varint(&mut out, u64::from(sym - prev));
            out.push(len);
            prev = sym;
        }
        put_varint(&mut out, picks.len() as u64);
        put_varint(&mut out, bits.bit_len());
        out.extend_from_slice(&bits.finish());
        out
    }

    fn fast_equals_reference(block: &[u8], what: &str) {
        assert_eq!(decode_block(block), decode_block_reference(block), "{what}");
    }

    /// Regression: the value count and the table size are stream
    /// varints, and both decoders used to allocate from them before
    /// reading a payload bit. A block claiming 2^40 values over one
    /// payload byte aborted the process on the allocation; a table
    /// claiming 2^27 entries reserved 1 GiB. Both are typed corruption
    /// now, before anything is allocated.
    #[test]
    fn forged_counts_are_rejected_before_allocating() {
        let valid = Parts::of(&encode_block(&[3, 1, 4, 1, 5]));
        let mut values = valid.clone();
        values.n_values = 1 << 40;
        values.n_bits = 8;
        values.payload = vec![0];
        let mut table = Vec::new();
        put_varint(&mut table, 1 << 27);
        table.extend_from_slice(&valid.bytes()[1..]);
        for (block, context) in [
            (values.bytes(), "huffman value count"),
            (table, "huffman table size"),
        ] {
            let want = Err(CodecError::Corrupt { context });
            assert_eq!(decode_block(&block), want);
            assert_eq!(decode_block_reference(&block), want);
        }
    }

    /// Block sizes around a window entry's `MULTI_MAX` symbols and a
    /// group's `GROUP_WINDOWS · MULTI_MAX` decode the same symbols as the
    /// reference: skewed codes that fill a window with a few symbols,
    /// tables deep enough for codes longer than the window, and streams
    /// of mostly one-bit codes whose windows hold the full eight.
    #[test]
    fn multi_symbol_window_matches_reference_at_every_tail_length() {
        let group = GROUP_WINDOWS * MULTI_MAX;
        let mut sizes = vec![1, 1023, 1024, 1027];
        for edge in [MULTI_MAX, group, 2 * group] {
            sizes.extend([edge - 1, edge, edge + 1]);
        }
        for n in sizes {
            let s: Vec<u32> = (0..n as u64)
                .map(|i| 32768 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58).trailing_zeros())
                .collect();
            roundtrip(&s);
            let picks: Vec<usize> = (0..n).map(|i| (i * 7) % 32).collect();
            fast_equals_reference(&deep_block(32, &picks), "deep");
            let ones: Vec<usize> = (0..n).map(|i| usize::from(i % 11 == 10)).collect();
            fast_equals_reference(&deep_block(32, &ones), "one-bit");
        }
    }

    /// A 32-bit code at every slot of a group of one-bit codes — each
    /// symbol position of each window of a group, and the windows
    /// after — decodes as the reference does.
    #[test]
    fn a_long_code_at_every_slot_of_a_group_matches_the_reference() {
        let group = GROUP_WINDOWS * MULTI_MAX;
        for at in 0..2 * group + MULTI_BITS as usize {
            let picks: Vec<usize> = (0..3 * group).map(|i| if i == at { 32 } else { 0 }).collect();
            let block = deep_block(32, &picks);
            fast_equals_reference(&block, &format!("long code at {at}"));
            assert_eq!(decode_block(&block).map(|(s, _)| s[at]), Ok(7 + 3 * 32), "at {at}");
        }
    }

    /// Payloads whose last bit falls at every bit of a group: valid
    /// blocks of one- and two-bit codes growing a bit at a time, and one
    /// block's bit length cut at every bit of its last groups (both
    /// decoders then report the same truncation).
    #[test]
    fn payloads_ending_at_every_bit_of_a_group_match_the_reference() {
        let group_bits = GROUP_BITS as usize + MULTI_BITS as usize;
        for extra in 0..=group_bits {
            // `extra` more bits after a run of 64 one-bit codes: as
            // many two-bit codes as fit, and a one-bit code for an odd
            // remainder.
            let mut picks = vec![0; 64];
            picks.extend(std::iter::repeat_n(1, extra / 2));
            picks.extend(std::iter::repeat_n(0, extra % 2));
            let block = deep_block(32, &picks);
            assert_eq!(Parts::of(&block).n_bits, 64 + extra as u64);
            fast_equals_reference(&block, &format!("{extra} bits past 64"));
        }
        let picks: Vec<usize> = (0..200).map(|i| usize::from(i % 5 == 4)).collect();
        let valid = Parts::of(&deep_block(32, &picks));
        for cut in valid.n_bits.saturating_sub(3 * group_bits as u64)..=valid.n_bits {
            let mut p = valid.clone();
            p.n_bits = cut;
            p.n_values = p.n_values.min(cut);
            p.payload.truncate(cut.div_ceil(8) as usize);
            fast_equals_reference(&p.bytes(), &format!("cut at bit {cut}"));
        }
    }

    /// A replacement count: the block's own nudged by a few, or a huge
    /// one (≥ 2^24).
    #[derive(Clone, Copy, Debug)]
    enum Count {
        Near(i64),
        Far(u32),
    }

    impl Count {
        fn apply(self, own: u64) -> u64 {
            match self {
                Count::Near(d) => own.saturating_add_signed(d),
                Count::Far(shift) => u64::MAX >> shift,
            }
        }
    }

    /// One structural change to a valid block.
    #[derive(Clone, Copy, Debug)]
    enum Mutation {
        CodeLength { entry: usize, len: u8 },
        SymbolDelta { entry: usize, delta: u64 },
        NValues(Count),
        NBits(Count),
        FlipBit(usize),
    }

    fn mutate(parts: &Parts, m: Mutation) -> Parts {
        let mut p = parts.clone();
        let n = p.table.len().max(1);
        match m {
            Mutation::CodeLength { entry, len } => {
                if let Some(e) = p.table.get_mut(entry % n) {
                    e.1 = len;
                }
            }
            Mutation::SymbolDelta { entry, delta } => {
                if let Some(e) = p.table.get_mut(entry % n) {
                    e.0 = delta;
                }
            }
            Mutation::NValues(c) => p.n_values = c.apply(p.n_values),
            Mutation::NBits(c) => p.n_bits = c.apply(p.n_bits),
            Mutation::FlipBit(bit) => {
                let nbits = p.payload.len() * 8;
                if nbits > 0 {
                    p.payload[(bit % nbits) / 8] ^= 0x80 >> (bit % 8);
                }
            }
        }
        p
    }

    use proptest::prelude::*;

    fn count() -> impl Strategy<Value = Count> {
        prop_oneof![(-9i64..10).prop_map(Count::Near), (0u32..40).prop_map(Count::Far)]
    }

    fn mutation() -> impl Strategy<Value = Mutation> {
        prop_oneof![
            (any::<usize>(), 0u8..41).prop_map(|(entry, len)| Mutation::CodeLength { entry, len }),
            (any::<usize>(), prop_oneof![0u64..8, any::<u64>()])
                .prop_map(|(entry, delta)| Mutation::SymbolDelta { entry, delta }),
            count().prop_map(Mutation::NValues),
            count().prop_map(Mutation::NBits),
            any::<usize>().prop_map(Mutation::FlipBit),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Fuzz past the checksum: a valid block — skewed alphabets at
        /// 1–4 bits per symbol, deep tails up to 32-bit codes, or a
        /// single symbol, in small blocks and blocks of about a thousand
        /// values — with one field changed, then cut at every byte. The fast
        /// path's result (symbols, or the error variant) must equal the
        /// reference walk's on every input.
        #[test]
        fn mutated_blocks_decode_like_the_reference(
            kind in 0usize..3,
            skew in 1u32..5,
            depth in 2u8..33,
            n in prop_oneof![1usize..300, 984usize..1064],
            seed in any::<u64>(),
            m in mutation(),
        ) {
            let mut x = seed | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let block = match kind {
                // Geometric around a zero bin (≈ 1.2 bits per symbol at
                // skew 1, 2 at skew 2), widened by a uniform part (one
                // more bit per skew step above 2).
                0 => encode_block(
                    &(0..n)
                        .map(|_| {
                            let tz = next().trailing_zeros();
                            let bin = if skew == 1 {
                                tz / 2
                            } else {
                                tz + 64 * (next() % (1 << (skew - 2))) as u32
                            };
                            32768 + bin
                        })
                        .collect::<Vec<_>>(),
                ),
                // Entry i drawn with probability 2^-(i+1): mostly short
                // codes, with the odd one deep in the tail.
                1 => deep_block(
                    depth,
                    &(0..n)
                        .map(|_| (next().trailing_zeros() as usize).min(depth as usize))
                        .collect::<Vec<_>>(),
                ),
                _ => encode_block(&vec![skew; n]),
            };
            fast_equals_reference(&block, "valid");
            let mutated = mutate(&Parts::of(&block), m).bytes();
            fast_equals_reference(&mutated, &format!("{m:?}"));
            for cut in 0..block.len() {
                fast_equals_reference(&block[..cut], &format!("cut {cut}"));
            }
        }
    }
}
