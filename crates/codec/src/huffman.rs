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

use crate::bitstream::{BitReader, BitWriter};
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

/// Reusable state of the block encoder: census, tree and code tables.
/// Held in [`CodecScratch`](crate::scratch::CodecScratch) so a
/// steady-state encode loop builds its tables in place.
#[derive(Default)]
pub(crate) struct HuffEncoder {
    /// Dense census, indexed by symbol. All zero between calls.
    counts: Vec<u64>,
    /// `(symbol, count)` of every symbol present, ascending by symbol —
    /// the order the block's table is written in.
    table: Vec<(u32, u64)>,
    /// Code length per `table` entry.
    lens: Vec<u8>,
    /// Packed `code << 8 | len`: indexed by symbol on the dense path,
    /// by `table` position on the sparse one.
    codes: Vec<u64>,
    /// Tree construction: pending nodes as `(weight, id, node)`.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    /// Parent of each tree node (leaves first, in `table` order).
    parent: Vec<u32>,
    /// Depth of each tree node.
    depth: Vec<u8>,
    /// Payload bit buffer, recycled through [`BitWriter::reusing`].
    bits: Vec<u8>,
    /// Sorted copy of the input (sparse census only).
    sorted: Vec<u32>,
}

impl HuffEncoder {
    /// Appends the Huffman block for `symbols` to `out`.
    pub(crate) fn encode_into(&mut self, symbols: &[u32], out: &mut Vec<u8>) {
        let Some(max_sym) = symbols.iter().copied().max() else {
            put_varint(out, 0); // n_symbols
            put_varint(out, 0); // n_values
            put_varint(out, 0); // payload bits
            return;
        };
        let dense = max_sym < DENSE_LIMIT;
        self.census(symbols, max_sym, dense);
        self.code_lengths();

        // Table: symbols ascending, delta-coded.
        put_varint(out, self.table.len() as u64);
        let mut prev = 0u32;
        for (&(sym, _), &len) in self.table.iter().zip(&self.lens) {
            put_varint(out, u64::from(sym - prev));
            out.push(len);
            prev = sym;
        }

        self.assign_codes(dense);

        // Payload.
        let mut bits = BitWriter::reusing(std::mem::take(&mut self.bits));
        if dense {
            let codes = self.codes.as_slice();
            for &s in symbols {
                let packed = codes[s as usize];
                bits.put_bits(packed >> 8, (packed & 0xff) as u32);
            }
        } else {
            for &s in symbols {
                // Every symbol was counted into `table`, so the search
                // always lands on its entry.
                let (Ok(i) | Err(i)) = self.table.binary_search_by_key(&s, |&(sym, _)| sym);
                let packed = self.codes[i];
                bits.put_bits(packed >> 8, (packed & 0xff) as u32);
            }
        }
        put_varint(out, symbols.len() as u64);
        put_varint(out, bits.bit_len());
        self.bits = bits.finish();
        out.extend_from_slice(&self.bits);
    }

    /// Assigns canonical codes (shorter codes first, ties by symbol
    /// value) into `codes`: the first code of each length follows from
    /// the counts of the shorter lengths, and `table` is already in
    /// symbol order.
    fn assign_codes(&mut self, dense: bool) {
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
        if dense {
            let top = self.table.last().map_or(0, |&(sym, _)| sym as usize + 1);
            if self.codes.len() < top {
                self.codes.resize(top, 0);
            }
        } else {
            self.codes.clear();
            self.codes.resize(self.table.len(), 0);
        }
        for (i, (&(sym, _), &len)) in self.table.iter().zip(&self.lens).enumerate() {
            let slot = if dense { sym as usize } else { i };
            self.codes[slot] = next[len as usize] << 8 | u64::from(len);
            next[len as usize] += 1;
        }
    }

    /// Fills `table` with the frequency census of `symbols`.
    fn census(&mut self, symbols: &[u32], max_sym: u32, dense: bool) {
        self.table.clear();
        if dense {
            let top = max_sym as usize + 1;
            if self.counts.len() < top {
                self.counts.resize(top, 0);
            }
            let counts = &mut self.counts[..top];
            let mut min_sym = max_sym;
            for &s in symbols {
                counts[s as usize] += 1;
                min_sym = min_sym.min(s);
            }
            for s in min_sym..=max_sym {
                let c = std::mem::take(&mut counts[s as usize]);
                if c > 0 {
                    self.table.push((s, c));
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
                .map(|(i, &(s, f))| Reverse(((f >> scale).max(1), s, i as u32))),
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
            next_id -= 1;
            let node = self.parent.len() as u32;
            self.parent[a.2 as usize] = node;
            self.parent[b.2 as usize] = node;
            self.parent.push(node); // the root stays its own parent
            self.heap.push(Reverse((a.0 + b.0, next_id, node)));
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
        f(&mut self.bits);
        f(&mut self.sorted);
    }
}

/// Decodes a block produced by [`encode_block`].
///
/// Returns the symbols and the number of bytes consumed from `buf`.
/// This is the table-driven fast path; [`decode_block_reference`] keeps
/// the original bit-at-a-time walk as the equivalence oracle.
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
/// window instead of per symbol.
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
/// `decompress_reference`, in the `decode_fastpath.rs` tests).
pub fn decode_block_reference(buf: &[u8]) -> Result<(Vec<u32>, usize)> {
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
struct Decoder {
    /// Symbols sorted by (length, symbol).
    symbols: Vec<u32>,
    /// For each length 1..=MAX: (first code, first index, count).
    per_len: Vec<(u64, usize, usize)>,
}

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
/// Most symbols one multi-symbol window entry holds.
const MULTI_MAX: usize = 4;

/// Reusable state of the table-driven canonical decoder: the per-length
/// range tables of the tree decoder, a `PRIMARY_BITS`-wide direct-lookup
/// window and the `MULTI_BITS`-wide multi-symbol window. Held in [`CodecScratch`](crate::scratch::CodecScratch) so
/// repeated block decodes on one thread reuse the allocations.
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
    /// The whole codes at the front of each multi-symbol window, in
    /// order (the first `multi_len >> 4` are valid).
    multi_sym: Vec<[u32; MULTI_MAX]>,
    /// Per multi-symbol window: `count << 4 | total bits`; 0 when the
    /// window's first code is longer than the window.
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
        self.sym.clear();
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

    /// Fills the multi-symbol window from the primary one (after
    /// [`Self::prepare`]): for every `MULTI_BITS`-bit window, the run of
    /// whole codes it starts with, up to `MULTI_MAX`. A code counts only
    /// if all its bits lie inside the window, so an entry never depends
    /// on the bits that follow it.
    fn prepare_multi(&mut self) {
        let size = 1usize << MULTI_BITS;
        self.multi_sym.clear();
        self.multi_sym.resize(size, [0; MULTI_MAX]);
        self.multi_len.clear();
        self.multi_len.resize(size, 0);
        let shift = 64 - self.bits;
        for (w, (syms, packed)) in self.multi_sym.iter_mut().zip(&mut self.multi_len).enumerate() {
            let window = (w as u64) << (64 - MULTI_BITS);
            let (mut used, mut n) = (0u32, 0usize);
            while n < MULTI_MAX {
                let idx = ((window << used) >> shift) as usize;
                let len = u32::from(self.len[idx]);
                if len == 0 || used + len > MULTI_BITS {
                    break;
                }
                syms[n] = self.sym[idx];
                n += 1;
                used += len;
            }
            *packed = (n as u8) << 4 | used as u8;
        }
    }

    /// Decodes `n` symbols into `out` through the multi-symbol window
    /// (after [`Self::prepare_multi`]). A window whose entry is empty,
    /// or whose codes would run past the payload's real bits, falls back
    /// to [`Self::decode_one`] — so every symbol and every error is the
    /// one the symbol-at-a-time walk produces.
    fn decode_multi(&self, bits: &mut BatchBits<'_>, n: usize, out: &mut Vec<u32>) -> Result<()> {
        // Every slot below `n` is written before the end, so the old
        // contents need no clearing. Each entry's symbols are stored as
        // one fixed-size group and the cursor advanced past the valid
        // ones, so the buffer carries `MULTI_MAX` slots of slack until
        // the end.
        if out.len() < n + MULTI_MAX {
            out.resize(n + MULTI_MAX, 0);
        }
        let mut k = 0usize;
        while k + MULTI_MAX <= n {
            if bits.bitcount < 32 {
                bits.refill();
            }
            let w = (bits.bitbuf >> (64 - MULTI_BITS)) as usize;
            let packed = self.multi_len[w];
            let (count, used) = (usize::from(packed >> 4), u32::from(packed & 0xf));
            if count == 0 || used > bits.bitcount {
                out[k] = self.decode_one(bits)?;
                k += 1;
                continue;
            }
            out[k..k + MULTI_MAX].copy_from_slice(&self.multi_sym[w]);
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

    fn roundtrip(symbols: &[u32]) {
        let enc = encode_block(symbols);
        let (dec, used) = decode_block(&enc).unwrap();
        assert_eq!(dec, symbols);
        assert_eq!(used, enc.len());
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
        enc.assign_codes(false);
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
        enc.assign_codes(false);
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

    /// Block sizes around the window's `MULTI_MAX`-symbol groups decode
    /// the same symbols as the reference, including codes longer than
    /// the window.
    #[test]
    fn multi_symbol_window_matches_reference_at_every_tail_length() {
        for n in [1, MULTI_MAX - 1, MULTI_MAX, MULTI_MAX + 1, 1023, 1024, 1027] {
            let s: Vec<u32> = (0..n as u64)
                .map(|i| 32768 + (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 58).trailing_zeros())
                .collect();
            roundtrip(&s);
            let picks: Vec<usize> = (0..n).map(|i| (i * 7) % 32).collect();
            fast_equals_reference(&deep_block(32, &picks), "deep");
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
