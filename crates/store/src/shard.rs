//! The `EBSH` shard object: many compressed chunks packed into one
//! storage object behind an inner index.
//!
//! A million-chunk store written one-object-per-chunk is a metadata
//! bomb: every chunk pays an object create, a manifest entry, and a
//! placement decision. Sharding (zarrs' `sharding_indexed` codec is the
//! exemplar) packs a fixed number of consecutive raster-order chunks
//! into one object with a small inner index, so the parallel file
//! system sees a few large objects while readers can still address —
//! and CRC-verify — each chunk's byte range individually:
//!
//! ```text
//! "EBSH" | version=1 | n_slots varint
//! slots: n_slots × (offset varint, length varint, payload crc32 u32)
//! index crc32 u32 | slot payloads…
//! ```
//!
//! Slot offsets are relative to the payload start (the byte after the
//! index CRC) and must be contiguous in slot order. The index CRC
//! covers every byte before it, so a flipped index bit is caught before
//! any slot range is trusted; each slot additionally records the CRC of
//! its payload bytes, so a torn or misplaced slot is caught before the
//! (more expensive) chunk decode even starts.

use eblcio_codec::framing;
use eblcio_codec::util::{crc32, put_varint, ByteReader};
use eblcio_codec::{CodecError, Result};

/// Shard object magic bytes.
pub const SHARD_MAGIC: &[u8; 4] = b"EBSH";
/// Current shard layout version.
pub const SHARD_VERSION: u8 = 1;
/// Cap on slots per shard (sanity bound for corrupt indices).
pub const MAX_SLOTS: usize = 1 << 20;

/// One entry of a shard's inner index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// Byte offset from the shard's payload start.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC32 of the slot's payload bytes.
    pub crc: u32,
}

/// A parsed shard: the inner index plus where the payload begins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardIndex {
    /// Per-slot offset/length/CRC entries, in slot order.
    pub slots: Vec<SlotEntry>,
    /// Bytes of index (magic through index CRC) before the payload.
    pub index_len: usize,
}

impl ShardIndex {
    /// Total payload bytes behind the index.
    pub fn payload_len(&self) -> u64 {
        self.slots.iter().map(|s| s.len).sum()
    }

    /// Parses and validates the inner index at the head of `shard`,
    /// checking that the slot ranges exactly tile the remaining bytes.
    pub fn parse(shard: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(shard);
        framing::expect_magic(&mut r, SHARD_MAGIC)?;
        let version = r.u8("shard version")?;
        if version != SHARD_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let n_slots = r.varint("shard slot count")? as usize;
        // Each slot needs at least six index bytes ahead of us plus one
        // payload byte; a count beyond that cannot be valid and must
        // not size an allocation.
        if n_slots == 0 || n_slots > MAX_SLOTS || n_slots > r.remaining() / 6 {
            return Err(CodecError::Corrupt { context: "shard slot count" });
        }
        let mut slots = Vec::with_capacity(n_slots);
        let mut next = 0u64;
        for _ in 0..n_slots {
            let offset = r.varint("shard slot offset")?;
            let len = r.varint("shard slot length")?;
            let crc = r.u32("shard slot crc")?;
            if offset != next || len == 0 {
                return Err(CodecError::Corrupt { context: "shard slot index" });
            }
            next = offset
                .checked_add(len)
                .ok_or(CodecError::Corrupt { context: "shard slot index" })?;
            slots.push(SlotEntry { offset, len, crc });
        }
        framing::check_crc_trailer(&mut r, shard)?;
        let index_len = r.position();
        if shard.len() - index_len != next as usize {
            return Err(CodecError::TruncatedStream { context: "shard payload" });
        }
        Ok(Self { slots, index_len })
    }

    /// Borrows slot `i`'s payload bytes out of the shard object this
    /// index was parsed from, verifying the recorded payload CRC.
    pub fn slot<'a>(&self, shard: &'a [u8], i: usize) -> Result<&'a [u8]> {
        let e = self
            .slots
            .get(i)
            .ok_or(CodecError::Corrupt { context: "shard slot reference" })?;
        let start = self.index_len + e.offset as usize;
        let bytes = shard
            .get(start..start + e.len as usize)
            .ok_or(CodecError::TruncatedStream { context: "shard slot" })?;
        if crc32(bytes) != e.crc {
            return Err(CodecError::ChecksumMismatch);
        }
        Ok(bytes)
    }
}

/// Packs slot payloads into one `EBSH` shard object.
pub fn build_shard(slot_payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = shard_index(slot_payloads.iter().map(|s| (s.len(), crc32(s))));
    out.reserve(slot_payloads.iter().map(Vec::len).sum());
    for s in slot_payloads {
        out.extend_from_slice(s);
    }
    out
}

/// The inner index [`build_shard`] puts ahead of the slot payloads —
/// every shard byte before the first slot's payload — from each slot's
/// `(length, CRC-32)`.
pub(crate) fn shard_index(slots: impl ExactSizeIterator<Item = (usize, u32)>) -> Vec<u8> {
    assert!(
        slots.len() > 0 && slots.len() <= MAX_SLOTS,
        "a shard holds 1..={MAX_SLOTS} slots"
    );
    let mut out = Vec::with_capacity(16 + slots.len() * 14);
    out.extend_from_slice(SHARD_MAGIC);
    out.push(SHARD_VERSION);
    put_varint(&mut out, slots.len() as u64);
    let mut offset = 0u64;
    for (len, crc) in slots {
        put_varint(&mut out, offset);
        put_varint(&mut out, len as u64);
        out.extend_from_slice(&crc.to_le_bytes());
        offset += len as u64;
    }
    framing::put_crc_trailer(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payloads() -> Vec<Vec<u8>> {
        vec![vec![1, 2, 3], vec![4], vec![5, 6, 7, 8, 9], vec![10, 11]]
    }

    #[test]
    fn roundtrip() {
        let p = payloads();
        let shard = build_shard(&p);
        let idx = ShardIndex::parse(&shard).unwrap();
        assert_eq!(idx.slots.len(), p.len());
        assert_eq!(idx.payload_len() as usize, p.iter().map(Vec::len).sum::<usize>());
        for (i, want) in p.iter().enumerate() {
            assert_eq!(idx.slot(&shard, i).unwrap(), want.as_slice());
        }
    }

    #[test]
    fn out_of_range_slot_is_typed_error() {
        let shard = build_shard(&payloads());
        let idx = ShardIndex::parse(&shard).unwrap();
        assert!(matches!(
            idx.slot(&shard, 99),
            Err(CodecError::Corrupt { context: "shard slot reference" })
        ));
    }

    #[test]
    fn flipped_payload_bit_caught_by_slot_crc() {
        let mut shard = build_shard(&payloads());
        let idx = ShardIndex::parse(&shard).unwrap();
        let n = shard.len();
        shard[n - 1] ^= 0x40; // last byte of the last slot
        assert_eq!(idx.slot(&shard, 3), Err(CodecError::ChecksumMismatch));
        // Earlier slots are untouched and still verify.
        assert!(idx.slot(&shard, 0).is_ok());
    }

    #[test]
    fn flipped_index_bit_caught_by_index_crc() {
        let shard = build_shard(&payloads());
        let idx = ShardIndex::parse(&shard).unwrap();
        for i in 5..idx.index_len {
            let mut bad = shard.clone();
            bad[i] ^= 0x01;
            assert!(ShardIndex::parse(&bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let shard = build_shard(&payloads());
        for cut in 0..shard.len() {
            assert!(ShardIndex::parse(&shard[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn huge_fake_slot_count_returns_err_without_allocating() {
        let mut s = Vec::new();
        s.extend_from_slice(SHARD_MAGIC);
        s.push(SHARD_VERSION);
        put_varint(&mut s, 1u64 << 40);
        framing::put_crc_trailer(&mut s);
        assert!(matches!(
            ShardIndex::parse(&s),
            Err(CodecError::Corrupt { context: "shard slot count" })
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut shard = build_shard(&payloads());
        shard[4] = 9;
        assert!(matches!(
            ShardIndex::parse(&shard),
            Err(CodecError::UnsupportedVersion(9))
        ));
    }
}
