//! C-Blosc2's shuffle filter.
//!
//! Blosc's core trick is transposing the bytes of fixed-width elements
//! so that the high (slowly varying) bytes of neighbouring floats become
//! adjacent, where a following LZ stage can match them.

/// Byte-transposes `data` viewed as elements of `esize` bytes; a ragged
/// tail (len not divisible by `esize`) is carried through unshuffled.
pub fn shuffle(data: &[u8], esize: usize) -> Vec<u8> {
    let n_elem = data.len() / esize;
    let body = n_elem * esize;
    let mut out = Vec::with_capacity(data.len());
    for b in 0..esize {
        for e in 0..n_elem {
            out.push(data[e * esize + b]);
        }
    }
    out.extend_from_slice(&data[body..]);
    out
}

/// Inverse of [`shuffle`].
pub fn unshuffle(data: &[u8], esize: usize) -> Vec<u8> {
    let n_elem = data.len() / esize;
    let body = n_elem * esize;
    let mut out = vec![0u8; data.len()];
    for b in 0..esize {
        for e in 0..n_elem {
            out[e * esize + b] = data[b * n_elem + e];
        }
    }
    out[body..].copy_from_slice(&data[body..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lz;

    #[test]
    fn shuffle_is_involutive() {
        let data: Vec<u8> = (0..64).collect();
        for esize in [1, 2, 4, 8] {
            assert_eq!(unshuffle(&shuffle(&data, esize), esize), data);
        }
    }

    #[test]
    fn shuffle_groups_high_bytes() {
        // Two little-endian u32s 0x01020304, 0x11121314: after shuffle the
        // first plane holds both low bytes.
        let data = [0x04, 0x03, 0x02, 0x01, 0x14, 0x13, 0x12, 0x11];
        let s = shuffle(&data, 4);
        assert_eq!(s, [0x04, 0x14, 0x03, 0x13, 0x02, 0x12, 0x01, 0x11]);
    }

    #[test]
    fn ragged_tail_preserved() {
        let data: Vec<u8> = (0..11).collect();
        let s = shuffle(&data, 4);
        assert_eq!(&s[8..], &[8, 9, 10]);
        assert_eq!(unshuffle(&s, 4), data);
    }

    #[test]
    fn shuffle_helps_on_similar_floats() {
        // Slowly-varying floats share exponent bytes; shuffled LZ must
        // beat unshuffled LZ.
        let data: Vec<u8> = (0..20_000)
            .flat_map(|i| (1000.0f32 + i as f32 * 0.001).to_le_bytes())
            .collect();
        let plain = lz::compress(&data).len();
        let blosc = lz::compress(&shuffle(&data, 4)).len();
        assert!(blosc < plain, "blosc {blosc} vs plain {plain}");
    }
}
