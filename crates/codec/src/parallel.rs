//! "OpenMP mode": thread-parallel block compression (paper §IV-C,
//! Fig. 10).
//!
//! The paper's strong-scaling study runs each compressor's OpenMP build
//! at 1–64 threads over a fixed problem. The OpenMP SZ/SZx designs split
//! the field into per-thread slabs, compress each independently, and
//! concatenate the pieces; we reproduce exactly that structure on a
//! dedicated rayon pool of the requested width.
//!
//! The relative error bound is resolved against the *global* value range
//! before splitting, so parallel output obeys the same ε contract as
//! serial output.

use crate::chain::ChainSpec;
use crate::error::{CodecError, Result};
use crate::framing;
use crate::header::{check_dtype, BAD_DTYPE};
use crate::traits::{compress_view, decompress, Compressor, ErrorBound};
use crate::util::{put_varint, ByteReader};
use eblcio_data::{dispatch_dtype, Dataset, Element, NdArray, Shape};
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Magic for the parallel multi-chunk container.
pub const PAR_MAGIC: &[u8; 4] = b"EBLP";
/// Container version byte (carries a chain spec). The legacy layout
/// had no version field — its first post-magic byte was the codec id,
/// so any value in `1..=5` is parsed as that legacy layout and every
/// version value is chosen outside that range.
const PAR_VERSION: u8 = 0x10;

/// Reuses one rayon pool per thread count across calls — pool spin-up
/// would otherwise dominate small-problem strong-scaling measurements.
///
/// The registry lock is a `parking_lot::Mutex`, which has no poisoning:
/// a panic inside one compression job (worker panics propagate through
/// `install`) must not wedge the shared registry for every later caller
/// the way a poisoned `std::sync::Mutex` would.
///
/// Public so other parallel consumers (the chunked store) share the
/// same pools instead of spinning up competing ones.
pub fn pool_for(threads: usize) -> Result<Arc<rayon::ThreadPool>> {
    static POOLS: OnceLock<Mutex<HashMap<usize, Arc<rayon::ThreadPool>>>> = OnceLock::new();
    let pools = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = pools.lock();
    if let Some(p) = guard.get(&threads) {
        return Ok(p.clone());
    }
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .map_err(|_| CodecError::Corrupt { context: "thread pool" })?;
    let pool = Arc::new(pool);
    guard.insert(threads, pool.clone());
    Ok(pool)
}

/// Splits `shape` into at most `n` contiguous slabs along dimension 0,
/// returning `(start_row, rows)` pairs.
pub fn slab_partition(shape: Shape, n: usize) -> Vec<(usize, usize)> {
    let d0 = shape.dim(0);
    let n = n.clamp(1, d0);
    let base = d0 / n;
    let extra = d0 % n;
    let mut out = Vec::with_capacity(n);
    let mut row = 0;
    for i in 0..n {
        let rows = base + usize::from(i < extra);
        out.push((row, rows));
        row += rows;
    }
    out
}

/// Compresses `data` with `threads` worker threads, emitting a
/// self-describing multi-chunk stream.
pub fn compress_parallel<T: Element>(
    codec: &dyn Compressor,
    data: &NdArray<T>,
    bound: ErrorBound,
    threads: usize,
) -> Result<Vec<u8>> {
    assert!(threads >= 1, "thread count must be >= 1");
    let shape = data.shape();
    // Resolve ε against the global range so slab-local compression keeps
    // the whole-array contract.
    let abs = bound.to_absolute(data.value_range())?;
    let slabs = slab_partition(shape, threads);

    let pool = pool_for(threads)?;
    let chunks: Vec<Result<Vec<u8>>> = pool.install(|| {
        slabs
            .par_iter()
            .map(|&(start, rows)| {
                // Dimension-0 slabs of a row-major array are contiguous:
                // each worker compresses a borrowed view, no copy.
                compress_view(codec, data.slab(start, rows), ErrorBound::Absolute(abs))
            })
            .collect()
    });

    let mut out = Vec::new();
    out.extend_from_slice(PAR_MAGIC);
    out.push(PAR_VERSION);
    codec.spec().encode_into(&mut out);
    out.push(T::DTYPE);
    framing::put_shape(&mut out, shape);
    framing::put_abs_bound(&mut out, abs);
    put_varint(&mut out, chunks.len() as u64);
    for c in chunks {
        let c = c?;
        put_varint(&mut out, c.len() as u64);
        out.extend_from_slice(&c);
    }
    Ok(out)
}

/// Parsed header of a [`compress_parallel`] multi-chunk stream.
///
/// Surfaces the fields the container records — in particular the
/// absolute error bound every slab was encoded with, which callers can
/// check against their request without decompressing anything.
#[derive(Clone, Debug, PartialEq)]
pub struct ParallelStreamInfo {
    /// Codec chain that produced every chunk.
    pub chain: ChainSpec,
    /// Element type tag (0 = f32, 1 = f64).
    pub dtype: u8,
    /// Shape of the full (concatenated) array.
    pub shape: Shape,
    /// Absolute error bound resolved against the global value range.
    pub abs_bound: f64,
    /// Number of independently compressed slabs.
    pub n_chunks: usize,
}

/// Parses and validates a parallel-container header, returning the
/// stream info and the per-chunk payload slices.
fn parse_parallel_header(stream: &[u8]) -> Result<(ParallelStreamInfo, Vec<&[u8]>)> {
    let mut r = ByteReader::new(stream);
    framing::expect_magic(&mut r, PAR_MAGIC)?;
    let chain = match r.u8("parallel version")? {
        PAR_VERSION => ChainSpec::decode(&mut r)?,
        // Legacy (version-less) layout: this byte was the codec id.
        legacy @ 1..=5 => ChainSpec::preset(crate::traits::CompressorId::from_u8(legacy)?),
        other => return Err(CodecError::UnsupportedVersion(other)),
    };
    let dtype = framing::read_dtype(&mut r)?;
    let shape = framing::read_shape(&mut r)?;
    // The bound every slab honoured. A NaN / non-positive / infinite
    // value cannot have been written by the encoder.
    let abs_bound = framing::read_abs_bound(&mut r, true)?;
    let n_chunks = r.varint("parallel chunk count")? as usize;
    if n_chunks == 0 || n_chunks > shape.dim(0) {
        return Err(CodecError::Corrupt { context: "parallel chunk count" });
    }
    let mut chunk_slices = Vec::with_capacity(n_chunks);
    for _ in 0..n_chunks {
        let len = r.varint("parallel chunk length")? as usize;
        chunk_slices.push(r.take(len, "parallel chunk")?);
    }
    if r.remaining() != 0 {
        return Err(CodecError::Corrupt { context: "parallel trailer" });
    }
    Ok((
        ParallelStreamInfo {
            chain,
            dtype,
            shape,
            abs_bound,
            n_chunks,
        },
        chunk_slices,
    ))
}

/// Parses a parallel stream's header without decompressing any chunk.
pub fn parallel_stream_info(stream: &[u8]) -> Result<ParallelStreamInfo> {
    parse_parallel_header(stream).map(|(info, _)| info)
}

/// Decompresses a [`compress_parallel`] stream with `threads` workers.
pub fn decompress_parallel<T: Element>(
    codec: &dyn Compressor,
    stream: &[u8],
    threads: usize,
) -> Result<NdArray<T>> {
    let (info, chunk_slices) = parse_parallel_header(stream)?;
    decode_slabs(codec, &info, &chunk_slices, threads)
}

/// [`decompress_parallel`] into whichever precision the stream's header
/// records — each slab is decoded once.
pub fn decompress_parallel_any(
    codec: &dyn Compressor,
    stream: &[u8],
    threads: usize,
) -> Result<Dataset> {
    let (info, chunk_slices) = parse_parallel_header(stream)?;
    dispatch_dtype!(E = info.dtype =>
        decode_slabs::<E>(codec, &info, &chunk_slices, threads).map(Dataset::from))
    .unwrap_or(Err(BAD_DTYPE))
}

fn decode_slabs<T: Element>(
    codec: &dyn Compressor,
    info: &ParallelStreamInfo,
    chunk_slices: &[&[u8]],
    threads: usize,
) -> Result<NdArray<T>> {
    assert!(threads >= 1, "thread count must be >= 1");
    if info.chain != codec.spec() {
        return Err(CodecError::ChainMismatch {
            expected: codec.spec().label(),
            got: info.chain.label(),
        });
    }
    check_dtype::<T>(info.dtype)?;
    let shape = info.shape;
    let rank = shape.rank();

    let pool = pool_for(threads)?;
    let parts: Vec<Result<NdArray<T>>> = pool.install(|| {
        chunk_slices
            .par_iter()
            .map(|c| decompress::<T>(codec, c))
            .collect()
    });

    let mut out: Vec<T> = Vec::with_capacity(shape.len());
    let mut rows = 0usize;
    for p in parts {
        let p = p?;
        if p.shape().rank() != rank || p.shape().dims()[1..] != shape.dims()[1..] {
            return Err(CodecError::Corrupt { context: "parallel chunk shape" });
        }
        rows += p.shape().dim(0);
        out.extend_from_slice(p.as_slice());
    }
    if rows != shape.dim(0) || out.len() != shape.len() {
        return Err(CodecError::Corrupt { context: "parallel row total" });
    }
    Ok(NdArray::from_vec(shape, out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codecs::chain_around;
    use crate::codecs::sz3::Sz3;
    use crate::codecs::szx::Szx;
    use eblcio_data::max_rel_error;

    fn field() -> NdArray<f32> {
        NdArray::from_fn(Shape::d3(32, 16, 16), |i| {
            ((i[0] as f32) * 0.3).sin() * 20.0 + (i[1] as f32) - (i[2] as f32) * 0.5
        })
    }

    #[test]
    fn partition_covers_rows() {
        for (d0, n) in [(10, 3), (64, 8), (5, 8), (1, 4), (7, 7)] {
            let parts = slab_partition(Shape::d2(d0, 3), n);
            assert_eq!(parts.iter().map(|&(_, r)| r).sum::<usize>(), d0);
            assert!(parts.iter().all(|&(_, r)| r > 0));
            let mut row = 0;
            for &(start, rows) in &parts {
                assert_eq!(start, row);
                row += rows;
            }
        }
    }

    #[test]
    fn parallel_roundtrip_matches_bound() {
        let data = field();
        let codec = chain_around(Sz3::default());
        for threads in [1, 2, 4, 8] {
            let stream =
                compress_parallel(&codec, &data, ErrorBound::Relative(1e-3), threads).unwrap();
            let back = decompress_parallel::<f32>(&codec, &stream, threads).unwrap();
            assert_eq!(back.shape(), data.shape());
            assert!(
                max_rel_error(&data, &back) <= 1e-3 * 1.0000001,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn thread_count_does_not_change_bound_semantics() {
        // ε is resolved on the global range: a slab with a narrow local
        // range must not get a tighter/looser effective bound.
        let data = field();
        let codec = chain_around(Szx);
        let serial = compress_parallel(&codec, &data, ErrorBound::Relative(1e-3), 1).unwrap();
        let parallel = compress_parallel(&codec, &data, ErrorBound::Relative(1e-3), 4).unwrap();
        let a = decompress_parallel::<f32>(&codec, &serial, 1).unwrap();
        let b = decompress_parallel::<f32>(&codec, &parallel, 4).unwrap();
        assert!(max_rel_error(&data, &a) <= 1e-3 * 1.0000001);
        assert!(max_rel_error(&data, &b) <= 1e-3 * 1.0000001);
    }

    #[test]
    fn more_threads_than_rows() {
        let data = NdArray::<f32>::from_fn(Shape::d2(3, 100), |i| (i[0] * 100 + i[1]) as f32);
        let codec = chain_around(Szx);
        let stream = compress_parallel(&codec, &data, ErrorBound::Relative(1e-2), 16).unwrap();
        let back = decompress_parallel::<f32>(&codec, &stream, 16).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-2 * 1.0000001);
    }

    #[test]
    fn stream_info_surfaces_stored_bound() {
        let data = field();
        let stream =
            compress_parallel(&chain_around(Sz3::default()), &data, ErrorBound::Relative(1e-3), 4).unwrap();
        let info = parallel_stream_info(&stream).unwrap();
        assert_eq!(info.chain, ChainSpec::preset(crate::traits::CompressorId::Sz3));
        assert_eq!(info.dtype, 0);
        assert_eq!(info.shape, data.shape());
        assert_eq!(info.n_chunks, 4);
        let expected = ErrorBound::Relative(1e-3)
            .to_absolute(data.value_range())
            .unwrap();
        assert_eq!(info.abs_bound, expected);
    }

    #[test]
    fn corrupt_abs_bound_rejected() {
        let data = field();
        let stream =
            compress_parallel(&chain_around(Sz3::default()), &data, ErrorBound::Relative(1e-3), 2).unwrap();
        // Header layout: magic(4) + version(1) + chain spec (array u8 +
        // count u8 + one (id, param) pair for the SZ3 preset's LZ stage
        // = 4) + dtype(1) + rank(1) + one varint byte per dimension
        // (all dims < 128 here) + abs(8).
        let abs_at = 11 + data.shape().rank();
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            let mut s = stream.clone();
            s[abs_at..abs_at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            assert_eq!(
                decompress_parallel::<f32>(&chain_around(Sz3::default()), &s, 2),
                Err(CodecError::Corrupt { context: "abs bound" }),
                "bad bound {bad}"
            );
            assert!(parallel_stream_info(&s).is_err());
        }
        // Unmodified stream still parses.
        assert!(decompress_parallel::<f32>(&chain_around(Sz3::default()), &stream, 2).is_ok());
    }

    #[test]
    fn legacy_versionless_streams_still_decode() {
        // The pre-chain layout: magic | codec u8 | dtype u8 | rank u8 |
        // dims | abs | count | chunks — identical to the current layout
        // with the version + spec bytes replaced by the codec id. A
        // current stream rewritten that way must parse as the preset.
        let data = field();
        let codec = chain_around(Szx);
        let stream = compress_parallel(&codec, &data, ErrorBound::Relative(1e-2), 3).unwrap();
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&stream[..4]);
        legacy.push(crate::traits::CompressorId::Szx as u8);
        // Skip version(1) + spec(2: Szx preset has no byte stages).
        legacy.extend_from_slice(&stream[7..]);
        let info = parallel_stream_info(&legacy).unwrap();
        assert_eq!(info.chain, ChainSpec::preset(crate::traits::CompressorId::Szx));
        let back = decompress_parallel::<f32>(&codec, &legacy, 3).unwrap();
        assert!(max_rel_error(&data, &back) <= 1e-2 * 1.0000001);
        // An unknown version byte is a typed error, not a misparse.
        let mut bad = stream.clone();
        bad[4] = 0x42;
        assert_eq!(
            parallel_stream_info(&bad),
            Err(CodecError::UnsupportedVersion(0x42))
        );
    }

    #[test]
    fn wrong_codec_rejected() {
        let data = field();
        let stream = compress_parallel(&chain_around(Sz3::default()), &data, ErrorBound::Relative(1e-2), 2).unwrap();
        assert!(decompress_parallel::<f32>(&chain_around(Szx), &stream, 2).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let data = field();
        let stream = compress_parallel(&chain_around(Sz3::default()), &data, ErrorBound::Relative(1e-2), 2).unwrap();
        for cut in [3, 20, stream.len() / 2, stream.len() - 1] {
            assert!(decompress_parallel::<f32>(&chain_around(Sz3::default()), &stream[..cut], 2).is_err());
        }
    }
}
