//! The regular chunk grid and axis-aligned regions.
//!
//! A store splits an array into a grid of equally shaped chunks
//! (clipped at the upper edges, like zarr's regular grid). Chunks are
//! numbered in raster order of the grid, so chunk 0 holds the array
//! origin and the last chunk holds the far corner.

use eblcio_data::shape::MAX_RANK;
use eblcio_data::{ArrayView, Element, NdArray, Shape};
use parking_lot::Mutex;

/// An axis-aligned box inside an array: `origin[d] .. origin[d] + extent[d]`
/// per dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    origin: [usize; MAX_RANK],
    extent: [usize; MAX_RANK],
    rank: usize,
}

impl Region {
    /// Creates a region from per-dimension origins and extents.
    ///
    /// # Panics
    /// Panics if the slices disagree in length, the rank is not 1–4, or
    /// any extent is zero.
    pub fn new(origin: &[usize], extent: &[usize]) -> Self {
        assert_eq!(origin.len(), extent.len(), "origin/extent rank mismatch");
        assert!(
            !origin.is_empty() && origin.len() <= MAX_RANK,
            "region rank must be 1..={MAX_RANK}"
        );
        assert!(extent.iter().all(|&e| e > 0), "zero extent in region");
        let mut o = [0usize; MAX_RANK];
        let mut e = [1usize; MAX_RANK];
        o[..origin.len()].copy_from_slice(origin);
        e[..extent.len()].copy_from_slice(extent);
        Self {
            origin: o,
            extent: e,
            rank: origin.len(),
        }
    }

    /// The region covering all of `shape`.
    pub fn full(shape: Shape) -> Self {
        Self::new(&vec![0; shape.rank()], shape.dims())
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Per-dimension starting indices.
    #[inline]
    pub fn origin(&self) -> &[usize] {
        &self.origin[..self.rank]
    }

    /// Per-dimension lengths.
    #[inline]
    pub fn extent(&self) -> &[usize] {
        &self.extent[..self.rank]
    }

    /// The region's extents as a [`Shape`].
    pub fn shape(&self) -> Shape {
        Shape::new(self.extent())
    }

    /// Number of samples inside the region.
    pub fn len(&self) -> usize {
        self.extent().iter().product()
    }

    /// Regions are never empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when the region lies entirely inside `shape`.
    pub fn fits_in(&self, shape: Shape) -> bool {
        self.rank == shape.rank()
            && (0..self.rank).all(|d| {
                self.origin[d].checked_add(self.extent[d]).is_some_and(|end| end <= shape.dim(d))
            })
    }

    /// The overlap of two same-rank regions, if any.
    pub fn intersect(&self, other: &Region) -> Option<Region> {
        assert_eq!(self.rank, other.rank, "region rank mismatch");
        let mut origin = [0usize; MAX_RANK];
        let mut extent = [1usize; MAX_RANK];
        for d in 0..self.rank {
            let lo = self.origin[d].max(other.origin[d]);
            let hi = (self.origin[d] + self.extent[d]).min(other.origin[d] + other.extent[d]);
            if lo >= hi {
                return None;
            }
            origin[d] = lo;
            extent[d] = hi - lo;
        }
        Some(Region {
            origin,
            extent,
            rank: self.rank,
        })
    }

    /// The part of this region whose first index lies in
    /// `origin[0] + lo .. origin[0] + hi`: a contiguous run of a
    /// row-major buffer shaped as this region.
    ///
    /// # Panics
    /// Panics unless `lo < hi <= extent[0]`.
    pub fn rows(&self, lo: usize, hi: usize) -> Region {
        assert!(lo < hi && hi <= self.extent[0], "row range outside the region");
        let mut rows = *self;
        rows.origin[0] += lo;
        rows.extent[0] = hi - lo;
        rows
    }
}

/// A regular chunk grid over an array shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkGrid {
    array: Shape,
    chunk: Shape,
    counts: [usize; MAX_RANK],
    rank: usize,
}

impl ChunkGrid {
    /// Builds the grid for `array` with the given interior chunk shape.
    /// Chunk dimensions are clamped to the array dimensions, so an
    /// oversized chunk shape degenerates to one chunk along that axis.
    ///
    /// # Panics
    /// Panics if the ranks differ.
    pub fn new(array: Shape, chunk_shape: Shape) -> Self {
        assert_eq!(
            array.rank(),
            chunk_shape.rank(),
            "array and chunk rank mismatch"
        );
        let rank = array.rank();
        let mut chunk = [1usize; MAX_RANK];
        let mut counts = [1usize; MAX_RANK];
        for d in 0..rank {
            chunk[d] = chunk_shape.dim(d).min(array.dim(d));
            counts[d] = array.dim(d).div_ceil(chunk[d]);
        }
        Self {
            array,
            chunk: Shape::new(&chunk[..rank]),
            counts,
            rank,
        }
    }

    /// The stored array's shape.
    #[inline]
    pub fn array_shape(&self) -> Shape {
        self.array
    }

    /// The (interior) chunk shape; edge chunks are clipped.
    #[inline]
    pub fn chunk_shape(&self) -> Shape {
        self.chunk
    }

    /// Chunks along each dimension.
    #[inline]
    pub fn counts(&self) -> &[usize] {
        &self.counts[..self.rank]
    }

    /// Total number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.counts().iter().product()
    }

    /// Grid coordinates of chunk `i` (raster order).
    ///
    /// # Panics
    /// Panics if `i >= n_chunks()`.
    pub fn chunk_coords(&self, i: usize) -> [usize; MAX_RANK] {
        assert!(i < self.n_chunks(), "chunk {i} out of {}", self.n_chunks());
        let mut rem = i;
        let mut coords = [0usize; MAX_RANK];
        for d in (0..self.rank).rev() {
            coords[d] = rem % self.counts[d];
            rem /= self.counts[d];
        }
        coords
    }

    /// Raster-order index of the chunk at grid coordinates `coords`.
    pub fn chunk_index(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.rank, "coordinate rank mismatch");
        let mut i = 0usize;
        for (d, &c) in coords.iter().enumerate() {
            assert!(c < self.counts[d], "grid coordinate out of range");
            i = i * self.counts[d] + c;
        }
        i
    }

    /// The array region chunk `i` covers (clipped at the upper edges).
    pub fn chunk_region(&self, i: usize) -> Region {
        let coords = self.chunk_coords(i);
        let mut origin = [0usize; MAX_RANK];
        let mut extent = [1usize; MAX_RANK];
        for d in 0..self.rank {
            origin[d] = coords[d] * self.chunk.dim(d);
            extent[d] = self.chunk.dim(d).min(self.array.dim(d) - origin[d]);
        }
        Region::new(&origin[..self.rank], &extent[..self.rank])
    }

    /// True when chunk `i` is a contiguous dimension-0 slab of the
    /// row-major array (chunking splits only dimension 0), which lets
    /// the writer compress it from a zero-copy borrowed view.
    pub fn chunk_is_slab(&self, i: usize) -> bool {
        let r = self.chunk_region(i);
        (1..self.rank).all(|d| r.origin()[d] == 0 && r.extent()[d] == self.array.dim(d))
    }

    /// Raster-order indices of every chunk overlapping `region`.
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn chunks_intersecting(&self, region: &Region) -> Vec<usize> {
        let mut out = Vec::new();
        self.chunks_intersecting_into(region, &mut out);
        out
    }

    /// [`ChunkGrid::chunks_intersecting`] into a caller-owned buffer —
    /// `out` is cleared, then filled. Reusing one buffer across
    /// requests keeps a hot serving loop free of per-request heap
    /// allocation (see `eblcio_serve`'s warm read path).
    ///
    /// # Panics
    /// Panics if the region does not fit inside the array shape.
    pub fn chunks_intersecting_into(&self, region: &Region, out: &mut Vec<usize>) {
        assert!(
            region.fits_in(self.array),
            "region out of array bounds {}",
            self.array
        );
        out.clear();
        let mut lo = [0usize; MAX_RANK];
        let mut hi = [0usize; MAX_RANK];
        for d in 0..self.rank {
            lo[d] = region.origin()[d] / self.chunk.dim(d);
            hi[d] = (region.origin()[d] + region.extent()[d] - 1) / self.chunk.dim(d);
        }
        let mut coords = lo;
        loop {
            out.push(self.chunk_index(&coords[..self.rank]));
            // Raster-order advance through the [lo, hi] box.
            let mut d = self.rank;
            loop {
                if d == 0 {
                    return;
                }
                d -= 1;
                coords[d] += 1;
                if coords[d] <= hi[d] {
                    break;
                }
                coords[d] = lo[d];
            }
        }
    }
}

/// Copies the axis-aligned box `extent` from `src` (starting at
/// `src_origin`) into `dst` (starting at `dst_origin`). The innermost
/// dimension is copied as contiguous runs. Public because every layer
/// that assembles regions from decoded chunks — the store's read paths
/// and `eblcio_serve`'s parallel region engine — scatters through this
/// one routine.
pub fn copy_region<T: Element>(
    src: &[T],
    src_shape: Shape,
    src_origin: &[usize],
    dst: &mut [T],
    dst_shape: Shape,
    dst_origin: &[usize],
    extent: &[usize],
) {
    copy_region_with(src, src_shape, src_origin, dst_shape, dst_origin, extent, copy_runs_into(dst));
}

/// The typed `put` of [`copy_region_with`]: each run is copied to its
/// offset in `dst`.
fn copy_runs_into<T: Element>(dst: &mut [T]) -> impl FnMut(usize, &[T]) + '_ {
    |off, run| dst[off..off + run.len()].copy_from_slice(run)
}

/// [`copy_region`] with the destination behind a closure: the walk
/// hands `put` each contiguous innermost run of `src` together with the
/// sample offset it lands at in an array of `dst_shape`. What `put`
/// does with the run — copy it, or serialize it — is the only thing
/// that differs between the typed and the little-endian assemblers.
fn copy_region_with<T: Element>(
    src: &[T],
    src_shape: Shape,
    src_origin: &[usize],
    dst_shape: Shape,
    dst_origin: &[usize],
    extent: &[usize],
    mut put: impl FnMut(usize, &[T]),
) {
    let rank = src_shape.rank();
    debug_assert_eq!(dst_shape.rank(), rank);
    let src_strides = src_shape.strides();
    let dst_strides = dst_shape.strides();
    let run = extent[rank - 1];
    let outer: usize = extent[..rank - 1].iter().product();
    let mut local = [0usize; MAX_RANK];
    for _ in 0..outer.max(1) {
        let mut s_off = 0usize;
        let mut d_off = 0usize;
        for d in 0..rank - 1 {
            s_off += (src_origin[d] + local[d]) * src_strides[d];
            d_off += (dst_origin[d] + local[d]) * dst_strides[d];
        }
        s_off += src_origin[rank - 1] * src_strides[rank - 1];
        d_off += dst_origin[rank - 1] * dst_strides[rank - 1];
        put(d_off, &src[s_off..s_off + run]);
        for d in (0..rank.saturating_sub(1)).rev() {
            local[d] += 1;
            if local[d] < extent[d] {
                break;
            }
            local[d] = 0;
        }
    }
}

/// The one definition of the chunk-to-region offset arithmetic: walks
/// the overlap of `chunk_region` (which `part` holds) and `region`,
/// handing `put` each run with its sample offset in an array shaped as
/// `region`. A chunk that does not intersect the region is a no-op.
fn scatter_chunk_with<T: Element>(
    part: &NdArray<T>,
    chunk_region: &Region,
    region: &Region,
    put: impl FnMut(usize, &[T]),
) {
    let Some(inter) = chunk_region.intersect(region) else {
        return;
    };
    let rank = inter.rank();
    let mut src_origin = [0usize; MAX_RANK];
    let mut dst_origin = [0usize; MAX_RANK];
    for d in 0..rank {
        src_origin[d] = inter.origin()[d] - chunk_region.origin()[d];
        dst_origin[d] = inter.origin()[d] - region.origin()[d];
    }
    copy_region_with(
        part.as_slice(),
        part.shape(),
        &src_origin[..rank],
        region.shape(),
        &dst_origin[..rank],
        inter.extent(),
        put,
    );
}

/// Scatters the slice of a decoded chunk that overlaps `region` into
/// `out` (shaped as `region`): [`scatter_chunk_into`] for an owned
/// array.
pub fn scatter_chunk<T: Element>(
    part: &NdArray<T>,
    chunk_region: &Region,
    region: &Region,
    out: &mut NdArray<T>,
) {
    scatter_chunk_into(part, chunk_region, region, out.as_mut_slice());
}

/// [`scatter_chunk`] into a bare row-major buffer shaped as `region`
/// (`region.len()` samples), such as one band of a larger output.
pub fn scatter_chunk_into<T: Element>(
    part: &NdArray<T>,
    chunk_region: &Region,
    region: &Region,
    out: &mut [T],
) {
    scatter_chunk_with(part, chunk_region, region, copy_runs_into(out));
}

/// [`scatter_chunk`] straight into wire order: `out` is the region's
/// samples as little-endian bytes (`region.len() × T::BYTES` of them),
/// so a reply can be assembled in the buffer it is sent from.
pub fn scatter_chunk_le<T: Element>(
    part: &NdArray<T>,
    chunk_region: &Region,
    region: &Region,
    out: &mut [u8],
) {
    scatter_chunk_with(part, chunk_region, region, |off, run| {
        T::write_le_slice(run, &mut out[off * T::BYTES..(off + run.len()) * T::BYTES]);
    });
}

/// Extracts `region` of `src` into a new owned array.
pub fn gather<T: Element>(src: &NdArray<T>, region: &Region) -> NdArray<T> {
    let mut out = Vec::new();
    gather_into(src, region, &mut out);
    NdArray::from_vec(region.shape(), out)
}

/// [`gather`] into a caller-held buffer, left exactly `region`'s length.
/// Every sample is overwritten, so a buffer reused at the same length
/// is neither cleared nor reallocated.
fn gather_into<T: Element>(src: &NdArray<T>, region: &Region, out: &mut Vec<T>) {
    let shape = region.shape();
    out.resize(shape.len(), T::default());
    copy_region(
        src.as_slice(),
        src.shape(),
        region.origin(),
        out,
        shape,
        &[0usize; MAX_RANK][..shape.rank()],
        region.extent(),
    );
}

/// Gather buffers shared by the workers of one parallel loop: a gather
/// takes a spare buffer (or a new one) and returns it when done, so the
/// loop holds at most one buffer per worker.
#[derive(Default)]
pub(crate) struct GatherBuffers<T>(Mutex<Vec<Vec<T>>>);

impl<T: Element> GatherBuffers<T> {
    /// Gathers `region` of `src` into a spare buffer and runs `f` on it
    /// as a view shaped as `region`.
    pub(crate) fn with<R>(
        &self,
        src: &NdArray<T>,
        region: &Region,
        f: impl FnOnce(ArrayView<'_, T>) -> R,
    ) -> R {
        let mut buf = self.0.lock().pop().unwrap_or_default();
        gather_into(src, region, &mut buf);
        let out = f(ArrayView::new(region.shape(), &buf));
        self.0.lock().push(buf);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_counts_and_edges() {
        let g = ChunkGrid::new(Shape::d2(10, 7), Shape::d2(4, 4));
        assert_eq!(g.counts(), &[3, 2]);
        assert_eq!(g.n_chunks(), 6);
        // Last chunk is clipped in both dimensions.
        let r = g.chunk_region(5);
        assert_eq!(r.origin(), &[8, 4]);
        assert_eq!(r.extent(), &[2, 3]);
    }

    #[test]
    fn fits_in_rejects_regions_whose_end_overflows() {
        let shape = Shape::d2(4, 4);
        assert!(Region::new(&[2, 0], &[2, 4]).fits_in(shape));
        assert!(!Region::new(&[3, 0], &[2, 4]).fits_in(shape));
        assert!(!Region::new(&[0], &[4]).fits_in(shape));
        // `usize::MAX + 2` wraps to 1, which a plain `+` would accept.
        assert!(!Region::new(&[usize::MAX, 0], &[2, 1]).fits_in(shape));
    }

    #[test]
    fn coords_index_roundtrip() {
        let g = ChunkGrid::new(Shape::d3(9, 5, 6), Shape::d3(4, 2, 5));
        for i in 0..g.n_chunks() {
            let c = g.chunk_coords(i);
            assert_eq!(g.chunk_index(&c[..3]), i);
        }
    }

    #[test]
    fn regions_tile_the_array() {
        let g = ChunkGrid::new(Shape::d3(9, 5, 6), Shape::d3(4, 2, 5));
        let mut seen = vec![0u32; g.array_shape().len()];
        for i in 0..g.n_chunks() {
            let r = g.chunk_region(i);
            let shape = g.array_shape();
            let mut idx = [0usize; MAX_RANK];
            let total = r.len();
            for _ in 0..total {
                let mut off = 0;
                for (d, &i) in idx[..shape.rank()].iter().enumerate() {
                    off += (r.origin()[d] + i) * shape.strides()[d];
                }
                seen[off] += 1;
                for d in (0..shape.rank()).rev() {
                    idx[d] += 1;
                    if idx[d] < r.extent()[d] {
                        break;
                    }
                    idx[d] = 0;
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1), "chunks must tile exactly once");
    }

    #[test]
    fn oversized_chunk_clamps_to_one() {
        let g = ChunkGrid::new(Shape::d2(5, 3), Shape::d2(100, 100));
        assert_eq!(g.n_chunks(), 1);
        assert_eq!(g.chunk_shape(), Shape::d2(5, 3));
        assert!(g.chunk_is_slab(0));
    }

    #[test]
    fn slab_detection() {
        let g = ChunkGrid::new(Shape::d2(10, 6), Shape::d2(4, 6));
        assert!((0..g.n_chunks()).all(|i| g.chunk_is_slab(i)));
        let g2 = ChunkGrid::new(Shape::d2(10, 6), Shape::d2(4, 3));
        assert!(!(0..g2.n_chunks()).all(|i| g2.chunk_is_slab(i)));
    }

    #[test]
    fn intersecting_chunks_of_interior_region() {
        let g = ChunkGrid::new(Shape::d2(8, 8), Shape::d2(4, 4));
        // The region [2..6, 2..6] straddles all four chunks.
        let all = g.chunks_intersecting(&Region::new(&[2, 2], &[4, 4]));
        assert_eq!(all, vec![0, 1, 2, 3]);
        // A region inside one chunk touches only it.
        let one = g.chunks_intersecting(&Region::new(&[5, 1], &[2, 2]));
        assert_eq!(one, vec![2]);
    }

    #[test]
    fn region_intersection() {
        let a = Region::new(&[0, 0], &[4, 4]);
        let b = Region::new(&[2, 3], &[5, 5]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.origin(), &[2, 3]);
        assert_eq!(i.extent(), &[2, 1]);
        let c = Region::new(&[4, 0], &[1, 1]);
        assert!(a.intersect(&c).is_none());
    }

    #[test]
    fn gather_copies_the_right_box() {
        let a = NdArray::<f32>::from_fn(Shape::d2(6, 5), |i| (i[0] * 10 + i[1]) as f32);
        let r = Region::new(&[2, 1], &[3, 2]);
        let g = gather(&a, &r);
        assert_eq!(g.shape(), Shape::d2(3, 2));
        assert_eq!(g.as_slice(), &[21.0, 22.0, 31.0, 32.0, 41.0, 42.0]);
    }

    #[test]
    fn copy_region_roundtrips_through_scatter() {
        let a = NdArray::<f64>::from_fn(Shape::d3(4, 3, 5), |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as f64
        });
        let r = Region::new(&[1, 0, 2], &[2, 3, 2]);
        let piece = gather(&a, &r);
        let mut back = NdArray::<f64>::zeros(a.shape());
        copy_region(
            piece.as_slice(),
            piece.shape(),
            &[0, 0, 0],
            back.as_mut_slice(),
            a.shape(),
            r.origin(),
            r.extent(),
        );
        // Everything inside the region matches, everything outside is 0.
        for off in 0..a.len() {
            let idx = a.shape().unoffset(off);
            let inside = (0..3).all(|d| {
                idx[d] >= r.origin()[d] && idx[d] < r.origin()[d] + r.extent()[d]
            });
            let expect = if inside { a.as_slice()[off] } else { 0.0 };
            assert_eq!(back.as_slice()[off], expect, "offset {off}");
        }
    }

    #[test]
    fn le_scatter_is_the_typed_scatter_serialized() {
        let g = ChunkGrid::new(Shape::d3(7, 6, 9), Shape::d3(3, 4, 5));
        let a = NdArray::<f64>::from_fn(g.array_shape(), |i| {
            (i[0] * 100 + i[1] * 10 + i[2]) as f64 - 0.5
        });
        let region = Region::new(&[1, 1, 2], &[5, 4, 6]);
        let mut typed = NdArray::<f64>::zeros(region.shape());
        let mut le = vec![0u8; region.len() * 8];
        for i in g.chunks_intersecting(&region) {
            let chunk_region = g.chunk_region(i);
            let part = gather(&a, &chunk_region);
            scatter_chunk(&part, &chunk_region, &region, &mut typed);
            scatter_chunk_le(&part, &chunk_region, &region, &mut le);
        }
        assert_eq!(typed, gather(&a, &region));
        assert_eq!(le, typed.to_le_bytes());
    }

    #[test]
    #[should_panic]
    fn region_outside_array_rejected() {
        let g = ChunkGrid::new(Shape::d1(8), Shape::d1(4));
        let _ = g.chunks_intersecting(&Region::new(&[6], &[4]));
    }
}
