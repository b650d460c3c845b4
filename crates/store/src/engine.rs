//! The region engine: how concurrent workers write one region output.
//! The store's region reads and `eblcio_serve`'s cold reads both
//! assemble through [`scatter_region`], differing only in their fetch.

use crate::grid::Region;
use eblcio_codec::Result;
use eblcio_data::{Element, NdArray};
use parking_lot::Mutex;
use rayon::prelude::*;

/// Bands a region output is cut into, per pool worker: enough that two
/// workers' pieces rarely want the same band at once. On
/// `update_while_serving`'s overlapping read two per worker read
/// ≈ 10 % slower than four, and eight read like four (EXPERIMENTS.md,
/// "Cold misses at copy speed").
const BANDS_PER_WORKER: usize = 4;

/// A row-major region output cut along the region's first axis into
/// contiguous bands, each behind its own lock, so several workers can
/// store pieces at once. At most 64 bands (one bit each in
/// [`Bands::scatter`]'s to-do mask), never more than the region has
/// rows.
struct Bands<'a, U> {
    region: Region,
    bands: Vec<(Region, Mutex<&'a mut [U]>)>,
}

impl<'a, U> Bands<'a, U> {
    fn split(region: &Region, mut out: &'a mut [U], count: usize) -> Self {
        let rows = region.extent()[0];
        let count = count.clamp(1, rows.min(64));
        let per_row = out.len() / rows;
        let mut bands = Vec::with_capacity(count);
        let mut lo = 0;
        for k in 1..=count {
            let hi = k * rows / count;
            let (band, rest) = std::mem::take(&mut out).split_at_mut((hi - lo) * per_row);
            out = rest;
            bands.push((region.rows(lo, hi), Mutex::new(band)));
            lo = hi;
        }
        Self { region: *region, bands }
    }

    /// Stores `piece`, which covers the array region `covered`, into
    /// every band it meets: free bands first, in order; a worker waits
    /// for a band only when every band it still needs is busy.
    fn scatter<T: Element>(
        &self,
        piece: &NdArray<T>,
        covered: &Region,
        scatter: &impl Fn(&NdArray<T>, &Region, &Region, &mut [U]),
    ) {
        let Some(inter) = covered.intersect(&self.region) else {
            return;
        };
        let (lo, hi) = (inter.origin()[0], inter.origin()[0] + inter.extent()[0]);
        let mut todo = 0u64;
        for (k, (band, _)) in self.bands.iter().enumerate() {
            let start = band.origin()[0];
            if start < hi && lo < start + band.extent()[0] {
                todo |= 1 << k;
            }
        }
        while todo != 0 {
            let before = todo;
            let mut rest = todo;
            while rest != 0 {
                let k = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let (band, dst) = &self.bands[k];
                if let Some(mut dst) = dst.try_lock() {
                    scatter(piece, covered, band, &mut dst);
                    todo &= !(1 << k);
                }
            }
            if todo == before {
                // Every band still needed is busy: wait for the first.
                let k = todo.trailing_zeros() as usize;
                let (band, dst) = &self.bands[k];
                scatter(piece, covered, band, &mut dst.lock());
                todo &= !(1 << k);
            }
        }
    }
}

/// Assembles `region` into `out`, its row-major output of whatever unit
/// `scatter` writes (see [`scatter_chunk_into`](crate::scatter_chunk_into)),
/// from pieces fetched in parallel. The installed pool's workers claim
/// `items` one at a time; `fetch(item, put)` hands each piece it gets
/// to `put(piece, covered)`, which stores it band by band (`out` is cut
/// into 4 bands per worker, each with its own lock). A worker claims
/// again only after `fetch` returns, so at most one piece per worker is
/// alive. A fetch may put nothing. The first error stops further
/// claims. No items: no allocation.
pub fn scatter_region<I: Sync, T: Element, U: Send>(
    region: &Region,
    out: &mut [U],
    items: &[I],
    scatter: &(impl Fn(&NdArray<T>, &Region, &Region, &mut [U]) + Sync),
    fetch: impl Fn(&I, &dyn Fn(&NdArray<T>, &Region)) -> Result<()> + Sync,
) -> Result<()> {
    if items.is_empty() {
        return Ok(());
    }
    let bands = Bands::split(region, out, BANDS_PER_WORKER * rayon::current_num_threads());
    items
        .par_iter()
        .try_for_each(|item| fetch(item, &|piece, covered| bands.scatter(piece, covered, scatter)))
}
