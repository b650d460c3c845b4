//! The op schedule: every box, slab and scale factor a workload uses is
//! a pure function of `--seed`, generated here and nowhere else. The
//! program under test only ever sees the generated inputs.

use eblcio_store::Region;

/// splitmix64 — local so the schedule never shifts under a change to
/// the vendored `rand` stub.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `lane` (workload, client).
    pub fn new(seed: u64, lane: u64) -> Self {
        Self(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn unit_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// An axis-aligned box in array coordinates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoxSpec {
    pub origin: Vec<usize>,
    pub extent: Vec<usize>,
}

impl BoxSpec {
    pub fn region(&self) -> Region {
        Region::new(&self.origin, &self.extent)
    }

    pub fn len(&self) -> usize {
        self.extent.iter().product()
    }
}

/// An origin for an `extent`-long interval inside `0..dim` that is not
/// a multiple of `chunk` whenever the dimension leaves room for one, so
/// reads straddle chunk boundaries the way analysis boxes do.
fn unaligned_origin(rng: &mut Rng, dim: usize, extent: usize, chunk: usize) -> usize {
    let room = dim - extent;
    if room == 0 {
        return 0;
    }
    let o = rng.below(room + 1);
    if chunk == 1 || !o.is_multiple_of(chunk) {
        o
    } else if o < room {
        o + 1
    } else {
        o - 1
    }
}

/// `n` seeded boxes of one size class inside `shape`.
pub fn box_pool(
    seed: u64,
    lane: u64,
    shape: &[usize],
    extent: &[usize],
    chunk: &[usize],
    n: usize,
) -> Vec<BoxSpec> {
    let mut rng = Rng::new(seed, lane);
    (0..n)
        .map(|_| BoxSpec {
            origin: (0..shape.len())
                .map(|d| unaligned_origin(&mut rng, shape[d], extent[d], chunk[d]))
                .collect(),
            extent: extent.to_vec(),
        })
        .collect()
}

/// One `update_while_serving` cycle on a cubic array of `side` samples
/// cut into `chunk`-sided chunks.
#[derive(Clone, Debug, PartialEq)]
pub struct UpdateCycle {
    /// Chunk-aligned slab one chunk thick across `axis`: the update.
    pub slab: BoxSpec,
    /// The slab widened by a few samples along `axis`: touches every
    /// updated chunk whole, and its neighbours by a sliver.
    pub overlap: BoxSpec,
    /// A non-aligned box that stays clear of the slab.
    pub disjoint: BoxSpec,
    /// Multiplier applied to the original samples to make the new ones.
    pub scale: f64,
}

/// The seeded update schedule (see [`UpdateCycle`]).
pub fn update_cycles(seed: u64, side: usize, chunk: usize, n: usize) -> Vec<UpdateCycle> {
    let planes = side / chunk;
    let mut rng = Rng::new(seed, 0x0DD5);
    (0..n)
        .map(|_| {
            let axis = rng.below(3);
            let plane = rng.below(planes);
            let (lo, hi) = (plane * chunk, (plane + 1) * chunk);
            let mut slab = BoxSpec {
                origin: vec![0; 3],
                extent: vec![side; 3],
            };
            slab.origin[axis] = lo;
            slab.extent[axis] = chunk;

            let margin = 1 + rng.below(chunk / 4);
            let mut overlap = slab.clone();
            overlap.origin[axis] = lo.saturating_sub(margin);
            overlap.extent[axis] = (hi + margin).min(side) - overlap.origin[axis];

            // The larger side of the array left free by the slab.
            let (free_lo, free_hi) = if lo >= side - hi { (0, lo) } else { (hi, side) };
            let across = chunk + chunk / 4;
            let mut disjoint = BoxSpec {
                origin: vec![0; 3],
                extent: vec![side / 2; 3],
            };
            for d in 0..3 {
                disjoint.origin[d] = unaligned_origin(&mut rng, side, side / 2, chunk);
            }
            disjoint.extent[axis] = across.min(free_hi - free_lo);
            disjoint.origin[axis] = free_lo
                + unaligned_origin(&mut rng, free_hi - free_lo, disjoint.extent[axis], chunk);

            UpdateCycle {
                slab,
                overlap,
                disjoint,
                scale: rng.unit_range(0.98, 1.02),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxes_are_a_pure_function_of_the_seed() {
        let shape = [11, 64, 64, 64];
        let extent = [11, 32, 32, 32];
        let chunk = [1, 32, 32, 32];
        let a = box_pool(7, 1, &shape, &extent, &chunk, 16);
        let b = box_pool(7, 1, &shape, &extent, &chunk, 16);
        let c = box_pool(8, 1, &shape, &extent, &chunk, 16);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, box_pool(7, 2, &shape, &extent, &chunk, 16));
    }

    #[test]
    fn boxes_fit_and_straddle_chunks() {
        let shape = [26, 180, 360];
        let extent = [8, 128, 256];
        let chunk = [13, 45, 90];
        for b in box_pool(3, 0, &shape, &extent, &chunk, 64) {
            for d in 0..3 {
                assert!(b.origin[d] + b.extent[d] <= shape[d]);
                assert_ne!(b.origin[d] % chunk[d], 0, "{b:?}");
            }
            assert!(b.region().fits_in(eblcio_data::Shape::new(&shape)));
        }
    }

    #[test]
    fn update_cycles_are_seeded_and_well_formed() {
        let a = update_cycles(11, 128, 32, 32);
        assert_eq!(a, update_cycles(11, 128, 32, 32));
        assert_ne!(a, update_cycles(12, 128, 32, 32));
        for c in &a {
            let axis = (0..3).find(|&d| c.slab.extent[d] == 32).unwrap();
            assert_eq!(c.slab.origin[axis] % 32, 0);
            assert_eq!(c.slab.len(), 32 * 128 * 128);
            // Overlap covers the slab; disjoint never meets it.
            assert!(c.overlap.region().intersect(&c.slab.region()).is_some());
            assert!(c.overlap.origin[axis] <= c.slab.origin[axis]);
            assert!(
                c.disjoint.region().intersect(&c.slab.region()).is_none(),
                "{c:?}"
            );
            for d in 0..3 {
                assert!(c.disjoint.origin[d] + c.disjoint.extent[d] <= 128);
                assert!(c.overlap.origin[d] + c.overlap.extent[d] <= 128);
            }
            assert!((0.98..1.02).contains(&c.scale));
        }
    }
}
