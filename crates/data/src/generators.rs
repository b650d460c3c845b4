//! Synthetic SDRBench-analog data set generators.
//!
//! The paper benchmarks on four SDRBench snapshots (Table II) plus four
//! more in its Figure 1. Those files are not redistributable, so each
//! data set is replaced by a deterministic synthetic field with the same
//! rank, precision, and — crucially for compression studies — the same
//! *local correlation structure*:
//!
//! | Paper set | Rank | Precision | Synthetic analog |
//! |-----------|------|-----------|------------------|
//! | CESM-ATM  | 3-D (26×1800×3600) | f32 | latitudinal gradient + multi-scale Gaussian random field (GRF) per level |
//! | HACC      | 1-D (280 M)        | f32 | unsorted halo-clustered particle coordinates (hard to predict ⇒ low CR) |
//! | NYX       | 3-D (512³)         | f32 | log-normal density from a smooth GRF (high dynamic range, very smooth ⇒ huge CR at loose ε) |
//! | S3D       | 4-D (11×500³)      | f64 | species fields with a tanh flame front + turbulence |
//! | QMCPack   | 3-D                | f32 | smooth oscillatory orbital-like field |
//! | ISABEL    | 3-D                | f32 | vortex pressure field (very smooth) |
//! | EXAFEL    | 2-D stack          | f32 | detector images: shot noise + bright Bragg spots (nearly incompressible losslessly) |
//!
//! All generators are pure functions of `(kind, scale, seed)`.
//!
//! Generation runs on every core the process may use
//! (`std::thread::available_parallelism`) and stays bit-identical to one
//! thread. The vendored `StdRng` is SplitMix64, a counter, so a worker
//! seeks its own copy to its share of the normal draws; a box-blur pass
//! sweeps whole lines or bounded column tiles, each line in its one
//! order; the pointwise passes split by sample; and the mean and variance
//! sums stay in sample order on the calling thread. HACC and EXAFEL draw
//! a variable number of words per sample, so they run on one thread.
//! `tests/synthesis_digests.rs` pins the output recorded from the
//! single-threaded generators.

use crate::array::NdArray;
use crate::dispatch_dtype;
use crate::element::Element;
use crate::shape::Shape;
use crate::view::ArrayView;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which SDRBench-analog data set to synthesize.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Community Earth System Model, atmosphere component (climate).
    Cesm,
    /// HACC cosmology particle positions (1-D).
    Hacc,
    /// NYX adaptive-mesh cosmology (baryon density).
    Nyx,
    /// S3D turbulent-combustion DNS (double precision, 4-D).
    S3d,
    /// QMCPack quantum Monte Carlo orbitals (Fig. 1 only).
    QmcPack,
    /// Hurricane ISABEL pressure field (Fig. 1 only).
    Isabel,
    /// EXAFEL LCLS detector images (Fig. 1 only).
    ExaFel,
}

impl DatasetKind {
    /// All four Table II benchmark sets, in the paper's column order.
    pub const TABLE2: [DatasetKind; 4] = [
        DatasetKind::Cesm,
        DatasetKind::Hacc,
        DatasetKind::Nyx,
        DatasetKind::S3d,
    ];

    /// The four Figure 1 sets.
    pub const FIG1: [DatasetKind; 4] = [
        DatasetKind::QmcPack,
        DatasetKind::Isabel,
        DatasetKind::Cesm,
        DatasetKind::ExaFel,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Cesm => "CESM",
            DatasetKind::Hacc => "HACC",
            DatasetKind::Nyx => "NYX",
            DatasetKind::S3d => "S3D",
            DatasetKind::QmcPack => "QMCPack",
            DatasetKind::Isabel => "ISABEL",
            DatasetKind::ExaFel => "EXAFEL",
        }
    }

    /// True for the double-precision sets (only S3D in the paper).
    pub fn is_f64(self) -> bool {
        matches!(self, DatasetKind::S3d)
    }

    /// The full dimensions used in the paper (Table II).
    pub fn paper_shape(self) -> Shape {
        match self {
            DatasetKind::Cesm => Shape::d3(26, 1800, 3600),
            DatasetKind::Hacc => Shape::d1(280_953_867),
            DatasetKind::Nyx => Shape::d3(512, 512, 512),
            DatasetKind::S3d => Shape::d4(11, 500, 500, 500),
            DatasetKind::QmcPack => Shape::d3(288, 115, 69),
            DatasetKind::Isabel => Shape::d3(100, 500, 500),
            DatasetKind::ExaFel => Shape::d3(352, 388, 185),
        }
    }
}

/// How much to shrink the paper's dimensions so experiments fit a single
/// machine. The per-byte energy/bandwidth framework normalizes sizes out;
/// only *relative* codec behaviour matters (see EXPERIMENTS.md, "Substitutions").
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Scale {
    /// Very small — unit/property tests (≈64–260 k samples).
    Tiny,
    /// Default bench size (≈2–6 M samples).
    Small,
    /// The paper's full dimensions (hundreds of MB to 10 GB).
    Paper,
}

impl Scale {
    fn shape_for(self, kind: DatasetKind) -> Shape {
        match (self, kind) {
            (Scale::Paper, k) => k.paper_shape(),
            (Scale::Tiny, DatasetKind::Cesm) => Shape::d3(8, 45, 90),
            (Scale::Tiny, DatasetKind::Hacc) => Shape::d1(100_000),
            (Scale::Tiny, DatasetKind::Nyx) => Shape::d3(48, 48, 48),
            (Scale::Tiny, DatasetKind::S3d) => Shape::d4(4, 24, 24, 24),
            (Scale::Tiny, DatasetKind::QmcPack) => Shape::d3(36, 29, 23),
            (Scale::Tiny, DatasetKind::Isabel) => Shape::d3(25, 50, 50),
            (Scale::Tiny, DatasetKind::ExaFel) => Shape::d3(11, 97, 93),
            (Scale::Small, DatasetKind::Cesm) => Shape::d3(26, 180, 360),
            (Scale::Small, DatasetKind::Hacc) => Shape::d1(2_000_000),
            (Scale::Small, DatasetKind::Nyx) => Shape::d3(128, 128, 128),
            (Scale::Small, DatasetKind::S3d) => Shape::d4(11, 64, 64, 64),
            (Scale::Small, DatasetKind::QmcPack) => Shape::d3(72, 58, 35),
            (Scale::Small, DatasetKind::Isabel) => Shape::d3(50, 125, 125),
            (Scale::Small, DatasetKind::ExaFel) => Shape::d3(44, 97, 93),
        }
    }
}

/// Which physical variable of a data set to synthesize. SDRBench
/// snapshots carry many variables per simulation; compressibility
/// varies across them (velocities are rougher than densities, etc.),
/// which several of the paper's "field of S3D/NYX" phrasings rely on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum Variable {
    /// The default/primary field of each set (temperature for CESM,
    /// x-positions for HACC, baryon density for NYX, species mass
    /// fractions for S3D).
    #[default]
    Primary,
    /// A velocity-like component: rougher small-scale structure, lower
    /// CR than the primary field.
    Velocity,
    /// A derived scalar (e.g. temperature for NYX, pressure for S3D):
    /// smoother than the velocity field.
    DerivedScalar,
}

impl Variable {
    /// All variables.
    pub const ALL: [Variable; 3] = [
        Variable::Primary,
        Variable::Velocity,
        Variable::DerivedScalar,
    ];

    /// Display suffix for reports.
    pub fn name(self) -> &'static str {
        match self {
            Variable::Primary => "primary",
            Variable::Velocity => "velocity",
            Variable::DerivedScalar => "derived",
        }
    }
}

/// A recipe for one synthetic data set.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Which analog to generate.
    pub kind: DatasetKind,
    /// Target size class.
    pub scale: Scale,
    /// Which variable of the simulation to synthesize.
    pub variable: Variable,
    /// RNG seed — identical specs generate bit-identical data.
    pub seed: u64,
}

impl DatasetSpec {
    /// Spec with the default seed used throughout the benches.
    pub fn new(kind: DatasetKind, scale: Scale) -> Self {
        Self {
            kind,
            scale,
            variable: Variable::Primary,
            seed: 0x5DCB_00D1 ^ kind as u64,
        }
    }

    /// Same data set, different simulation variable.
    pub fn with_variable(mut self, variable: Variable) -> Self {
        self.variable = variable;
        // Distinct variables of the same run share large-scale structure
        // but not noise; derive a per-variable seed.
        self.seed ^= (variable as u64 + 1) << 32;
        self
    }

    /// The shape this spec will generate.
    pub fn shape(&self) -> Shape {
        self.scale.shape_for(self.kind)
    }

    /// Generates the data set, on every core the process may use; the
    /// samples do not depend on how many that is.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        synthesize(self.kind, self.variable, self.shape(), &mut rng, synthesis_workers())
    }
}

/// `kind`'s `variable` over `shape`, drawing from `rng`, on `workers`
/// threads. Every worker count gives the same bytes and leaves `rng` in
/// the same state.
fn synthesize(
    kind: DatasetKind,
    variable: Variable,
    shape: Shape,
    rng: &mut StdRng,
    workers: usize,
) -> Dataset {
    let base = match kind {
        DatasetKind::Cesm => Dataset::F32(gen_cesm(shape, rng, workers)),
        DatasetKind::Hacc => Dataset::F32(gen_hacc(shape, rng)),
        DatasetKind::Nyx => Dataset::F32(gen_nyx(shape, rng, workers)),
        DatasetKind::S3d => Dataset::F64(gen_s3d(shape, rng, workers)),
        DatasetKind::QmcPack => Dataset::F32(gen_qmcpack(shape, rng, workers)),
        DatasetKind::Isabel => Dataset::F32(gen_isabel(shape, rng, workers)),
        DatasetKind::ExaFel => Dataset::F32(gen_exafel(shape, rng)),
    };
    let amps = match variable {
        Variable::Primary => return base,
        Variable::Velocity => (1.0, 0.35),
        Variable::DerivedScalar => (0.3, 0.02),
    };
    // Another variable of the same run: half the primary field plus
    // `turb_amp` multi-scale turbulence and `noise_amp` white noise (both
    // relative to the primary's value range).
    fn perturb<T: Element>(
        a: &NdArray<T>,
        turb: &[f64],
        rng: &mut StdRng,
        (turb_amp, noise_amp): (f64, f64),
        workers: usize,
    ) -> NdArray<T> {
        let range = a.value_range().max(1e-9);
        let base = a.as_slice();
        let mut data = vec![T::default(); base.len()];
        map_normals(&mut data, rng, workers, |i, n| {
            T::from_f64(base[i].to_f64() * 0.5 + range * (turb_amp * turb[i] + noise_amp * n))
        });
        NdArray::from_vec(a.shape(), data)
    }
    let turb = multiscale_on(shape, 2, shape.dim(shape.rank() - 1).max(8) / 8, rng, workers);
    dispatch_dtype!(Dataset(a) = &base => Dataset::from(perturb(a, &turb, rng, amps, workers)))
}

/// An owned array of either precision: what generators produce and what
/// comes back, dtype-erased, from an object-safe codec boundary.
#[derive(Clone, Debug)]
pub enum Dataset {
    /// Single-precision field.
    F32(NdArray<f32>),
    /// Double-precision field.
    F64(NdArray<f64>),
}

impl From<NdArray<f32>> for Dataset {
    fn from(a: NdArray<f32>) -> Self {
        Dataset::F32(a)
    }
}

impl From<NdArray<f64>> for Dataset {
    fn from(a: NdArray<f64>) -> Self {
        Dataset::F64(a)
    }
}

impl Dataset {
    /// Parses a flat little-endian sample buffer as the element type
    /// `dtype` names. `None` for an unknown tag or a size mismatch.
    pub fn from_le_bytes(dtype: u8, shape: Shape, bytes: &[u8]) -> Option<Self> {
        dispatch_dtype!(E = dtype => NdArray::<E>::from_le_bytes(shape, bytes).map(Dataset::from))
            .flatten()
    }

    /// Borrows the array as a dtype-erased view.
    pub fn view(&self) -> DatasetView<'_> {
        dispatch_dtype!(Dataset(a) = self => Element::erase(a.view()))
    }

    /// The [`Element::DTYPE`] tag of the held precision.
    pub fn dtype(&self) -> u8 {
        self.view().dtype()
    }

    /// The array's shape.
    pub fn shape(&self) -> Shape {
        self.view().shape()
    }

    /// Uncompressed size in bytes.
    pub fn nbytes(&self) -> usize {
        dispatch_dtype!(Dataset(a) = self => a.nbytes())
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.shape().len()
    }

    /// True when the data set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The samples as flat little-endian bytes (the raw-file layout).
    pub fn to_le_bytes(&self) -> Vec<u8> {
        dispatch_dtype!(Dataset(a) = self => a.to_le_bytes())
    }

    /// Borrows the single-precision array, panicking for f64 sets.
    #[expect(
        clippy::panic,
        reason = "documented panicking test/bench convenience accessor; every call site is a \
                  test, bench, or example asserting the precision it just generated"
    )]
    pub fn as_f32(&self) -> &NdArray<f32> {
        match self {
            Dataset::F32(a) => a,
            Dataset::F64(_) => panic!("dataset is f64, not f32"),
        }
    }

    /// Borrows the double-precision array, panicking for f32 sets.
    #[expect(
        clippy::panic,
        reason = "documented panicking test/bench convenience accessor; every call site is a \
                  test, bench, or example asserting the precision it just generated"
    )]
    pub fn as_f64(&self) -> &NdArray<f64> {
        match self {
            Dataset::F64(a) => a,
            Dataset::F32(_) => panic!("dataset is f32, not f64"),
        }
    }
}

/// A borrowed array of either precision: what generic code erases its
/// [`ArrayView`] into ([`Element::erase`]) to cross an object-safe
/// codec boundary without copying.
#[derive(Clone, Copy, Debug)]
pub enum DatasetView<'a> {
    /// Single-precision view.
    F32(ArrayView<'a, f32>),
    /// Double-precision view.
    F64(ArrayView<'a, f64>),
}

impl DatasetView<'_> {
    /// The [`Element::DTYPE`] tag of the viewed precision.
    pub fn dtype(&self) -> u8 {
        fn tag<T: Element>(_: &ArrayView<'_, T>) -> u8 {
            T::DTYPE
        }
        dispatch_dtype!(DatasetView(v) = self => tag(v))
    }

    /// The view's shape.
    pub fn shape(&self) -> Shape {
        dispatch_dtype!(DatasetView(v) = self => v.shape())
    }

    /// The value range `max − min` over finite samples (paper Eq. 1).
    pub fn value_range(&self) -> f64 {
        dispatch_dtype!(DatasetView(v) = self => v.value_range())
    }
}

// ---------------------------------------------------------------------------
// Field-construction primitives
// ---------------------------------------------------------------------------

/// Worker threads for one synthesis: every core the process may use.
fn synthesis_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A pass gives each worker at least this many samples; smaller fields
/// stay on the calling thread, where a spawn would cost more than it saves.
const MIN_WORKER_SAMPLES: usize = 1 << 12;

/// Samples in one worker's blur tile: 1 MiB of `f64`.
const TILE_SAMPLES: usize = (1 << 20) / 8;

/// How many of `workers` a pass over `samples` samples uses.
fn pass_workers(samples: usize, workers: usize) -> usize {
    workers.min(samples / MIN_WORKER_SAMPLES).max(1)
}

/// Cuts `data` into at most `workers` runs of whole `unit`-item groups and
/// calls `f(first_item, run)` on each: the first run on the calling
/// thread, every other on a scoped thread of one scope for the whole
/// pass. Returns each run's result, in order.
fn par_runs<T: Send, R: Send>(
    data: &mut [T],
    unit: usize,
    workers: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let groups = data.len() / unit.max(1);
    let workers = workers.min(groups).max(1);
    if workers == 1 {
        return vec![f(0, data)];
    }
    let run = groups.div_ceil(workers) * unit;
    let (head, tail) = data.split_at_mut(run);
    let f = &f;
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..)
            .zip(tail.chunks_mut(run))
            .map(|(k, r)| s.spawn(move || f(k * run, r)))
            .collect();
        let mut out = vec![f(0, head)];
        for handle in spawned {
            match handle.join() {
                Ok(r) => out.push(r),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        out
    })
}

/// [`par_runs`] over single samples, each worker taking at least
/// [`MIN_WORKER_SAMPLES`].
fn par_samples<T: Send, R: Send>(
    data: &mut [T],
    workers: usize,
    f: impl Fn(usize, &mut [T]) -> R + Sync,
) -> Vec<R> {
    par_runs(data, 1, pass_workers(data.len(), workers), f)
}

/// One Box–Muller draw: `None` (after one word) when `u1` is rejected.
fn try_normal(rng: &mut StdRng) -> Option<f64> {
    let u1: f64 = rng.random();
    if u1 > 1e-12 {
        let u2: f64 = rng.random();
        return Some((-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos());
    }
    None
}

/// Standard normal sample via Box–Muller (avoids a rand_distr dependency).
fn normal(rng: &mut StdRng) -> f64 {
    loop {
        if let Some(z) = try_normal(rng) {
            return z;
        }
    }
}

/// Sets `out[i] = f(i, z_i)`, where `z_0, z_1, …` are what successive
/// [`normal`] calls on `rng` return, and leaves `rng` where that loop
/// would. A draw takes two words unless `u1` is rejected, so each worker
/// seeks its own copy of `rng` to its run's first sample. A rejection
/// (p = 1e-12 per sample) shifts the rest of the stream: everything from
/// the first run that met one on is redone by the sequential loop.
fn map_normals<T: Send>(
    out: &mut [T],
    rng: &mut StdRng,
    workers: usize,
    f: impl Fn(usize, f64) -> T + Sync,
) {
    let origin = rng.clone();
    let runs = par_samples(out, workers, |start, run| {
        let mut rng = origin.clone();
        rng.seek(2 * start as u64);
        for (i, slot) in run.iter_mut().enumerate() {
            *slot = f(start + i, try_normal(&mut rng).ok_or(start)?);
        }
        Ok(())
    });
    match runs.into_iter().find_map(Result::err) {
        None => rng.seek(2 * out.len() as u64),
        Some(start) => {
            rng.seek(2 * start as u64);
            for (i, slot) in out[start..].iter_mut().enumerate() {
                *slot = f(start + i, normal(rng));
            }
        }
    }
}

/// One box-blur pass of radius `r` along axis `axis`, in place, using a
/// sliding-window running sum (O(n) regardless of radius). Three passes
/// approximate a Gaussian kernel well; this is how the multi-scale GRFs
/// acquire their correlation length.
///
/// Every line gets the same adds, subtracts and divides in the same
/// order whatever the worker count. Contiguous lines (the last axis) go
/// to workers whole. Along a strided axis the field is `outer` slabs of
/// `n` rows × `stride` columns; workers sweep bounded column tiles of a
/// slab, all of a tile's lines at once.
fn box_blur_axis(data: &mut [f64], shape: Shape, axis: usize, r: usize, workers: usize) {
    let n = shape.dim(axis);
    if r == 0 || n == 1 {
        return;
    }
    let stride = shape.strides()[axis];
    let workers = pass_workers(data.len(), workers);
    if stride == 1 {
        par_runs(data, n, workers, |_, lines| {
            let mut line = vec![0.0f64; n];
            for out in lines.chunks_exact_mut(n) {
                line.copy_from_slice(out);
                blur_line(&line, out, r);
            }
        });
        return;
    }
    let width = (TILE_SAMPLES / n).clamp(1, stride.div_ceil(workers));
    let per_row = stride.div_ceil(width);
    let mut tiles: Vec<Vec<&mut [f64]>> = (0..data.len() / stride / n * per_row)
        .map(|_| Vec::with_capacity(n))
        .collect();
    for (row, cells) in data.chunks_mut(stride).enumerate() {
        let first = row / n * per_row;
        for (tile, piece) in tiles[first..].iter_mut().zip(cells.chunks_mut(width)) {
            tile.push(piece);
        }
    }
    par_runs(&mut tiles, 1, workers, |_, tiles| {
        let mut src = vec![0.0f64; n * width];
        let mut acc = vec![0.0f64; width];
        for rows in tiles {
            let w = rows[0].len();
            for (dst, row) in src.chunks_exact_mut(w).zip(rows.iter()) {
                dst.copy_from_slice(row);
            }
            blur_tile(&src[..n * w], w, rows, r, &mut acc[..w]);
        }
    });
}

/// The sliding window of radius `r` over one line, with clamped
/// (replicated) boundaries.
fn blur_line(line: &[f64], out: &mut [f64], r: usize) {
    let n = line.len() as isize;
    let at = |i: isize| line[i.clamp(0, n - 1) as usize];
    let (r, width) = (r as isize, (2 * r + 1) as f64);
    let mut acc = 0.0;
    for k in -r..=r {
        acc += at(k);
    }
    for (i, o) in (0..).zip(out.iter_mut()) {
        *o = acc / width;
        acc += at(i + r + 1) - at(i - r);
    }
}

/// [`blur_line`] down each of the `w` columns of `src` (`rows.len()`
/// rows, row-major) at once, with the same operations in the same order,
/// writing row `i` of the result to `rows[i]`.
fn blur_tile(src: &[f64], w: usize, rows: &mut [&mut [f64]], r: usize, acc: &mut [f64]) {
    let n = rows.len() as isize;
    let at = |i: isize| {
        let i = i.clamp(0, n - 1) as usize;
        &src[i * w..(i + 1) * w]
    };
    let (r, width) = (r as isize, (2 * r + 1) as f64);
    acc.fill(0.0);
    for k in -r..=r {
        for (a, v) in acc.iter_mut().zip(at(k)) {
            *a += v;
        }
    }
    for (i, dst) in (0..).zip(rows.iter_mut()) {
        for (d, a) in dst.iter_mut().zip(&*acc) {
            *d = a / width;
        }
        for ((a, x), o) in acc.iter_mut().zip(at(i + r + 1)).zip(at(i - r)) {
            *a += x - o;
        }
    }
}

/// Smooth Gaussian random field: white noise blurred along every axis.
///
/// `radius` controls the correlation length; `passes` box-blur passes
/// approximate a Gaussian kernel. The result is renormalized to unit
/// standard deviation.
pub fn gaussian_random_field(shape: Shape, radius: usize, passes: usize, rng: &mut StdRng) -> Vec<f64> {
    grf_on(shape, radius, passes, rng, synthesis_workers())
}

fn grf_on(
    shape: Shape,
    radius: usize,
    passes: usize,
    rng: &mut StdRng,
    workers: usize,
) -> Vec<f64> {
    let mut f = vec![0.0f64; shape.len()];
    map_normals(&mut f, rng, workers, |_, z| z);
    for _ in 0..passes {
        for axis in 0..shape.rank() {
            box_blur_axis(&mut f, shape, axis, radius, workers);
        }
    }
    normalize_unit(&mut f, workers);
    f
}

/// Sum of GRFs at geometrically growing correlation lengths — the
/// "turbulence" texture used by the CESM/NYX/S3D analogs.
pub fn multiscale_field(shape: Shape, octaves: usize, base_radius: usize, rng: &mut StdRng) -> Vec<f64> {
    multiscale_on(shape, octaves, base_radius, rng, synthesis_workers())
}

fn multiscale_on(
    shape: Shape,
    octaves: usize,
    base_radius: usize,
    rng: &mut StdRng,
    workers: usize,
) -> Vec<f64> {
    let mut out = vec![0.0f64; shape.len()];
    let mut amp = 1.0;
    let mut radius = base_radius;
    for _ in 0..octaves {
        let f = grf_on(shape, radius, 2, rng, workers);
        par_samples(&mut out, workers, |start, run| {
            for (o, v) in run.iter_mut().zip(&f[start..]) {
                *o += amp * v;
            }
        });
        amp *= 0.5;
        radius = (radius / 2).max(1);
    }
    normalize_unit(&mut out, workers);
    out
}

/// Shifts and scales `f` to zero mean and unit variance. The two sums
/// run in sample order on the calling thread — another order would
/// round differently; only the scaling runs on workers.
fn normalize_unit(f: &mut [f64], workers: usize) {
    let n = f.len() as f64;
    let mean = f.iter().sum::<f64>() / n;
    let var = f.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    let sd = var.sqrt().max(1e-30);
    par_samples(f, workers, |_, run| {
        for v in run {
            *v = (*v - mean) / sd;
        }
    });
}

// ---------------------------------------------------------------------------
// Per-data-set recipes
// ---------------------------------------------------------------------------

fn gen_cesm(shape: Shape, rng: &mut StdRng, workers: usize) -> NdArray<f32> {
    // Temperature-like field: per-level base value, strong smooth
    // latitudinal gradient, multi-scale weather texture, faint noise.
    let (lat, lon) = (shape.dim(1), shape.dim(2));
    let plane = Shape::d2(lat, lon);
    let gradient: Vec<f64> = (0..lat)
        .map(|i| {
            let latf = (i as f64 / (lat - 1).max(1) as f64 - 0.5) * std::f64::consts::PI;
            30.0 * latf.cos().powi(2)
        })
        .collect();
    let mut data = vec![0.0f32; shape.len()];
    for (k, level) in data.chunks_exact_mut(plane.len()).enumerate() {
        let base = 288.0 - 6.5 * k as f64; // lapse-rate profile
        let texture = multiscale_on(plane, 3, lat.max(8) / 8, rng, workers);
        map_normals(level, rng, workers, |i, z| {
            (base + gradient[i / lon] + 4.0 * texture[i] + 0.05 * z) as f32
        });
    }
    NdArray::from_vec(shape, data)
}

fn gen_hacc(shape: Shape, rng: &mut StdRng) -> NdArray<f32> {
    // Particle x-coordinates in a periodic box, clustered into halos and
    // stored in simulation (memory) order — neighbouring entries are
    // nearly uncorrelated, which is what makes HACC hard for prediction-
    // based codecs (Table III: CR 2.7–217 vs NYX's 13.7–102 k).
    let n = shape.len();
    let box_size = 256.0;
    let n_halos = (n / 512).max(8);
    let centers: Vec<f64> = (0..n_halos).map(|_| rng.random::<f64>() * box_size).collect();
    let mut data = Vec::with_capacity(n);
    for _ in 0..n {
        let v = if rng.random::<f64>() < 0.8 {
            // Halo member: Gaussian cloud around a random halo centre.
            let c = centers[rng.random_range(0..n_halos)];
            (c + 1.5 * normal(rng)).rem_euclid(box_size)
        } else {
            // Field particle: uniform.
            rng.random::<f64>() * box_size
        };
        data.push(v as f32);
    }
    NdArray::from_vec(shape, data)
}

fn gen_nyx(shape: Shape, rng: &mut StdRng, workers: usize) -> NdArray<f32> {
    // Log-normal baryon density: exp(a·GRF). Smooth with huge dynamic
    // range, giving the enormous CR at loose bounds seen in Table III.
    let f = multiscale_on(shape, 3, shape.dim(0).max(8) / 8, rng, workers);
    let mut data = vec![0.0f32; shape.len()];
    par_samples(&mut data, workers, |start, run| {
        for (d, v) in run.iter_mut().zip(&f[start..]) {
            *d = (2.0 * v).exp() as f32;
        }
    });
    NdArray::from_vec(shape, data)
}

fn gen_s3d(shape: Shape, rng: &mut StdRng, workers: usize) -> NdArray<f64> {
    // Species mass fractions around a propagating flame front: a tanh
    // transition sheet perturbed by turbulence, one 3-D field per species.
    let (species, nx, ny, nz) = (shape.dim(0), shape.dim(1), shape.dim(2), shape.dim(3));
    let vol = Shape::d3(nx, ny, nz);
    let mut data = vec![0.0f64; shape.len()];
    for (s, field) in data.chunks_exact_mut(vol.len()).enumerate() {
        let turb = multiscale_on(vol, 3, nx.max(8) / 8, rng, workers);
        let front = 0.35 + 0.3 * (s as f64 / species.max(1) as f64);
        let sharp = 12.0 + 2.0 * s as f64;
        let amp = 0.02 + 0.2 * ((s * 7919) % 10) as f64 / 10.0;
        par_samples(field, workers, |start, run| {
            for (idx, v) in (start..).zip(run) {
                let x = (idx / (ny * nz)) as f64 / nx as f64;
                let t = turb[idx];
                let phase = sharp * (x - front + 0.08 * t);
                *v = amp * 0.5 * (1.0 + phase.tanh()) + 1e-4 * t.abs();
            }
        });
    }
    NdArray::from_vec(shape, data)
}

fn gen_qmcpack(shape: Shape, rng: &mut StdRng, workers: usize) -> NdArray<f32> {
    // Orbital-like oscillatory envelope: product of smooth GRF and a
    // radial oscillation. Smooth ⇒ lossy compresses well; oscillation
    // defeats lossless byte-level schemes (Fig. 1).
    let f = grf_on(shape, shape.dim(0).max(8) / 8, 2, rng, workers);
    let (nx, ny, nz) = (shape.dim(0), shape.dim(1), shape.dim(2));
    let mut data = Vec::with_capacity(shape.len());
    for i in 0..nx {
        for j in 0..ny {
            for k in 0..nz {
                let r = ((i * i + j * j + k * k) as f64).sqrt();
                let v = f[(i * ny + j) * nz + k] * (0.35 * r).sin();
                data.push(v as f32);
            }
        }
    }
    NdArray::from_vec(shape, data)
}

fn gen_isabel(shape: Shape, rng: &mut StdRng, workers: usize) -> NdArray<f32> {
    // Hurricane pressure: deep smooth vortex low + weather texture.
    let (nx, ny, nz) = (shape.dim(0), shape.dim(1), shape.dim(2));
    let texture = multiscale_on(shape, 2, ny.max(8) / 8, rng, workers);
    let (cy, cz) = (ny as f64 / 2.0, nz as f64 / 2.0);
    let mut data = Vec::with_capacity(shape.len());
    for i in 0..nx {
        let depth = 1.0 - i as f64 / nx as f64;
        for j in 0..ny {
            for k in 0..nz {
                let dy = (j as f64 - cy) / ny as f64;
                let dz = (k as f64 - cz) / nz as f64;
                let r2 = dy * dy + dz * dz;
                let vortex = -55.0 * depth * (-r2 * 40.0).exp();
                let v = 1013.0 + vortex + 2.0 * texture[(i * ny + j) * nz + k];
                data.push(v as f32);
            }
        }
    }
    NdArray::from_vec(shape, data)
}

fn gen_exafel(shape: Shape, rng: &mut StdRng) -> NdArray<f32> {
    // Detector image stack: per-pixel shot noise plus sparse bright
    // Bragg peaks. Noise-dominated ⇒ nearly incompressible losslessly.
    let (frames, h, w) = (shape.dim(0), shape.dim(1), shape.dim(2));
    let mut data = Vec::with_capacity(shape.len());
    for _ in 0..frames {
        let n_peaks = 20 + rng.random_range(0..20);
        let peaks: Vec<(usize, usize, f64)> = (0..n_peaks)
            .map(|_| {
                (
                    rng.random_range(0..h),
                    rng.random_range(0..w),
                    200.0 + 800.0 * rng.random::<f64>(),
                )
            })
            .collect();
        for i in 0..h {
            for j in 0..w {
                let mut v = 10.0 + 3.0 * normal(rng).abs();
                for &(pi, pj, amp) in &peaks {
                    let d2 = (i as f64 - pi as f64).powi(2) + (j as f64 - pj as f64).powi(2);
                    if d2 < 36.0 {
                        v += amp * (-d2 / 4.0).exp();
                    }
                }
                data.push(v as f32);
            }
        }
    }
    NdArray::from_vec(shape, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_deterministic() {
        let spec = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.as_f32().as_slice(), b.as_f32().as_slice());
    }

    #[test]
    fn seeds_change_data() {
        let mut s1 = DatasetSpec::new(DatasetKind::Cesm, Scale::Tiny);
        let mut s2 = s1;
        s1.seed = 1;
        s2.seed = 2;
        assert_ne!(
            s1.generate().as_f32().as_slice(),
            s2.generate().as_f32().as_slice()
        );
    }

    #[test]
    fn shapes_match_spec() {
        for kind in DatasetKind::TABLE2 {
            let spec = DatasetSpec::new(kind, Scale::Tiny);
            let d = spec.generate();
            assert_eq!(d.shape(), spec.shape(), "{kind:?}");
            assert_eq!(d.len(), spec.shape().len());
        }
    }

    #[test]
    fn paper_shapes_match_table2() {
        assert_eq!(DatasetKind::Cesm.paper_shape().len(), 26 * 1800 * 3600);
        assert_eq!(DatasetKind::Hacc.paper_shape().len(), 280_953_867);
        assert_eq!(DatasetKind::Nyx.paper_shape().len(), 512usize.pow(3));
        assert_eq!(DatasetKind::S3d.paper_shape().len(), 11 * 500usize.pow(3));
    }

    #[test]
    fn s3d_is_double_precision() {
        assert!(DatasetKind::S3d.is_f64());
        let d = DatasetSpec::new(DatasetKind::S3d, Scale::Tiny).generate();
        assert!(matches!(d, Dataset::F64(_)));
        // Table II: S3D stored as double ⇒ 8 B/sample.
        assert_eq!(d.nbytes(), d.len() * 8);
    }

    #[test]
    fn all_values_finite() {
        for kind in [
            DatasetKind::Cesm,
            DatasetKind::Hacc,
            DatasetKind::Nyx,
            DatasetKind::QmcPack,
            DatasetKind::Isabel,
            DatasetKind::ExaFel,
        ] {
            let d = DatasetSpec::new(kind, Scale::Tiny).generate();
            assert!(
                d.as_f32().as_slice().iter().all(|v| v.is_finite()),
                "{kind:?} produced non-finite values"
            );
        }
        let d = DatasetSpec::new(DatasetKind::S3d, Scale::Tiny).generate();
        assert!(d.as_f64().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn nyx_smoother_than_hacc() {
        // Mean absolute first difference (normalized by value range) is the
        // smoothness proxy that predicts CR ordering: NYX ≪ HACC.
        fn roughness(a: &NdArray<f32>) -> f64 {
            let s = a.as_slice();
            let range = a.value_range().max(1e-30);
            let sum: f64 = s.windows(2).map(|w| (w[1] - w[0]).abs() as f64).sum();
            sum / (s.len() - 1) as f64 / range
        }
        let nyx = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate();
        let hacc = DatasetSpec::new(DatasetKind::Hacc, Scale::Tiny).generate();
        assert!(roughness(nyx.as_f32()) < 0.5 * roughness(hacc.as_f32()));
    }

    #[test]
    fn variables_are_distinct_same_shape() {
        let spec = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny);
        let primary = spec.generate();
        let velocity = spec.with_variable(Variable::Velocity).generate();
        let derived = spec.with_variable(Variable::DerivedScalar).generate();
        assert_eq!(primary.shape(), velocity.shape());
        assert_eq!(primary.shape(), derived.shape());
        assert_ne!(primary.as_f32().as_slice(), velocity.as_f32().as_slice());
        assert_ne!(velocity.as_f32().as_slice(), derived.as_f32().as_slice());
    }

    #[test]
    fn velocity_rougher_than_derived() {
        fn roughness(a: &NdArray<f32>) -> f64 {
            let s = a.as_slice();
            let range = a.value_range().max(1e-30);
            s.windows(2).map(|w| (w[1] - w[0]).abs() as f64).sum::<f64>()
                / (s.len() - 1) as f64
                / range
        }
        let spec = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny);
        let vel = spec.with_variable(Variable::Velocity).generate();
        let der = spec.with_variable(Variable::DerivedScalar).generate();
        assert!(
            roughness(vel.as_f32()) > roughness(der.as_f32()),
            "velocity should be rougher"
        );
        // All variables stay finite.
        assert!(vel.as_f32().as_slice().iter().all(|v| v.is_finite()));
        assert!(der.as_f32().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn f64_variables_work() {
        let spec = DatasetSpec::new(DatasetKind::S3d, Scale::Tiny)
            .with_variable(Variable::Velocity);
        let d = spec.generate();
        assert!(matches!(d, Dataset::F64(_)));
        assert!(d.as_f64().as_slice().iter().all(|v| v.is_finite()));
    }

    const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

    /// Every kind and variable, at `Tiny` and at shapes large enough that
    /// each pass splits among all eight workers, gives the same bytes and
    /// leaves the RNG in the same state whatever the worker count.
    #[test]
    fn worker_count_changes_no_bit() {
        let mut cases: Vec<(DatasetKind, Variable, Shape)> = Vec::new();
        for kind in [
            DatasetKind::Cesm,
            DatasetKind::Hacc,
            DatasetKind::Nyx,
            DatasetKind::S3d,
            DatasetKind::QmcPack,
            DatasetKind::Isabel,
            DatasetKind::ExaFel,
        ] {
            for variable in Variable::ALL {
                cases.push((kind, variable, Scale::Tiny.shape_for(kind)));
            }
        }
        cases.push((DatasetKind::Cesm, Variable::Velocity, Shape::d3(2, 90, 400)));
        cases.push((DatasetKind::S3d, Variable::Primary, Shape::d4(2, 32, 40, 36)));
        cases.push((DatasetKind::Nyx, Variable::DerivedScalar, Shape::d3(37, 41, 43)));
        for (kind, variable, shape) in cases {
            let run = |workers| {
                let mut rng = StdRng::seed_from_u64(0x5EED ^ kind as u64);
                let bytes = synthesize(kind, variable, shape, &mut rng, workers).to_le_bytes();
                (bytes, rng)
            };
            let serial = run(1);
            for &workers in &WORKER_COUNTS[1..] {
                let parallel = run(workers);
                assert!(parallel.0 == serial.0, "{kind:?}/{variable:?}/{workers}: bytes");
                assert_eq!(parallel.1, serial.1, "{kind:?}/{variable:?}/{workers}: rng");
            }
        }
    }

    const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// The multiplicative inverse of odd `c` modulo 2^64 (Newton's
    /// iteration doubles the correct low bits each step).
    fn inverse(c: u64) -> u64 {
        (0..6).fold(c, |x, _| x.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(x))))
    }

    /// Undoes `y = x ^ (x >> s)`.
    fn unshift(y: u64, s: u32) -> u64 {
        (0..64 / s).fold(y, |x, _| y ^ (x >> s))
    }

    /// The SplitMix64 state whose finalizer outputs `word`.
    fn unmix(word: u64) -> u64 {
        let z = unshift(word, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        let z = unshift(z, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        unshift(z, 30)
    }

    /// A seed whose draw number `d` (from 0) is `word`.
    fn seed_drawing(word: u64, d: u64) -> u64 {
        unmix(word).wrapping_sub((d + 1).wrapping_mul(GAMMA))
    }

    /// A draw of 0 (or of 2^11, which is u1 = 2^-53) forces Box–Muller's
    /// rejection at a chosen sample: in the caller's run, inside a
    /// spawned worker's, and at the very last sample. The shifted stream
    /// must come out exactly as the sequential loop makes it.
    #[test]
    fn a_rejected_draw_falls_back_to_the_sequential_stream() {
        let len = 3 * 8192;
        for (word, sample) in [(0, 5), (0, 8192 + 100), (1 << 11, 2 * 8192 + 7), (0, len - 1)] {
            let seed = seed_drawing(word, 2 * sample as u64);
            let mut probe = StdRng::seed_from_u64(seed);
            probe.seek(2 * sample as u64);
            assert_eq!(probe.random::<u64>(), word, "the seed draws {word} at sample {sample}");

            let mut rng = StdRng::seed_from_u64(seed);
            let sequential: Vec<f64> = (0..len).map(|_| normal(&mut rng)).collect();
            let mut unshifted = StdRng::seed_from_u64(seed);
            unshifted.seek(2 * len as u64);
            assert_ne!(rng, unshifted, "sample {sample} was rejected once");
            for workers in WORKER_COUNTS {
                let mut parallel = StdRng::seed_from_u64(seed);
                let mut out = vec![0.0f64; len];
                map_normals(&mut out, &mut parallel, workers, |_, z| z);
                assert!(
                    out.iter().map(|v| v.to_bits()).eq(sequential.iter().map(|v| v.to_bits())),
                    "sample {sample}, {workers} workers: samples"
                );
                assert_eq!(parallel, rng, "sample {sample}, {workers} workers: rng");
            }
        }
    }

    #[test]
    fn grf_is_normalized() {
        let mut rng = StdRng::seed_from_u64(7);
        let f = gaussian_random_field(Shape::d2(64, 64), 4, 2, &mut rng);
        let n = f.len() as f64;
        let mean = f.iter().sum::<f64>() / n;
        let var = f.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
        assert!(mean.abs() < 1e-9);
        assert!((var - 1.0).abs() < 1e-6);
    }

    #[test]
    fn blur_reduces_roughness() {
        let mut rng = StdRng::seed_from_u64(9);
        let shape = Shape::d1(4096);
        let rough = gaussian_random_field(shape, 0, 0, &mut rng);
        let smooth = gaussian_random_field(shape, 8, 3, &mut rng);
        let r = |f: &[f64]| -> f64 { f.windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        assert!(r(&smooth) < 0.5 * r(&rough));
    }
}
