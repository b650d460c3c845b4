//! Every table and figure of the reproduction, with the paper's claims
//! about each as executable checks.
//!
//! A figure is a function over the shared [`Sweep`]: it declares what
//! the paper says about it (`Claims`), asks the sweep for the cells
//! it needs (timed once per process, whoever asks first), fills its
//! [`TextTable`] and feeds each claim the numbers it compares, right
//! where the typed values are in hand. A claim's [`Basis`] says whether
//! it can be enforced on any host.

use crate::{eng, fx, TextTable};
use eblcio_cluster::{run_compress_and_write, run_write_original, ClusterSpec};
use eblcio_codec::stage::build_byte_stage;
use eblcio_codec::{ByteStageSpec, ChainSpec, CodecError, CompressorId, ErrorBound};
use eblcio_core::campaign::WallCell;
use eblcio_core::carbon::{MediaClass, StorageFleet};
use eblcio_core::workflow::{Campaign, DumpCost};
use eblcio_core::{Advisor, Decision, Recommendation, Sweep, PAPER_EPSILONS, PAPER_THREADS};
use eblcio_data::generators::Scale;
use eblcio_data::inflate::inflate;
use eblcio_data::{max_abs_error, max_rel_error, Dataset, DatasetKind, DatasetSpec, NdArray, Shape};
use eblcio_energy::{measure::energy_for_wall, measure_compute, Activity, CpuGeneration, Seconds};
use eblcio_pfs::{format::DataObject, IoRequest, IoToolKind, PfsSim};
use eblcio_store::{gather, read_region_io, write_store, ChunkedStore, Region};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// How far a claim can be trusted to repeat on another host.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Basis {
    /// Bytes, ratios, PSNR, the ε contract, anything out of [`PfsSim`],
    /// any projection of one cell: the same on every host, enforced.
    Deterministic,
    /// Rests on measured wall time: enforced as "the compared ratio is
    /// at least `margin`", a factor the claim cleared with room in ten
    /// consecutive runs on the 2-core reference sandbox.
    Timing {
        /// The smallest ratio that still passes.
        margin: f64,
    },
    /// Printed with its numbers, never failing: a paper claim too close
    /// to call on a small host, or one this workspace is known not to
    /// reproduce (the deviations ledger in `EXPERIMENTS.md`).
    Observed,
}

/// One statement of the paper about a figure, checked against the
/// numbers just measured.
#[derive(Clone, Debug)]
pub struct Claim {
    /// What the paper says.
    pub text: &'static str,
    /// Whether it can fail a run.
    pub basis: Basis,
    /// Whether the numbers agree.
    pub holds: bool,
    /// The two numbers compared, at the instance closest to failing.
    pub detail: String,
}

impl Claim {
    /// True when the claim is enforced and the numbers disagree — the
    /// one definition `reproduce` and the tier-1 suite share.
    pub fn failed(&self) -> bool {
        !self.holds && self.basis != Basis::Observed
    }

    /// `PASS`, `FAIL`, or what an [`Basis::Observed`] claim was seen to do.
    pub fn verdict(&self) -> &'static str {
        match (self.basis, self.holds) {
            (Basis::Observed, true) => "observed: holds",
            (Basis::Observed, false) => "observed: does not hold",
            (_, true) => "PASS",
            (_, false) => "FAIL",
        }
    }
}

/// A figure's table and what the paper says about it.
pub struct FigureOutput {
    /// The rows, as printed and written to `<id>.csv`.
    pub table: TextTable,
    /// The paper's claims, evaluated on those rows' typed values.
    pub claims: Vec<Claim>,
}

/// A compared number, to five significant digits.
fn num(v: f64) -> String {
    let magnitude = if v == 0.0 || !v.is_finite() { 0.0 } else { v.abs().log10().floor() };
    format!("{v:.*}", (4.0 - magnitude).clamp(0.0, 12.0) as usize)
}

/// A claim being fed: each is a family of "`a` is at least `b`"
/// comparisons, of which the tightest — the smallest `a / b` seen, and
/// where — decides it.
struct Pending {
    text: &'static str,
    basis: Basis,
    ratio: f64,
    at: String,
}

/// The claims of one figure, in the order they were declared. The
/// first is always the Eq. 1 contract over every cell the figure
/// touched; it is dropped if the figure touched none.
struct Claims(Vec<Pending>);

/// Index of a declared claim.
type ClaimId = usize;
const CONTRACT: ClaimId = 0;

impl Claims {
    fn new() -> Self {
        let mut claims = Self(Vec::new());
        claims.exact("every reconstruction stays within eps of the original (Eq. 1)");
        claims
    }

    fn declare(&mut self, text: &'static str, basis: Basis) -> ClaimId {
        self.0.push(Pending { text, basis, ratio: f64::INFINITY, at: String::new() });
        self.0.len() - 1
    }

    fn exact(&mut self, text: &'static str) -> ClaimId {
        self.declare(text, Basis::Deterministic)
    }

    fn timing(&mut self, text: &'static str, margin: f64) -> ClaimId {
        self.declare(text, Basis::Timing { margin })
    }

    fn observed(&mut self, text: &'static str) -> ClaimId {
        self.declare(text, Basis::Observed)
    }

    /// One comparison of claim `id`: it wants `a / b` ≥ 1 (≥ the margin
    /// of a [`Basis::Timing`]).
    fn see(&mut self, id: ClaimId, a: f64, b: f64, at: impl FnOnce() -> String) {
        let (claim, ratio) = (&mut self.0[id], a / b);
        if claim.at.is_empty() || ratio < claim.ratio || ratio.is_nan() {
            (claim.ratio, claim.at) = (ratio, format!("{}: {} vs {}", at(), num(a), num(b)));
        }
    }

    /// Two comparisons that only both hold when `a` and `b` agree to
    /// within the relative `tolerance`.
    fn see_equal(&mut self, id: ClaimId, a: f64, b: f64, tolerance: f64, at: impl Fn() -> String) {
        self.see(id, a * (1.0 + tolerance), b, &at);
        self.see(id, b * (1.0 + tolerance), a, &at);
    }

    /// Holds `err`, a value-range relative error, to the bound `eps`
    /// with `QualityReport::within_bound`'s hair of floating-point slack.
    fn see_contract(&mut self, eps: f64, err: f64, at: impl FnOnce() -> String) {
        self.see(CONTRACT, eps * (1.0 + 1e-9) + f64::EPSILON, err, at);
    }

    /// Closes the figure. A claim that saw nothing proves nothing and
    /// fails — except the contract of a figure that touched no cell.
    fn done(mut self, table: TextTable) -> Result<FigureOutput, CodecError> {
        if self.0[CONTRACT].at.is_empty() {
            self.0.remove(CONTRACT);
        }
        let claims = self.0.into_iter().map(|c| {
            let need = if let Basis::Timing { margin } = c.basis { margin } else { 1.0 };
            let detail = format!("tightest {:.3}x at {} (needs >= {need}x)", c.ratio, c.at);
            let holds = !c.at.is_empty() && c.ratio >= need;
            Claim { text: c.text, basis: c.basis, holds, detail }
        });
        Ok(FigureOutput { table, claims: claims.collect() })
    }
}

/// One reproducible table or figure.
pub struct Figure {
    /// Stable id: the CSV file name, and the argument `reproduce` takes.
    pub id: &'static str,
    /// Where it sits in the paper.
    pub anchor: &'static str,
    /// Table banner.
    pub title: &'static str,
    /// Measures (through the sweep) and judges.
    pub run: fn(&mut Sweep) -> Result<FigureOutput, CodecError>,
}

macro_rules! figures {
    ($(($run:ident, $anchor:literal, $title:literal),)*) => {
        &[$(Figure { id: stringify!($run), anchor: $anchor, title: $title, run: $run }),*]
    };
}

/// Every figure, in `reproduce all` order; a figure's id is its
/// function's name.
pub const FIGURES: &[Figure] = figures![
    (table3_cr_psnr, "Table III", "CR and PSNR (dB) for SZ3 / ZFP / SZx"),
    (fig01_lossless_vs_eblc, "Fig. 1", "Lossless vs EBLC compression ratios (EBLC at eps = 1e-2)"),
    (fig05_runtime_serial, "Fig. 5", "Serial comp+decomp runtime vs REL error bound (Xeon 9480)"),
    (fig07_energy_serial, "Fig. 7", "Serial EBLC energy (compress + decompress) by CPU/data/eps"),
    (fig08_cr_vs_energy, "Fig. 8", "CR vs total energy, S3D field (Xeon Max 9480)"),
    (fig09_psnr_vs_energy, "Fig. 9", "PSNR vs total energy, S3D field (Xeon Max 9480)"),
    (fig10_energy_openmp, "Fig. 10", "OpenMP-mode energy vs thread count (rel eps = 1e-3)"),
    (fig11_io_energy, "Fig. 11", "Post-compression write energy to the PFS (HDF5 vs NetCDF)"),
    (fig12_multinode, "Fig. 12", "Multi-node compress+write energy vs cores (NYX, HDF5, 1e-3)"),
    (fig13_scaling_size, "Fig. 13", "Energy vs inflated NYX size (8260M, rel eps = 1e-3)"),
    (readback_energy, "§VI-A", "Read-back energy: compressed read + decompress vs original read"),
    (storage_carbon, "§VII", "Storage device & embodied-carbon cuts at measured CRs (100 PB)"),
    (discussion_advisor, "§VII, Eqs. 3-5", "Benefit conditions (Eqs. 3-5) over the full sweep"),
    (campaign_dumps, "§I / §VII", "Campaign: 1000 dumps, 30 s compute between them (CESM, HDF5)"),
    (chunked_store, "beyond the paper", "Chunked store vs monolithic streams (NYX, eps 1e-3)"),
    (adaptive_store, "beyond the paper", "Fixed vs adaptive per-chunk chains (3-band field, 1e-3)"),
];

/// The platform of the single-platform serial figures: the Xeon Max 9480.
const SERIAL_CPU: CpuGeneration = CpuGeneration::SapphireRapids9480;
/// Margin of "SZx is cheaper than the next-cheapest codec" with the
/// five bounds of a data set added up, in runtime or energy (the same
/// ratio: one serial activity, one platform factor). A single tiny cell
/// is about a millisecond — too short to order codecs on a shared host
/// — so the per-ε form of the claim is only observed.
const SZX_CHEAPEST: f64 = 1.2;
/// Position of SZx in [`CompressorId::ALL`].
const SZX: usize = 4;

fn eps_label(eps: f64) -> String {
    format!("{eps:.0e}")
}

/// A preset codec's cell from the sweep, held to the ε contract.
fn cell(
    sweep: &mut Sweep,
    claims: &mut Claims,
    kind: DatasetKind,
    id: CompressorId,
    eps: f64,
    threads: u32,
) -> Result<Rc<WallCell>, CodecError> {
    let cell = sweep.cell(kind, &ChainSpec::preset(id), eps, threads)?;
    let at = || format!("{} {} @{} x{threads}", kind.name(), id.name(), eps_label(eps));
    claims.see_contract(eps, cell.quality.max_rel_error, at);
    Ok(cell)
}

/// The serial grid of one data set, `[codec in CompressorId::ALL][ε in
/// PAPER_EPSILONS]` — the cells Figs. 5, 7, 8, 9 and 11 all project.
type Grid = Vec<Vec<Rc<WallCell>>>;

fn serial_grid(
    sweep: &mut Sweep,
    claims: &mut Claims,
    kind: DatasetKind,
) -> Result<Grid, CodecError> {
    let mut row =
        |id| PAPER_EPSILONS.iter().map(|&eps| cell(sweep, claims, kind, id, eps, 1)).collect();
    CompressorId::ALL.into_iter().map(&mut row).collect()
}

/// Walks a grid with its labels: `(codec index, codec, ε index, ε, cell)`.
fn grid_cells(grid: &Grid) -> impl Iterator<Item = (usize, CompressorId, usize, f64, &WallCell)> {
    grid.iter().zip(CompressorId::ALL).enumerate().flat_map(|(c, (row, id))| {
        let cells = row.iter().zip(PAPER_EPSILONS).enumerate();
        cells.map(move |(e, (cell, eps))| (c, id, e, eps, cell.as_ref()))
    })
}

/// `value` of every grid cell, `[codec][ε]`.
fn grid_values(grid: &Grid, value: impl Fn(&WallCell) -> f64) -> Vec<Vec<f64>> {
    grid.iter().map(|row| row.iter().map(|cell| value(cell)).collect()).collect()
}

/// Feeds `summed` every other codec's cost over SZx's with the bounds
/// of one `[codec][ε]` cost grid added up, and `each`, if any, the same
/// at every single ε.
fn see_szx_cheapest(
    claims: &mut Claims,
    (summed, each): (ClaimId, Option<ClaimId>),
    cost: &[Vec<f64>],
    context: &str,
) {
    let sum = |c: usize| cost[c].iter().sum::<f64>();
    for (c, codec) in CompressorId::ALL.into_iter().enumerate().filter(|(c, _)| *c != SZX) {
        let at = |eps: &str| format!("{context} {} over SZx, {eps}", codec.name());
        claims.see(summed, sum(c), sum(SZX), || at("all eps"));
        for (e, eps) in PAPER_EPSILONS.into_iter().enumerate() {
            if let Some(each) = each {
                claims.see(each, cost[c][e], cost[SZX][e], || at(&eps_label(eps)));
            }
        }
    }
}

/// Feeds claim `id` each step of `values` over (`rising`) or under its
/// predecessor — monotonicity along one axis; `at` labels a step by
/// its index.
fn see_monotone(
    claims: &mut Claims,
    id: ClaimId,
    values: &[f64],
    rising: bool,
    at: impl Fn(usize) -> String,
) {
    for (i, pair) in values.windows(2).enumerate() {
        let (a, b) = if rising { (pair[1], pair[0]) } else { (pair[0], pair[1]) };
        claims.see(id, a, b, || at(i + 1));
    }
}

fn total_joules(cell: &WallCell, generation: CpuGeneration) -> f64 {
    cell.on(generation).total_joules().value()
}

fn table3_cr_psnr(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let cr_falls = claims.exact("CR falls as eps tightens, per data set and codec");
    let psnr_rises = claims.exact("PSNR rises as eps tightens, per data set and codec");
    let sz3_top =
        claims.exact("SZ3's CR is at least max(ZFP, SZx) at eps = 1e-1 on every data set");
    let data_order = claims
        .exact("NYX is the most and HACC the least compressible, for every codec and eps");
    let zfp_over_szx =
        claims.observed("ZFP's CR sits above SZx's (the paper's SZ3 >> ZFP >> SZx)");
    let codecs = [CompressorId::Sz3, CompressorId::Zfp, CompressorId::Szx];
    let datasets = [DatasetKind::Nyx, DatasetKind::Hacc, DatasetKind::S3d];
    let epsilons = [1e-1, 1e-3, 1e-5];
    let mut table = TextTable::new(&[
        "dataset", "REL", "SZ3_CR", "SZ3_PSNR", "ZFP_CR", "ZFP_PSNR", "SZx_CR", "SZx_PSNR",
    ]);
    // cr[data set][codec][ε], psnr likewise
    let (mut cr, mut psnr) = (vec![vec![Vec::new(); 3]; 3], vec![vec![Vec::new(); 3]; 3]);
    for (d, kind) in datasets.into_iter().enumerate() {
        for eps in epsilons {
            let mut row = vec![kind.name().to_string(), eps_label(eps)];
            for (c, id) in codecs.into_iter().enumerate() {
                let cell = cell(sweep, &mut claims, kind, id, eps, 1)?;
                row.extend([fx(cell.cr(), 2), fx(cell.quality.psnr_db, 2)]);
                cr[d][c].push(cell.cr());
                psnr[d][c].push(cell.quality.psnr_db);
            }
            table.row(row);
        }
    }
    for (d, kind) in datasets.into_iter().enumerate() {
        for (c, id) in codecs.into_iter().enumerate() {
            let name = format!("{} {}", kind.name(), id.name());
            let at = |e: usize| format!("{name} @{}", eps_label(epsilons[e]));
            see_monotone(&mut claims, cr_falls, &cr[d][c], false, at);
            see_monotone(&mut claims, psnr_rises, &psnr[d][c], true, at);
        }
        let others = cr[d][1][0].max(cr[d][2][0]);
        claims.see(sz3_top, cr[d][0][0], others, || format!("{} @1e-1", kind.name()));
        for (e, eps) in epsilons.into_iter().enumerate() {
            let at = || format!("{} @{}", kind.name(), eps_label(eps));
            claims.see(zfp_over_szx, cr[d][1][e], cr[d][2][e], at);
        }
    }
    for (c, id) in codecs.into_iter().enumerate() {
        for (e, eps) in epsilons.into_iter().enumerate() {
            // datasets = [NYX, HACC, S3D]: NYX above S3D above HACC.
            let at = |pair: &str| format!("{pair}, {} @{}", id.name(), eps_label(eps));
            claims.see(data_order, cr[0][c][e], cr[2][c][e], || at("NYX over S3D"));
            claims.see(data_order, cr[2][c][e], cr[1][c][e], || at("S3D over HACC"));
        }
    }
    claims.done(table)
}

fn fig01_lossless_vs_eblc(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let eblc_above =
        claims.exact("every EBLC ratio sits above every lossless ratio on the same data set");
    let mut table = TextTable::new(&["dataset", "compressor", "kind", "ratio"]);
    for kind in DatasetKind::FIG1 {
        let raw = sweep.dataset(kind).to_le_bytes();
        let element_size = if kind.is_f64() { 8 } else { 4 };
        let baselines: [(&str, &[ByteStageSpec]); 4] = [
            ("zstd", &[ByteStageSpec::Lz]),
            ("C-Blosc2", &[ByteStageSpec::Shuffle { element_size }, ByteStageSpec::Lz]),
            ("fpzip", &[ByteStageSpec::Fpzip { element_size }]),
            ("FPC", &[ByteStageSpec::Fpc { element_size }]),
        ];
        let mut best_lossless = (0.0, "");
        for (name, specs) in baselines {
            let packed = specs.iter().fold(raw.clone(), |b, &s| build_byte_stage(s).forward(&b));
            let ratio = raw.len() as f64 / packed.len() as f64;
            if ratio > best_lossless.0 {
                best_lossless = (ratio, name);
            }
            table.push(&[&kind.name(), &name, &"lossless", &fx(ratio, 2)]);
        }
        for id in [CompressorId::Sz2, CompressorId::Zfp] {
            let cr = cell(sweep, &mut claims, kind, id, 1e-2, 1)?.cr();
            let at = || format!("{} {} vs {}", kind.name(), id.name(), best_lossless.1);
            claims.see(eblc_above, cr, best_lossless.0, at);
            table.push(&[&kind.name(), &id.name(), &"EBLC", &fx(cr, 2)]);
        }
    }
    claims.done(table)
}

fn fig05_runtime_serial(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let szx_fastest = claims.timing(
        "SZx has the lowest comp+decomp runtime on every data set, its five bounds added up",
        SZX_CHEAPEST,
    );
    let at_each_eps =
        claims.observed("SZx also has the lowest runtime at every single (data set, eps)");
    let mut table =
        TextTable::new(&["dataset", "codec", "rel_eps", "compress_s", "decompress_s", "total_s"]);
    for kind in DatasetKind::TABLE2 {
        let grid = serial_grid(sweep, &mut claims, kind)?;
        for (_, id, _, eps, wall) in grid_cells(&grid) {
            let cell = wall.on(SERIAL_CPU);
            let (comp, decomp) = (cell.compress_seconds.value(), cell.decompress_seconds.value());
            table.push(&[
                &kind.name(), &id.name(), &eps_label(eps), &fx(comp, 4), &fx(decomp, 4),
                &fx(comp + decomp, 4),
            ]);
        }
        let total = grid_values(&grid, |w| w.compress_wall.mean() + w.decompress_wall.mean());
        see_szx_cheapest(&mut claims, (szx_fastest, Some(at_each_eps)), &total, kind.name());
    }
    claims.done(table)
}

/// Joules per second of serial codec wall time on `generation` — the
/// factor a serial [`WallCell`] is multiplied by.
fn serial_joules_per_wall_second(generation: CpuGeneration) -> f64 {
    energy_for_wall(&generation.profile(), Activity::serial_compute(), Seconds(1.0)).total().value()
}

fn fig07_energy_serial(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let szx_cheapest = claims.timing(
        "SZx has the lowest total energy on every (CPU, data set), its five bounds added up",
        SZX_CHEAPEST,
    );
    let projections = claims.exact(
        "the three platforms are projections of one measurement: every cell's energy ratio \
         between two platforms equals their profile ratio (to 1e-12)",
    );
    let mut table = TextTable::new(&[
        "cpu", "dataset", "codec", "rel_eps", "compress_J", "decompress_J", "total_J", "runs",
    ]);
    // Per data set: the grid, and its energies on the first platform.
    let reference = CpuGeneration::ALL[0];
    let mut grids = Vec::new();
    for kind in DatasetKind::TABLE2 {
        let grid = serial_grid(sweep, &mut claims, kind)?;
        let on_reference = grid_values(&grid, |w| total_joules(w, reference));
        grids.push((kind, grid, on_reference));
    }
    for generation in CpuGeneration::ALL {
        let cpu = generation.profile().name;
        let expected =
            serial_joules_per_wall_second(generation) / serial_joules_per_wall_second(reference);
        for (kind, grid, on_reference) in &grids {
            let mut total = vec![vec![0.0; PAPER_EPSILONS.len()]; grid.len()];
            for (c, id, e, eps, wall) in grid_cells(grid) {
                let cell = wall.on(generation);
                let (comp, decomp) = (cell.compress_joules.value(), cell.decompress_joules.value());
                total[c][e] = cell.total_joules().value();
                table.push(&[
                    &cpu, &kind.name(), &id.name(), &eps_label(eps), &fx(comp, 3), &fx(decomp, 3),
                    &fx(total[c][e], 3), &cell.runs,
                ]);
                let at = || format!("{cpu} {}, J ratio to the first platform", kind.name());
                let ratio = total[c][e] / on_reference[c][e];
                claims.see_equal(projections, ratio, expected, 1e-12, at);
            }
            let context = format!("{cpu} {}", kind.name());
            see_szx_cheapest(&mut claims, (szx_cheapest, None), &total, &context);
        }
    }
    claims.done(table)
}

fn fig08_cr_vs_energy(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let szx_cheapest = claims.timing(
        "SZx is the lowest-energy codec on the field, its five bounds added up",
        SZX_CHEAPEST,
    );
    let szx_low_cr =
        claims.exact("SZx pays in ratio: its CR sits below SZ3's and QoZ's at every eps");
    let interp_top =
        claims.exact("the interpolation codecs (SZ3/QoZ) reach the highest CR at every eps");
    let mut table = TextTable::new(&["codec", "rel_eps", "cr", "total_J"]);
    let grid = serial_grid(sweep, &mut claims, DatasetKind::S3d)?;
    let energy = grid_values(&grid, |w| total_joules(w, SERIAL_CPU));
    let cr = grid_values(&grid, WallCell::cr);
    for (c, id, e, eps, _) in grid_cells(&grid) {
        table.push(&[&id.name(), &eps_label(eps), &fx(cr[c][e], 2), &fx(energy[c][e], 3)]);
    }
    see_szx_cheapest(&mut claims, (szx_cheapest, None), &energy, "S3D");
    // CompressorId::ALL = [SZ2, SZ3, ZFP, QoZ, SZx].
    for (e, eps) in PAPER_EPSILONS.into_iter().enumerate() {
        let at = |what: &str| format!("{what} @{}", eps_label(eps));
        let (lower, upper) = (cr[1][e].min(cr[3][e]), cr[1][e].max(cr[3][e]));
        claims.see(szx_low_cr, lower, cr[SZX][e], || at("min(SZ3, QoZ) vs SZx"));
        let others = cr[0][e].max(cr[2][e]).max(cr[SZX][e]);
        claims.see(interp_top, upper, others, || at("max(SZ3, QoZ) vs the other three"));
    }
    claims.done(table)
}

fn fig09_psnr_vs_energy(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let psnr_rises = claims.exact("PSNR rises as eps tightens, for every codec");
    let qoz_above = claims
        .exact("QoZ, the quality-oriented codec, matches or beats SZ3's PSNR for eps <= 1e-2");
    let qoz_above_loose = claims.observed("QoZ also matches or beats SZ3's PSNR at eps = 1e-1");
    let mut table = TextTable::new(&["codec", "rel_eps", "psnr_db", "total_J"]);
    let grid = serial_grid(sweep, &mut claims, DatasetKind::S3d)?;
    let psnr = grid_values(&grid, |w| w.quality.psnr_db);
    for (c, id, e, eps, wall) in grid_cells(&grid) {
        let joules = fx(total_joules(wall, SERIAL_CPU), 3);
        table.push(&[&id.name(), &eps_label(eps), &fx(psnr[c][e], 2), &joules]);
    }
    for (row, id) in psnr.iter().zip(CompressorId::ALL) {
        let at = |e: usize| format!("{} @{}", id.name(), eps_label(PAPER_EPSILONS[e]));
        see_monotone(&mut claims, psnr_rises, row, true, at);
    }
    // CompressorId::ALL[1] = SZ3, [3] = QoZ.
    for (e, eps) in PAPER_EPSILONS.into_iter().enumerate() {
        let claim = if eps <= 1e-2 { qoz_above } else { qoz_above_loose };
        claims.see(claim, psnr[3][e], psnr[1][e], || format!("QoZ vs SZ3 @{}", eps_label(eps)));
    }
    claims.done(table)
}

/// Fig. 10. Faithfulness note (also in EXPERIMENTS.md): the paper
/// observes that the *official* OpenMP builds of SZ2 and ZFP do not
/// scale with thread count ("their parallel implementations may not be
/// properly using the available resources"). Our Rust ports parallelize
/// cleanly, so to reproduce the published artifact SZ2/ZFP are pinned
/// to one effective thread, mirroring the measured behaviour rather
/// than our codecs' capability.
fn fig10_energy_openmp(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let pinned_flat = claims.exact(
        "SZ2 and ZFP (pinned, like the paper's non-scaling OpenMP builds) read exactly the same \
         energy at every requested thread count",
    );
    let scaling = claims.observed(
        "SZ3, QoZ and SZx spend no more energy at the widest thread count than serially",
    );
    let mut table = TextTable::new(&[
        "cpu", "dataset", "codec", "threads", "compress_J", "decompress_J", "total_J",
    ]);
    for generation in CpuGeneration::ALL {
        let cpu = generation.profile().name;
        for kind in DatasetKind::TABLE2 {
            // The paper's own exclusions: OpenMP SZ2 handles neither 1-D
            // nor 4-D data; QoZ cannot compress 1-D data (§IV-C).
            let rank = sweep.dataset(kind).shape().rank();
            for id in CompressorId::ALL {
                if (id == CompressorId::Sz2 && (rank == 1 || rank == 4))
                    || (id == CompressorId::Qoz && rank == 1)
                {
                    continue;
                }
                let pinned = matches!(id, CompressorId::Sz2 | CompressorId::Zfp);
                let mut totals = Vec::new();
                for threads in PAPER_THREADS {
                    // Reproduce the non-scaling SZ2/ZFP OpenMP artifact.
                    let effective = if pinned { 1 } else { threads };
                    let wall = cell(sweep, &mut claims, kind, id, 1e-3, effective)?;
                    let cell = wall.on(generation);
                    let (comp, decomp) = (cell.compress_joules, cell.decompress_joules);
                    totals.push(cell.total_joules().value());
                    table.push(&[
                        &cpu, &kind.name(), &id.name(), &threads, &fx(comp.value(), 3),
                        &fx(decomp.value(), 3), &fx(cell.total_joules().value(), 3),
                    ]);
                }
                let at = |what: &str| format!("{cpu} {} {} {what}", kind.name(), id.name());
                if pinned {
                    for (t, threads) in totals.iter().zip(PAPER_THREADS) {
                        let at = || at(&format!("x{threads} vs x1"));
                        claims.see_equal(pinned_flat, *t, totals[0], 0.0, at);
                    }
                } else {
                    claims.see(scaling, totals[0], totals[totals.len() - 1], || at("x1 over x64"));
                }
            }
        }
    }
    claims.done(table)
}

fn fig11_io_energy(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let below_original =
        claims.exact("every compressed write costs less energy than writing the original");
    let hdf5_cheaper =
        claims.exact("HDF5 writes the same payload for less energy than NetCDF, row for row");
    let tighter_costs_more = claims.exact("write energy does not fall as eps tightens");
    let (runner, pfs) = (sweep.runner, PfsSim::testbed());
    let mut table = TextTable::new(&[
        "tool", "dataset", "codec", "rel_eps", "bytes", "io_J", "io_s", "bw_MBps",
    ]);
    // Write energy of every row, per tool, in row order.
    let mut joules: Vec<Vec<f64>> = Vec::new();
    for tool in IoToolKind::ALL {
        let mut rows = Vec::new();
        for kind in DatasetKind::TABLE2 {
            let mut write = |label: &str, codec: &str, eps: &str, payload: Vec<u8>| {
                let w = runner.measure_write(payload, label, tool, &pfs, SERIAL_CPU, 1);
                table.push(&[
                    &tool.name(), &kind.name(), &codec, &eps, &w.bytes, &fx(w.joules.value(), 4),
                    &fx(w.seconds.value(), 4), &fx(w.bandwidth_bps / 1e6, 1),
                ]);
                rows.push(w.joules.value());
                w.joules.value()
            };
            let original = write("original", "Original", "-", sweep.dataset(kind).to_le_bytes());
            let grid = serial_grid(sweep, &mut claims, kind)?;
            let mut looser = f64::NAN;
            for (_, id, e, eps, wall) in grid_cells(&grid) {
                let eps = eps_label(eps);
                let compressed = write("compressed", id.name(), &eps, wall.stream.clone());
                let at = || format!("{} {} {} @{eps}", tool.name(), kind.name(), id.name());
                claims.see(below_original, original, compressed, at);
                if e > 0 {
                    claims.see(tighter_costs_more, compressed, looser, at);
                }
                looser = compressed;
            }
        }
        joules.push(rows);
    }
    // IoToolKind::ALL = [HDF5, NetCDF]: the same payloads, row for row.
    for (row, (hdf5, netcdf)) in joules[0].iter().zip(&joules[1]).enumerate() {
        claims.see(hdf5_cheaper, *netcdf, *hdf5, || format!("NetCDF over HDF5, row {row}"));
    }
    claims.done(table)
}

fn fig12_multinode(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let knee = claims.exact(
        "the Original write energy jumps super-linearly from 256 to 512 cores: at least 6x where \
         a fair share gives 4x (the PFS contention knee)",
    );
    let beats_at_512 = claims
        .timing("at 512 cores compress+write beats writing the original, for every codec", 3.0);
    let data = sweep.dataset(DatasetKind::Nyx);
    // Size the PFS relative to the (scaled-down) per-rank data so the
    // paper's compute/IO balance is preserved: on the real testbed a
    // 537 MB NYX rank-copy against shared Lustre gives write times of
    // the same order as compression times at high core counts. 400 B/s
    // of aggregate bandwidth per payload byte reproduces that ratio at
    // any EBLCIO_SCALE.
    let pfs = PfsSim::new(64, (data.nbytes() as f64 * 400.0 / 64.0) / 1e9);
    let (tool, bound) = (IoToolKind::Hdf5Lite, ErrorBound::Relative(1e-3));
    // The paper's Fig. 12 omits SZx; it sweeps SZ2/SZ3/ZFP/QoZ.
    let codecs = [CompressorId::Sz2, CompressorId::Sz3, CompressorId::Zfp, CompressorId::Qoz];
    let mut table =
        TextTable::new(&["cores", "codec", "compress_J", "write_J", "total_J", "bytes_written"]);
    let mut original_at_256 = f64::NAN;
    for spec in ClusterSpec::fig12_sweep() {
        let orig = run_write_original(&spec, &data, tool, &pfs);
        let original = orig.write.joules.value();
        for id in codecs {
            let codec = ChainSpec::preset(id).build()?;
            let r = run_compress_and_write(&spec, &data, &codec, bound, tool, &pfs)?;
            let (comp, write) = (r.compression.joules.value(), r.write.joules.value());
            if r.cores == 512 {
                let at = || format!("Original over {}", id.name());
                claims.see(beats_at_512, original, comp + write, at);
            }
            let total = fx(comp + write, 2);
            let bytes = r.total_bytes_written;
            table.push(&[&r.cores, &id.name(), &fx(comp, 2), &fx(write, 2), &total, &bytes]);
        }
        let (joules, bytes) = (fx(original, 2), orig.total_bytes_written);
        table.push(&[&orig.cores, &"Original", &"0.00", &joules, &joules, &bytes]);
        match orig.cores {
            256 => original_at_256 = original,
            // On a fair share twice the nodes each write twice as long,
            // 4x; the contention knee has to show well clear of that.
            512 => claims.see(knee, original, 6.0 * original_at_256, || "@512 vs 6 x @256".into()),
            _ => {}
        }
    }
    claims.done(table)
}

fn fig13_scaling_size(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let grows =
        claims.timing("energy grows with the data size, for every codec and inflation step", 1.2);
    let flat = claims.timing(
        "per-codec compression throughput stays within 3x from x2 up (energy is roughly linear \
         in bytes; the x1 cells are too short to time)",
        0.33,
    );
    // Inflation grows memory and time cubically: start from the tiny
    // base unless the paper dimensions were asked for, and stop at x3
    // at the smoke-test scale.
    let (base_scale, max_inflation) = match sweep.scale {
        Scale::Tiny => (Scale::Tiny, 3),
        Scale::Small => (Scale::Tiny, 5),
        Scale::Paper => (Scale::Paper, 5),
    };
    let base = DatasetSpec::new(DatasetKind::Nyx, base_scale).generate();
    let mut table = TextTable::new(&[
        "inflation", "size_MB", "codec", "compress_J", "decompress_J", "total_J", "throughput_MBps",
    ]);
    // Per codec: the energy and the throughput at each size.
    let mut energy = vec![Vec::new(); CompressorId::ALL.len()];
    let mut throughput = vec![Vec::new(); CompressorId::ALL.len()];
    for k in 1..=max_inflation {
        let inflated = Dataset::F32(inflate(base.as_f32(), k));
        let (label, mb) = (format!("NYX x{k}"), inflated.nbytes() as f64 / 1e6);
        for (c, id) in CompressorId::ALL.into_iter().enumerate() {
            let wall = sweep.cell_of(&label, &inflated, &ChainSpec::preset(id), 1e-3, 1)?;
            let at = || format!("{label} {}", id.name());
            claims.see_contract(1e-3, wall.quality.max_rel_error, at);
            let cell = wall.on(CpuGeneration::CascadeLake8260M);
            let (comp, decomp) = (cell.compress_joules.value(), cell.decompress_joules.value());
            let thr = mb / cell.compress_seconds.value().max(1e-12);
            energy[c].push(comp + decomp);
            throughput[c].push(thr);
            table.push(&[
                &format!("x{k}"), &fx(mb, 1), &id.name(), &fx(comp, 3), &fx(decomp, 3),
                &fx(comp + decomp, 3), &fx(thr, 1),
            ]);
        }
    }
    for (c, id) in CompressorId::ALL.into_iter().enumerate() {
        let at = |k: usize| format!("{} x{} over x{k}", id.name(), k + 1);
        see_monotone(&mut claims, grows, &energy[c], true, at);
        let slowest = throughput[c][1..].iter().copied().fold(f64::INFINITY, f64::min);
        let fastest = throughput[c][1..].iter().copied().fold(0.0, f64::max);
        claims.see(flat, slowest, fastest, || format!("{} slowest over fastest MB/s", id.name()));
    }
    claims.done(table)
}

fn readback_energy(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let read_below = claims
        .exact("reading a compressed stream costs less I/O energy than reading the original");
    let total_below = claims.timing(
        "on a contended PFS, read + decompress still beats reading the original (the \"doubly \
         effective\" benefit)",
        1.0,
    );
    let profile = SERIAL_CPU.profile();
    // A busy shared PFS slice, where reads are expensive enough for the
    // trade-off to bite.
    let pfs = PfsSim::new(2, 0.05);
    let read_joules = |label: &str, payload: Vec<u8>| {
        let obj = DataObject::opaque(label, payload);
        let req = IoToolKind::Hdf5Lite.io_request(std::slice::from_ref(&obj));
        pfs.read_concurrent(&req, 1, &profile).cpu_energy.value()
    };
    let mut table = TextTable::new(&[
        "dataset", "codec", "rel_eps", "read_J", "decompress_J", "total_J", "vs_original",
    ]);
    for kind in [DatasetKind::Nyx, DatasetKind::Cesm] {
        let original = read_joules("original", sweep.dataset(kind).to_le_bytes());
        let joules = fx(original, 4);
        table.push(&[&kind.name(), &"Original", &"-", &joules, &"0.0000", &joules, &"1.00x"]);
        for id in [CompressorId::Sz3, CompressorId::Szx] {
            for eps in [1e-2, 1e-4] {
                let wall = cell(sweep, &mut claims, kind, id, eps, 1)?;
                let read = read_joules("compressed", wall.stream.clone());
                let decompress = wall.on(SERIAL_CPU).decompress_joules.value();
                let at = || format!("{} {} @{}", kind.name(), id.name(), eps_label(eps));
                claims.see(read_below, original, read, at);
                claims.see(total_below, original, read + decompress, at);
                table.push(&[
                    &kind.name(), &id.name(), &eps_label(eps), &fx(read, 4), &fx(decompress, 4),
                    &fx(read + decompress, 4), &format!("{:.2}x", original / (read + decompress)),
                ]);
            }
        }
    }
    claims.done(table)
}

fn storage_carbon(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let tracks_cr = claims.exact(
        "the device-count reduction tracks the CR: never above it, short of it by less than one \
         whole device",
    );
    let ssd_band = claims.exact(
        "at CR >= 10 an SSD rack's embodied emissions fall by 70% or more, bounded by the \
         devices' 80% share",
    );
    // A 100 PB archive on 16 TB devices.
    let ssd = StorageFleet { capacity_bytes: 100e15, device_bytes: 16e12, media: MediaClass::Ssd };
    let hdd = StorageFleet { media: MediaClass::Hdd, ..ssd };
    let mut table = TextTable::new(&[
        "dataset", "codec", "rel_eps", "cr", "device_reduction", "ssd_embodied_cut",
        "hdd_embodied_cut",
    ]);
    for kind in [DatasetKind::Nyx, DatasetKind::S3d] {
        for id in [CompressorId::Sz3, CompressorId::Zfp, CompressorId::Szx] {
            for eps in [1e-1, 1e-3, 1e-5] {
                let cr = cell(sweep, &mut claims, kind, id, eps, 1)?.cr().max(1.0);
                let reduction = ssd.device_reduction(cr);
                let ssd_cut = ssd.embodied_emission_reduction(cr);
                let at = || format!("{} {} @{}", kind.name(), id.name(), eps_label(eps));
                // Whole devices round up: never above the CR, and short
                // of it by less than one device of the compressed fleet.
                claims.see(tracks_cr, cr * (1.0 + 1e-12), reduction, at);
                let floor = cr * (1.0 - 1.0 / ssd.devices_compressed(cr));
                claims.see(tracks_cr, reduction, floor, at);
                if cr >= 10.0 {
                    claims.see(ssd_band, ssd_cut, 0.70, at);
                    claims.see(ssd_band, MediaClass::Ssd.device_emission_fraction(), ssd_cut, at);
                }
                table.push(&[
                    &kind.name(), &id.name(), &eps_label(eps), &fx(cr, 1),
                    &format!("{reduction:.1}x"), &format!("{:.1}%", 100.0 * ssd_cut),
                    &format!("{:.1}%", 100.0 * hdd.embodied_emission_reduction(cr)),
                ]);
            }
        }
    }
    claims.done(table)
}

/// How many cells decide `Compress` when Eqs. 3–5 do not all hold or
/// the reverse, how many decide `Compress` at all, and how much room
/// the best quality-passing cell leaves on Eqs. 3–4: the smaller of its
/// time and energy ratios (original write over compress + write).
fn advisor_verdicts(cells: &[Recommendation]) -> (usize, usize, f64) {
    let (mut inconsistent, mut compress, mut room) = (0, 0, 0.0f64);
    for c in cells {
        let (v, i) = (c.inputs.evaluate(), &c.inputs);
        let all_hold = v.time_ok && v.energy_ok && v.quality_ok;
        inconsistent += usize::from((c.decision == Decision::Compress) != all_hold);
        compress += usize::from(c.decision == Decision::Compress);
        if v.quality_ok {
            let time = (i.compress_time + i.write_time_compressed).value();
            let energy = (i.compress_energy + i.write_energy_compressed).value();
            let time_room = i.write_time_original.value() / time;
            room = room.max(time_room.min(i.write_energy_original.value() / energy));
        }
    }
    (inconsistent, compress, room)
}

fn discussion_advisor(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let iff = claims.exact(
        "the decision is Compress exactly when Eqs. 3, 4 and 5 all hold, on every cell of both \
         PFS shares",
    );
    let starved_room = claims.timing(
        "on a starved PFS share every data set has a configuration that satisfies Eqs. 3-5, with \
         room on both time and energy",
        2.0,
    );
    // Timing noise can only slow a compression down, which moves this
    // claim further from failing.
    let fast_room = claims.timing(
        "on the testbed's fast share no configuration satisfies Eqs. 3-4 (the paper's \"maybe \
         don't compress\" regime)",
        1.2,
    );
    let generation = CpuGeneration::Skylake8160;
    // A heavily shared PFS slice per writer — the regime where the
    // paper's Eq. 4 strict condition starts holding (cf. Fig. 12 @ 512)
    // — and, beside it, the testbed's fast share.
    let (starved, fast) = (PfsSim::new(1, 0.01), PfsSim::testbed());
    let advisor = Advisor::paper_sweep(50.0);
    let mut table = TextTable::new(&[
        "dataset", "codec", "rel_eps", "cr", "psnr_db", "time_ok", "energy_ok", "quality_ok",
        "decision", "saving_J",
    ]);
    for kind in DatasetKind::TABLE2 {
        let data = sweep.dataset(kind);
        let mut judge = |pfs: &PfsSim| {
            advisor.evaluate_cells(&data, IoToolKind::Hdf5Lite, pfs, generation, |chain, eps| {
                let cell = sweep.cell(kind, chain, eps, 1)?;
                let at = || format!("{} {} @{}", kind.name(), chain.label(), eps_label(eps));
                claims.see_contract(eps, cell.quality.max_rel_error, at);
                Ok(cell.on(generation))
            })
        };
        let (cells, on_fast) = (judge(&starved)?, judge(&fast)?);
        let (odd, compress, room) = advisor_verdicts(&cells);
        let (odd_fast, compress_fast, room_fast) = advisor_verdicts(&on_fast);
        let (judged, name) = (2 * cells.len(), kind.name());
        let at = || format!("{name}, cells where decision and Eqs. 3-5 agree");
        claims.see_equal(iff, (judged - odd - odd_fast) as f64, judged as f64, 0.0, at);
        let at = || format!("{name} best of {compress}/{} Compress, starved share", cells.len());
        claims.see(starved_room, room, 1.0, at);
        let at = || format!("{name} best cell ({compress_fast} Compress), fast share");
        claims.see(fast_room, 1.0, room_fast, at);
        for c in &cells {
            let v = c.inputs.evaluate();
            table.push(&[
                &kind.name(), &c.chain.label(), &eps_label(c.epsilon), &fx(c.cr, 1),
                &fx(c.psnr_db, 1), &v.time_ok, &v.energy_ok, &v.quality_ok,
                &format!("{:?}", c.decision), &fx(c.energy_saving(), 2),
            ]);
        }
    }
    claims.done(table)
}

fn campaign_dumps(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let bytes_by_cr = claims.exact("a compressed campaign ships fewer bytes by exactly the CR");
    let pays_off = claims.timing(
        "every compressed dump already costs less energy than the original dump, so the campaign \
         breaks even at step 1",
        1.5,
    );
    let (runner, generation, kind) = (sweep.runner, CpuGeneration::Skylake8160, DatasetKind::Cesm);
    // A contended PFS share, as seen by one job of many.
    let pfs = PfsSim::new(1, 0.01);
    let campaign = Campaign { steps: 1000, compute_seconds: Seconds(30.0) };
    let write = |label, payload| {
        runner.measure_write(payload, label, IoToolKind::Hdf5Lite, &pfs, generation, 1)
    };
    let original = DumpCost::original(write("orig", sweep.dataset(kind).to_le_bytes()));
    let mut table = TextTable::new(&[
        "strategy", "dump_J", "campaign_dump_J", "wall_h", "io_frac", "bytes_written", "break_even",
    ]);
    // Appends one strategy's row; returns the bytes its campaign ships.
    let mut row = |strategy: &str, dump: &DumpCost, break_even: &str| {
        let totals = campaign.run(dump, &generation.profile());
        table.push(&[
            &strategy, &fx(dump.joules().value(), 2), &eng(totals.dump_joules.value()),
            &fx(totals.wall.value() / 3600.0, 2), &fx(totals.io_fraction, 3),
            &eng(totals.bytes_written as f64), &break_even,
        ]);
        totals.bytes_written as f64
    };
    let original_bytes = row("Original", &original, "-");
    for id in [CompressorId::Sz3, CompressorId::Szx] {
        let wall = cell(sweep, &mut claims, kind, id, 1e-3, 1)?;
        let cell = wall.on(generation);
        let dump = DumpCost {
            compress_seconds: cell.compress_seconds,
            compress_joules: cell.compress_joules,
            write: write("comp", cell.stream),
        };
        let break_even = Campaign::break_even_steps(&dump, &original);
        let at = |what: &str| format!("{} {what}", id.name());
        let (ours, theirs) = (dump.joules().value(), original.joules().value());
        claims.see(pays_off, theirs, ours, || at("Original over compressed dump energy"));
        let label = break_even.map_or("never".into(), |n| format!("step {n}"));
        let cut = original_bytes / row(&format!("{} @1e-3", id.name()), &dump, &label);
        claims.see_equal(bytes_by_cr, cut, wall.cr(), 1e-12, || at("bytes cut vs CR"));
    }
    claims.done(table)
}

/// HDF5-lite data-path efficiency (the store writes HDF5-style).
const STORE_EFFICIENCY: f64 = 0.92;
/// Worker threads for chunked compression/decompression.
const STORE_THREADS: usize = 8;
const STORE_EPS: f64 = 1e-3;

/// Chunked-store study (extension beyond the paper, Fig. 13 style):
/// monolithic single-stream compression + byte-striped write vs the
/// `eblcio_store` chunked container, per codec. Three phases are costed
/// for both layouts on a NYX-like cube: **compress** (the monolithic
/// side is the sweep's serial cell; chunked runs on the shared rayon
/// pool), **write** (monolithic streams byte-stripe across all OSTs,
/// chunked stores place whole chunks round-robin) and **region read**
/// (the monolithic layout must read + decompress *everything*, the
/// chunked layout touches only the intersecting chunks).
fn chunked_store(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let subset = claims.exact("a region read decodes a strict subset of the store's chunks");
    let chunked_cheaper = claims.observed(
        "the chunked region read costs less energy than the monolithic read-everything path, for \
         every codec",
    );
    let (profile, pfs) = (SERIAL_CPU.profile(), PfsSim::testbed());
    let data = sweep.dataset(DatasetKind::Nyx);
    let arr = data.as_f32();
    let dims = arr.shape().dims().to_vec();
    // Chunk grid: split every axis in four (64 chunks), clamped by the
    // grid for tiny scales.
    let chunk_shape = Shape::new(&dims.iter().map(|&d| d.div_ceil(4).max(1)).collect::<Vec<_>>());
    // Analysis region: an interior sub-cube one-quarter along each axis.
    let region = Region::new(
        &dims.iter().map(|&d| d / 8).collect::<Vec<_>>(),
        &dims.iter().map(|&d| (d / 4).max(1)).collect::<Vec<_>>(),
    );
    // The store resolves eps once, against the whole array's range.
    let (wanted, range) = (gather(arr, &region), arr.value_range());
    let mut table = TextTable::new(&[
        "codec", "layout", "bytes", "comp_s", "comp_J", "write_J", "region_read_J", "region_read_s",
        "chunks_read",
    ]);
    for id in CompressorId::ALL {
        // ---- Monolithic: one stream, byte-striped across the OSTs. A
        // region read reads and decodes all of it before slicing.
        let wall = cell(sweep, &mut claims, DatasetKind::Nyx, id, STORE_EPS, 1)?;
        let cell = wall.on(SERIAL_CPU);
        let whole = IoRequest {
            payload_bytes: wall.stream.len() as u64,
            meta_bytes: 0,
            ops: 1,
            efficiency: STORE_EFFICIENCY,
        };
        let write = pfs.write(&whole, &profile);
        let read_io = pfs.read_concurrent(&whole, 1, &profile);
        let mono_read = read_io.cpu_energy.value() + cell.decompress_joules.value();
        table.push(&[
            &id.name(), &"monolithic", &wall.stream.len(), &fx(wall.compress_wall.mean(), 4),
            &fx(cell.compress_joules.value(), 3), &fx(write.cpu_energy.value(), 3),
            &fx(mono_read, 3), &fx(read_io.seconds.value() + wall.decompress_wall.mean(), 4),
            &"all",
        ]);

        // ---- Chunked store: whole chunks round-robined over OSTs.
        let codec = ChainSpec::preset(id).build()?;
        let bound = ErrorBound::Relative(STORE_EPS);
        let parallel = Activity::parallel_compute(STORE_THREADS as u32);
        let (stream, comp) = measure_compute(&profile, parallel, || {
            ChunkedStore::write(&codec, arr, bound, chunk_shape, STORE_THREADS)
        });
        let stream = stream?;
        let store = ChunkedStore::open(&stream)?;
        let write = write_store(&pfs, &store, STORE_EFFICIENCY, 1, &profile);
        let read_io = read_region_io(&pfs, &store, &region, STORE_EFFICIENCY, 1, &profile);
        let (read, read_cpu) = measure_compute(&profile, Activity::serial_compute(), || {
            store.read_region_with_stats::<f32>(&region)
        });
        let (got, stats) = read?;
        let at = |what: &str| format!("{} {what}", id.name());
        claims.see_contract(STORE_EPS, max_abs_error(&wanted, &got) / range, || at("region read"));
        let (decoded, total) = (stats.chunks_decoded, stats.chunks_total);
        claims.see(subset, total as f64, decoded as f64 + 1.0, || at("chunks vs decoded + 1"));
        let chunked_read = read_io.cpu_energy.value() + read_cpu.total().value();
        claims.see(chunked_cheaper, mono_read, chunked_read, || at("monolithic over chunked"));
        table.push(&[
            &id.name(), &"chunked", &stream.len(), &fx(comp.wall.value(), 4),
            &fx(comp.total().value(), 3), &fx(write.cpu_energy.value(), 3), &fx(chunked_read, 3),
            &fx(read_io.seconds.value() + read_cpu.wall.value(), 4), &format!("{decoded}/{total}"),
        ]);
    }
    claims.done(table)
}

/// Three-regime field: rows [0, n) smooth, [n, 2n) near-constant,
/// [2n, 3n) rough.
fn heterogeneous(scale: Scale) -> NdArray<f32> {
    let n = match scale {
        Scale::Tiny => 24,
        Scale::Small => 64,
        Scale::Paper => 192,
    };
    let mut x = 0x2545F4914F6CDD1Du64;
    NdArray::from_fn(Shape::d3(3 * n, n, n), |i| {
        let band = i[0] / n;
        match band {
            0 => {
                (i[0] as f32 * 0.11).sin() * 40.0
                    + (i[1] as f32 * 0.07).cos() * 25.0
                    + (i[2] as f32 * 0.05).sin() * 10.0
            }
            1 => 750.0 + ((i[0] + i[1] + i[2]) % 7) as f32 * 1e-4,
            _ => {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 100_000) as f32 / 50.0
            }
        }
    })
}

/// Fixed vs adaptive per-chunk chain selection (extension beyond the
/// paper, enabled by the chain refactor). A deliberately heterogeneous
/// field — a smooth interpolable band, a near-constant band, and a
/// rough high-entropy band stacked along dimension 0 — is written as a
/// chunked store with each of the five preset chains, then with
/// `ChunkedStore::write_adaptive` pricing four candidate chains per
/// chunk from sampled CR estimates. No fixed chain wins every band,
/// which is the whole argument for per-chunk selection.
fn adaptive_store(sweep: &mut Sweep) -> Result<FigureOutput, CodecError> {
    let mut claims = Claims::new();
    let within = claims.exact(
        "the adaptive store lands within 5% of the best fixed chain (or beats it), which nobody \
         had to know in advance",
    );
    let mixes = claims.exact("per-chunk selection mixes at least two chains in one store");
    let data = heterogeneous(sweep.scale);
    let shape = data.shape();
    // One chunk per band-third along dim 0, quartered across the rest.
    let quarter = |d: usize| shape.dim(d).div_ceil(2).max(1);
    let chunk_shape = Shape::new(&[shape.dim(0) / 6, quarter(1), quarter(2)]);
    let bound = ErrorBound::Relative(STORE_EPS);
    let mut table = TextTable::new(&["mode", "chains", "bytes", "CR", "write_s", "chunks"]);
    // Times one store write and appends its row.
    let mut written = |mode: &str, chains: &str, write: &dyn Fn() -> Result<Vec<u8>, CodecError>| {
        let t0 = Instant::now();
        let stream = write()?;
        let dt = t0.elapsed().as_secs_f64();
        let store = ChunkedStore::open(&stream)?;
        let cr = data.nbytes() as f64 / stream.len() as f64;
        table.push(&[&mode, &chains, &stream.len(), &fx(cr, 2), &fx(dt, 3), &store.n_chunks()]);
        Ok::<_, CodecError>((stream.len(), store))
    };
    let mut best_fixed = (usize::MAX, "");
    for id in CompressorId::ALL {
        let codec = ChainSpec::preset(id).build()?;
        let write = || ChunkedStore::write(&codec, &data, bound, chunk_shape, STORE_THREADS);
        best_fixed = best_fixed.min((written("fixed", id.name(), &write)?.0, id.name()));
    }
    let candidates = [
        ChainSpec::preset(CompressorId::Sz3),
        ChainSpec::preset(CompressorId::Szx),
        ChainSpec::preset(CompressorId::Sz2),
        ChainSpec { array: CompressorId::Szx, bytes: vec![ByteStageSpec::Lz] },
    ];
    let write =
        || ChunkedStore::write_adaptive(&candidates, &data, bound, chunk_shape, STORE_THREADS);
    let (bytes, store) = written("adaptive", &format!("{} candidates", candidates.len()), &write)?;

    // Selection histogram: which chain won how many chunks.
    let mut hist: BTreeMap<String, usize> = BTreeMap::new();
    for i in 0..store.n_chunks() {
        *hist.entry(store.chunk_chain(i).label()).or_default() += 1;
    }
    let selection: Vec<String> = hist.iter().map(|(chain, n)| format!("{chain} x{n}")).collect();
    claims.see(mixes, hist.len() as f64, 2.0, || format!("chains in {}", selection.join(", ")));
    let err = max_rel_error(&data, &store.read_full::<f32>(STORE_THREADS)?);
    claims.see_contract(STORE_EPS, err, || "adaptive store, full read".into());
    let at = || format!("1.05 x best fixed ({}) over adaptive bytes", best_fixed.1);
    claims.see(within, 1.05 * best_fixed.0 as f64, bytes as f64, at);
    claims.done(table)
}
