//! The measurement sweep every figure of the reproduction reads from.
//!
//! The paper's tables and figures are projections of one grid — data
//! set × codec chain × ε × thread count — onto different axes and
//! platforms. [`Sweep`] owns that grid for one process: it generates
//! each data set once, times each cell once
//! ([`CampaignRunner::measure_wall`]) and hands every later request for
//! the same cell the memoized [`WallCell`], which
//! [`WallCell::on`](crate::campaign::WallCell::on) prices on any
//! platform. The memo keeps every generated data set and every
//! compressed stream alive, so at `Scale::Paper` run one figure at a
//! time.

use crate::campaign::{effective_threads, CampaignRunner, WallCell};
use eblcio_codec::{ChainSpec, CodecError, ErrorBound};
use eblcio_data::generators::Scale;
use eblcio_data::{Dataset, DatasetKind, DatasetSpec};
use std::collections::HashMap;
use std::rc::Rc;

/// The paper's relative error bounds (Figs. 5, 7–9, 11), loosest first.
pub const PAPER_EPSILONS: [f64; 5] = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5];

/// The thread counts of Fig. 10.
pub const PAPER_THREADS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Memo key: data set label, chain, ε bits, effective thread count.
type CellKey = (String, ChainSpec, u64, u32);

/// One process-wide measurement sweep (see the module docs).
pub struct Sweep {
    /// Size class of the generated data sets.
    pub scale: Scale,
    /// Repetition protocol of every cell.
    pub runner: CampaignRunner,
    datasets: HashMap<DatasetKind, Rc<Dataset>>,
    cells: HashMap<CellKey, Rc<WallCell>>,
    measured: u64,
    reused: u64,
}

impl Sweep {
    /// An empty sweep at `scale` under `runner`'s protocol.
    pub fn new(scale: Scale, runner: CampaignRunner) -> Self {
        Self {
            scale,
            runner,
            datasets: HashMap::new(),
            cells: HashMap::new(),
            measured: 0,
            reused: 0,
        }
    }

    /// The `kind` data set at the sweep's scale, generated on first use.
    pub fn dataset(&mut self, kind: DatasetKind) -> Rc<Dataset> {
        let scale = self.scale;
        self.datasets
            .entry(kind)
            .or_insert_with(|| Rc::new(DatasetSpec::new(kind, scale).generate()))
            .clone()
    }

    /// The cell of a generated data set: `chain` at relative bound
    /// `eps` on `threads` threads.
    pub fn cell(
        &mut self,
        kind: DatasetKind,
        chain: &ChainSpec,
        eps: f64,
        threads: u32,
    ) -> Result<Rc<WallCell>, CodecError> {
        let data = self.dataset(kind);
        self.cell_of(kind.name(), &data, chain, eps, threads)
    }

    /// [`cell`](Self::cell) for a data set the caller built (Fig. 13's
    /// inflated NYX); `label` names it in the memo. Thread counts that
    /// clamp to the same effective count on this host share a cell,
    /// whose `threads` is that effective count.
    pub fn cell_of(
        &mut self,
        label: &str,
        data: &Dataset,
        chain: &ChainSpec,
        eps: f64,
        threads: u32,
    ) -> Result<Rc<WallCell>, CodecError> {
        let threads = effective_threads(threads);
        let key = (label.to_string(), chain.clone(), eps.to_bits(), threads);
        if let Some(cell) = self.cells.get(&key) {
            self.reused += 1;
            return Ok(cell.clone());
        }
        let codec = chain.build()?;
        let cell =
            Rc::new(self.runner.measure_wall(data, &codec, ErrorBound::Relative(eps), threads)?);
        self.measured += 1;
        self.cells.insert(key, cell.clone());
        Ok(cell)
    }

    /// Cells timed so far.
    pub fn measured(&self) -> u64 {
        self.measured
    }

    /// Requests answered from the memo so far.
    pub fn reused(&self) -> u64 {
        self.reused
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_energy::CpuGeneration;

    fn one_run() -> CampaignRunner {
        CampaignRunner { min_runs: 1, max_runs: 1, ci_tol: 1.0 }
    }

    #[test]
    fn sweep_defaults_match_paper() {
        assert_eq!(PAPER_EPSILONS, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]);
        assert_eq!(PAPER_THREADS, [1, 2, 4, 8, 16, 32, 64]);
    }

    /// One cell, asked for twice and priced on two platforms, is
    /// compressed once: a pilot run plus the timed repetitions.
    /// `shuffle2` appears in no other test of this binary, so its encode
    /// clock counts only this sweep.
    #[test]
    fn a_cell_is_timed_once_however_often_it_is_asked_for() {
        let chain = ChainSpec::parse("szx+shuffle2").unwrap();
        let clock = eblcio_obs::global().histogram("eblcio_codec_shuffle2_encode_ns");
        let before = clock.count();
        let mut sweep = Sweep::new(Scale::Tiny, one_run());
        let first = sweep.cell(DatasetKind::Nyx, &chain, 1e-3, 1).unwrap();
        let encodes = clock.count() - before;
        assert_eq!(encodes, 1 + first.compress_wall.count());
        assert_eq!((sweep.measured(), sweep.reused()), (1, 0));

        let again = sweep.cell(DatasetKind::Nyx, &chain, 1e-3, 1).unwrap();
        assert!(Rc::ptr_eq(&first, &again));
        let a = again.on(CpuGeneration::Skylake8160);
        let b = again.on(CpuGeneration::CascadeLake8260M);
        assert_eq!(a.compressed_bytes, b.compressed_bytes);
        assert!(a.compress_joules.value() < b.compress_joules.value());
        assert_eq!(clock.count() - before, encodes);
        assert_eq!((sweep.measured(), sweep.reused()), (1, 1));

        // Another bound, chain or data set is another cell.
        let tighter = sweep.cell(DatasetKind::Nyx, &chain, 1e-4, 1).unwrap();
        assert!(!Rc::ptr_eq(&first, &tighter));
        assert_eq!(clock.count() - before, 2 * encodes);
        assert_eq!((sweep.measured(), sweep.reused()), (2, 1));
    }

    #[test]
    fn thread_counts_that_clamp_together_share_a_cell() {
        let host = effective_threads(u32::MAX);
        let chain = ChainSpec::preset(eblcio_codec::CompressorId::Szx);
        let mut sweep = Sweep::new(Scale::Tiny, one_run());
        let at_host = sweep.cell(DatasetKind::Cesm, &chain, 1e-2, host).unwrap();
        let beyond = sweep.cell(DatasetKind::Cesm, &chain, 1e-2, host + 7).unwrap();
        assert!(Rc::ptr_eq(&at_host, &beyond));
        assert_eq!(beyond.threads, host);
        assert_eq!((sweep.measured(), sweep.reused()), (1, 1));
        if host > 1 {
            let serial = sweep.cell(DatasetKind::Cesm, &chain, 1e-2, 1).unwrap();
            assert!(!Rc::ptr_eq(&serial, &at_host));
            assert_eq!(sweep.measured(), 2);
        }
    }

    #[test]
    fn a_callers_data_set_is_keyed_by_its_label() {
        let chain = ChainSpec::preset(eblcio_codec::CompressorId::Szx);
        let mut sweep = Sweep::new(Scale::Tiny, one_run());
        let data = sweep.dataset(DatasetKind::Hacc);
        let a = sweep.cell_of("HACC copy", &data, &chain, 1e-3, 1).unwrap();
        let b = sweep.cell_of("HACC copy", &data, &chain, 1e-3, 1).unwrap();
        let own = sweep.cell(DatasetKind::Hacc, &chain, 1e-3, 1).unwrap();
        assert!(Rc::ptr_eq(&a, &b) && !Rc::ptr_eq(&a, &own));
        assert_eq!(a.stream, own.stream);
        assert!(own.quality.within_bound(1e-3));
    }
}
