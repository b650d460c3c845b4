//! The "to compress or not to compress" advisor (§VII's actionable
//! takeaway, built on §III).
//!
//! Given a data set, an I/O tool, a PFS, a platform, and a quality floor,
//! the advisor sweeps codec chains × error bounds, evaluates Eqs. 3–5
//! for each cell, and recommends the best beneficial configuration
//! (maximum energy saving by default). Since the chain refactor the
//! sweep space is open: the paper's five presets by default, any
//! [`ChainSpec`] (custom lossless backends, stacked filters) on demand.

use crate::campaign::{CampaignRunner, MeasuredCell, WriteCost};
use crate::conditions::{BenefitInputs, Decision};
use eblcio_codec::{ChainSpec, CodecError, ErrorBound};
use eblcio_data::Dataset;
use eblcio_energy::CpuGeneration;
use eblcio_pfs::{IoToolKind, PfsSim};
use serde::Serialize;

/// One evaluated configuration.
#[derive(Clone, Debug, Serialize)]
pub struct Recommendation {
    /// Codec chain.
    pub chain: ChainSpec,
    /// Value-range relative bound ε.
    pub epsilon: f64,
    /// Achieved compression ratio.
    pub cr: f64,
    /// Achieved PSNR (dB).
    pub psnr_db: f64,
    /// Eq. 3–5 inputs for transparency.
    pub inputs: BenefitInputs,
    /// The decision for this cell.
    pub decision: Decision,
}

impl Recommendation {
    /// Net energy saving of this configuration.
    pub fn energy_saving(&self) -> f64 {
        self.inputs.energy_saving().value()
    }
}

/// Advisor configuration.
#[derive(Clone, Debug)]
pub struct Advisor {
    /// Codec chains to consider.
    pub chains: Vec<ChainSpec>,
    /// Relative bounds to sweep (paper: 1e-5…1e-1).
    pub epsilons: Vec<f64>,
    /// Application quality floor (Eq. 5's PSNR_min).
    pub psnr_min_db: f64,
    /// Concurrent writers assumed for the write phases.
    pub writers: u32,
    /// Measurement protocol.
    pub runner: CampaignRunner,
}

impl Advisor {
    /// The paper's sweep: all five preset chains × ε ∈ {1e-1 … 1e-5}.
    pub fn paper_sweep(psnr_min_db: f64) -> Self {
        Self {
            chains: ChainSpec::presets(),
            epsilons: crate::experiment::PAPER_EPSILONS.to_vec(),
            psnr_min_db,
            writers: 1,
            runner: CampaignRunner::quick(),
        }
    }

    /// Evaluates every configuration, returning all cells (sorted by
    /// energy saving, best first).
    pub fn evaluate_all(
        &self,
        data: &Dataset,
        tool: IoToolKind,
        pfs: &PfsSim,
        generation: CpuGeneration,
    ) -> Result<Vec<Recommendation>, CodecError> {
        self.evaluate_cells(data, tool, pfs, generation, |chain, eps| {
            let codec = chain.build()?;
            self.runner.measure_cell(data, &codec, ErrorBound::Relative(eps), generation, 1)
        })
    }

    /// [`evaluate_all`](Self::evaluate_all) over cells the caller
    /// supplies — `cell(chain, ε)` is the serial cell of `data` priced
    /// on `generation` — so a sweep that already timed them is judged,
    /// not re-timed.
    pub fn evaluate_cells(
        &self,
        data: &Dataset,
        tool: IoToolKind,
        pfs: &PfsSim,
        generation: CpuGeneration,
        mut cell: impl FnMut(&ChainSpec, f64) -> Result<MeasuredCell, CodecError>,
    ) -> Result<Vec<Recommendation>, CodecError> {
        let write_cost = |payload: Vec<u8>, label: &str| {
            self.runner.measure_write(payload, label, tool, pfs, generation, self.writers)
        };
        // Baseline: writing the original data.
        let baseline = write_cost(data.to_le_bytes(), "original");
        let mut out = Vec::new();
        for chain in &self.chains {
            for &eps in &self.epsilons {
                let cell = cell(chain, eps)?;
                let write = write_cost(cell.stream.clone(), "compressed");
                out.push(self.judge(chain, eps, &cell, &write, &baseline));
            }
        }
        out.sort_by(|a, b| b.energy_saving().total_cmp(&a.energy_saving()));
        Ok(out)
    }

    /// Eqs. 3–5 for one measured cell, its write phase and the
    /// uncompressed baseline write. Pure: nothing is timed here.
    pub fn judge(
        &self,
        chain: &ChainSpec,
        epsilon: f64,
        cell: &MeasuredCell,
        write: &WriteCost,
        baseline: &WriteCost,
    ) -> Recommendation {
        let inputs = BenefitInputs {
            compress_time: cell.compress_seconds,
            write_time_compressed: write.seconds,
            write_time_original: baseline.seconds,
            compress_energy: cell.compress_joules,
            write_energy_compressed: write.joules,
            write_energy_original: baseline.joules,
            psnr_db: cell.quality.psnr_db,
            psnr_min_db: self.psnr_min_db,
        };
        Recommendation {
            chain: chain.clone(),
            epsilon,
            cr: cell.cr(),
            psnr_db: cell.quality.psnr_db,
            decision: inputs.evaluate().decision(),
            inputs,
        }
    }

    /// The best beneficial configuration, if any exists.
    pub fn recommend(
        &self,
        data: &Dataset,
        tool: IoToolKind,
        pfs: &PfsSim,
        generation: CpuGeneration,
    ) -> Result<Option<Recommendation>, CodecError> {
        Ok(self
            .evaluate_all(data, tool, pfs, generation)?
            .into_iter()
            .find(|r| r.decision == Decision::Compress))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_codec::CompressorId;
    use eblcio_data::generators::Scale;
    use eblcio_data::{DatasetKind, DatasetSpec};

    fn advisor() -> Advisor {
        Advisor {
            chains: vec![
                ChainSpec::preset(CompressorId::Szx),
                ChainSpec::preset(CompressorId::Sz3),
            ],
            epsilons: vec![1e-2, 1e-3],
            psnr_min_db: 40.0,
            writers: 1,
            runner: CampaignRunner {
                min_runs: 1,
                max_runs: 2,
                ci_tol: 0.5,
            },
        }
    }

    #[test]
    fn recommends_compression_for_large_smooth_data() {
        // NYX written through a bandwidth-starved PFS share: compression
        // must win on energy (the paper's headline result). A slow share
        // keeps the debug-build codec/IO speed ratio representative of
        // the paper's fast-C-codec / contended-Lustre ratio.
        let data = DatasetSpec::new(DatasetKind::Nyx, Scale::Tiny).generate();
        let pfs = PfsSim::new(1, 0.002);
        let rec = advisor()
            .recommend(&data, IoToolKind::Hdf5Lite, &pfs, CpuGeneration::Skylake8160)
            .unwrap();
        let rec = rec.expect("compression should be beneficial");
        assert!(rec.cr > 2.0);
        assert!(rec.psnr_db >= 40.0);
        assert_eq!(rec.inputs.evaluate().decision(), Decision::Compress);
    }

    #[test]
    fn decision_consistency_invariant() {
        // Decision::Compress ⇔ all three conditions hold, for every cell.
        let data = DatasetSpec::new(DatasetKind::Cesm, Scale::Tiny).generate();
        let pfs = PfsSim::testbed();
        let cells = advisor()
            .evaluate_all(&data, IoToolKind::NetCdfLite, &pfs, CpuGeneration::Skylake8160)
            .unwrap();
        assert!(!cells.is_empty());
        for c in &cells {
            let v = c.inputs.evaluate();
            let expect = v.time_ok && v.energy_ok && v.quality_ok;
            assert_eq!(c.decision == Decision::Compress, expect);
        }
    }

    #[test]
    fn impossible_quality_floor_rejects_everything() {
        let data = DatasetSpec::new(DatasetKind::Hacc, Scale::Tiny).generate();
        let pfs = PfsSim::testbed();
        let mut a = advisor();
        a.psnr_min_db = 1e9;
        let rec = a
            .recommend(&data, IoToolKind::Hdf5Lite, &pfs, CpuGeneration::Skylake8160)
            .unwrap();
        assert!(rec.is_none());
    }
}
