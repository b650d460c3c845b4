//! The PFS performance/energy model.
//!
//! Writing `B` bytes with `W` concurrent writers through a file system
//! of `N` OSTs costs
//!
//! ```text
//! t = latency·ops + B / (η_tool · BW_eff(W))
//! BW_eff(W) = BW_total · ramp(W) · collision(W)
//! ramp(W)      = W/(W + k)            — few writers cannot saturate Lustre
//! collision(W) = 1/(1 + c·max(0, W−W_sat)/W_sat) — lock/RPC contention
//! ```
//!
//! `η_tool` is the I/O-library efficiency (HDF5-lite ≈ 0.92,
//! NetCDF-lite ≈ 0.22 — the header-rewrite and unaligned-record
//! penalties that make NetCDF cost ~4× more energy in §VI-A). The
//! CPU-side energy the paper actually measures is
//! `P_io(profile) · t_write` per writing node; the optional storage-side
//! estimate uses a per-byte device cost.

use crate::ost::Ost;
use eblcio_energy::{CpuProfile, Joules, Seconds};
use serde::{Deserialize, Serialize};

/// One write request as seen by the PFS.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct IoRequest {
    /// Payload bytes hitting the data path.
    pub payload_bytes: u64,
    /// Metadata bytes (headers, attribute tables, header rewrites).
    pub meta_bytes: u64,
    /// Discrete I/O operations (RPC round-trips charged with latency).
    pub ops: u32,
    /// I/O-library bandwidth efficiency `η ∈ (0, 1]`.
    pub efficiency: f64,
}

impl IoRequest {
    /// Total bytes that must reach storage.
    pub fn total_bytes(&self) -> u64 {
        self.payload_bytes + self.meta_bytes
    }
}

/// Outcome of a simulated write.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct IoMeasurement {
    /// Wall time of the write phase.
    pub seconds: Seconds,
    /// CPU-side energy (what RAPL sees — the paper's reported quantity).
    pub cpu_energy: Joules,
    /// Storage-device-side energy estimate (not in RAPL; used by the
    /// §VII storage-rack discussion).
    pub storage_energy: Joules,
    /// Achieved bandwidth, bytes/s.
    pub bandwidth_bps: f64,
}

/// A Lustre-like parallel file system.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PfsSim {
    /// Storage targets.
    pub osts: Vec<Ost>,
    /// Ramp constant `k` (writers needed to approach saturation).
    pub ramp_writers: f64,
    /// Writer count at which contention sets in (lock/RPC saturation).
    pub saturation_writers: f64,
    /// Collision cost factor `c`.
    pub collision_factor: f64,
    /// Storage-side energy per byte written (J/B; ~ tens of nJ/B for
    /// HDD-class racks).
    pub storage_j_per_byte: f64,
}

impl PfsSim {
    /// A mid-size production file system: `n_osts` targets at
    /// `ost_bw_gbps` GB/s each.
    pub fn new(n_osts: u32, ost_bw_gbps: f64) -> Self {
        Self {
            osts: (0..n_osts)
                .map(|i| Ost::new(i, ost_bw_gbps * 1e9))
                .collect(),
            ramp_writers: 6.0,
            saturation_writers: 256.0,
            collision_factor: 2.5,
            storage_j_per_byte: 3e-8,
        }
    }

    /// The testbed-scale instance used by the single-node experiments
    /// (§IV-D): 16 OSTs × 1 GB/s.
    pub fn testbed() -> Self {
        Self::new(16, 1.0)
    }

    /// Marks `count` OSTs as degraded (failure injection).
    pub fn degrade(&mut self, count: usize) {
        for o in self.osts.iter_mut().take(count) {
            o.degraded = true;
        }
    }

    /// Aggregate healthy bandwidth.
    pub fn total_bandwidth(&self) -> f64 {
        self.osts.iter().map(|o| o.effective_bandwidth()).sum()
    }

    /// Effective shared bandwidth for `writers` concurrent clients.
    pub fn effective_bandwidth(&self, writers: u32) -> f64 {
        let w = f64::from(writers.max(1));
        let ramp = w / (w + self.ramp_writers);
        let over = ((w - self.saturation_writers) / self.saturation_writers).max(0.0);
        let collision = 1.0 / (1.0 + self.collision_factor * over);
        self.total_bandwidth() * ramp * collision
    }

    /// Mean per-request OST latency, in seconds.
    pub fn mean_latency(&self) -> f64 {
        self.osts.iter().map(|o| o.latency_s).sum::<f64>() / self.osts.len().max(1) as f64
    }

    /// One I/O phase of `clients` clients concurrently moving identical
    /// requests under the ramp/contention model; returns the per-client
    /// measurement (all clients finish together under the fair-share
    /// model).
    fn phase(
        &self,
        req: &IoRequest,
        clients: u32,
        profile: &CpuProfile,
        read: bool,
    ) -> IoMeasurement {
        assert!(req.efficiency > 0.0 && req.efficiency <= 1.0, "bad efficiency");
        let clients = clients.max(1);
        let speedup = if read { Self::read_speedup() } else { 1.0 };
        let shared = self.effective_bandwidth(clients) * speedup / f64::from(clients);
        let bw = (shared * req.efficiency).max(1.0);
        let t = self.mean_latency() * f64::from(req.ops) + req.total_bytes() as f64 / bw;
        let seconds = Seconds(t);
        let write_j = req.total_bytes() as f64 * self.storage_j_per_byte;
        IoMeasurement {
            seconds,
            cpu_energy: profile.io_power * seconds,
            // Reads cost the devices less than writes (no program/erase
            // cycles); charge a third of the write per-byte energy.
            storage_energy: Joules(if read { write_j / 3.0 } else { write_j }),
            bandwidth_bps: req.total_bytes() as f64 / t.max(1e-12),
        }
    }

    /// Simulates `writers` clients concurrently issuing identical
    /// requests; returns the per-writer measurement.
    pub fn write_concurrent(
        &self,
        req: &IoRequest,
        writers: u32,
        profile: &CpuProfile,
    ) -> IoMeasurement {
        self.phase(req, writers, profile, false)
    }

    /// Single-writer convenience wrapper.
    pub fn write(&self, req: &IoRequest, profile: &CpuProfile) -> IoMeasurement {
        self.write_concurrent(req, 1, profile)
    }

    /// Simulates `readers` clients concurrently reading identical
    /// requests back from storage. Reads share the same
    /// ramp/contention bandwidth model; OSTs typically read slightly
    /// faster than they write, captured by [`Self::read_speedup`].
    ///
    /// This is the "doubly effective" path the paper notes in §VI-A:
    /// pulling compressed data out of storage for analysis enjoys the
    /// same size reduction as the write.
    pub fn read_concurrent(
        &self,
        req: &IoRequest,
        readers: u32,
        profile: &CpuProfile,
    ) -> IoMeasurement {
        self.phase(req, readers, profile, true)
    }

    /// Sequential-read bandwidth advantage over writes.
    pub fn read_speedup() -> f64 {
        1.15
    }

    /// Per-writer bandwidth multiplier under the ramp/contention model
    /// (the fraction of one OST's nominal bandwidth a single client
    /// sees when `writers` clients are active).
    fn client_share(&self, writers: u32) -> f64 {
        let writers = writers.max(1);
        let total = self.total_bandwidth().max(1.0);
        self.effective_bandwidth(writers) / total / f64::from(writers)
    }

    /// Core of the chunk-placement model shared by
    /// [`Self::write_chunks`] and [`Self::read_chunks`]: whole objects
    /// placed on OST `index % n_osts`, phase time set by the slowest
    /// target. `chunks` pairs each object's placement index with its
    /// size, so a partial read uses the same placement the write did.
    fn chunk_phase(
        &self,
        chunks: &[(usize, u64)],
        meta_bytes: u64,
        efficiency: f64,
        clients: u32,
        profile: &CpuProfile,
        read: bool,
    ) -> IoMeasurement {
        assert!(efficiency > 0.0 && efficiency <= 1.0, "bad efficiency");
        let n = self.osts.len().max(1);
        let mut bytes = vec![0u64; n];
        let mut ops = vec![0u32; n];
        for &(i, b) in chunks {
            bytes[i % n] += b;
            ops[i % n] += 1;
        }
        // The manifest lives at the stream head, on the first target.
        bytes[0] += meta_bytes;
        ops[0] += u32::from(meta_bytes > 0);

        let scale = self.client_share(clients) * if read { Self::read_speedup() } else { 1.0 };
        let mut t = 0.0f64;
        for (o, (&b, &k)) in self.osts.iter().zip(bytes.iter().zip(&ops)) {
            let bw = (o.effective_bandwidth() * scale * efficiency).max(1.0);
            t = t.max(o.latency_s * f64::from(k) + b as f64 / bw);
        }
        let total: u64 = chunks.iter().map(|&(_, b)| b).sum::<u64>() + meta_bytes;
        let seconds = Seconds(t);
        let per_byte = if read {
            // Reads cost the devices less than writes (no program/erase
            // cycles), matching `read_concurrent`.
            self.storage_j_per_byte / 3.0
        } else {
            self.storage_j_per_byte
        };
        IoMeasurement {
            seconds,
            cpu_energy: profile.io_power * seconds,
            storage_energy: Joules(total as f64 * per_byte),
            bandwidth_bps: total as f64 / t.max(1e-12),
        }
    }

    /// Writes independently sized objects (the chunks of a chunked
    /// store) round-robined across the OSTs, plus `meta_bytes` of
    /// manifest on the first target.
    ///
    /// Unlike [`Self::write_concurrent`]'s byte-striping of one
    /// monolithic stream, whole chunks land on single targets, so the
    /// phase finishes when the most-loaded OST finishes — chunk-size
    /// imbalance and chunk counts smaller than the OST count both show
    /// up as lost bandwidth, exactly the trade a chunked layout makes.
    pub fn write_chunks(
        &self,
        chunk_bytes: &[u64],
        meta_bytes: u64,
        efficiency: f64,
        writers: u32,
        profile: &CpuProfile,
    ) -> IoMeasurement {
        let placed: Vec<(usize, u64)> = chunk_bytes.iter().copied().enumerate().collect();
        self.chunk_phase(&placed, meta_bytes, efficiency, writers, profile, false)
    }

    /// Reads a subset of chunk objects back (a partial region read
    /// touches only the intersecting chunks' bytes — the "doubly
    /// effective" reduction of §VI-A applied per chunk). Each entry
    /// pairs the chunk's *write-time* placement index with its size, so
    /// the read hits the OSTs the write actually used rather than
    /// re-spreading the subset across all targets.
    pub fn read_chunks(
        &self,
        chunks: &[(usize, u64)],
        meta_bytes: u64,
        efficiency: f64,
        readers: u32,
        profile: &CpuProfile,
    ) -> IoMeasurement {
        self.chunk_phase(chunks, meta_bytes, efficiency, readers, profile, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eblcio_energy::CpuGeneration;

    fn profile() -> CpuProfile {
        CpuGeneration::Skylake8160.profile()
    }

    /// [`measurements_are_pinned_bit_for_bit`]'s grid, measured before
    /// the write and read phases shared one function.
    #[rustfmt::skip]
    const PINNED: [[u64; 4]; 28] = [
        [0x3f4f_6a98_3e13_a5c0, 0x3fa8_8b46_f07f_597e, 0x3fa0_1b2b_29a4_692b, 0x41d0_4c17_236a_ad66],
        [0x3ff9_ae0e_6bfa_9942, 0x4054_0ffb_445b_c7bc, 0x4038_28e1_117d_55eb, 0x41bd_e842_35b3_77b0],
        [0x3f4f_6a98_3e13_a5c0, 0x3fa8_8b46_f07f_597e, 0x3fa0_1b2b_29a4_692b, 0x41d0_4c17_236a_ad66],
        [0x3f4d_74a4_cbed_d2d4, 0x3fa7_0320_bf51_ccb6, 0x3f85_798e_e230_8c39, 0x41d1_61cf_5cf9_fec3],
        [0x3ff9_ae0e_6bfa_9942, 0x4054_0ffb_445b_c7bc, 0x4038_28e1_117d_55eb, 0x41bd_e842_35b3_77b0],
        [0x3ff6_5670_cdbb_b9e5, 0x4051_7388_20ba_a93b, 0x4020_1b40_b653_8e9d, 0x41c1_30e8_be9b_9471],
        [0x3f82_6336_7199_684a, 0x3fdc_bb05_117f_b2f4, 0x3fcf_f6ad_307a_4641, 0x41cb_a145_a798_e570],
        [0x3f79_22f1_42d8_d0da, 0x3fd3_a34c_7c39_632a, 0x3fa2_757b_822c_6a96, 0x41c1_8219_9f36_ed24],
        [0x3f9d_deff_0fa6_4c6c, 0x3ff7_5637_4439_ebb4, 0x3fa0_1b2b_29a4_692b, 0x4181_23ec_518a_3223],
        [0x3f9a_0aa8_8b56_7648, 0x3ff4_5853_acdb_8c68, 0x3f85_798e_e230_8c39, 0x4183_a92b_ca88_6cf6],
        [0x4059_05f8_dbdd_9c3c, 0x40b3_8caa_6bc5_220f, 0x4038_28e1_117d_55eb, 0x415e_b126_12e7_c1d2],
        [0x4055_c270_9305_9fd0, 0x40b0_ffe7_f2dc_64da, 0x4020_1b40_b653_8e9d, 0x4161_a5d6_39e5_0a29],
        [0x3fdf_f9dd_f1c1_94de, 0x4038_fb35_64df_3c4d, 0x3fcf_f6ad_307a_4641, 0x416f_c6d9_5a2c_d2f6],
        [0x3fd6_941b_fc1f_fcd7, 0x4031_a3b5_dcf8_fd88, 0x3fa2_757b_822c_6a96, 0x4163_7de1_7678_c8a4],
        [0x3f42_67b8_a2f6_3bb6, 0x3f9c_c210_7ea0_bd4c, 0x3fa0_1b2b_29a4_692b, 0x41db_d17b_113d_0598],
        [0x3fcc_0285_8a0d_c674, 0x4025_e1f8_53da_c30b, 0x4038_28e1_117d_55eb, 0x41eb_6b63_6678_a043],
        [0x3f42_67b8_a2f6_3bb6, 0x3f9c_c210_7ea0_bd4c, 0x3fa0_1b2b_29a4_692b, 0x41db_d17b_113d_0598],
        [0x3f42_243b_6670_1272, 0x3f9c_589c_d00f_1cd2, 0x3f85_798e_e230_8c39, 0x41dc_38f8_09e9_1071],
        [0x3fcc_0285_8a0d_c674, 0x4025_e1f8_53da_c30b, 0x4038_28e1_117d_55eb, 0x41eb_6b63_6678_a043],
        [0x3fc8_6a32_0d04_3b4e, 0x4023_12f7_1a2b_4e55, 0x4020_1b40_b653_8e9d, 0x41ef_74f9_e6d6_ebec],
        [0x3f97_7d4f_5042_cd17, 0x3ff2_59e5_f6b4_303a, 0x3fcf_f6ad_307a_4641, 0x41b5_a0f3_3563_7bcf],
        [0x3f90_0d65_a7fd_c4d1, 0x3fe9_14ee_d67c_8387, 0x3fa2_757b_822c_6a96, 0x41ab_6a8f_bab1_f27b],
        [0x3f71_d677_3e29_e754, 0x3fcb_df1a_5121_7973, 0x3fa0_1b2b_29a4_692b, 0x41ac_b402_518e_56f4],
        [0x3f6f_8e73_4ed0_c198, 0x3fc8_a74a_1593_173f, 0x3f85_798e_e230_8c39, 0x41b0_3992_a389_7019],
        [0x402a_ec02_29b5_debb, 0x4085_0861_b096_1602, 0x4038_28e1_117d_55eb, 0x418c_870c_8cb4_22b4],
        [0x4027_6948_d934_cf37, 0x4082_4a40_e9b1_41e3, 0x4020_1b40_b653_8e9d, 0x4190_6716_e3f8_1bd4],
        [0x3ff6_7237_38fe_28f6, 0x4051_893b_2486_9000, 0x3fcf_f6ad_307a_4641, 0x4156_a251_2dd3_7ac8],
        [0x3fee_5dfc_14ef_5a6d, 0x4047_b96c_f05a_fea5, 0x3fa2_757b_822c_6a96, 0x414c_fc25_b953_204b],
    ];

    fn req(bytes: u64) -> IoRequest {
        IoRequest {
            payload_bytes: bytes,
            meta_bytes: 0,
            ops: 1,
            efficiency: 1.0,
        }
    }

    #[test]
    fn more_bytes_more_time_and_energy() {
        let pfs = PfsSim::testbed();
        let small = pfs.write(&req(1 << 20), &profile());
        let big = pfs.write(&req(1 << 30), &profile());
        assert!(big.seconds.value() > 100.0 * small.seconds.value());
        assert!(big.cpu_energy.value() > 100.0 * small.cpu_energy.value());
    }

    #[test]
    fn bandwidth_ramps_with_writers() {
        let pfs = PfsSim::new(64, 2.0);
        let b1 = pfs.effective_bandwidth(1);
        let b16 = pfs.effective_bandwidth(16);
        let b128 = pfs.effective_bandwidth(128);
        assert!(b16 > 2.0 * b1);
        assert!(b128 > b16);
        assert!(b128 <= pfs.total_bandwidth());
    }

    #[test]
    fn contention_knee_beyond_saturation() {
        // Fig. 12's jump from 256 to 512 writers: per-writer time gets
        // disproportionately worse past the saturation point.
        let pfs = PfsSim::new(64, 2.0);
        let t256 = pfs
            .write_concurrent(&req(1 << 26), 256, &profile())
            .seconds
            .value();
        let t512 = pfs
            .write_concurrent(&req(1 << 26), 512, &profile())
            .seconds
            .value();
        // Fair share alone would double the time; contention must make
        // it clearly worse than 2×.
        assert!(t512 > 2.3 * t256, "t512 {t512} vs t256 {t256}");
    }

    #[test]
    fn efficiency_penalty_slows_writes() {
        let pfs = PfsSim::testbed();
        let hdf5 = pfs.write(
            &IoRequest {
                efficiency: 0.9,
                ..req(1 << 28)
            },
            &profile(),
        );
        let netcdf = pfs.write(
            &IoRequest {
                efficiency: 0.22,
                ..req(1 << 28)
            },
            &profile(),
        );
        let ratio = netcdf.cpu_energy.value() / hdf5.cpu_energy.value();
        assert!(ratio > 3.0 && ratio < 6.0, "ratio {ratio}");
    }

    #[test]
    fn degraded_osts_reduce_bandwidth() {
        let mut pfs = PfsSim::new(8, 1.0);
        let before = pfs.total_bandwidth();
        pfs.degrade(4);
        let after = pfs.total_bandwidth();
        assert!(after < 0.6 * before);
        // And writes slow down accordingly.
        let healthy = PfsSim::new(8, 1.0).write(&req(1 << 28), &profile());
        let degraded = pfs.write(&req(1 << 28), &profile());
        assert!(degraded.seconds.value() > healthy.seconds.value() * 1.5);
    }

    #[test]
    fn ops_charge_latency() {
        let pfs = PfsSim::testbed();
        let one = pfs.write(&req(1024), &profile());
        let many = pfs.write(
            &IoRequest {
                ops: 1000,
                ..req(1024)
            },
            &profile(),
        );
        assert!(many.seconds.value() > one.seconds.value() + 0.4);
    }

    #[test]
    fn reads_slightly_faster_and_cheaper_than_writes() {
        let pfs = PfsSim::testbed();
        let r = req(1 << 28);
        let w = pfs.write(&r, &profile());
        let rd = pfs.read_concurrent(&r, 1, &profile());
        assert!(rd.seconds.value() < w.seconds.value());
        assert!(rd.storage_energy.value() < w.storage_energy.value());
        assert!(rd.bandwidth_bps > w.bandwidth_bps);
    }

    #[test]
    fn read_contention_mirrors_write_contention() {
        let pfs = PfsSim::new(64, 2.0);
        let r = req(1 << 26);
        let t64 = pfs.read_concurrent(&r, 64, &profile()).seconds.value();
        let t512 = pfs.read_concurrent(&r, 512, &profile()).seconds.value();
        assert!(t512 > 4.0 * t64, "t512 {t512} t64 {t64}");
    }

    #[test]
    fn balanced_chunks_match_monolithic_write() {
        // Equal chunks across all OSTs keep every target busy, so the
        // chunked layout costs about the same as byte-striping one
        // monolithic stream of the same total size.
        let pfs = PfsSim::testbed();
        let n = pfs.osts.len() as u64;
        let per = 1u64 << 24;
        let chunks: Vec<u64> = vec![per; n as usize];
        let mono = pfs.write(&req(per * n), &profile());
        let chunked = pfs.write_chunks(&chunks, 0, 1.0, 1, &profile());
        let ratio = chunked.seconds.value() / mono.seconds.value();
        assert!(ratio > 0.9 && ratio < 1.2, "ratio {ratio}");
    }

    #[test]
    fn imbalanced_chunks_are_slower_than_balanced() {
        let pfs = PfsSim::testbed();
        let balanced: Vec<u64> = vec![1 << 22; 16];
        let mut skewed = vec![1u64 << 18; 15];
        skewed.push((1 << 22) * 16 - (1 << 18) * 15); // same total, one hot OST
        let b = pfs.write_chunks(&balanced, 0, 1.0, 1, &profile());
        let s = pfs.write_chunks(&skewed, 0, 1.0, 1, &profile());
        assert_eq!(
            balanced.iter().sum::<u64>(),
            skewed.iter().sum::<u64>(),
            "totals must match for the comparison"
        );
        assert!(s.seconds.value() > 5.0 * b.seconds.value());
    }

    #[test]
    fn partial_chunk_read_is_cheaper_than_full() {
        let pfs = PfsSim::testbed();
        let chunks: Vec<(usize, u64)> = (0..32).map(|i| (i, 1 << 22)).collect();
        let all = pfs.read_chunks(&chunks, 64, 1.0, 1, &profile());
        let some = pfs.read_chunks(&chunks[..4], 64, 1.0, 1, &profile());
        assert!(some.seconds.value() < all.seconds.value() / 1.5);
        assert!(some.storage_energy.value() < all.storage_energy.value() / 4.0);
    }

    #[test]
    fn chunk_reads_enjoy_read_speedup() {
        let pfs = PfsSim::testbed();
        let chunks: Vec<(usize, u64)> = (0..16).map(|i| (i, 1 << 24)).collect();
        let lens: Vec<u64> = chunks.iter().map(|&(_, b)| b).collect();
        let w = pfs.write_chunks(&lens, 0, 1.0, 1, &profile());
        let r = pfs.read_chunks(&chunks, 0, 1.0, 1, &profile());
        assert!(r.seconds.value() < w.seconds.value());
    }

    #[test]
    fn read_placement_matches_write_placement() {
        // Reading chunks that all landed on one OST at write time must
        // serialize on that OST, not get re-spread across all targets.
        let pfs = PfsSim::testbed();
        let n = pfs.osts.len();
        // Chunks 0, n, 2n, 3n all live on OST 0.
        let colocated: Vec<(usize, u64)> = (0..4).map(|k| (k * n, 1 << 24)).collect();
        let spread: Vec<(usize, u64)> = (0..4).map(|k| (k, 1 << 24)).collect();
        let hot = pfs.read_chunks(&colocated, 0, 1.0, 1, &profile());
        let cool = pfs.read_chunks(&spread, 0, 1.0, 1, &profile());
        assert!(hot.seconds.value() > 3.0 * cool.seconds.value());
    }

    #[test]
    fn storage_energy_scales_with_bytes() {
        let pfs = PfsSim::testbed();
        let m = pfs.write(&req(1 << 30), &profile());
        let expected = (1u64 << 30) as f64 * pfs.storage_j_per_byte;
        assert!((m.storage_energy.value() - expected).abs() < 1e-9);
    }

    /// Every `IoMeasurement` field, as bits, over a fixed grid of file
    /// systems, requests and client counts: the cost model may be
    /// restructured, but no result may move by one ulp.
    #[test]
    fn measurements_are_pinned_bit_for_bit() {
        let mut degraded = PfsSim::new(64, 2.0);
        degraded.degrade(5);
        let reqs = [
            req(1 << 20),
            IoRequest {
                payload_bytes: (3 << 28) + 12_345,
                meta_bytes: 4096,
                ops: 7,
                efficiency: 0.22,
            },
        ];
        let sizes: Vec<u64> = (0..19u64).map(|i| (i * 7919 % 13 + 1) << 16).collect();
        let placed: Vec<(usize, u64)> = sizes.iter().copied().enumerate().step_by(3).collect();
        let p = profile();
        let mut got = Vec::new();
        for pfs in [PfsSim::testbed(), degraded] {
            for r in &reqs {
                got.push(pfs.write(r, &p));
            }
            for clients in [1, 300] {
                for r in &reqs {
                    got.push(pfs.write_concurrent(r, clients, &p));
                    got.push(pfs.read_concurrent(r, clients, &p));
                }
                got.push(pfs.write_chunks(&sizes, 777, 0.92, clients, &p));
                got.push(pfs.read_chunks(&placed, 777, 0.92, clients, &p));
            }
        }
        let bits: Vec<[u64; 4]> = got
            .iter()
            .map(|m| {
                [
                    m.seconds.value().to_bits(),
                    m.cpu_energy.value().to_bits(),
                    m.storage_energy.value().to_bits(),
                    m.bandwidth_bps.to_bits(),
                ]
            })
            .collect();
        assert_eq!(bits, PINNED, "{bits:#x?}");
    }
}
