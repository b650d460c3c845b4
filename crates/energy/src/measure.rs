//! Measured-workload energy accounting.
//!
//! [`energy_for_wall`] integrates the modeled package + memory power
//! over a measured wall time for a given CPU profile — the substitution
//! for "PAPI around the compression call" (paper Fig. 4).
//! [`measure_compute`] runs a closure and prices its wall time.

use crate::profile::CpuProfile;
use crate::units::{Joules, Seconds};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// What the measured region was doing, for the power model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Activity {
    /// Worker threads actively computing.
    pub threads: u32,
    /// CPU utilization of those threads (1.0 for a busy codec loop).
    pub utilization: f64,
    /// Memory-traffic intensity in `[0,1]` (bytes touched / time vs
    /// peak bandwidth; compressors stream their input ≈ 0.4–0.8).
    pub memory_intensity: f64,
}

impl Activity {
    /// A fully-busy serial codec loop.
    pub fn serial_compute() -> Self {
        Self {
            threads: 1,
            utilization: 1.0,
            memory_intensity: 0.5,
        }
    }

    /// A fully-busy parallel codec region on `threads` threads.
    pub fn parallel_compute(threads: u32) -> Self {
        Self {
            threads,
            utilization: 1.0,
            memory_intensity: 0.6,
        }
    }

    /// An I/O-bound phase (low CPU, streaming memory).
    pub fn io_phase() -> Self {
        Self {
            threads: 1,
            utilization: 0.15,
            memory_intensity: 0.8,
        }
    }
}

/// One measured region: modeled runtime and energy on the target CPU.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct Measurement {
    /// Wall time measured on *this* machine.
    pub wall: Seconds,
    /// Runtime scaled to the target CPU (`wall / throughput_factor`).
    pub scaled: Seconds,
    /// Package energy over the scaled runtime (both RAPL zones, Eq. 6).
    pub package: Joules,
    /// DRAM energy over the scaled runtime.
    pub dram: Joules,
}

impl Measurement {
    /// Total energy (`package + dram`).
    pub fn total(&self) -> Joules {
        self.package + self.dram
    }
}

/// Converts a measured wall time + activity into the target platform's
/// runtime and energy.
pub fn energy_for_wall(profile: &CpuProfile, activity: Activity, wall: Seconds) -> Measurement {
    let scaled = Seconds(wall.value() / profile.throughput_factor);
    let pkg_power = profile.package_power(activity.threads, activity.utilization);
    let mem_power = profile.memory_power(activity.memory_intensity);
    Measurement {
        wall,
        scaled,
        package: pkg_power * scaled,
        dram: mem_power * scaled,
    }
}

/// Runs `f`, returning its value and the modeled measurement of the
/// region on `profile`.
pub fn measure_compute<R>(
    profile: &CpuProfile,
    activity: Activity,
    f: impl FnOnce() -> R,
) -> (R, Measurement) {
    let start = Instant::now();
    let out = f();
    let wall = Seconds(start.elapsed().as_secs_f64());
    (out, energy_for_wall(profile, activity, wall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CpuGeneration;

    fn profile() -> CpuProfile {
        CpuGeneration::Skylake8160.profile()
    }

    #[test]
    fn measure_compute_returns_value_and_positive_energy() {
        let (out, m) = measure_compute(&profile(), Activity::serial_compute(), || {
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(out > 0);
        assert!(m.wall.value() > 0.0);
        assert!(m.package.value() > 0.0);
        assert!(m.total().value() > m.package.value());
    }

    #[test]
    fn scaled_runtime_uses_throughput_factor() {
        let p = CpuGeneration::SapphireRapids9480.profile();
        let m = energy_for_wall(&p, Activity::serial_compute(), Seconds(2.3));
        assert!((m.scaled.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_energy_decreases_then_plateaus() {
        // Fig. 10's shape: more threads → less energy, with diminishing
        // returns (power grows sub-linearly, runtime shrinks per Amdahl).
        // 100 s of serial work, 95 % of it parallel.
        let p = profile();
        let energies: Vec<f64> = [1u32, 2, 4, 8, 16, 32]
            .iter()
            .map(|&t| {
                let wall = Seconds(100.0 * (0.05 + 0.95 / f64::from(t)));
                energy_for_wall(&p, Activity::parallel_compute(t), wall).total().value()
            })
            .collect();
        assert!(energies[1] < energies[0]);
        assert!(energies[2] < energies[1]);
        // Diminishing improvement: the 16→32 gain is smaller than 1→2.
        let early_gain = energies[0] - energies[1];
        let late_gain = (energies[4] - energies[5]).max(0.0);
        assert!(late_gain < early_gain);
    }
}
