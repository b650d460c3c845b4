//! Real RAPL readings via the Linux powercap interface.
//!
//! When `/sys/class/powercap/intel-rapl:*` exists (bare-metal Intel
//! hosts), this meter reads the same counters the paper samples through
//! PAPI: per-package `energy_uj`, summed over both zones (Eq. 6), with
//! wraparound correction via `max_energy_range_uj`.

#![allow(
    clippy::disallowed_methods,
    reason = "reads /sys/class/powercap RAPL energy counters: hardware measurement files, not \
              data-path storage"
)]

use crate::units::Joules;
use std::fs;
use std::path::PathBuf;

/// One RAPL package zone.
#[derive(Clone, Debug)]
pub struct RaplZone {
    /// Zone name (e.g. `package-0`).
    pub name: String,
    energy_path: PathBuf,
    /// Counter wraparound range in microjoules.
    pub max_energy_range_uj: u64,
}

impl RaplZone {
    /// Current counter value in microjoules.
    pub fn read_uj(&self) -> std::io::Result<u64> {
        let s = fs::read_to_string(&self.energy_path)?;
        s.trim()
            .parse()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// A powercap-backed energy meter over all package zones.
#[derive(Clone, Debug)]
pub struct RaplMeter {
    zones: Vec<RaplZone>,
}

/// Snapshot of all zone counters.
#[derive(Clone, Debug)]
pub struct RaplSnapshot {
    counters_uj: Vec<u64>,
}

impl RaplMeter {
    /// Discovers package zones under the standard powercap root.
    ///
    /// Returns `None` when the interface is absent (VMs, containers,
    /// non-Intel hosts) — callers then price the measured wall time
    /// with [`energy_for_wall`](crate::measure::energy_for_wall).
    pub fn discover() -> Option<Self> {
        Self::discover_at("/sys/class/powercap")
    }

    /// Discovery with an explicit root (testable).
    pub fn discover_at(root: &str) -> Option<Self> {
        let mut zones = Vec::new();
        let entries = fs::read_dir(root).ok()?;
        for e in entries.flatten() {
            let fname = e.file_name();
            let name = fname.to_string_lossy();
            // Top-level packages only: `intel-rapl:N` (subzones have a
            // second colon segment).
            if !name.starts_with("intel-rapl:") || name.matches(':').count() != 1 {
                continue;
            }
            let dir = e.path();
            let zone_name = fs::read_to_string(dir.join("name")).ok()?;
            if !zone_name.trim().starts_with("package") {
                continue;
            }
            let max: u64 = fs::read_to_string(dir.join("max_energy_range_uj"))
                .ok()?
                .trim()
                .parse()
                .ok()?;
            zones.push(RaplZone {
                name: zone_name.trim().to_string(),
                energy_path: dir.join("energy_uj"),
                max_energy_range_uj: max,
            });
        }
        if zones.is_empty() {
            None
        } else {
            zones.sort_by(|a, b| a.name.cmp(&b.name));
            Some(Self { zones })
        }
    }

    /// Number of package zones (paper Fig. 3 shows two).
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Reads all counters.
    pub fn snapshot(&self) -> std::io::Result<RaplSnapshot> {
        let mut counters_uj = Vec::with_capacity(self.zones.len());
        for z in &self.zones {
            counters_uj.push(z.read_uj()?);
        }
        Ok(RaplSnapshot { counters_uj })
    }

    /// Energy elapsed between two snapshots, wraparound-corrected and
    /// summed over zones (Eq. 6: `E_CPU = E_P0 + E_P1`).
    pub fn energy_between(&self, start: &RaplSnapshot, end: &RaplSnapshot) -> Joules {
        let mut total_uj = 0u64;
        for (i, z) in self.zones.iter().enumerate() {
            let (s, e) = (start.counters_uj[i], end.counters_uj[i]);
            let delta = if e >= s {
                e - s
            } else {
                // Counter wrapped.
                e + (z.max_energy_range_uj - s)
            };
            total_uj += delta;
        }
        Joules(total_uj as f64 * 1e-6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_zone(dir: &std::path::Path, idx: usize, energy: u64, max: u64) {
        let z = dir.join(format!("intel-rapl:{idx}"));
        fs::create_dir_all(&z).unwrap();
        fs::write(z.join("name"), format!("package-{idx}\n")).unwrap();
        fs::write(z.join("energy_uj"), format!("{energy}\n")).unwrap();
        fs::write(z.join("max_energy_range_uj"), format!("{max}\n")).unwrap();
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("eblcio-rapl-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn discovery_absent_root() {
        assert!(RaplMeter::discover_at("/nonexistent/powercap").is_none());
    }

    #[test]
    fn discovery_and_delta() {
        let d = tmpdir("delta");
        fake_zone(&d, 0, 1_000_000, u64::MAX / 2);
        fake_zone(&d, 1, 5_000_000, u64::MAX / 2);
        // A subzone that must be ignored.
        let sub = d.join("intel-rapl:0:0");
        fs::create_dir_all(&sub).unwrap();
        fs::write(sub.join("name"), "core\n").unwrap();

        let meter = RaplMeter::discover_at(d.to_str().unwrap()).unwrap();
        assert_eq!(meter.zone_count(), 2);
        let s0 = meter.snapshot().unwrap();
        fs::write(d.join("intel-rapl:0/energy_uj"), "3000000\n").unwrap();
        fs::write(d.join("intel-rapl:1/energy_uj"), "6000000\n").unwrap();
        let s1 = meter.snapshot().unwrap();
        // (3-1) + (6-5) = 3 J.
        assert!((meter.energy_between(&s0, &s1).value() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wraparound_corrected() {
        let d = tmpdir("wrap");
        fake_zone(&d, 0, 999_000, 1_000_000);
        let meter = RaplMeter::discover_at(d.to_str().unwrap()).unwrap();
        let s0 = meter.snapshot().unwrap();
        fs::write(d.join("intel-rapl:0/energy_uj"), "500\n").unwrap();
        let s1 = meter.snapshot().unwrap();
        // 1500 µJ elapsed across the wrap.
        assert!((meter.energy_between(&s0, &s1).value() - 1.5e-3).abs() < 1e-12);
    }

    #[test]
    fn non_package_zones_ignored() {
        let d = tmpdir("psys");
        let z = d.join("intel-rapl:0");
        fs::create_dir_all(&z).unwrap();
        fs::write(z.join("name"), "psys\n").unwrap();
        fs::write(z.join("energy_uj"), "1\n").unwrap();
        fs::write(z.join("max_energy_range_uj"), "10\n").unwrap();
        assert!(RaplMeter::discover_at(d.to_str().unwrap()).is_none());
    }
}
