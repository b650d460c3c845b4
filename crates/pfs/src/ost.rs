//! Object storage targets (OSTs), Lustre-style.

use serde::{Deserialize, Serialize};

/// One object storage target.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Ost {
    /// Target id.
    pub id: u32,
    /// Sequential write bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Per-request latency in seconds.
    pub latency_s: f64,
    /// Degraded targets (failure injection) run at 10 % bandwidth.
    pub degraded: bool,
}

impl Ost {
    /// A healthy OST with the given bandwidth (bytes/s).
    pub fn new(id: u32, bandwidth_bps: f64) -> Self {
        Self {
            id,
            bandwidth_bps,
            latency_s: 0.5e-3,
            degraded: false,
        }
    }

    /// Effective bandwidth accounting for degradation.
    pub fn effective_bandwidth(&self) -> f64 {
        if self.degraded {
            self.bandwidth_bps * 0.1
        } else {
            self.bandwidth_bps
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degraded_ost_loses_bandwidth() {
        let mut o = Ost::new(0, 1e9);
        assert_eq!(o.effective_bandwidth(), 1e9);
        o.degraded = true;
        assert_eq!(o.effective_bandwidth(), 1e8);
    }
}
