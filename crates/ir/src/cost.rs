//! Static cost descriptors.
//!
//! Every generated kernel carries a [`CostProfile`] derived by the
//! meta-program from the *same* quantities that shaped its source code
//! (recipe op counts, tile counts, unroll factors). The GPU simulator
//! combines the profile with a device model to estimate runtime; see
//! `wino-gpu` and DESIGN.md §2 for why this substitution preserves the
//! paper's relative-performance results.

/// Aggregate work performed by one kernel launch (all threads).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostProfile {
    /// Total scalar floating-point operations (an FMA counts as 2).
    pub flops: u64,
    /// Bytes read from global memory.
    pub global_load_bytes: u64,
    /// Bytes written to global memory.
    pub global_store_bytes: u64,
    /// Bytes moved through shared memory (loads + stores).
    pub shared_bytes: u64,
    /// Efficiency of global accesses in (0, 1]: 1.0 = perfectly
    /// coalesced, lower values model strided/misaligned patterns that
    /// waste bus width.
    pub coalescing: f64,
    /// Multiplier ≥ 1 on compute time modelling loop/branch/control
    /// overhead. Fully unrolled straight-line code approaches 1.0;
    /// tight rolled loops pay more (§3.2.1 — the motivation for
    /// adaptive unrolling).
    pub control_overhead: f64,
}

impl CostProfile {
    /// A profile with nothing but FLOPs (useful as a builder start).
    pub fn compute_only(flops: u64) -> Self {
        CostProfile {
            flops,
            global_load_bytes: 0,
            global_store_bytes: 0,
            shared_bytes: 0,
            coalescing: 1.0,
            control_overhead: 1.0,
        }
    }

    /// Total global-memory traffic in bytes.
    pub fn global_bytes(&self) -> u64 {
        self.global_load_bytes + self.global_store_bytes
    }

    /// Component-wise sum; coalescing is traffic-weighted and control
    /// overhead flop-weighted so merged profiles stay meaningful.
    pub fn merge(&self, other: &CostProfile) -> CostProfile {
        let gb = self.global_bytes() + other.global_bytes();
        let coalescing = if gb == 0 {
            1.0
        } else {
            (self.coalescing * self.global_bytes() as f64
                + other.coalescing * other.global_bytes() as f64)
                / gb as f64
        };
        let fl = self.flops + other.flops;
        let control_overhead = if fl == 0 {
            1.0
        } else {
            (self.control_overhead * self.flops as f64
                + other.control_overhead * other.flops as f64)
                / fl as f64
        };
        CostProfile {
            flops: fl,
            global_load_bytes: self.global_load_bytes + other.global_load_bytes,
            global_store_bytes: self.global_store_bytes + other.global_store_bytes,
            shared_bytes: self.shared_bytes + other.shared_bytes,
            coalescing,
            control_overhead,
        }
    }

    /// Validates physical plausibility (finite, positive factors).
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.coalescing) || self.coalescing == 0.0 {
            return Err(format!("coalescing {} outside (0, 1]", self.coalescing));
        }
        if !self.control_overhead.is_finite() || self.control_overhead < 1.0 {
            return Err(format!("control overhead {} < 1", self.control_overhead));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_weights_factors_by_traffic_and_flops() {
        let a = CostProfile {
            flops: 100,
            global_load_bytes: 100,
            global_store_bytes: 0,
            shared_bytes: 0,
            coalescing: 1.0,
            control_overhead: 2.0,
        };
        let b = CostProfile {
            flops: 300,
            global_load_bytes: 300,
            global_store_bytes: 0,
            shared_bytes: 0,
            coalescing: 0.5,
            control_overhead: 1.0,
        };
        let m = a.merge(&b);
        assert_eq!(m.flops, 400);
        assert!((m.coalescing - 0.625).abs() < 1e-12);
        assert!((m.control_overhead - 1.25).abs() < 1e-12);
    }

    #[test]
    fn merge_of_empty_profiles_is_neutral() {
        let z = CostProfile::compute_only(0);
        let m = z.merge(&z);
        assert_eq!(m.coalescing, 1.0);
        assert_eq!(m.control_overhead, 1.0);
    }

    #[test]
    fn validation() {
        let mut c = CostProfile::compute_only(1);
        assert!(c.validate().is_ok());
        c.coalescing = 0.0;
        assert!(c.validate().is_err());
        c.coalescing = 0.5;
        c.control_overhead = 0.9;
        assert!(c.validate().is_err());
    }
}
