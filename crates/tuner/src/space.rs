//! The tuning search space (Table 1 of the paper).
//!
//! | parameter | purpose                          | values        |
//! |-----------|----------------------------------|---------------|
//! | WV        | Winograd variant (fused/non-fused)| 0, 1         |
//! | LU        | loop unrolling factor            | 1, 2, 4, 6, ∞ |
//! | MNt       | SGEMM register blocking          | powers of two |
//! | MNb       | SGEMM thread blocking            | powers of two |
//! | m         | Winograd output tile size        | 2 ≤ m ≤ 10    |
//!
//! Every axis is priced by the analytic GPU device model. What is
//! measured on the CPU for real is the `m` axis, and not here:
//! `wino-bench`'s `figure9_cpu` times every compiled `F(m, r)` per
//! Table-4 layer.

use wino_codegen::{PlanVariant, Unroll};
use wino_tensor::ConvDesc;

/// One point in the tuning space.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TuningPoint {
    /// Implementation variant (WV plus the baselines).
    pub variant: PlanVariant,
    /// Loop unrolling factor LU.
    pub unroll: Unroll,
    /// SGEMM register blocking MNt.
    pub mnt: usize,
    /// SGEMM thread blocking MNb.
    pub mnb: usize,
}

/// The MNt values explored.
pub const MNT_VALUES: [usize; 4] = [1, 2, 4, 8];
/// The MNb values explored.
pub const MNB_VALUES: [usize; 3] = [8, 16, 32];
/// The m range explored (Table 1: 2 ≤ m ≤ 10).
pub const M_RANGE: std::ops::RangeInclusive<usize> = 2..=10;

/// Enumerates the full brute-force space for one convolution,
/// pre-pruned to points that can possibly generate: Winograd variants
/// only for unit-stride layers and supported α.
pub fn search_space(desc: &ConvDesc) -> Vec<TuningPoint> {
    let mut variants: Vec<PlanVariant> = vec![PlanVariant::Direct, PlanVariant::Im2col];
    if desc.winograd_applicable() {
        for m in M_RANGE {
            let alpha = m + desc.ksz - 1;
            if !(4..=16).contains(&alpha) {
                continue;
            }
            variants.push(PlanVariant::WinogradNonFused { m });
            variants.push(PlanVariant::WinogradFused { m });
        }
    }
    let mut points = Vec::new();
    for &variant in &variants {
        for unroll in Unroll::table1_values() {
            for &mnt in &MNT_VALUES {
                for &mnb in &MNB_VALUES {
                    points.push(TuningPoint {
                        variant,
                        unroll,
                        mnt,
                        mnb,
                    });
                }
            }
        }
    }
    points
}

/// A reduced sweep for large batch experiments (the paper's "sampled
/// exploration" option, §3.3): unroll ∈ {1, ∞}, MNt ∈ {2, 8}, full
/// MNb and variant axes. ~5× cheaper than the full space while still
/// exercising every variant.
pub fn reduced_space(desc: &ConvDesc) -> Vec<TuningPoint> {
    search_space(desc)
        .into_iter()
        .filter(|p| {
            matches!(p.unroll, Unroll::Factor(1) | Unroll::Full) && (p.mnt == 2 || p.mnt == 8)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_size_for_3x3() {
        let desc = ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32);
        let space = search_space(&desc);
        // 2 baselines + 9 m-values × 2 WV = 20 variants; × 5 LU × 4
        // MNt × 3 MNb = 1200 points.
        assert_eq!(space.len(), 20 * 5 * 4 * 3);
    }

    #[test]
    fn strided_conv_gets_no_winograd_points() {
        let desc = ConvDesc::new(3, 2, 1, 64, 1, 14, 14, 32);
        let space = search_space(&desc);
        assert!(space.iter().all(|p| p.variant.winograd_m().is_none()));
        assert_eq!(space.len(), 2 * 5 * 4 * 3);
    }

    #[test]
    fn alpha_out_of_range_pruned() {
        // 7×7 filter: m up to 10 would give α = 16 (ok) but m = 2 →
        // α = 8 ok; all fine. 9×9 filter: m ≥ 8 → α ≥ 16; m = 9,10 → α
        // = 17, 18 pruned.
        let desc = ConvDesc::new(9, 1, 4, 8, 1, 18, 18, 4);
        let space = search_space(&desc);
        assert!(space
            .iter()
            .filter_map(|p| p.variant.winograd_m())
            .all(|m| m + 9 - 1 <= 16));
    }

    #[test]
    fn points_are_unique() {
        let desc = ConvDesc::new(3, 1, 1, 8, 1, 8, 8, 4);
        let space = search_space(&desc);
        let mut dedup = space.clone();
        dedup.sort_by_key(|p| format!("{p:?}"));
        dedup.dedup();
        assert_eq!(space.len(), dedup.len());
    }
}
