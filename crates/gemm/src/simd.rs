//! Runtime SIMD dispatch for the CPU micro-kernels.
//!
//! The paper's meta-programming pipeline specializes kernels at
//! generation time; on the host CPU the analogous move is to pick the
//! widest instruction set the machine actually has, once, at startup.
//! [`simd_level`] is that choice: CPUID detection, cached for the
//! process lifetime.
//!
//! The levels are ordered (`Scalar < Avx2 < Avx512`): a host that runs
//! one level runs every level below it, and [`supported_levels`] lists
//! them. `Avx512` is a GEMM register tier — the 14×32 `zmm`
//! micro-kernel; the transforms and gathers run their AVX2 bodies at it.
//!
//! Determinism contract (DESIGN.md §5.9): every level gives the same
//! bits, at any thread count — a `C` element is the same FMA chain
//! whichever register tile computes it, and the scalar kernel runs
//! that chain with `f32::mul_add`. A level therefore changes speed
//! only; a test that holds each level to the contract builds its
//! operands at that level (`PackedA::pack`, the filter banks'
//! `new_at`) for every entry of [`supported_levels`].

use std::sync::OnceLock;

/// The instruction-set tiers the micro-kernels are compiled for, in
/// the order hosts support them: each level implies the ones below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar kernels: the fallback on machines (or builds)
    /// without AVX2+FMA.
    Scalar,
    /// 256-bit AVX2 kernels with FMA accumulation.
    Avx2,
    /// The 512-bit GEMM micro-kernel (AVX-512F); every other kernel
    /// runs its AVX2 body. Bit-identical to `Avx2`.
    Avx512,
}

impl SimdLevel {
    /// Every level, narrowest first.
    pub const ALL: [SimdLevel; 3] = [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512];

    /// Stable lowercase name, for reports and diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// The widest level this machine runs, and so the level every kernel
/// in this process uses unless an operand was built at an explicit
/// one: CPUID-detected on first call, then cached.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    return SimdLevel::Avx512;
                }
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Every level this machine runs, narrowest first: what a test that
/// holds each level to its contract iterates.
pub fn supported_levels() -> Vec<SimdLevel> {
    SimdLevel::ALL
        .into_iter()
        .filter(|&l| host_supports(l))
        .collect()
}

/// Whether this host runs `level`.
pub fn host_supports(level: SimdLevel) -> bool {
    level <= simd_level()
}

/// Panics unless this host runs `level`. Every public entry that takes
/// a level — an operand packed for it, a kernel run at it — calls this
/// (or refuses through [`host_supports`]) before the level can reach a
/// `#[target_feature]` body, so safe code cannot run an instruction set
/// the host lacks; those bodies' SAFETY comments rest on it.
///
/// # Panics
/// When `level` is wider than [`simd_level`].
#[inline]
pub fn assert_supported(level: SimdLevel) {
    if !host_supports(level) {
        unsupported(level);
    }
}

#[cold]
#[inline(never)]
fn unsupported(level: SimdLevel) -> ! {
    panic!(
        "SIMD level {} is not supported on this host (widest: {})",
        level.name(),
        simd_level().name()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_listed_up_to_detection() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2 && SimdLevel::Avx2 < SimdLevel::Avx512);
        let levels = supported_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert_eq!(simd_level(), *levels.last().unwrap());
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn a_level_is_supported_up_to_detection() {
        // The check agrees with the listing, and refuses what the host
        // lacks rather than running it.
        for level in SimdLevel::ALL {
            let listed = supported_levels().contains(&level);
            let ran = std::panic::catch_unwind(|| assert_supported(level)).is_ok();
            assert_eq!(ran, listed, "{level:?}");
        }
    }

    #[test]
    fn cached_level_is_stable() {
        let first = simd_level();
        assert_eq!(simd_level(), first);
    }
}
