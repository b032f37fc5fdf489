//! Runtime SIMD dispatch for the CPU micro-kernels.
//!
//! The paper's meta-programming pipeline specializes kernels at
//! generation time; on the host CPU the analogous move is to pick the
//! widest instruction set the machine actually has, once, at startup.
//! [`simd_level`] resolves that choice from CPUID detection plus the
//! `WINO_SIMD` override and caches it for the process lifetime —
//! every hot path reads one already-initialized atomic.
//!
//! The levels are ordered (`Scalar < Avx2 < Avx512`): a host that runs
//! one level runs every level below it, and [`supported_levels`] lists
//! them. `Avx512` is a GEMM register tier — the 14×32 `zmm`
//! micro-kernel; the transforms and gathers run their AVX2 bodies at it.
//!
//! Determinism contract (DESIGN.md §5.9): results are bit-identical
//! for a fixed dispatch choice at any thread count, and `Avx2` and
//! `Avx512` are bit-identical to each other — a `C` element is the same
//! FMA chain whichever register tile computes it. Only `Scalar` differs:
//! its kernels multiply then add where the vector ones fuse, so
//! `Scalar` and the vector levels may differ in the low bits.
//! `WINO_SIMD=off` therefore pins the exact pre-SIMD scalar code path,
//! which is the reference for reproducibility runs.
//!
//! `WINO_SIMD` accepts `off` (alias `scalar`), `avx2`, `avx512`, or
//! `auto` (empty/unset behaves like `auto`). Malformed values are *not*
//! silently ignored: a one-line warning goes through wino-probe's
//! diagnostics channel before falling back to detection — the same
//! contract `WINO_THREADS` has in `wino-runtime`. A level the host
//! lacks diags and falls back to scalar.

use std::sync::atomic::{AtomicU8, Ordering};

/// The instruction-set tiers the micro-kernels are compiled for, in
/// the order hosts support them: each level implies the ones below.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar kernels — the exact pre-SIMD code path, and the
    /// fallback on machines (or builds) without AVX2+FMA.
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

    /// Stable lowercase name, as accepted by `WINO_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// Widest level this machine supports (CPUID-detected, no env input).
pub fn detect_simd() -> SimdLevel {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return SimdLevel::Avx512;
            }
            return SimdLevel::Avx2;
        }
    }
    SimdLevel::Scalar
}

/// Every level this machine runs, narrowest first: what a test that
/// holds each level to its contract iterates.
pub fn supported_levels() -> Vec<SimdLevel> {
    let widest = detected();
    SimdLevel::ALL
        .into_iter()
        .filter(|&l| level_supported(l, widest))
        .collect()
}

/// Whether a host whose widest level is `detected` runs `level`: pure,
/// so tests can drive it with any pair.
pub fn level_supported(level: SimdLevel, detected: SimdLevel) -> bool {
    level <= detected
}

/// [`detect_simd`], cached for the process (one relaxed load after
/// the first call).
fn detected() -> SimdLevel {
    static DETECTED: AtomicU8 = AtomicU8::new(UNSET);
    match decode(DETECTED.load(Ordering::Relaxed)) {
        Some(level) => level,
        None => {
            let level = detect_simd();
            DETECTED.store(encode(level), Ordering::Relaxed);
            level
        }
    }
}

/// Whether this host runs `level`: [`level_supported`] against the
/// cached [`detect_simd`].
pub fn host_supports(level: SimdLevel) -> bool {
    level == SimdLevel::Scalar || level_supported(level, detected())
}

/// Panics unless this host runs `level`. Every public entry that takes
/// a level — an operand packed for it, a kernel run at it — calls this
/// (or refuses through [`host_supports`]) before the level can reach a
/// `#[target_feature]` body, so safe code cannot run an instruction set
/// the host lacks; those bodies' SAFETY comments rest on it.
///
/// # Panics
/// When `level` is wider than the host's [`detect_simd`].
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
        detected().name()
    )
}

/// Resolves a `WINO_SIMD` value (`None` = unset) against detection.
/// Pure function of its inputs so tests can drive every branch without
/// touching process environment; malformed or unsatisfiable values
/// diag and fall back explicitly.
pub fn resolve_simd(raw: Option<&str>, detected: SimdLevel) -> SimdLevel {
    let Some(raw) = raw else { return detected };
    let (requested, needs) = match raw.trim().to_ascii_lowercase().as_str() {
        "off" | "scalar" => return SimdLevel::Scalar,
        "auto" | "" => return detected,
        "avx2" => (SimdLevel::Avx2, "avx2+fma"),
        "avx512" => (SimdLevel::Avx512, "avx2+fma+avx512f"),
        _ => {
            wino_probe::diag(format!(
                "invalid WINO_SIMD={raw:?} (expected off|avx2|avx512|auto); \
                 falling back to detected level {}",
                detected.name()
            ));
            return detected;
        }
    };
    if requested <= detected {
        requested
    } else {
        wino_probe::diag(format!(
            "WINO_SIMD={raw:?} requested but {needs} not available; \
             falling back to scalar kernels"
        ));
        SimdLevel::Scalar
    }
}

/// Level encoding in the process-wide cache: 0 = unresolved.
const UNSET: u8 = 0;
const SCALAR: u8 = 1;
const AVX2: u8 = 2;
const AVX512: u8 = 3;

static LEVEL: AtomicU8 = AtomicU8::new(UNSET);

fn decode(code: u8) -> Option<SimdLevel> {
    match code {
        SCALAR => Some(SimdLevel::Scalar),
        AVX2 => Some(SimdLevel::Avx2),
        AVX512 => Some(SimdLevel::Avx512),
        _ => None,
    }
}

fn encode(level: SimdLevel) -> u8 {
    match level {
        SimdLevel::Scalar => SCALAR,
        SimdLevel::Avx2 => AVX2,
        SimdLevel::Avx512 => AVX512,
    }
}

/// The dispatch level every kernel in this process uses: `WINO_SIMD`
/// resolved against detection on first call, then cached (one relaxed
/// load thereafter). Changing the env var mid-process has no effect —
/// the level is part of the process's determinism contract.
pub fn simd_level() -> SimdLevel {
    match decode(LEVEL.load(Ordering::Relaxed)) {
        Some(level) => level,
        None => {
            let env = std::env::var("WINO_SIMD").ok();
            let level = resolve_simd(env.as_deref(), detected());
            // Racing initializers compute the same value (env +
            // detection are stable), so last-write-wins is fine.
            LEVEL.store(encode(level), Ordering::Relaxed);
            level
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_levels_resolve_directly() {
        for detected in SimdLevel::ALL {
            assert_eq!(resolve_simd(Some("off"), detected), SimdLevel::Scalar);
            assert_eq!(resolve_simd(Some("scalar"), detected), SimdLevel::Scalar);
            assert_eq!(resolve_simd(Some(" OFF "), detected), SimdLevel::Scalar);
            assert_eq!(resolve_simd(None, detected), detected);
            assert_eq!(resolve_simd(Some("auto"), detected), detected);
            assert_eq!(resolve_simd(Some(""), detected), detected);
        }
        // A pinned level is honoured on every host that has it, not
        // only on one whose widest level it is.
        assert_eq!(resolve_simd(Some("avx2"), SimdLevel::Avx2), SimdLevel::Avx2);
        assert_eq!(
            resolve_simd(Some("avx2"), SimdLevel::Avx512),
            SimdLevel::Avx2
        );
        assert_eq!(
            resolve_simd(Some("AVX512"), SimdLevel::Avx512),
            SimdLevel::Avx512
        );
    }

    #[test]
    fn levels_are_ordered_and_listed_up_to_detection() {
        assert!(SimdLevel::Scalar < SimdLevel::Avx2 && SimdLevel::Avx2 < SimdLevel::Avx512);
        let levels = supported_levels();
        assert_eq!(levels[0], SimdLevel::Scalar);
        assert_eq!(levels.last(), Some(&detect_simd()));
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bad_values_diag_and_fall_back() {
        // One test for both diag paths: the diagnostics buffer is
        // process-global, and two tests draining it concurrently
        // could steal each other's messages.
        assert_eq!(resolve_simd(Some("sse9"), SimdLevel::Avx2), SimdLevel::Avx2);
        assert_eq!(
            resolve_simd(Some("avx2"), SimdLevel::Scalar),
            SimdLevel::Scalar
        );
        assert_eq!(
            resolve_simd(Some("avx512"), SimdLevel::Avx2),
            SimdLevel::Scalar
        );
        let diags = wino_probe::take_diagnostics();
        assert!(
            diags.iter().any(|d| d.contains("invalid WINO_SIMD")
                && d.contains("sse9")
                && d.contains("falling back")),
            "missing malformed-value diagnostic: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.contains("WINO_SIMD") && d.contains("not available")),
            "missing unsatisfiable-request diagnostic: {diags:?}"
        );
        assert!(
            diags
                .iter()
                .any(|d| d.contains("avx512f") && d.contains("not available")),
            "missing unsatisfiable avx512 diagnostic: {diags:?}"
        );
    }

    #[test]
    fn a_level_is_supported_up_to_detection() {
        use SimdLevel::*;
        let pairs = [
            (Scalar, Scalar, true),
            (Avx2, Scalar, false),
            (Avx512, Scalar, false),
            (Scalar, Avx2, true),
            (Avx2, Avx2, true),
            (Avx512, Avx2, false),
            (Scalar, Avx512, true),
            (Avx2, Avx512, true),
            (Avx512, Avx512, true),
        ];
        for (level, detected, want) in pairs {
            assert_eq!(
                level_supported(level, detected),
                want,
                "{level:?} on {detected:?}"
            );
        }
        // The cached check agrees with the listing, and refuses what
        // the host lacks rather than running it.
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
