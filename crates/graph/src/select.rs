//! Variant pre-selection: tuned plans first, rules second.
//!
//! The framework needs a sound engine per layer ("once the framework
//! picks a Winograd convolution according to the hardware and the
//! convolution parameters", §3). The preferred source is a persisted
//! tuning cache — serving must pin the *specific* tuned `(m, variant)`
//! plan per layer rather than re-deciding per request. When no tuned
//! plan exists, static rules encode the paper's own findings: Winograd
//! for unit-stride 3×3 and 5×5 layers (filters above five "are
//! probably not suitable for deployment", §4.2), im2col + GEMM
//! otherwise, with the output tile size picked by the paper's
//! sweet-spot analysis (α = 8 where possible, §4.2: F(6,3) and
//! F(4,5)).
//!
//! [`select_engine`] consults the cache named by the `WINO_TUNE_CACHE`
//! environment variable (device key `WINO_TUNE_DEVICE`, default
//! `"cpu"`), loaded once per process through the never-failing
//! `load_or_rebuild`. [`select_engine_cached`] takes an explicit cache
//! for callers that manage their own (the serving plan registry).

use std::path::Path;
use std::sync::OnceLock;

use wino_codegen::PlanVariant;
use wino_conv::{WinogradConfig, WinogradVariant};
use wino_tensor::ConvDesc;
use wino_tuner::{Evaluation, TuningCache};

use crate::graph::EngineChoice;

/// Default output tile size for a filter size, from the paper's
/// conclusion: "choosing the right output tile size m, depending on
/// the filter size … e.g. F(m = 6, r = 3), F(m = 4, r = 5)".
pub fn default_tile_size(r: usize) -> usize {
    match r {
        3 => 6,
        5 => 4,
        7 => 2,
        _ => 2,
    }
}

/// Picks the engine for a convolution: the process-wide tuning cache
/// (`WINO_TUNE_CACHE`) when one is configured and holds this shape,
/// the static heuristic otherwise.
pub fn select_engine(desc: &ConvDesc) -> EngineChoice {
    match env_cache() {
        Some((cache, device)) => select_engine_cached(desc, cache, device),
        None => select_engine_static(desc),
    }
}

/// Picks the engine for a convolution from an explicit tuning cache,
/// falling back to [`select_engine_static`] when the cache has no plan
/// for this (shape, device) — with a `probe::diag` note if the cache
/// holds other plans (a hole in a tuned set is worth a line; a cache
/// nobody tuned into is the untuned default, not a finding).
pub fn select_engine_cached(desc: &ConvDesc, cache: &TuningCache, device: &str) -> EngineChoice {
    match cache.get(desc, device) {
        Some(eval) => engine_from_evaluation(&eval),
        None => {
            if !cache.is_empty() {
                wino_probe::diag(format!(
                    "select: no tuned plan for {desc} on {device:?}; using static heuristic"
                ));
            }
            select_engine_static(desc)
        }
    }
}

/// Maps a tuned evaluation onto the engine it prescribes, carrying the
/// winning GEMM blocking into the Winograd configuration.
pub fn engine_from_evaluation(eval: &Evaluation) -> EngineChoice {
    let winograd = |m: usize, variant: WinogradVariant| {
        EngineChoice::Winograd(
            WinogradConfig::new(m)
                .with_variant(variant)
                .with_gemm_config(eval.point.gemm_config()),
        )
    };
    match eval.point.variant {
        PlanVariant::Direct => EngineChoice::Direct,
        PlanVariant::Im2col => EngineChoice::Im2col,
        PlanVariant::WinogradNonFused { m } => winograd(m, WinogradVariant::NonFused),
        PlanVariant::WinogradFused { m } => winograd(m, WinogradVariant::Fused),
    }
}

/// The rule-based selection, independent of any tuning state.
pub fn select_engine_static(desc: &ConvDesc) -> EngineChoice {
    if !desc.winograd_applicable() || desc.ksz > 5 || desc.ksz < 3 {
        return EngineChoice::Im2col;
    }
    let m = default_tile_size(desc.ksz);
    // Small output maps cannot amortize a large tile.
    let m = m.min(desc.out_h().max(1)).max(2);
    // Fused kernels suit small convolutions (small α and few
    // channels); non-fused otherwise (§3.2.2's rule of thumb).
    let variant = if desc.ksz == 3 && desc.in_ch <= 256 && m <= 4 {
        WinogradVariant::Fused
    } else {
        WinogradVariant::NonFused
    };
    EngineChoice::Winograd(WinogradConfig::new(m).with_variant(variant))
}

/// The cache named by `WINO_TUNE_CACHE`, loaded once per process with
/// the never-failing loader; `None` when the variable is unset.
fn env_cache() -> Option<&'static (TuningCache, String)> {
    static CACHE: OnceLock<Option<(TuningCache, String)>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let path = std::env::var_os("WINO_TUNE_CACHE")?;
            let device = std::env::var("WINO_TUNE_DEVICE").unwrap_or_else(|_| "cpu".to_string());
            Some((TuningCache::load_or_rebuild(Path::new(&path)), device))
        })
        .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_by_three_gets_winograd() {
        let d = ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine(&d), EngineChoice::Winograd(cfg) if cfg.m == 6));
    }

    #[test]
    fn five_by_five_gets_f45() {
        let d = ConvDesc::new(5, 1, 2, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine(&d), EngineChoice::Winograd(cfg) if cfg.m == 4));
    }

    #[test]
    fn strided_and_large_filters_fall_back() {
        let strided = ConvDesc::new(3, 2, 1, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine(&strided), EngineChoice::Im2col));
        let seven = ConvDesc::new(7, 1, 3, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine(&seven), EngineChoice::Im2col));
        let one = ConvDesc::new(1, 1, 0, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine(&one), EngineChoice::Im2col));
    }

    #[test]
    fn tiny_outputs_clamp_tile_size() {
        let d = ConvDesc::new(3, 1, 1, 1024, 1, 6, 6, 384);
        if let EngineChoice::Winograd(cfg) = select_engine(&d) {
            assert!(cfg.m <= 6);
            assert!(cfg.m >= 2);
        } else {
            panic!("expected Winograd");
        }
    }

    #[test]
    fn default_tiles_give_alpha_8() {
        assert_eq!(default_tile_size(3) + 3 - 1, 8);
        assert_eq!(default_tile_size(5) + 5 - 1, 8);
        assert_eq!(default_tile_size(7) + 7 - 1, 8);
    }

    #[test]
    fn cached_plan_overrides_static_heuristic() {
        use wino_codegen::Unroll;
        use wino_tuner::TuningPoint;

        // The static rule would pick NonFused F(6,3) for this shape;
        // the cache prescribes Fused F(2,3) with its own blocking.
        let d = ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32);
        let cache = TuningCache::new();
        let point = TuningPoint {
            variant: PlanVariant::WinogradFused { m: 2 },
            unroll: Unroll::Full,
            mnt: 2,
            mnb: 4,
            threads: 1,
        };
        cache.put(
            &d,
            "cpu",
            &Evaluation {
                point,
                time_ms: 0.5,
            },
        );
        let choice = select_engine_cached(&d, &cache, "cpu");
        let EngineChoice::Winograd(cfg) = choice else {
            panic!("expected Winograd, got {choice:?}");
        };
        assert_eq!(cfg.m, 2);
        assert_eq!(cfg.variant, WinogradVariant::Fused);
        assert_eq!(cfg.gemm, point.gemm_config());
    }

    /// An untuned-looking evaluation prescribing a baseline engine.
    fn baseline(variant: PlanVariant) -> Evaluation {
        let point = wino_tuner::TuningPoint {
            variant,
            unroll: wino_codegen::Unroll::Full,
            mnt: 1,
            mnb: 8,
            threads: 1,
        };
        Evaluation {
            point,
            time_ms: 1.0,
        }
    }

    #[test]
    fn cache_miss_falls_back_with_diag() {
        let d = ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32);
        let cache = TuningCache::new();
        let select = |cache: &TuningCache| {
            wino_probe::set_mode(wino_probe::Mode::Summary);
            let _ = wino_probe::take_diagnostics();
            let choice = select_engine_cached(&d, cache, "cpu");
            let diags = wino_probe::take_diagnostics();
            wino_probe::set_mode(wino_probe::Mode::Off);
            assert_eq!(choice, select_engine_static(&d));
            diags.iter().any(|l| l.contains("no tuned plan"))
        };
        assert!(!select(&cache), "an empty cache must stay silent");
        // One unrelated entry makes it a tuned set with a hole.
        cache.put(&d, "another-device", &baseline(PlanVariant::Im2col));
        assert!(select(&cache), "expected a fallback diagnostic");
    }

    #[test]
    fn cached_baseline_variants_map_through() {
        let d = ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32);
        let cache = TuningCache::new();
        for (variant, expected) in [
            (PlanVariant::Im2col, EngineChoice::Im2col),
            (PlanVariant::Direct, EngineChoice::Direct),
        ] {
            cache.put(&d, "cpu", &baseline(variant));
            assert_eq!(select_engine_cached(&d, &cache, "cpu"), expected);
        }
    }
}
