//! The graceful-degradation chain: [`run_chain`].
//!
//! A caller asking for "the fast engine" should never receive a panic
//! or a tensor full of NaN because the fast engine misbehaved on their
//! shape. [`run_chain`] runs a *chain* of engines — [`GuardedConv`]'s
//! default is non-fused Winograd → im2col → direct — and demotes to the
//! next entry whenever the current one:
//!
//! * panics (caught with `catch_unwind`),
//! * returns a [`wino_conv::ConvError`] (shape/stride/α unsupported),
//! * or produces output the [`guardrail`](crate::guardrail) rejects
//!   (NaN/Inf, or spot-check disagreement with the direct formula).
//!
//! Every demotion emits a `probe::diag` line and bumps a per-cause
//! counter (`guard.demote.panic` / `guard.demote.guardrail` /
//! `guard.demote.unsupported`), so a fleet that is silently riding its
//! fallback shows up in any probe summary. The chain ends at direct
//! convolution, which has no numeric failure mode short of bad inputs;
//! if even it fails, [`GuardError::Exhausted`] reports the full
//! demotion history instead of panicking.

use std::panic::{self, AssertUnwindSafe};

use wino_conv::{
    conv_direct_f32, conv_im2col, conv_winograd, conv_winograd_precomputed, ConvError,
    Im2colFilters, PrecomputedFilters, WinogradConfig,
};
use wino_gemm::GemmConfig;
use wino_probe::Counter;
use wino_tensor::{ConvDesc, Tensor4};

use crate::guardrail::{scan_finite, spot_check, NumericFault};

static DEMOTE_PANIC: Counter = Counter::new("guard.demote.panic");
static DEMOTE_GUARDRAIL: Counter = Counter::new("guard.demote.guardrail");
static DEMOTE_UNSUPPORTED: Counter = Counter::new("guard.demote.unsupported");
static SERVED_FALLBACK: Counter = Counter::new("guard.served_by_fallback");

/// Renders a panic payload the way the default hook would. Public so
/// layers above the guard (`wino-serve` crash containment) can report
/// the same payload text in their own error types.
pub fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One engine in the degradation chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// Non-fused (batched-SGEMM) Winograd with output tile `m`.
    NonFusedWinograd(usize),
    /// im2col + blocked SGEMM.
    Im2col,
    /// Direct sliding-window (the terminal fallback).
    Direct,
}

/// Filter banks prepared ahead of a guarded run (at registration, by a
/// serving layer): each spares the engine it belongs to its per-call
/// filter work, and neither changes an output bit. The raw filters are
/// still required — fallback engines and the spot-check guardrail
/// consume them.
#[derive(Clone, Copy, Default)]
pub struct WarmBanks<'a> {
    /// `U = G·g·Gᵀ` for chain entries whose Winograd `m` matches; it
    /// must come from the recipes the cold path would resolve
    /// (optimized options, the chain's default).
    pub winograd: Option<&'a PrecomputedFilters>,
    /// The packed `(K, C·r²)` filter matrix for the im2col entry.
    pub im2col: Option<&'a Im2colFilters>,
}

impl Engine {
    fn run(
        &self,
        input: &Tensor4<f32>,
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        gemm: &GemmConfig,
        banks: WarmBanks<'_>,
    ) -> Result<Tensor4<f32>, ConvError> {
        match *self {
            Engine::NonFusedWinograd(m) => {
                let cfg = WinogradConfig::new(m).with_gemm_config(*gemm);
                match banks.winograd {
                    // A warm bank with matching m skips the filter transform.
                    // Its values equal the cold transform's (same recipes), so
                    // the output is bit-identical either way.
                    Some(pre) if pre.spec().m == m => {
                        conv_winograd_precomputed(input, pre, desc, cfg.variant, gemm)
                    }
                    _ => conv_winograd(input, filters, desc, &cfg),
                }
            }
            Engine::Im2col => match banks.im2col {
                Some(bank) => bank.conv(input, desc),
                None => conv_im2col(input, filters, desc),
            },
            Engine::Direct => conv_direct_f32(input, filters, desc),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::NonFusedWinograd(m) => write!(f, "winograd-nonfused(m={m})"),
            Engine::Im2col => f.write_str("im2col"),
            Engine::Direct => f.write_str("direct"),
        }
    }
}

/// Why an engine was demoted.
#[derive(Clone, Debug, PartialEq)]
pub enum DemotionCause {
    /// The engine panicked; payload rendered as a string.
    Panic(String),
    /// The output failed a numeric guardrail.
    Guardrail(NumericFault),
    /// The engine refused the convolution (shape/stride/α).
    Unsupported(String),
}

impl std::fmt::Display for DemotionCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DemotionCause::Panic(msg) => write!(f, "panic: {msg}"),
            DemotionCause::Guardrail(fault) => write!(f, "guardrail: {fault}"),
            DemotionCause::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

/// A recorded demotion: which engine failed, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct Demotion {
    /// The engine that was abandoned.
    pub engine: Engine,
    /// What it did wrong.
    pub cause: DemotionCause,
}

/// Every engine in the chain failed.
#[derive(Clone, Debug, PartialEq)]
pub struct GuardError {
    /// The full demotion history, in chain order.
    pub demotions: Vec<Demotion>,
}

impl std::fmt::Display for GuardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all {} engines in the chain failed:",
            self.demotions.len()
        )?;
        for d in &self.demotions {
            write!(f, " [{}: {}]", d.engine, d.cause)?;
        }
        Ok(())
    }
}

impl std::error::Error for GuardError {}

/// A successful guarded convolution: the output plus the provenance of
/// how it was obtained.
#[derive(Clone, Debug)]
pub struct GuardedOutput {
    /// The convolution result.
    pub output: Tensor4<f32>,
    /// The engine that produced it.
    pub served_by: Engine,
    /// Engines tried and abandoned before `served_by`, in order.
    pub demotions: Vec<Demotion>,
}

/// Runs `chain` until an engine completes *and* passes the
/// guardrails — the one chain walk: every guarded convolution, a
/// pinned plan's or a [`GuardedConv`]'s, is this call. `banks` are the
/// filter banks prepared ahead (a serving layer's steady state); the
/// output is bit-identical to the cold run's (see [`WarmBanks`]).
///
/// # Errors
/// [`GuardError`] when every engine in the chain failed; the error
/// carries the per-engine causes.
pub fn run_chain(
    chain: &[Engine],
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    gemm: &GemmConfig,
    banks: WarmBanks<'_>,
) -> Result<GuardedOutput, GuardError> {
    let mut demotions = Vec::new();
    for (i, engine) in chain.iter().enumerate() {
        match attempt(*engine, input, filters, desc, gemm, banks) {
            Ok(output) => {
                if i > 0 {
                    SERVED_FALLBACK.add(1);
                }
                return Ok(GuardedOutput {
                    output,
                    served_by: *engine,
                    demotions,
                });
            }
            Err(cause) => {
                let reason = match cause {
                    DemotionCause::Panic(_) => {
                        DEMOTE_PANIC.add(1);
                        "guard.demote.panic"
                    }
                    DemotionCause::Guardrail(_) => {
                        DEMOTE_GUARDRAIL.add(1);
                        "guard.demote.guardrail"
                    }
                    DemotionCause::Unsupported(_) => {
                        DEMOTE_UNSUPPORTED.add(1);
                        "guard.demote.unsupported"
                    }
                };
                wino_probe::diag(format!("guard: demoting from {engine}: {cause}"));
                // With the flight recorder armed, every demotion
                // dumps the last-N-events context that led to it
                // (a no-op returning None when disarmed).
                wino_probe::flight::dump_incident(reason);
                demotions.push(Demotion {
                    engine: *engine,
                    cause,
                });
            }
        }
    }
    wino_probe::flight::dump_incident("guard.exhausted");
    Err(GuardError { demotions })
}

/// One engine attempt: caught panic + guardrails.
fn attempt(
    engine: Engine,
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    gemm: &GemmConfig,
    banks: WarmBanks<'_>,
) -> Result<Tensor4<f32>, DemotionCause> {
    let result = panic::catch_unwind(AssertUnwindSafe(|| {
        engine.run(input, filters, desc, gemm, banks)
    }));
    let output = match result {
        Err(payload) => return Err(DemotionCause::Panic(payload_to_string(payload))),
        Ok(Err(e)) => return Err(DemotionCause::Unsupported(e.to_string())),
        Ok(Ok(out)) => out,
    };
    scan_finite(output.data()).map_err(DemotionCause::Guardrail)?;
    spot_check(&output, input, filters, desc).map_err(DemotionCause::Guardrail)?;
    Ok(output)
}

/// A chain and a GEMM blocking held together for ad-hoc guarded
/// convolutions: each run is [`run_chain`] over them.
pub struct GuardedConv {
    chain: Vec<Engine>,
    gemm: GemmConfig,
}

impl GuardedConv {
    /// The default chain for output tile `m`:
    /// non-fused Winograd → im2col → direct.
    pub fn new(m: usize) -> Self {
        GuardedConv {
            chain: vec![Engine::NonFusedWinograd(m), Engine::Im2col, Engine::Direct],
            gemm: GemmConfig::default(),
        }
    }

    /// Replaces the chain (first entry is tried first).
    pub fn with_chain(mut self, chain: Vec<Engine>) -> Self {
        self.chain = chain;
        self
    }

    /// Sets the GEMM blocking used by the Winograd engines (e.g. the
    /// tuner's winning `MNt`/`MNb` for this layer).
    pub fn with_gemm_config(mut self, gemm: GemmConfig) -> Self {
        self.gemm = gemm;
        self
    }

    /// The configured chain.
    pub fn chain(&self) -> &[Engine] {
        &self.chain
    }

    /// [`run_chain`] cold: every engine does its own filter work.
    ///
    /// # Errors
    /// As [`run_chain`].
    pub fn run(
        &self,
        input: &Tensor4<f32>,
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
    ) -> Result<GuardedOutput, GuardError> {
        run_chain(
            &self.chain,
            input,
            filters,
            desc,
            &self.gemm,
            WarmBanks::default(),
        )
    }

    /// [`run_chain`] with a warm Winograd bank only: chain entries
    /// whose Winograd `m` matches `warm` skip the filter transform.
    ///
    /// # Errors
    /// As [`run_chain`].
    pub fn run_warm(
        &self,
        input: &Tensor4<f32>,
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        warm: Option<&PrecomputedFilters>,
    ) -> Result<GuardedOutput, GuardError> {
        let banks = WarmBanks {
            winograd: warm,
            im2col: None,
        };
        run_chain(&self.chain, input, filters, desc, &self.gemm, banks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_probe::fault;

    fn fixture() -> (Tensor4<f32>, Tensor4<f32>, ConvDesc) {
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 8, 8, 3);
        let input = Tensor4::from_fn(1, 3, 8, 8, |n, c, y, x| {
            ((n + 2 * c + 3 * y + 5 * x) % 7) as f32 * 0.25 - 0.5
        });
        let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, y, x| {
            ((k + c + y + 2 * x) % 5) as f32 * 0.125 - 0.25
        });
        (input, filters, desc)
    }

    #[test]
    fn healthy_chain_serves_from_the_head() {
        let _scope = fault::scoped("");
        let (input, filters, desc) = fixture();
        let guarded = GuardedConv::new(4);
        assert_eq!(
            guarded.chain(),
            [Engine::NonFusedWinograd(4), Engine::Im2col, Engine::Direct]
        );
        let out = guarded.run(&input, &filters, &desc).unwrap();
        assert_eq!(out.served_by, Engine::NonFusedWinograd(4));
        assert!(out.demotions.is_empty());
        let reference = conv_direct_f32(&input, &filters, &desc).unwrap();
        for i in 0..reference.len() {
            assert!((out.output.data()[i] - reference.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn unsupported_stride_demotes_to_im2col() {
        let _scope = fault::scoped("");
        // Stride 2: the Winograd engine refuses, im2col serves.
        let desc = ConvDesc::new(3, 2, 1, 2, 1, 8, 8, 3);
        let input = Tensor4::from_fn(1, 3, 8, 8, |_, c, y, x| (c + y + x) as f32 * 0.1);
        let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, y, x| (k + c + y + x) as f32 * 0.1);
        let guarded = GuardedConv::new(4);
        let out = guarded.run(&input, &filters, &desc).unwrap();
        assert_eq!(out.served_by, Engine::Im2col);
        assert_eq!(out.demotions.len(), 1);
        assert!(matches!(
            out.demotions[0].cause,
            DemotionCause::Unsupported(_)
        ));
    }

    #[test]
    fn injected_transform_nan_demotes_past_winograd() {
        let _scope = fault::scoped("transform:nan");
        let (input, filters, desc) = fixture();
        let guarded = GuardedConv::new(4);
        let out = guarded.run(&input, &filters, &desc).unwrap();
        // The Winograd engine runs the transform kernels; im2col does
        // not, so it serves.
        assert_eq!(out.served_by, Engine::Im2col);
        assert_eq!(out.demotions.len(), 1);
        assert!(matches!(
            out.demotions[0].cause,
            DemotionCause::Guardrail(_)
        ));
    }

    #[test]
    fn injected_transform_panic_is_caught_and_demoted() {
        let _scope = fault::scoped("transform:panic");
        let (input, filters, desc) = fixture();
        let guarded = GuardedConv::new(4);
        let out = guarded.run(&input, &filters, &desc).unwrap();
        assert_eq!(out.served_by, Engine::Im2col);
        assert!(out
            .demotions
            .iter()
            .all(|d| matches!(d.cause, DemotionCause::Panic(_))));
    }

    #[test]
    fn injected_gemm_fault_reaches_direct() {
        // The GEMM hook poisons every SGEMM: the Winograd engine and
        // im2col both fail, only direct survives.
        let _scope = fault::scoped("gemm:nan");
        let (input, filters, desc) = fixture();
        let guarded = GuardedConv::new(4);
        let out = guarded.run(&input, &filters, &desc).unwrap();
        assert_eq!(out.served_by, Engine::Direct);
        assert_eq!(out.demotions.len(), 2);
    }

    #[test]
    fn exhausted_chain_reports_all_causes() {
        let _scope = fault::scoped("gemm:panic");
        let (input, filters, desc) = fixture();
        // A chain with no SGEMM-free fallback: everything fails.
        let guarded =
            GuardedConv::new(4).with_chain(vec![Engine::NonFusedWinograd(4), Engine::Im2col]);
        let err = guarded.run(&input, &filters, &desc).unwrap_err();
        assert_eq!(err.demotions.len(), 2);
        assert!(err.to_string().contains("im2col"));
    }

    #[test]
    fn warm_filters_bit_identical_to_cold_run() {
        let _scope = fault::scoped("");
        let (input, filters, desc) = fixture();
        let guarded = GuardedConv::new(4);
        let cold = guarded.run(&input, &filters, &desc).unwrap();
        let pre = PrecomputedFilters::for_config(&filters, &desc, &WinogradConfig::new(4)).unwrap();
        let warm = guarded
            .run_warm(&input, &filters, &desc, Some(&pre))
            .unwrap();
        assert_eq!(warm.served_by, Engine::NonFusedWinograd(4));
        assert!(warm.demotions.is_empty());
        for (a, b) in warm.output.data().iter().zip(cold.output.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn warm_chain_still_demotes_under_fault() {
        // A poisoned GEMM kills the warm Winograd head; the chain
        // must still land on direct even though warm filters were
        // supplied.
        let (input, filters, desc) = fixture();
        // The bank is built under the fault lock too: a test arming a
        // transform fault beside this one must not reach its transform.
        let pre = {
            let _clean = fault::scoped("");
            PrecomputedFilters::for_config(&filters, &desc, &WinogradConfig::new(4)).unwrap()
        };
        let _scope = fault::scoped("gemm:nan");
        let guarded =
            GuardedConv::new(4).with_chain(vec![Engine::NonFusedWinograd(4), Engine::Direct]);
        let out = guarded
            .run_warm(&input, &filters, &desc, Some(&pre))
            .unwrap();
        assert_eq!(out.served_by, Engine::Direct);
        assert_eq!(out.demotions.len(), 1);
    }
}
