//! # wino-guard — numeric guardrails and graceful degradation
//!
//! The serving path assumes every kernel runs to completion and returns
//! sane numbers. Table 3 and Figure 4 show why that assumption fails in
//! practice: large-α Winograd transforms amplify rounding error
//! catastrophically in f32 (wino-verify measured 4096× symbolic
//! coefficient growth at F(9,7)), and a single panicking or
//! NaN-producing engine would serve garbage to callers. This crate
//! turns "accuracy must be checked, not assumed" into enforced runtime
//! policy:
//!
//! * [`guardrail`] — post-run numeric checks: a NaN/Inf scan and a
//!   relative-error spot-check against `conv::direct` on sampled
//!   output positions;
//! * [`run_chain`] — the graceful-degradation chain (a pinned plan's,
//!   or [`GuardedConv`]'s default non-fused Winograd → im2col →
//!   direct), demoting on a caught panic, guardrail failure, or
//!   unsupported shape, with a `probe::diag` event and a per-cause
//!   counter per demotion.
//!
//! Deterministic fault injection (`WINO_FAULT=<site>:<trigger>[:n]`)
//! proves every demotion path fires; the mechanism lives in
//! [`wino_probe::fault`] (hooks must sit *below* the crates they
//! instrument) and is re-exported here as [`fault`].
//!
//! ## Overhead contract
//!
//! With no fault armed, a fault hook costs one relaxed atomic load and
//! nothing else — no allocation, no branch beyond the gate. The
//! guardrails always run: per engine attempt, one `O(len)` finite scan
//! of the output and [`guardrail::SPOT_SAMPLES`] single-element direct
//! recomputations, independent of output size. The repo benchmark's
//! traced `guard.overhead_ms` rung is guarded − raw on the same sweep.

#![warn(missing_docs)]

mod guarded;
pub mod guardrail;

pub use guarded::{
    payload_to_string, run_chain, Demotion, DemotionCause, Engine, GuardError, GuardedConv,
    GuardedOutput, WarmBanks,
};
pub use guardrail::{scan_finite, spot_check, NumericFault};
pub use wino_probe::fault;
