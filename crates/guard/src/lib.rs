//! # wino-guard — fault isolation, numeric guardrails, graceful degradation
//!
//! The paper's auto-tuner (§3.3) and serving path assume every kernel
//! variant runs to completion and returns sane numbers. Table 3 and
//! Figure 4 show why that assumption fails in practice: large-α
//! Winograd transforms amplify rounding error catastrophically in f32
//! (wino-verify measured 4096× symbolic coefficient growth at
//! F(9,7)), and a single panicking or NaN-producing candidate can
//! poison a tuning sweep or serve garbage to callers. This crate turns
//! "accuracy must be checked, not assumed" into enforced runtime
//! policy:
//!
//! * [`sandbox`] — run untrusted work (tuner candidates) under
//!   `catch_unwind` with a wall-clock watchdog budget, classifying
//!   panics, overruns, and injected timeouts into a
//!   [`SandboxOutcome`] instead of letting them abort the sweep;
//! * [`guardrail`] — post-run numeric checks: a NaN/Inf scan and a
//!   relative-error spot-check against `conv::direct` on sampled
//!   output positions;
//! * [`GuardedConv`] — the graceful-degradation chain: non-fused
//!   Winograd → im2col → direct, demoting on panic, guardrail
//!   failure, or unsupported shape, with a `probe::diag` event and a
//!   per-cause counter per demotion;
//! * [`NumericGate`] — the accuracy-vs-α tradeoff as a gate: each
//!   `F(m,r)` must pass a spot-checked trial convolution before its
//!   tuning points are eligible for selection;
//! * [`Denylist`] — persistent quarantine of candidates that panicked,
//!   timed out, or produced non-finite numbers, so a bad variant is
//!   skipped on every subsequent sweep.
//!
//! Deterministic fault injection (`WINO_FAULT=<site>:<trigger>[:n]`)
//! proves every recovery path fires; the mechanism lives in
//! [`wino_probe::fault`] (hooks must sit *below* the crates they
//! instrument) and is re-exported here as [`fault`].
//!
//! ## Overhead contract
//!
//! With no fault armed and guardrails disabled, the guarded paths add
//! one relaxed atomic load per hook and nothing else — no allocation,
//! no branch beyond the gate. The repo benchmark's traced
//! `guard.overhead_ms` rung is guarded − raw on the same sweep.

#![warn(missing_docs)]

mod denylist;
mod gate;
mod guarded;
pub mod guardrail;
pub mod sandbox;

pub use denylist::{DenyCause, Denylist};
pub use gate::{GateVerdict, NumericGate};
pub use guarded::{
    Demotion, DemotionCause, Engine, GuardError, GuardedConv, GuardedOutput, WarmBanks,
};
pub use guardrail::{scan_finite, spot_check, GuardrailPolicy, NumericFault};
pub use sandbox::{payload_to_string, run_sandboxed, SandboxBudget, SandboxOutcome};
pub use wino_probe::fault;
