//! Deterministic fault injection (`WINO_FAULT`).
//!
//! The guard layer (`wino-guard`) and the serving layer above it
//! promise that every recovery path — guardrail demotion, contained
//! batch and response failures — actually fires. Proving that
//! requires *causing* the faults on demand, at the exact sites where
//! real failures originate: the transform output of a tile, the GEMM
//! kernel, and — one layer up — the serve response-delivery path. This
//! module is that facility.
//!
//! It lives in `wino-probe` (the instrumentation substrate every crate
//! already depends on) rather than in `wino-guard` itself, because the
//! engine *hooks* sit in low-level crates (`wino-conv`, `wino-gemm`)
//! that the guard crate builds on top of — hooks at the bottom, policy
//! at the top. `wino-guard` re-exports this module as its public fault
//! API.
//!
//! ## Determinism contract
//!
//! Nothing here reads a clock or a random source. A fault spec is
//! `site:trigger[:n]`; without `:n` the fault fires on **every** check
//! of the site, with `:n` it fires exactly once, on the `n`-th check
//! (1-based, counted by a per-site atomic). Two runs with the same
//! spec and workload inject at identical points.
//!
//! ## Overhead contract
//!
//! When no fault is armed, every hook reduces to one relaxed atomic
//! load and a branch ([`armed`]), exactly like the probe's span and
//! counter gates — hot loops pay nothing else.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::MutexGuard;

use parking_lot::Mutex;

/// Injection sites — the places real failures originate: two in the
/// engine stack and one in the serving layer above it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Output of a Winograd tile transform in the engines (the one
    /// kernel call every transform stage makes per lane group).
    Transform,
    /// The blocked SGEMM kernel (covers plain, batched, im2col use).
    Gemm,
    /// Serve response delivery (a `Drop` discards the response so the
    /// waiter sees a closed channel; a `Panic` unwinds mid-send, inside
    /// the executor's batch containment).
    ServeResp,
}

/// All sites in declaration order — the one table a site's spec name,
/// armed bit and hit counter are read from.
pub const SITES: [Site; 3] = [Site::Transform, Site::Gemm, Site::ServeResp];

impl Site {
    fn index(self) -> usize {
        self as usize
    }

    fn bit(self) -> u8 {
        1 << self.index()
    }

    /// Spec-string name of the site.
    pub fn as_str(self) -> &'static str {
        match self {
            Site::Transform => "transform",
            Site::Gemm => "gemm",
            Site::ServeResp => "serve_resp",
        }
    }

    fn parse(s: &str) -> Option<Site> {
        SITES.into_iter().find(|site| site.as_str() == s)
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What an armed fault does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trigger {
    /// Panic at the site (`panic!` with a recognizable message).
    Panic,
    /// Poison a float output with NaN.
    Nan,
    /// Poison a float output with +∞.
    Inf,
    /// Discard the value the site was about to deliver (serve response
    /// delivery — the waiter observes a closed channel, never a hang).
    Drop,
}

/// All triggers in declaration order; the armed trigger is stored as
/// its index here.
const TRIGGERS: [Trigger; 4] = [Trigger::Panic, Trigger::Nan, Trigger::Inf, Trigger::Drop];

impl Trigger {
    /// Spec-string name of the trigger.
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::Panic => "panic",
            Trigger::Nan => "nan",
            Trigger::Inf => "inf",
            Trigger::Drop => "drop",
        }
    }

    fn parse(s: &str) -> Option<Trigger> {
        TRIGGERS.into_iter().find(|trigger| trigger.as_str() == s)
    }
}

impl std::fmt::Display for Trigger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The names of `all`, `|`-separated: what a parse error expects.
fn alternatives<T: std::fmt::Display>(all: &[T]) -> String {
    let names: Vec<String> = all.iter().map(T::to_string).collect();
    names.join("|")
}

/// A parsed fault specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultSpec {
    /// Where to inject.
    pub site: Site,
    /// What to do there.
    pub trigger: Trigger,
    /// `None`: fire on every check. `Some(n)`: fire exactly once, on
    /// the n-th check of the site (1-based).
    pub nth: Option<u64>,
}

impl FaultSpec {
    /// Parses `site:trigger[:n]` (e.g. `transform:nan`,
    /// `serve_resp:panic:3`).
    pub fn parse(spec: &str) -> Result<FaultSpec, String> {
        let mut parts = spec.trim().split(':');
        let site = parts.next().and_then(Site::parse).ok_or_else(|| {
            let sites = alternatives(&SITES);
            format!("unknown fault site in {spec:?} (expected {sites})")
        })?;
        let trigger = parts.next().and_then(Trigger::parse).ok_or_else(|| {
            let triggers = alternatives(&TRIGGERS);
            format!("unknown fault trigger in {spec:?} (expected {triggers})")
        })?;
        let nth =
            match parts.next() {
                None => None,
                Some(n) => Some(n.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    format!("fault count in {spec:?} must be a positive integer")
                })?),
            };
        if parts.next().is_some() {
            return Err(format!("trailing fields in fault spec {spec:?}"));
        }
        Ok(FaultSpec { site, trigger, nth })
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.nth {
            Some(n) => write!(f, "{}:{}:{n}", self.site, self.trigger),
            None => write!(f, "{}:{}", self.site, self.trigger),
        }
    }
}

/// Bitmask of armed sites — the single word every hook branches on.
static ARMED: AtomicU8 = AtomicU8::new(0);
/// The armed spec's trigger (its [`TRIGGERS`] index) + nth, readable
/// without a lock once armed.
static TRIGGER: AtomicU8 = AtomicU8::new(0);
static NTH: AtomicU64 = AtomicU64::new(0);
/// Per-site check counters (indexed by `Site::index`).
static HITS: [AtomicU64; SITES.len()] = [const { AtomicU64::new(0) }; SITES.len()];

/// Serializes tests that arm faults (global process state).
static SCOPE_LOCK: Mutex<()> = Mutex::new(());

/// `true` when a fault is armed at `site`. The disabled path is one
/// relaxed load and a branch — the same cost class as [`crate::enabled`].
#[inline(always)]
pub fn armed(site: Site) -> bool {
    ARMED.load(Ordering::Relaxed) & site.bit() != 0
}

/// Arms `spec` (replacing any armed fault) or disarms everything with
/// `None`. Hit counters are reset.
pub fn set_fault(spec: Option<FaultSpec>) {
    // Disarm first so hooks never observe a half-written spec.
    ARMED.store(0, Ordering::SeqCst);
    for hit in &HITS {
        hit.store(0, Ordering::SeqCst);
    }
    if let Some(spec) = spec {
        TRIGGER.store(spec.trigger as u8, Ordering::SeqCst);
        NTH.store(spec.nth.unwrap_or(0), Ordering::SeqCst);
        ARMED.store(spec.site.bit(), Ordering::SeqCst);
    }
}

/// Parses `WINO_FAULT` and arms it. Unset or empty disarms; malformed
/// specs warn through [`crate::diag`] and disarm.
pub fn init_from_env() -> Option<FaultSpec> {
    init_from_value(&std::env::var("WINO_FAULT").unwrap_or_default())
}

/// Resolves one `WINO_FAULT` value and arms it — the whole contract
/// behind [`init_from_env`], factored out so tests can drive the
/// fall-back paths without touching process environment. Empty or
/// `off` disarms silently; a malformed spec warns through
/// [`crate::diag`] and disarms explicitly (never a silent ignore).
pub fn init_from_value(raw: &str) -> Option<FaultSpec> {
    let value = raw.trim();
    if value.is_empty() || value == "off" {
        set_fault(None);
        return None;
    }
    match FaultSpec::parse(value) {
        Ok(spec) => {
            set_fault(Some(spec));
            Some(spec)
        }
        Err(msg) => {
            crate::diag(format!("ignoring WINO_FAULT: {msg}"));
            set_fault(None);
            None
        }
    }
}

/// Cold half of a hook: counts the check and decides whether the armed
/// fault fires here. Call only after [`armed`] returned `true`.
#[cold]
pub fn fire(site: Site) -> Option<Trigger> {
    if !armed(site) {
        return None;
    }
    let hit = HITS[site.index()].fetch_add(1, Ordering::Relaxed) + 1;
    let nth = NTH.load(Ordering::Relaxed);
    if nth != 0 && hit != nth {
        return None;
    }
    let trigger = TRIGGERS[usize::from(TRIGGER.load(Ordering::Relaxed))];
    crate::counter(&format!("fault.injected.{site}")).add(1);
    Some(trigger)
}

/// Float-output hook: poisons `out` (NaN/Inf triggers) or panics
/// (Panic trigger). Other triggers are ignored at float sites. The
/// not-armed path is [`armed`]'s single load.
#[inline]
pub fn inject_f32(site: Site, out: &mut [f32]) {
    if !armed(site) {
        return;
    }
    inject_f32_slow(site, out);
}

#[cold]
fn inject_f32_slow(site: Site, out: &mut [f32]) {
    match fire(site) {
        Some(Trigger::Panic) => panic!("wino-fault: injected panic at {site}"),
        Some(Trigger::Nan) => {
            if let Some(v) = out.first_mut() {
                *v = f32::NAN;
            }
        }
        Some(Trigger::Inf) => {
            if let Some(v) = out.first_mut() {
                *v = f32::INFINITY;
            }
        }
        _ => {}
    }
}

/// RAII guard arming `spec` for the duration of a test, serialized on
/// a process-wide lock so concurrent tests never observe each other's
/// faults. Disarms on drop.
pub struct ScopedFault {
    _lock: MutexGuard<'static, ()>,
}

/// Arms `spec` (parse errors panic — test-only API) and returns the
/// scope guard. Pass an empty string to hold the serialization lock
/// with no fault armed (for baseline halves of fault tests).
pub fn scoped(spec: &str) -> ScopedFault {
    let lock = SCOPE_LOCK.lock();
    let parsed = if spec.trim().is_empty() {
        None
    } else {
        Some(FaultSpec::parse(spec).expect("valid fault spec"))
    };
    set_fault(parsed);
    ScopedFault { _lock: lock }
}

impl Drop for ScopedFault {
    fn drop(&mut self) {
        set_fault(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        assert_eq!(
            FaultSpec::parse("transform:nan").unwrap(),
            FaultSpec {
                site: Site::Transform,
                trigger: Trigger::Nan,
                nth: None
            }
        );
        assert_eq!(
            FaultSpec::parse("gemm:panic:3").unwrap(),
            FaultSpec {
                site: Site::Gemm,
                trigger: Trigger::Panic,
                nth: Some(3)
            }
        );
        assert!(FaultSpec::parse("quantum:nan").is_err());
        assert!(FaultSpec::parse("gemm:melt").is_err());
        assert!(FaultSpec::parse("gemm:nan:0").is_err());
        assert!(FaultSpec::parse("gemm:nan:2:junk").is_err());
        // The tuner, cache, serve_exec and serve_sched sites and the
        // timeout/corrupt/stall triggers are gone: nothing checks them.
        let site_err = FaultSpec::parse("tuner:panic:3").unwrap_err();
        assert!(FaultSpec::parse("cache:corrupt").is_err());
        assert!(FaultSpec::parse("serve_exec:panic").is_err());
        assert!(FaultSpec::parse("serve_sched:panic").is_err());
        let trigger_err = FaultSpec::parse("gemm:timeout").unwrap_err();
        assert!(FaultSpec::parse("serve_resp:stall").is_err());
        // The expected lists are rendered from the tables.
        assert!(
            site_err.ends_with("(expected transform|gemm|serve_resp)"),
            "{site_err}"
        );
        assert!(
            trigger_err.ends_with("(expected panic|nan|inf|drop)"),
            "{trigger_err}"
        );
        let spec = FaultSpec::parse("transform:inf").unwrap();
        assert_eq!(spec.to_string(), "transform:inf");
    }

    #[test]
    fn serve_sites_parse_and_round_trip() {
        let spec = FaultSpec::parse("serve_resp:panic:2").unwrap();
        assert_eq!(spec.site, Site::ServeResp);
        assert_eq!(spec.to_string(), "serve_resp:panic:2");
        let spec = FaultSpec::parse("serve_resp:drop").unwrap();
        assert_eq!(spec.trigger, Trigger::Drop);
        assert_eq!(spec.to_string(), "serve_resp:drop");
        // Every site in the table survives a spec round-trip and sits
        // at its own index, so the CI matrix, the hit counters and this
        // enum can never silently diverge.
        for (i, site) in SITES.into_iter().enumerate() {
            let spec = FaultSpec::parse(&format!("{site}:panic")).unwrap();
            assert_eq!(spec.site, site);
            assert_eq!(site.index(), i);
        }
        for (i, trigger) in TRIGGERS.into_iter().enumerate() {
            assert_eq!(Trigger::parse(trigger.as_str()), Some(trigger));
            assert_eq!(trigger as usize, i);
        }
    }

    #[test]
    fn serve_sites_fire_independently() {
        let _scope = scoped("serve_resp:drop:2");
        assert_eq!(fire(Site::ServeResp), None);
        assert_eq!(fire(Site::Gemm), None, "other sites inert");
        assert_eq!(fire(Site::ServeResp), Some(Trigger::Drop));
        assert_eq!(fire(Site::ServeResp), None, "nth fires exactly once");
    }

    #[test]
    fn malformed_env_value_diags_and_disarms() {
        // This test drains the process-global diagnostics buffer, so
        // it serializes with the lib tests that use it too, and arms
        // tracing, under which diagnostics are kept.
        let _diag_lock = crate::TEST_LOCK.lock();
        crate::set_mode(crate::Mode::Summary);
        // Arm something first so the test proves malformed input
        // *disarms* rather than leaving a stale fault live.
        let _scope = scoped("transform:nan");
        assert!(armed(Site::Transform));
        assert_eq!(init_from_value("quantum:flux"), None);
        assert!(!armed(Site::Transform), "malformed spec must disarm");
        let diags = crate::take_diagnostics();
        assert!(
            diags
                .iter()
                .any(|d| d.contains("ignoring WINO_FAULT") && d.contains("quantum")),
            "missing malformed-value diagnostic: {diags:?}"
        );
        // A deleted site is malformed too: it disarms, and the diag
        // names the three sites that remain.
        assert!(init_from_value("gemm:nan").is_some());
        assert_eq!(init_from_value("tuner:panic"), None);
        assert!(SITES.into_iter().all(|site| !armed(site)));
        let diags = crate::take_diagnostics();
        assert!(
            diags.iter().any(|d| d.contains("ignoring WINO_FAULT")
                && d.contains("\"tuner:panic\"")
                && d.contains("transform|gemm|serve_resp")),
            "missing deleted-site diagnostic: {diags:?}"
        );
        // Well-formed values and the off switch stay silent.
        assert!(init_from_value("gemm:nan:2").is_some());
        assert_eq!(init_from_value("off"), None);
        assert_eq!(init_from_value("  "), None);
        assert!(
            !crate::take_diagnostics()
                .iter()
                .any(|d| d.contains("WINO_FAULT")),
            "valid values must not warn"
        );
        crate::set_mode(crate::Mode::Off);
    }

    #[test]
    fn disarmed_is_inert() {
        let _scope = scoped("");
        assert!(!armed(Site::Transform));
        let mut out = [1.0f32; 4];
        inject_f32(Site::Transform, &mut out);
        assert_eq!(out, [1.0; 4]);
    }

    #[test]
    fn every_call_nan_poisons_each_time() {
        let _scope = scoped("transform:nan");
        for _ in 0..3 {
            let mut out = [1.0f32; 4];
            inject_f32(Site::Transform, &mut out);
            assert!(out[0].is_nan());
        }
        // Other sites stay clean.
        let mut out = [1.0f32; 4];
        inject_f32(Site::Gemm, &mut out);
        assert_eq!(out, [1.0; 4]);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _scope = scoped("gemm:inf:2");
        let mut hits = 0;
        for _ in 0..5 {
            let mut out = [0.0f32; 1];
            inject_f32(Site::Gemm, &mut out);
            if out[0].is_infinite() {
                hits += 1;
            }
        }
        assert_eq!(hits, 1);
    }

    #[test]
    #[should_panic(expected = "injected panic at transform")]
    fn panic_trigger_panics() {
        let _scope = scoped("transform:panic");
        let mut out = [0.0f32; 1];
        inject_f32(Site::Transform, &mut out);
    }
}
