//! End-to-end tests of the hardened sweep: every quarantine path
//! fires under deterministic fault injection, and the no-fault path
//! agrees with the unhardened tuner.

use wino_gpu::gtx_1080_ti;
use wino_guard::{fault, DenyCause, Denylist, NumericGate, SandboxBudget};
use wino_tensor::ConvDesc;
use wino_tuner::{reduced_space, tune_hardened, tune_with_space};

fn conv() -> ConvDesc {
    ConvDesc::new(3, 1, 1, 32, 1, 14, 14, 16)
}

#[test]
fn no_fault_matches_unhardened_sweep() {
    let _scope = fault::scoped("");
    let desc = conv();
    let device = gtx_1080_ti();
    let plain = tune_with_space(&desc, &device, 4, reduced_space(&desc)).unwrap();
    let denylist = Denylist::new();
    let hardened = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        None,
    )
    .unwrap();
    assert_eq!(hardened.report.best.point, plain.best.point);
    assert_eq!(hardened.report.evaluated, plain.evaluated);
    assert!(hardened.quarantined.is_empty());
    assert!(denylist.is_empty());
}

#[test]
fn injected_panic_is_quarantined_and_sweep_completes() {
    let _scope = fault::scoped("tuner:panic:3");
    let desc = conv();
    let device = gtx_1080_ti();
    let denylist = Denylist::new();
    let report = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        None,
    )
    .unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].cause, DenyCause::Panic);
    assert!(denylist.contains(&report.quarantined[0].key));
    assert!(report.report.evaluated > 0, "sweep must complete");
}

#[test]
fn injected_timeout_is_quarantined() {
    let _scope = fault::scoped("tuner:timeout:2");
    let desc = conv();
    let device = gtx_1080_ti();
    let denylist = Denylist::new();
    let report = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        None,
    )
    .unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].cause, DenyCause::Timeout);
}

#[test]
fn injected_nonfinite_time_is_quarantined() {
    let _scope = fault::scoped("tuner:nan:4");
    let desc = conv();
    let device = gtx_1080_ti();
    let denylist = Denylist::new();
    let report = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        None,
    )
    .unwrap();
    assert_eq!(report.quarantined.len(), 1);
    assert_eq!(report.quarantined[0].cause, DenyCause::NonFinite);
}

#[test]
fn denylist_skips_quarantined_candidates_on_the_next_sweep() {
    let desc = conv();
    let device = gtx_1080_ti();
    let denylist = Denylist::new();
    {
        let _scope = fault::scoped("tuner:panic:3");
        tune_hardened(
            &desc,
            &device,
            reduced_space(&desc),
            &SandboxBudget::default(),
            &denylist,
            None,
        )
        .unwrap();
    }
    assert_eq!(denylist.len(), 1);
    // Second sweep, fault disarmed: the quarantined candidate is
    // skipped, nothing new is quarantined.
    let _scope = fault::scoped("");
    let second = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        None,
    )
    .unwrap();
    assert_eq!(second.denylist_skipped, 1);
    assert!(second.quarantined.is_empty());
}

#[test]
fn gate_rejects_poisoned_winograd_triples() {
    // With the transform output poisoned, every F(m,r)
    // trial produces NaN: the gate rejects them all and the sweep
    // selects a baseline. The analytic candidate evaluations never run
    // a real transform, so only the gate trials see the fault.
    let _scope = fault::scoped("transform:nan");
    let desc = conv();
    let device = gtx_1080_ti();
    let denylist = Denylist::new();
    let gate = NumericGate::new();
    let report = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        Some(&gate),
    )
    .unwrap();
    assert!(report.gate_skipped > 0, "winograd points must be gated");
    assert!(
        report.report.best.point.variant.winograd_m().is_none(),
        "best must be a baseline, got {:?}",
        report.report.best.point
    );
}

#[test]
fn gate_admits_healthy_winograd_triples() {
    let _scope = fault::scoped("");
    let desc = conv();
    let device = gtx_1080_ti();
    let denylist = Denylist::new();
    let gate = NumericGate::new();
    let report = tune_hardened(
        &desc,
        &device,
        reduced_space(&desc),
        &SandboxBudget::default(),
        &denylist,
        Some(&gate),
    )
    .unwrap();
    // The model favors Winograd on this layer (same assertion as the
    // unhardened tuner's tests): the gate must not block it.
    assert!(report.report.best.point.variant.winograd_m().is_some());
}
