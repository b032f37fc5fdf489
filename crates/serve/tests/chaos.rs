//! Chaos property: under randomized batch-panic schedules (an injected
//! `serve_resp` panic mid-delivery), deadline mixes, and pool sizes,
//! every concurrent submission resolves to **exactly one** terminal
//! result — no double delivery, no hang (enforced by a watchdog) — and
//! every Ok output is bit-identical to a direct [`GuardedConv`] run on
//! the engine that served it.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_guard::GuardedConv;
use wino_probe::fault;
use wino_serve::{ConvRequest, ConvResponse, PlanRegistry, ServeError, Server, ServerConfig};
use wino_tensor::{ConvDesc, Tensor4};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Silences the expected injected-fault panics; anything else keeps
/// the default reporting.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains("wino-fault"))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("wino-fault"));
            if !injected {
                default(info);
            }
        }));
    });
}

fn registry() -> Arc<PlanRegistry> {
    let reg = PlanRegistry::new();
    let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
    let mut rng = StdRng::seed_from_u64(7);
    let weights = Tensor4::random(4, 2, 3, 3, -0.5, 0.5, &mut rng);
    reg.register_layer("chaos/l", desc, weights).unwrap();
    Arc::new(reg)
}

fn input(seed: u64) -> Tensor4<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor4::random(1, 2, 8, 8, -1.0, 1.0, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_submission_resolves_exactly_once(
        panic_nth in 1u64..8,
        requests in 4usize..9,
        deadline_mask in any::<u16>(),
        executors in 1usize..3,
    ) {
        quiet_injected_panics();
        let reg = registry();
        // Arm one panic inside response delivery at a randomized
        // point in the schedule (beyond the last delivery = no panic
        // at all — also a valid schedule). The scoped guard also
        // serializes fault-armed tests process-wide.
        let _fault = fault::scoped(&format!("serve_resp:panic:{panic_nth}"));
        let server = Server::start(
            Arc::clone(&reg),
            ServerConfig {
                executors,
                max_batch: 2,
                max_wait: Duration::from_micros(200),
                ..ServerConfig::default()
            },
        );
        type Outcome = Option<Result<ConvResponse, ServeError>>;
        let results: Vec<(u64, Outcome)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..requests)
                .map(|i| {
                    let server = &server;
                    s.spawn(move || {
                        let seed = i as u64;
                        let mut req = ConvRequest::new("chaos/l", input(seed));
                        if (deadline_mask >> i) & 1 == 1 {
                            req = req.with_deadline(Duration::ZERO);
                        }
                        match server.submit(req) {
                            Ok(handle) => (seed, handle.wait_timeout(WATCHDOG)),
                            Err(refused) => (seed, Some(Err(refused))),
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("submitter threads never panic"))
                .collect()
        });
        prop_assert_eq!(results.len(), requests, "one outcome per submission");
        for (seed, outcome) in results {
            let outcome = match outcome {
                Some(o) => o,
                None => {
                    return Err(TestCaseError::fail(format!(
                        "request {seed} hung past the watchdog"
                    )))
                }
            };
            match outcome {
                Ok(resp) => {
                    // Bit-identity: re-run the request alone on the
                    // engine that served it.
                    let plan = reg.get("chaos/l").unwrap();
                    let direct = GuardedConv::new(plan.warm.as_ref().unwrap().spec().m)
                        .with_chain(vec![resp.served_by])
                        .with_gemm_config(plan.gemm)
                        .run(&input(seed), &plan.weights, &plan.desc)
                        .expect("direct re-run on the serving engine");
                    prop_assert_eq!(
                        resp.output.data(),
                        direct.output.data(),
                        "request {} served by {:?} must be bit-identical to a direct run",
                        seed,
                        resp.served_by
                    );
                }
                // A contained panic fails its batch's unanswered
                // members (Internal) and a teardown race may refuse
                // late work (ShuttingDown);
                // both are terminal, which is all the property asks.
                Err(ServeError::Internal { .. }) | Err(ServeError::ShuttingDown) => {}
                Err(other) => {
                    return Err(TestCaseError::fail(format!(
                        "request {seed}: unexpected error {other}"
                    )))
                }
            }
        }
        server.shutdown();
        prop_assert_eq!(server.queue_depth(), 0, "queue drains after chaos");
    }
}
