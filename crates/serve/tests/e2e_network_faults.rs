//! Fault drill: with `transform:nan` poisoning every Winograd tile
//! transform, network serving still answers every request via the
//! per-conv degradation chain (the guardrails catch the NaNs and
//! demote to im2col/direct). Alone in this binary: the fault scope is
//! process-global.

use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_probe::fault;
use wino_serve::{NetworkRequest, PlanRegistry, Server, ServerConfig};
use wino_tensor::Tensor4;

#[test]
fn poisoned_transforms_still_serve_networks_via_fallback() {
    let registry = Arc::new(PlanRegistry::new());
    let plan = registry.register_zoo_network("inception-3a-3b").unwrap();
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            max_batch: 2,
            max_wait: Duration::from_millis(2),
            // Breakers stay armed: even if the
            // repeated NaNs trip the network's breaker mid-test, open
            // (degraded) batches must still serve.
            ..ServerConfig::default()
        },
    );
    let (c, h, w) = plan.input_dims();
    let _fault = fault::scoped("transform:nan");
    let mut demotions_seen = 0usize;
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::<f32>::random(1, c, h, w, -1.0, 1.0, &mut rng);
        let resp = server
            .infer_network(NetworkRequest::new("inception-3a-3b", input))
            .expect("poisoned transforms must degrade, not fail");
        assert!(
            resp.output.data().iter().all(|v| v.is_finite()),
            "fallback output must be finite"
        );
        demotions_seen += resp.trace.demotions;
    }
    assert!(
        demotions_seen > 0,
        "the NaN fault must have demoted at least one conv"
    );
    server.shutdown();
}
