//! The served path runs what the build proved: registering, starting,
//! serving and shutting down reads no transform recipe, so the
//! process-wide recipe database stays empty throughout. A test binary
//! of its own, so that no other test fills the database meanwhile.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wino_serve::{ConvRequest, NetworkRequest, PlanRegistry, Server, ServerConfig};
use wino_tensor::{ConvDesc, Tensor4};
use wino_transform::recipe_db;

#[test]
fn serving_reads_no_recipe() {
    recipe_db().clear();
    let registry = Arc::new(PlanRegistry::new());
    let net = registry
        .register_zoo_network("alexnet")
        .expect("alexnet registers");
    // A 3×3 layer the selector sends to a compiled Winograd spec.
    let desc = ConvDesc::new(3, 1, 1, 32, 1, 14, 14, 16);
    let mut rng = StdRng::seed_from_u64(39);
    let weights = Tensor4::random(desc.out_ch, desc.in_ch, 3, 3, -0.1, 0.1, &mut rng);
    registry
        .register_layer("layer", desc, weights)
        .expect("layer registers");
    let warm = registry
        .get("layer")
        .and_then(|plan| plan.warm.as_ref().map(|pre| pre.spec()));
    assert!(warm.is_some(), "the layer should run Winograd");

    let server = Server::start(Arc::clone(&registry), ServerConfig::default());
    let (c, h, w) = net.input_dims();
    let image = Tensor4::random(1, c, h, w, -1.0, 1.0, &mut rng);
    server
        .infer_network(NetworkRequest::new("alexnet", image))
        .expect("network request serves");
    let input = Tensor4::random(1, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng);
    server
        .infer(ConvRequest::new("layer", input))
        .expect("layer request serves");
    server.shutdown();

    assert!(
        recipe_db().is_empty(),
        "the served path resolved {} recipe set(s)",
        recipe_db().len()
    );
}
