//! Whole-network estimation: per-layer tuned times summed over the
//! reference networks — the end-to-end view the paper motivates in its
//! introduction ("speeding [3×3 layers] up would have a great impact on
//! alleviating the inference time") but reports only per-convolution.

use wino_gpu::DeviceProfile;
use wino_graph::{alexnet_convs, inception_v1_convs, nin_convs, NamedConv};
use wino_tensor::ConvDesc;
use wino_tuner::{evaluate_untuned, reduced_space, tune_with_space};

/// Per-layer estimate within a network summary.
#[derive(Clone, Debug)]
pub struct LayerEstimate {
    /// Layer name (e.g. `"3a/3x3"`).
    pub layer: String,
    /// The convolution.
    pub desc: ConvDesc,
    /// Best baseline (direct / im2col) time, ms.
    pub baseline_ms: f64,
    /// Best overall (Winograd allowed) time, ms.
    pub tuned_ms: f64,
}

/// One network's end-to-end convolution summary.
#[derive(Clone, Debug)]
pub struct NetworkEstimate {
    /// Network name.
    pub network: &'static str,
    /// Per-layer results.
    pub layers: Vec<LayerEstimate>,
}

impl NetworkEstimate {
    /// Summed baseline time.
    pub fn baseline_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.baseline_ms).sum()
    }

    /// Summed tuned time.
    pub fn tuned_ms(&self) -> f64 {
        self.layers.iter().map(|l| l.tuned_ms).sum()
    }

    /// End-to-end speedup from enabling the generated Winograd
    /// kernels.
    pub fn speedup(&self) -> f64 {
        self.baseline_ms() / self.tuned_ms()
    }
}

fn estimate_network(
    network: &'static str,
    layers: &[NamedConv],
    device: &DeviceProfile,
    batch: usize,
) -> NetworkEstimate {
    let layers = layers
        .iter()
        .filter_map(|named| {
            let mut desc = named.desc;
            desc.batch = batch;
            let space = reduced_space(&desc);
            let base_space: Vec<_> = space
                .iter()
                .filter(|p| p.variant.winograd_m().is_none())
                .cloned()
                .collect();
            let baseline = tune_with_space(&desc, device, base_space)
                .map(|r| r.best.time_ms)
                .or_else(|_| evaluate_untuned(&desc, device).map(|e| e.time_ms))
                .ok()?;
            let tuned = tune_with_space(&desc, device, space)
                .map(|r| r.best.time_ms)
                .ok()?;
            Some(LayerEstimate {
                layer: named.layer.to_string(),
                desc,
                baseline_ms: baseline,
                tuned_ms: tuned,
            })
        })
        .collect();
    NetworkEstimate { network, layers }
}

/// Estimates all three reference networks on a device.
pub fn estimate_networks(device: &DeviceProfile, batch: usize) -> Vec<NetworkEstimate> {
    vec![
        estimate_network("alexnet", &alexnet_convs(), device, batch),
        estimate_network("nin", &nin_convs(), device, batch),
        estimate_network("inception-v1", &inception_v1_convs(), device, batch),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_gpu::gtx_1080_ti;

    #[test]
    fn networks_speed_up_end_to_end() {
        let device = gtx_1080_ti();
        for net in estimate_networks(&device, 1) {
            assert!(
                !net.layers.is_empty(),
                "{}: no layers estimated",
                net.network
            );
            assert!(
                net.speedup() >= 1.0,
                "{}: enabling Winograd slowed the network ({:.2}x)",
                net.network,
                net.speedup()
            );
        }
    }

    #[test]
    fn winograd_unfriendly_layers_keep_baseline() {
        let device = gtx_1080_ti();
        let nets = estimate_networks(&device, 1);
        let alex = nets
            .iter()
            .find(|n| n.network == "alexnet")
            .expect("present");
        // conv1 is 11×11 stride 4: no Winograd variant exists, so
        // tuned == baseline for that layer.
        let conv1 = alex
            .layers
            .iter()
            .find(|l| l.layer == "conv1")
            .expect("present");
        assert!((conv1.tuned_ms - conv1.baseline_ms).abs() < 1e-9);
        // But the 3×3-heavy tail must improve.
        let conv3 = alex
            .layers
            .iter()
            .find(|l| l.layer == "conv3")
            .expect("present");
        assert!(conv3.tuned_ms < conv3.baseline_ms);
    }
}
