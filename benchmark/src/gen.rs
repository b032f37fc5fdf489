//! Everything the benchmark draws from `--seed`: tensors, the request
//! mix and the arrival schedule. The program under test only ever
//! receives the generated values.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use wino_tensor::{ConvDesc, Tensor4};

/// An independent stream per consumer, so adding a draw in one place
/// does not shift the inputs of another. FNV-1a over the label, mixed
/// with the run seed.
pub fn stream(seed: u64, label: &str) -> StdRng {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for byte in label.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(hash)
}

/// Input activations in (−1, 1), the paper's protocol.
pub fn input(rng: &mut StdRng, n: usize, c: usize, h: usize, w: usize) -> Tensor4<f32> {
    Tensor4::random(n, c, h, w, -1.0, 1.0, rng)
}

/// Filter bank for `desc`, at the amplitude the registry's own zoo
/// weights use (keeps the guard's spot check well inside tolerance).
pub fn weights(rng: &mut StdRng, desc: &ConvDesc) -> Tensor4<f32> {
    Tensor4::random(desc.out_ch, desc.in_ch, desc.ksz, desc.ksz, -0.1, 0.1, rng)
}

/// `count` distinct flat indices below `len` (or all of them).
pub fn sample_indices(rng: &mut StdRng, len: usize, count: usize) -> Vec<usize> {
    if len <= count {
        return (0..len).collect();
    }
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < count {
        picked.insert(rng.gen_range(0..len));
    }
    picked.into_iter().collect()
}

/// Open-loop arrivals over `[0, duration)` at `rate` per second:
/// `round(rate · duration)` slots of `1/rate` seconds, one arrival
/// drawn uniformly inside each. The seed moves every arrival within
/// its slot — so two arrivals can fall almost together or almost two
/// slots apart — but the offered load is the same on every seed and
/// in every stretch of the phase. Poisson arrivals were measured
/// first and dropped: with a few hundred requests per phase their
/// bursts and their idle gaps (after which this VM's cores answer
/// slowly) moved the median latency by up to 2× between seeds, which
/// no regression bound survives.
pub fn arrival_schedule(rng: &mut StdRng, rate: f64, duration: Duration) -> Vec<Duration> {
    let count = (rate * duration.as_secs_f64()).round() as usize;
    (0..count)
        .map(|slot| Duration::from_secs_f64((slot as f64 + rng.gen_range(0.0..1.0)) / rate))
        .collect()
}

/// What one request asks for: a layer (index into the layer list) or
/// the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    Layer(usize),
    Network,
}

/// Requests per block of the mix.
pub const MIX_BLOCK: usize = 10;

/// The request mix for `count` requests, dealt in blocks of
/// [`MIX_BLOCK`]: each block holds `round(MIX_BLOCK · network_share)`
/// network requests and the rest spread evenly over `layers` layers,
/// in an order the seed shuffles. Exact shares in every stretch of a
/// phase for the same reason as the even pacing: a network request
/// costs several layer requests, and the tail percentile sits among
/// the network requests — a stretch one network request short reads a
/// layer request there, 10 ms lower.
pub fn request_mix(
    rng: &mut StdRng,
    count: usize,
    layers: usize,
    network_share: f64,
) -> Vec<Target> {
    let networks = (MIX_BLOCK as f64 * network_share).round() as usize;
    let mut mix = Vec::with_capacity(count + MIX_BLOCK);
    while mix.len() < count {
        let mut block: Vec<Target> = (0..MIX_BLOCK)
            .map(|i| {
                if i < networks {
                    Target::Network
                } else {
                    Target::Layer((i - networks) % layers)
                }
            })
            .collect();
        block.shuffle(rng);
        mix.extend(block);
    }
    mix.truncate(count);
    mix
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_and_mix_are_functions_of_the_seed() {
        let draw = |seed| {
            let mut rng = stream(seed, "serve_open/r90");
            let schedule = arrival_schedule(&mut rng, 90.0, Duration::from_secs(2));
            let mix = request_mix(&mut rng, schedule.len(), 3, 0.1);
            (schedule, mix)
        };
        let (s1, m1) = draw(7);
        let (s2, m2) = draw(7);
        let (s3, m3) = draw(8);
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
        assert_ne!(s1, s3);
        assert_ne!(m1, m3);
        // Count and shares are fixed by rate and duration alone.
        assert_eq!(s1.len(), 180);
        assert_eq!(s3.len(), 180);
        assert!(s1.windows(2).all(|w| w[0] <= w[1]));
        assert!(s1.iter().all(|&t| t < Duration::from_secs(2)));
        // Every block of the mix has the same make-up.
        for block in m1.chunks(MIX_BLOCK).chain(m3.chunks(MIX_BLOCK)) {
            assert_eq!(block.iter().filter(|t| **t == Target::Network).count(), 1);
            for layer in 0..3 {
                assert_eq!(
                    block.iter().filter(|t| **t == Target::Layer(layer)).count(),
                    3
                );
            }
        }
    }

    #[test]
    fn streams_differ_by_label_and_seed() {
        let first = |seed, label| stream(seed, label).gen_range(0..u64::MAX);
        assert_eq!(first(1, "a"), first(1, "a"));
        assert_ne!(first(1, "a"), first(1, "b"));
        assert_ne!(first(1, "a"), first(2, "a"));
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut rng = stream(3, "idx");
        let idx = sample_indices(&mut rng, 1000, 256);
        assert_eq!(idx.len(), 256);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(idx.iter().all(|&i| i < 1000));
        assert_eq!(sample_indices(&mut rng, 10, 256).len(), 10);
    }
}
