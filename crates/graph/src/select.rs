//! Engine selection: which engine runs a convolution on this CPU.
//!
//! The framework needs a sound engine per layer ("once the framework
//! picks a Winograd convolution according to the hardware and the
//! convolution parameters", §3). The one input is the descriptor:
//! static rules encode the paper's own findings — Winograd
//! for unit-stride 3×3 and 5×5 layers (filters above five "are
//! probably not suitable for deployment", §4.2), im2col + GEMM
//! otherwise. The output tile is sized to the layer (§3.3, Figure 9):
//! of the [`candidates`] — the `F(m, r)` with compiled kernels — the
//! static rule takes the one a two-term cost prices cheapest on this
//! CPU, the GEMM columns the micro-kernel issues plus the bank streamed
//! once per call (DESIGN.md, "Plan selection"; `figure9_cpu` checks it
//! against measurement). The columns priced are also the columns `V'`
//! stores: a packed B holds a ragged last sliver at the width its
//! kernel body reads (`wino_gemm::b_sliver_width`), so the first term
//! prices the operand the input transform writes as well as the FMAs. The paper's α = 8 sweet spot (§4.2) is a GPU
//! finding: here F(6,3) wins only on planes 56 wide and up.

use wino_conv::compiled::compiled_specs;
use wino_conv::{issued_cols, SimdLevel, WinogradConfig};
use wino_tensor::{tile_counts, ConvDesc};

use crate::graph::EngineChoice;

/// The bank streamed once per call, in tile columns of GEMM work: (FMA
/// peak / 2) MAC/s ÷ (stream bandwidth / 4) floats/s as the repo
/// benchmark probes them; [0, 16) gives the same picks on the zoo.
const BANK_COLUMNS: usize = 13;
/// The kernel both terms describe: a plan does not move with the
/// host's SIMD level (at `Avx512` too, whose wider tile issues more
/// padding columns).
const PRICED_AT: SimdLevel = SimdLevel::Avx2;

/// What is worth timing for `desc`: on a unit-stride 3×3 or 5×5,
/// `F(m, ksz)` for every compiled spec (if any); im2col everywhere else.
pub fn candidates(desc: &ConvDesc) -> Vec<EngineChoice> {
    let engine = |spec: &(usize, usize)| EngineChoice::Winograd(WinogradConfig::new(spec.0));
    let specs = compiled_specs().iter().filter(|s| s.1 == desc.ksz);
    let engines: Vec<_> = specs.map(engine).collect();
    if !desc.winograd_applicable() || desc.ksz > 5 || desc.ksz < 3 || engines.is_empty() {
        return vec![EngineChoice::Im2col];
    }
    engines
}

/// The selection: the candidate cheapest in MACs per `K·C` at batch
/// 1, α² · (GEMM columns issued for `P` tiles + the bank); ties go to small α.
pub fn select_engine_static(desc: &ConvDesc) -> EngineChoice {
    let cost = |engine: &EngineChoice| match engine {
        EngineChoice::Winograd(cfg) => {
            let (th, tw) = tile_counts(desc.out_h(), desc.out_w(), cfg.m);
            let columns = issued_cols(th * tw, PRICED_AT) + BANK_COLUMNS;
            ((cfg.m + desc.ksz - 1).pow(2) * columns, cfg.m)
        }
        _ => (0, 0),
    };
    let pick = candidates(desc).into_iter().min_by_key(cost);
    pick.expect("candidates is never empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_by_three_gets_winograd() {
        let d = ConvDesc::new(3, 1, 1, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine_static(&d), EngineChoice::Winograd(cfg) if cfg.m == 4));
    }

    #[test]
    fn five_by_five_gets_f45() {
        let d = ConvDesc::new(5, 1, 2, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine_static(&d), EngineChoice::Winograd(cfg) if cfg.m == 4));
    }

    #[test]
    fn strided_and_large_filters_fall_back() {
        let strided = ConvDesc::new(3, 2, 1, 64, 1, 14, 14, 32);
        assert!(matches!(
            select_engine_static(&strided),
            EngineChoice::Im2col
        ));
        let seven = ConvDesc::new(7, 1, 3, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine_static(&seven), EngineChoice::Im2col));
        let one = ConvDesc::new(1, 1, 0, 64, 1, 14, 14, 32);
        assert!(matches!(select_engine_static(&one), EngineChoice::Im2col));
        // Unit stride and in range, but no F(m, 4) is compiled.
        let four = ConvDesc::new(4, 1, 1, 64, 1, 14, 14, 32);
        assert_eq!(candidates(&four), [EngineChoice::Im2col]);
    }

    #[test]
    fn tiny_outputs_take_the_smallest_compiled_tile() {
        // One F(6,3) tile would cover a 6×6 plane, but it streams a
        // 64-matrix bank for one column; and a 3- or 5-wide plane is
        // not clamped to F(3,3) / F(5,3), which have no kernels.
        for plane in [1, 3, 5, 6] {
            let d = ConvDesc::new(3, 1, 1, 1024, 1, plane, plane, 384);
            assert_eq!(
                select_engine_static(&d),
                EngineChoice::Winograd(WinogradConfig::new(2)),
                "{d}"
            );
        }
    }

    #[test]
    fn alpha_8_is_for_large_planes_and_5x5() {
        for plane in [56, 112, 224] {
            let d = ConvDesc::new(3, 1, 1, 64, 1, plane, plane, 64);
            assert!(matches!(select_engine_static(&d), EngineChoice::Winograd(cfg) if cfg.m == 6));
        }
        let d = ConvDesc::new(5, 1, 2, 64, 1, 7, 7, 64);
        assert!(
            matches!(select_engine_static(&d), EngineChoice::Winograd(cfg) if cfg.m + 5 - 1 == 8)
        );
    }

    #[test]
    fn zoo_picks_are_pinned() {
        use crate::zoo;
        // (ksz, output plane) → m for every Winograd layer of Table 4
        // and the three zoo graphs: a change to the cost model is a
        // diff of this table.
        const PICKS: [((usize, usize), usize); 10] = [
            ((3, 6), 2),
            ((3, 7), 2),
            ((3, 13), 4),
            ((3, 14), 4),
            ((3, 28), 4),
            ((3, 56), 6),
            ((5, 7), 4),
            ((5, 14), 4),
            ((5, 27), 4),
            ((5, 28), 4),
        ];
        // The conv nodes left to im2col, by node id — the 11×11/4 stems
        // and every 1×1: the 44 nodes the `conv_gemm` workload sweeps.
        const IM2COL: [&[usize]; 3] = [
            &[1],
            &[1, 3, 5, 10, 12, 17, 19],
            &[
                4, 5, 7, 9, 11, 12, 14, 16, 19, 20, 22, 24, 26, 27, 29, 31, 33, 34, 36, 38, 40, 41,
                43, 45, 47, 48, 50, 52, 55, 56, 58, 60, 62, 63, 65, 67,
            ],
        ];
        let graphs = [
            zoo::build_alexnet_graph(),
            zoo::build_nin_graph(),
            zoo::build_inception_v1_graph(),
        ];
        let mut winograd = zoo::table4_convs();
        for (built, im2col) in graphs.into_iter().zip(IM2COL) {
            let (sent, kept): (Vec<_>, Vec<_>) = built
                .expect("zoo graphs build")
                .0
                .conv_nodes()
                .into_iter()
                .partition(|(_, d)| select_engine_static(d) == EngineChoice::Im2col);
            assert_eq!(sent.iter().map(|(id, _)| id.0).collect::<Vec<_>>(), im2col);
            winograd.extend(kept.into_iter().map(|(_, d)| d));
        }
        assert_eq!(winograd.len(), 31 + 26);
        for d in winograd {
            let key = (d.ksz, d.out_h());
            let pinned = PICKS.iter().find(|(k, _)| *k == key && d.out_w() == key.1);
            let m = pinned.unwrap_or_else(|| panic!("no pinned pick for {d}")).1;
            let want = EngineChoice::Winograd(WinogradConfig::new(m));
            assert_eq!(select_engine_static(&d), want, "{d}");
        }
    }

    proptest::proptest! {
        // Whatever the plane, the pick is a Winograd engine with
        // compiled kernels and is one of the candidates — never an
        // interpreted F(3,3)/F(5,3).
        #[test]
        fn pick_is_a_compiled_candidate(
            ksz in proptest::prelude::prop_oneof![
                proptest::prelude::Just(3usize),
                proptest::prelude::Just(5usize)
            ],
            (h, w) in (1usize..231, 1usize..231),
            (in_ch, out_ch) in (1usize..1025, 1usize..1025),
            batch in 1usize..6,
        ) {
            let d = ConvDesc::new(ksz, 1, ksz / 2, out_ch, batch, h, w, in_ch);
            let pick = select_engine_static(&d);
            let EngineChoice::Winograd(cfg) = pick else {
                panic!("expected Winograd for {d}, got {pick:?}");
            };
            proptest::prop_assert!(compiled_specs().contains(&(cfg.m, ksz)));
            proptest::prop_assert!(candidates(&d).contains(&pick));
            proptest::prop_assert_eq!(pick, select_engine_static(&ConvDesc { batch: 1, ..d }));
        }
    }
}
