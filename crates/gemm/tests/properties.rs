//! Property tests: the blocked SGEMM must agree with the reference
//! triple loop on arbitrary shapes, and respect algebraic structure.

use proptest::prelude::*;
use wino_gemm::{batched_sgemm, sgemm, sgemm_naive, BatchedGemmShape};

fn close(a: &[f32], b: &[f32]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| (x - y).abs() <= 1e-3 * (1.0 + y.abs()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_matches_naive(
        m in 1usize..24,
        k in 1usize..24,
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut c = vec![0.0f32; m * n];
        let mut expect = vec![0.0f32; m * n];
        sgemm(&a, &b, &mut c, m, k, n);
        sgemm_naive(&a, &b, &mut expect, m, k, n);
        prop_assert!(close(&c, &expect));
    }

    #[test]
    fn gemm_distributes_over_addition(
        m in 1usize..8,
        k in 1usize..8,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b1: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b2: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bsum: Vec<f32> = b1.iter().zip(&b2).map(|(x, y)| x + y).collect();
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        let mut cs = vec![0.0f32; m * n];
        sgemm(&a, &b1, &mut c1, m, k, n);
        sgemm(&a, &b2, &mut c2, m, k, n);
        sgemm(&a, &bsum, &mut cs, m, k, n);
        let csum: Vec<f32> = c1.iter().zip(&c2).map(|(x, y)| x + y).collect();
        prop_assert!(close(&cs, &csum));
    }

    #[test]
    fn batched_equals_loop_of_singles(
        batches in 1usize..6,
        m in 1usize..6,
        k in 1usize..6,
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let shape = BatchedGemmShape { batches, m, k, n };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..shape.a_len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b: Vec<f32> = (0..shape.b_len()).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let mut c = vec![0.0f32; shape.c_len()];
        batched_sgemm(&shape, &a, &b, &mut c);
        for batch in 0..batches {
            let mut single = vec![0.0f32; m * n];
            sgemm(&a[batch * m * k..(batch + 1) * m * k],
                  &b[batch * k * n..(batch + 1) * k * n],
                  &mut single, m, k, n);
            prop_assert!(close(&c[batch * m * n..(batch + 1) * m * n], &single));
        }
    }
}

// ---------------------------------------------------------------------
// Packing and micro-kernel properties (PR 8): the pack routines must
// realize the exported pack models slot-for-slot and round-trip every
// block element, and the blocked kernel must agree with the reference
// triple loop on adversarial shapes (primes, sub-micro-tile slivers)
// at every dispatch level. These are the dynamic counterparts of
// wino-verify's static index analysis over the same schedule.
// ---------------------------------------------------------------------

use wino_gemm::{
    pack_a, pack_a_model, pack_b, pack_b_model, packed_a_len, packed_b_len, sgemm_rt_level,
    GemmConfig, PackSlot, SimdLevel,
};

/// Any dispatch level, for properties of the layouts alone (which run
/// on every host).
fn any_level() -> impl Strategy<Value = SimdLevel> {
    prop_oneof![
        Just(SimdLevel::Scalar),
        Just(SimdLevel::Avx2),
        Just(SimdLevel::Avx512)
    ]
}

/// Shapes that stress remainder handling: primes (never a multiple of
/// any micro-tile or cache-block extent) and sub-micro-tile slivers.
fn adversarial_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        3 => prop_oneof![
            Just(2usize), Just(3), Just(5), Just(7), Just(11), Just(13),
            Just(17), Just(19), Just(23), Just(29), Just(31), Just(37),
        ],
        2 => 1usize..6,   // smaller than every micro-tile extent
        2 => 1usize..48,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pack_a_matches_model_and_roundtrips(
        mb in 1usize..20,
        kb in 1usize..12,
        ii in 0usize..3,
        kk in 0usize..3,
        pad in 0usize..3,
        level in any_level(),
    ) {
        let mr = tile_extents(level).0;
        let lda = kk + kb + pad;
        // Distinct values (flat index + 1) make slot equality pin the
        // exact source element, not just a plausible one.
        let a: Vec<f32> = (0..(ii + mb) * lda).map(|i| i as f32 + 1.0).collect();
        let mut dst = vec![f32::NAN; packed_a_len(mb, kb, mr)];
        pack_a(&mut dst, &a, ii, kk, mb, kb, lda, mr);

        // Forward: the packed buffer is the model, slot for slot.
        let model = pack_a_model(mb, kb, mr);
        prop_assert_eq!(model.len(), dst.len());
        for (idx, slot) in model.iter().enumerate() {
            let want = match *slot {
                PackSlot::Src { row, col } => a[(ii + row) * lda + kk + col],
                PackSlot::Zero => 0.0,
            };
            prop_assert_eq!(dst[idx].to_bits(), want.to_bits());
        }

        // Round-trip: every element of the mb×kb block is recovered
        // from the packed buffer exactly once.
        let mut seen = vec![false; mb * kb];
        for (idx, slot) in model.iter().enumerate() {
            if let PackSlot::Src { row, col } = *slot {
                prop_assert_eq!(dst[idx].to_bits(), a[(ii + row) * lda + kk + col].to_bits());
                prop_assert!(!seen[row * kb + col], "duplicate slot for ({}, {})", row, col);
                seen[row * kb + col] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "block element never packed");
    }

    #[test]
    fn pack_b_matches_model_and_roundtrips(
        kb in 1usize..12,
        nb in 1usize..24,
        kk in 0usize..3,
        jj in 0usize..3,
        pad in 0usize..3,
        level in any_level(),
    ) {
        let nr = tile_extents(level).1;
        let ldb = jj + nb + pad;
        let b: Vec<f32> = (0..(kk + kb) * ldb).map(|i| i as f32 + 1.0).collect();
        let mut dst = vec![f32::NAN; packed_b_len(kb, nb, nr)];
        pack_b(&mut dst, &b, kk, jj, kb, nb, ldb, nr);

        let model = pack_b_model(kb, nb, nr);
        prop_assert_eq!(model.len(), dst.len());
        let mut seen = vec![false; kb * nb];
        for (idx, slot) in model.iter().enumerate() {
            match *slot {
                PackSlot::Src { row, col } => {
                    let want = b[(kk + row) * ldb + jj + col];
                    prop_assert_eq!(dst[idx].to_bits(), want.to_bits());
                    prop_assert!(!seen[row * nb + col], "duplicate slot for ({}, {})", row, col);
                    seen[row * nb + col] = true;
                }
                PackSlot::Zero => prop_assert_eq!(dst[idx].to_bits(), 0.0f32.to_bits()),
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "block element never packed");
    }

    #[test]
    fn micro_kernel_matches_naive_adversarial_shapes_every_level(
        m in adversarial_dim(),
        k in adversarial_dim(),
        n in adversarial_dim(),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        // Stale C contents must be overwritten, not accumulated into.
        let init: Vec<f32> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        // A tiny blocking config forces ragged remainders in every
        // dimension even for small shapes.
        let cfg = GemmConfig { mc: 8, kc: 8, nc: 16 };
        let rt = wino_runtime::Runtime::global();

        let mut expect = vec![0.0f32; m * n];
        sgemm_naive(&a, &b, &mut expect, m, k, n);

        for level in wino_gemm::supported_levels() {
            let mut c = init.clone();
            sgemm_rt_level(&a, &b, &mut c, m, k, n, &cfg, rt, level);
            prop_assert!(
                close(&c, &expect),
                "level {:?} diverges from naive at m={} k={} n={}",
                level, m, k, n
            );
        }
    }
}

// ---------------------------------------------------------------------
// Operands packed ahead of time (PackedA: PR 14, PackedB: PR 16): each
// layout is the whole-matrix pack model, A unpacks losslessly, B is
// the model however its column runs were written, and every entry —
// row-major, packed, one A shared by the batch — computes each C
// element by the one kc-blocked chain, bit for bit, over shapes that
// leave every block (mr sliver, mc, kc, nr, the column step) ragged, at
// every level and 1–3 threads.
// ---------------------------------------------------------------------

use wino_gemm::{
    batched_sgemm_packed, batched_sgemm_rt_level, packed_block_off, packed_step, tile_extents,
    PackedA, PackedB,
};

/// Fills `packed` from the row-major matrices in `b` through the
/// column writer, `L` columns of every matrix at a time (fewer in the
/// ragged last run, whose unused lanes hold NaN) — runs in descending
/// column order, depths interleaved: the layout must not depend on the
/// order its runs arrive in.
fn write_in_runs<const L: usize>(packed: &mut PackedB, b: &[f32]) {
    let (batches, k, n) = (packed.batches(), packed.k(), packed.n());
    let columns = packed.columns();
    for col in (0..n).step_by(L).rev() {
        let count = L.min(n - col);
        for depth in 0..k {
            let vals: Vec<[f32; L]> = (0..batches)
                .map(|batch| {
                    let mut lanes = [f32::NAN; L];
                    lanes[..count].copy_from_slice(&b[(batch * k + depth) * n + col..][..count]);
                    lanes
                })
                .collect();
            // SAFETY: single-threaded; each column range of a row is
            // written once.
            unsafe { columns.write(depth, col, count, &vals) };
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_entry_is_the_kc_blocked_chain_bit_for_bit(
        batches in 1usize..4,
        m in adversarial_dim(),
        k in adversarial_dim(),
        n in prop_oneof![Just(1usize), Just(5), Just(9), Just(17), Just(45), Just(257)],
        // mc below, at and above mr; kc that divides nothing; nc below
        // and off the nr grid: the task grid's tiles fall everywhere.
        mc in prop_oneof![Just(5usize), Just(8), Just(13), Just(64)],
        kc in prop_oneof![Just(3usize), Just(7), Just(128)],
        nc in prop_oneof![Just(3usize), Just(16), Just(40)],
        threads in 1usize..4,
        // 0: uniform operands; 1: all zero; 2: products that all
        // underflow, so FMA chains round to −0.0 and the first
        // k-block's write must still be `0.0 + acc`.
        fill in 0usize..3,
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let shape = BatchedGemmShape { batches, m, k, n };
        let shared_a = seed % 2 == 0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = [1.0f32, 0.0, 1e-24][fill];
        let a: Vec<f32> = (0..shape.a_len()).map(|_| scale * rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..shape.b_len()).map(|_| scale * rng.gen_range(-2.0f32..2.0)).collect();
        let cfg = GemmConfig { mc, kc, nc };
        let rt = wino_runtime::Runtime::with_threads(threads);
        for level in wino_gemm::supported_levels() {
            // The contract, element by element: per `kc` block a chain
            // from zero over the block's depths in order — fused at
            // the vector levels, multiply then add at scalar — added onto the blocks
            // before it, the first onto +0.0. No tile, sliver, batch or
            // thread enters it.
            let mut want = vec![f32::NAN; shape.c_len()];
            for (idx, w) in want.iter_mut().enumerate() {
                let (batch, i, j) = (idx / (m * n), idx / n % m, idx % n);
                let mut c = 0.0f32;
                for kk in (0..k).step_by(kc) {
                    let mut acc = 0.0f32;
                    for p in kk..k.min(kk + kc) {
                        let (x, y) = (a[(batch * m + i) * k + p], b[(batch * k + p) * n + j]);
                        acc = match level {
                            SimdLevel::Scalar => acc + x * y,
                            SimdLevel::Avx2 | SimdLevel::Avx512 => x.mul_add(y, acc),
                        };
                    }
                    c += acc;
                }
                *w = c;
            }
            if fill > 0 {
                // What accumulating onto a zero-filled C always gave.
                prop_assert!(want.iter().all(|w| w.to_bits() == 0), "{:?}", level);
            }
            let mut row_major = vec![f32::NAN; shape.c_len()];
            batched_sgemm_rt_level(&shape, &a, &b, &mut row_major, &cfg, &rt, level);
            let packed_b = PackedB::pack(&b, batches, k, n, level, &rt);
            let mut packed = vec![f32::NAN; shape.c_len()];
            if shared_a {
                // One A for every batch: each batch's C is A[0]·B[batch].
                let first = PackedA::pack(&a, 1, m, k, level, &rt);
                batched_sgemm_packed(&shape, &first, &packed_b, &mut packed, &cfg, &rt);
                let one = BatchedGemmShape { batches: 1, ..shape };
                for batch in 0..batches {
                    let alone_b = PackedB::pack(&b[batch * k * n..], 1, k, n, level, &rt);
                    let mut alone = vec![f32::NAN; m * n];
                    batched_sgemm_packed(&one, &first, &alone_b, &mut alone, &cfg, &rt);
                    let stacked = &packed[batch * m * n..][..m * n];
                    prop_assert!(
                        alone.iter().map(|v| v.to_bits()).eq(stacked.iter().map(|v| v.to_bits())),
                        "{:?}: batch {} differs when multiplied alone", level, batch
                    );
                }
                packed.truncate(m * n);
            } else {
                let packed_a = PackedA::pack(&a, batches, m, k, level, &rt);
                batched_sgemm_packed(&shape, &packed_a, &packed_b, &mut packed, &cfg, &rt);
            }
            for (i, w) in want.iter().enumerate() {
                prop_assert_eq!(
                    row_major[i].to_bits(), w.to_bits(),
                    "row-major {:?} m={} k={} n={} mc={} kc={} nc={} element {}",
                    level, m, k, n, mc, kc, nc, i
                );
                if let Some(g) = packed.get(i) {
                    prop_assert_eq!(
                        g.to_bits(), w.to_bits(),
                        "packed {:?} m={} k={} n={} mc={} kc={} nc={} element {}",
                        level, m, k, n, mc, kc, nc, i
                    );
                }
            }
        }
    }

    #[test]
    fn packed_b_written_in_column_runs_is_the_whole_matrix_model(
        batches in 1usize..3,
        k in adversarial_dim(),
        n in adversarial_dim(),
        level in any_level(),
        // Run widths on both sides of every sliver width: 8 is the
        // Winograd lane group (two scalar slivers, half an AVX2 one, a
        // quarter of an AVX-512 one).
        wide in any::<bool>(),
        nc in 1usize..40,
        kc in 1usize..9,
    ) {
        // An operand is only ever built for a level the host runs.
        prop_assume!(wino_gemm::host_supports(level));
        let nr = tile_extents(level).1;
        // Distinct values pin the exact source element per slot.
        let b: Vec<f32> = (0..batches * k * n).map(|i| i as f32 + 1.0).collect();
        // Built in a recycled buffer — dirty, and longer or shorter than
        // this operand — it must come out as from a fresh one: every
        // column below `n` is written below, the padding re-zeroed.
        let dirty = vec![f32::NAN; if wide { 0 } else { batches * k * n + 40 }];
        let mut packed = PackedB::recycled(dirty, batches, k, n, level);
        if wide {
            write_in_runs::<21>(&mut packed, &b);
        } else {
            write_in_runs::<8>(&mut packed, &b);
        }
        let model = pack_b_model(k, n, nr);
        let whole = PackedB::pack(&b, batches, k, n, level, &wino_runtime::Runtime::serial());
        for batch in 0..batches {
            let got = packed.batch(batch);
            prop_assert_eq!(got.len(), model.len());
            prop_assert_eq!(got, whole.batch(batch));
            for (idx, slot) in model.iter().enumerate() {
                let want = match *slot {
                    PackSlot::Src { row, col } => b[(batch * k + row) * n + col],
                    PackSlot::Zero => 0.0,
                };
                prop_assert_eq!(got[idx].to_bits(), want.to_bits());
            }
        }
        // The window a (column step, k block) reads: sliver `s` of the step
        // sits `s · k · nr` past `packed_block_off`, and holds columns
        // jj + s·nr.. at depths kk..kk+kb — zero past column n.
        let step = packed_step(nc, nr);
        prop_assert!(step.is_multiple_of(nr) && step >= nr);
        for jj in (0..n).step_by(step) {
            for kk in (0..k).step_by(kc) {
                let kb = kc.min(k - kk);
                let base = packed_block_off(jj, kk, k, nr);
                for s in 0..step.min(n - jj).div_ceil(nr) {
                    for p in 0..kb {
                        for c in 0..nr {
                            let col = jj + s * nr + c;
                            let want = if col < n {
                                PackSlot::Src { row: kk + p, col }
                            } else {
                                PackSlot::Zero
                            };
                            prop_assert_eq!(model[base + s * k * nr + p * nr + c], want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_layout_is_the_whole_matrix_model(
        batches in 1usize..3,
        m in adversarial_dim(),
        k in adversarial_dim(),
        mc in 1usize..20,
        kc in 1usize..9,
    ) {
        // Distinct values pin the exact source element per slot.
        let a: Vec<f32> = (0..batches * m * k).map(|i| i as f32 + 1.0).collect();
        for level in wino_gemm::supported_levels() {
            let mr = tile_extents(level).0;
            let packed = PackedA::pack(&a, batches, m, k, level, &wino_runtime::Runtime::serial());
            // Four tasks sharing the row slivers pack what one does.
            let rt = wino_runtime::Runtime::with_threads(4);
            let copy_row = |_: &mut (), row: usize, out: &mut [f32]| {
                for (batch, dst) in out.chunks_exact_mut(k).enumerate() {
                    dst.copy_from_slice(&a[(batch * m + row) * k..][..k]);
                }
            };
            let shared = PackedA::from_rows(batches, m, k, level, &rt, || (), copy_row);
            for batch in 0..batches {
                prop_assert_eq!(shared.batch(batch), packed.batch(batch));
            }
            prop_assert_eq!(packed.level(), level);
            prop_assert_eq!(packed.bytes(), batches * packed_a_len(m, k, mr) * 4);
            let model = pack_a_model(m, k, mr);
            for batch in 0..batches {
                let got = packed.batch(batch);
                prop_assert_eq!(got.len(), model.len());
                for (idx, slot) in model.iter().enumerate() {
                    let want = match *slot {
                        PackSlot::Src { row, col } => a[(batch * m + row) * k + col],
                        PackSlot::Zero => 0.0,
                    };
                    prop_assert_eq!(got[idx].to_bits(), want.to_bits());
                }
                let mut back = vec![f32::NAN; k];
                for i in 0..m {
                    packed.copy_row(batch, i, &mut back);
                    prop_assert_eq!(&back[..], &a[(batch * m + i) * k..][..k]);
                }
            }
            // The window a (row block, k block) reads: sliver `s` of
            // the block sits `s · k · mr` past `packed_block_off`,
            // and holds rows ii + s·mr.. at depths kk..kk+kb — the last
            // sliver zero-padded past row m.
            let step = packed_step(mc, mr);
            prop_assert!(step.is_multiple_of(mr) && step >= mr);
            for ii in (0..m).step_by(step) {
                for kk in (0..k).step_by(kc) {
                    let kb = kc.min(k - kk);
                    let base = packed_block_off(ii, kk, k, mr);
                    for s in 0..step.min(m - ii).div_ceil(mr) {
                        for p in 0..kb {
                            for r in 0..mr {
                                let slot = model[base + s * k * mr + p * mr + r];
                                let row = ii + s * mr + r;
                                let want = if row < m {
                                    PackSlot::Src { row, col: kk + p }
                                } else {
                                    PackSlot::Zero
                                };
                                prop_assert_eq!(slot, want);
                            }
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// The cross-level contract: the AVX-512 register tile (14×32) computes
// every C element by the same FMA chain as the AVX2 one (6×16), so the
// two levels agree bit for bit — on shapes ragged against both tiles
// and across the kc blocks, with the underflow input class, at 1–3
// threads.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn avx512_is_avx2_bit_for_bit(
        batches in 1usize..3,
        // Off both 6 and 14, and on them.
        m in prop_oneof![
            Just(1usize), Just(5), Just(6), Just(13), Just(14), Just(15), Just(29), Just(43), Just(85)
        ],
        // Below, at and past kc = 128, and ragged against the small kc.
        k in prop_oneof![Just(1usize), Just(9), Just(127), Just(128), Just(129), Just(300)],
        n in prop_oneof![
            Just(1usize), Just(15), Just(16), Just(17), Just(31), Just(33), Just(257)
        ],
        kc in prop_oneof![Just(7usize), Just(128)],
        mc in prop_oneof![Just(13usize), Just(64)],
        threads in 1usize..4,
        // 0: uniform operands; 1: products that all underflow.
        tiny in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if !wino_gemm::supported_levels().contains(&SimdLevel::Avx512) {
            return Ok(()); // the host lacks avx512f: nothing to compare
        }
        use rand::{Rng, SeedableRng};
        let shape = BatchedGemmShape { batches, m, k, n };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = if tiny { 1e-24f32 } else { 1.0 };
        let a: Vec<f32> = (0..shape.a_len()).map(|_| scale * rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..shape.b_len()).map(|_| scale * rng.gen_range(-2.0f32..2.0)).collect();
        let cfg = GemmConfig { mc, kc, nc: 256 };
        let rt = wino_runtime::Runtime::with_threads(threads);
        let run = |level| {
            let (pa, pb) = (
                PackedA::pack(&a, batches, m, k, level, &rt),
                PackedB::pack(&b, batches, k, n, level, &rt),
            );
            let mut c = vec![f32::NAN; shape.c_len()];
            batched_sgemm_packed(&shape, &pa, &pb, &mut c, &cfg, &rt);
            c
        };
        let (wide, narrow) = (run(SimdLevel::Avx512), run(SimdLevel::Avx2));
        for (i, (x, y)) in wide.iter().zip(&narrow).enumerate() {
            prop_assert_eq!(
                x.to_bits(), y.to_bits(),
                "m={} k={} n={} kc={} element {}", m, k, n, kc, i
            );
        }
    }
}
