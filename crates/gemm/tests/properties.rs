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
    pack_a, pack_a_model, pack_b, pack_b_model, packed_a_len, packed_b_len, GemmConfig, PackSlot,
    SimdLevel,
};

/// `C[b] = A[b] · B[b]` over row-major buffers at one blocking config
/// and level: both operands packed whole, then the packed multiply.
fn row_major_batched(
    shape: &BatchedGemmShape,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    cfg: &GemmConfig,
    level: SimdLevel,
) {
    let BatchedGemmShape { batches, m, k, n } = *shape;
    let (a, b) = (
        PackedA::pack(a, batches, m, k, level),
        PackedB::pack(b, batches, k, n, level),
    );
    batched_sgemm_packed(shape, &a, &b, c, cfg);
}

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
        let ldb = jj + nb + pad;
        let b: Vec<f32> = (0..(kk + kb) * ldb).map(|i| i as f32 + 1.0).collect();
        let mut dst = vec![f32::NAN; packed_b_len(kb, nb, level)];
        pack_b(&mut dst, &b, kk, jj, kb, nb, ldb, level);

        let model = pack_b_model(kb, nb, level);
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
        let shape = BatchedGemmShape { batches: 1, m, k, n };

        let mut expect = vec![0.0f32; m * n];
        sgemm_naive(&a, &b, &mut expect, m, k, n);

        for level in wino_gemm::supported_levels() {
            let mut c = init.clone();
            row_major_batched(&shape, &a, &b, &mut c, &cfg, level);
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
    batched_sgemm_packed, dim_blocks, issued_cols, packed_block_off, packed_step, tile_extents,
    tile_walk, ASliver, DimBlock, PackedA, PackedB, TaskTile,
};

/// The operand holds the columns the kernel issues and nothing more:
/// `k · issued_cols(n)` floats a matrix, at every level the host runs
/// and every width up to three slivers.
#[test]
fn packed_b_holds_the_issued_columns() {
    let (batches, k) = (2, 3);
    for level in wino_gemm::supported_levels() {
        let nr = tile_extents(level).1;
        for n in 0..=3 * nr {
            let want = k * issued_cols(n, level);
            let packed = PackedB::zeroed(batches, k, n, level);
            for batch in 0..batches {
                assert_eq!(packed.batch(batch).len(), want, "n = {n} at {level:?}");
            }
            assert_eq!(
                packed.into_raw().len(),
                batches * want,
                "n = {n} at {level:?}"
            );
        }
    }
}

/// A fill that stores every row at every depth but the last leaves the
/// operand unbuilt: the constructor panics rather than hand out a bank
/// with slots no one wrote.
#[test]
#[should_panic(expected = "short")]
fn a_short_sliver_fill_panics() {
    let level = SimdLevel::Scalar;
    let fill = |_: &mut (), sliver: &mut ASliver<'_>| {
        for _ in 1..5 {
            sliver.push(sliver.rows().len(), &[[1.0f32; 8]; 2]);
        }
    };
    PackedA::from_slivers(2, 7, 5, level, || (), fill);
}

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
        // Batch-1 Winograd widths (1, 9, 16, 17, 33, 49 tile columns)
        // among them: one ragged sliver or a few.
        n in prop_oneof![
            Just(1usize), Just(5), Just(9), Just(16), Just(17), Just(33), Just(45), Just(49),
            Just(257),
        ],
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
        // B born in a dirty recycled buffer longer than the operand, as
        // a steady engine call finds it, instead of packed fresh.
        let recycled = seed / 2 % 2 == 0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let scale = [1.0f32, 0.0, 1e-24][fill];
        let a: Vec<f32> = (0..shape.a_len()).map(|_| scale * rng.gen_range(-2.0f32..2.0)).collect();
        let b: Vec<f32> = (0..shape.b_len()).map(|_| scale * rng.gen_range(-2.0f32..2.0)).collect();
        let cfg = GemmConfig { mc, kc, nc };
        let rt = wino_runtime::Runtime::with_threads(threads);
        // The contract, element by element: per `kc` block a fused
        // chain from zero over the block's depths in order, added onto
        // the blocks before it, the first onto +0.0. No level, tile,
        // sliver, batch or thread enters it.
        let mut want = vec![f32::NAN; shape.c_len()];
        for (idx, w) in want.iter_mut().enumerate() {
            let (batch, i, j) = (idx / (m * n), idx / n % m, idx % n);
            let mut c = 0.0f32;
            for kk in (0..k).step_by(kc) {
                let mut acc = 0.0f32;
                for p in kk..k.min(kk + kc) {
                    let (x, y) = (a[(batch * m + i) * k + p], b[(batch * k + p) * n + j]);
                    acc = x.mul_add(y, acc);
                }
                c += acc;
            }
            *w = c;
        }
        if fill > 0 {
            // What accumulating onto a zero-filled C always gave.
            prop_assert!(want.iter().all(|w| w.to_bits() == 0));
        }
        rt.install(|| -> Result<(), TestCaseError> {
            for level in wino_gemm::supported_levels() {
                let mut row_major = vec![f32::NAN; shape.c_len()];
                row_major_batched(&shape, &a, &b, &mut row_major, &cfg, level);
                let held = batches * packed_b_len(k, n, level) + 33;
                let packed_b = if recycled {
                    let mut dirty = PackedB::recycled(vec![f32::NAN; held], batches, k, n, level);
                    write_in_runs::<8>(&mut dirty, &b);
                    dirty
                } else {
                    PackedB::pack(&b, batches, k, n, level)
                };
                let mut packed = vec![f32::NAN; shape.c_len()];
                if shared_a {
                    // One A for every batch: each batch's C is A[0]·B[batch].
                    let first = PackedA::pack(&a, 1, m, k, level);
                    batched_sgemm_packed(&shape, &first, &packed_b, &mut packed, &cfg);
                    let one = BatchedGemmShape { batches: 1, ..shape };
                    for batch in 0..batches {
                        let alone_b = PackedB::pack(&b[batch * k * n..], 1, k, n, level);
                        let mut alone = vec![f32::NAN; m * n];
                        batched_sgemm_packed(&one, &first, &alone_b, &mut alone, &cfg);
                        let stacked = &packed[batch * m * n..][..m * n];
                        prop_assert!(
                            alone.iter().map(|v| v.to_bits()).eq(stacked.iter().map(|v| v.to_bits())),
                            "{:?}: batch {} differs when multiplied alone", level, batch
                        );
                    }
                    packed.truncate(m * n);
                } else {
                    let packed_a = PackedA::pack(&a, batches, m, k, level);
                    batched_sgemm_packed(&shape, &packed_a, &packed_b, &mut packed, &cfg);
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
                if recycled {
                    // The buffer keeps its high-water length for the next call.
                    prop_assert_eq!(packed_b.into_raw().len(), held);
                }
            }
            Ok(())
        })?;
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
        let (mr, nr) = tile_extents(level);
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
        let model = pack_b_model(k, n, level);
        let whole = PackedB::pack(&b, batches, k, n, level);
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
        // The windows the walk of a column step's task reads: each
        // holds the micro-tile's columns at the depths of its k-block,
        // `b_width` lanes a depth — zero past column n — and the walks
        // of all steps read every slot of the operand.
        let step = packed_step(nc, nr);
        prop_assert!(step.is_multiple_of(nr) && step >= nr);
        let mut read = vec![false; model.len()];
        for cols in dim_blocks(n, step) {
            let tile = TaskTile { rows: DimBlock { start: 0, len: mr }, cols };
            for t in tile_walk(tile, k, n, kc, level) {
                for p in 0..t.depth.len {
                    for c in 0..t.b_width {
                        let col = t.j + c;
                        let want = if c < t.cols {
                            PackSlot::Src { row: t.depth.start + p, col }
                        } else {
                            PackSlot::Zero
                        };
                        let slot = t.b_off + p * t.b_width + c;
                        prop_assert_eq!(model.get(slot), Some(&want));
                        read[slot] = true;
                    }
                }
            }
        }
        prop_assert!(read.iter().all(|&r| r), "a slot no window reads");
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
            let packed = wino_runtime::Runtime::serial()
                .install(|| PackedA::pack(&a, batches, m, k, level));
            // Four tasks sharing the row slivers, each storing its rows
            // in runs of up to five (no sliver height is a multiple),
            // pack what one does.
            let rt = wino_runtime::Runtime::with_threads(4);
            let fill = |vals: &mut Vec<[f32; 8]>, sliver: &mut ASliver<'_>| {
                let rows = sliver.rows();
                for col in 0..k {
                    for r0 in rows.clone().step_by(5) {
                        let count = 5.min(rows.end - r0);
                        for (batch, lanes) in vals.iter_mut().enumerate() {
                            for (l, lane) in lanes[..count].iter_mut().enumerate() {
                                *lane = a[(batch * m + r0 + l) * k + col];
                            }
                        }
                        sliver.push(count, vals);
                    }
                }
            };
            let task_state = || vec![[f32::NAN; 8]; batches];
            let shared = rt.install(|| PackedA::from_slivers(batches, m, k, level, task_state, fill));
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
