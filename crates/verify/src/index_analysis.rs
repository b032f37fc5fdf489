//! Static index analysis of the blocked-GEMM packing and tiling.
//!
//! `wino-gemm` exports its loop nest as data ([`wino_gemm::TaskGrid`],
//! [`wino_gemm::dim_blocks`], a task's walk [`wino_gemm::tile_walk`],
//! the pack models) and the GEMM *consumes those descriptors*, so the
//! schedule this module reasons about is the schedule that executes —
//! by construction, not by transcription. Over that data the analysis
//! proves, for a grid of problem shapes × blocking configs × every SIMD
//! dispatch level, plus the zoo's im2col shapes:
//!
//! - **Coverage and k-order:** every `(i, j)` of every batch's `C` is
//!   written exactly once — by the k-block at depth 0, its first visit
//!   — and then meets each later k-block once, in ascending depth: no
//!   element missed (a wrong result), none touched by two tasks (a data
//!   race), and none summed in another order than the serial one (other
//!   bits).
//! - **Disjointness:** the unit of parallelism is a (batch, tile) task;
//!   the tiles of one grid partition each `C` — row blocks and column
//!   steps each partition their dimension, on sliver boundaries — so no
//!   two tasks' write sets intersect and the `DisjointSlice` windows in
//!   the micro-kernels are sound.
//! - **In-bounds:** every micro-tile's `C` row segment stays inside the
//!   matrix and inside its task's tile — including every ragged
//!   remainder combination (`m % mr`, `n % nr`, tail blocks of
//!   `mc`/`kc` and of the column step).
//! - **Packed operands:** both operands reach the nest packed whole
//!   ([`wino_gemm::PackedA`], [`wino_gemm::PackedB`]) and are windowed
//!   in place; [`check_packed_schedule`] proves every window a task's
//!   walk reads — blocks stepped by the grid's row and column steps,
//!   windows at [`wino_gemm::packed_block_off`], slivers a full depth
//!   apart, each B window as wide as the walk says
//!   ([`wino_gemm::b_sliver_width`]: a ragged last sliver the
//!   one-vector body reads is half as wide) — stays inside the operand
//!   and holds exactly the rows (columns) and depths the tile
//!   multiplies, the zero padding of the last ragged sliver included,
//!   and that the windows read every slot: no operand holds padding no
//!   kernel loads.
//! - **The Winograd output scatter:** `wino-conv` exports its output
//!   stage's lane-group → row-segment map ([`wino_conv::ScatterMap`])
//!   and the engine stores through it; [`check_scatter`] proves over a
//!   shape grid, and over the Table-4 layers at batch 1 and 5, that the
//!   segments cover each output element exactly once, each inside its
//!   plane row. That is what lets the engine write its output without
//!   zero-filling it, as the GEMM coverage above does for im2col's.
//!
//! The reasoning is interval/affine arithmetic over loop bounds: all
//! quantities are affine in the block descriptors, so checking every
//! descriptor (there are finitely many per shape) *is* the proof for
//! that shape. The model-vs-implementation gap for the packing loops —
//! `pack_a`/`pack_b` and the column writers are hand-written while the
//! analysis walks [`wino_gemm::pack_a_model`]/[`wino_gemm::pack_b_model`]
//! — is closed by [`cross_check_packing`], which runs the real loops on
//! sentinel-valued matrices and compares slot-for-slot against the
//! model. It also runs the sliver writer a filter bank is born packed
//! through ([`wino_gemm::ASliver`]) over sentinel buffers, push by push:
//! the bank is never zero-filled and its length is set once the writers
//! are done, so each slot must be stored by its own sliver's writer,
//! by the push it belongs to, with the model's value.

use std::fmt;
use std::mem::MaybeUninit;

use wino_conv::{LaneGroup, ScatterMap};
use wino_gemm::{
    dim_blocks, pack_a, pack_a_model, pack_b, pack_b_model, packed_a_len, packed_b_len,
    supported_levels, tile_extents, tile_walk, DimBlock, GemmConfig, MicroTile, PackSlot, PackedA,
    PackedASlivers, PackedB, SimdLevel, TaskGrid, TaskTile,
};

/// Floats per depth the `level` kernel bodies load from a B window:
/// `nr` for the full tile, and at a vector level half of it for the
/// one-vector body. A walk's window width must be one of these.
fn body_widths(level: SimdLevel) -> Vec<usize> {
    let nr = tile_extents(level).1;
    match level {
        SimdLevel::Scalar => vec![nr],
        SimdLevel::Avx2 | SimdLevel::Avx512 => vec![nr / 2, nr],
    }
}
use wino_runtime::Runtime;

/// One defect found by the index analysis.
#[derive(Clone, Debug)]
pub struct IndexIssue {
    /// Which configuration/loop the defect is in.
    pub context: String,
    /// The violated property, with concrete indices.
    pub detail: String,
}

impl fmt::Display for IndexIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.context, self.detail)
    }
}

/// The analysis outcome for one `(shape, config, level)` point.
#[derive(Clone, Debug)]
pub struct IndexCheck {
    /// Human label, e.g. `gemm 65x129x257 cfg(64,128,256) avx2`.
    pub label: String,
    /// All defects found (empty = proven clean).
    pub issues: Vec<IndexIssue>,
}

impl IndexCheck {
    /// Whether this point proved clean.
    pub fn passed(&self) -> bool {
        self.issues.is_empty()
    }
}

/// Problem shapes the sweep proves: exact block multiples, primes,
/// sub-micro-tile extents, singletons, and shapes straddling every
/// cache-block boundary.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (4, 4, 4),
    (5, 3, 7),
    (6, 1, 8),
    (13, 17, 19),
    (37, 53, 41),
    (64, 128, 256),
    (65, 129, 257),
    (3, 2, 131),
    // Served Winograd GEMMs: one exact narrow sliver at AVX-512 (no
    // padding lane), and two full slivers plus a narrow one.
    (384, 384, 16),
    (384, 384, 80),
];

/// The `(K, C·r², OH·OW)` GEMMs of zoo layers the selector sends to
/// im2col, proven under the default config the engine runs them with:
/// AlexNet conv1 (11×11 stride 4), a NiN 1×1 on 27×27, and Inception
/// 1×1s on 28×28, 14×14 and 7×7 — the smallest (32 rows of 49 columns)
/// and the widest filter matrix among them.
const ZOO_IM2COL_SHAPES: &[(usize, usize, usize)] = &[
    (96, 363, 3025),
    (256, 256, 729),
    (16, 192, 784),
    (24, 512, 196),
    (32, 832, 49),
    (384, 832, 49),
];

/// Batch counts the grid proofs flatten: one product, and a batch-5
/// im2col call's worth of images is covered by three.
const BATCHES: usize = 3;

/// Blocking configs the sweep proves: the default, a tiny config that
/// maximizes block-count edge cases, and an awkward config whose steps
/// divide nothing evenly (every tail is ragged).
fn sweep_configs() -> Vec<GemmConfig> {
    vec![
        GemmConfig::default(),
        GemmConfig {
            mc: 8,
            kc: 8,
            nc: 16,
        },
        GemmConfig {
            mc: 5,
            kc: 3,
            nc: 7,
        },
    ]
}

fn issue(context: &str, detail: impl Into<String>) -> IndexIssue {
    IndexIssue {
        context: context.to_string(),
        detail: detail.into(),
    }
}

/// Checks that `blocks` partitions `[0, total)` in order with only the
/// final block ragged. The blocks must come from the exported
/// iterators; this re-derives the partition property instead of
/// trusting it.
fn check_partition(
    ctx: &str,
    dim: &str,
    blocks: &[wino_gemm::DimBlock],
    total: usize,
    step: usize,
    issues: &mut Vec<IndexIssue>,
) {
    let mut expect_start = 0usize;
    for (idx, b) in blocks.iter().enumerate() {
        if b.start != expect_start {
            issues.push(issue(
                ctx,
                format!(
                    "{dim} block {idx} starts at {} (expected {expect_start})",
                    b.start
                ),
            ));
            return;
        }
        if b.len == 0 || b.len > step {
            issues.push(issue(
                ctx,
                format!(
                    "{dim} block {idx} has degenerate extent {} (step {step})",
                    b.len
                ),
            ));
            return;
        }
        if b.len < step && idx != blocks.len() - 1 {
            issues.push(issue(
                ctx,
                format!("{dim} block {idx} is ragged ({} < {step}) but not last — remainder handled early", b.len),
            ));
            return;
        }
        expect_start = b.end();
    }
    if expect_start != total {
        issues.push(issue(
            ctx,
            format!("{dim} blocks cover [0, {expect_start}), dimension is {total} — remainder unhandled"),
        ));
    }
}

/// Checks one task list, and the walk each task runs, against the
/// `batches` products of `m × k` by `k × n` it must compute: every tile
/// on sliver boundaries of the packed operands and inside its `C`;
/// every micro-tile of its walk inside the task's tile, with its
/// windows inside the packed operands; and, element by element, the
/// accumulation chain the walks give each `C` element. That chain is
/// the disjointness argument for the `DisjointSlice` the tasks share
/// and the argument that an element's bits are the serial ones: its
/// first visit is the k-block at depth 0, which writes it — exactly one
/// such visit, by one task — and each later visit adds the k-block
/// that starts where the previous one ended, until depth `k`. Takes
/// the tasks and the walk as arguments so negative fixtures can feed a
/// tampered grid or walk.
fn check_tasks(
    ctx: &str,
    tasks: &[(usize, TaskTile)],
    (batches, m, k, n): (usize, usize, usize, usize),
    level: SimdLevel,
    walk: impl Fn(TaskTile) -> Vec<MicroTile>,
    issues: &mut Vec<IndexIssue>,
) {
    let (mr, nr) = tile_extents(level);
    let (a_len, b_len) = (packed_a_len(m, k, mr), packed_b_len(k, n, level));
    let widths = body_widths(level);
    let element = |e: usize| format!("C[{}][{}, {}]", e / (m * n), e / n % m, e % n);
    // Per `C` element: the visits that wrote it, and the depth its
    // chain has reached.
    let mut writes = vec![0u32; batches * m * n];
    let mut reached = vec![0usize; batches * m * n];
    for &(batch, tile) in tasks {
        let (rows, cols) = (tile.rows, tile.cols);
        let tctx = format!("{ctx} task({batch};{},{})", rows.start, cols.start);
        if !rows.start.is_multiple_of(mr) || !cols.start.is_multiple_of(nr) {
            issues.push(issue(
                &tctx,
                format!("tile origin is off the {mr}x{nr} sliver grid of the packed operands"),
            ));
            return;
        }
        if batch >= batches || rows.len == 0 || cols.len == 0 || rows.end() > m || cols.end() > n {
            issues.push(issue(
                &tctx,
                format!(
                    "tile rows {}..{} cols {}..{} escape C {m}x{n} of {batches} batches",
                    rows.start,
                    rows.end(),
                    cols.start,
                    cols.end()
                ),
            ));
            return;
        }
        for t in walk(tile) {
            let (i, j, d) = (t.i, t.j, t.depth);
            let fail = |detail: String| {
                let at = format!("micro-tile ({i},{j}) at depth {}..{}", d.start, d.end());
                issue(&tctx, format!("{at}: {detail}"))
            };
            if t.rows == 0 || t.rows > mr || t.cols == 0 || t.cols > nr || d.len == 0 {
                issues.push(fail(format!(
                    "degenerate extent {}x{} over {} depths",
                    t.rows, t.cols, d.len
                )));
                return;
            }
            // Inside the task's tile — the disjointness half of the
            // DisjointSlice argument, and with the tile inside C (above)
            // the debug_assert in run_tile — and inside the depth.
            if i < rows.start
                || i + t.rows > rows.end()
                || j < cols.start
                || j + t.cols > cols.end()
            {
                issues.push(fail(format!(
                    "rows {i}..{} cols {j}..{} escape the task's tile",
                    i + t.rows,
                    j + t.cols
                )));
                return;
            }
            if d.end() > k {
                issues.push(fail(format!("k-block escapes the depth {k}")));
                return;
            }
            // The windows stay inside the packed operands;
            // `check_packed_schedule` proves what they hold.
            if t.a_off + d.len * mr > a_len {
                let end = t.a_off + d.len * mr;
                let detail = format!("A window [{}, {end}) escapes packed A of {a_len}", t.a_off);
                issues.push(fail(detail));
                return;
            }
            if !widths.contains(&t.b_width) || t.cols > t.b_width {
                let w = t.b_width;
                let detail = format!(
                    "B window {w} wide: no kernel body loads {w} lanes for {} columns",
                    t.cols
                );
                issues.push(fail(detail));
                return;
            }
            if t.b_off + d.len * t.b_width > b_len {
                let end = t.b_off + d.len * t.b_width;
                let detail = format!("B window [{}, {end}) escapes packed B of {b_len}", t.b_off);
                issues.push(fail(detail));
                return;
            }
            for e in (0..t.rows).flat_map(|r| {
                let row = (batch * m + i + r) * n + j;
                row..row + t.cols
            }) {
                if d.start == 0 {
                    writes[e] += 1;
                } else if reached[e] == 0 {
                    issues.push(fail(format!(
                        "{} first visited at depth {}: it would add to an element no \
                         k-block has written",
                        element(e),
                        d.start
                    )));
                    return;
                } else if reached[e] != d.start {
                    issues.push(fail(format!(
                        "{} takes the k-block at depth {} after depths [0, {}) — out of order",
                        element(e),
                        d.start,
                        reached[e]
                    )));
                    return;
                }
                reached[e] = d.end();
            }
        }
    }
    let bad = (0..writes.len()).find(|&e| writes[e] != 1 || reached[e] != k);
    if let Some(e) = bad {
        let detail = if writes[e] != 1 {
            format!(
                "{} written {} times (want exactly 1)",
                element(e),
                writes[e]
            )
        } else {
            format!(
                "{} accumulates depths [0, {}) of {k}",
                element(e),
                reached[e]
            )
        };
        issues.push(issue(ctx, detail));
    }
}

/// Proves the full schedule for one `(m, k, n)` × config × level
/// point, flattened over `BATCHES` products the way a batched call
/// flattens them. Every property is derived from the exported
/// descriptors; nothing about the shape is assumed beyond what the
/// descriptors say.
pub fn check_schedule(
    m: usize,
    k: usize,
    n: usize,
    cfg: &GemmConfig,
    level: SimdLevel,
) -> IndexCheck {
    let label = format!(
        "gemm {m}x{k}x{n} cfg({},{},{}) {}",
        cfg.mc,
        cfg.kc,
        cfg.nc,
        level.name()
    );
    let mut issues = Vec::new();
    let grid = TaskGrid::new(BATCHES, m, n, cfg, level);
    let tasks: Vec<_> = (0..grid.len()).map(|i| grid.task(i)).collect();
    // The row blocks and column steps of the first product's tiles:
    // each must partition its dimension, ragged only at the end.
    let first = || tasks.iter().filter(|(batch, _)| *batch == 0);
    let row_blocks: Vec<_> = first()
        .filter(|(_, t)| t.cols.start == 0)
        .map(|(_, t)| t.rows)
        .collect();
    check_partition(
        &label,
        "task-row",
        &row_blocks,
        m,
        grid.row_step(),
        &mut issues,
    );
    let col_steps: Vec<_> = first()
        .filter(|(_, t)| t.rows.start == 0)
        .map(|(_, t)| t.cols)
        .collect();
    check_partition(
        &label,
        "task-column",
        &col_steps,
        n,
        grid.col_step(),
        &mut issues,
    );
    let kblocks: Vec<_> = dim_blocks(k, cfg.kc).collect();
    check_partition(&label, "k", &kblocks, k, cfg.kc, &mut issues);
    if issues.is_empty() {
        let walk = |tile| tile_walk(tile, k, n, cfg.kc, level).collect();
        check_tasks(&label, &tasks, (BATCHES, m, k, n), level, walk, &mut issues);
    }
    IndexCheck { label, issues }
}

/// Which operand of the multiply a packed-window proof is about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PackedSide {
    /// `m × k`, `mr`-row slivers, the grid's row blocks.
    A,
    /// `k × n`, `nr`-column slivers, the grid's column steps.
    B,
}

/// Proves the windows of one packed operand — A `extent × k` or B `k ×
/// extent` — × config × level: a task's tile spans one block of the
/// [`TaskGrid`]'s row (column) step, and its walk ([`tile_walk`]) reads
/// each micro-tile's window at `a_off` (`b_off`), `mr` (`b_width`)
/// lanes a depth. Against the full-depth layout model
/// `pack_a_model(m, k, mr)` / `pack_b_model(k, n, level)` — which
/// [`cross_check_packing`] ties to what [`PackedA::pack`] and
/// [`PackedB`]'s run writer produce — every window must lie inside the
/// operand and hold, slot for slot, the micro-tile's rows (columns) at
/// the depths of its k-block, zero past the operand's edge; the
/// windows together must read every slot, so the operand holds no
/// padding no kernel loads; and the blocks must partition the extent so
/// `C` coverage is the row-major schedule's. The other operand plays no
/// part in these offsets, so one sliver of it stands for all.
pub fn check_packed_schedule(
    side: PackedSide,
    extent: usize,
    k: usize,
    cfg: &GemmConfig,
    level: SimdLevel,
) -> IndexCheck {
    let (mr, nr) = tile_extents(level);
    // The other operand's extent plays no part in this one's step.
    let step = match side {
        PackedSide::A => TaskGrid::new(1, extent, nr, cfg, level).row_step(),
        PackedSide::B => TaskGrid::new(1, mr, extent, cfg, level).col_step(),
    };
    let label = format!(
        "packed-{side:?} {extent}x{k} step({step},{}) {}",
        cfg.kc,
        level.name()
    );
    let mut issues = Vec::new();
    // The B operand is `extent` columns wide; under A, the one sliver
    // of B that stands for all is `nr` wide.
    let n = if side == PackedSide::B { extent } else { nr };
    let walk = |tile| tile_walk(tile, k, n, cfg.kc, level).collect();
    check_packed_windows(&label, side, extent, k, step, level, walk, &mut issues);
    IndexCheck { label, issues }
}

/// The body of [`check_packed_schedule`] with the block step and the
/// walk as parameters, so negative fixtures can feed the values a
/// refactor would most likely get wrong (`cfg.mc` itself as the step;
/// slivers strided by the depth of a block packed on its own; a narrow
/// last sliver strided as a full one).
#[allow(clippy::too_many_arguments)]
fn check_packed_windows(
    ctx: &str,
    side: PackedSide,
    extent: usize,
    k: usize,
    step: usize,
    level: SimdLevel,
    walk: impl Fn(TaskTile) -> Vec<MicroTile>,
    issues: &mut Vec<IndexIssue>,
) {
    let (mr, nr) = tile_extents(level);
    let r = match side {
        PackedSide::A => mr,
        PackedSide::B => nr,
    };
    if step == 0 || !step.is_multiple_of(r) {
        issues.push(issue(
            ctx,
            format!("block step {step} is not whole {r}-wide slivers"),
        ));
        return;
    }
    let blocks: Vec<_> = dim_blocks(extent, step).collect();
    check_partition(ctx, "packed", &blocks, extent, step, issues);
    let (model, len) = match side {
        PackedSide::A => (pack_a_model(extent, k, mr), packed_a_len(extent, k, mr)),
        PackedSide::B => (
            pack_b_model(k, extent, level),
            packed_b_len(k, extent, level),
        ),
    };
    let mut read = vec![false; len];
    for &bp in &blocks {
        // One sliver of the other operand.
        let tile = match side {
            PackedSide::A => TaskTile {
                rows: bp,
                cols: DimBlock { start: 0, len: nr },
            },
            PackedSide::B => TaskTile {
                rows: DimBlock { start: 0, len: mr },
                cols: bp,
            },
        };
        for t in walk(tile) {
            // The window's offset, first row (column), how many lanes a
            // depth the kernel loads from it, and how many are real.
            let (off, start, r, real) = match side {
                PackedSide::A => (t.a_off, t.i, mr, t.rows),
                PackedSide::B => (t.b_off, t.j, t.b_width, t.cols),
            };
            let (kk, kb) = (t.depth.start, t.depth.len);
            if off + kb * r > len {
                issues.push(issue(
                    ctx,
                    format!(
                        "tile {start} at depth {kk}: window [{off}, {}) escapes the packed \
                         operand of {len}",
                        off + kb * r
                    ),
                ));
                return;
            }
            for p in 0..kb {
                for lane in 0..r {
                    let (at, depth) = (start + lane, kk + p);
                    let want = match side {
                        _ if lane >= real => PackSlot::Zero,
                        PackedSide::A => PackSlot::Src {
                            row: at,
                            col: depth,
                        },
                        PackedSide::B => PackSlot::Src {
                            row: depth,
                            col: at,
                        },
                    };
                    let got = model[off + p * r + lane];
                    read[off + p * r + lane] = true;
                    if got != want {
                        issues.push(issue(
                            ctx,
                            format!(
                                "tile {start} at depth {kk}: slot ({p},{lane}) holds {got:?}, \
                                 micro-kernel expects {want:?}"
                            ),
                        ));
                        return;
                    }
                }
            }
        }
    }
    if let Some(slot) = read.iter().position(|&r| !r) {
        issues.push(issue(
            ctx,
            format!(
                "slot {slot} of the packed operand ({:?}) is read by no window",
                model[slot]
            ),
        ));
    }
}

/// Checks one pack model: declared length, every source reference
/// inside the block, every block element packed exactly once, padding
/// exactly where the model says (the sliver tails).
fn check_pack_model(
    ctx: &str,
    model: &[PackSlot],
    rows: usize,
    cols: usize,
    declared_len: usize,
    issues: &mut Vec<IndexIssue>,
) {
    if model.len() != declared_len {
        issues.push(issue(
            ctx,
            format!(
                "model has {} slots, declared length is {declared_len}",
                model.len()
            ),
        ));
        return;
    }
    let mut cover = vec![0u32; rows * cols];
    let mut zeros = 0usize;
    for (s, slot) in model.iter().enumerate() {
        match slot {
            PackSlot::Src { row, col } => {
                if *row >= rows || *col >= cols {
                    issues.push(issue(
                        ctx,
                        format!("slot {s} reads block[{row}, {col}] outside {rows}x{cols}"),
                    ));
                    return;
                }
                cover[row * cols + col] += 1;
            }
            PackSlot::Zero => zeros += 1,
        }
    }
    if let Some((pos, &count)) = cover.iter().enumerate().find(|(_, &c)| c != 1) {
        issues.push(issue(
            ctx,
            format!(
                "block element ({}, {}) packed {count} times (want exactly 1)",
                pos / cols,
                pos % cols
            ),
        ));
        return;
    }
    if zeros != declared_len - rows * cols {
        issues.push(issue(
            ctx,
            format!(
                "{zeros} zero slots, expected {}",
                declared_len - rows * cols
            ),
        ));
    }
}

/// Runs the full schedule proof over the shape × config × level grid.
pub fn analyze_gemm_indexing() -> Vec<IndexCheck> {
    let mut out = Vec::new();
    for cfg in sweep_configs() {
        for &(m, k, n) in SHAPES {
            for level in SimdLevel::ALL {
                out.push(check_schedule(m, k, n, &cfg, level));
            }
        }
    }
    // The same grid's operands, packed whole: A as `m × k` row
    // slivers, B as `k × n` column slivers.
    for cfg in sweep_configs() {
        for &(m, k, n) in SHAPES {
            for level in SimdLevel::ALL {
                out.push(check_packed_schedule(PackedSide::A, m, k, &cfg, level));
                out.push(check_packed_schedule(PackedSide::B, n, k, &cfg, level));
            }
        }
    }
    // The zoo's im2col GEMMs: grid and windows, as the engine runs them.
    let cfg = GemmConfig::default();
    for &(m, k, n) in ZOO_IM2COL_SHAPES {
        for level in SimdLevel::ALL {
            out.push(check_schedule(m, k, n, &cfg, level));
            out.push(check_packed_schedule(PackedSide::A, m, k, &cfg, level));
            out.push(check_packed_schedule(PackedSide::B, n, k, &cfg, level));
        }
    }
    // Pack-model structure for every (block, sliver) extent the grid
    // can produce, plus primes and sub-sliver extents.
    for &(mb, kb, mr) in &[
        (64usize, 128usize, 4usize),
        (64, 128, 6),
        (1, 1, 4),
        (5, 3, 6),
        (13, 7, 4),
        (6, 8, 6),
        (3, 2, 4),
        (64, 128, 14),
        (15, 3, 14),
    ] {
        let label = format!("pack_a model {mb}x{kb}/mr{mr}");
        let mut issues = Vec::new();
        check_pack_model(
            &label,
            &pack_a_model(mb, kb, mr),
            mb,
            kb,
            packed_a_len(mb, kb, mr),
            &mut issues,
        );
        out.push(IndexCheck { label, issues });
    }
    let (scalar, avx2, avx512) = (SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512);
    for &(kb, nb, level) in &[
        (128usize, 256usize, scalar),
        (128, 256, avx2),
        (1, 1, avx2),
        (3, 7, avx2),
        (7, 13, scalar),
        (16, 16, avx2),
        (2, 19, avx2),
        (3, 40, avx2),
        (128, 256, avx512),
        (3, 33, avx512),
        (3, 16, avx512),
        (3, 80, avx512),
    ] {
        let label = format!("pack_b model {kb}x{nb}/nr{}", tile_extents(level).1);
        let mut issues = Vec::new();
        // The B model packs a kb×nb block element-for-element; its
        // "rows × cols" coverage domain is kb × nb.
        check_pack_model(
            &label,
            &pack_b_model(kb, nb, level),
            kb,
            nb,
            packed_b_len(kb, nb, level),
            &mut issues,
        );
        out.push(IndexCheck { label, issues });
    }
    out
}

/// Output-stage shapes the scatter proof sweeps, `(batch, K, oh, ow)`:
/// one element, planes smaller than any tile, `oh`/`ow` no `m` divides,
/// rows of fewer tiles than a lane group, and pair counts off the lane
/// width, so groups straddle tile rows, images and filters and the last
/// one is ragged.
const SCATTER_SHAPES: &[(usize, usize, usize, usize)] = &[
    (1, 1, 1, 1),
    (1, 1, 2, 2),
    (2, 3, 7, 5),
    (1, 5, 13, 13),
    (3, 2, 6, 11),
    (2, 1, 1, 9),
    (1, 9, 17, 3),
    (5, 7, 14, 14),
];

/// Proves the output stage's scatter for one geometry: every lane
/// group's spans are row segments of at most `m × m` inside one plane
/// row each, the lanes past a group's count store nothing, the groups
/// hold every `(k, p)` pair once, and the segments cover each output
/// element exactly once.
pub fn check_scatter(batch: usize, out_ch: usize, oh: usize, ow: usize, m: usize) -> IndexCheck {
    let map = ScatterMap::new(batch, out_ch, oh, ow, m);
    let label = format!("scatter {batch}x{out_ch}x{oh}x{ow} m{m}");
    let groups = (0..map.groups()).map(|g| map.group(g));
    check_scatter_groups(label, &map, oh, groups)
}

/// [`check_scatter`]'s obligations over `groups`, in the place of
/// `map`'s own (the negative fixtures hand it tampered ones).
fn check_scatter_groups(
    label: String,
    map: &ScatterMap,
    oh: usize,
    groups: impl Iterator<Item = LaneGroup>,
) -> IndexCheck {
    let mut issues = Vec::new();
    let (m, len, ow) = (map.m(), map.out_len(), map.row_stride());
    let mut seen = vec![0u8; len];
    let mut lanes = 0;
    'groups: for (g, group) in groups.enumerate() {
        lanes += group.count;
        for (l, span) in group.spans.iter().enumerate() {
            if l >= group.count {
                if span.rows * span.cols != 0 {
                    issues.push(issue(
                        &label,
                        format!("group {g} lane {l} is empty but stores"),
                    ));
                }
                continue;
            }
            let (x, y) = (span.origin % ow, span.origin / ow % oh);
            if !(1..=m).contains(&span.rows)
                || !(1..=m).contains(&span.cols)
                || x + span.cols > ow
                || y + span.rows > oh
            {
                issues.push(issue(
                    &label,
                    format!("group {g} lane {l}: {span:?} leaves its plane"),
                ));
                break 'groups;
            }
            for dy in 0..span.rows {
                let row = span.row(dy, ow);
                if row.end > len {
                    issues.push(issue(
                        &label,
                        format!("group {g} lane {l} row {dy}: {row:?} past {len}"),
                    ));
                    break 'groups;
                }
                for e in &mut seen[row] {
                    *e = e.saturating_add(1);
                }
            }
        }
    }
    if lanes != map.pairs() {
        issues.push(issue(
            &label,
            format!("groups hold {lanes} lanes for {} pairs", map.pairs()),
        ));
    }
    if let Some(e) = seen.iter().position(|&count| count != 1) {
        issues.push(issue(
            &label,
            format!("output element {e} written {} times", seen[e]),
        ));
    }
    IndexCheck { label, issues }
}

/// [`check_scatter`] over `SCATTER_SHAPES` at every `m` of Table 1
/// (2..=10), and over every Table-4 layer at batch 1 and 5 at each `m`
/// the build compiled kernels for at its filter size.
pub fn analyze_scatter() -> Vec<IndexCheck> {
    let mut out = Vec::new();
    for &(batch, k, oh, ow) in SCATTER_SHAPES {
        for m in 2..=10 {
            out.push(check_scatter(batch, k, oh, ow, m));
        }
    }
    for desc in wino_graph::table4_convs() {
        let ms = wino_conv::compiled::compiled_specs()
            .iter()
            .filter(|&&(_, r)| r == desc.ksz);
        for &(m, _) in ms {
            for batch in [1, 5] {
                out.push(check_scatter(
                    batch,
                    desc.out_ch,
                    desc.out_h(),
                    desc.out_w(),
                    m,
                ));
            }
        }
    }
    out
}

/// Closes the model/implementation gap: runs the real
/// [`wino_gemm::pack_a`]/[`wino_gemm::pack_b`] loops over matrices
/// whose every element encodes its own flat index (exact in f32 for
/// these extents) and demands the buffer match the model slot for
/// slot, with capacity padding untouched.
pub fn cross_check_packing() -> Vec<IndexCheck> {
    const SENTINEL: f32 = -1.0;
    let mut out = Vec::new();
    for &(mb, kb, mr, ii, kk) in &[
        (13usize, 5usize, 4usize, 3usize, 2usize),
        (6, 8, 6, 0, 0),
        (1, 1, 4, 7, 7),
        (5, 3, 6, 1, 0),
        (4, 4, 4, 0, 5),
        (15, 4, 14, 2, 1),
    ] {
        let label = format!("pack_a impl {mb}x{kb}/mr{mr}@({ii},{kk})");
        let mut issues = Vec::new();
        let lda = kk + kb + 3;
        let a: Vec<f32> = (0..(ii + mb) * lda).map(|v| v as f32 + 2.0).collect();
        let len = packed_a_len(mb, kb, mr);
        let mut dst = vec![SENTINEL; len + 5];
        pack_a(&mut dst, &a, ii, kk, mb, kb, lda, mr);
        for (s, slot) in pack_a_model(mb, kb, mr).iter().enumerate() {
            let want = match slot {
                PackSlot::Src { row, col } => a[(ii + row) * lda + kk + col],
                PackSlot::Zero => 0.0,
            };
            if dst[s] != want {
                issues.push(issue(
                    &label,
                    format!("slot {s}: impl wrote {}, model says {want}", dst[s]),
                ));
                break;
            }
        }
        if dst[len..].iter().any(|&v| v != SENTINEL) {
            issues.push(issue(&label, "impl wrote past the model length"));
        }
        out.push(IndexCheck { label, issues });
    }
    // The ahead-of-time operand: `PackedA::pack` must write, per
    // matrix, the whole-matrix model `check_packed_schedule` walks —
    // at every level this host runs (no operand is built for a level
    // it lacks; those layouts are proven on the models above).
    for &(batches, m, k) in &[(2usize, 13usize, 5usize), (1, 6, 8), (3, 1, 1), (1, 65, 9)] {
        for level in supported_levels() {
            let mr = tile_extents(level).0;
            let label = format!("PackedA impl {batches}x{m}x{k}/mr{mr}");
            let mut issues = Vec::new();
            let a: Vec<f32> = (0..batches * m * k).map(|v| v as f32 + 2.0).collect();
            let packed =
                Runtime::with_threads(2).install(|| PackedA::pack(&a, batches, m, k, level));
            let model = pack_a_model(m, k, mr);
            for batch in 0..batches {
                let got = packed.batch(batch);
                if got.len() != model.len() {
                    issues.push(issue(
                        &label,
                        format!(
                            "matrix {batch} holds {} slots, model {}",
                            got.len(),
                            model.len()
                        ),
                    ));
                    break;
                }
                let bad = model.iter().zip(got).position(|(slot, &v)| {
                    v != match slot {
                        PackSlot::Src { row, col } => a[(batch * m + row) * k + col],
                        PackSlot::Zero => 0.0,
                    }
                });
                if let Some(slot) = bad {
                    issues.push(issue(
                        &label,
                        format!(
                            "matrix {batch} slot {slot}: impl wrote {}, model disagrees",
                            got[slot]
                        ),
                    ));
                    break;
                }
            }
            out.push(IndexCheck { label, issues });
        }
    }
    // The operand born packed: `PackedA::from_slivers` keeps no zero
    // fill and calls `set_len` once its writers are done, so every slot
    // must be stored by exactly one of them. Its sliver writer runs here
    // over sentinel buffers, fed the way the filter transform feeds it
    // (a sliver's rows in lane groups of eight at each depth, the lanes
    // past a group's count stale) from matrices whose every element is
    // distinct: whole, every slot must hold the model's value, and one
    // sliver at a time, after each of its pushes, the writer must have
    // stored that push's slots (and a finished depth's padding rows)
    // and nothing else.
    for &(batches, m, k) in &[
        (2usize, 13usize, 5usize),
        (1, 6, 8),
        (3, 1, 1),
        (1, 65, 9),
        (2, 14, 3),
        (2, 15, 3),
        (1, 29, 4),
    ] {
        for level in supported_levels() {
            let mr = tile_extents(level).0;
            let label = format!("PackedA slivers {batches}x{m}x{k}/mr{mr}");
            let mut issues = Vec::new();
            let op = BornPacked::new(batches, m, k, level);
            let whole = op.write(None);
            check_sliver_slots(&label, &whole, |slot| Some(op.want(slot)), &mut issues);
            for s in 0..m.div_ceil(mr) {
                for pushes in 0..=op.pushes(s) {
                    let ctx = format!("{label} sliver {s} after {pushes} pushes");
                    let bits = op.write(Some((s, pushes)));
                    let expect = |slot| op.written(s, pushes, slot).then(|| op.want(slot));
                    check_sliver_slots(&ctx, &bits, expect, &mut issues);
                }
            }
            out.push(IndexCheck { label, issues });
        }
    }
    // The other ahead-of-time operand: `PackedB` filled a lane group
    // (8 columns) at a time, the way the Winograd input transform
    // fills it, must hold the whole-matrix B model — and so must one
    // filled a run at a time, the way the im2col gather fills it.
    for &(batches, k, n) in &[
        (2usize, 5usize, 13usize),
        (1, 8, 16),
        (3, 1, 1),
        (1, 9, 45),
        (2, 3, 40),
        (1, 5, 80),
    ] {
        for level in supported_levels() {
            let nr = tile_extents(level).1;
            let label = format!("PackedB impl {batches}x{k}x{n}/nr{nr}");
            let mut issues = Vec::new();
            let b: Vec<f32> = (0..batches * k * n).map(|v| v as f32 + 2.0).collect();
            let mut packed = PackedB::zeroed(batches, k, n, level);
            let columns = packed.columns();
            for depth in 0..k {
                for col in (0..n).step_by(8) {
                    let count = 8.min(n - col);
                    let vals: Vec<[f32; 8]> = (0..batches)
                        .map(|batch| {
                            let mut lanes = [SENTINEL; 8];
                            let row = &b[(batch * k + depth) * n..][..n];
                            lanes[..count].copy_from_slice(&row[col..col + count]);
                            lanes
                        })
                        .collect();
                    // SAFETY: one thread; each column run of a row is
                    // written once.
                    unsafe { columns.write(depth, col, count, &vals) };
                }
            }
            // The same operand through the im2col gather's writers, in
            // a dirty buffer: runs of 21 columns of one matrix, every
            // third one a border run written as zeros first.
            let dirty = vec![SENTINEL; batches * k * n + 3];
            let mut by_runs = PackedB::recycled(dirty, batches, k, n, level);
            let columns = by_runs.columns();
            for batch in 0..batches {
                for depth in 0..k {
                    let row = &b[(batch * k + depth) * n..][..n];
                    for col in (0..n).step_by(21) {
                        let count = 21.min(n - col);
                        // SAFETY: one thread; the runs of a row never
                        // overlap in time.
                        unsafe {
                            if col % 3 == 0 {
                                columns.zero_run(batch, depth, col, count);
                            }
                            columns.write_run(batch, depth, col, &row[col..col + count]);
                        }
                    }
                }
            }
            if (0..batches).any(|batch| by_runs.batch(batch) != packed.batch(batch)) {
                issues.push(issue(
                    &label,
                    "the run writers and the lane-group writer disagree on the layout",
                ));
            }
            let model = pack_b_model(k, n, level);
            for batch in 0..batches {
                let got = packed.batch(batch);
                let bad = (got.len() != model.len()).then_some(0).or_else(|| {
                    model.iter().zip(got).position(|(slot, &v)| {
                        v != match slot {
                            PackSlot::Src { row, col } => b[(batch * k + row) * n + col],
                            PackSlot::Zero => 0.0,
                        }
                    })
                });
                if let Some(slot) = bad {
                    issues.push(issue(
                        &label,
                        format!(
                            "matrix {batch} ({} slots, model {}) disagrees with the model at slot {slot}",
                            got.len(),
                            model.len()
                        ),
                    ));
                    break;
                }
            }
            out.push(IndexCheck { label, issues });
        }
    }
    let (scalar, avx2, avx512) = (SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512);
    for &(kb, nb, level, kk, jj) in &[
        (5usize, 13usize, avx2, 2usize, 3usize),
        (16, 16, avx2, 0, 0),
        (1, 1, avx2, 4, 4),
        (3, 7, scalar, 0, 1),
        (4, 20, avx2, 5, 0),
        (3, 45, avx512, 1, 2),
        (3, 40, avx2, 1, 1),
        (2, 48, avx512, 0, 2),
    ] {
        let label = format!(
            "pack_b impl {kb}x{nb}/nr{}@({kk},{jj})",
            tile_extents(level).1
        );
        let mut issues = Vec::new();
        let ldb = jj + nb + 3;
        let b: Vec<f32> = (0..(kk + kb) * ldb).map(|v| v as f32 + 2.0).collect();
        let len = packed_b_len(kb, nb, level);
        let mut dst = vec![SENTINEL; len + 5];
        pack_b(&mut dst, &b, kk, jj, kb, nb, ldb, level);
        for (s, slot) in pack_b_model(kb, nb, level).iter().enumerate() {
            let want = match slot {
                PackSlot::Src { row, col } => b[(kk + row) * ldb + jj + col],
                PackSlot::Zero => 0.0,
            };
            if dst[s] != want {
                issues.push(issue(
                    &label,
                    format!("slot {s}: impl wrote {}, model says {want}", dst[s]),
                ));
                break;
            }
        }
        if dst[len..].iter().any(|&v| v != SENTINEL) {
            issues.push(issue(&label, "impl wrote past the model length"));
        }
        out.push(IndexCheck { label, issues });
    }
    out
}

/// What no sliver writer stores: a NaN whose payload marks a slot the
/// writers left alone.
const UNWRITTEN: u32 = 0x7fc0_dead;

/// What the lanes of a group past its count hold: stored anywhere, it
/// reads as a wrong value, not as the sentinel.
const STALE: f32 = -1.0;

/// Lanes per push, as the filter transform groups a sliver's filters.
const GROUP: usize = 8;

/// A born-packed operand under test: `batches` matrices of `m × k`
/// whose element `(b, i, p)` is `(b·m + i)·k + p + 2` — distinct, exact
/// in f32 for these extents, and never `+0.0`.
struct BornPacked {
    batches: usize,
    m: usize,
    k: usize,
    mr: usize,
    level: SimdLevel,
    model: Vec<PackSlot>,
}

impl BornPacked {
    fn new(batches: usize, m: usize, k: usize, level: SimdLevel) -> Self {
        let mr = tile_extents(level).0;
        BornPacked {
            batches,
            m,
            k,
            mr,
            level,
            model: pack_a_model(m, k, mr),
        }
    }

    fn source(&self, batch: usize, row: usize, col: usize) -> f32 {
        ((batch * self.m + row) * self.k + col) as f32 + 2.0
    }

    /// Bits slot `slot` of the operand must end with.
    fn want(&self, slot: usize) -> u32 {
        let stride = self.model.len();
        match self.model[slot % stride] {
            PackSlot::Src { row, col } => self.source(slot / stride, row, col).to_bits(),
            PackSlot::Zero => 0.0f32.to_bits(),
        }
    }

    /// Rows of sliver `s`, and pushes its writer takes per depth.
    fn rows(&self, s: usize) -> (usize, usize) {
        let len = self.mr.min(self.m - s * self.mr);
        (len, len.div_ceil(GROUP))
    }

    /// Pushes that fill sliver `s`.
    fn pushes(&self, s: usize) -> usize {
        self.k * self.rows(s).1
    }

    /// Whether the first `pushes` pushes of sliver `s` store `slot`:
    /// its run, or a padding row of a depth whose last run is stored.
    fn written(&self, s: usize, pushes: usize, slot: usize) -> bool {
        let (k, mr) = (self.k, self.mr);
        let at = slot % self.model.len();
        if at / (k * mr) != s {
            return false;
        }
        let (depth, row) = (at % (k * mr) / mr, at % mr);
        let (len, per_depth) = self.rows(s);
        let push = depth * per_depth + row.min(len - 1) / GROUP;
        if row < len {
            push < pushes
        } else {
            (depth + 1) * per_depth <= pushes
        }
    }

    /// Runs the sliver writer over a sentinel-filled buffer — every
    /// sliver, or only the first `pushes` pushes of one — and returns
    /// the buffer's bits.
    fn write(&self, only: Option<(usize, usize)>) -> Vec<u32> {
        let (batches, m, k) = (self.batches, self.m, self.k);
        let len = batches * self.model.len();
        let mut buf = vec![MaybeUninit::new(f32::from_bits(UNWRITTEN)); len];
        let slivers = PackedASlivers::new(&mut buf, batches, m, k, self.level);
        let (first, count) = match only {
            Some((s, _)) => (s, 1),
            None => (0, slivers.count()),
        };
        let mut vals = vec![[STALE; GROUP]; batches];
        for s in first..first + count {
            // SAFETY: one thread, one writer of sliver `s` at a time.
            let mut sliver = unsafe { slivers.sliver(s) };
            let rows = sliver.rows();
            let mut left = only.map_or(usize::MAX, |(_, pushes)| pushes);
            for col in 0..k {
                for r0 in rows.clone().step_by(GROUP) {
                    if left == 0 {
                        break;
                    }
                    left -= 1;
                    let count = GROUP.min(rows.end - r0);
                    for (batch, lanes) in vals.iter_mut().enumerate() {
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            *lane = if l < count {
                                self.source(batch, r0 + l, col)
                            } else {
                                STALE
                            };
                        }
                    }
                    sliver.push(count, &vals);
                }
            }
        }
        drop(slivers);
        buf.iter()
            // SAFETY: every slot was initialised (to the sentinel)
            // before the writer ran, and the writer stores only floats.
            .map(|v| unsafe { v.assume_init() }.to_bits())
            .collect()
    }
}

/// Compares what sliver writers left in a sentinel-filled buffer with
/// what they must have stored: `expect(slot)` is the slot's bits, or
/// `None` where no writer may have touched it. Reports the first slot
/// that is missed, stored where nothing may be, or holds wrong bits.
fn check_sliver_slots(
    ctx: &str,
    bits: &[u32],
    expect: impl Fn(usize) -> Option<u32>,
    issues: &mut Vec<IndexIssue>,
) {
    for (slot, &got) in bits.iter().enumerate() {
        let detail = match expect(slot) {
            Some(_) if got == UNWRITTEN => format!("slot {slot} never written"),
            Some(want) if got != want => format!(
                "slot {slot} holds {}, the model says {}",
                f32::from_bits(got),
                f32::from_bits(want)
            ),
            None if got != UNWRITTEN => format!(
                "slot {slot} stored ({}) outside the writes so far",
                f32::from_bits(got)
            ),
            _ => continue,
        };
        issues.push(issue(ctx, detail));
        return;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sweep_proves_clean() {
        for check in analyze_gemm_indexing() {
            assert!(
                check.passed(),
                "{}: {}",
                check.label,
                check.issues.first().unwrap()
            );
        }
    }

    #[test]
    fn packing_impl_matches_models() {
        for check in cross_check_packing() {
            assert!(
                check.passed(),
                "{}: {}",
                check.label,
                check.issues.first().unwrap()
            );
        }
    }

    #[test]
    fn scatter_sweep_proves_clean() {
        let checks = analyze_scatter();
        // The grid at nine `m`s, and 31 Table-4 rows at two batches.
        assert!(checks.len() >= SCATTER_SHAPES.len() * 9 + 31 * 2);
        for check in checks {
            assert!(
                check.passed(),
                "{}: {}",
                check.label,
                check.issues.first().unwrap()
            );
        }
    }

    #[test]
    fn tampered_scatter_rejected() {
        // 2 images × 3 filters of 7×9 under m = 4: 2×3 tiles per plane,
        // 36 pairs, groups that straddle tile rows, images and filters,
        // and a ragged last group of four.
        let map = ScatterMap::new(2, 3, 7, 9, 4);
        let groups = || (0..map.groups()).map(|g| map.group(g));
        let check = |groups: Vec<LaneGroup>| {
            check_scatter_groups("fixture".into(), &map, 7, groups.into_iter())
        };
        assert!(check(groups().collect()).passed());
        // A lost ragged last group: a coverage hole and a lane short.
        let short: Vec<_> = groups().take(map.groups() - 1).collect();
        let issues = check(short).issues;
        assert!(issues
            .iter()
            .any(|i| i.detail.contains("lanes for 36 pairs")));
        assert!(issues.iter().any(|i| i.detail.contains("written 0 times")));
        // Two lanes storing one tile: a race the proof must name.
        let mut doubled: Vec<_> = groups().collect();
        doubled[1].spans[3] = doubled[1].spans[2];
        let issues = check(doubled).issues;
        assert!(issues.iter().any(|i| i.detail.contains("written 2 times")));
        // A clip that forgets the plane edge runs into the next row.
        let mut unclipped: Vec<_> = groups().collect();
        let edge = unclipped[0].spans.iter_mut().find(|s| s.cols < 4).unwrap();
        edge.cols = 4;
        let issues = check(unclipped).issues;
        assert!(issues.iter().any(|i| i.detail.contains("leaves its plane")));
    }

    // ---- negative fixtures: a tampered schedule is rejected with a
    // precise diagnostic ----

    /// A fixture's tasks, and its `(batches, m, k, n)`.
    type Tasks = (Vec<(usize, TaskTile)>, (usize, usize, usize, usize));

    /// One 13 × 5 by 5 × 17 product at the scalar level (4 × 4 tiles)
    /// under a config whose row blocks (8, 5), column steps (8, 8, 1)
    /// and k-blocks (2, 2, 1) all end ragged, and the walk its tasks run.
    fn walk_fixture() -> (Tasks, impl Fn(TaskTile) -> Vec<MicroTile>) {
        let (m, k, n) = (13, 5, 17);
        let cfg = GemmConfig {
            mc: 8,
            kc: 2,
            nc: 8,
        };
        let grid = TaskGrid::new(1, m, n, &cfg, SimdLevel::Scalar);
        let tasks = (0..grid.len()).map(|i| grid.task(i)).collect();
        let walk = move |tile| tile_walk(tile, k, n, 2, SimdLevel::Scalar).collect::<Vec<_>>();
        ((tasks, (1, m, k, n)), walk)
    }

    /// The first issue `check_tasks` finds on the walk fixture's tasks
    /// walked by `tamper(walk)`, if any.
    fn walk_issue(tamper: impl Fn(Vec<MicroTile>) -> Vec<MicroTile>) -> Option<String> {
        let ((tasks, dims), walk) = walk_fixture();
        let mut issues = Vec::new();
        check_tasks(
            "fixture",
            &tasks,
            dims,
            SimdLevel::Scalar,
            |t| tamper(walk(t)),
            &mut issues,
        );
        issues.first().map(|i| i.detail.clone())
    }

    #[test]
    fn walk_fixture_proves_clean() {
        assert_eq!(walk_issue(|w| w), None);
    }

    #[test]
    fn missing_remainder_handling_rejected() {
        // Drop the ragged tail tile column: 17 columns under 4-wide
        // tiles leave a column 16; a walk without it leaves a coverage
        // hole the analysis must name.
        let detail = walk_issue(|w| w.into_iter().filter(|t| t.cols == 4).collect());
        let detail = detail.expect("hole must be found");
        assert!(
            detail.contains("C[0][0, 16] written 0 times"),
            "diagnostic should name the uncovered element: {detail}"
        );
    }

    #[test]
    fn out_of_bounds_panel_index_rejected() {
        // Shift one micro-tile's B window past the operand — the sliver
        // offset arithmetic a refactor is most likely to break.
        let detail = walk_issue(|mut w| {
            w[0].b_off = packed_b_len(5, 17, SimdLevel::Scalar);
            w
        });
        assert!(detail
            .expect("escape must be found")
            .contains("escapes packed B"));
    }

    #[test]
    fn overlapping_tiles_rejected() {
        let detail = walk_issue(|mut w| {
            w.push(w[0]);
            w
        });
        assert!(detail
            .expect("overlap must be found")
            .contains("written 2 times"));
    }

    #[test]
    fn k_blocks_out_of_order_rejected() {
        // A walk that runs a sliver's k-blocks deepest first would add
        // to elements nothing has written yet.
        let detail = walk_issue(|mut w| {
            w.reverse();
            w
        });
        let detail = detail.expect("reversed chain must be found");
        assert!(detail.contains("first visited at depth 4"), "{detail}");
        // Skipping a k-block breaks the chain at the next one.
        let detail = walk_issue(|w| w.into_iter().filter(|t| t.depth.start != 2).collect());
        let detail = detail.expect("gap must be found");
        assert!(
            detail.contains("takes the k-block at depth 4 after depths [0, 2)"),
            "{detail}"
        );
        // Dropping the last k-block leaves every chain short.
        let detail = walk_issue(|w| w.into_iter().filter(|t| t.depth.start != 4).collect());
        let detail = detail.expect("short chain must be found");
        assert!(
            detail.contains("accumulates depths [0, 4) of 5"),
            "{detail}"
        );
    }

    #[test]
    fn sliver_writer_skipping_a_padding_row_rejected() {
        // 13 rows under 4-row slivers: the last sliver holds one row and
        // three padding rows. A writer that left the second padding row
        // of depth 2 in matrix 1 unstored leaves the sentinel there.
        let op = BornPacked::new(2, 13, 5, SimdLevel::Scalar);
        let mut bits = op.write(None);
        let mut issues = Vec::new();
        check_sliver_slots("fixture", &bits, |slot| Some(op.want(slot)), &mut issues);
        assert!(issues.is_empty(), "{}", issues[0]);
        let slot = packed_a_len(13, 5, 4) + wino_gemm::packed_block_off(12, 2, 5, 4) + 2;
        assert_eq!(op.want(slot), 0, "a padding slot");
        bits[slot] = UNWRITTEN;
        check_sliver_slots("fixture", &bits, |slot| Some(op.want(slot)), &mut issues);
        let detail = &issues.first().expect("gap must be found").detail;
        assert_eq!(detail, &format!("slot {slot} never written"));
        // A writer that stored a whole group of eight where the run had
        // fewer rows spills a stale lane past its run.
        let (s, pushes) = (3, 1);
        let mut bits = op.write(Some((s, pushes)));
        let spill = wino_gemm::packed_block_off(12, 1, 5, 4);
        let expect = |slot| op.written(s, pushes, slot).then(|| op.want(slot));
        assert!(expect(spill).is_none(), "depth 1 is not stored yet");
        bits[spill] = STALE.to_bits();
        let mut issues = Vec::new();
        check_sliver_slots("fixture", &bits, expect, &mut issues);
        let detail = &issues.first().expect("spill must be found").detail;
        assert!(detail.contains("outside the writes so far"), "{detail}");
    }

    #[test]
    fn packed_row_step_off_the_sliver_grid_rejected() {
        // Stepping packed row blocks by the raw `mc` (64 under 6-row
        // slivers) would start a block mid-sliver.
        let (a, avx2) = (PackedSide::A, SimdLevel::Avx2);
        let walk = |tile| tile_walk(tile, 9, 16, 128, avx2).collect();
        let mut issues = Vec::new();
        check_packed_windows("fixture", a, 130, 9, 64, avx2, walk, &mut issues);
        let detail = &issues
            .first()
            .expect("misaligned step must be found")
            .detail;
        assert!(detail.contains("not whole 6-wide slivers"), "{detail}");
        // The step the engine uses is clean on the same operand.
        let (step, mut issues) = (wino_gemm::packed_step(64, 6), Vec::new());
        check_packed_windows("fixture", a, 130, 9, step, avx2, walk, &mut issues);
        assert!(issues.is_empty(), "{}", issues[0]);
    }

    #[test]
    fn packed_b_stride_off_by_one_sliver_rejected() {
        // A 9-deep, 45-column B under 16-column slivers, kc = 4: the
        // slivers of the full-depth operand are k·nr = 144 apart.
        let (b, avx2, k, nr) = (PackedSide::B, SimdLevel::Avx2, 9, 16);
        let run = |stride: usize| {
            // The walk with column slivers `stride` apart.
            let walk = |tile| {
                let walk = tile_walk(tile, k, 45, 4, avx2).map(|t| MicroTile {
                    b_off: t.j / nr * stride + t.depth.start * nr,
                    ..t
                });
                walk.collect()
            };
            let mut issues = Vec::new();
            check_packed_windows("fixture", b, 45, k, 32, avx2, walk, &mut issues);
            issues
        };
        assert!(run(k * nr).is_empty());
        // One depth step too many per sliver: the second sliver's
        // window starts a row into the third column sliver's data.
        let issues = run((k + 1) * nr);
        let detail = &issues.first().expect("long stride must be found").detail;
        assert!(detail.contains("micro-kernel expects"), "{detail}");
        // The stride of a block `pack_b` just wrote (kb·nr) lands the
        // second sliver inside the first one's later depths.
        let issues = run(4 * nr);
        let detail = &issues.first().expect("short stride must be found").detail;
        assert!(detail.contains("micro-kernel expects"), "{detail}");
        // And a stride that runs the last sliver off the operand.
        let issues = run(3 * k * nr);
        let detail = &issues.first().expect("escape must be found").detail;
        assert!(detail.contains("escapes the packed operand"), "{detail}");
    }

    #[test]
    fn narrow_last_sliver_strided_at_nr_rejected() {
        // A 9-deep, 40-column B at AVX2, kc = 4: slivers of 16, 16 and
        // 8 columns, the last 8 floats a depth. A walk that reads it as
        // a full sliver — rows `nr` apart, the layout of an operand
        // whose every sliver is `nr` wide — must be flagged, through
        // both proofs.
        let (b, avx2, k, n, nr) = (PackedSide::B, SimdLevel::Avx2, 9, 40, 16);
        let full = |tile| {
            let walk = tile_walk(tile, k, n, 4, avx2).map(|t| MicroTile {
                b_off: wino_gemm::packed_block_off(t.j, t.depth.start, k, nr),
                b_width: nr,
                ..t
            });
            walk.collect::<Vec<_>>()
        };
        let walk = |tile| tile_walk(tile, k, n, 4, avx2).collect::<Vec<_>>();
        let mut issues = Vec::new();
        check_packed_windows("fixture", b, n, k, 32, avx2, walk, &mut issues);
        assert!(issues.is_empty(), "{}", issues[0]);
        check_packed_windows("fixture", b, n, k, 32, avx2, full, &mut issues);
        let detail = &issues
            .first()
            .expect("nr-strided narrow sliver must be found")
            .detail;
        assert!(detail.contains("micro-kernel expects"), "{detail}");
        // In the task proof its deepest k-block runs off the operand.
        let grid = TaskGrid::new(
            1,
            6,
            n,
            &GemmConfig {
                mc: 6,
                kc: 4,
                nc: 32,
            },
            avx2,
        );
        let tasks: Vec<_> = (0..grid.len()).map(|i| grid.task(i)).collect();
        let mut issues = Vec::new();
        check_tasks("fixture", &tasks, (1, 6, k, n), avx2, walk, &mut issues);
        assert!(issues.is_empty(), "{}", issues[0]);
        check_tasks("fixture", &tasks, (1, 6, k, n), avx2, full, &mut issues);
        let detail = &issues.first().expect("escape must be found").detail;
        assert!(detail.contains("escapes packed B"), "{detail}");
    }

    #[test]
    fn non_partitioning_column_steps_rejected() {
        // A column-step set that skips columns [4, 7) of n=10.
        let blocks = vec![
            wino_gemm::DimBlock { start: 0, len: 4 },
            wino_gemm::DimBlock { start: 7, len: 3 },
        ];
        let mut issues = Vec::new();
        check_partition("fixture", "task-column", &blocks, 10, 4, &mut issues);
        assert!(issues.first().unwrap().detail.contains("starts at 7"));
    }

    /// The tasks of two 120 × 9 by 9 × 384 products at AVX2 under the
    /// default config: 2 row blocks (of 60) × 3 column steps (of 128)
    /// each.
    fn fixture_tasks() -> Tasks {
        let dims = (2, 120, 9, 384);
        let grid = TaskGrid::new(2, 120, 384, &GemmConfig::default(), SimdLevel::Avx2);
        assert_eq!(grid.len(), 2 * 2 * 3);
        ((0..grid.len()).map(|i| grid.task(i)).collect(), dims)
    }

    /// The walk of a [`fixture_tasks`] task.
    fn fixture_walk(tile: TaskTile) -> Vec<MicroTile> {
        tile_walk(tile, 9, 384, GemmConfig::default().kc, SimdLevel::Avx2).collect()
    }

    #[test]
    fn overlapping_column_steps_rejected() {
        let (mut tasks, dims) = fixture_tasks();
        let avx2 = SimdLevel::Avx2;
        let mut issues = Vec::new();
        check_tasks("fixture", &tasks, dims, avx2, fixture_walk, &mut issues);
        assert!(issues.is_empty(), "{}", issues[0]);
        // The second column step of image 1 starts a sliver early: two
        // tasks would write columns 112..128 of its first row block.
        let (batch, tile) = &mut tasks[6 + 1];
        assert_eq!((*batch, tile.rows.start, tile.cols.start), (1, 0, 128));
        tile.cols.start -= 16;
        check_tasks("fixture", &tasks, dims, avx2, fixture_walk, &mut issues);
        let detail = &issues.first().expect("overlap must be found").detail;
        assert!(
            detail.contains("C[1][0, 112] written 2 times"),
            "diagnostic should name the doubly-owned element: {detail}"
        );
    }

    #[test]
    fn task_tile_off_the_sliver_grid_rejected() {
        // A column step of 120 is whole scalar slivers but splits an
        // AVX2 one: the packed B window would start mid-sliver.
        let (mut tasks, dims) = fixture_tasks();
        for (_, tile) in tasks.iter_mut().filter(|(_, t)| t.cols.start == 128) {
            tile.cols.start = 120;
        }
        let mut issues = Vec::new();
        check_tasks(
            "fixture",
            &tasks,
            dims,
            SimdLevel::Avx2,
            fixture_walk,
            &mut issues,
        );
        let detail = &issues
            .first()
            .expect("misaligned tile must be found")
            .detail;
        assert!(detail.contains("off the 6x16 sliver grid"), "{detail}");
    }

    #[test]
    fn dropped_task_rejected() {
        // Losing one (image, tile) task leaves its elements unwritten.
        let (mut tasks, dims) = fixture_tasks();
        tasks.remove(4);
        let mut issues = Vec::new();
        check_tasks(
            "fixture",
            &tasks,
            dims,
            SimdLevel::Avx2,
            fixture_walk,
            &mut issues,
        );
        let detail = &issues.first().expect("hole must be found").detail;
        assert!(detail.contains("written 0 times"), "{detail}");
    }

    #[test]
    fn tampered_pack_model_rejected() {
        // A model that reads one row past the block.
        let mut model = pack_a_model(5, 3, 4);
        for slot in model.iter_mut() {
            if let PackSlot::Src { row, .. } = slot {
                if *row == 4 {
                    *row = 5;
                }
            }
        }
        let mut issues = Vec::new();
        check_pack_model("fixture", &model, 5, 3, packed_a_len(5, 3, 4), &mut issues);
        assert!(issues.first().unwrap().detail.contains("outside 5x3"));
    }
}
