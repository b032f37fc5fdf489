//! Recipe-driven Winograd convolution engines (non-fused and fused).
//!
//! These are the CPU reference implementations of the two kernel
//! variants the paper generates (§3.2.2). The **non-fused** engine
//! materializes the transformed filters `U'` and inputs `V'` in the
//! scatter layouts of Lavin & Gray and runs the multiplication stage
//! as α² batched SGEMMs — `U'` packed once, at construction, into the
//! GEMM micro-kernel's own A order. The **fused** engine processes one
//! input tile end-to-end — transform, channel-summed element-wise
//! multiply, output transform — without materializing intermediates,
//! mirroring the single-kernel variant's dataflow.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, OnceLock};

use wino_gemm::{BatchedGemmShape, GemmConfig, PackedA, SimdLevel};
use wino_runtime::{DisjointSlice, Runtime};
use wino_symbolic::RecipeOptions;
use wino_tensor::{extract_input_tile, tile_counts, ConvDesc, Tensor4};
use wino_transform::{recipe_db, TransformRecipes, WinogradSpec};

use crate::compiled::{compiled_for, CompiledTransforms, LANES};
use crate::direct::check_shapes;
use crate::error::ConvError;
use crate::tiles::TileTransformer;

/// Tiles gathered into the transformed-input layout (both engines).
static TILES_GATHERED: wino_probe::Counter = wino_probe::Counter::new("conv.tiles_gathered");
/// Output tiles scattered back into NCHW planes (both engines).
static TILES_SCATTERED: wino_probe::Counter = wino_probe::Counter::new("conv.tiles_scattered");
/// Tiles that went through the interpreted [`TileTransformer`] while
/// the transform dispatch level was AVX2 — ragged tails of the
/// [`LANES`]-wide groups, and every tile of a spec with no compiled
/// kernel — each in its phase's own unit (`tiles_gathered`'s,
/// `tiles_scattered`'s, `(k, c)` filter planes). A value near
/// `tiles_gathered + tiles_scattered` means a layer lost its compiled
/// fast path.
static TILES_INTERPRETED: wino_probe::Counter = wino_probe::Counter::new("conv.tiles_interpreted");
/// Non-fused calls whose GEMM level differs from the one the bank was
/// packed for and so re-packed it for that call (an A/B hook's slow
/// path; serving keeps this at zero).
static FILTER_REPACKS: wino_probe::Counter = wino_probe::Counter::new("conv.filter_repacks");
/// Bytes held by live [`PrecomputedFilters`] (Σ `resident_bytes()`).
static FILTER_BANK_BYTES: wino_probe::Gauge = wino_probe::Gauge::new("conv.filter_bank_bytes");
static LIVE_BANK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Moves the live-bank total behind [`FILTER_BANK_BYTES`].
fn track_bank_bytes(delta: i64) {
    // Relaxed: a statistic, publishes no other data.
    let live = LIVE_BANK_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    FILTER_BANK_BYTES.set(live);
}

/// Whole-filter-bank transforms `U = G·g·Gᵀ` performed. A serving
/// layer that warms its filters sees exactly one bump per registered
/// layer, never per request.
static FILTER_TRANSFORMS: wino_probe::Counter = wino_probe::Counter::new("conv.filter_transforms");

/// Per-phase duration histograms for the non-fused pipeline (the
/// fused engine interleaves phases per tile, so it records nothing
/// here). These record whenever tracing *or* telemetry is armed, so
/// a serving process sees phase distributions without span buffers.
static H_FILTER: wino_probe::Histogram = wino_probe::Histogram::new("conv.filter_transform");
static H_INPUT: wino_probe::Histogram = wino_probe::Histogram::new("conv.input_transform");
static H_SGEMM: wino_probe::Histogram = wino_probe::Histogram::new("conv.batched_sgemm");
static H_OUTPUT: wino_probe::Histogram = wino_probe::Histogram::new("conv.output_transform");

/// Which kernel variant to model (tuning parameter `WV` of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WinogradVariant {
    /// Separate kernels per stage + batched SGEMM.
    NonFused,
    /// One kernel: everything tile-local.
    Fused,
}

/// Configuration of a Winograd convolution run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WinogradConfig {
    /// Output tile size `m` (Table 1: `2 ≤ m ≤ 10`).
    pub m: usize,
    /// Symbolic-pipeline options (optimized vs. naive transforms).
    pub options: RecipeOptions,
    /// Kernel variant.
    pub variant: WinogradVariant,
    /// Blocking of the multiplication stage's SGEMMs (tunable via the
    /// autotuner's `MNt`/`MNb` axes).
    pub gemm: GemmConfig,
}

impl WinogradConfig {
    /// Fully-optimized non-fused configuration with output tile `m`.
    pub fn new(m: usize) -> Self {
        WinogradConfig {
            m,
            options: RecipeOptions::optimized(),
            variant: WinogradVariant::NonFused,
            gemm: GemmConfig::default(),
        }
    }

    /// Switches the variant.
    pub fn with_variant(mut self, variant: WinogradVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Switches the recipe options.
    pub fn with_options(mut self, options: RecipeOptions) -> Self {
        self.options = options;
        self
    }

    /// Switches the GEMM blocking.
    pub fn with_gemm_config(mut self, gemm: GemmConfig) -> Self {
        self.gemm = gemm;
        self
    }
}

fn winograd_checks(desc: &ConvDesc, m: usize) -> Result<WinogradSpec, ConvError> {
    if desc.stride != 1 {
        return Err(ConvError::Unsupported(format!(
            "Winograd requires stride 1, got {}",
            desc.stride
        )));
    }
    Ok(WinogradSpec::new(m, desc.ksz)?)
}

/// Winograd convolution using recipes from the process-wide database.
///
/// # Errors
/// Shape mismatches, non-unit stride, or unsupported `F(m, r)`.
pub fn conv_winograd(
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    cfg: &WinogradConfig,
) -> Result<Tensor4<f32>, ConvError> {
    conv_winograd_rt(input, filters, desc, cfg, Runtime::global())
}

/// [`conv_winograd`] on an explicit execution runtime. Outputs are
/// bit-identical for every thread count: parallel tasks own disjoint
/// tiles/panels and preserve the serial per-element operation order.
///
/// # Errors
/// Shape mismatches, non-unit stride, or unsupported `F(m, r)`.
pub fn conv_winograd_rt(
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    cfg: &WinogradConfig,
    rt: &Runtime,
) -> Result<Tensor4<f32>, ConvError> {
    check_shapes(input, filters, desc)?;
    let spec = winograd_checks(desc, cfg.m)?;
    let recipes: Arc<TransformRecipes> = recipe_db().get(spec, cfg.options)?;
    let pre = PrecomputedFilters::new(filters, desc, recipes)?;
    conv_winograd_precomputed_level(
        input,
        &pre,
        desc,
        cfg.variant,
        &cfg.gemm,
        rt,
        wino_gemm::simd_level(),
    )
}

/// Winograd convolution with explicitly supplied recipes (used by the
/// point-search accuracy protocol, which works with non-Table-3
/// points).
///
/// # Errors
/// Shape mismatches, non-unit stride, or a recipe/descriptor spec
/// mismatch.
pub fn conv_winograd_with_recipes(
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    recipes: &TransformRecipes,
    variant: WinogradVariant,
) -> Result<Tensor4<f32>, ConvError> {
    check_shapes(input, filters, desc)?;
    let pre = PrecomputedFilters::new(filters, desc, Arc::new(recipes.clone()))?;
    conv_winograd_precomputed(input, &pre, desc, variant, &GemmConfig::default())
}

/// Transformed filters `U = G·g·Gᵀ` for one filter bank, computed once
/// and reusable across convolution calls.
///
/// One layout is resident: `U'` as the non-fused engine's batched-GEMM
/// A operand — α² matrices of `K × C` — already packed into the
/// micro-kernel's row slivers ([`PackedA`]) for the process's SIMD
/// level, so steady-state requests neither transform nor pack filters.
/// The fused engine's `(k, c, ξ)` order is a pure element reorder of
/// it, built the first time [`PrecomputedFilters::u_kc`] is asked (so a
/// warm run stays bit-identical to a cold one). The serving layer's
/// plan registry builds one per registered layer; transforms are
/// visible as the `conv.filter_transforms` counter and the
/// `conv.filter_transform` span, resident bytes as the
/// `conv.filter_bank_bytes` gauge.
///
/// The transform depends only on the filter bank, the recipes, and
/// the channel counts — batch size and spatial extent of later inputs
/// are free to vary.
pub struct PrecomputedFilters {
    recipes: Arc<TransformRecipes>,
    out_ch: usize,
    in_ch: usize,
    /// `U'(ξ)`, `ξ = α²` matrices of `K × C`, packed at construction.
    bank: PackedA,
    /// `(k, c, ξ)` layout, the fused engine's access pattern; unpacked
    /// from `bank` on first use.
    u_kc: OnceLock<Vec<f32>>,
}

impl PrecomputedFilters {
    /// Transforms `filters` (K,C,r,r) once under `recipes` and packs
    /// the result for [`wino_gemm::simd_level`].
    ///
    /// # Errors
    /// Filter dims inconsistent with `desc`, non-unit stride, or a
    /// recipe/descriptor spec mismatch.
    pub fn new(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        recipes: Arc<TransformRecipes>,
    ) -> Result<Self, ConvError> {
        Self::new_level(filters, desc, recipes, wino_gemm::simd_level())
    }

    /// [`PrecomputedFilters::new`] with the dispatch level pinned: it
    /// selects compiled vs interpreted filter transform (same bits)
    /// and the micro-kernel the bank is packed for.
    fn new_level(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        recipes: Arc<TransformRecipes>,
        level: SimdLevel,
    ) -> Result<Self, ConvError> {
        let spec = winograd_checks(desc, recipes.spec.m)?;
        if recipes.spec != spec {
            return Err(ConvError::Shape(format!(
                "recipes are for {} but descriptor implies {spec}",
                recipes.spec
            )));
        }
        if filters.dims() != (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz) {
            return Err(ConvError::Shape(format!(
                "filter dims {:?} do not match descriptor {desc}",
                filters.dims()
            )));
        }
        let filter_span = wino_probe::span("conv.filter_transform");
        let filter_hist = H_FILTER.start();
        let a2 = spec.alpha() * spec.alpha();
        let (kc, cc) = (desc.out_ch, desc.in_ch);
        let compiled = match level {
            SimdLevel::Scalar => None,
            SimdLevel::Avx2 => compiled_for(&recipes),
        };
        // Compiled SoA path: LANES consecutive channels of one filter
        // are the lanes, so `dst[ξ]` is a contiguous run of row k of
        // U'(ξ); the `C mod LANES` remainder (or, without kernels,
        // every channel) is interpreted.
        let c_full = if compiled.is_some() {
            cc - cc % LANES
        } else {
            0
        };
        if level == SimdLevel::Avx2 {
            TILES_INTERPRETED.add((kc * (cc - c_full)) as u64);
        }
        let mut ft = TileTransformer::new(&recipes.filter);
        let mut tile = vec![0.0f32; a2];
        let mut src = vec![[0.0f32; LANES]; desc.ksz * desc.ksz];
        let mut dst = vec![[0.0f32; LANES]; a2];
        // Filter k is row k of every U'(ξ): packed a row sliver at a
        // time, no (ξ, k, c) copy of the bank is ever resident.
        let bank = PackedA::from_rows(a2, kc, cc, level, |k, u_row| {
            if let Some(ct) = compiled {
                for c0 in (0..c_full).step_by(LANES) {
                    for (pos, lanes) in src.iter_mut().enumerate() {
                        for (l, lane) in lanes.iter_mut().enumerate() {
                            *lane = filters.plane(k, c0 + l)[pos];
                        }
                    }
                    ct.filter.run(level, &src, &mut dst);
                    wino_probe::fault::inject_f32(
                        wino_probe::fault::Site::Transform,
                        dst.as_flattened_mut(),
                    );
                    for (xi, lanes) in dst.iter().enumerate() {
                        u_row[xi * cc + c0..][..LANES].copy_from_slice(lanes);
                    }
                }
            }
            for c in c_full..cc {
                ft.transform(filters.plane(k, c), &mut tile);
                for (xi, &val) in tile.iter().enumerate() {
                    u_row[xi * cc + c] = val;
                }
            }
        });
        drop(filter_span);
        drop(filter_hist);
        FILTER_TRANSFORMS.add(1);
        track_bank_bytes(bank.bytes() as i64);
        Ok(PrecomputedFilters {
            recipes,
            out_ch: kc,
            in_ch: cc,
            bank,
            u_kc: OnceLock::new(),
        })
    }

    /// [`PrecomputedFilters::new`] resolving recipes for `cfg` from
    /// the process-wide database.
    ///
    /// # Errors
    /// As [`PrecomputedFilters::new`], plus unsupported `F(m, r)`.
    pub fn for_config(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        cfg: &WinogradConfig,
    ) -> Result<Self, ConvError> {
        let spec = winograd_checks(desc, cfg.m)?;
        let recipes = recipe_db().get(spec, cfg.options)?;
        Self::new(filters, desc, recipes)
    }

    /// The recipes the transform was computed with.
    pub fn recipes(&self) -> &Arc<TransformRecipes> {
        &self.recipes
    }

    /// The `F(m, r)` specification.
    pub fn spec(&self) -> WinogradSpec {
        self.recipes.spec
    }

    /// Output-channel count `K` of the transformed bank.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Input-channel count `C` of the transformed bank.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// `U` in `(k, c, ξ)` order, unpacking it from the resident bank
    /// on first use (only the fused engine asks).
    pub fn u_kc(&self) -> &[f32] {
        self.u_kc.get_or_init(|| {
            let a2 = self.bank.batches();
            let cc = self.in_ch;
            let mut u_kc = vec![0.0f32; self.out_ch * cc * a2];
            let mut row = vec![0.0f32; cc];
            for xi in 0..a2 {
                for k in 0..self.out_ch {
                    self.bank.copy_row(xi, k, &mut row);
                    for (c, &val) in row.iter().enumerate() {
                        u_kc[(k * cc + c) * a2 + xi] = val;
                    }
                }
            }
            track_bank_bytes(std::mem::size_of_val(&u_kc[..]) as i64);
            u_kc
        })
    }

    /// Bytes this bank keeps resident: the packed `U'` (last row
    /// sliver's padding included), plus the `(k, c, ξ)` copy once
    /// [`PrecomputedFilters::u_kc`] has been asked for.
    pub fn resident_bytes(&self) -> usize {
        self.bank.bytes() + self.u_kc.get().map_or(0, |u| std::mem::size_of_val(&u[..]))
    }

    /// Validates that `desc` is servable by this transform: same
    /// channel counts and the same implied `F(m, r)`.
    fn check_desc(&self, desc: &ConvDesc) -> Result<(), ConvError> {
        let spec = winograd_checks(desc, self.recipes.spec.m)?;
        if self.recipes.spec != spec {
            return Err(ConvError::Shape(format!(
                "precomputed filters are for {} but descriptor implies {spec}",
                self.recipes.spec
            )));
        }
        if (desc.out_ch, desc.in_ch) != (self.out_ch, self.in_ch) {
            return Err(ConvError::Shape(format!(
                "precomputed filters are {}x{} channels but descriptor {desc} wants {}x{}",
                self.out_ch, self.in_ch, desc.out_ch, desc.in_ch
            )));
        }
        Ok(())
    }
}

impl Drop for PrecomputedFilters {
    fn drop(&mut self) {
        track_bank_bytes(-(self.resident_bytes() as i64));
    }
}

/// Winograd convolution reusing an already-transformed filter bank
/// (skips the filter-transform phase entirely). Output is bit-identical
/// to the cold-path [`conv_winograd_with_recipes`] with the same
/// recipes: the warm `U` is the same values, only computed earlier.
///
/// # Errors
/// Shape mismatches, non-unit stride, or a transform/descriptor
/// mismatch.
pub fn conv_winograd_precomputed(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    variant: WinogradVariant,
    gemm: &GemmConfig,
) -> Result<Tensor4<f32>, ConvError> {
    conv_winograd_precomputed_level(
        input,
        pre,
        desc,
        variant,
        gemm,
        Runtime::global(),
        wino_gemm::simd_level(),
    )
}

/// The engines with the transform dispatch level pinned (the public
/// entry points pass the process-wide [`wino_gemm::simd_level`]).
/// Public as a benchmarking/testing hook: it lets one process measure
/// the scalar interpreted path against the compiled SIMD path without
/// re-resolving `WINO_SIMD`.
///
/// Under [`SimdLevel::Scalar`] both engines run the interpreted
/// per-tile transform paths unchanged; under [`SimdLevel::Avx2`] they
/// batch full groups of [`LANES`] tiles through the compiled SoA
/// kernels (when [`compiled_for`] approves them) and interpret the
/// ragged remainder. The transform kernels have no cross-lane
/// operations, so their outputs are bit-identical across levels; only
/// the GEMM stage's micro-kernel differs per level.
///
/// # Errors
/// As [`conv_winograd_precomputed`].
#[allow(clippy::too_many_arguments)]
pub fn conv_winograd_precomputed_level(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    variant: WinogradVariant,
    gemm: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
) -> Result<Tensor4<f32>, ConvError> {
    conv_winograd_precomputed_levels(input, pre, desc, variant, gemm, rt, level, level)
}

/// The engines with the transform and GEMM dispatch levels pinned
/// *independently* — a test hook: holding the GEMM level fixed while
/// varying the transform level isolates the compiled-SoA wiring from
/// the micro-kernel's FMA-vs-mul+add rounding difference, so the
/// transform halves can be compared bit-for-bit.
#[allow(clippy::too_many_arguments)]
fn conv_winograd_precomputed_levels(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    variant: WinogradVariant,
    gemm: &GemmConfig,
    rt: &Runtime,
    transform_level: SimdLevel,
    gemm_level: SimdLevel,
) -> Result<Tensor4<f32>, ConvError> {
    if input.dims() != (desc.batch, desc.in_ch, desc.in_h, desc.in_w) {
        return Err(ConvError::Shape(format!(
            "input dims {:?} do not match descriptor {desc}",
            input.dims()
        )));
    }
    pre.check_desc(desc)?;
    let compiled = match transform_level {
        SimdLevel::Scalar => None,
        SimdLevel::Avx2 => compiled_for(pre.recipes()),
    };
    match variant {
        WinogradVariant::NonFused => nonfused(
            input,
            pre,
            desc,
            gemm,
            rt,
            transform_level,
            gemm_level,
            compiled,
        ),
        WinogradVariant::Fused => fused(input, pre, desc, rt, transform_level, compiled),
    }
}

/// Decomposes a linear tile index into `(batch, tile_y, tile_x)`.
fn tile_coords(p: usize, th: usize, tw: usize) -> (usize, usize, usize) {
    let n = p / (th * tw);
    let rem = p % (th * tw);
    (n, rem / tw, rem % tw)
}

// Lane loops index `lane l ↔ tile t0 + l` in parallel; an iterator
// form would hide that pairing.
#[allow(clippy::needless_range_loop, clippy::too_many_arguments)]
fn nonfused(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    gemm: &GemmConfig,
    rt: &Runtime,
    level: SimdLevel,
    gemm_level: SimdLevel,
    compiled: Option<CompiledTransforms>,
) -> Result<Tensor4<f32>, ConvError> {
    let mut conv_span = wino_probe::span("conv.winograd.nonfused");
    conv_span.arg("desc", || desc.to_string());
    let recipes = pre.recipes();
    let spec = recipes.spec;
    let (m, alpha) = (spec.m, spec.alpha());
    let a2 = alpha * alpha;
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let (th, tw) = tile_counts(oh, ow, m);
    let p_total = desc.batch * th * tw;
    let (kc, cc) = (desc.out_ch, desc.in_ch);

    // Stage 1a: U'(ξ) is resident, packed for the level it was built
    // at. A call pinned to another GEMM level (the A/B hooks) re-packs
    // for this call only — never a layout built for another `mr`.
    let repacked;
    let bank = if pre.bank.fits(gemm_level) {
        &pre.bank
    } else {
        FILTER_REPACKS.add(1);
        repacked = pre.bank.repacked(gemm_level);
        &repacked
    };

    // Stage 1b: V' scatter layout (ξ, c, p), parallel over tiles `p`.
    // A tile owns column `p` of every (ξ, c) matrix — strided but
    // disjoint writes — and each chunk carries its own transformer
    // scratch.
    let input_span = wino_probe::span("conv.input_transform");
    let input_hist = H_INPUT.start();
    let padded = input.pad_spatial(desc.pad);
    let mut v_scatter = vec![0.0f32; a2 * cc * p_total];
    if let Some(ct) = compiled {
        // Compiled SoA path: full groups of LANES tiles go through the
        // generated kernel; the ragged tail group is interpreted.
        let v_win = DisjointSlice::new(&mut v_scatter);
        rt.parallel_for_chunks(0..p_total.div_ceil(LANES), 1, |groups| {
            let _chunk_span = wino_probe::span("conv.tile_gather");
            let mut it = TileTransformer::new(&recipes.input);
            let mut in_tile = vec![0.0f32; a2];
            let mut v_tile = vec![0.0f32; a2];
            let mut src = vec![[0.0f32; LANES]; a2];
            let mut dst = vec![[0.0f32; LANES]; a2];
            for g in groups {
                let p0 = g * LANES;
                let count = LANES.min(p_total - p0);
                TILES_GATHERED.add(count as u64);
                if count == LANES {
                    for c in 0..cc {
                        for l in 0..LANES {
                            let (n, ty, tx) = tile_coords(p0 + l, th, tw);
                            extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                            for (xi, &val) in in_tile[..a2].iter().enumerate() {
                                src[xi][l] = val;
                            }
                        }
                        ct.input.run(level, &src, &mut dst);
                        wino_probe::fault::inject_f32(
                            wino_probe::fault::Site::Transform,
                            dst.as_flattened_mut(),
                        );
                        // Lane l is tile p0 + l, and a (ξ, c) row is
                        // contiguous in p: one LANES-wide store each.
                        for (xi, lanes) in dst[..a2].iter().enumerate() {
                            let base = (xi * cc + c) * p_total + p0;
                            // SAFETY: only this group writes columns
                            // p0..p0 + LANES of any (ξ, c) row.
                            unsafe { v_win.slice_mut(base..base + LANES) }.copy_from_slice(lanes);
                        }
                    }
                } else {
                    TILES_INTERPRETED.add(count as u64);
                    for p in p0..p_total {
                        let (n, ty, tx) = tile_coords(p, th, tw);
                        for c in 0..cc {
                            extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                            it.transform(&in_tile, &mut v_tile);
                            for (xi, &val) in v_tile[..a2].iter().enumerate() {
                                // SAFETY: only tile `p` writes column `p`.
                                unsafe {
                                    v_win.write((xi * cc + c) * p_total + p, val);
                                }
                            }
                        }
                    }
                }
            }
        });
    } else {
        let v_win = DisjointSlice::new(&mut v_scatter);
        rt.parallel_for_chunks(0..p_total, 1, |tiles| {
            let _chunk_span = wino_probe::span("conv.tile_gather");
            TILES_GATHERED.add(tiles.len() as u64);
            if level == SimdLevel::Avx2 {
                TILES_INTERPRETED.add(tiles.len() as u64);
            }
            let mut it = TileTransformer::new(&recipes.input);
            let mut in_tile = vec![0.0f32; a2];
            let mut v_tile = vec![0.0f32; a2];
            for p in tiles {
                let (n, ty, tx) = tile_coords(p, th, tw);
                for c in 0..cc {
                    extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                    it.transform(&in_tile, &mut v_tile);
                    for (xi, &val) in v_tile[..a2].iter().enumerate() {
                        // SAFETY: only tile `p` writes column `p`.
                        unsafe {
                            v_win.write((xi * cc + c) * p_total + p, val);
                        }
                    }
                }
            }
        });
    }

    drop(input_span);
    drop(input_hist);

    // Stage 2: α² batched SGEMMs M(ξ) = U'(ξ) · V'(ξ), parallel
    // across the batch dimension.
    let mut gemm_span = wino_probe::span("conv.batched_sgemm");
    let gemm_hist = H_SGEMM.start();
    gemm_span.arg("shape", || format!("{a2}x({kc}x{cc}x{p_total})"));
    let shape = BatchedGemmShape {
        batches: a2,
        m: kc,
        k: cc,
        n: p_total,
    };
    let mut m_scatter = vec![0.0f32; shape.c_len()];
    wino_gemm::batched_sgemm_packed(
        &shape,
        bank,
        &v_scatter,
        &mut m_scatter,
        gemm,
        rt,
        gemm_level,
    );
    drop(gemm_span);
    drop(gemm_hist);

    // Stage 3: output transform + placement, parallel over (k, p)
    // pairs. A pair owns one m×m output tile of one plane; its rows
    // are written as disjoint segments.
    let output_span = wino_probe::span("conv.output_transform");
    let output_hist = H_OUTPUT.start();
    let mut out = Tensor4::<f32>::zeros(desc.batch, kc, oh, ow);
    if let Some(ct) = compiled {
        let total = kc * p_total;
        let out_win = DisjointSlice::new(out.data_mut());
        rt.parallel_for_chunks(0..total.div_ceil(LANES), 1, |groups| {
            let _chunk_span = wino_probe::span("conv.tile_scatter");
            let mut ot = TileTransformer::new(&recipes.output);
            let mut m_tile = vec![0.0f32; a2];
            let mut y_tile = vec![0.0f32; m * m];
            let mut src = vec![[0.0f32; LANES]; a2];
            let mut dst = vec![[0.0f32; LANES]; m * m];
            for g in groups {
                let q0 = g * LANES;
                let count = LANES.min(total - q0);
                TILES_SCATTERED.add(count as u64);
                if count == LANES {
                    // Lane l is pair q0 + l, and M(ξ) is contiguous in
                    // q = k·P + p (across a k boundary too): one
                    // LANES-wide load per position.
                    for (xi, lanes) in src[..a2].iter_mut().enumerate() {
                        lanes.copy_from_slice(&m_scatter[xi * kc * p_total + q0..][..LANES]);
                    }
                    ct.output.run(level, &src, &mut dst);
                    wino_probe::fault::inject_f32(
                        wino_probe::fault::Site::Transform,
                        dst.as_flattened_mut(),
                    );
                    for l in 0..LANES {
                        let (k, p) = ((q0 + l) / p_total, (q0 + l) % p_total);
                        let (n, ty, tx) = tile_coords(p, th, tw);
                        for (pos, val) in y_tile.iter_mut().enumerate() {
                            *val = dst[pos][l];
                        }
                        place_tile_rows(&out_win, n, k, kc, oh, ow, ty, tx, m, &y_tile);
                    }
                } else {
                    TILES_INTERPRETED.add(count as u64);
                    for q in q0..total {
                        let (k, p) = (q / p_total, q % p_total);
                        let (n, ty, tx) = tile_coords(p, th, tw);
                        for xi in 0..a2 {
                            m_tile[xi] = m_scatter[(xi * kc + k) * p_total + p];
                        }
                        ot.transform(&m_tile, &mut y_tile);
                        place_tile_rows(&out_win, n, k, kc, oh, ow, ty, tx, m, &y_tile);
                    }
                }
            }
        });
    } else {
        let out_win = DisjointSlice::new(out.data_mut());
        rt.parallel_for_chunks(0..kc * p_total, 1, |pairs| {
            let _chunk_span = wino_probe::span("conv.tile_scatter");
            TILES_SCATTERED.add(pairs.len() as u64);
            if level == SimdLevel::Avx2 {
                TILES_INTERPRETED.add(pairs.len() as u64);
            }
            let mut ot = TileTransformer::new(&recipes.output);
            let mut m_tile = vec![0.0f32; a2];
            let mut y_tile = vec![0.0f32; m * m];
            for q in pairs {
                let (k, p) = (q / p_total, q % p_total);
                let (n, ty, tx) = tile_coords(p, th, tw);
                for xi in 0..a2 {
                    m_tile[xi] = m_scatter[(xi * kc + k) * p_total + p];
                }
                ot.transform(&m_tile, &mut y_tile);
                place_tile_rows(&out_win, n, k, kc, oh, ow, ty, tx, m, &y_tile);
            }
        });
    }
    drop(output_span);
    drop(output_hist);
    Ok(out)
}

/// Writes the clipped `m × m` tile at `(ty, tx)` of plane `(n, k)`
/// into the shared output window, one disjoint row segment at a time.
#[allow(clippy::too_many_arguments)]
fn place_tile_rows(
    out: &DisjointSlice<'_, f32>,
    n: usize,
    k: usize,
    kc: usize,
    oh: usize,
    ow: usize,
    ty: usize,
    tx: usize,
    m: usize,
    tile: &[f32],
) {
    let h_eff = m.min(oh - ty * m);
    let w_eff = m.min(ow - tx * m);
    let plane = ((n * kc + k) * oh) * ow;
    for dy in 0..h_eff {
        let row = plane + (ty * m + dy) * ow + tx * m;
        // SAFETY: exactly one (k, p) task owns this tile, and tiles
        // partition the plane, so row segments never overlap.
        let dst = unsafe { out.slice_mut(row..row + w_eff) };
        dst.copy_from_slice(&tile[dy * m..dy * m + w_eff]);
    }
}

// Lane loops index `lane l ↔ tile t0 + l` in parallel; an iterator
// form would hide that pairing.
#[allow(clippy::needless_range_loop)]
fn fused(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    rt: &Runtime,
    level: SimdLevel,
    compiled: Option<CompiledTransforms>,
) -> Result<Tensor4<f32>, ConvError> {
    let mut conv_span = wino_probe::span("conv.winograd.fused");
    conv_span.arg("desc", || desc.to_string());
    let recipes = pre.recipes();
    let spec = recipes.spec;
    let (m, alpha) = (spec.m, spec.alpha());
    let a2 = alpha * alpha;
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let (th, tw) = tile_counts(oh, ow, m);
    let (kc, cc) = (desc.out_ch, desc.in_ch);

    // The (k, c, ξ) filter bank (the generated kernel recomputes it
    // per thread block from shared memory; here it is resident).
    let u_kc = pre.u_kc();

    let padded = input.pad_spatial(desc.pad);
    let mut out = Tensor4::<f32>::zeros(desc.batch, kc, oh, ow);

    // Parallel over (n, ty, tx) tiles — the fused kernel's thread
    // blocks. Each chunk owns transformer scratch; a tile writes its
    // own region of every output plane, disjoint from other tiles.
    // Per chunk, gather work (tile extraction + input transform) and
    // scatter work (channel-summed multiply + output transform +
    // placement) are interleaved per tile, so the two phases get
    // chunk-level spans instead of stage-level ones.
    let out_win = DisjointSlice::new(out.data_mut());
    if let Some(ct) = compiled {
        // Compiled SoA path: LANES spatial tiles advance together
        // through transform, channel-summed multiply, and output
        // transform; the ragged tail group runs the interpreted body.
        let total = desc.batch * th * tw;
        rt.parallel_for_chunks(0..total.div_ceil(LANES), 1, |groups| {
            let mut it = TileTransformer::new(&recipes.input);
            let mut ot = TileTransformer::new(&recipes.output);
            let mut in_tile = vec![0.0f32; a2];
            let mut v_tiles = vec![0.0f32; cc * a2];
            let mut acc = vec![0.0f32; a2];
            let mut y_tile = vec![0.0f32; m * m];
            let mut src = vec![[0.0f32; LANES]; a2];
            let mut v_soa = vec![[0.0f32; LANES]; cc * a2];
            let mut acc_soa = vec![[0.0f32; LANES]; a2];
            let mut y_soa = vec![[0.0f32; LANES]; m * m];
            for g in groups {
                let t0 = g * LANES;
                let count = LANES.min(total - t0);
                TILES_GATHERED.add(count as u64);
                TILES_SCATTERED.add(count as u64);
                if count == LANES {
                    let gather_span = wino_probe::span("conv.tile_gather");
                    for c in 0..cc {
                        for l in 0..LANES {
                            let (n, ty, tx) = tile_coords(t0 + l, th, tw);
                            extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                            for (xi, &val) in in_tile[..a2].iter().enumerate() {
                                src[xi][l] = val;
                            }
                        }
                        let v = &mut v_soa[c * a2..(c + 1) * a2];
                        ct.input.run(level, &src, v);
                        wino_probe::fault::inject_f32(
                            wino_probe::fault::Site::Transform,
                            v.as_flattened_mut(),
                        );
                    }
                    drop(gather_span);
                    let _scatter_span = wino_probe::span("conv.tile_scatter");
                    for k in 0..kc {
                        acc_soa.fill([0.0; LANES]);
                        for c in 0..cc {
                            let u = &u_kc[(k * cc + c) * a2..(k * cc + c + 1) * a2];
                            let v = &v_soa[c * a2..(c + 1) * a2];
                            for xi in 0..a2 {
                                for l in 0..LANES {
                                    acc_soa[xi][l] += u[xi] * v[xi][l];
                                }
                            }
                        }
                        ct.output.run(level, &acc_soa, &mut y_soa);
                        wino_probe::fault::inject_f32(
                            wino_probe::fault::Site::Transform,
                            y_soa.as_flattened_mut(),
                        );
                        for l in 0..LANES {
                            let (n, ty, tx) = tile_coords(t0 + l, th, tw);
                            for (pos, val) in y_tile.iter_mut().enumerate() {
                                *val = y_soa[pos][l];
                            }
                            place_tile_rows(&out_win, n, k, kc, oh, ow, ty, tx, m, &y_tile);
                        }
                    }
                } else {
                    TILES_INTERPRETED.add(count as u64);
                    for t in t0..total {
                        let (n, ty, tx) = tile_coords(t, th, tw);
                        let gather_span = wino_probe::span("conv.tile_gather");
                        for c in 0..cc {
                            extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                            it.transform(&in_tile, &mut v_tiles[c * a2..(c + 1) * a2]);
                        }
                        drop(gather_span);
                        let _scatter_span = wino_probe::span("conv.tile_scatter");
                        for k in 0..kc {
                            acc.fill(0.0);
                            for c in 0..cc {
                                let u = &u_kc[(k * cc + c) * a2..(k * cc + c + 1) * a2];
                                let v = &v_tiles[c * a2..(c + 1) * a2];
                                for xi in 0..a2 {
                                    acc[xi] += u[xi] * v[xi];
                                }
                            }
                            ot.transform(&acc, &mut y_tile);
                            place_tile_rows(&out_win, n, k, kc, oh, ow, ty, tx, m, &y_tile);
                        }
                    }
                }
            }
        });
        return Ok(out);
    }
    rt.parallel_for_chunks(0..desc.batch * th * tw, 1, |tiles| {
        TILES_GATHERED.add(tiles.len() as u64);
        TILES_SCATTERED.add(tiles.len() as u64);
        if level == SimdLevel::Avx2 {
            TILES_INTERPRETED.add(tiles.len() as u64);
        }
        let mut it = TileTransformer::new(&recipes.input);
        let mut ot = TileTransformer::new(&recipes.output);
        let mut in_tile = vec![0.0f32; a2];
        let mut v_tiles = vec![0.0f32; cc * a2];
        let mut acc = vec![0.0f32; a2];
        let mut y_tile = vec![0.0f32; m * m];
        for t in tiles {
            let (n, ty, tx) = tile_coords(t, th, tw);
            // Input transform for every channel of this tile.
            let gather_span = wino_probe::span("conv.tile_gather");
            for c in 0..cc {
                extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                it.transform(&in_tile, &mut v_tiles[c * a2..(c + 1) * a2]);
            }
            drop(gather_span);
            // Channel-summed element-wise multiply + output transform
            // per filter.
            let _scatter_span = wino_probe::span("conv.tile_scatter");
            for k in 0..kc {
                acc.fill(0.0);
                for c in 0..cc {
                    let u = &u_kc[(k * cc + c) * a2..(k * cc + c + 1) * a2];
                    let v = &v_tiles[c * a2..(c + 1) * a2];
                    for xi in 0..a2 {
                        acc[xi] += u[xi] * v[xi];
                    }
                }
                ot.transform(&acc, &mut y_tile);
                place_tile_rows(&out_win, n, k, kc, oh, ow, ty, tx, m, &y_tile);
            }
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::conv_direct_f32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Tensor4<f32>, b: &Tensor4<f32>, tol: f32) {
        assert_eq!(a.dims(), b.dims());
        for i in 0..a.len() {
            let (x, y) = (a.data()[i], b.data()[i]);
            assert!((x - y).abs() <= tol * (1.0 + y.abs()), "{x} vs {y} at {i}");
        }
    }

    fn random_case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = Tensor4::<f32>::random(
            desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
        );
        let filt = Tensor4::<f32>::random(
            desc.out_ch,
            desc.in_ch,
            desc.ksz,
            desc.ksz,
            -1.0,
            1.0,
            &mut rng,
        );
        (input, filt)
    }

    #[test]
    fn nonfused_matches_direct_f23() {
        let desc = ConvDesc::new(3, 1, 1, 4, 2, 8, 8, 3);
        let (input, filt) = random_case(&desc, 21);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let wino = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(2)).unwrap();
        assert_close(&wino, &direct, 1e-4);
    }

    #[test]
    fn fused_matches_direct_f23() {
        let desc = ConvDesc::new(3, 1, 1, 4, 2, 8, 8, 3);
        let (input, filt) = random_case(&desc, 22);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let cfg = WinogradConfig::new(2).with_variant(WinogradVariant::Fused);
        let wino = conv_winograd(&input, &filt, &desc, &cfg).unwrap();
        assert_close(&wino, &direct, 1e-4);
    }

    #[test]
    fn ragged_tiling_is_handled() {
        // 7×7 output with m = 4: ragged last tile row/column.
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 7, 7, 2);
        let (input, filt) = random_case(&desc, 23);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let wino = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(4)).unwrap();
        assert_close(&wino, &direct, 1e-4);
    }

    #[test]
    fn larger_tiles_and_filters() {
        for (m, r) in [(4, 3), (6, 3), (2, 5), (4, 5), (2, 7)] {
            let desc = ConvDesc::new(r, 1, r / 2, 3, 1, 12, 12, 2);
            let (input, filt) = random_case(&desc, 1000 + (m * 10 + r) as u64);
            let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
            for variant in [WinogradVariant::NonFused, WinogradVariant::Fused] {
                let cfg = WinogradConfig::new(m).with_variant(variant);
                let wino = conv_winograd(&input, &filt, &desc, &cfg).unwrap();
                assert_close(&wino, &direct, 2e-3);
            }
        }
    }

    #[test]
    fn naive_recipes_same_result() {
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 6, 6, 2);
        let (input, filt) = random_case(&desc, 31);
        let opt = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(2)).unwrap();
        let cfg = WinogradConfig::new(2).with_options(RecipeOptions::minimal());
        let naive = conv_winograd(&input, &filt, &desc, &cfg).unwrap();
        assert_close(&opt, &naive, 1e-4);
    }

    #[test]
    fn no_padding_case() {
        let desc = ConvDesc::new(3, 1, 0, 2, 1, 8, 8, 2);
        let (input, filt) = random_case(&desc, 33);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let wino = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(3)).unwrap();
        assert_close(&wino, &direct, 1e-4);
    }

    #[test]
    fn even_filter_sizes_work() {
        // Unusual but valid: a 2×2 filter, F(m,2).
        let desc = ConvDesc::new(2, 1, 0, 2, 1, 9, 9, 2);
        let (input, filt) = random_case(&desc, 77);
        let direct = conv_direct_f32(&input, &filt, &desc).unwrap();
        let wino = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(3)).unwrap();
        assert_close(&wino, &direct, 1e-4);
    }

    fn assert_bits_equal(a: &Tensor4<f32>, b: &Tensor4<f32>) {
        assert_eq!(a.dims(), b.dims());
        for i in 0..a.len() {
            assert_eq!(
                a.data()[i].to_bits(),
                b.data()[i].to_bits(),
                "bit mismatch at {i}: {} vs {}",
                a.data()[i],
                b.data()[i]
            );
        }
    }

    #[test]
    fn precomputed_filters_bit_identical_to_cold_path() {
        let desc = ConvDesc::new(3, 1, 1, 4, 3, 10, 10, 2);
        let (input, filt) = random_case(&desc, 41);
        for variant in [WinogradVariant::NonFused, WinogradVariant::Fused] {
            let cfg = WinogradConfig::new(4).with_variant(variant);
            let cold = conv_winograd(&input, &filt, &desc, &cfg).unwrap();
            let pre = PrecomputedFilters::for_config(&filt, &desc, &cfg).unwrap();
            let warm = conv_winograd_precomputed(&input, &pre, &desc, variant, &cfg.gemm).unwrap();
            assert_bits_equal(&warm, &cold);
            // The same warm bank serves a different batch size too.
            let desc2 = ConvDesc { batch: 5, ..desc };
            let (input2, _) = random_case(&desc2, 42);
            let cold2 = conv_winograd(&input2, &filt, &desc2, &cfg).unwrap();
            let warm2 =
                conv_winograd_precomputed(&input2, &pre, &desc2, variant, &cfg.gemm).unwrap();
            assert_bits_equal(&warm2, &cold2);
        }
    }

    #[test]
    fn compiled_engines_bit_identical_to_interpreted() {
        // Forcing the *transform* dispatch level must not change
        // output bits: the compiled SoA kernels (filter, input,
        // output) retire the interpreter's per-lane ops in the
        // interpreter's order, and the lane-wide loads/stores around
        // them only move data. The GEMM level is pinned to Scalar on
        // both sides — the micro-kernel's FMA rounding is the one
        // legitimate cross-level difference, and holding it fixed
        // isolates the transform wiring. Gated on actual AVX2 support
        // because Avx2-level kernels require it.
        if wino_gemm::detect_simd() != SimdLevel::Avx2 {
            return;
        }
        let cases = [
            // 3×3 zoo tile sizes on a small even layer.
            (ConvDesc::new(3, 1, 1, 4, 3, 12, 12, 3), vec![2usize, 4, 6]),
            // 5×5 through F(4,5).
            (ConvDesc::new(5, 1, 2, 9, 2, 11, 11, 10), vec![4]),
            // C = 20 leaves a 4-channel filter remainder, K = 13 and
            // P = 2·3·3 = 18 leave ragged input and output groups, and
            // K·P crosses k boundaries inside a lane group.
            (ConvDesc::new(3, 1, 1, 13, 2, 11, 11, 20), vec![4]),
        ];
        for (desc, ms) in cases {
            let (input, filt) = random_case(&desc, 55);
            for m in ms {
                let cfg = WinogradConfig::new(m);
                let spec = winograd_checks(&desc, m).unwrap();
                let recipes = recipe_db().get(spec, cfg.options).unwrap();
                assert!(
                    compiled_for(&recipes).is_some(),
                    "expected compiled kernels for {spec}"
                );
                for variant in [WinogradVariant::NonFused, WinogradVariant::Fused] {
                    let run = |transform_level| {
                        let pre = PrecomputedFilters::new_level(
                            &filt,
                            &desc,
                            Arc::clone(&recipes),
                            transform_level,
                        )
                        .unwrap();
                        conv_winograd_precomputed_levels(
                            &input,
                            &pre,
                            &desc,
                            variant,
                            &cfg.gemm,
                            Runtime::global(),
                            transform_level,
                            SimdLevel::Scalar,
                        )
                        .unwrap()
                    };
                    assert_bits_equal(&run(SimdLevel::Avx2), &run(SimdLevel::Scalar));
                }
            }
        }
    }

    #[test]
    fn nonfused_bank_holds_one_layout() {
        // K = 13 is not a multiple of either sliver height, so the
        // padded last sliver is part of the count.
        let desc = ConvDesc::new(3, 1, 1, 13, 1, 8, 8, 20);
        let (input, filt) = random_case(&desc, 47);
        let cfg = WinogradConfig::new(4);
        let pre = PrecomputedFilters::for_config(&filt, &desc, &cfg).unwrap();
        let (mr, _) = wino_gemm::tile_extents(wino_gemm::simd_level());
        let a2 = pre.spec().alpha() * pre.spec().alpha();
        let packed = a2 * 13usize.div_ceil(mr) * mr * 20 * 4;
        assert_eq!(pre.resident_bytes(), packed);
        // Serving non-fused requests adds nothing.
        conv_winograd_precomputed(&input, &pre, &desc, WinogradVariant::NonFused, &cfg.gemm)
            .unwrap();
        assert_eq!(pre.resident_bytes(), packed);
        // The fused engine's (k, c, ξ) order appears only when asked.
        assert_eq!(pre.u_kc().len(), 13 * 20 * a2);
        assert_eq!(pre.resident_bytes(), packed + 13 * 20 * a2 * 4);
    }

    #[test]
    fn mismatched_gemm_level_repacks_for_the_call() {
        // A bank packed for one level serves a call pinned to the
        // other by re-packing, and answers with that level's bits.
        if wino_gemm::detect_simd() != SimdLevel::Avx2 {
            return;
        }
        let desc = ConvDesc::new(3, 1, 1, 5, 1, 9, 9, 7);
        let (input, filt) = random_case(&desc, 48);
        let recipes = recipe_db()
            .get(
                winograd_checks(&desc, 4).unwrap(),
                RecipeOptions::optimized(),
            )
            .unwrap();
        let run = |pack_level, gemm_level| {
            let pre = PrecomputedFilters::new_level(&filt, &desc, Arc::clone(&recipes), pack_level)
                .unwrap();
            conv_winograd_precomputed_level(
                &input,
                &pre,
                &desc,
                WinogradVariant::NonFused,
                &GemmConfig::default(),
                Runtime::global(),
                gemm_level,
            )
            .unwrap()
        };
        for gemm_level in [SimdLevel::Scalar, SimdLevel::Avx2] {
            assert_bits_equal(
                &run(SimdLevel::Avx2, gemm_level),
                &run(SimdLevel::Scalar, gemm_level),
            );
        }
    }

    #[test]
    fn precomputed_filters_reject_mismatches() {
        let desc = ConvDesc::new(3, 1, 1, 2, 2, 8, 8, 2);
        let (input, filt) = random_case(&desc, 43);
        let cfg = WinogradConfig::new(2);
        let pre = PrecomputedFilters::for_config(&filt, &desc, &cfg).unwrap();
        // Wrong channel count.
        let bad = ConvDesc { in_ch: 3, ..desc };
        let (bad_input, _) = random_case(&bad, 44);
        assert!(conv_winograd_precomputed(
            &bad_input,
            &pre,
            &bad,
            WinogradVariant::NonFused,
            &GemmConfig::default()
        )
        .is_err());
        // Wrong filter size for the descriptor.
        let desc5 = ConvDesc::new(5, 1, 2, 2, 2, 8, 8, 2);
        assert!(PrecomputedFilters::for_config(&filt, &desc5, &cfg).is_err());
        // Input dims inconsistent with the descriptor.
        let small = ConvDesc {
            in_h: 4,
            in_w: 4,
            ..desc
        };
        assert!(conv_winograd_precomputed(
            &input,
            &pre,
            &small,
            WinogradVariant::NonFused,
            &GemmConfig::default()
        )
        .is_err());
    }

    #[test]
    fn stride_rejected() {
        let desc = ConvDesc::new(3, 2, 1, 2, 1, 8, 8, 2);
        let (input, filt) = random_case(&desc, 34);
        assert!(matches!(
            conv_winograd(&input, &filt, &desc, &WinogradConfig::new(2)),
            Err(ConvError::Unsupported(_))
        ));
    }

    #[test]
    fn recipe_spec_mismatch_rejected() {
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 8, 8, 2);
        let (input, filt) = random_case(&desc, 35);
        let other = recipe_db()
            .get(WinogradSpec::new(4, 3).unwrap(), RecipeOptions::optimized())
            .unwrap();
        // Descriptor says r = 3 and recipes say m = 4 — consistent —
        // but force a mismatch by using a 5×5 descriptor.
        let desc5 = ConvDesc::new(5, 1, 2, 2, 1, 8, 8, 2);
        let (input5, filt5) = random_case(&desc5, 36);
        assert!(conv_winograd_with_recipes(
            &input5,
            &filt5,
            &desc5,
            &other,
            WinogradVariant::NonFused
        )
        .is_err());
        // Matching case passes.
        assert!(conv_winograd_with_recipes(
            &input,
            &filt,
            &desc,
            &other,
            WinogradVariant::NonFused
        )
        .is_ok());
    }
}
