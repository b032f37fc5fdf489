//! The recipe-driven Winograd convolution engine.
//!
//! The CPU implementation of the paper's **non-fused** kernel variant
//! (§3.2.2): it materializes the transformed filters `U'` and inputs
//! `V'` in the scatter layouts of Lavin & Gray and runs the
//! multiplication stage as α² batched SGEMMs — `U'` written once, at
//! construction, by the filter transform straight into the GEMM
//! micro-kernel's own A order, `V'` by the input transform straight
//! into its B order. (The paper's
//! other, single-kernel variant runs on the simulated GPU only, in
//! `wino-gpu`: its per-tile CPU port measured 5–10× slower than this
//! engine — EXPERIMENTS.md, "Served stack stands alone (PR 24)".)
//!
//! Every transform stage (filter, input, output) is one loop over
//! **lane groups**: [`LANES`] tiles side by side in position-major SoA (`[pos][lane]`), a last group that uses
//! fewer lanes, and one [`Kernel::run`] call per group. Only the
//! kernel varies — a build-time-compiled proven kernel, or the recipe
//! interpreted over `LANES`-wide registers — and both retire the same
//! per-lane IEEE ops in the same order, so each stage has exactly one
//! floating-point operation order. Which one a bank runs is chosen
//! once, when the bank is built ([`Transforms`]).

use std::mem::MaybeUninit;
use std::sync::{Arc, OnceLock};

use wino_gemm::{ASliver, BatchedGemmShape, GemmConfig, PackedA, PackedB, SimdLevel};
use wino_probe::LiveBytes;
use wino_runtime::{DisjointSlice, Runtime};
use wino_symbolic::RecipeOptions;
use wino_tensor::{pad_plane, tile_counts, ConvDesc, Tensor4};
use wino_transform::{recipe_db, TransformRecipes, WinogradSpec};

use crate::compiled::{CompiledTransforms, SoaKernel, LANES};
use crate::direct::check_shapes;
use crate::error::ConvError;
use crate::scatter::{LaneGroup, ScatterMap, TileSpan};
use crate::tiles::TileTransformer;
use crate::workspace::{Buffer, Workspace};

/// Tiles gathered into the transformed-input layout.
static TILES_GATHERED: wino_probe::Counter = wino_probe::Counter::new("conv.tiles_gathered");
/// Output tiles scattered back into NCHW planes.
static TILES_SCATTERED: wino_probe::Counter = wino_probe::Counter::new("conv.tiles_scattered");
/// Tiles a stage handed the lane interpreter — every tile of a bank
/// with no compiled kernels, each in its stage's own unit
/// (`tiles_gathered`'s, `tiles_scattered`'s, `(k, c)` filter planes).
/// Zero for every zoo layer; anything else means a layer runs without
/// the build's proven kernels.
static TILES_INTERPRETED: wino_probe::Counter = wino_probe::Counter::new("conv.tiles_interpreted");
/// Bytes held by live [`PrecomputedFilters`] (Σ `resident_bytes()`).
static FILTER_BANK_BYTES: LiveBytes = LiveBytes::new("conv.filter_bank_bytes");
/// Whole-filter-bank transforms `U = G·g·Gᵀ` performed. A serving
/// layer that warms its filters sees exactly one bump per registered
/// layer, never per request.
static FILTER_TRANSFORMS: wino_probe::Counter = wino_probe::Counter::new("conv.filter_transforms");

/// Per-phase duration histograms, each opened as its phase's span
/// ([`wino_probe::Histogram::span`]). These record whenever tracing
/// *or* telemetry is armed, so a serving process sees phase
/// distributions without span buffers.
static H_FILTER: wino_probe::Histogram = wino_probe::Histogram::new("conv.filter_transform");
static H_INPUT: wino_probe::Histogram = wino_probe::Histogram::new("conv.input_transform");
static H_SGEMM: wino_probe::Histogram = wino_probe::Histogram::new("conv.batched_sgemm");
static H_OUTPUT: wino_probe::Histogram = wino_probe::Histogram::new("conv.output_transform");

/// The kernel variant the CPU engine implements (tuning parameter `WV`
/// of Table 1 has a second, single-kernel value; plans of that variant
/// run on `wino-gpu`'s modelled devices only).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WinogradVariant {
    /// Separate kernels per stage + batched SGEMM.
    NonFused,
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

/// How one stage transforms a lane group — the only part of the tile
/// pipeline that varies with the spec and the dispatch level. `src`
/// and `dst` are position-major SoA (`[pos][lane]`, one tile per
/// lane). Neither variant has a cross-lane operation and both retire
/// the recipe's per-lane IEEE ops in the recipe's order, so a stage's
/// output bits do not depend on which one ran, nor on what unused
/// lanes hold.
enum Kernel {
    /// The build-time-compiled, proven kernel, at the bank's level.
    Compiled(SoaKernel, SimdLevel),
    /// The recipe interpreted over `LANES`-wide registers.
    Interpreted(TileTransformer<[f32; LANES]>),
}

impl Kernel {
    /// Transforms one lane group; `src` and `dst` hold exactly the
    /// transform's input and output positions.
    fn run(&mut self, src: &[[f32; LANES]], dst: &mut [[f32; LANES]]) {
        match self {
            Kernel::Compiled(kernel, level) => kernel.run(*level, src, dst),
            Kernel::Interpreted(tt) => tt.transform(src, dst),
        }
        // WINO_FAULT hook (transform-output site), the only one in the
        // engines: one relaxed load when disarmed.
        wino_probe::fault::inject_f32(wino_probe::fault::Site::Transform, dst.as_flattened_mut());
    }
}

/// One of a bank's three transforms.
#[derive(Clone, Copy)]
enum Stage {
    Filter,
    Input,
    Output,
}

/// The three transforms a bank runs, chosen once, when it is built.
enum Transforms {
    /// The build table's proven kernels. The recipes they were
    /// generated from are read from the database only if
    /// [`PrecomputedFilters::recipes`] asks for them.
    Compiled(CompiledTransforms, OnceLock<Arc<TransformRecipes>>),
    /// Recipes the table has no kernels for, interpreted.
    Interpreted(Arc<TransformRecipes>),
}

impl Transforms {
    /// The compiled kernels when they were generated from `recipes`,
    /// the interpreter otherwise.
    fn for_recipes(recipes: Arc<TransformRecipes>) -> Self {
        match CompiledTransforms::matching(&recipes) {
            Some(ct) => Transforms::Compiled(ct, OnceLock::from(recipes)),
            None => Transforms::Interpreted(recipes),
        }
    }

    /// A fresh kernel for `stage` at `level`, one per task: the
    /// interpreter carries its own scratch.
    fn kernel(&self, stage: Stage, level: SimdLevel) -> Kernel {
        match self {
            Transforms::Compiled(ct, _) => {
                let kernel = match stage {
                    Stage::Filter => ct.filter,
                    Stage::Input => ct.input,
                    Stage::Output => ct.output,
                };
                Kernel::Compiled(kernel, level)
            }
            Transforms::Interpreted(recipes) => {
                Kernel::Interpreted(TileTransformer::new(match stage {
                    Stage::Filter => &recipes.filter,
                    Stage::Input => &recipes.input,
                    Stage::Output => &recipes.output,
                }))
            }
        }
    }

    /// Accounts `tiles` a stage is about to transform.
    fn count(&self, tiles: usize) {
        if let Transforms::Interpreted(_) = self {
            TILES_INTERPRETED.add(tiles as u64);
        }
    }
}

/// Winograd convolution using recipes from the process-wide database:
/// the cold convenience entry — it transforms the filter bank, serves
/// one call from it, and drops it.
///
/// # Errors
/// Shape mismatches, non-unit stride, or unsupported `F(m, r)`.
pub fn conv_winograd(
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    cfg: &WinogradConfig,
) -> Result<Tensor4<f32>, ConvError> {
    check_shapes(input, filters, desc)?;
    let pre = PrecomputedFilters::for_config(filters, desc, cfg)?;
    conv_winograd_precomputed(input, &pre, desc, cfg.variant, &cfg.gemm)
}

/// Transformed filters `U = G·g·Gᵀ` for one filter bank, computed once
/// and reusable across convolution calls.
///
/// One layout is resident: `U'` as the non-fused engine's batched-GEMM
/// A operand — α² matrices of `K × C` — already packed into the
/// micro-kernel's row slivers ([`PackedA`]) for one SIMD dispatch
/// level, so steady-state requests neither transform nor pack filters.
/// That level is a property of the bank ([`PrecomputedFilters::level`]):
/// the engine runs its transforms and the GEMM at it, so a bank
/// never meets a micro-kernel it was not packed for. The serving
/// layer's plan registry builds one per registered layer; transforms
/// are visible as the `conv.filter_transforms` counter and the
/// `conv.filter_transform` span, resident bytes as the
/// `conv.filter_bank_bytes` gauge.
///
/// The bank also holds the three transforms its calls run, chosen once
/// here: the build table's proven kernels for an `F(m, r)` the build
/// compiled (recipes given explicitly take them only when they are the
/// recipes those kernels were generated from), the recipes interpreted
/// otherwise.
///
/// The transform depends only on the filter bank, the recipes, and
/// the channel counts — batch size and spatial extent of later inputs
/// are free to vary.
pub struct PrecomputedFilters {
    spec: WinogradSpec,
    transforms: Transforms,
    out_ch: usize,
    in_ch: usize,
    /// `U'(ξ)`, `ξ = α²` matrices of `K × C`, packed at construction.
    bank: PackedA,
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
        Self::new_at(filters, desc, recipes, wino_gemm::simd_level())
    }

    /// [`PrecomputedFilters::new`] at an explicit dispatch level — the
    /// one A/B hook: `level` selects the transform kernels' entry (same
    /// bits either way) and the micro-kernel the bank is packed for,
    /// and every later call on this bank runs at it.
    ///
    /// # Errors
    /// As [`PrecomputedFilters::new`], plus [`ConvError::Unsupported`]
    /// when the host does not run `level`
    /// ([`wino_gemm::host_supports`]).
    pub fn new_at(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        recipes: Arc<TransformRecipes>,
        level: SimdLevel,
    ) -> Result<Self, ConvError> {
        let spec = recipes.spec;
        Self::checked(filters, desc, spec, Transforms::for_recipes(recipes), level)
    }

    /// [`PrecomputedFilters::new`] for `cfg`: the build table's kernels
    /// when it compiled `F(m, r)` under `cfg.options`, without deriving
    /// a recipe; otherwise recipes resolved from the process-wide
    /// database.
    ///
    /// # Errors
    /// As [`PrecomputedFilters::new`], plus unsupported `F(m, r)`.
    pub fn for_config(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        cfg: &WinogradConfig,
    ) -> Result<Self, ConvError> {
        let spec = winograd_checks(desc, cfg.m)?;
        let transforms = match CompiledTransforms::of(spec) {
            Some(ct) if cfg.options == RecipeOptions::optimized() => {
                Transforms::Compiled(ct, OnceLock::new())
            }
            _ => Transforms::Interpreted(recipe_db().get(spec, cfg.options)?),
        };
        Self::checked(filters, desc, spec, transforms, wino_gemm::simd_level())
    }

    /// Checks the arguments of a bank for `spec` and builds it.
    fn checked(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        spec: WinogradSpec,
        transforms: Transforms,
        level: SimdLevel,
    ) -> Result<Self, ConvError> {
        if !wino_gemm::host_supports(level) {
            return Err(ConvError::Unsupported(format!(
                "SIMD level {} is not supported on this host",
                level.name()
            )));
        }
        let implied = winograd_checks(desc, spec.m)?;
        if implied != spec {
            return Err(ConvError::Shape(format!(
                "recipes are for {spec} but descriptor implies {implied}"
            )));
        }
        if filters.dims() != (desc.out_ch, desc.in_ch, desc.ksz, desc.ksz) {
            return Err(ConvError::Shape(format!(
                "filter dims {:?} do not match descriptor {desc}",
                filters.dims()
            )));
        }
        // Row slivers of the bank are independent tasks on the pool.
        let rt = Runtime::global();
        Ok(Self::transformed(
            filters, desc, spec, transforms, level, rt,
        ))
    }

    /// The transform behind [`PrecomputedFilters::checked`], on an
    /// explicit runtime; the bank's bits do not depend on the thread
    /// count.
    fn transformed(
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        spec: WinogradSpec,
        transforms: Transforms,
        level: SimdLevel,
        rt: &Runtime,
    ) -> Self {
        let filter_span = H_FILTER.span();
        let a2 = spec.alpha() * spec.alpha();
        let (kc, cc) = (desc.out_ch, desc.in_ch);
        transforms.count(kc * cc);
        // Each task carries its own kernel scratch.
        let task_state = || {
            let kernel = transforms.kernel(Stage::Filter, level);
            let src = vec![[0.0f32; LANES]; desc.ksz * desc.ksz];
            (kernel, src, vec![[0.0f32; LANES]; a2])
        };
        // Filter k is row k of every U'(ξ), and a row sliver's filters
        // at channel c are the sliver's run at depth c: the lanes of a
        // group are consecutive filters of the sliver at one channel,
        // so `dst[ξ]` is a run of rows of U'(ξ) at depth c, stored
        // where the GEMM reads it — no (ξ, k, c) copy of the bank, and
        // no row-major staging, is ever resident.
        type State = (Kernel, Vec<[f32; LANES]>, Vec<[f32; LANES]>);
        let fill = |(kernel, src, dst): &mut State, sliver: &mut ASliver<'_>| {
            let rows = sliver.rows();
            for c in 0..cc {
                for k0 in rows.clone().step_by(LANES) {
                    let count = LANES.min(rows.end - k0);
                    for l in 0..count {
                        for (lanes, &val) in src.iter_mut().zip(filters.plane(k0 + l, c)) {
                            lanes[l] = val;
                        }
                    }
                    kernel.run(src, dst);
                    sliver.push(count, dst);
                }
            }
        };
        let bank = PackedA::from_slivers(a2, kc, cc, level, rt, task_state, fill);
        drop(filter_span);
        FILTER_TRANSFORMS.add(1);
        FILTER_BANK_BYTES.add(bank.bytes() as i64);
        PrecomputedFilters {
            spec,
            transforms,
            out_ch: kc,
            in_ch: cc,
            bank,
        }
    }

    /// The recipes the bank's transforms were generated from. A bank
    /// built from the table reads them from the process-wide database
    /// on the first call; its calls never do.
    pub fn recipes(&self) -> &Arc<TransformRecipes> {
        match &self.transforms {
            Transforms::Interpreted(recipes) => recipes,
            Transforms::Compiled(_, recipes) => recipes.get_or_init(|| {
                recipe_db()
                    .get(self.spec, RecipeOptions::optimized())
                    .expect("a compiled F(m, r) has recipes")
            }),
        }
    }

    /// The `F(m, r)` specification.
    pub fn spec(&self) -> WinogradSpec {
        self.spec
    }

    /// The dispatch level the bank was transformed and packed at, and
    /// that every call on it runs at.
    pub fn level(&self) -> SimdLevel {
        self.bank.level()
    }

    /// Output-channel count `K` of the transformed bank.
    pub fn out_ch(&self) -> usize {
        self.out_ch
    }

    /// Input-channel count `C` of the transformed bank.
    pub fn in_ch(&self) -> usize {
        self.in_ch
    }

    /// Bytes this bank keeps resident: the packed `U'`, last row
    /// sliver's padding included.
    pub fn resident_bytes(&self) -> usize {
        self.bank.bytes()
    }

    /// Validates that `desc` is servable by this transform: same
    /// channel counts and the same implied `F(m, r)`.
    fn check_desc(&self, desc: &ConvDesc) -> Result<(), ConvError> {
        let spec = winograd_checks(desc, self.spec.m)?;
        if self.spec != spec {
            return Err(ConvError::Shape(format!(
                "precomputed filters are for {} but descriptor implies {spec}",
                self.spec
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
        FILTER_BANK_BYTES.add(-(self.resident_bytes() as i64));
    }
}

/// Winograd convolution reusing an already-transformed filter bank
/// (skips the filter-transform phase entirely), on the process-wide
/// runtime. Output is bit-identical to the cold-path [`conv_winograd`]
/// with the same recipes: the warm `U` is the same values, only
/// computed earlier.
///
/// `variant` has one value and selects nothing: the parameter stays only
/// because `benchmark/src/workloads/conv.rs` passes `cfg.variant`
/// through, and goes when that package next opens (ROADMAP item 1B).
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
    conv_winograd_precomputed_rt(input, pre, desc, variant, gemm, Runtime::global())
}

/// [`conv_winograd_precomputed`] on an explicit execution runtime.
/// Outputs are bit-identical for every thread count: parallel tasks
/// own disjoint lane groups/tiles and preserve the serial per-element
/// operation order.
///
/// Transforms and the GEMM run at [`PrecomputedFilters::level`], and
/// every level gives the same bits: the transform kernels have no
/// cross-lane operations, and every GEMM tile runs the same FMA chain
/// per element.
///
/// # Errors
/// As [`conv_winograd_precomputed`].
pub fn conv_winograd_precomputed_rt(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    variant: WinogradVariant,
    gemm: &GemmConfig,
    rt: &Runtime,
) -> Result<Tensor4<f32>, ConvError> {
    if input.dims() != (desc.batch, desc.in_ch, desc.in_h, desc.in_w) {
        return Err(ConvError::Shape(format!(
            "input dims {:?} do not match descriptor {desc}",
            input.dims()
        )));
    }
    pre.check_desc(desc)?;
    let mut ws = Workspace::take();
    let out = match variant {
        WinogradVariant::NonFused => nonfused(input, pre, desc, gemm, rt, &mut ws),
    }?;
    ws.put_back();
    Ok(out)
}

/// Tile geometry of one convolution call. Tiles are numbered
/// `t = (n·th + ty)·tw + tx`; lane `l` of the lane group starting at
/// tile `t0` is tile `t0 + l`.
struct Tiling {
    m: usize,
    alpha: usize,
    in_ch: usize,
    th: usize,
    tw: usize,
    /// `batch · th · tw`.
    tiles: usize,
    /// The output stage's lane groups and where they store.
    scatter: ScatterMap,
    /// The bank's dispatch level: how [`Tiling::gather`] and
    /// [`Tiling::place_group`] move floats.
    level: SimdLevel,
}

impl Tiling {
    fn new(desc: &ConvDesc, spec: WinogradSpec, level: SimdLevel) -> Self {
        let (oh, ow) = (desc.out_h(), desc.out_w());
        let (th, tw) = tile_counts(oh, ow, spec.m);
        Tiling {
            m: spec.m,
            alpha: spec.alpha(),
            in_ch: desc.in_ch,
            th,
            tw,
            tiles: desc.batch * th * tw,
            scatter: ScatterMap::new(desc.batch, desc.out_ch, oh, ow, spec.m),
            level,
        }
    }

    /// Decomposes a linear tile index into `(batch, tile_y, tile_x)`.
    fn coords(&self, t: usize) -> (usize, usize, usize) {
        let rem = t % (self.th * self.tw);
        (t / (self.th * self.tw), rem / self.tw, rem % self.tw)
    }

    /// Extent `(h, w)` of a plane zero-padded to whole tiles: the last
    /// tile row and column end exactly at the edge, so every tile's
    /// α × α window is in bounds and [`Tiling::gather`] tests nothing.
    fn padded_extent(&self) -> (usize, usize) {
        let overlap = self.alpha - self.m;
        (self.th * self.m + overlap, self.tw * self.m + overlap)
    }

    /// `input` with `pad` zeros above and left of every plane and zeros
    /// out to [`Tiling::padded_extent`] below and right, built in `buf`
    /// ([`Tensor4::pad_to`]'s result) a plane per task on `rt`: each
    /// float is written once, the border's zeros included, and nothing
    /// is zero-filled first.
    fn pad(
        &self,
        input: &Tensor4<f32>,
        pad: usize,
        mut buf: Vec<f32>,
        rt: &Runtime,
    ) -> Tensor4<f32> {
        let (h, w) = self.padded_extent();
        let (n, c, ih, iw) = input.dims();
        let (planes, plane) = (n * c, h * w);
        let len = planes * plane;
        buf.clear();
        buf.reserve_exact(len);
        let dst = DisjointSlice::new(&mut buf.spare_capacity_mut()[..len]);
        // Whole planes per task, at least a few thousand floats each.
        let min_planes = (4096 / plane.max(1)).max(1);
        rt.parallel_for_chunks(0..planes, min_planes, |chunk| {
            for i in chunk {
                // SAFETY: plane `i`'s range lies inside `dst` and only
                // this task writes it.
                let out = unsafe { dst.slice_mut(i * plane..(i + 1) * plane) };
                pad_plane(input.plane_at(i), (ih, iw), pad, w, out);
            }
        });
        drop(dst);
        // SAFETY: the region covered `0..planes` and `pad_plane` wrote
        // every element of each plane, so the first `len` elements are
        // initialised (none when `plane` is 0).
        unsafe { buf.set_len(len) };
        Tensor4::from_raw(n, c, h, w, buf)
    }

    /// Offsets, in the padded input's data, of the channel-0 windows of
    /// tiles `t0 .. t0 + count` — a lane group's geometry, found once
    /// per group; channel `c`'s windows are `c` planes further on. The
    /// lanes past `count` repeat the first tile.
    fn origins(&self, t0: usize, count: usize) -> [usize; LANES] {
        let (h, w) = self.padded_extent();
        std::array::from_fn(|l| {
            let (n, ty, tx) = self.coords(t0 + if l < count { l } else { 0 });
            (n * self.in_ch * h + ty * self.m) * w + tx * self.m
        })
    }

    /// Gathers channel `c` of the α×α input tiles at `origins` (from
    /// [`Tiling::origins`]) into the lanes of `src`. What the lanes past
    /// the group's `count` receive is a repeat of lane 0 — in bounds,
    /// and never read back.
    fn gather(
        &self,
        padded: &Tensor4<f32>,
        origins: &[usize; LANES],
        c: usize,
        src: &mut [[f32; LANES]],
    ) {
        let (h, w) = self.padded_extent();
        let plane = &padded.data()[c * h * w..];
        match self.level {
            SimdLevel::Scalar => gather_rows(plane, w, origins, self.alpha, src),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level is the bank's, and no bank is packed for
            // a level the host lacks (`wino_gemm::assert_supported`);
            // both vector levels imply avx2.
            SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
                gather_rows_avx2(plane, w, origins, self.alpha, src)
            },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => unreachable!("vector level on non-x86_64"),
        }
    }

    /// Stores a lane group's output tiles `y` — `m × m` positions, lane
    /// `l` the tile of the group's `l`-th pair — where its
    /// [`ScatterMap::group`] spans say they go, each clipped to its
    /// plane.
    fn place_group(
        &self,
        out: &DisjointSlice<'_, MaybeUninit<f32>>,
        group: &LaneGroup,
        y: &[[f32; LANES]],
    ) {
        let (m, stride) = (self.m, self.scatter.row_stride());
        match self.level {
            SimdLevel::Scalar => place_rows(out, &group.spans, stride, m, y),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `gather`: a bank's level passed
            // `wino_gemm::assert_supported`, and both vector levels
            // imply avx2.
            SimdLevel::Avx2 | SimdLevel::Avx512 => unsafe {
                place_rows_avx2(out, &group.spans, stride, m, y)
            },
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => unreachable!("vector level on non-x86_64"),
        }
    }
}

/// `src[dy·α + dx][l] = plane[origins[l] + dy·w + dx]` for every lane
/// `l` and `dy, dx < α`: the α×α windows at `origins`, rows `w` apart,
/// into position-major SoA.
fn gather_rows(
    plane: &[f32],
    w: usize,
    origins: &[usize; LANES],
    alpha: usize,
    src: &mut [[f32; LANES]],
) {
    for (dy, positions) in src.chunks_exact_mut(alpha).enumerate() {
        for (l, origin) in origins.iter().enumerate() {
            let row = &plane[origin + dy * w..][..alpha];
            for (lanes, &val) in positions.iter_mut().zip(row) {
                lanes[l] = val;
            }
        }
    }
}

/// The reference store: lane by lane, row segment by row segment,
/// `out[span.row(dy)][dx] = y[dy·m + dx][l]`.
fn place_rows(
    out: &DisjointSlice<'_, MaybeUninit<f32>>,
    spans: &[TileSpan; LANES],
    stride: usize,
    m: usize,
    y: &[[f32; LANES]],
) {
    for (l, span) in spans.iter().enumerate() {
        for dy in 0..span.rows {
            // SAFETY: the scatter map gives each output element to one
            // lane of one group (wino-verify proves it), so row
            // segments never overlap, and every one is inside `out`.
            let dst = unsafe { out.slice_mut(span.row(dy, stride)) };
            for (val, lanes) in dst.iter_mut().zip(&y[dy * m..]) {
                val.write(lanes[l]);
            }
        }
    }
}

/// `TAIL[8 - n..][..8]` masks the first `n` lanes of a vector.
#[cfg(target_arch = "x86_64")]
const TAIL: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

/// The 8×8 transpose between the engine's two layouts: `r[i]` element
/// `j` becomes `out[j]` element `i`, so eight rows of eight lanes — a
/// lane's eight positions each — become eight positions of eight lanes,
/// and back. Shuffles only: no float is changed.
///
/// # Safety
/// Requires AVX2 on the host.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    // Interleave row pairs: `lo`/`hi(a, b)` hold columns 0, 1 | 4, 5
    // and 2, 3 | 6, 7 of rows `a`, `b`.
    let (t0, t1) = (
        _mm256_unpacklo_ps(r[0], r[1]),
        _mm256_unpackhi_ps(r[0], r[1]),
    );
    let (t2, t3) = (
        _mm256_unpacklo_ps(r[2], r[3]),
        _mm256_unpackhi_ps(r[2], r[3]),
    );
    let (t4, t5) = (
        _mm256_unpacklo_ps(r[4], r[5]),
        _mm256_unpackhi_ps(r[4], r[5]),
    );
    let (t6, t7) = (
        _mm256_unpacklo_ps(r[6], r[7]),
        _mm256_unpackhi_ps(r[6], r[7]),
    );
    // Pairs of pairs: `top[c]` is column c | c + 4 of rows 0..4,
    // `bottom[c]` the same of rows 4..8.
    const EVEN: i32 = 0b0100_0100;
    const ODD: i32 = 0b1110_1110;
    let top = [
        _mm256_shuffle_ps::<EVEN>(t0, t2),
        _mm256_shuffle_ps::<ODD>(t0, t2),
        _mm256_shuffle_ps::<EVEN>(t1, t3),
        _mm256_shuffle_ps::<ODD>(t1, t3),
    ];
    let bottom = [
        _mm256_shuffle_ps::<EVEN>(t4, t6),
        _mm256_shuffle_ps::<ODD>(t4, t6),
        _mm256_shuffle_ps::<EVEN>(t5, t7),
        _mm256_shuffle_ps::<ODD>(t5, t7),
    ];
    // Swap 128-bit halves: low halves are columns 0..4, high 4..8.
    [
        _mm256_permute2f128_ps::<0x20>(top[0], bottom[0]),
        _mm256_permute2f128_ps::<0x20>(top[1], bottom[1]),
        _mm256_permute2f128_ps::<0x20>(top[2], bottom[2]),
        _mm256_permute2f128_ps::<0x20>(top[3], bottom[3]),
        _mm256_permute2f128_ps::<0x31>(top[0], bottom[0]),
        _mm256_permute2f128_ps::<0x31>(top[1], bottom[1]),
        _mm256_permute2f128_ps::<0x31>(top[2], bottom[2]),
        _mm256_permute2f128_ps::<0x31>(top[3], bottom[3]),
    ]
}

/// [`gather_rows`] at vector width: a window row of all eight lanes —
/// eight α-float slices — becomes that row's SoA positions, eight
/// columns at a time through [`transpose8`]. Every load reads inside
/// its lane's row slice (a masked load where fewer than eight columns
/// remain) and every store is a whole `[f32; LANES]` position, so the
/// bounds are the slices' own.
///
/// # Safety
/// Requires AVX2 on the host; callers hold a vector-level dispatch
/// token ([`SimdLevel::Avx2`] or [`SimdLevel::Avx512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gather_rows_avx2(
    plane: &[f32],
    w: usize,
    origins: &[usize; LANES],
    alpha: usize,
    src: &mut [[f32; LANES]],
) {
    use std::arch::x86_64::*;
    for (dy, positions) in src.chunks_exact_mut(alpha).enumerate() {
        let rows = origins.map(|origin| &plane[origin + dy * w..][..alpha]);
        for (chunk, out) in positions.chunks_mut(LANES).enumerate() {
            let x0 = chunk * LANES;
            let mask = _mm256_loadu_si256(TAIL[LANES - out.len()..][..LANES].as_ptr().cast());
            let mut r = [_mm256_setzero_ps(); LANES];
            for (v, row) in r.iter_mut().zip(rows) {
                let row = &row[x0..x0 + out.len()];
                *v = if row.len() == LANES {
                    _mm256_loadu_ps(row.as_ptr())
                } else {
                    _mm256_maskload_ps(row.as_ptr(), mask)
                };
            }
            // Eight guarded stores, not a loop over `out`: a copy of
            // run-time length out of the transpose compiles to a spill
            // and a call.
            for (j, col) in transpose8(r).iter().enumerate() {
                if let Some(position) = out.get_mut(j) {
                    _mm256_storeu_ps(position.as_mut_ptr(), *col);
                }
            }
        }
    }
}

/// [`place_rows`] at vector width, the gather run backwards: an output
/// row's positions — up to eight columns of all eight lanes — go
/// through [`transpose8`] to one vector per lane, stored whole where
/// the lane's segment has eight columns left and through a lane mask
/// where it has fewer. Columns are chunked by eight, so every `m` runs
/// this one body. Each store writes inside its lane's row segment and
/// nothing is read from `out`.
///
/// # Safety
/// Requires AVX2 on the host; callers hold a vector-level dispatch
/// token ([`SimdLevel::Avx2`] or [`SimdLevel::Avx512`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn place_rows_avx2(
    out: &DisjointSlice<'_, MaybeUninit<f32>>,
    spans: &[TileSpan; LANES],
    stride: usize,
    m: usize,
    y: &[[f32; LANES]],
) {
    use std::arch::x86_64::*;
    for (dy, positions) in y[..m * m].chunks_exact(m).enumerate() {
        for (chunk, columns) in positions.chunks(LANES).enumerate() {
            let x0 = chunk * LANES;
            let mut r = [_mm256_setzero_ps(); LANES];
            for (v, lanes) in r.iter_mut().zip(columns) {
                *v = _mm256_loadu_ps(lanes.as_ptr());
            }
            // A loop of constant trip count over the lanes: unrolled,
            // the transposed rows stay in registers.
            for (span, row) in spans.iter().zip(transpose8(r)) {
                if dy >= span.rows || x0 >= span.cols {
                    continue;
                }
                let n = (span.cols - x0).min(LANES);
                let at = span.origin + dy * stride + x0;
                // SAFETY: as in `place_rows`: columns `x0 .. x0 + n` of
                // the lane's row segment `dy`, no other lane's.
                let dst = out.slice_mut(at..at + n).as_mut_ptr().cast::<f32>();
                if n == LANES {
                    _mm256_storeu_ps(dst, row);
                } else {
                    let mask = _mm256_loadu_si256(TAIL[LANES - n..][..LANES].as_ptr().cast());
                    _mm256_maskstore_ps(dst, mask, row);
                }
            }
        }
    }
}

fn nonfused(
    input: &Tensor4<f32>,
    pre: &PrecomputedFilters,
    desc: &ConvDesc,
    gemm: &GemmConfig,
    rt: &Runtime,
    ws: &mut Workspace,
) -> Result<Tensor4<f32>, ConvError> {
    let mut conv_span = wino_probe::span("conv.winograd.nonfused");
    conv_span.arg("desc", || desc.to_string());
    let (transforms, level) = (&pre.transforms, pre.level());
    let tiling = Tiling::new(desc, pre.spec, level);
    let a2 = tiling.alpha * tiling.alpha;
    let p_total = tiling.tiles;
    let (kc, cc) = (desc.out_ch, desc.in_ch);
    transforms.count(p_total + kc * p_total);

    // Stage 1a is `pre.bank`: U'(ξ), resident and packed for `level`.

    // Stage 1b: V'(ξ), α² matrices of C × P, born in the GEMM
    // micro-kernel's B order; parallel over lane groups of tiles `p`. A
    // group owns columns `p0 .. p0 + count` of every (ξ, c) row —
    // disjoint writes — and each chunk carries its own kernel scratch.
    let input_span = H_INPUT.span();
    let (ph, pw) = tiling.padded_extent();
    let pad_span = wino_probe::span("conv.pad");
    ws.fit(Buffer::Padded, desc.batch * cc * ph * pw);
    let padded = tiling.pad(input, desc.pad, std::mem::take(&mut ws.padded), rt);
    drop(pad_span);
    let b_pack_span = wino_probe::span("conv.b_pack");
    let nr = wino_gemm::tile_extents(level).1;
    ws.fit(Buffer::V, a2 * wino_gemm::packed_b_len(cc, p_total, nr));
    let mut v_packed = PackedB::recycled(std::mem::take(&mut ws.v), a2, cc, p_total, level);
    drop(b_pack_span);
    let v_columns = v_packed.columns();
    rt.parallel_for_chunks(0..p_total.div_ceil(LANES), 1, |groups| {
        let _chunk_span = wino_probe::span("conv.tile_gather");
        let mut kernel = transforms.kernel(Stage::Input, level);
        let mut src = vec![[0.0f32; LANES]; a2];
        let mut dst = vec![[0.0f32; LANES]; a2];
        for g in groups {
            let p0 = g * LANES;
            let count = LANES.min(p_total - p0);
            TILES_GATHERED.add(count as u64);
            let origins = tiling.origins(p0, count);
            for c in 0..cc {
                tiling.gather(&padded, &origins, c, &mut src);
                kernel.run(&src, &mut dst);
                // Lane l is tile p0 + l, column p0 + l of row c of
                // every V'(ξ).
                // SAFETY: only this group writes columns
                // p0..p0 + count of any (ξ, c) row.
                unsafe { v_columns.write(c, p0, count, &dst) };
            }
        }
    });
    drop(input_span);

    // Stage 2: α² batched SGEMMs M(ξ) = U'(ξ) · V'(ξ), parallel
    // across the batch dimension.
    let mut gemm_span = H_SGEMM.span();
    gemm_span.arg("shape", || format!("{a2}x({kc}x{cc}x{p_total})"));
    let shape = BatchedGemmShape {
        batches: a2,
        m: kc,
        k: cc,
        n: p_total,
    };
    // The GEMM overwrites all of M' and never reads it: grown, never
    // filled.
    ws.fit(Buffer::M, shape.c_len());
    if ws.m.len() < shape.c_len() {
        ws.m.resize(shape.c_len(), 0.0);
    }
    wino_gemm::batched_sgemm_packed(&shape, &pre.bank, &v_packed, &mut ws.m, gemm, rt);
    let m_scatter = &ws.m[..shape.c_len()];
    (ws.padded, ws.v) = (padded.into_raw(), v_packed.into_raw());
    drop(gemm_span);

    // Stage 3: output transform + placement, written once, never
    // zero-filled.
    let output_span = H_OUTPUT.span();
    let out_len = tiling.scatter.out_len();
    let mut out = Vec::<f32>::with_capacity(out_len);
    let out_win = DisjointSlice::new(&mut out.spare_capacity_mut()[..out_len]);
    output_stage(&tiling, transforms, m_scatter, &out_win, rt);
    drop(out_win);
    // SAFETY: `output_stage` returned, so it wrote all `out_len`
    // elements. A panicking group unwinds past this point instead, and
    // `out` is dropped empty.
    unsafe { out.set_len(out_len) };
    drop(output_span);
    Ok(Tensor4::from_raw(
        desc.batch,
        kc,
        desc.out_h(),
        desc.out_w(),
        out,
    ))
}

/// Stage 3: the output transform of `M'` (`m_scatter`, α² matrices of
/// `K × P`) stored into `out`, parallel over the scatter map's lane
/// groups of `(k, p)` pairs. A pair owns one `m × m` output tile of one
/// plane, and the map gives each output element to exactly one pair
/// (wino-verify's index analysis proves it), so every element of `out`
/// is written once and none is read: `out` may be a fresh buffer's
/// spare capacity.
fn output_stage(
    tiling: &Tiling,
    transforms: &Transforms,
    m_scatter: &[f32],
    out: &DisjointSlice<'_, MaybeUninit<f32>>,
    rt: &Runtime,
) {
    let (m, a2, level) = (tiling.m, tiling.alpha * tiling.alpha, tiling.level);
    let total = tiling.scatter.pairs();
    assert!(
        m_scatter.len() >= a2 * total && out.len() >= tiling.scatter.out_len(),
        "M' or the output is too short for the tiling"
    );
    rt.parallel_for_chunks(0..tiling.scatter.groups(), 1, |groups| {
        let _chunk_span = wino_probe::span("conv.tile_scatter");
        let mut kernel = transforms.kernel(Stage::Output, level);
        let mut src = vec![[0.0f32; LANES]; a2];
        let mut dst = vec![[0.0f32; LANES]; m * m];
        for g in groups {
            let group = tiling.scatter.group(g);
            let (q0, count) = (g * LANES, group.count);
            TILES_SCATTERED.add(count as u64);
            // Lane l is pair q0 + l, and M(ξ) is contiguous in
            // q = k·P + p (across a k boundary too): one load of the
            // group's lanes per position — a whole vector but in the
            // ragged last group.
            for (xi, lanes) in src.iter_mut().enumerate() {
                let at = &m_scatter[xi * total + q0..];
                if count == LANES {
                    lanes.copy_from_slice(&at[..LANES]);
                } else {
                    lanes[..count].copy_from_slice(&at[..count]);
                }
            }
            kernel.run(&src, &mut dst);
            tiling.place_group(out, &group, &dst);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::conv_direct_f32;
    use proptest::prelude::{any, prop_oneof, Just};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wino_tensor::extract_input_tile;

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
            let wino = conv_winograd(&input, &filt, &desc, &WinogradConfig::new(m)).unwrap();
            assert_close(&wino, &direct, 2e-3);
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
        let cfg = WinogradConfig::new(4);
        let cold = conv_winograd(&input, &filt, &desc, &cfg).unwrap();
        let pre = PrecomputedFilters::for_config(&filt, &desc, &cfg).unwrap();
        let warm = conv_winograd_precomputed(&input, &pre, &desc, cfg.variant, &cfg.gemm).unwrap();
        assert_bits_equal(&warm, &cold);
        // The same warm bank serves a different batch size too.
        let desc2 = ConvDesc { batch: 5, ..desc };
        let (input2, _) = random_case(&desc2, 42);
        let cold2 = conv_winograd(&input2, &filt, &desc2, &cfg).unwrap();
        let warm2 =
            conv_winograd_precomputed(&input2, &pre, &desc2, cfg.variant, &cfg.gemm).unwrap();
        assert_bits_equal(&warm2, &cold2);
    }

    #[test]
    fn engines_bit_identical_with_and_without_compiled_kernels() {
        // Banks running the compiled kernels against banks
        // interpreting the same recipes: the compiled SoA kernels
        // (filter, input, output) retire the lane interpreter's
        // per-lane ops in its order and everything around them only
        // moves data, so the bits must not change — at either entry of
        // the kernels. Banks built at every level must hold the same U
        // (packing is a pure re-layout), whether one task transformed
        // every row sliver or four shared them.
        let cases = [
            // P = 4 < LANES, C = 3 < LANES, K·P = 4 < LANES.
            (ConvDesc::new(3, 1, 1, 1, 1, 4, 4, 3), vec![2usize, 4, 6]),
            // C = 20 leaves a 4-channel filter group, K = 13 and
            // P = 2·3·3 = 18 leave ragged input and output groups, and
            // K·P crosses k boundaries inside a lane group.
            (ConvDesc::new(3, 1, 1, 13, 2, 11, 11, 20), vec![4]),
            // 5×5 through F(4,5), C = 10.
            (ConvDesc::new(5, 1, 2, 9, 2, 11, 11, 10), vec![4]),
        ];
        let levels = wino_gemm::supported_levels();
        let (gemm, rt) = (GemmConfig::default(), Runtime::global());
        for (desc, ms) in cases {
            let (input, filt) = random_case(&desc, 55);
            for m in ms {
                let spec = winograd_checks(&desc, m).unwrap();
                let recipes = recipe_db().get(spec, RecipeOptions::optimized()).unwrap();
                let bank = |compiled: bool, lv, threads| {
                    let transforms = match compiled {
                        true => Transforms::Compiled(
                            CompiledTransforms::of(spec).unwrap(),
                            OnceLock::new(),
                        ),
                        false => Transforms::Interpreted(Arc::clone(&recipes)),
                    };
                    let rt = Runtime::with_threads(threads);
                    PrecomputedFilters::transformed(&filt, &desc, spec, transforms, lv, &rt)
                };
                // U'(ξ) row by row, whatever sliver height it is packed in.
                let unpacked = |pre: &PrecomputedFilters| {
                    let mut u = vec![0.0f32; pre.bank.batches() * desc.out_ch * desc.in_ch];
                    for (i, row) in u.chunks_exact_mut(desc.in_ch).enumerate() {
                        pre.bank.copy_row(i / desc.out_ch, i % desc.out_ch, row);
                    }
                    u
                };
                let u = unpacked(&bank(false, SimdLevel::Scalar, 1));
                for &lv in &levels {
                    let interpreted = bank(false, lv, 1);
                    let ws = &mut Workspace::default();
                    let want = nonfused(&input, &interpreted, &desc, &gemm, rt, ws).unwrap();
                    for pre in [interpreted, bank(true, lv, 1), bank(true, lv, 4)] {
                        assert_eq!(unpacked(&pre), u, "{spec} at {lv:?}");
                        let got = nonfused(&input, &pre, &desc, &gemm, rt, ws).unwrap();
                        assert_bits_equal(&got, &want);
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]
        // The born-packed bank against the path it replaced: `U` built a
        // `(k, c)` plane at a time by the scalar interpreter into
        // row-major `K × C` matrices `U'(ξ)`, then packed whole by
        // `PackedA::pack` — bit for bit at every level the host runs,
        // on one task and on three, for the compiled specs and an
        // interpreted one, with `K` below, at and past every sliver
        // height and `C` below and past a lane group. The padding rows
        // of a ragged last sliver are `+0.0`, not merely zero.
        #[test]
        fn born_packed_bank_is_the_interpreted_bank_packed(
            (m, r) in prop_oneof![
                Just((2usize, 3usize)),
                Just((4, 3)),
                Just((6, 3)),
                Just((4, 5)),
                Just((3, 2)),
            ],
            out_ch in prop_oneof![
                Just(1usize), Just(5), Just(6), Just(7), Just(13), Just(14), Just(15), Just(29),
            ],
            in_ch in prop_oneof![Just(1usize), Just(3), Just(19)],
            seed in any::<u64>(),
        ) {
            let desc = ConvDesc::new(r, 1, 0, out_ch, 1, 8, 8, in_ch);
            let (_, filt) = random_case(&desc, seed);
            let spec = WinogradSpec::new(m, r).unwrap();
            let recipes = recipe_db().get(spec, RecipeOptions::optimized()).unwrap();
            let a2 = spec.alpha() * spec.alpha();
            let mut u = vec![f32::NAN; a2 * out_ch * in_ch];
            let mut reference = TileTransformer::<f32>::new(&recipes.filter);
            let mut tile = vec![0.0f32; a2];
            for k in 0..out_ch {
                for c in 0..in_ch {
                    reference.transform(filt.plane(k, c), &mut tile);
                    for (xi, &v) in tile.iter().enumerate() {
                        u[(xi * out_ch + k) * in_ch + c] = v;
                    }
                }
            }
            let runtimes = [Runtime::with_threads(1), Runtime::with_threads(3)];
            for level in wino_gemm::supported_levels() {
                let want = PackedA::pack(&u, a2, out_ch, in_ch, level, &runtimes[0]);
                let model = wino_gemm::pack_a_model(out_ch, in_ch, wino_gemm::tile_extents(level).0);
                for rt in &runtimes {
                    let transforms = Transforms::for_recipes(Arc::clone(&recipes));
                    let pre = PrecomputedFilters::transformed(&filt, &desc, spec, transforms, level, rt);
                    for xi in 0..a2 {
                        let (got, want) = (pre.bank.batch(xi), want.batch(xi));
                        proptest::prop_assert_eq!(got.len(), model.len());
                        for (s, slot) in model.iter().enumerate() {
                            proptest::prop_assert_eq!(
                                got[s].to_bits(), want[s].to_bits(),
                                "{} {:?} at {} threads: U'({}) slot {}", spec, level, rt.threads(), xi, s
                            );
                            if *slot == wino_gemm::PackSlot::Zero {
                                proptest::prop_assert_eq!(got[s].to_bits(), 0, "padding slot {}", s);
                            }
                        }
                    }
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        // The gather against the reference it replaced — `pad_spatial`
        // then `extract_input_tile` per lane — on the shapes that make
        // its geometry ragged: planes smaller than a tile, outputs `m`
        // does not divide, `P mod 8 ≠ 0`, lane groups that run over the
        // end of a tile row and of an image, every α the compiled specs
        // use (4, 6, 8) plus one below and one above the vector width.
        #[test]
        fn gather_matches_extract_input_tile(
            batch in 1usize..4,
            in_ch in 1usize..4,
            h in 1usize..13,
            w in 1usize..13,
            pad in 0usize..3,
            (m, r) in prop_oneof![
                Just((2usize, 3usize)),
                Just((4, 3)),
                Just((6, 3)),
                Just((4, 5)),
                Just((3, 2)),
                Just((5, 3)),
                Just((8, 3)),
            ],
            seed in any::<u64>(),
        ) {
            proptest::prop_assume!(h + 2 * pad >= r && w + 2 * pad >= r);
            let desc = ConvDesc::new(r, 1, pad, 1, batch, h, w, in_ch);
            let spec = WinogradSpec::new(m, r).unwrap();
            let input = {
                let mut rng = StdRng::seed_from_u64(seed);
                Tensor4::<f32>::random(batch, in_ch, h, w, -1.0, 1.0, &mut rng)
            };
            let reference = input.pad_spatial(pad);
            let a2 = spec.alpha() * spec.alpha();
            let mut want = vec![0.0f32; a2];
            for level in wino_gemm::supported_levels() {
                let tiling = Tiling::new(&desc, spec, level);
                let padded = tiling.pad(&input, pad, Vec::new(), Runtime::global());
                for t0 in (0..tiling.tiles).step_by(LANES) {
                    let count = LANES.min(tiling.tiles - t0);
                    let origins = tiling.origins(t0, count);
                    for c in 0..in_ch {
                        let mut src = vec![[f32::NAN; LANES]; a2];
                        tiling.gather(&padded, &origins, c, &mut src);
                        for l in 0..count {
                            let (n, ty, tx) = tiling.coords(t0 + l);
                            extract_input_tile(&reference, n, c, ty, tx, m, spec.alpha(), &mut want);
                            for (pos, lanes) in src.iter().enumerate() {
                                proptest::prop_assert_eq!(
                                    lanes[l].to_bits(),
                                    want[pos].to_bits(),
                                    "{:?} tile {} channel {} position {}", level, t0 + l, c, pos
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The stage-3 store the vector one replaced, kept as the reference:
    /// lane by lane, `(k, p)` and the tile's coordinates found by
    /// division, `y[dy·m + dx][l]` into row `ty·m + dy` of plane
    /// `(n, k)`, clipped to the plane.
    fn place_reference(
        tiling: &Tiling,
        desc: &ConvDesc,
        out: &mut [f32],
        q: usize,
        y: &[[f32; LANES]],
        l: usize,
    ) {
        let (m, oh, ow) = (tiling.m, desc.out_h(), desc.out_w());
        let (k, t) = (q / tiling.tiles, q % tiling.tiles);
        let (n, ty, tx) = tiling.coords(t);
        for dy in 0..m.min(oh - ty * m) {
            let row = ((n * desc.out_ch + k) * oh + ty * m + dy) * ow + tx * m;
            for dx in 0..m.min(ow - tx * m) {
                out[row + dx] = y[dy * m + dx][l];
            }
        }
    }

    /// The pad the engine runs a plane per task equals the serial
    /// `pad_to`, into a NaN-dirty recycled buffer, on one lane and on
    /// three.
    #[test]
    fn parallel_pad_into_a_dirty_buffer_is_pad_to() {
        for (desc, m) in [
            (ConvDesc::new(3, 1, 1, 1, 2, 7, 5, 3), 4),
            (ConvDesc::new(5, 1, 2, 1, 1, 13, 11, 2), 4),
            (ConvDesc::new(3, 1, 0, 1, 3, 3, 3, 1), 2),
        ] {
            let (input, _) = random_case(&desc, 9);
            let tiling = Tiling::new(
                &desc,
                WinogradSpec::new(m, desc.ksz).unwrap(),
                SimdLevel::Scalar,
            );
            let (h, w) = tiling.padded_extent();
            let want = input.pad_to(desc.pad, h, w);
            for threads in [1, 3] {
                let mut dirty = vec![f32::NAN; want.len() + 5];
                dirty.truncate(3);
                let got = tiling.pad(&input, desc.pad, dirty, &Runtime::with_threads(threads));
                assert_bits_equal(&got, &want);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]
        // The output stage writes each output element exactly once, and
        // writes it the reference's bits: stage 3 on random `M'` into a
        // sentinel-filled destination, at every level the host runs, on
        // the compiled specs and two interpreted ones, on planes `m`
        // does not divide, rows of fewer than eight tiles (groups
        // straddle tile rows), batch and filter counts whose groups
        // cross image and `k` planes, and pair counts that leave a
        // ragged last group.
        #[test]
        fn output_stage_writes_each_element_once_as_the_reference(
            batch in 1usize..4,
            out_ch in 1usize..5,
            oh in 1usize..15,
            ow in 1usize..15,
            (m, r, is_compiled) in prop_oneof![
                Just((2usize, 3usize, true)),
                Just((4, 3, true)),
                Just((6, 3, true)),
                Just((4, 5, true)),
                Just((3, 2, false)),
                Just((5, 3, false)),
            ],
            seed in any::<u64>(),
        ) {
            const SENTINEL: u32 = 0x7fc0_dead;
            let desc = ConvDesc::new(r, 1, 0, out_ch, batch, oh + r - 1, ow + r - 1, 1);
            let spec = WinogradSpec::new(m, r).unwrap();
            let recipes = recipe_db().get(spec, RecipeOptions::optimized()).unwrap();
            let transforms = Transforms::for_recipes(Arc::clone(&recipes));
            proptest::prop_assert_eq!(matches!(transforms, Transforms::Compiled(..)), is_compiled);
            let reference_tiling = Tiling::new(&desc, spec, SimdLevel::Scalar);
            let (a2, total) = (spec.alpha() * spec.alpha(), reference_tiling.scatter.pairs());
            let out_len = reference_tiling.scatter.out_len();
            let m_scatter: Vec<f32> = {
                use rand::Rng;
                let mut rng = StdRng::seed_from_u64(seed);
                (0..a2 * total).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
            };
            let mut want = vec![f32::from_bits(SENTINEL); out_len];
            let mut kernel = Kernel::Interpreted(TileTransformer::new(&recipes.output));
            let (mut src, mut y) = (vec![[0.0f32; LANES]; a2], vec![[0.0f32; LANES]; m * m]);
            for q0 in (0..total).step_by(LANES) {
                let count = LANES.min(total - q0);
                for (xi, lanes) in src.iter_mut().enumerate() {
                    lanes[..count].copy_from_slice(&m_scatter[xi * total + q0..][..count]);
                }
                kernel.run(&src, &mut y);
                for l in 0..count {
                    place_reference(&reference_tiling, &desc, &mut want, q0 + l, &y, l);
                }
            }
            for level in wino_gemm::supported_levels() {
                let tiling = Tiling::new(&desc, spec, level);
                let mut out = vec![MaybeUninit::new(f32::from_bits(SENTINEL)); out_len];
                output_stage(
                    &tiling,
                    &transforms,
                    &m_scatter,
                    &DisjointSlice::new(&mut out),
                    &Runtime::with_threads(2),
                );
                for (i, (got, want)) in out.iter().zip(&want).enumerate() {
                    // SAFETY: every element was initialised (to the
                    // sentinel) before the stage ran.
                    let got = unsafe { got.assume_init() }.to_bits();
                    proptest::prop_assert!(got != SENTINEL, "{:?}: element {} never written", level, i);
                    proptest::prop_assert_eq!(got, want.to_bits(), "{:?}: element {}", level, i);
                }
            }
        }
    }

    #[test]
    fn nonfused_bank_holds_one_layout() {
        // K = 13 is not a multiple of any sliver height, so the
        // padded last sliver is part of the count.
        let desc = ConvDesc::new(3, 1, 1, 13, 1, 8, 8, 20);
        let (input, filt) = random_case(&desc, 47);
        let cfg = WinogradConfig::new(4);
        let pre = PrecomputedFilters::for_config(&filt, &desc, &cfg).unwrap();
        let (mr, _) = wino_gemm::tile_extents(wino_gemm::simd_level());
        let a2 = pre.spec().alpha() * pre.spec().alpha();
        let packed = a2 * 13usize.div_ceil(mr) * mr * 20 * 4;
        assert_eq!(pre.resident_bytes(), packed);
        // Serving requests adds nothing.
        conv_winograd_precomputed(&input, &pre, &desc, cfg.variant, &cfg.gemm).unwrap();
        assert_eq!(pre.resident_bytes(), packed);
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
        let (_, filt5) = random_case(&desc5, 36);
        assert!(PrecomputedFilters::new(&filt5, &desc5, Arc::clone(&other)).is_err());
        // Matching case passes.
        let pre = PrecomputedFilters::new(&filt, &desc, other).unwrap();
        let gemm = GemmConfig::default();
        assert!(
            conv_winograd_precomputed(&input, &pre, &desc, WinogradVariant::NonFused, &gemm)
                .is_ok()
        );
    }
}
