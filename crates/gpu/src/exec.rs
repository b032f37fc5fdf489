//! Functional plan execution.
//!
//! The simulator runs a [`KernelPlan`] kernel by kernel against real
//! buffers, honouring each kernel's data-layout contract (the scatter
//! layouts of §3.2.2). This validates that the *generated plan* — not
//! just the CPU engines — computes the right convolution, and it is
//! the execution backend the integration tests compare against direct
//! convolution.

use std::fmt;

use wino_conv::{conv_direct_f32, conv_im2col, ConvError, TileTransformer};
use wino_gemm::{batched_sgemm, BatchedGemmShape};
use wino_ir::{KernelKind, KernelPlan};
use wino_symbolic::RecipeOptions;
use wino_tensor::{extract_input_tile, place_output_tile, tile_counts, Tensor4};
use wino_transform::{recipe_db, WinogradSpec};

/// Errors from functional plan execution.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// A kernel consumed a buffer no earlier kernel produced.
    MissingBuffer(&'static str),
    /// The kernel sequence does not form a recognized pipeline.
    UnsupportedPlan(String),
    /// An underlying engine failed.
    Conv(ConvError),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MissingBuffer(b) => write!(f, "kernel consumes missing buffer {b}"),
            ExecError::UnsupportedPlan(msg) => write!(f, "unsupported plan: {msg}"),
            ExecError::Conv(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ConvError> for ExecError {
    fn from(e: ConvError) -> Self {
        ExecError::Conv(e)
    }
}

impl From<wino_transform::TransformError> for ExecError {
    fn from(e: wino_transform::TransformError) -> Self {
        ExecError::Conv(ConvError::Transform(e))
    }
}

/// Executes `plan` functionally and returns the convolution output.
///
/// # Errors
/// [`ExecError`] on malformed plans or engine failures.
pub fn execute_plan(
    plan: &KernelPlan,
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
) -> Result<Tensor4<f32>, ExecError> {
    let desc = &plan.desc;
    let kinds: Vec<&KernelKind> = plan.kernels.iter().map(|k| &k.kind).collect();
    match kinds.as_slice() {
        [KernelKind::DirectConv] => Ok(conv_direct_f32(input, filters, desc)?),
        [KernelKind::Im2col, KernelKind::Gemm { .. }] => Ok(conv_im2col(input, filters, desc)?),
        [KernelKind::FusedWinograd { m, r }] => execute_fused(plan, input, filters, *m, *r),
        [KernelKind::FilterTransform { m, r }, KernelKind::InputTransform { .. }, KernelKind::BatchedGemm {
            batches,
            m_dim,
            n_dim,
            k_dim,
        }, KernelKind::OutputTransform { .. }] => execute_nonfused_stages(
            plan, input, filters, *m, *r, *batches, *m_dim, *n_dim, *k_dim,
        ),
        _ => Err(ExecError::UnsupportedPlan(format!(
            "unrecognized kernel sequence in plan '{}'",
            plan.variant
        ))),
    }
}

/// Stage-by-stage non-fused execution through the kernels' scatter
/// layouts: `U'(ξ,k,c)`, `V'(ξ,c,p)`, `M(ξ,k,p)`.
#[allow(clippy::too_many_arguments)]
fn execute_nonfused_stages(
    plan: &KernelPlan,
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    m: usize,
    r: usize,
    batches: usize,
    m_dim: usize,
    n_dim: usize,
    k_dim: usize,
) -> Result<Tensor4<f32>, ExecError> {
    let desc = &plan.desc;
    let spec = WinogradSpec::new(m, r)?;
    let alpha = spec.alpha();
    let a2 = alpha * alpha;
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let (th, tw) = tile_counts(oh, ow, m);
    let p_total = desc.batch * th * tw;
    let (kc, cc) = (desc.out_ch, desc.in_ch);
    // Cross-check the GEMM kernel's declared dims against the plan.
    if batches != a2 || m_dim != kc || n_dim != p_total || k_dim != cc {
        return Err(ExecError::UnsupportedPlan(format!(
            "batched GEMM dims ({batches},{m_dim},{n_dim},{k_dim}) disagree with \
             plan geometry ({a2},{kc},{p_total},{cc})"
        )));
    }
    let recipes = recipe_db().get(spec, RecipeOptions::optimized())?;

    // Kernel 1: filter transform → U'(ξ,k,c).
    let mut ft = TileTransformer::new(&recipes.filter);
    let mut u = vec![0.0f32; a2 * kc * cc];
    let mut tile = vec![0.0f32; a2];
    for k in 0..kc {
        for c in 0..cc {
            ft.transform(filters.plane(k, c), &mut tile);
            for (xi, &v) in tile.iter().enumerate() {
                u[(xi * kc + k) * cc + c] = v;
            }
        }
    }

    // Kernel 2: input transform → V'(ξ,c,p).
    let padded = input.pad_spatial(desc.pad);
    let mut it = TileTransformer::new(&recipes.input);
    let mut v = vec![0.0f32; a2 * cc * p_total];
    let mut in_tile = vec![0.0f32; a2];
    for n in 0..desc.batch {
        for ty in 0..th {
            for tx in 0..tw {
                let p = (n * th + ty) * tw + tx;
                for c in 0..cc {
                    extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
                    it.transform(&in_tile, &mut tile);
                    for (xi, &val) in tile.iter().enumerate() {
                        v[(xi * cc + c) * p_total + p] = val;
                    }
                }
            }
        }
    }

    // Kernel 3: batched SGEMM → M(ξ,k,p).
    let shape = BatchedGemmShape {
        batches: a2,
        m: kc,
        k: cc,
        n: p_total,
    };
    let mut mm = vec![0.0f32; shape.c_len()];
    batched_sgemm(&shape, &u, &v, &mut mm);

    // Kernel 4: output transform + placement.
    let mut ot = TileTransformer::new(&recipes.output);
    let mut out = Tensor4::<f32>::zeros(desc.batch, kc, oh, ow);
    let mut m_tile = vec![0.0f32; a2];
    let mut y_tile = vec![0.0f32; m * m];
    for k in 0..kc {
        for n in 0..desc.batch {
            for ty in 0..th {
                for tx in 0..tw {
                    let p = (n * th + ty) * tw + tx;
                    for (xi, slot) in m_tile.iter_mut().enumerate() {
                        *slot = mm[(xi * kc + k) * p_total + p];
                    }
                    ot.transform(&m_tile, &mut y_tile);
                    place_output_tile(&mut out, n, k, ty, tx, m, &y_tile);
                }
            }
        }
    }
    Ok(out)
}

/// The fused kernel, one thread block — one tile — at a time: transform
/// the tile's channels, per filter sum `U(k, c) ⊙ V(c)` over channels,
/// output transform, place. Only `U` outlives a tile (the generated
/// kernel recomputes it per block from shared memory).
fn execute_fused(
    plan: &KernelPlan,
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    m: usize,
    r: usize,
) -> Result<Tensor4<f32>, ExecError> {
    let desc = &plan.desc;
    let spec = WinogradSpec::new(m, r)?;
    let (alpha, a2) = (spec.alpha(), spec.alpha() * spec.alpha());
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let (th, tw) = tile_counts(oh, ow, m);
    let (kc, cc) = (desc.out_ch, desc.in_ch);
    let recipes = recipe_db().get(spec, RecipeOptions::optimized())?;
    let mut ft = TileTransformer::new(&recipes.filter);
    let mut u = vec![0.0f32; kc * cc * a2];
    for (plane, u_kc) in u.chunks_exact_mut(a2).enumerate() {
        ft.transform(filters.plane(plane / cc, plane % cc), u_kc);
    }
    let padded = input.pad_spatial(desc.pad);
    let mut it = TileTransformer::new(&recipes.input);
    let mut ot = TileTransformer::new(&recipes.output);
    let mut out = Tensor4::<f32>::zeros(desc.batch, kc, oh, ow);
    let (mut in_tile, mut v) = (vec![0.0f32; a2], vec![0.0f32; cc * a2]);
    let (mut acc, mut y_tile) = (vec![0.0f32; a2], vec![0.0f32; m * m]);
    for (n, ty, tx) in (0..desc.batch * th * tw).map(|p| (p / (th * tw), p / tw % th, p % tw)) {
        for (c, v_c) in v.chunks_exact_mut(a2).enumerate() {
            extract_input_tile(&padded, n, c, ty, tx, m, alpha, &mut in_tile);
            it.transform(&in_tile, v_c);
        }
        for (k, u_k) in u.chunks_exact(cc * a2).enumerate() {
            acc.fill(0.0);
            for (u_c, v_c) in u_k.chunks_exact(a2).zip(v.chunks_exact(a2)) {
                for ((sum, &uv), &vv) in acc.iter_mut().zip(u_c).zip(v_c) {
                    *sum += uv * vv;
                }
            }
            ot.transform(&acc, &mut y_tile);
            place_output_tile(&mut out, n, k, ty, tx, m, &y_tile);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wino_tensor::ConvDesc;

    fn close(a: &Tensor4<f32>, b: &Tensor4<f32>) -> bool {
        a.dims() == b.dims()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| (x - y).abs() <= 1e-3 * (1.0 + y.abs()))
    }

    fn case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Tensor4::random(
                desc.batch, desc.in_ch, desc.in_h, desc.in_w, -1.0, 1.0, &mut rng,
            ),
            Tensor4::random(
                desc.out_ch,
                desc.in_ch,
                desc.ksz,
                desc.ksz,
                -1.0,
                1.0,
                &mut rng,
            ),
        )
    }

    // Plan construction lives in wino-codegen, which this crate must
    // not depend on; build a minimal hand-rolled plan instead.
    fn hand_plan(desc: ConvDesc, kinds: Vec<KernelKind>) -> KernelPlan {
        use wino_ir::{Backend, CostProfile, Kernel, LaunchConfig};
        KernelPlan {
            desc,
            variant: "hand".into(),
            kernels: kinds
                .into_iter()
                .map(|kind| Kernel {
                    name: kind.tag().to_string(),
                    backend: Backend::Cuda,
                    kind,
                    launch: LaunchConfig::linear(1024, 256),
                    cost: CostProfile::compute_only(1),
                    source: "s".into(),
                })
                .collect(),
        }
    }

    /// The four-kernel non-fused plan of `F(m, ksz)` for `desc`.
    fn nonfused_plan(desc: ConvDesc, m: usize) -> KernelPlan {
        let r = desc.ksz;
        let (th, tw) = tile_counts(desc.out_h(), desc.out_w(), m);
        let gemm = KernelKind::BatchedGemm {
            batches: (m + r - 1) * (m + r - 1),
            m_dim: desc.out_ch,
            n_dim: desc.batch * th * tw,
            k_dim: desc.in_ch,
        };
        let kinds = vec![
            KernelKind::FilterTransform { m, r },
            KernelKind::InputTransform { m, r },
            gemm,
            KernelKind::OutputTransform { m, r },
        ];
        hand_plan(desc, kinds)
    }

    #[test]
    fn nonfused_plan_executes_correctly() {
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 10, 10, 3);
        let (input, filt) = case(&desc, 50);
        let got = execute_plan(&nonfused_plan(desc, 4), &input, &filt).unwrap();
        let expect = conv_direct_f32(&input, &filt, &desc).unwrap();
        assert!(close(&got, &expect));
    }

    #[test]
    fn fused_and_baseline_plans_execute() {
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
        let (input, filt) = case(&desc, 51);
        let expect = conv_direct_f32(&input, &filt, &desc).unwrap();
        for kinds in [
            vec![KernelKind::DirectConv],
            vec![
                KernelKind::Im2col,
                KernelKind::Gemm {
                    m_dim: 4,
                    n_dim: 64,
                    k_dim: 18,
                },
            ],
            vec![KernelKind::FusedWinograd { m: 2, r: 3 }],
        ] {
            let plan = hand_plan(desc, kinds);
            let got = execute_plan(&plan, &input, &filt).unwrap();
            assert!(close(&got, &expect), "plan failed");
        }
    }

    #[test]
    fn fused_model_matches_direct_and_the_nonfused_stages() {
        // A ragged plane (7×7 under m = 4), a 5×5 through F(4,5), batch 2.
        for (desc, m) in [
            (ConvDesc::new(3, 1, 1, 3, 1, 7, 7, 2), 4),
            (ConvDesc::new(5, 1, 2, 3, 1, 9, 9, 2), 4),
            (ConvDesc::new(3, 1, 1, 4, 2, 8, 8, 3), 2),
        ] {
            let (input, filt) = case(&desc, 54 + m as u64);
            let fused = hand_plan(desc, vec![KernelKind::FusedWinograd { m, r: desc.ksz }]);
            let got = execute_plan(&fused, &input, &filt).unwrap();
            assert!(close(&got, &conv_direct_f32(&input, &filt, &desc).unwrap()));
            let staged = execute_plan(&nonfused_plan(desc, m), &input, &filt).unwrap();
            assert!(close(&got, &staged));
        }
    }

    #[test]
    fn mismatched_gemm_dims_rejected() {
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 10, 10, 3);
        let (input, filt) = case(&desc, 52);
        let plan = hand_plan(
            desc,
            vec![
                KernelKind::FilterTransform { m: 4, r: 3 },
                KernelKind::InputTransform { m: 4, r: 3 },
                KernelKind::BatchedGemm {
                    batches: 36,
                    m_dim: 4,
                    n_dim: 1,
                    k_dim: 3,
                },
                KernelKind::OutputTransform { m: 4, r: 3 },
            ],
        );
        assert!(matches!(
            execute_plan(&plan, &input, &filt),
            Err(ExecError::UnsupportedPlan(_))
        ));
    }

    #[test]
    fn unrecognized_sequence_rejected() {
        let desc = ConvDesc::new(3, 1, 1, 4, 1, 8, 8, 2);
        let (input, filt) = case(&desc, 53);
        let plan = hand_plan(desc, vec![KernelKind::Im2col]);
        assert!(matches!(
            execute_plan(&plan, &input, &filt),
            Err(ExecError::UnsupportedPlan(_))
        ));
    }
}
