//! Generator for the tiled (batched) SGEMM kernel.
//!
//! The multiplication stage of the non-fused variant runs α² batched
//! SGEMMs `M(ξ) = U'(ξ)·V'(ξ)` with `U'` of shape `K×C` and `V'` of
//! shape `C×P` (§3.2.2). The kernel is the classic shared-memory tiled
//! GEMM parameterized by the Table-1 knobs: `MNb` (thread-block edge)
//! and `MNt` (per-thread register tile edge), so each block computes a
//! `(MNb·MNt)²` output tile.

use std::collections::BTreeMap;

use wino_ir::{CostProfile, Dim3, Kernel, KernelKind, LaunchConfig};

use crate::error::CodegenError;
use crate::options::{gemm_micro_efficiency, CodegenOptions};
use crate::template::render_template_strict;

pub(crate) const GEMM_TEMPLATE: &str = r#"// generated: %(name) — batched tiled SGEMM (MNb=%(MNB), MNt=%(MNT))
// CUCL IN A batch:M:K IN B batch:K:N OUT C batch:M:N
%(qualifier) %(name)(const float* __restrict__ A, const float* __restrict__ B,
                     float* __restrict__ C) {
  const int batch = blockIdx.z;
  const float* Ab = A + batch * %(M) * %(K);
  const float* Bb = B + batch * %(K) * %(N);
  float* Cb = C + batch * %(M) * %(N);
  %(shared_decls)
  const int row0 = blockIdx.y * %(BM) + threadIdx.y * %(MNT);
  const int col0 = blockIdx.x * %(BN) + threadIdx.x * %(MNT);
  float acc[%(MNT)][%(MNT)];
  for (int i = 0; i < %(MNT); ++i)
    for (int j = 0; j < %(MNT); ++j)
      acc[i][j] = 0.0f;
  for (int kk = 0; kk < %(K); kk += %(KC)) {
    %(panel_loads)
    __syncthreads();
    for (int p = 0; p < %(KC); ++p) {
      %(micro_kernel)
    }
    __syncthreads();
  }
  %(store_results)
}
"#;

/// Shape of one batched-GEMM launch.
#[derive(Clone, Copy, Debug)]
pub struct GemmDims {
    /// Independent multiplies (grid.z); 1 for a plain GEMM.
    pub batches: usize,
    /// Rows of A / C.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B / C.
    pub n: usize,
}

const K_CHUNK: usize = 8;

/// Generates the (batched) tiled SGEMM kernel.
///
/// # Errors
/// Template rendering failures or invalid blocking parameters.
pub fn gen_gemm_kernel(
    dims: &GemmDims,
    opts: &CodegenOptions,
    name_suffix: &str,
) -> Result<Kernel, CodegenError> {
    opts.validate().map_err(CodegenError::Unsupported)?;
    let (mnt, mnb) = (opts.mnt, opts.mnb);
    let bm = mnb * mnt; // block tile edge (rows)
    let bn = mnb * mnt; // block tile edge (cols)
    let name = format!("sgemm_{name_suffix}_b{}_t{}", mnb, mnt);

    let shared_decls = format!(
        "{shared} float As[{kc}][{bm}];\n  {shared} float Bs[{kc}][{bn}];",
        shared = opts.backend.shared_qualifier(),
        kc = K_CHUNK,
    );
    let panel_loads = format!(
        "for (int l = threadIdx.y * blockDim.x + threadIdx.x;\n\
              l < {kc} * {bm}; l += blockDim.x * blockDim.y) {{\n\
           const int pr = l / {bm}, pm = l % {bm};\n\
           const int gr = blockIdx.y * {bm} + pm;\n\
           As[pr][pm] = (gr < {m} && kk + pr < {k}) ? Ab[gr * {k} + kk + pr] : 0.0f;\n\
           const int pn = l % {bn};\n\
           const int gc = blockIdx.x * {bn} + pn;\n\
           Bs[pr][pn] = (gc < {n} && kk + pr < {k}) ? Bb[(kk + pr) * {n} + gc] : 0.0f;\n\
         }}",
        kc = K_CHUNK,
        m = dims.m,
        k = dims.k,
        n = dims.n,
    );
    let micro_kernel = format!(
        "float a[{mnt}], b[{mnt}];\n\
         for (int i = 0; i < {mnt}; ++i) a[i] = As[p][threadIdx.y * {mnt} + i];\n\
         for (int j = 0; j < {mnt}; ++j) b[j] = Bs[p][threadIdx.x * {mnt} + j];\n\
         for (int i = 0; i < {mnt}; ++i)\n\
           for (int j = 0; j < {mnt}; ++j)\n\
             acc[i][j] = fmaf(a[i], b[j], acc[i][j]);"
    );
    let store_results = format!(
        "for (int i = 0; i < {mnt}; ++i)\n\
           for (int j = 0; j < {mnt}; ++j)\n\
             if (row0 + i < {m} && col0 + j < {n})\n\
               Cb[(row0 + i) * {n} + col0 + j] = acc[i][j];",
        m = dims.m,
        n = dims.n,
    );

    let mut vars: BTreeMap<&str, String> = BTreeMap::new();
    vars.insert("name", name.clone());
    vars.insert("qualifier", "__global__ void".to_string());
    vars.insert("M", dims.m.to_string());
    vars.insert("K", dims.k.to_string());
    vars.insert("N", dims.n.to_string());
    vars.insert("MNB", mnb.to_string());
    vars.insert("MNT", mnt.to_string());
    vars.insert("BM", bm.to_string());
    vars.insert("BN", bn.to_string());
    vars.insert("KC", K_CHUNK.to_string());
    vars.insert("shared_decls", shared_decls);
    vars.insert("panel_loads", panel_loads);
    vars.insert("micro_kernel", micro_kernel);
    vars.insert("store_results", store_results);
    let source = render_template_strict(GEMM_TEMPLATE, &vars)?;

    let blocks_x = dims.n.div_ceil(bn);
    let blocks_y = dims.m.div_ceil(bm);
    // Padded extents model the divisibility waste the paper observes
    // for awkward tile counts (§4.2).
    let (m_pad, n_pad) = (blocks_y * bm, blocks_x * bn);
    let flops = 2 * dims.batches as u64 * m_pad as u64 * dims.k as u64 * n_pad as u64;
    let panel_bytes =
        dims.batches as u64 * (blocks_x * blocks_y) as u64 * ((bm + bn) * dims.k * 4) as u64;
    let cost = CostProfile {
        flops,
        global_load_bytes: panel_bytes,
        global_store_bytes: dims.batches as u64 * (m_pad * n_pad * 4) as u64,
        shared_bytes: 2 * panel_bytes,
        coalescing: 0.95, // staged through shared memory
        control_overhead: 1.0 / gemm_micro_efficiency(mnt),
    };
    let launch = LaunchConfig {
        grid: Dim3 {
            x: blocks_x,
            y: blocks_y,
            z: dims.batches.max(1),
        },
        block: Dim3::plane(mnb, mnb),
        shared_mem_bytes: K_CHUNK * (bm + bn) * 4,
        regs_per_thread: mnt * mnt + 2 * mnt + 18,
    };
    let source = crate::bridge::bridge_source(&source, opts.backend, &launch);
    Ok(Kernel {
        name,
        backend: opts.backend,
        kind: if dims.batches > 1 {
            KernelKind::BatchedGemm {
                batches: dims.batches,
                m_dim: dims.m,
                n_dim: dims.n,
                k_dim: dims.k,
            }
        } else {
            KernelKind::Gemm {
                m_dim: dims.m,
                n_dim: dims.n,
                k_dim: dims.k,
            }
        },
        launch,
        cost,
        source,
    })
}

/// Convenience: plain (non-batched) GEMM.
///
/// # Errors
/// See [`gen_gemm_kernel`].
pub fn gen_single_gemm_kernel(
    m: usize,
    k: usize,
    n: usize,
    opts: &CodegenOptions,
    name_suffix: &str,
) -> Result<Kernel, CodegenError> {
    gen_gemm_kernel(
        &GemmDims {
            batches: 1,
            m,
            k,
            n,
        },
        opts,
        name_suffix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_kernel_is_well_formed() {
        let dims = GemmDims {
            batches: 16,
            m: 64,
            k: 32,
            n: 196,
        };
        let k = gen_gemm_kernel(&dims, &CodegenOptions::default(), "wg").unwrap();
        k.validate().unwrap();
        assert!(!k.source.contains("%("));
        assert_eq!(k.source.matches('{').count(), k.source.matches('}').count());
        assert_eq!(k.launch.grid.z, 16);
        assert!(k.source.contains("fmaf"));
    }

    #[test]
    fn flops_account_padding_waste() {
        // 65 rows with block tile 64 → padded to 128 rows.
        let dims = GemmDims {
            batches: 1,
            m: 65,
            k: 8,
            n: 64,
        };
        let k = gen_gemm_kernel(&dims, &CodegenOptions::default(), "pad").unwrap();
        assert_eq!(k.cost.flops, 2 * 128 * 8 * 64);
    }

    #[test]
    fn register_blocking_drives_efficiency() {
        let dims = GemmDims {
            batches: 1,
            m: 256,
            k: 256,
            n: 256,
        };
        let small = gen_gemm_kernel(
            &dims,
            &CodegenOptions {
                mnt: 1,
                ..Default::default()
            },
            "s",
        )
        .unwrap();
        let tuned = gen_gemm_kernel(
            &dims,
            &CodegenOptions {
                mnt: 8,
                mnb: 8,
                ..Default::default()
            },
            "t",
        )
        .unwrap();
        assert!(small.cost.control_overhead > tuned.cost.control_overhead);
        assert!(tuned.launch.regs_per_thread > small.launch.regs_per_thread);
    }

    #[test]
    fn invalid_blocking_rejected() {
        let dims = GemmDims {
            batches: 1,
            m: 8,
            k: 8,
            n: 8,
        };
        let opts = CodegenOptions {
            mnt: 3,
            ..Default::default()
        };
        assert!(matches!(
            gen_gemm_kernel(&dims, &opts, "bad"),
            Err(CodegenError::Unsupported(_))
        ));
    }

    #[test]
    fn single_gemm_kind() {
        let k = gen_single_gemm_kernel(8, 8, 8, &CodegenOptions::default(), "one").unwrap();
        assert!(matches!(k.kind, KernelKind::Gemm { .. }));
        assert_eq!(k.launch.grid.z, 1);
    }
}
