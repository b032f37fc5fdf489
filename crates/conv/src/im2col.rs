//! im2col + GEMM convolution — the "reshape as matrix multiplication"
//! lowering of §2 of the paper, and the engine inference frameworks
//! fall back to when Winograd does not apply (strided, 1×1 or
//! large-kernel layers).
//!
//! Both GEMM operands are born packed. The filter bank, already the
//! row-major `(K, C·r²)` matrix, is packed once into the micro-kernel's
//! A order ([`Im2colFilters`]) and shared by every image and request.
//! Each image's `(C·r², OH·OW)` column matrix is never materialised
//! row-major: the gather writes input row segments straight into a
//! [`PackedB`] recycled from the calling thread's workspace, and one
//! region of (image × tile) GEMM tasks writes the output planes.

use wino_gemm::{
    simd_level, BatchedGemmShape, GemmConfig, PackedA, PackedB, PackedBColumns, SimdLevel,
};
use wino_runtime::Runtime;
use wino_tensor::{ConvDesc, Tensor4};

use crate::error::ConvError;
use crate::workspace::{Buffer, Workspace};

/// Filter banks packed for the im2col GEMM. A serving layer that packs
/// at registration sees one bump per im2col plan, never per request.
static IM2COL_PACKS: wino_probe::Counter = wino_probe::Counter::new("conv.im2col_packs");

/// Gathers convolution patches into the row-major `(C·r², OH·OW)`
/// column matrix for one image: the reference the packed gather is
/// tested against. No engine calls it.
pub fn im2col_image(input: &Tensor4<f32>, n: usize, desc: &ConvDesc, cols: &mut [f32]) {
    let (oh, ow) = (desc.out_h(), desc.out_w());
    let k2 = desc.ksz * desc.ksz;
    let row_len = oh * ow;
    let (ih, iw) = (desc.in_h as isize, desc.in_w as isize);
    for c in 0..desc.in_ch {
        let plane = input.plane(n, c);
        for fy in 0..desc.ksz {
            for fx in 0..desc.ksz {
                let row = c * k2 + fy * desc.ksz + fx;
                for oy in 0..oh {
                    let y = (oy * desc.stride) as isize - desc.pad as isize + fy as isize;
                    for ox in 0..ow {
                        let x = (ox * desc.stride) as isize - desc.pad as isize + fx as isize;
                        cols[row * row_len + oy * ow + ox] = if y >= 0 && y < ih && x >= 0 && x < iw
                        {
                            plane[y as usize * desc.in_w + x as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// A `(K, C, r, r)` filter bank as the im2col GEMM's A operand: the
/// `(K, C·r²)` matrix packed once for a dispatch level's micro-kernel.
pub struct Im2colFilters {
    a: PackedA,
    /// `(K, C, r)` of the bank it was packed from.
    dims: (usize, usize, usize),
}

impl Im2colFilters {
    /// Packs `filters` for [`wino_gemm::simd_level`].
    ///
    /// # Errors
    /// [`ConvError::Shape`] when the filter planes are not square.
    pub fn new(filters: &Tensor4<f32>) -> Result<Self, ConvError> {
        Self::new_at(filters, simd_level())
    }

    /// Packs `filters` for `level`'s micro-kernel; the bank's
    /// convolutions run at that level.
    ///
    /// # Errors
    /// As [`Im2colFilters::new`], plus [`ConvError::Unsupported`] when
    /// the host does not run `level` ([`wino_gemm::host_supports`]).
    pub fn new_at(filters: &Tensor4<f32>, level: SimdLevel) -> Result<Self, ConvError> {
        if !wino_gemm::host_supports(level) {
            return Err(ConvError::Unsupported(format!(
                "SIMD level {} is not supported on this host",
                level.name()
            )));
        }
        let (k, c, r, rw) = filters.dims();
        if r != rw {
            return Err(ConvError::Shape(format!(
                "filter planes {r}x{rw} are not square"
            )));
        }
        IM2COL_PACKS.add(1);
        // Filters are already contiguous in (K, C·r²) layout.
        Ok(Im2colFilters {
            a: PackedA::pack(filters.data(), 1, k, c * r * r, level, Runtime::global()),
            dims: (k, c, r),
        })
    }

    /// The dispatch level the bank was packed for.
    pub fn level(&self) -> SimdLevel {
        self.a.level()
    }

    /// [`conv_im2col`] from this bank, on the global runtime.
    ///
    /// # Errors
    /// [`ConvError::Shape`] when `input` or the bank disagree with
    /// `desc`.
    pub fn conv(&self, input: &Tensor4<f32>, desc: &ConvDesc) -> Result<Tensor4<f32>, ConvError> {
        self.conv_rt(input, desc, Runtime::global())
    }

    /// [`Im2colFilters::conv`] on an explicit runtime. Output bits
    /// depend on the bank's level alone: not on the thread count, and
    /// not on which images share a call.
    ///
    /// # Errors
    /// As [`Im2colFilters::conv`].
    pub fn conv_rt(
        &self,
        input: &Tensor4<f32>,
        desc: &ConvDesc,
        rt: &Runtime,
    ) -> Result<Tensor4<f32>, ConvError> {
        if input.dims() != (desc.batch, desc.in_ch, desc.in_h, desc.in_w) {
            return Err(ConvError::Shape(format!(
                "input dims {:?} do not match descriptor {desc}",
                input.dims()
            )));
        }
        if self.dims != (desc.out_ch, desc.in_ch, desc.ksz) {
            return Err(ConvError::Shape(format!(
                "packed filter bank {:?} does not match descriptor {desc}",
                self.dims
            )));
        }
        let mut conv_span = wino_probe::span("conv.im2col");
        conv_span.arg("desc", || desc.to_string());
        let (oh, ow) = (desc.out_h(), desc.out_w());
        let shape = BatchedGemmShape {
            batches: desc.batch,
            m: desc.out_ch,
            k: desc.in_ch * desc.ksz * desc.ksz,
            n: oh * ow,
        };
        let mut ws = Workspace::take();
        let gather_span = wino_probe::span("conv.im2col_gather");
        let nr = wino_gemm::tile_extents(self.level()).1;
        let need = shape.batches * wino_gemm::packed_b_len(shape.k, shape.n, nr);
        ws.fit(Buffer::V, need);
        let buf = std::mem::take(&mut ws.v);
        let mut cols = PackedB::recycled(buf, shape.batches, shape.k, shape.n, self.level());
        gather(input, desc, &cols.columns(), rt);
        drop(gather_span);
        // C (K × OH·OW) of image n lands directly in the output tensor:
        // planes (n, 0..K) are contiguous and of length OH·OW each. The
        // GEMM writes every element once, so nothing is zero-filled.
        let mut out = Vec::<f32>::with_capacity(shape.c_len());
        let gemm = GemmConfig::default();
        let gemm_span = wino_probe::span("conv.im2col_gemm");
        let c = &mut out.spare_capacity_mut()[..shape.c_len()];
        wino_gemm::batched_sgemm_packed_uninit(&shape, &self.a, &cols, c, &gemm, rt);
        // SAFETY: `batched_sgemm_packed_uninit` returned, so it wrote
        // all `c_len` elements.
        unsafe { out.set_len(shape.c_len()) };
        drop(gemm_span);
        ws.v = cols.into_raw();
        ws.put_back();
        Ok(Tensor4::from_raw(desc.batch, desc.out_ch, oh, ow, out))
    }
}

/// Writes every image's column matrix into `cols`, packed. A task owns
/// the `r` rows of one `(image, channel, filter row)` — all their
/// columns — and walks the input rows that filter row reads, top to
/// bottom: per output row and tap it stores the border's zeros and the
/// interior's input row segment, bounds settled once per tap, nothing
/// tested per element. Consecutive tasks read consecutive input.
///
/// Under a stride `s > 1` a tap reads every `s`-th float of its input
/// row, so the row is first split into its `s` phases (`phase[p][i] =
/// row[i·s + p]`, phase after phase): each tap's segment is then
/// contiguous in one phase, and the `r` taps share the one strided pass.
///
/// A 1×1 unit-stride unpadded convolution's column matrix is the input
/// image itself, each channel plane one row: it runs as a one-row
/// gather over the flattened plane, a task one whole-sliver copy of it.
fn gather(input: &Tensor4<f32>, desc: &ConvDesc, cols: &PackedBColumns<'_>, rt: &Runtime) {
    let (r, s, pad) = (desc.ksz, desc.stride, desc.pad);
    let (ih, iw, oh, ow) = if r == 1 && s == 1 && pad == 0 {
        (1, desc.in_h * desc.in_w, 1, desc.in_h * desc.in_w)
    } else {
        (desc.in_h, desc.in_w, desc.out_h(), desc.out_w())
    };
    let phase_len = iw.div_ceil(s).max(1);
    // Per tap `fx`, the output columns `lo .. hi` that read inside the
    // input row (pad ≤ ox·s + fx < iw + pad) and where the first one's
    // float sits: column `ox` reads `row[x]`, `x = ox·s + fx − pad` —
    // element `x / s` of phase `x % s`, the same phase for every `ox`.
    let taps: Vec<(usize, usize, usize)> = (0..r)
        .map(|fx| {
            let lo = pad.saturating_sub(fx).div_ceil(s).min(ow);
            let hi = (iw + pad).saturating_sub(fx).div_ceil(s).clamp(lo, ow);
            let x = (lo * s + fx).saturating_sub(pad);
            (lo, hi, x % s * phase_len + x / s)
        })
        .collect();
    rt.parallel_for_chunks(0..desc.batch * desc.in_ch * r, 1, |tasks| {
        let mut phases = vec![0.0f32; if s > 1 { s * phase_len } else { 0 }];
        for task in tasks {
            let (img, c, fy) = (task / (desc.in_ch * r), task / r % desc.in_ch, task % r);
            let plane = input.plane(img, c);
            for oy in 0..oh {
                let (y, col) = (oy * s + fy, oy * ow);
                let row = (pad..ih + pad)
                    .contains(&y)
                    .then(|| &plane[(y - pad) * iw..][..iw]);
                let row = match row {
                    Some(row) if s > 1 => {
                        for (p, phase) in phases.chunks_exact_mut(phase_len).enumerate() {
                            let every = row[p.min(iw)..].iter().step_by(s);
                            phase.iter_mut().zip(every).for_each(|(v, x)| *v = *x);
                        }
                        Some(&phases[..])
                    }
                    row => row,
                };
                for (fx, &(lo, hi, at)) in taps.iter().enumerate() {
                    let depth = (c * r + fy) * r + fx;
                    let (lo, hi, src) = match row {
                        Some(row) if lo < hi => (lo, hi, &row[at..][..hi - lo]),
                        _ => (ow, ow, &[][..]),
                    };
                    // SAFETY: this task alone writes rows `(c·r + fy)·r
                    // ..+ r` of matrix `img`, and the three runs are
                    // columns `col .. col + ow` of one of them.
                    unsafe {
                        cols.zero_run(img, depth, col, lo);
                        cols.write_run(img, depth, col + lo, src);
                        cols.zero_run(img, depth, col + hi, ow - hi);
                    }
                }
            }
        }
    });
}

/// im2col + SGEMM convolution: filters flatten to `(K, C·r²)`, patches
/// to `(C·r², OH·OW)`, and one GEMM per image produces `(K, OH·OW)`.
/// The cold convenience entry: it packs the filter bank, serves one
/// call from it, and drops it ([`Im2colFilters`] keeps it).
///
/// # Errors
/// [`ConvError::Shape`] when tensor dims disagree with `desc`.
pub fn conv_im2col(
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
) -> Result<Tensor4<f32>, ConvError> {
    Im2colFilters::new(filters)?.conv(input, desc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::conv_direct_f32;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: &Tensor4<f32>, b: &Tensor4<f32>) {
        assert_eq!(a.dims(), b.dims());
        for i in 0..a.len() {
            let (x, y) = (a.data()[i], b.data()[i]);
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()), "{x} vs {y} at {i}");
        }
    }

    fn random_case(desc: &ConvDesc, seed: u64) -> (Tensor4<f32>, Tensor4<f32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = desc;
        (
            Tensor4::random(d.batch, d.in_ch, d.in_h, d.in_w, -1.0, 1.0, &mut rng),
            Tensor4::random(d.out_ch, d.in_ch, d.ksz, d.ksz, -1.0, 1.0, &mut rng),
        )
    }

    #[test]
    fn matches_direct_same_padding() {
        let desc = ConvDesc::new(3, 1, 1, 4, 2, 6, 6, 3);
        let (input, filt) = random_case(&desc, 5);
        assert_close(
            &conv_im2col(&input, &filt, &desc).unwrap(),
            &conv_direct_f32(&input, &filt, &desc).unwrap(),
        );
    }

    #[test]
    fn matches_direct_strided_no_pad() {
        let desc = ConvDesc::new(5, 2, 0, 3, 1, 11, 9, 2);
        let (input, filt) = random_case(&desc, 6);
        assert_close(
            &conv_im2col(&input, &filt, &desc).unwrap(),
            &conv_direct_f32(&input, &filt, &desc).unwrap(),
        );
    }

    #[test]
    fn matches_direct_1x1() {
        let desc = ConvDesc::new(1, 1, 0, 8, 1, 4, 4, 16);
        let (input, filt) = random_case(&desc, 7);
        assert_close(
            &conv_im2col(&input, &filt, &desc).unwrap(),
            &conv_direct_f32(&input, &filt, &desc).unwrap(),
        );
    }

    #[test]
    fn im2col_layout() {
        // 1 channel, 2×2 input, 2×2 kernel, no pad: single output,
        // columns are the flattened patch.
        let desc = ConvDesc::new(2, 1, 0, 1, 1, 2, 2, 1);
        let input = Tensor4::<f32>::from_fn(1, 1, 2, 2, |_, _, y, x| (y * 2 + x + 1) as f32);
        let mut cols = vec![0.0f32; 4];
        im2col_image(&input, 0, &desc, &mut cols);
        assert_eq!(cols, vec![1.0, 2.0, 3.0, 4.0]);
    }

    /// The packed gather writes, per image, exactly the row-major
    /// reference packed whole — into a dirty recycled buffer, at both
    /// sliver widths, on one lane and on three.
    #[test]
    fn gather_is_the_row_major_reference_packed() {
        let d = ConvDesc::new;
        for desc in [
            // The plane-copy geometry: wider and narrower than a task.
            d(1, 1, 0, 2, 2, 13, 11, 5),
            d(1, 1, 0, 2, 1, 3, 3, 4),
            // 1×1s that must gather: padded, strided.
            d(1, 1, 1, 2, 2, 5, 4, 3),
            d(1, 2, 0, 2, 1, 7, 6, 3),
            // Borders on every side; stride past the kernel; a plane
            // smaller than the kernel; an output row wider than a task.
            d(3, 1, 1, 2, 2, 6, 5, 3),
            d(3, 2, 2, 2, 1, 9, 7, 2),
            d(2, 3, 0, 2, 1, 8, 8, 2),
            d(5, 1, 2, 2, 1, 3, 2, 2),
            d(11, 4, 0, 2, 1, 35, 27, 3),
            d(3, 1, 1, 1, 1, 2, 150, 1),
        ] {
            let (input, _) = random_case(&desc, 11);
            let (k, n) = (
                desc.in_ch * desc.ksz * desc.ksz,
                desc.out_h() * desc.out_w(),
            );
            let mut reference = vec![0.0f32; desc.batch * k * n];
            for (img, cols) in reference.chunks_exact_mut(k * n).enumerate() {
                im2col_image(&input, img, &desc, cols);
            }
            for level in wino_gemm::supported_levels() {
                let want = PackedB::pack(&reference, desc.batch, k, n, level, &Runtime::serial());
                for threads in [1, 3] {
                    let dirty = vec![f32::NAN; desc.batch * k * n + 7];
                    let mut got = PackedB::recycled(dirty, desc.batch, k, n, level);
                    gather(
                        &input,
                        &desc,
                        &got.columns(),
                        &Runtime::with_threads(threads),
                    );
                    for img in 0..desc.batch {
                        let same = got
                            .batch(img)
                            .iter()
                            .zip(want.batch(img))
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(same, "{desc} image {img} at {level:?}, {threads} lanes");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_calls_return_the_right_zeros() {
        // No image: an empty tensor of the right dims.
        let desc = ConvDesc::new(3, 1, 1, 4, 0, 6, 6, 3);
        let filt = Tensor4::<f32>::zeros(4, 3, 3, 3);
        let out = conv_im2col(&Tensor4::zeros(0, 3, 6, 6), &filt, &desc).unwrap();
        assert_eq!(out.dims(), (0, 4, 6, 6));
        // No channel (k = 0): every output is the empty sum.
        let desc = ConvDesc::new(1, 1, 0, 4, 2, 5, 5, 0);
        let filt = Tensor4::<f32>::zeros(4, 0, 1, 1);
        let out = conv_im2col(&Tensor4::zeros(2, 0, 5, 5), &filt, &desc).unwrap();
        assert_eq!(out.dims(), (2, 4, 5, 5));
        assert!(out.data().iter().all(|v| v.to_bits() == 0));
        // No filter: nothing to write.
        let desc = ConvDesc::new(1, 1, 0, 0, 1, 5, 5, 3);
        let filt = Tensor4::<f32>::zeros(0, 3, 1, 1);
        let out = conv_im2col(&Tensor4::zeros(1, 3, 5, 5), &filt, &desc).unwrap();
        assert_eq!(out.dims(), (1, 0, 5, 5));
    }

    #[test]
    fn shape_mismatch_detected() {
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 4, 4, 3);
        let input = Tensor4::<f32>::zeros(1, 2, 4, 4);
        let filt = Tensor4::<f32>::zeros(2, 3, 3, 3);
        assert!(conv_im2col(&input, &filt, &desc).is_err());
        // A bank packed for another layer is refused, not multiplied.
        let bank = Im2colFilters::new(&filt).unwrap();
        let other = ConvDesc::new(3, 1, 1, 2, 1, 4, 4, 2);
        assert!(bank.conv(&input, &other).is_err());
    }
}
