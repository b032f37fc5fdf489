//! Numeric guardrails: finite-scan and direct-conv spot-check.
//!
//! A Winograd engine that completes is not necessarily an engine that
//! computed the convolution: large-α transforms can overflow to ±Inf,
//! cancellation can produce NaN, and a mis-tuned recipe can return
//! numbers that are finite but wrong. The guardrails here are the
//! cheap, always-applicable subset of the paper's §4.1 accuracy
//! protocol:
//!
//! * [`scan_finite`] — O(len) sweep rejecting the first NaN/Inf;
//! * [`spot_check`] — recompute [`SPOT_SAMPLES`] output positions with
//!   the direct sliding-window formula (f64 accumulation) and reject if
//!   the relative error at any sampled position exceeds
//!   [`MAX_REL_ERR`].
//!
//! Both run after every engine attempt; there is no switch. The
//! spot-check recomputes *single output elements* — cost is
//! `samples × C × r²` multiply-adds, independent of output size — so
//! leaving it on costs little. The constants below are the guard's
//! only settings, each named once.

use wino_tensor::{ConvDesc, Tensor4};

/// What a guardrail found wrong with an output tensor.
#[derive(Clone, Debug, PartialEq)]
pub enum NumericFault {
    /// A NaN or ±Inf at flat index `index`.
    NonFinite {
        /// Flat index of the first offending element.
        index: usize,
        /// The offending value (as bits survive formatting).
        value: f32,
    },
    /// A sampled position disagreed with the direct reference.
    Inaccurate {
        /// Flat index of the worst sampled position.
        index: usize,
        /// Observed relative error at that position.
        rel_err: f64,
        /// The threshold that was exceeded ([`MAX_REL_ERR`]).
        max_rel_err: f64,
    },
}

impl std::fmt::Display for NumericFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NumericFault::NonFinite { index, value } => {
                write!(f, "non-finite value {value} at flat index {index}")
            }
            NumericFault::Inaccurate {
                index,
                rel_err,
                max_rel_err,
            } => write!(
                f,
                "relative error {rel_err:.3e} at flat index {index} exceeds {max_rel_err:.1e}"
            ),
        }
    }
}

/// Output positions [`spot_check`] recomputes per output tensor.
pub const SPOT_SAMPLES: usize = 8;

/// Largest relative error [`spot_check`] admits at a sampled position.
/// Loose on purpose: it admits every usable `m` from the paper's
/// Table 3 while rejecting the catastrophic blow-ups the check exists
/// for.
pub const MAX_REL_ERR: f64 = 5e-2;

/// Floor of the relative error's denominator, so that near-zero
/// reference values (common with symmetric test data) don't turn
/// rounding noise into false rejections.
pub const REL_ERR_FLOOR: f64 = 1e-3;

/// Rejects the first NaN or ±Inf in `data`.
pub fn scan_finite(data: &[f32]) -> Result<(), NumericFault> {
    // A chunk is folded whole — no exit inside it, so the loop
    // vectorises — and searched only if it failed.
    const CHUNK: usize = 256;
    for (chunk_no, chunk) in data.chunks(CHUNK).enumerate() {
        if chunk.iter().fold(false, |bad, v| bad | !v.is_finite()) {
            let at = chunk.iter().position(|v| !v.is_finite());
            let at = at.expect("the fold found a non-finite value in this chunk");
            return Err(NumericFault::NonFinite {
                index: chunk_no * CHUNK + at,
                value: chunk[at],
            });
        }
    }
    Ok(())
}

/// One output element of the direct convolution, accumulated in f64
/// in `(c, fy, fx)` order. Walks the in-bounds part of each window
/// row as a pair of slices; the per-tap indexing loop it replaced is
/// the test reference (same taps, same order, same bits).
fn direct_at(
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
    n: usize,
    k: usize,
    oy: usize,
    ox: usize,
) -> f64 {
    // The window's taps that land inside the image, per axis.
    let taps = |out: usize, extent: usize| {
        let base = (out * desc.stride) as isize - desc.pad as isize;
        let lo = (-base).clamp(0, desc.ksz as isize) as usize;
        let hi = (extent as isize - base).clamp(lo as isize, desc.ksz as isize) as usize;
        (base, lo, hi)
    };
    let (base_y, fy_lo, fy_hi) = taps(oy, desc.in_h);
    let (base_x, fx_lo, fx_hi) = taps(ox, desc.in_w);
    if fx_lo == fx_hi {
        return 0.0;
    }
    let x_lo = (base_x + fx_lo as isize) as usize;
    let (_, in_c, in_h, in_w) = input.dims();
    let (_, f_c, f_h, f_w) = filters.dims();
    let mut acc = 0.0f64;
    for c in 0..desc.in_ch {
        let plane = &input.data()[(n * in_c + c) * in_h * in_w..][..in_h * in_w];
        let window = &filters.data()[(k * f_c + c) * f_h * f_w..][..f_h * f_w];
        for fy in fy_lo..fy_hi {
            let y = (base_y + fy as isize) as usize;
            let row = &plane[y * in_w + x_lo..][..fx_hi - fx_lo];
            let weights = &window[fy * f_w + fx_lo..][..fx_hi - fx_lo];
            for (&a, &b) in row.iter().zip(weights) {
                acc += a as f64 * b as f64;
            }
        }
    }
    acc
}

/// Deterministic sample positions: a Weyl-style stride through the
/// flattened output. Knuth's multiplicative constant gives good
/// scatter without any RNG state.
fn sample_indices(total: usize, samples: usize) -> impl Iterator<Item = usize> {
    const STRIDE: usize = 2654435761;
    (0..samples).map(move |s| (s.wrapping_mul(STRIDE).wrapping_add(STRIDE / 2)) % total)
}

/// Spot-checks `output` against the direct formula at
/// [`SPOT_SAMPLES`] deterministic positions, rejecting a relative error
/// above [`MAX_REL_ERR`] (denominator floored at [`REL_ERR_FLOOR`]).
/// An empty output passes.
pub fn spot_check(
    output: &Tensor4<f32>,
    input: &Tensor4<f32>,
    filters: &Tensor4<f32>,
    desc: &ConvDesc,
) -> Result<(), NumericFault> {
    if output.is_empty() {
        return Ok(());
    }
    let (_, _, oh, ow) = output.dims();
    let total = output.len();
    for flat in sample_indices(total, SPOT_SAMPLES) {
        let ox = flat % ow;
        let oy = (flat / ow) % oh;
        let k = (flat / (ow * oh)) % desc.out_ch;
        let n = flat / (ow * oh * desc.out_ch);
        let reference = direct_at(input, filters, desc, n, k, oy, ox);
        let got = output[(n, k, oy, ox)] as f64;
        let rel_err = (got - reference).abs() / reference.abs().max(REL_ERR_FLOOR);
        if rel_err > MAX_REL_ERR {
            return Err(NumericFault::Inaccurate {
                index: flat,
                rel_err,
                max_rel_err: MAX_REL_ERR,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wino_conv::conv_direct_f32;

    fn fixture() -> (Tensor4<f32>, Tensor4<f32>, ConvDesc) {
        let desc = ConvDesc::new(3, 1, 1, 2, 1, 6, 6, 3);
        let input = Tensor4::from_fn(1, 3, 6, 6, |n, c, y, x| {
            ((n + 2 * c + 3 * y + 5 * x) % 7) as f32 * 0.25 - 0.5
        });
        let filters = Tensor4::from_fn(2, 3, 3, 3, |k, c, y, x| {
            ((k + c + y + 2 * x) % 5) as f32 * 0.125 - 0.25
        });
        (input, filters, desc)
    }

    /// The per-tap 4-D indexing loop `direct_at` replaced; its
    /// reference.
    fn direct_at_elementwise(
        input: &Tensor4<f32>,
        filters: &Tensor4<f32>,
        desc: &ConvDesc,
        (n, k, oy, ox): (usize, usize, usize, usize),
    ) -> f64 {
        let (ih, iw) = (desc.in_h as isize, desc.in_w as isize);
        let base_y = (oy * desc.stride) as isize - desc.pad as isize;
        let base_x = (ox * desc.stride) as isize - desc.pad as isize;
        let mut acc = 0.0f64;
        for c in 0..desc.in_ch {
            for fy in 0..desc.ksz {
                let y = base_y + fy as isize;
                if y < 0 || y >= ih {
                    continue;
                }
                for fx in 0..desc.ksz {
                    let x = base_x + fx as isize;
                    if x < 0 || x >= iw {
                        continue;
                    }
                    acc += input[(n, c, y as usize, x as usize)] as f64
                        * filters[(k, c, fy, fx)] as f64;
                }
            }
        }
        acc
    }

    #[test]
    fn direct_at_rows_match_the_tap_loop_bit_for_bit() {
        // (ksz, stride, pad, h, w): padded borders, a stride, a
        // window wider than the image, and no padding at all.
        for (ksz, stride, pad, h, w) in [
            (3, 1, 1, 6, 7),
            (5, 1, 2, 7, 6),
            (11, 4, 2, 23, 19),
            (3, 2, 0, 9, 9),
            (1, 1, 0, 4, 5),
            (7, 1, 3, 3, 4),
        ] {
            let desc = ConvDesc::new(ksz, stride, pad, 3, 2, h, w, 4);
            let input = Tensor4::from_fn(2, 4, h, w, |n, c, y, x| {
                ((n + 2 * c + 3 * y + 5 * x) % 11) as f32 * 0.37 - 1.9
            });
            let filters = Tensor4::from_fn(3, 4, ksz, ksz, |k, c, y, x| {
                ((3 * k + c + 2 * y + 7 * x) % 13) as f32 * 0.21 - 1.3
            });
            let (oh, ow) = (desc.out_h(), desc.out_w());
            for n in 0..2 {
                for k in 0..3 {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let want =
                                direct_at_elementwise(&input, &filters, &desc, (n, k, oy, ox));
                            let got = direct_at(&input, &filters, &desc, n, k, oy, ox);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "{ksz}/{stride}/{pad} on {h}x{w} at ({n}, {k}, {oy}, {ox})"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scan_accepts_finite_rejects_nan_and_inf() {
        assert!(scan_finite(&[0.0, -1.5, 3.0e8]).is_ok());
        let err = scan_finite(&[1.0, f32::NAN, 2.0]).unwrap_err();
        assert!(matches!(err, NumericFault::NonFinite { index: 1, .. }));
        let err = scan_finite(&[1.0, 2.0, f32::NEG_INFINITY]).unwrap_err();
        assert!(matches!(err, NumericFault::NonFinite { index: 2, .. }));
    }

    #[test]
    fn scan_reports_what_the_element_loop_reports() {
        // The loop the chunked scan replaced.
        let reference = |data: &[f32]| {
            let at = data.iter().position(|v| !v.is_finite());
            at.map(|index| (index, data[index].to_bits()))
        };
        let scan = |data: &[f32]| match scan_finite(data) {
            Err(NumericFault::NonFinite { index, value }) => Some((index, value.to_bits())),
            Err(other) => panic!("unexpected fault {other}"),
            Ok(()) => None,
        };
        // 700 floats: two whole chunks and a ragged third.
        let clean: Vec<f32> = (0..700).map(|i| i as f32 * 0.5 - 100.0).collect();
        assert_eq!(scan(&clean), None);
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for index in 0..clean.len() {
                let mut data = clean.clone();
                data[index] = bad;
                assert_eq!(scan(&data), Some((index, bad.to_bits())));
                // A second offender later on — in this chunk or another —
                // does not change which one is reported.
                data[(index + 1 + index % 300).min(699)] = f32::NAN;
                assert_eq!(scan(&data), reference(&data));
            }
        }
    }

    #[test]
    fn spot_check_accepts_the_true_output() {
        let (input, filters, desc) = fixture();
        let out = conv_direct_f32(&input, &filters, &desc).unwrap();
        spot_check(&out, &input, &filters, &desc).unwrap();
    }

    #[test]
    fn spot_check_rejects_a_corrupted_output() {
        let (input, filters, desc) = fixture();
        let mut out = conv_direct_f32(&input, &filters, &desc).unwrap();
        // Corrupt every element so any sample set catches it.
        for v in out.data_mut() {
            *v += 100.0;
        }
        let err = spot_check(&out, &input, &filters, &desc).unwrap_err();
        assert!(matches!(err, NumericFault::Inaccurate { .. }));
    }

    #[test]
    fn sample_positions_are_deterministic_and_in_range() {
        let a: Vec<usize> = sample_indices(1000, 8).collect();
        let b: Vec<usize> = sample_indices(1000, 8).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|&i| i < 1000));
    }
}
