//! # wino-tensor — NCHW tensors for the convolution engines
//!
//! A minimal dense 4-D tensor in the `N × C × H × W` layout every
//! engine in this workspace uses, plus the tiling, padding and norm
//! helpers the Winograd pipeline needs: input tiles of size `α × α`
//! are extracted with stride `m` (neighbouring tiles overlap by
//! `r − 1` elements, §2.1.1 of the paper), and accuracy is reported
//! with the paper's L1 matrix norm.

#![warn(missing_docs)]

mod shape;
mod tensor;
mod tiling;

pub use shape::ConvDesc;
pub use tensor::{pad_plane, Tensor4};
pub use tiling::{extract_input_tile, place_output_tile, place_output_tile_into, tile_counts};

/// The paper's L1 matrix norm — maximum absolute column sum — extended
/// to NCHW tensors by treating every `(n, c)` plane as an `H × W`
/// matrix and taking the maximum over all planes.
pub fn l1_norm_nchw(t: &Tensor4<f64>) -> f64 {
    let mut best = 0.0f64;
    for n in 0..t.n() {
        for c in 0..t.c() {
            for x in 0..t.w() {
                let mut col = 0.0;
                for y in 0..t.h() {
                    col += t[(n, c, y, x)].abs();
                }
                best = best.max(col);
            }
        }
    }
    best
}

/// Relative error `‖a − b‖₁ / ‖b‖₁` between two same-shaped tensors
/// (`b` is the reference). Returns 0 when the reference is identically
/// zero and the difference is too; +∞ when only the reference is zero.
pub fn relative_error_l1(a: &Tensor4<f64>, b: &Tensor4<f64>) -> f64 {
    assert_eq!(a.dims(), b.dims(), "relative error requires equal shapes");
    let mut diff = Tensor4::<f64>::zeros(a.n(), a.c(), a.h(), a.w());
    for i in 0..a.len() {
        diff.data_mut()[i] = a.data()[i] - b.data()[i];
    }
    let denom = l1_norm_nchw(b);
    let numer = l1_norm_nchw(&diff);
    if denom == 0.0 {
        if numer == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        numer / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_norm_single_plane() {
        let mut t = Tensor4::<f64>::zeros(1, 1, 2, 2);
        t[(0, 0, 0, 0)] = 1.0;
        t[(0, 0, 1, 0)] = -3.0;
        t[(0, 0, 0, 1)] = 2.0;
        t[(0, 0, 1, 1)] = 1.0;
        assert_eq!(l1_norm_nchw(&t), 4.0); // column 0: |1| + |−3|
    }

    #[test]
    fn l1_norm_takes_max_over_planes() {
        let mut t = Tensor4::<f64>::zeros(2, 1, 1, 1);
        t[(0, 0, 0, 0)] = 2.0;
        t[(1, 0, 0, 0)] = -7.0;
        assert_eq!(l1_norm_nchw(&t), 7.0);
    }

    #[test]
    fn relative_error_basics() {
        let mut a = Tensor4::<f64>::zeros(1, 1, 1, 2);
        let mut b = Tensor4::<f64>::zeros(1, 1, 1, 2);
        b[(0, 0, 0, 0)] = 2.0;
        b[(0, 0, 0, 1)] = 4.0;
        a[(0, 0, 0, 0)] = 2.0;
        a[(0, 0, 0, 1)] = 4.4;
        let err = relative_error_l1(&a, &b);
        assert!((err - 0.1).abs() < 1e-12);
        assert_eq!(relative_error_l1(&b, &b), 0.0);
    }

    #[test]
    fn relative_error_zero_reference() {
        let z = Tensor4::<f64>::zeros(1, 1, 1, 1);
        let mut a = Tensor4::<f64>::zeros(1, 1, 1, 1);
        assert_eq!(relative_error_l1(&a, &z), 0.0);
        a[(0, 0, 0, 0)] = 1.0;
        assert_eq!(relative_error_l1(&a, &z), f64::INFINITY);
    }
}
