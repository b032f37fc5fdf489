//! Convolution shape descriptors and FLOP accounting.

use std::fmt;

/// Full description of one 2-D convolution operation, matching the
/// columns of Table 4 in the paper (KSZ, S, P, OC, B, in).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConvDesc {
    /// Batch size `B`.
    pub batch: usize,
    /// Input channels `C`.
    pub in_ch: usize,
    /// Output channels `OC` (filter count `K`).
    pub out_ch: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size `KSZ` (`r`).
    pub ksz: usize,
    /// Stride `S`.
    pub stride: usize,
    /// Symmetric zero padding `P`.
    pub pad: usize,
}

impl ConvDesc {
    /// Convenience constructor in Table-4 column order:
    /// `(ksz, stride, pad, out_ch, batch, in_h, in_w, in_ch)`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ksz: usize,
        stride: usize,
        pad: usize,
        out_ch: usize,
        batch: usize,
        in_h: usize,
        in_w: usize,
        in_ch: usize,
    ) -> Self {
        ConvDesc {
            batch,
            in_ch,
            out_ch,
            in_h,
            in_w,
            ksz,
            stride,
            pad,
        }
    }

    /// Output height `⌊(H + 2P − KSZ)/S⌋ + 1`.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.ksz) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.ksz) / self.stride + 1
    }

    /// FLOP count (each multiply-accumulate = 2 FLOPs), the metric the
    /// paper sorts its 31 benchmark convolutions by.
    pub fn flops(&self) -> u64 {
        2 * self.batch as u64
            * self.out_ch as u64
            * self.out_h() as u64
            * self.out_w() as u64
            * self.in_ch as u64
            * (self.ksz * self.ksz) as u64
    }

    /// Returns `true` when a Winograd convolution is applicable:
    /// unit stride (tiles would not overlap consistently otherwise).
    pub fn winograd_applicable(&self) -> bool {
        self.stride == 1 && self.ksz >= 2
    }

    /// Bytes of the f32 filter tensor.
    pub fn filter_bytes(&self) -> u64 {
        4 * (self.out_ch * self.in_ch * self.ksz * self.ksz) as u64
    }

    /// Bytes of the f32 output tensor.
    pub fn output_bytes(&self) -> u64 {
        4 * (self.batch * self.out_ch * self.out_h() * self.out_w()) as u64
    }
}

impl fmt::Display for ConvDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conv{}x{} s{} p{} {}x{}x{}→{} B{}",
            self.ksz,
            self.ksz,
            self.stride,
            self.pad,
            self.in_h,
            self.in_w,
            self.in_ch,
            self.out_ch,
            self.batch
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_dims_same_padding() {
        // 3×3, stride 1, pad 1 preserves spatial dims.
        let d = ConvDesc::new(3, 1, 1, 256, 1, 14, 14, 128);
        assert_eq!(d.out_h(), 14);
        assert_eq!(d.out_w(), 14);
    }

    #[test]
    fn flops_match_table4_first_rows() {
        // Table 4 row: 1.16e+08 | 3 1 1 | 256 | 1 | 14×14×128
        let d = ConvDesc::new(3, 1, 1, 256, 1, 14, 14, 128);
        assert_eq!(d.flops(), 115_605_504); // rounds to 1.16e8
                                            // Table 4 row: 1e+08 | 5 1 2 | 32 | 5 | 28×28×16
        let d = ConvDesc::new(5, 1, 2, 32, 5, 28, 28, 16);
        assert!((d.flops() as f64 - 1.0e8).abs() / 1.0e8 < 0.01);
    }

    #[test]
    fn strided_output() {
        let d = ConvDesc::new(3, 2, 1, 8, 1, 15, 15, 4);
        assert_eq!(d.out_h(), 8);
        assert!(!d.winograd_applicable());
    }

    #[test]
    fn byte_accounting() {
        let d = ConvDesc::new(3, 1, 1, 2, 1, 4, 4, 3);
        assert_eq!(d.filter_bytes(), 4 * 54);
        assert_eq!(d.output_bytes(), 4 * 32);
    }
}
