//! The dense NCHW tensor type.

use std::fmt;
use std::mem::MaybeUninit;
use std::ops::{Index, IndexMut};

use rand::distributions::uniform::SampleUniform;
use rand::Rng;

/// A dense 4-D tensor in `N × C × H × W` (row-major, `W` innermost)
/// layout — the layout Boda's CUCL kernels use (`img:chan:y:x`).
#[derive(Clone, PartialEq)]
pub struct Tensor4<T> {
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    data: Vec<T>,
}

impl<T: Copy + Default> Tensor4<T> {
    /// All-zeros (default-valued) tensor.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        Tensor4 {
            n,
            c,
            h,
            w,
            data: vec![T::default(); n * c * h * w],
        }
    }

    /// Builds a tensor from a generator over `(n, c, y, x)`.
    pub fn from_fn(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        mut f: impl FnMut(usize, usize, usize, usize) -> T,
    ) -> Self {
        let mut t = Tensor4::zeros(n, c, h, w);
        for in_ in 0..n {
            for ic in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        t[(in_, ic, y, x)] = f(in_, ic, y, x);
                    }
                }
            }
        }
        t
    }

    /// Batch size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Channel count.
    pub fn c(&self) -> usize {
        self.c
    }

    /// Height.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Width.
    pub fn w(&self) -> usize {
        self.w
    }

    /// `(n, c, h, w)` tuple.
    pub fn dims(&self) -> (usize, usize, usize, usize) {
        (self.n, self.c, self.h, self.w)
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` for zero-element tensors.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Wraps an existing flat buffer as an `N × C × H × W` tensor
    /// without copying. The buffer's spare capacity is preserved, so a
    /// slab recycled through [`Tensor4::into_raw`] round-trips with no
    /// reallocation as long as its capacity covers the new shape.
    ///
    /// # Panics
    /// When `data.len() != n * c * h * w`.
    pub fn from_raw(n: usize, c: usize, h: usize, w: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            n * c * h * w,
            "raw buffer length must equal n*c*h*w"
        );
        Tensor4 { n, c, h, w, data }
    }

    /// Consumes the tensor, returning its flat buffer (capacity
    /// intact) for reuse via [`Tensor4::from_raw`].
    pub fn into_raw(self) -> Vec<T> {
        self.data
    }

    /// Flat index of `(n, c, y, x)`.
    #[inline]
    pub fn offset(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        ((n * self.c + c) * self.h + y) * self.w + x
    }

    /// Borrow of the contiguous `(n, c)` plane (`h*w` elements).
    pub fn plane(&self, n: usize, c: usize) -> &[T] {
        let start = self.offset(n, c, 0, 0);
        &self.data[start..start + self.h * self.w]
    }

    /// Mutable borrow of the contiguous `(n, c)` plane.
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [T] {
        let start = self.offset(n, c, 0, 0);
        let len = self.h * self.w;
        &mut self.data[start..start + len]
    }

    /// Element-wise map into a (possibly different) scalar type.
    pub fn map<U: Copy + Default>(&self, f: impl Fn(T) -> U) -> Tensor4<U> {
        Tensor4 {
            n: self.n,
            c: self.c,
            h: self.h,
            w: self.w,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Spatially zero-pads by `pad` on every side of H and W.
    pub fn pad_spatial(&self, pad: usize) -> Tensor4<T> {
        self.pad_to(pad, self.h + 2 * pad, self.w + 2 * pad)
    }

    /// Zero-pads every plane to `out_h × out_w` with the content at
    /// `(pad, pad)`: `pad` rows and columns of zeros above and to the
    /// left, whatever is left of the extent below and to the right.
    /// The Winograd engines pad to whole tiles this way, so a border
    /// tile reads zeros instead of testing each element.
    ///
    /// # Panics
    /// When the content does not fit: `out_h < h + pad` or
    /// `out_w < w + pad`.
    pub fn pad_to(&self, pad: usize, out_h: usize, out_w: usize) -> Tensor4<T> {
        self.pad_into(pad, out_h, out_w, Vec::new())
    }

    /// [`Tensor4::pad_to`] built in `buf` — its contents are discarded
    /// unread, its capacity reused, or grown to exactly what is needed —
    /// so a caller that pads per call ([`Tensor4::into_raw`] gives the
    /// buffer back) allocates only when a call outgrows every earlier
    /// one. Every element is written once ([`pad_plane`]): the border's
    /// zeros and the content, nothing zero-filled first.
    ///
    /// # Panics
    /// As [`Tensor4::pad_to`].
    pub fn pad_into(&self, pad: usize, out_h: usize, out_w: usize, mut buf: Vec<T>) -> Tensor4<T> {
        assert!(
            out_h >= self.h + pad && out_w >= self.w + pad,
            "{}x{} content at ({pad}, {pad}) does not fit {out_h}x{out_w}",
            self.h,
            self.w
        );
        let (planes, plane) = (self.n * self.c, out_h * out_w);
        let len = planes * plane;
        buf.clear();
        buf.reserve_exact(len);
        let dst = &mut buf.spare_capacity_mut()[..len];
        for (i, dst) in dst.chunks_exact_mut(plane.max(1)).enumerate() {
            pad_plane(self.plane_at(i), (self.h, self.w), pad, out_w, dst);
        }
        // SAFETY: `pad_plane` wrote all `plane` elements of each of the
        // `planes` chunks (none when `plane` is 0), so the first `len`
        // elements are initialised.
        unsafe { buf.set_len(len) };
        Tensor4::from_raw(self.n, self.c, out_h, out_w, buf)
    }

    /// The `i`-th `h × w` plane in storage order (`i = n·C + c`).
    pub fn plane_at(&self, i: usize) -> &[T] {
        let len = self.h * self.w;
        &self.data[i * len..][..len]
    }
}

/// Writes one `out_h × out_w` plane of [`Tensor4::pad_to`] into `dst`
/// (`out_h = dst.len() / out_w`): the `h × w` plane `src` at
/// `(pad, pad)`, zeros everywhere else. Each element of `dst` is
/// written exactly once and none is read, so `dst` may be memory no
/// value has been stored in yet — a buffer's spare capacity.
///
/// # Panics
/// When the content does not fit the plane, or `src` is shorter than
/// `h · w`.
pub fn pad_plane<T: Copy + Default>(
    src: &[T],
    (h, w): (usize, usize),
    pad: usize,
    out_w: usize,
    dst: &mut [MaybeUninit<T>],
) {
    let zero = MaybeUninit::new(T::default());
    if h * w == 0 {
        dst.fill(zero);
        return;
    }
    assert!(
        out_w >= w + pad && dst.len() >= (h + pad) * out_w,
        "{h}x{w} content at ({pad}, {pad}) does not fit a {}-wide plane of {} elements",
        out_w,
        dst.len()
    );
    let (top, rest) = dst.split_at_mut(pad * out_w);
    let (body, bottom) = rest.split_at_mut(h * out_w);
    top.fill(zero);
    for (row, src_row) in body
        .chunks_exact_mut(out_w)
        .zip(src[..h * w].chunks_exact(w))
    {
        let (left, rest) = row.split_at_mut(pad);
        let (content, right) = rest.split_at_mut(w);
        left.fill(zero);
        for (d, &v) in content.iter_mut().zip(src_row) {
            d.write(v);
        }
        right.fill(zero);
    }
    bottom.fill(zero);
}

impl<T: Copy + Default + SampleUniform + PartialOrd> Tensor4<T> {
    /// Fills with uniform random values in `[lo, hi)` — the paper's
    /// protocol uses the range (−1, 1).
    pub fn random(
        n: usize,
        c: usize,
        h: usize,
        w: usize,
        lo: T,
        hi: T,
        rng: &mut impl Rng,
    ) -> Self {
        let mut t = Tensor4::zeros(n, c, h, w);
        for v in t.data.iter_mut() {
            *v = rng.gen_range(lo..hi);
        }
        t
    }
}

impl Tensor4<f32> {
    /// Widens to f64 (for FP64 reference computations).
    pub fn to_f64(&self) -> Tensor4<f64> {
        self.map(|v| v as f64)
    }
}

impl Tensor4<f64> {
    /// Narrows to f32.
    pub fn to_f32(&self) -> Tensor4<f32> {
        self.map(|v| v as f32)
    }
}

impl<T> Index<(usize, usize, usize, usize)> for Tensor4<T> {
    type Output = T;
    #[inline]
    fn index(&self, (n, c, y, x): (usize, usize, usize, usize)) -> &T {
        debug_assert!(n < self.n && c < self.c && y < self.h && x < self.w);
        &self.data[((n * self.c + c) * self.h + y) * self.w + x]
    }
}

impl<T> IndexMut<(usize, usize, usize, usize)> for Tensor4<T> {
    #[inline]
    fn index_mut(&mut self, (n, c, y, x): (usize, usize, usize, usize)) -> &mut T {
        debug_assert!(n < self.n && c < self.c && y < self.h && x < self.w);
        &mut self.data[((n * self.c + c) * self.h + y) * self.w + x]
    }
}

impl<T: fmt::Debug> fmt::Debug for Tensor4<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor4<{}x{}x{}x{}>", self.n, self.c, self.h, self.w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn layout_is_nchw_row_major() {
        let t = Tensor4::<f32>::from_fn(2, 3, 4, 5, |n, c, y, x| {
            (n * 1000 + c * 100 + y * 10 + x) as f32
        });
        assert_eq!(t.offset(1, 2, 3, 4), ((3 + 2) * 4 + 3) * 5 + 4);
        assert_eq!(t[(1, 2, 3, 4)], 1234.0);
        assert_eq!(t.data()[t.offset(0, 1, 2, 3)], 123.0);
    }

    #[test]
    fn plane_is_contiguous() {
        let t =
            Tensor4::<f32>::from_fn(2, 2, 2, 2, |n, c, y, x| (n * 8 + c * 4 + y * 2 + x) as f32);
        assert_eq!(t.plane(1, 0), &[8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn pad_spatial_centers_content() {
        let t = Tensor4::<f32>::from_fn(1, 1, 2, 2, |_, _, y, x| (y * 2 + x + 1) as f32);
        let p = t.pad_spatial(1);
        assert_eq!(p.dims(), (1, 1, 4, 4));
        assert_eq!(p[(0, 0, 0, 0)], 0.0);
        assert_eq!(p[(0, 0, 1, 1)], 1.0);
        assert_eq!(p[(0, 0, 2, 2)], 4.0);
        assert_eq!(p[(0, 0, 3, 3)], 0.0);
    }

    #[test]
    fn pad_to_places_content_and_zero_fills_the_rest() {
        let t = Tensor4::<f32>::from_fn(2, 2, 2, 3, |n, c, y, x| {
            (n * 100 + c * 10 + y * 3 + x + 1) as f32
        });
        // Uneven extents: one row/column of padding before the content,
        // three rows and two columns after it.
        let p = t.pad_to(1, 6, 6);
        assert_eq!(p.dims(), (2, 2, 6, 6));
        for (n, c, y, x) in (0..2 * 2 * 6 * 6).map(|i| (i / 72, i / 36 % 2, i / 6 % 6, i % 6)) {
            let inside = (1..3).contains(&y) && (1..4).contains(&x);
            let want = if inside { t[(n, c, y - 1, x - 1)] } else { 0.0 };
            assert_eq!(p[(n, c, y, x)], want, "({n}, {c}, {y}, {x})");
        }
        // A recycled buffer, dirty and of another length, changes nothing
        // and is the one the result lives in.
        let dirty = vec![7.0f32; 500];
        let at = dirty.as_ptr();
        let q = t.pad_into(1, 6, 6, dirty);
        assert_eq!(q, p);
        assert_eq!(q.data().as_ptr(), at);
        // So does a NaN-dirty one of the right capacity: the border is
        // written, not assumed zero.
        let mut nan = vec![f32::NAN; 2 * 2 * 6 * 6];
        nan.clear();
        assert_eq!(t.pad_into(1, 6, 6, nan), p);
        let nan = vec![f32::NAN; 2 * 2 * 6 * 6];
        assert_eq!(t.pad_into(1, 6, 6, nan), p);
        // A zero-area tensor pads to all zeros.
        let empty = Tensor4::<f32>::zeros(1, 1, 0, 0);
        assert_eq!(empty.pad_to(2, 4, 4), Tensor4::zeros(1, 1, 4, 4));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn pad_to_rejects_an_extent_the_content_overflows() {
        Tensor4::<f32>::zeros(1, 1, 4, 4).pad_to(1, 4, 6);
    }

    #[test]
    fn random_respects_range() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = Tensor4::<f32>::random(1, 2, 8, 8, -1.0, 1.0, &mut rng);
        assert!(t.data().iter().all(|&v| (-1.0..1.0).contains(&v)));
        // A 128-element uniform sample is essentially never constant.
        assert!(t.data().iter().any(|&v| v != t.data()[0]));
    }

    #[test]
    fn widen_narrow_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = Tensor4::<f32>::random(1, 1, 4, 4, -1.0, 1.0, &mut rng);
        assert_eq!(t.to_f64().to_f32(), t);
    }

    #[test]
    fn map_changes_type() {
        let t = Tensor4::<f32>::from_fn(1, 1, 1, 3, |_, _, _, x| x as f32);
        let d = t.map(|v| (v * 2.0) as f64);
        assert_eq!(d[(0, 0, 0, 2)], 4.0);
    }
}
