//! A minimal dense `f32` tensor: row-major contiguous storage with shape
//! metadata — just enough to run and train the paper's miniature DNNs.

use crate::gemm;
use crate::par;
use crate::rng::Rng;
use std::fmt;

/// Square tile edge for the blocked transpose: 32×32 f32 tiles (4 KiB for
/// the source walk plus 4 KiB for the destination walk) sit comfortably in
/// L1 while keeping both access patterns within-tile sequential.
const TRANSPOSE_TILE: usize = 32;

/// Dense row-major `f32` tensor.
///
/// # Examples
///
/// ```
/// use mersit_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// All-zeros tensor of the given shape.
    #[must_use]
    pub fn zeros(shape: &[usize]) -> Self {
        Self {
            data: vec![0.0; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Constant-filled tensor.
    #[must_use]
    pub fn full(shape: &[usize], v: f32) -> Self {
        Self {
            data: vec![v; shape.iter().product()],
            shape: shape.to_vec(),
        }
    }

    /// Builds a tensor from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    #[must_use]
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "shape {shape:?} does not match {} elements",
            data.len()
        );
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Normal(0, `std`) initialized tensor.
    #[must_use]
    pub fn randn(shape: &[usize], std: f32, rng: &mut Rng) -> Self {
        let n = shape.iter().product();
        let data = (0..n).map(|_| rng.normal() as f32 * std).collect();
        Self {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Kaiming/He initialization for a layer with `fan_in` inputs.
    #[must_use]
    pub fn kaiming(shape: &[usize], fan_in: usize, rng: &mut Rng) -> Self {
        let std = (2.0 / fan_in.max(1) as f32).sqrt();
        Self::randn(shape, std, rng)
    }

    /// Shape of the tensor.
    #[must_use]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable data view.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable data view.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reinterprets the tensor with a new shape of equal volume.
    ///
    /// # Panics
    ///
    /// Panics if the volumes differ.
    #[must_use]
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "cannot reshape {:?} to {shape:?}",
            self.shape
        );
        self.shape = shape.to_vec();
        self
    }

    /// Flat offset of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds index.
    #[must_use]
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.len(), "rank mismatch");
        let mut off = 0;
        for (i, (&x, &d)) in idx.iter().zip(self.shape.iter()).enumerate() {
            assert!(x < d, "index {x} out of bounds for dim {i} (size {d})");
            off = off * d + x;
        }
        off
    }

    /// Element at a multi-dimensional index.
    #[must_use]
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Mutable element at a multi-dimensional index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut f32 {
        let o = self.offset(idx);
        &mut self.data[o]
    }

    /// Elementwise map into a new tensor.
    ///
    /// Large tensors are mapped on multiple threads (see [`crate::par`]);
    /// elements are independent, so the result is identical for any thread
    /// count.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Self {
        let mut out = vec![0.0f32; self.data.len()];
        let src = &self.data;
        par::par_chunks_mut(&mut out, 1, par::min_units(4), |first, chunk| {
            let src = &src[first..first + chunk.len()];
            for (o, &x) in chunk.iter_mut().zip(src) {
                *o = f(x);
            }
        });
        Self {
            data: out,
            shape: self.shape.clone(),
        }
    }

    /// In-place elementwise map (multi-threaded for large tensors).
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        par::par_chunks_mut(&mut self.data, 1, par::min_units(4), |_, chunk| {
            for x in chunk {
                *x = f(*x);
            }
        });
    }

    /// Elementwise combination of two equally shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    #[must_use]
    pub fn zip(&self, other: &Self, f: impl Fn(f32, f32) -> f32) -> Self {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        Self {
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            shape: self.shape.clone(),
        }
    }

    /// `self + other`.
    #[must_use]
    pub fn add(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a + b)
    }

    /// `self − other`.
    #[must_use]
    pub fn sub(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a - b)
    }

    /// Elementwise product.
    #[must_use]
    pub fn mul(&self, other: &Self) -> Self {
        self.zip(other, |a, b| a * b)
    }

    /// Scales by a constant.
    #[must_use]
    pub fn scale(&self, s: f32) -> Self {
        self.map(|x| x * s)
    }

    /// In-place `self += alpha · other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f32, other: &Self) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum absolute value (0 for empty tensors).
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0, |m, &x| m.max(x.abs()))
    }

    /// Root-mean-square of the elements.
    #[must_use]
    pub fn rms(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            (self.data.iter().map(|&x| x * x).sum::<f32>() / self.data.len() as f32).sqrt()
        }
    }

    /// Matrix product of two rank-2 tensors: `[m,k] × [k,n] → [m,n]`.
    ///
    /// Large products pack the rhs into cache-blocked panels
    /// ([`crate::gemm::PackedRhs`]) and run the register-blocked kernel;
    /// small row counts keep the direct i-k-j loop (packing is not
    /// amortized). Both paths accumulate each output element in the same
    /// ascending-k order, so the result is bit-identical for every shape,
    /// path, and thread count.
    ///
    /// # Panics
    ///
    /// Panics unless both tensors are rank 2 with matching inner dims.
    #[must_use]
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (other.shape[0], other.shape[1]);
        assert_eq!(k, k2, "inner dimension mismatch: {k} vs {k2}");
        if m < gemm::PACK_MIN_ROWS {
            let mut out = vec![0.0f32; m * n];
            let lhs = &self.data;
            let rhs = &other.data;
            if n > 0 {
                par::par_chunks_mut(&mut out, n, par::min_units(2 * k * n), |i0, chunk| {
                    let rows = chunk.len() / n;
                    gemm::matmul_naive_rows(&lhs[i0 * k..(i0 + rows) * k], k, rhs, n, chunk);
                });
            }
            return Self {
                data: out,
                shape: vec![m, n],
            };
        }
        let packed = gemm::PackedRhs::pack(&other.data, k, n);
        self.matmul_packed(&packed)
    }

    /// Matrix product against a pre-packed rhs: `[m,k] × packed[k,n] →
    /// [m,n]`. Pack weight matrices once (e.g. per `QuantPlan` format)
    /// and reuse across samples. Bit-identical to [`Self::matmul`] on
    /// the unpacked rhs.
    ///
    /// # Panics
    ///
    /// Panics unless `self` is rank 2 with inner dim `packed.k()`.
    #[must_use]
    pub fn matmul_packed(&self, packed: &gemm::PackedRhs) -> Self {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let n = packed.n();
        assert_eq!(
            k,
            packed.k(),
            "inner dimension mismatch: {k} vs {}",
            packed.k()
        );
        let mut out = vec![0.0f32; m * n];
        // Output rows are independent; the shared row-parallel kernel
        // splits them into stealable chunks, and each row accumulates in
        // the same k order regardless of the split, keeping results
        // bit-identical for any thread count.
        gemm::gemm_rows_par(&self.data, k, packed, &mut out);
        Self {
            data: out,
            shape: vec![m, n],
        }
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics unless the tensor is rank 2.
    #[must_use]
    pub fn transpose(&self) -> Self {
        assert_eq!(self.shape.len(), 2, "transpose needs rank 2");
        let (m, n) = (self.shape[0], self.shape[1]);
        let mut out = vec![0.0f32; m * n];
        // Walk the matrix in square tiles so both the row-major reads and
        // the column-major writes stay within one cache-resident tile,
        // instead of striding the full destination every element.
        for ib in (0..m).step_by(TRANSPOSE_TILE) {
            let iend = (ib + TRANSPOSE_TILE).min(m);
            for jb in (0..n).step_by(TRANSPOSE_TILE) {
                let jend = (jb + TRANSPOSE_TILE).min(n);
                for i in ib..iend {
                    for j in jb..jend {
                        out[j * m + i] = self.data[i * n + j];
                    }
                }
            }
        }
        Self {
            data: out,
            shape: vec![n, m],
        }
    }

    /// Extracts rows `[lo, hi)` of the outermost dimension.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    #[must_use]
    pub fn slice_outer(&self, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= self.shape[0], "bad outer slice");
        let inner: usize = self.shape[1..].iter().product();
        let mut shape = self.shape.clone();
        shape[0] = hi - lo;
        Self {
            data: self.data[lo * inner..hi * inner].to_vec(),
            shape,
        }
    }

    /// Concatenates along the outermost dimension. Allocates the result
    /// exactly once (the serving batcher coalesces requests through this
    /// on every flush, so no growth reallocations on the hot path).
    ///
    /// # Panics
    ///
    /// Panics if inner shapes differ.
    #[must_use]
    pub fn cat_outer(parts: &[&Self]) -> Self {
        assert!(!parts.is_empty(), "cat of nothing");
        let inner = &parts[0].shape[1..];
        let mut data = Vec::with_capacity(parts.iter().map(|p| p.data.len()).sum());
        let mut outer = 0;
        for p in parts {
            assert_eq!(&p.shape[1..], inner, "inner shape mismatch");
            outer += p.shape[0];
            data.extend_from_slice(&p.data);
        }
        let mut shape = Vec::with_capacity(1 + inner.len());
        shape.push(outer);
        shape.extend_from_slice(inner);
        Self { data, shape }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Tensor{:?} (n={}, rms={:.4}, max|x|={:.4})",
            self.shape,
            self.len(),
            self.rms(),
            self.max_abs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        assert_eq!(t.at(&[0, 2]), 3.0);
        assert_eq!(t.at(&[1, 0]), 4.0);
        let mut t = t;
        *t.at_mut(&[1, 2]) = 9.0;
        assert_eq!(t.at(&[1, 2]), 9.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.at(&[0, 2]);
    }

    #[test]
    fn matmul_reference() {
        let a = Tensor::from_vec(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = Tensor::from_vec(vec![7., 8., 9., 10., 11., 12.], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_matches_naive_random() {
        let mut rng = Rng::new(5);
        let a = Tensor::randn(&[7, 11], 1.0, &mut rng);
        let b = Tensor::randn(&[11, 5], 1.0, &mut rng);
        let c = a.matmul(&b);
        for i in 0..7 {
            for j in 0..5 {
                let mut s = 0.0;
                for k in 0..11 {
                    s += a.at(&[i, k]) * b.at(&[k, j]);
                }
                assert!((c.at(&[i, j]) - s).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn matmul_zero_inputs_give_exact_zeros() {
        // The accumulator is branch-free now (no `a == 0.0` skip); a zero
        // operand must still produce bit-exact +0.0 everywhere.
        let mut rng = Rng::new(17);
        let z = Tensor::zeros(&[9, 13]);
        let b = Tensor::randn(&[13, 6], 1.0, &mut rng);
        for &v in z.matmul(&b).data() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
        let a = Tensor::randn(&[9, 13], 1.0, &mut rng);
        let zb = Tensor::zeros(&[13, 6]);
        for &v in a.matmul(&zb).data() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn matmul_bit_exact_vs_serial_reference() {
        // Re-derive each output element with the same i-k-j accumulation
        // order the kernel uses; the parallel split must not change a bit.
        let mut rng = Rng::new(23);
        let (m, k, n) = (33, 17, 29);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let c = a.matmul(&b);
        let mut want = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a.at(&[i, kk]);
                for j in 0..n {
                    want[i * n + j] += av * b.at(&[kk, j]);
                }
            }
        }
        for (got, want) in c.data().iter().zip(&want) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn transpose_blocked_matches_naive() {
        // Shapes chosen to exercise full tiles, ragged edges, and the
        // degenerate thin cases.
        let mut rng = Rng::new(31);
        for &(m, n) in &[(1, 1), (1, 70), (70, 1), (32, 32), (33, 65), (100, 37)] {
            let a = Tensor::randn(&[m, n], 1.0, &mut rng);
            let t = a.transpose();
            assert_eq!(t.shape(), &[n, m]);
            for i in 0..m {
                for j in 0..n {
                    assert_eq!(t.at(&[j, i]).to_bits(), a.at(&[i, j]).to_bits());
                }
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = Rng::new(6);
        let a = Tensor::randn(&[4, 9], 1.0, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().at(&[3, 1]), a.at(&[1, 3]));
    }

    #[test]
    fn map_large_bit_exact_vs_serial() {
        // Large enough to cross the parallel threshold in par::min_units.
        let mut rng = Rng::new(37);
        let a = Tensor::randn(&[200_000], 1.0, &mut rng);
        let f = |x: f32| (x * 1.5 + 0.25).tanh();
        let mapped = a.map(f);
        let mut inplace = a.clone();
        inplace.map_inplace(f);
        for ((&g, &h), &x) in mapped.data().iter().zip(inplace.data()).zip(a.data()) {
            let want = f(x).to_bits();
            assert_eq!(g.to_bits(), want);
            assert_eq!(h.to_bits(), want);
        }
    }

    #[test]
    fn elementwise_and_reductions() {
        let a = Tensor::from_vec(vec![1., -2., 3.], &[3]);
        let b = Tensor::from_vec(vec![2., 2., 2.], &[3]);
        assert_eq!(a.add(&b).data(), &[3., 0., 5.]);
        assert_eq!(a.sub(&b).data(), &[-1., -4., 1.]);
        assert_eq!(a.mul(&b).data(), &[2., -4., 6.]);
        assert_eq!(a.scale(2.0).data(), &[2., -4., 6.]);
        assert_eq!(a.sum(), 2.0);
        assert_eq!(a.max_abs(), 3.0);
        assert!((a.mean() - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::zeros(&[3]);
        let g = Tensor::from_vec(vec![1., 2., 3.], &[3]);
        a.axpy(0.5, &g);
        a.axpy(0.5, &g);
        assert_eq!(a.data(), &[1., 2., 3.]);
    }

    #[test]
    fn slice_and_cat() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let lo = t.slice_outer(0, 2);
        let hi = t.slice_outer(2, 4);
        assert_eq!(lo.shape(), &[2, 3]);
        assert_eq!(Tensor::cat_outer(&[&lo, &hi]), t);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1., 2., 3., 4.], &[2, 2]);
        let r = t.clone().reshape(&[4]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[4]);
    }

    #[test]
    fn kaiming_scales_with_fan_in() {
        let mut rng = Rng::new(8);
        let w = Tensor::kaiming(&[100, 100], 100, &mut rng);
        let rms = w.rms();
        assert!((rms - (2.0f32 / 100.0).sqrt()).abs() < 0.02, "rms {rms}");
    }
}
