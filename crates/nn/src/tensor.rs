//! Dense row-major `f32` tensors.
//!
//! [`Tensor`] is the value type flowing through the autograd [`Graph`](crate::Graph)
//! (see [`crate::graph`]). Tensors are always contiguous and row-major;
//! shape-changing views (`reshape`) are free, axis permutations materialize.
//!
//! Matrix multiplies route through the register-blocked [`crate::kernels`]
//! module, which carries the fixed accumulation-order contract: every
//! output element is accumulated over the inner dimension in ascending
//! order, so scores are bit-identical regardless of blocking or batch
//! grouping. Common permutations (`[0,2,1,3]`, `[0,2,1]`, `[1,0]`) take
//! strided copy fast paths instead of the generic per-element index walk.

use crate::kernels;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, contiguous, row-major `f32` tensor of arbitrary rank.
///
/// # Examples
///
/// ```
/// use tlp_nn::Tensor;
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// assert_eq!(t.shape(), &[2, 2]);
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Vec<usize>,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(f, ", data=[{} elems])", self.data.len())
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

/// Number of elements implied by a shape.
pub fn numel(shape: &[usize]) -> usize {
    shape.iter().product()
}

impl Tensor {
    /// Creates a tensor from raw data and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        assert_eq!(
            data.len(),
            numel(shape),
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        Tensor {
            shape: shape.to_vec(),
            data,
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![0.0; numel(shape)],
        }
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        Tensor {
            shape: shape.to_vec(),
            data: vec![value; numel(shape)],
        }
    }

    /// Creates a rank-0-like scalar tensor (shape `[1]`).
    pub fn scalar(value: f32) -> Self {
        Tensor::from_vec(vec![value], &[1])
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat immutable view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access by multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Mutable element access by multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of bounds.
    pub fn at_mut(&mut self, index: &[usize]) -> &mut f32 {
        let i = self.flat_index(index);
        &mut self.data[i]
    }

    fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (i, (&idx, &dim)) in index.iter().zip(&self.shape).enumerate() {
            assert!(
                idx < dim,
                "index {idx} out of bounds for axis {i} (dim {dim})"
            );
            flat = flat * dim + idx;
        }
        flat
    }

    /// The value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor does not hold exactly one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() on tensor with {} elements",
            self.data.len()
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape (free).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        assert_eq!(
            numel(shape),
            self.data.len(),
            "reshape element count mismatch"
        );
        Tensor {
            shape: shape.to_vec(),
            data: self.data.clone(),
        }
    }

    /// Applies `f` elementwise, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise binary combination with another tensor of identical shape.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape, other.shape, "zip shape mismatch");
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Accumulates `other` into `self` (elementwise `+=`).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Scales all elements in place.
    pub fn scale_assign(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm of all elements.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Permutes the axes of the tensor, materializing the result.
    ///
    /// `perm[i]` gives the source axis that becomes axis `i` of the output.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        let rank = self.shape.len();
        assert_eq!(perm.len(), rank, "permutation rank mismatch");
        let mut seen = vec![false; rank];
        for &p in perm {
            assert!(p < rank && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape[p]).collect();
        let mut out = vec![0.0f32; self.data.len()];
        permute_into(&self.data, &self.shape, perm, &mut out);
        Tensor {
            shape: out_shape,
            data: out,
        }
    }

    /// 2-D matrix multiply: `self [m,k] × rhs [k,n] → [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dims disagree.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2, "matmul lhs must be rank 2");
        assert_eq!(rhs.shape.len(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul inner dimension mismatch: {k} vs {k2}");
        let mut out = vec![0.0f32; m * n];
        kernels::gemm(&self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// Batched matrix multiply on rank-3 tensors: `[b,m,k] × [b,k,n] → [b,m,n]`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn bmm(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 3, "bmm lhs must be rank 3");
        assert_eq!(rhs.shape.len(), 3, "bmm rhs must be rank 3");
        let (b, m, k) = (self.shape[0], self.shape[1], self.shape[2]);
        let (b2, k2, n) = (rhs.shape[0], rhs.shape[1], rhs.shape[2]);
        assert_eq!(b, b2, "bmm batch mismatch");
        assert_eq!(k, k2, "bmm inner dimension mismatch");
        let mut out = vec![0.0f32; b * m * n];
        for bi in 0..b {
            kernels::gemm(
                &self.data[bi * m * k..(bi + 1) * m * k],
                &rhs.data[bi * k * n..(bi + 1) * k * n],
                &mut out[bi * m * n..(bi + 1) * m * n],
                m,
                k,
                n,
            );
        }
        Tensor {
            shape: vec![b, m, n],
            data: out,
        }
    }

    /// Transposed 2-D matmul `selfᵀ × rhs`: `self [k,m], rhs [k,n] → [m,n]`.
    ///
    /// Used by backward passes to avoid materializing transposes.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn matmul_tn(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(rhs.shape.len(), 2);
        let (k, m) = (self.shape[0], self.shape[1]);
        let (k2, n) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_tn inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        for l in 0..k {
            let a_row = &self.data[l * m..(l + 1) * m];
            let b_row = &rhs.data[l * n..(l + 1) * n];
            for i in 0..m {
                let a = a_row[i];
                if a == 0.0 {
                    continue;
                }
                let o = &mut out[i * n..(i + 1) * n];
                for (oj, &bj) in o.iter_mut().zip(b_row) {
                    *oj += a * bj;
                }
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }

    /// 2-D matmul with transposed rhs `self × rhsᵀ`: `self [m,k], rhs [n,k] → [m,n]`.
    ///
    /// # Panics
    ///
    /// Panics on rank/shape mismatches.
    pub fn matmul_nt(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.shape.len(), 2);
        assert_eq!(rhs.shape.len(), 2);
        let (m, k) = (self.shape[0], self.shape[1]);
        let (n, k2) = (rhs.shape[0], rhs.shape[1]);
        assert_eq!(k, k2, "matmul_nt inner dimension mismatch");
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let o = &mut out[i * n..(i + 1) * n];
            for (j, oj) in o.iter_mut().enumerate() {
                let b_row = &rhs.data[j * k..(j + 1) * k];
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *oj = acc;
            }
        }
        Tensor {
            shape: vec![m, n],
            data: out,
        }
    }
}

/// Row-major strides for a shape.
pub fn strides(shape: &[usize]) -> Vec<usize> {
    let mut s = vec![1usize; shape.len()];
    for i in (0..shape.len().saturating_sub(1)).rev() {
        s[i] = s[i + 1] * shape[i + 1];
    }
    s
}

/// Materializes `src` (shape `shape`) permuted by `perm` into `out`.
///
/// Dispatches to strided-copy fast paths for the permutations the
/// attention layers actually emit; anything else takes the generic
/// odometer walk. All paths produce identical bytes — permutation is a
/// pure data movement, so no accumulation-order concerns arise.
pub(crate) fn permute_into(src: &[f32], shape: &[usize], perm: &[usize], out: &mut [f32]) {
    match (shape, perm) {
        // [a,b,c,d] -> [a,c,b,d]: swap the two middle axes, moving whole
        // d-sized chunks (the attention head split/merge).
        ([a, b, c, d], [0, 2, 1, 3]) => {
            let (a, b, c, d) = (*a, *b, *c, *d);
            for ia in 0..a {
                for ib in 0..b {
                    let src_row = &src[(ia * b + ib) * c * d..(ia * b + ib + 1) * c * d];
                    for ic in 0..c {
                        let dst = ((ia * c + ic) * b + ib) * d;
                        out[dst..dst + d].copy_from_slice(&src_row[ic * d..(ic + 1) * d]);
                    }
                }
            }
        }
        // [a,b,c] -> [a,c,b]: per-slice transpose (the key transpose in
        // attention). Written column-major over the source so reads are
        // sequential.
        ([a, b, c], [0, 2, 1]) => {
            let (a, b, c) = (*a, *b, *c);
            for ia in 0..a {
                let sbase = ia * b * c;
                let obase = ia * c * b;
                for ib in 0..b {
                    for ic in 0..c {
                        out[obase + ic * b + ib] = src[sbase + ib * c + ic];
                    }
                }
            }
        }
        // [a,b] -> [b,a]: plain 2-D transpose.
        ([a, b], [1, 0]) => {
            let (a, b) = (*a, *b);
            for ia in 0..a {
                for ib in 0..b {
                    out[ib * a + ia] = src[ia * b + ib];
                }
            }
        }
        _ => {
            let out_shape: Vec<usize> = perm.iter().map(|&p| shape[p]).collect();
            let in_strides = strides(shape);
            let out_strides = strides(&out_shape);
            let mut idx = vec![0usize; shape.len()];
            for (flat_out, slot) in out.iter_mut().enumerate() {
                let mut rem = flat_out;
                for (a, &os) in out_strides.iter().enumerate() {
                    idx[a] = rem / os;
                    rem %= os;
                }
                let mut flat_in = 0;
                for (a, &p) in perm.iter().enumerate() {
                    flat_in += idx[a] * in_strides[p];
                }
                *slot = src[flat_in];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;

    #[test]
    fn from_vec_and_access() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.at(&[0, 0]), 1.0);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert_eq!(t.len(), 6);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_bad_shape_panics() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.5).collect(), &[3, 4]);
        let at = a.permute(&[1, 0]);
        assert_eq!(a.matmul_tn(&b), at.matmul(&b));
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.25).collect(), &[4, 3]);
        let bt = b.permute(&[1, 0]);
        assert_eq!(a.matmul_nt(&b), a.matmul(&bt));
    }

    #[test]
    fn bmm_matches_per_slice_matmul() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]);
        let b = Tensor::from_vec((0..18).map(|x| x as f32 * 0.1).collect(), &[2, 3, 3]);
        let c = a.bmm(&b);
        for bi in 0..2 {
            let ai = Tensor::from_vec(a.data()[bi * 6..(bi + 1) * 6].to_vec(), &[2, 3]);
            let bi_t = Tensor::from_vec(b.data()[bi * 9..(bi + 1) * 9].to_vec(), &[3, 3]);
            let ci = ai.matmul(&bi_t);
            assert_eq!(&c.data()[bi * 6..(bi + 1) * 6], ci.data());
        }
    }

    #[test]
    fn permute_roundtrip() {
        let t = Tensor::from_vec((0..24).map(|x| x as f32).collect(), &[2, 3, 4]);
        let p = t.permute(&[2, 0, 1]);
        assert_eq!(p.shape(), &[4, 2, 3]);
        assert_eq!(p.at(&[3, 1, 2]), t.at(&[1, 2, 3]));
        let back = p.permute(&[1, 2, 0]);
        assert_eq!(back, t);
    }

    #[test]
    fn reshape_is_free_relabel() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let r = t.reshape(&[3, 2]);
        assert_eq!(r.data(), t.data());
        assert_eq!(r.shape(), &[3, 2]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]);
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.sq_norm(), 30.0);
    }
}
