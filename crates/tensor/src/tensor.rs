//! The dense row-major `f32` tensor at the heart of the reproduction.

use crate::error::TensorError;
use crate::memtrack::TrackedVec;
use crate::shape::Shape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major, contiguously stored `f32` tensor.
///
/// This is the single numeric container used by every crate in the
/// workspace: network activations, weights, gradients, images and entropy
/// matrices are all `Tensor`s.
///
/// # Examples
///
/// ```
/// use teamnet_tensor::Tensor;
///
/// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2])?;
/// assert_eq!(t.at(&[1, 0]), 3.0);
/// assert_eq!(t.sum(), 10.0);
/// # Ok::<(), teamnet_tensor::TensorError>(())
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    /// Element buffer; a [`TrackedVec`] so every tensor allocation is
    /// visible to [`crate::MemScope`] accounting (DESIGN.md §13).
    data: TrackedVec,
}

impl Tensor {
    /// Creates a tensor from existing data.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::VolumeOverflow`] if the product of the
    /// dimensions overflows `usize`, and [`TensorError::LengthMismatch`]
    /// if `data.len()` differs from the volume of `shape`.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        let shape = shape.into();
        let volume = shape
            .dims()
            .iter()
            .try_fold(1usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| TensorError::VolumeOverflow {
                dims: shape.dims().to_vec(),
            })?;
        if data.len() != volume {
            return Err(TensorError::LengthMismatch {
                expected: volume,
                actual: data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: data.into(),
        })
    }

    /// Infallible constructor for kernels that build `data` to match
    /// `shape` by construction (checked in debug builds only).
    pub(crate) fn from_parts(shape: impl Into<Shape>, data: Vec<f32>) -> Self {
        let shape = shape.into();
        debug_assert_eq!(data.len(), shape.volume(), "from_parts volume mismatch");
        Tensor {
            shape,
            data: data.into(),
        }
    }

    /// Creates a zero-filled tensor.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![0.0; volume].into(),
        }
    }

    /// Creates a one-filled tensor.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let volume = shape.volume();
        Tensor {
            shape,
            data: vec![value; volume].into(),
        }
    }

    /// Creates a rank-0 tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor {
            shape: Shape::scalar(),
            data: vec![value].into(),
        }
    }

    /// A 1-D tensor `[0, 1, ..., n-1]` as `f32`s.
    pub fn arange(n: usize) -> Self {
        Tensor {
            shape: Shape::new(vec![n]),
            data: (0..n).map(|i| i as f32).collect::<Vec<f32>>().into(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dimensions, outermost first. Shorthand for `shape().dims()`.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// The number of dimensions.
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// The total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns the underlying buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data.into_inner()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.offset(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any component is out of bounds.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let off = self.shape.offset(index);
        self.data[off] = value;
    }

    /// The single value of a rank-0 or single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor holds more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(
            self.data.len(),
            1,
            "item() requires exactly one element, got {}",
            self.data.len()
        );
        self.data[0]
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        Tensor::from_vec(self.data.to_vec(), shape)
    }

    /// Consuming variant of [`Tensor::reshape`]; avoids the copy.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the volumes differ.
    pub fn into_reshaped(self, shape: impl Into<Shape>) -> Result<Self, TensorError> {
        Tensor::from_vec(self.data.into_inner(), shape)
    }

    /// Row `r` of a rank-2 tensor, as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &self.data[r * cols..(r + 1) * cols]
    }

    /// Mutable row `r` of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank-2 or `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert_eq!(self.rank(), 2, "row_mut() requires a rank-2 tensor");
        let cols = self.shape.dim(1);
        &mut self.data[r * cols..(r + 1) * cols]
    }

    /// A new rank-2 tensor containing the rows of `self` selected by
    /// `indices`, in order. `self` must be rank ≥ 1; leading dimension is
    /// treated as the row axis and remaining dimensions are flattened.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or the tensor is rank 0.
    pub fn select_rows(&self, indices: &[usize]) -> Tensor {
        assert!(self.rank() >= 1, "select_rows() requires rank >= 1");
        let rows = self.shape.dim(0);
        let rest: usize = self.shape.dims()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * rest);
        for &i in indices {
            assert!(i < rows, "row index {i} out of bounds for {rows} rows");
            data.extend_from_slice(&self.data[i * rest..(i + 1) * rest]);
        }
        let mut dims = vec![indices.len()];
        dims.extend_from_slice(&self.shape.dims()[1..]);
        Tensor {
            shape: Shape::new(dims),
            data: data.into(),
        }
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect::<Vec<f32>>().into(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in self.data.iter_mut() {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert!(
            self.shape.same_as(&other.shape),
            "zip() requires equal shapes, got {} and {}",
            self.shape,
            other.shape
        );
        Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect::<Vec<f32>>()
                .into(),
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Arithmetic mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Largest element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element in the flat buffer (first on ties).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is empty.
    pub fn argmax(&self) -> usize {
        assert!(!self.data.is_empty(), "argmax() of an empty tensor");
        let mut best = 0;
        for (i, &x) in self.data.iter().enumerate() {
            if x > self.data[best] {
                best = i;
            }
        }
        best
    }

    /// True when every element is finite (no NaN or infinity).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Squared L2 norm of the flat buffer.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum()
    }

    /// Maximum absolute difference to another tensor of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert!(
            self.shape.same_as(&other.shape),
            "max_abs_diff() requires equal shapes"
        );
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Default for Tensor {
    /// The rank-0 zero tensor.
    fn default() -> Self {
        Tensor::scalar(0.0)
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const PREVIEW: usize = 8;
        write!(f, "Tensor{} ", self.shape)?;
        if self.data.len() <= PREVIEW {
            write!(f, "{:?}", self.data)
        } else {
            write!(
                f,
                "{:?}... ({} elements)",
                &self.data[..PREVIEW],
                self.data.len()
            )
        }
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl FromIterator<f32> for Tensor {
    /// Collects an iterator into a 1-D tensor.
    fn from_iter<I: IntoIterator<Item = f32>>(iter: I) -> Self {
        let data: Vec<f32> = iter.into_iter().collect();
        let n = data.len();
        Tensor {
            shape: Shape::new(vec![n]),
            data: data.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Tensor::zeros([2, 3]).sum(), 0.0);
        assert_eq!(Tensor::ones([2, 3]).sum(), 6.0);
        assert_eq!(Tensor::full([4], 2.5).sum(), 10.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::arange(4).data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![1.0; 6], [2, 3]).is_ok());
        let err = Tensor::from_vec(vec![1.0; 5], [2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn indexing_and_rows() {
        let mut t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [2, 3]).unwrap();
        assert_eq!(t.at(&[1, 2]), 5.0);
        t.set(&[0, 1], 9.0);
        assert_eq!(t.row(0), &[0.0, 9.0, 2.0]);
        t.row_mut(1)[0] = -1.0;
        assert_eq!(t.at(&[1, 0]), -1.0);
    }

    #[test]
    fn select_rows_gathers_in_order() {
        let t = Tensor::from_vec((0..6).map(|x| x as f32).collect(), [3, 2]).unwrap();
        let sel = t.select_rows(&[2, 0, 2]);
        assert_eq!(sel.dims(), &[3, 2]);
        assert_eq!(sel.data(), &[4.0, 5.0, 0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn select_rows_flattens_inner_dims() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [3, 2, 2]).unwrap();
        let sel = t.select_rows(&[1]);
        assert_eq!(sel.dims(), &[1, 2, 2]);
        assert_eq!(sel.data(), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], [4]).unwrap();
        assert_eq!(t.sum(), 2.5);
        assert_eq!(t.mean(), 0.625);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -2.0);
        assert_eq!(t.argmax(), 2);
        assert_eq!(t.norm_sq(), 1.0 + 4.0 + 9.0 + 0.25);
    }

    #[test]
    fn argmax_returns_first_on_ties() {
        let t = Tensor::from_vec(vec![1.0, 3.0, 3.0], [3]).unwrap();
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], [2]).unwrap();
        assert_eq!(a.map(|x| x * 2.0).data(), &[2.0, 4.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).data(), &[11.0, 22.0]);
        let mut c = a.clone();
        c.map_inplace(|x| -x);
        assert_eq!(c.data(), &[-1.0, -2.0]);
    }

    #[test]
    fn reshape_roundtrip() {
        let t = Tensor::arange(6);
        let r = t.reshape([2, 3]).unwrap();
        assert_eq!(r.dims(), &[2, 3]);
        assert_eq!(r.at(&[1, 1]), 4.0);
        assert!(t.reshape([4]).is_err());
        let back = r.into_reshaped([6]).unwrap();
        assert_eq!(back.data(), Tensor::arange(6).data());
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        let mut t = Tensor::ones([3]);
        assert!(t.all_finite());
        t.set(&[1], f32::NAN);
        assert!(!t.all_finite());
        t.set(&[1], f32::INFINITY);
        assert!(!t.all_finite());
    }

    #[test]
    fn debug_is_truncated_but_nonempty() {
        let t = Tensor::zeros([100]);
        let dbg = format!("{t:?}");
        assert!(dbg.contains("100 elements"));
        assert!(dbg.len() < 200);
        assert!(!format!("{:?}", Tensor::default()).is_empty());
    }

    #[test]
    fn tensor_implements_serde_traits() {
        fn assert_serde<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_serde::<Tensor>();
    }

    #[test]
    fn collect_into_tensor() {
        let t: Tensor = (0..3).map(|x| x as f32).collect();
        assert_eq!(t.dims(), &[3]);
    }
}
