//! Reusable forward-pass buffers for repeated inference.

use crate::graph::Graph;
use crate::infer::RowInterner;
use crate::params::Binding;

/// A pool of reusable `f32` buffers for allocation-free inference.
///
/// The fused scoring path borrows scratch buffers with [`Arena::take`] and
/// returns them with [`Arena::give`]. `take` reuses the pooled buffer with
/// the smallest sufficient capacity (best fit); only when none fits does it
/// touch the allocator. Best fit matters: handing an oversized buffer to a
/// small request could starve a later large request into allocating, every
/// call, forever. With best fit a scoring loop that issues the same
/// deterministic sequence of takes every micro-batch converges after warmup
/// to a pool where every request is served from capacity — zero heap
/// allocations in steady state.
///
/// Returned buffers have the requested length but *unspecified contents*
/// (callers overwrite them); this avoids re-zeroing hot scratch memory.
#[derive(Debug, Default)]
pub struct Arena {
    free: Vec<Vec<f32>>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Borrows a buffer of length `len` with unspecified contents.
    ///
    /// Reuses the pooled buffer with the smallest sufficient capacity;
    /// allocates only when none fits (warmup, in a steady-state loop).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let slot = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        let mut buf = match slot {
            Some(i) => self.free.swap_remove(i),
            None => Vec::with_capacity(len),
        };
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        buf
    }

    /// Returns a buffer to the pool for reuse by later [`Arena::take`]s.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// Number of buffers currently pooled (diagnostics/tests).
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

/// A reusable (tape, binding) pair for repeated forward passes.
///
/// Allocating a fresh [`Graph`] and [`Binding`] per predict call rebuilds the
/// node tape and the parameter-leaf map from scratch every time. A
/// `Workspace` keeps both alive between calls so their backing storage is
/// reused; [`Workspace::reset`] clears contents without releasing capacity.
///
/// A `Workspace` holds no parameters itself — models stay shareable across
/// threads (`&self`) while each worker thread owns one workspace and passes
/// it by `&mut` into `predict_with`-style entry points.
///
/// ```
/// use tlp_nn::{Tensor, Workspace};
/// let mut ws = Workspace::new();
/// for _ in 0..3 {
///     ws.reset();
///     let x = ws.graph.constant(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
///     let y = ws.graph.sum_all(x);
///     assert_eq!(ws.graph.value(y).data(), &[3.0]);
/// }
/// ```
#[derive(Debug, Default)]
pub struct Workspace {
    /// The operation tape.
    pub graph: Graph,
    /// Parameter-leaf cache tied to the tape.
    pub bind: Binding,
    /// Scratch-buffer pool for the fused (tape-free) inference path.
    pub arena: Arena,
    /// The fused path's row-deduplication scratch (its `u32` side: the
    /// distinct rows themselves live in an arena buffer).
    pub rows: RowInterner,
}

impl Workspace {
    /// Creates an empty workspace.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Clears the tape and the binding together.
    ///
    /// A binding caches `Var` handles into its tape, so the two must never
    /// reset independently — a stale binding would hand out dangling node
    /// indices. The arena and the row interner are left untouched: pooled
    /// scratch is the whole point of reuse across calls.
    pub fn reset(&mut self) {
        self.graph.reset();
        self.bind.reset();
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)]
    use super::*;
    use crate::tensor::Tensor;

    #[test]
    fn reset_clears_tape_and_binding() {
        let mut ws = Workspace::new();
        let x = ws.graph.constant(Tensor::from_vec(vec![1.0], &[1]));
        assert_eq!(ws.graph.len(), 1);
        let _ = x;
        ws.reset();
        assert!(ws.graph.is_empty());
    }

    #[test]
    fn workspace_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Workspace>();
    }

    #[test]
    fn arena_reuses_buffers_without_new_allocations() {
        let mut arena = Arena::new();
        // Warmup: two live buffers at once.
        let a = arena.take(100);
        let b = arena.take(10);
        let cap_a = a.capacity();
        arena.give(a);
        arena.give(b);
        assert_eq!(arena.pooled(), 2);
        // Steady state: same take sequence is served from the pool.
        let a2 = arena.take(100);
        let b2 = arena.take(10);
        assert_eq!(a2.len(), 100);
        assert_eq!(b2.len(), 10);
        assert_eq!(arena.pooled(), 0);
        assert!(a2.capacity() >= cap_a.min(100));
        arena.give(a2);
        arena.give(b2);
        // A smaller request reuses a larger buffer rather than allocating.
        let c = arena.take(5);
        assert_eq!(c.len(), 5);
        assert_eq!(arena.pooled(), 1);
    }
}
