//! Shared buffers with DAG-ordered disjoint writes.
//!
//! During a parallel fill, tile `(r, c)` writes segment `c` of boundary
//! row `r` while its row-neighbour writes segment `c+1` — disjoint ranges
//! of one vector, ordered by the wavefront scheduler. Rust's `&mut`
//! aliasing rules cannot express "disjoint at runtime, ordered by an
//! external DAG", so [`DisjointBuf`] provides the narrow unsafe escape
//! hatch with the invariants documented where they are relied on.

use std::cell::UnsafeCell;

/// A fixed-size buffer whose disjoint sub-ranges may be written from
/// multiple threads, provided the caller's scheduler orders conflicting
/// accesses.
///
/// # Safety contract (callers of the `unsafe` methods)
///
/// * Two concurrently outstanding `slice_mut` ranges must not overlap.
/// * A `slice` read overlapping a `slice_mut` write must be ordered after
///   it by a happens-before edge (the worker pool's ready-queue
///   mutex provides one between a tile and its dependents).
///
/// Under those rules every access is data-race free: each byte has a
/// unique writer at any time, and readers are ordered behind that writer.
#[derive(Debug)]
pub struct DisjointBuf<T> {
    data: UnsafeCell<Vec<T>>,
    len: usize,
}

// SAFETY: all aliasing is delegated to the caller contract above; the
// type itself adds no thread-affine state.
unsafe impl<T: Send> Sync for DisjointBuf<T> {}

impl<T: Copy + Default> DisjointBuf<T> {
    /// Allocates a zero/default-initialized buffer of `len` elements.
    pub fn new(len: usize) -> Self {
        DisjointBuf {
            data: UnsafeCell::new(vec![T::default(); len]),
            len,
        }
    }
}

impl<T> DisjointBuf<T> {
    /// Element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mutable access to `range`.
    ///
    /// # Safety
    ///
    /// See the type-level contract: `range` must not overlap any other
    /// outstanding mutable range, and unordered readers must not touch it.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, range: std::ops::Range<usize>) -> &mut [T] {
        debug_assert!(range.end <= self.len);
        // SAFETY: the caller's contract above guarantees no aliasing access.
        let vec = unsafe { &mut *self.data.get() };
        &mut vec[range]
    }

    /// Shared access to `range`.
    ///
    /// # Safety
    ///
    /// See the type-level contract: every writer of an overlapping range
    /// must be ordered before this read.
    pub unsafe fn slice(&self, range: std::ops::Range<usize>) -> &[T] {
        debug_assert!(range.end <= self.len);
        // SAFETY: the caller's contract above orders all writers before us.
        let vec = unsafe { &*self.data.get() };
        &vec[range]
    }

    /// Consumes the buffer, returning the underlying vector. Requires
    /// `&mut self`, so all parallel work has provably finished.
    pub fn into_inner(self) -> Vec<T> {
        self.data.into_inner()
    }

    /// Exclusive view of the whole buffer (single-threaded phases).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data.get_mut().as_mut_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;

    #[test]
    fn single_threaded_round_trip() {
        let mut buf = DisjointBuf::<i32>::new(8);
        buf.as_mut_slice()[3] = 42;
        assert_eq!(buf.len(), 8);
        let v = buf.into_inner();
        assert_eq!(v[3], 42);
        assert_eq!(v[0], 0);
    }

    #[test]
    fn wavefront_ordered_disjoint_writes_are_consistent() {
        // Tiles of a 4x4 wavefront each write their own 4-element segment
        // of a shared buffer after reading the left neighbour's segment —
        // exactly the FastLSA fill pattern. The final content must match
        // the sequential computation regardless of thread count.
        let rows = 4;
        let cols = 4;
        let seg = 4;
        let compute = |threads: usize| -> Vec<u64> {
            let buf = DisjointBuf::<u64>::new(rows * cols * seg);
            WorkerPool::new(threads)
                .run(rows, cols, |_, _| false, &|r, c| {
                    let base = (r * cols + c) * seg;
                    let left_sum: u64 = if c > 0 {
                        // SAFETY: the left neighbour's segment was completed
                        // before this tile became ready (wavefront ordering).
                        unsafe { self::sum(&buf, base - seg..base) }
                    } else {
                        r as u64
                    };
                    // SAFETY: segment `base..base+seg` is written only by
                    // tile (r,c), which runs exactly once.
                    let out = unsafe { buf.slice_mut(base..base + seg) };
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = left_sum + k as u64 + 1;
                    }
                })
                .unwrap();
            buf.into_inner()
        };
        let seq = compute(1);
        assert_eq!(compute(4), seq);
    }

    // SAFETY: forwards `DisjointBuf::slice`'s contract — every writer of
    // `range` must be ordered before the call.
    unsafe fn sum(buf: &DisjointBuf<u64>, range: std::ops::Range<usize>) -> u64 {
        // SAFETY: forwarded to this fn's own contract (comment above).
        unsafe { buf.slice(range) }.iter().sum()
    }

    #[test]
    fn empty_buffer() {
        let buf = DisjointBuf::<i32>::new(0);
        assert!(buf.is_empty());
        assert!(buf.into_inner().is_empty());
    }
}
