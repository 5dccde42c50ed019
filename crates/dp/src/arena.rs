//! A reusable buffer pool for kernel scratch space.
//!
//! FastLSA recurses into up to `2k − 1` sub-blocks per level, and every
//! block fill needs the same kinds of scratch: rolling DP rows, boundary
//! copies, query-profile tables. Allocating those per block costs a trip
//! to the allocator per rectangle and defeats the cache; the paper's whole
//! point is that the working set is a handful of linear buffers.
//!
//! [`KernelArena`] checks buffers out ([`KernelArena::take`]) and back in
//! ([`KernelArena::put`]); after the first few blocks every `take` is
//! satisfied from the pool and the arena's held byte count stops growing.
//! The arena is `Sync` (a mutexed free list plus relaxed counters) so the
//! parallel tile executor can share one arena across workers, and it
//! exposes [`KernelArena::held_bytes`] so the layer that owns a
//! `MemoryGovernor` can charge the arena's high-water mark against the
//! run's byte budget at its consistent points.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Upper bound on pooled buffers; beyond this, returned buffers are freed
/// (and their bytes released) instead of cached. Large enough for every
/// concurrent checkout pattern in the workspace (a tile needs four
/// buffers, plus profile and rolling rows on the sequential path).
const MAX_POOLED: usize = 32;

/// A `Sync` pool of reusable `i32` buffers for DP kernels: rolling rows,
/// boundary copies, and query profiles.
#[derive(Debug, Default)]
pub struct KernelArena {
    pool: Mutex<Vec<Vec<i32>>>,
    /// Capacity bytes of every buffer this arena owns — pooled or checked
    /// out. Monotone except when the pool overflows or is cleared.
    held: AtomicUsize,
    /// Number of `take` calls that had to allocate or grow a buffer.
    fresh_allocs: AtomicU64,
    /// Number of `take` calls served entirely from the pool.
    reuses: AtomicU64,
}

/// Bytes of `elems` pooled `i32`s.
fn bytes(elems: usize) -> usize {
    elems * std::mem::size_of::<i32>()
}

impl KernelArena {
    /// An empty arena.
    pub fn new() -> Self {
        KernelArena::default()
    }

    /// Checks out a zero-filled `i32` buffer of exactly `len` elements.
    pub fn take(&self, len: usize) -> Vec<i32> {
        let recycled = {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            // Best fit: the smallest pooled buffer that already holds `len`,
            // falling back to the largest (which we grow) so small requests
            // don't chew up big buffers.
            let mut best: Option<(usize, usize)> = None;
            let mut largest: Option<(usize, usize)> = None;
            for (i, v) in pool.iter().enumerate() {
                let cap = v.capacity();
                if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                    best = Some((i, cap));
                }
                if largest.is_none_or(|(_, c)| cap > c) {
                    largest = Some((i, cap));
                }
            }
            best.or(largest).map(|(i, _)| pool.swap_remove(i))
        };
        let from_pool = recycled.is_some();
        let mut v = recycled.unwrap_or_default();
        let old_cap = v.capacity();
        v.clear();
        v.resize(len, 0);
        let new_cap = v.capacity();
        if new_cap > old_cap {
            let grown = bytes(new_cap - old_cap);
            // Relaxed: advisory accounting/reporting counters; readers
            // tolerate any interleaving and order nothing on them.
            self.held.fetch_add(grown, Ordering::Relaxed);
            self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
        } else if from_pool {
            // Relaxed: reporting counter only.
            self.reuses.fetch_add(1, Ordering::Relaxed);
        }
        v
    }

    /// Returns an `i32` buffer to the pool for reuse, releasing its bytes
    /// instead when the pool is full.
    pub fn put(&self, v: Vec<i32>) {
        if v.capacity() == 0 {
            return;
        }
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < MAX_POOLED {
            pool.push(v);
        } else {
            drop(pool);
            // Relaxed: reporting counter only.
            self.held.fetch_sub(bytes(v.capacity()), Ordering::Relaxed);
        }
    }

    /// Frees every pooled buffer and releases its bytes. Checked-out
    /// buffers are unaffected (their bytes stay held until `put`).
    pub fn clear(&self) {
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let freed: usize = pool.iter().map(Vec::capacity).sum();
        pool.clear();
        // Relaxed: reporting counter only.
        self.held.fetch_sub(bytes(freed), Ordering::Relaxed);
    }

    /// Capacity bytes currently owned by the arena (pooled + checked out).
    pub fn held_bytes(&self) -> usize {
        // Relaxed: reporting counter only.
        self.held.load(Ordering::Relaxed)
    }

    /// `take` calls that hit the allocator (fresh or growing).
    pub fn fresh_allocs(&self) -> u64 {
        // Relaxed: reporting counter only.
        self.fresh_allocs.load(Ordering::Relaxed)
    }

    /// `take` calls served from the pool without touching the allocator.
    pub fn reuses(&self) -> u64 {
        // Relaxed: reporting counter only.
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_reuses_capacity() {
        let arena = KernelArena::new();
        let a = arena.take(1000);
        assert_eq!(a.len(), 1000);
        assert_eq!(arena.fresh_allocs(), 1);
        let held = arena.held_bytes();
        assert!(held >= 4000);
        arena.put(a);
        let b = arena.take(500);
        assert_eq!(b.len(), 500);
        assert_eq!(arena.fresh_allocs(), 1, "smaller request must reuse");
        assert_eq!(arena.reuses(), 1);
        assert_eq!(arena.held_bytes(), held, "held bytes stay flat on reuse");
        arena.put(b);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let arena = KernelArena::new();
        // Warm up with the largest shape, then cycle smaller shapes.
        for len in [4096usize, 128, 1024, 4096, 33, 4095] {
            let v = arena.take(len);
            arena.put(v);
        }
        let allocs = arena.fresh_allocs();
        let held = arena.held_bytes();
        for _ in 0..100 {
            let a = arena.take(4096);
            let b = arena.take(128);
            arena.put(a);
            arena.put(b);
        }
        // One extra alloc is allowed for the second concurrent checkout the
        // warm-up never exercised; after that the arena must be steady.
        assert!(
            arena.fresh_allocs() <= allocs + 1,
            "steady-state takes must not allocate: {} -> {}",
            allocs,
            arena.fresh_allocs()
        );
        assert!(arena.held_bytes() <= held + 4096 * 4);
        assert!(arena.reuses() >= 199);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        let arena = KernelArena::new();
        let small = arena.take(10);
        let big = arena.take(1000);
        arena.put(small);
        arena.put(big);
        let v = arena.take(8);
        assert!(
            v.capacity() < 1000,
            "must not burn the big buffer on a tiny request"
        );
        arena.put(v);
    }

    #[test]
    fn clear_releases_pooled_bytes() {
        let arena = KernelArena::new();
        let v = arena.take(256);
        arena.put(v);
        assert!(arena.held_bytes() >= 1024);
        arena.clear();
        assert_eq!(arena.held_bytes(), 0);
    }

    #[test]
    fn zeroed_region_after_reuse() {
        let arena = KernelArena::new();
        let mut v = arena.take(8);
        v.iter_mut().for_each(|x| *x = -1);
        arena.put(v);
        let v = arena.take(16);
        assert!(v.iter().all(|&x| x == 0), "take must zero the buffer");
        arena.put(v);
    }

    #[test]
    fn arena_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<KernelArena>();
    }
}
