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

/// A `Sync` pool of reusable `i32` / `i16` / `u8` buffers for DP kernels.
///
/// The `i32` pool serves the intra-sequence kernels' rolling rows and
/// query profiles; the `i16` and `u8` pools serve the inter-sequence
/// batch kernel's striped rows, 16-bit profiles, and direction slabs.
/// All three share one byte ledger ([`KernelArena::held_bytes`]) so the
/// governor charge covers everything the arena owns.
#[derive(Debug, Default)]
pub struct KernelArena {
    pool: Mutex<Vec<Vec<i32>>>,
    pool_i16: Mutex<Vec<Vec<i16>>>,
    pool_u8: Mutex<Vec<Vec<u8>>>,
    /// Capacity bytes of every buffer this arena owns — pooled or checked
    /// out. Monotone except when the pool overflows or is cleared.
    held: AtomicUsize,
    /// Number of `take` calls that had to allocate or grow a buffer.
    fresh_allocs: AtomicU64,
    /// Number of `take` calls served entirely from the pool.
    reuses: AtomicU64,
}

/// Checks out a zero-filled buffer of exactly `len` elements from one
/// typed pool, charging growth to the shared counters.
fn take_from<T: Copy + Default>(
    pool: &Mutex<Vec<Vec<T>>>,
    len: usize,
    held: &AtomicUsize,
    fresh_allocs: &AtomicU64,
    reuses: &AtomicU64,
) -> Vec<T> {
    let recycled = {
        let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
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
    v.resize(len, T::default());
    let new_cap = v.capacity();
    if new_cap > old_cap {
        let grown = (new_cap - old_cap) * std::mem::size_of::<T>();
        // Relaxed: advisory accounting/reporting counters; readers
        // tolerate any interleaving and order nothing on them.
        held.fetch_add(grown, Ordering::Relaxed);
        fresh_allocs.fetch_add(1, Ordering::Relaxed);
    } else if from_pool {
        // Relaxed: reporting counter only.
        reuses.fetch_add(1, Ordering::Relaxed);
    }
    v
}

/// Returns a buffer to one typed pool, releasing its bytes if the pool
/// is full.
fn put_to<T>(pool: &Mutex<Vec<Vec<T>>>, v: Vec<T>, held: &AtomicUsize) {
    if v.capacity() == 0 {
        return;
    }
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    if pool.len() < MAX_POOLED {
        pool.push(v);
    } else {
        drop(pool);
        let freed = v.capacity() * std::mem::size_of::<T>();
        // Relaxed: reporting counter only.
        held.fetch_sub(freed, Ordering::Relaxed);
    }
}

/// Frees one typed pool's buffers, returning the element count released.
fn clear_pool<T>(pool: &Mutex<Vec<Vec<T>>>) -> usize {
    let mut pool = pool.lock().unwrap_or_else(|e| e.into_inner());
    let freed: usize = pool.iter().map(Vec::capacity).sum();
    pool.clear();
    freed
}

impl KernelArena {
    /// An empty arena.
    pub fn new() -> Self {
        KernelArena::default()
    }

    /// Checks out a zero-filled `i32` buffer of exactly `len` elements.
    pub fn take(&self, len: usize) -> Vec<i32> {
        take_from(
            &self.pool,
            len,
            &self.held,
            &self.fresh_allocs,
            &self.reuses,
        )
    }

    /// Returns an `i32` buffer to the pool for reuse.
    pub fn put(&self, v: Vec<i32>) {
        put_to(&self.pool, v, &self.held);
    }

    /// Checks out a zero-filled `i16` buffer of exactly `len` elements.
    pub fn take_i16(&self, len: usize) -> Vec<i16> {
        take_from(
            &self.pool_i16,
            len,
            &self.held,
            &self.fresh_allocs,
            &self.reuses,
        )
    }

    /// Returns an `i16` buffer to the pool for reuse.
    pub fn put_i16(&self, v: Vec<i16>) {
        put_to(&self.pool_i16, v, &self.held);
    }

    /// Checks out a zero-filled `u8` buffer of exactly `len` elements.
    pub fn take_u8(&self, len: usize) -> Vec<u8> {
        take_from(
            &self.pool_u8,
            len,
            &self.held,
            &self.fresh_allocs,
            &self.reuses,
        )
    }

    /// Returns a `u8` buffer to the pool for reuse.
    pub fn put_u8(&self, v: Vec<u8>) {
        put_to(&self.pool_u8, v, &self.held);
    }

    /// Frees every pooled buffer and releases its bytes. Checked-out
    /// buffers are unaffected (their bytes stay held until `put`).
    pub fn clear(&self) {
        let bytes = clear_pool(&self.pool) * std::mem::size_of::<i32>()
            + clear_pool(&self.pool_i16) * std::mem::size_of::<i16>()
            + clear_pool(&self.pool_u8) * std::mem::size_of::<u8>();
        // Relaxed: reporting counter only.
        self.held.fetch_sub(bytes, Ordering::Relaxed);
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
    fn typed_pools_share_the_byte_ledger() {
        let arena = KernelArena::new();
        let a = arena.take_i16(1000);
        let b = arena.take_u8(1000);
        assert!(arena.held_bytes() >= 2000 + 1000, "i16 + u8 bytes charged");
        arena.put_i16(a);
        arena.put_u8(b);
        let a = arena.take_i16(500);
        assert_eq!(arena.reuses(), 1, "i16 pool reuses its own buffers");
        assert!(a.iter().all(|&x| x == 0), "typed take must zero the buffer");
        arena.put_i16(a);
        arena.clear();
        assert_eq!(arena.held_bytes(), 0, "clear releases every typed pool");
    }

    #[test]
    fn arena_is_sync() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<KernelArena>();
    }
}
