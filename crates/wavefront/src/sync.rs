//! Synchronization shim: the primitive surface the wavefront protocol is
//! written against.
//!
//! The scheduling protocol in [`crate::protocol`] touches exactly three
//! kinds of primitives: a monitor (mutex + condition variable fused, the
//! classic Hoare monitor — `parking_lot`'s condvar is bound to a single
//! mutex anyway), a `u32` atomic (per-tile in-degrees) and a `usize`
//! atomic (the remaining-tiles counter). This module abstracts those
//! behind the [`SyncModel`] trait so the *same* protocol code runs on two
//! implementations:
//!
//! * [`StdSync`] — real `parking_lot` locks and `std` atomics, used by
//!   [`crate::pool::WorkerPool`] in production. Every method is an `#[inline]` delegation, so the
//!   monomorphized protocol compiles to the exact code it replaced.
//! * `VirtSync` in the `flsa-check` crate — instrumented virtual
//!   primitives under a deterministic scheduler that explores thread
//!   interleavings and tracks happens-before edges with vector clocks
//!   (a loom-style model checker; see DESIGN.md §8).
//!
//! The [`Ordering`] arguments are forwarded verbatim: the production
//! implementation hands them to the hardware, the checked implementation
//! interprets them (only `Acquire`/`Release`/`AcqRel`/`SeqCst` transfer
//! clock state, so a wrongly-`Relaxed` operation shows up as a detected
//! race instead of silently working on x86).

use std::ops::DerefMut;
use std::sync::atomic::Ordering;

/// A family of synchronization primitives the wavefront protocol can run
/// on. See the module docs for the two implementations.
pub trait SyncModel: 'static {
    /// Mutex + condvar over a value of type `T`.
    type Monitor<T: Send + 'static>: Monitor<T>;
    /// Atomic `u32` (per-tile in-degree counters).
    type AtomicU32: AtomicInt<u32>;
    /// Atomic `usize` (remaining-tiles counter, poison flag).
    type AtomicUsize: AtomicInt<usize>;
}

/// A mutex fused with its condition variable.
///
/// `wait` takes the guard by `&mut` (parking_lot style): it atomically
/// releases the lock, blocks, and re-acquires before returning. Waits may
/// wake spuriously; callers must re-check their predicate in a loop (the
/// model checker exercises spurious wakeups deliberately).
pub trait Monitor<T: Send>: Send + Sync {
    /// RAII lock guard.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a,
        T: 'a;

    /// Creates the monitor owning `value`.
    fn new(value: T) -> Self;
    /// Blocks until the lock is held.
    fn lock(&self) -> Self::Guard<'_>;
    /// Atomically unlocks, sleeps, and re-locks. May wake spuriously.
    fn wait<'a>(&'a self, guard: &mut Self::Guard<'a>);
    /// Wakes one waiter (if any).
    fn notify_one(&self);
    /// Wakes every waiter.
    fn notify_all(&self);
}

/// An atomic integer with explicit memory orderings.
pub trait AtomicInt<V: Copy>: Send + Sync {
    /// Creates the atomic holding `v`.
    fn new(v: V) -> Self;
    /// Atomic load.
    fn load(&self, order: Ordering) -> V;
    /// Atomic store.
    fn store(&self, v: V, order: Ordering);
    /// Atomic subtract, returning the previous value.
    fn fetch_sub(&self, v: V, order: Ordering) -> V;
    /// Atomic compare-and-swap: when the value equals `current`, replaces
    /// it with `new` under `success` ordering and returns `Ok(current)`;
    /// otherwise returns `Err(actual)` under `failure` ordering.
    fn compare_exchange(
        &self,
        current: V,
        new: V,
        success: Ordering,
        failure: Ordering,
    ) -> Result<V, V>;
}

/// The production model: `parking_lot` locks, `std` atomics.
pub struct StdSync;

/// [`Monitor`] on `parking_lot::{Mutex, Condvar}`.
pub struct StdMonitor<T> {
    mutex: parking_lot::Mutex<T>,
    cv: parking_lot::Condvar,
}

impl<T: Send> Monitor<T> for StdMonitor<T> {
    type Guard<'a>
        = parking_lot::MutexGuard<'a, T>
    where
        T: 'a;

    #[inline]
    fn new(value: T) -> Self {
        StdMonitor {
            mutex: parking_lot::Mutex::new(value),
            cv: parking_lot::Condvar::new(),
        }
    }

    #[inline]
    fn lock(&self) -> Self::Guard<'_> {
        self.mutex.lock()
    }

    #[inline]
    fn wait<'a>(&'a self, guard: &mut Self::Guard<'a>) {
        self.cv.wait(guard);
    }

    #[inline]
    fn notify_one(&self) {
        self.cv.notify_one();
    }

    #[inline]
    fn notify_all(&self) {
        self.cv.notify_all();
    }
}

macro_rules! std_atomic {
    ($atomic:ty, $value:ty) => {
        impl AtomicInt<$value> for $atomic {
            #[inline]
            fn new(v: $value) -> Self {
                <$atomic>::new(v)
            }

            #[inline]
            fn load(&self, order: Ordering) -> $value {
                self.load(order)
            }

            #[inline]
            fn store(&self, v: $value, order: Ordering) {
                self.store(v, order)
            }

            #[inline]
            fn fetch_sub(&self, v: $value, order: Ordering) -> $value {
                self.fetch_sub(v, order)
            }

            #[inline]
            fn compare_exchange(
                &self,
                current: $value,
                new: $value,
                success: Ordering,
                failure: Ordering,
            ) -> Result<$value, $value> {
                <$atomic>::compare_exchange(self, current, new, success, failure)
            }
        }
    };
}

std_atomic!(std::sync::atomic::AtomicU32, u32);
std_atomic!(std::sync::atomic::AtomicUsize, usize);

impl SyncModel for StdSync {
    type Monitor<T: Send + 'static> = StdMonitor<T>;
    type AtomicU32 = std::sync::atomic::AtomicU32;
    type AtomicUsize = std::sync::atomic::AtomicUsize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_monitor_round_trip() {
        let m: StdMonitor<i32> = Monitor::new(7);
        {
            let mut g = m.lock();
            *g += 1;
        }
        assert_eq!(*m.lock(), 8);
        m.notify_one();
        m.notify_all();
    }

    #[test]
    fn std_atomics_delegate() {
        let a = <std::sync::atomic::AtomicU32 as AtomicInt<u32>>::new(5);
        assert_eq!(AtomicInt::fetch_sub(&a, 2, Ordering::AcqRel), 5);
        assert_eq!(AtomicInt::load(&a, Ordering::Acquire), 3);
        AtomicInt::store(&a, 9, Ordering::Release);
        assert_eq!(AtomicInt::load(&a, Ordering::Acquire), 9);
        assert_eq!(
            AtomicInt::compare_exchange(&a, 9, 4, Ordering::AcqRel, Ordering::Acquire),
            Ok(9)
        );
        assert_eq!(
            AtomicInt::compare_exchange(&a, 9, 7, Ordering::AcqRel, Ordering::Acquire),
            Err(4)
        );
    }

    #[test]
    fn monitor_wait_wakes_on_notify() {
        use std::sync::Arc;
        let m: Arc<StdMonitor<bool>> = Arc::new(Monitor::new(false));
        let m2 = Arc::clone(&m);
        let h = std::thread::spawn(move || {
            let mut g = m2.lock();
            while !*g {
                m2.wait(&mut g);
            }
        });
        // Flip the flag under the lock, then wake the waiter.
        *m.lock() = true;
        m.notify_all();
        h.join().unwrap();
    }
}
