//! Byte-budget admission control (DESIGN.md §14).
//!
//! The daemon owns one [`MemoryGovernor`] whose budget spans every
//! concurrently running job. A worker *acquires* a job's estimated
//! footprint before running it and *releases* it afterwards; when the
//! budget cannot admit the job right now the worker parks on a condvar
//! until another job frees memory, the job's deadline fires, or the
//! server starts draining. Jobs larger than the entire budget are
//! detected up front ([`Admission::never_fits`]) and answered with a
//! typed `TooLarge` failure — admission never silently shrinks a job.

use std::sync::{Condvar, Mutex};
use std::time::Duration;

use fastlsa_core::{CancelToken, MemoryGovernor};

use crate::lock;

/// How long an admission waiter sleeps between re-checks. Wake-ups also
/// arrive eagerly via the condvar on every release; the timeout only
/// bounds how stale a deadline/drain check can get.
const WAIT_SLICE: Duration = Duration::from_millis(25);

/// Why a blocking admission wait gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitError {
    /// The job's cancellation token fired (deadline or explicit).
    Cancelled,
    /// The server began draining while the job waited.
    Draining,
}

/// The server-wide admission controller: a [`MemoryGovernor`] behind a
/// mutex (the governor itself is single-threaded by design) plus a
/// condvar that wakes admission waiters on every release.
pub struct Admission {
    budget: Option<usize>,
    governor: Mutex<MemoryGovernor>,
    freed: Condvar,
}

impl Admission {
    /// A controller over `budget` bytes (`None` = unbudgeted: admission
    /// always succeeds immediately).
    pub fn new(budget: Option<usize>) -> Self {
        Admission {
            budget,
            governor: Mutex::new(MemoryGovernor::new(budget)),
            freed: Condvar::new(),
        }
    }

    /// The configured budget, if any.
    pub fn budget_bytes(&self) -> Option<usize> {
        self.budget
    }

    /// True when a job of `bytes` can never run here: it exceeds the
    /// whole budget even with the server idle.
    pub fn never_fits(&self, bytes: usize) -> bool {
        match self.budget {
            Some(b) => bytes > b,
            None => false,
        }
    }

    /// Blocks until `bytes` are charged against the budget, the token
    /// fires, or `draining()` turns true. On success the caller *must*
    /// balance with [`Admission::release`].
    pub fn acquire(
        &self,
        bytes: usize,
        cancel: &CancelToken,
        draining: impl Fn() -> bool,
    ) -> Result<(), AdmitError> {
        let mut gov = lock(&self.governor);
        loop {
            if gov.try_charge_bytes(bytes) {
                return Ok(());
            }
            if cancel.is_cancelled() {
                return Err(AdmitError::Cancelled);
            }
            if draining() {
                return Err(AdmitError::Draining);
            }
            let (next, _timeout) = self
                .freed
                .wait_timeout(gov, WAIT_SLICE)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            gov = next;
        }
    }

    /// Returns bytes charged by a successful acquire and wakes every
    /// admission waiter.
    pub fn release(&self, bytes: usize) {
        lock(&self.governor).release_bytes(bytes);
        self.freed.notify_all();
    }

    /// Bytes currently charged — the chaos harness asserts this returns
    /// to zero after a drain (no leaked admissions).
    pub fn used_bytes(&self) -> usize {
        lock(&self.governor).used_bytes()
    }

    /// A deterministic retry-after hint for `Overloaded` responses:
    /// scales with how much of the budget is currently committed, so a
    /// nearly idle server hints a short back-off and a saturated one a
    /// longer one.
    pub fn retry_after_hint(&self, queue_len: usize, workers: usize) -> u32 {
        let per_slot = 50u64;
        let backlog = queue_len as u64 / workers.max(1) as u64 + 1;
        (per_slot * backlog).min(2_000) as u32
    }
}

/// RAII admission grant for callers outside the daemon; the server
/// itself releases explicitly so the grant can outlive a panicking
/// attempt.
pub struct Grant<'a> {
    admission: &'a Admission,
    bytes: usize,
}

impl<'a> Grant<'a> {
    /// Wraps an already-acquired charge of `bytes`.
    pub fn new(admission: &'a Admission, bytes: usize) -> Self {
        Grant { admission, bytes }
    }
}

impl Drop for Grant<'_> {
    fn drop(&mut self) {
        self.admission.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn acquire_succeeds_within_budget_and_releases() {
        let a = Admission::new(Some(1000));
        let t = CancelToken::new();
        a.acquire(600, &t, || false).unwrap();
        assert_eq!(a.used_bytes(), 600);
        a.release(600);
        assert_eq!(a.used_bytes(), 0);
    }

    #[test]
    fn never_fits_detects_impossible_jobs() {
        let a = Admission::new(Some(1000));
        assert!(a.never_fits(1001));
        assert!(!a.never_fits(1000));
        let unbounded = Admission::new(None);
        assert!(!unbounded.never_fits(usize::MAX));
    }

    #[test]
    fn blocked_acquire_wakes_on_release() {
        let a = Arc::new(Admission::new(Some(100)));
        let t = CancelToken::new();
        a.acquire(80, &t, || false).unwrap();
        let a2 = a.clone();
        let waiter = std::thread::spawn(move || {
            let t = CancelToken::new();
            a2.acquire(50, &t, || false)
        });
        std::thread::sleep(Duration::from_millis(30));
        a.release(80);
        waiter.join().expect("waiter thread").unwrap();
        assert_eq!(a.used_bytes(), 50);
    }

    #[test]
    fn expired_deadline_aborts_the_wait() {
        let a = Admission::new(Some(100));
        let hold = CancelToken::new();
        a.acquire(100, &hold, || false).unwrap();
        let t = CancelToken::with_deadline(Duration::from_millis(5));
        let start = Instant::now();
        let err = a.acquire(50, &t, || false).unwrap_err();
        assert_eq!(err, AdmitError::Cancelled);
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn drain_aborts_the_wait() {
        let a = Arc::new(Admission::new(Some(100)));
        let hold = CancelToken::new();
        a.acquire(100, &hold, || false).unwrap();
        let draining = Arc::new(AtomicBool::new(false));
        let (a2, d2) = (a.clone(), draining.clone());
        let waiter = std::thread::spawn(move || {
            let t = CancelToken::new();
            a2.acquire(50, &t, move || d2.load(Ordering::Relaxed))
        });
        std::thread::sleep(Duration::from_millis(20));
        draining.store(true, Ordering::Relaxed);
        assert_eq!(
            waiter.join().expect("waiter thread").unwrap_err(),
            AdmitError::Draining
        );
    }

    #[test]
    fn grant_releases_on_drop() {
        let a = Admission::new(Some(100));
        a.acquire(60, &CancelToken::new(), || false).unwrap();
        {
            let _g = Grant::new(&a, 60);
            assert_eq!(a.used_bytes(), 60);
        }
        assert_eq!(a.used_bytes(), 0);
    }
}
