//! The bounded job queue between connection readers and the worker pool.
//!
//! A plain `Mutex<VecDeque>` + condvar: readers [`Queue::push`] (failing
//! fast with [`PushError::Full`] so the caller can answer `Overloaded`),
//! workers [`Queue::pop`] (blocking until a job arrives or the queue is
//! closed). [`Queue::close`] + [`Queue::take_remaining`] implement the
//! drain handshake: once closed, no job is ever handed to a worker again
//! and whatever was still parked is returned to the drainer for typed
//! `Draining` responses.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::lock;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; answer `Overloaded` with a retry hint.
    Full,
    /// The queue was closed (server draining); answer `Draining`.
    Closed,
}

struct Inner<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue with explicit close semantics.
pub struct Queue<T> {
    cap: usize,
    inner: Mutex<Inner<T>>,
    ready: Condvar,
}

impl<T> Queue<T> {
    /// A queue admitting at most `cap` parked jobs (`cap` is clamped to
    /// at least 1).
    pub fn new(cap: usize) -> Self {
        Queue {
            cap: cap.max(1),
            inner: Mutex::new(Inner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Parks a job, failing fast when the queue is full or closed.
    pub fn push(&self, job: T) -> Result<(), (T, PushError)> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err((job, PushError::Closed));
        }
        if inner.jobs.len() >= self.cap {
            return Err((job, PushError::Full));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Re-parks a recovered job, bypassing the capacity check: crash
    /// recovery must never drop work that was already accepted before
    /// the crash, even if the restart uses a smaller queue.
    pub fn push_unbounded(&self, job: T) -> Result<(), (T, PushError)> {
        let mut inner = lock(&self.inner);
        if inner.closed {
            return Err((job, PushError::Closed));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until a job is available (`Some`) or the queue is closed
    /// (`None`). After close, parked jobs are *not* handed out — they
    /// belong to [`Queue::take_remaining`].
    pub fn pop(&self) -> Option<T> {
        let mut inner = lock(&self.inner);
        loop {
            if inner.closed {
                return None;
            }
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            let (next, _timeout) = self
                .ready
                .wait_timeout(inner, Duration::from_millis(50))
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            inner = next;
        }
    }

    /// Closes the queue and wakes every blocked worker.
    pub fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }

    /// Drains whatever is still parked (used after [`Queue::close`]).
    pub fn take_remaining(&self) -> Vec<T> {
        lock(&self.inner).jobs.drain(..).collect()
    }

    /// Jobs currently parked.
    pub fn len(&self) -> usize {
        lock(&self.inner).jobs.len()
    }

    /// True when nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = Queue::new(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_refuses_fast() {
        let q = Queue::new(2);
        q.push(1).unwrap();
        q.push(2).unwrap();
        let (job, err) = q.push(3).unwrap_err();
        assert_eq!((job, err), (3, PushError::Full));
        // Recovery pushes bypass the cap.
        q.push_unbounded(4).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn close_wakes_blocked_workers_and_keeps_remaining() {
        let q = Arc::new(Queue::new(4));
        let q2 = q.clone();
        let worker = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(9).unwrap();
        assert_eq!(worker.join().expect("worker"), Some(9));

        q.push(1).unwrap();
        q.close();
        let q3 = q.clone();
        let blocked = std::thread::spawn(move || q3.pop());
        assert_eq!(blocked.join().expect("worker"), None, "closed pops None");
        assert_eq!(q.take_remaining(), vec![1]);
        assert!(matches!(q.push(2), Err((2, PushError::Closed))));
    }
}
