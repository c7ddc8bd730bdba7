//! Per-worker work-stealing deques.
//!
//! Each worker owns one [`WorkDeque`] seeded with its round-robin share
//! of the jobs. The owner pops from the **back** (LIFO — the jobs it was
//! seeded in reverse, so it drains its own share in ascending index
//! order); thieves steal from the **front** (FIFO — the far end of the
//! owner's sequence), so owner and thief touch opposite ends and rarely
//! contend on the same job.
//!
//! The deque is a `Mutex<VecDeque>` rather than a lock-free Chase–Lev
//! deque on purpose: every job in this workspace is coarse (a whole
//! per-service fit, a station's simulated campaign, a chunk decode), so
//! one uncontended lock per job is noise next to the job itself, and the
//! mutex keeps the implementation obviously correct. What matters for
//! scalability is the *scheduling discipline* (own-queue-first, steal on
//! empty), not the queue's synchronization primitive.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A single worker's job queue (see the module docs for the protocol).
#[derive(Debug, Default)]
pub struct WorkDeque<T> {
    inner: Mutex<VecDeque<T>>,
}

impl<T> WorkDeque<T> {
    /// Creates an empty deque.
    #[must_use]
    pub fn new() -> Self {
        WorkDeque {
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// A panicking worker poisons its deque mid-run; the panic is about
    /// to be propagated by the pool anyway, so other workers just keep
    /// draining the remaining jobs.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends a job at the owner's end (used only while seeding).
    pub fn push(&self, job: T) {
        self.lock().push_back(job);
    }

    /// Owner's claim: pops from the back.
    pub fn pop(&self) -> Option<T> {
        self.lock().pop_back()
    }

    /// Thief's claim: steals from the front.
    pub fn steal(&self) -> Option<T> {
        self.lock().pop_front()
    }

    /// Jobs currently queued (sampled for the queue-depth histogram).
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_pops_lifo_thief_steals_fifo() {
        let d = WorkDeque::new();
        for i in [3, 2, 1, 0] {
            d.push(i);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.pop(), Some(0)); // owner: back = last pushed
        assert_eq!(d.steal(), Some(3)); // thief: front = first pushed
        assert_eq!(d.pop(), Some(1));
        assert_eq!(d.steal(), Some(2));
        assert_eq!(d.len(), 0);
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
    }
}
