//! A bounded MPMC work queue with typed rejection.
//!
//! The deliberate design point: a full queue **refuses** instead of
//! blocking the submitter. Submission happens on connection-handler
//! threads; blocking there would turn overload into client-visible hangs.
//! [`BoundedQueue::try_push`] returns the item back so the caller can map
//! it to [`crate::error::ServeError::QueueFull`] promptly. Workers block on
//! [`BoundedQueue::pop`], which parks on a condvar until work arrives or
//! the queue closes for shutdown.
//!
//! The lock tolerates poison: each critical section is one push, pop or
//! flag store, so a panicking holder cannot leave the queue half-updated.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity multi-producer multi-consumer queue.
pub struct BoundedQueue<T> {
    capacity: usize,
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            capacity: capacity.max(1),
            state: Mutex::new(State {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items currently waiting.
    pub fn len(&self) -> usize {
        self.state().items.len()
    }

    /// `true` when no items are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `item`, or returns it back when the queue is full or
    /// closed. Never blocks.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state();
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until an item is available (returning it) or the queue is
    /// closed and drained (returning `None` — the worker's exit signal).
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state();
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes are refused, and workers drain the
    /// remaining items before [`BoundedQueue::pop`] returns `None`.
    pub fn close(&self) {
        self.state().closed = true;
        self.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn full_queue_refuses_without_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
    }

    #[test]
    fn capacity_is_clamped_to_one() {
        let q = BoundedQueue::new(0);
        assert_eq!(q.capacity(), 1);
        assert_eq!(q.try_push(7), Ok(()));
        assert_eq!(q.try_push(8), Err(8));
    }

    #[test]
    fn close_drains_then_signals_workers() {
        let q = BoundedQueue::new(8);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.try_push(3), Err(3), "closed queue refuses new work");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_poisoned_lock_still_pushes_and_pops() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(1).unwrap();
        let poisoner = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let _guard = q.state.lock().unwrap();
                panic!("poison the queue lock");
            })
        };
        assert!(poisoner.join().is_err());
        assert!(q.state.is_poisoned());
        assert_eq!(q.try_push(2), Ok(()));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn workers_park_until_work_arrives() {
        let q = Arc::new(BoundedQueue::new(4));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(item) = q.pop() {
                    got.push(item);
                }
                got
            })
        };
        for i in 0..32 {
            // Spin until the slot frees; capacity 4 forces interleaving.
            let mut item = i;
            while let Err(back) = q.try_push(item) {
                item = back;
                std::thread::yield_now();
            }
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
    }
}
