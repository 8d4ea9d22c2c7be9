//! A bounded multi-producer multi-consumer queue.
//!
//! `Mutex<VecDeque>` + `Condvar` — deliberately simple. The queue is
//! the service's admission-control point: producers never block
//! (`try_push` fails fast when full) while consumers block until work
//! arrives or the queue is closed.

use atsq_model::sync::{Condvar, Mutex};
use std::collections::VecDeque;

/// Why a push was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity; the item is handed back.
    Full(T),
    /// The queue was closed; the item is handed back.
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue. See the module docs.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        let queue = BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        };
        queue.inner.set_name("service.queue");
        queue
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum depth.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Non-blocking push; fails fast when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available and pops it (FIFO). Returns
    /// `None` once the queue is closed **and** empty — the consumer's
    /// signal to exit.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.available.wait(&mut inner);
        }
    }

    /// Closes the queue: future pushes fail, consumers drain what is
    /// left and then see `None`.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pops_in_fifo_order() {
        let q = BoundedQueue::new(10);
        for i in 0..7 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 7);
        let popped: Vec<i32> = (0..7).map(|_| q.pop().unwrap()).collect();
        assert_eq!(popped, (0..7).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_rejects() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.capacity(), 2);
        q.pop();
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_drains_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.close();
        assert_eq!(q.try_push(2), Err(PushError::Closed(2)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn concurrent_producers_consumers_deliver_everything() {
        let q = Arc::new(BoundedQueue::new(64));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = q.clone();
                std::thread::spawn(move || {
                    for i in 0..250u32 {
                        let v = p * 1000 + i;
                        loop {
                            match q.try_push(v) {
                                Ok(()) => break,
                                Err(PushError::Full(_)) => std::thread::yield_now(),
                                Err(PushError::Closed(_)) => panic!("closed early"),
                            }
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let mut want: Vec<u32> = (0..4)
            .flat_map(|p| (0..250).map(move |i| p * 1000 + i))
            .collect();
        want.sort_unstable();
        assert_eq!(all, want);
    }
}
