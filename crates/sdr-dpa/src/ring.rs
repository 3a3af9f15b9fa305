//! Per-worker completion rings.
//!
//! The multi-channel design (§3.4.1) maps each transport channel to its own
//! completion queue, polled by a dedicated DPA worker thread. Here each
//! worker owns one lock-free ring; the sender side pushes packet-completion
//! records round-robin across rings, exactly like packets striped across
//! channel QPs land in separate CQs.

use crossbeam::queue::ArrayQueue;
use sdr_core::table::RecvCqe;
use std::sync::Arc;

/// A bounded MPSC completion ring (one consumer: the owning worker).
pub struct CqeRing {
    queue: ArrayQueue<RecvCqe>,
}

impl CqeRing {
    /// Creates a ring holding up to `capacity` completions.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(CqeRing {
            queue: ArrayQueue::new(capacity),
        })
    }

    /// Pushes a completion, spinning (with yields) on backpressure —
    /// the NIC-side equivalent of CQ flow control.
    pub fn push_blocking(&self, cqe: RecvCqe) {
        let mut backoff = 0u32;
        while self.queue.push(cqe).is_err() {
            backoff += 1;
            if backoff > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Attempts to push without blocking.
    pub fn try_push(&self, cqe: RecvCqe) -> bool {
        self.queue.push(cqe).is_ok()
    }

    /// Pops the next completion, if any.
    pub fn pop(&self) -> Option<RecvCqe> {
        self.queue.pop()
    }

    /// Drains up to `budget` completions into `out`, returning how many
    /// were taken — the §3.4.2 batched poll: one drain feeds one
    /// [`process_batch`](sdr_core::table::RecvTable::process_batch) pass that
    /// coalesces bitmap updates and chunk publishes.
    pub fn pop_batch(&self, out: &mut Vec<RecvCqe>, budget: usize) -> usize {
        let mut taken = 0;
        while taken < budget {
            match self.queue.pop() {
                Some(cqe) => {
                    out.push(cqe);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// True when no completions are queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_consumer() {
        let ring = CqeRing::new(16);
        for i in 0..10u32 {
            assert!(ring.try_push(RecvCqe::landed(i, 0)));
        }
        for i in 0..10u32 {
            assert_eq!(ring.pop().unwrap().imm, i);
        }
        assert!(ring.pop().is_none());
    }

    #[test]
    fn bounded_capacity() {
        let ring = CqeRing::new(4);
        for i in 0..4u32 {
            assert!(ring.try_push(RecvCqe::landed(i, 0)));
        }
        assert!(!ring.try_push(RecvCqe::landed(99, 0)));
        ring.pop();
        assert!(ring.try_push(RecvCqe::landed(99, 0)));
    }

    #[test]
    fn push_blocking_unblocks_concurrently() {
        let ring = CqeRing::new(2);
        ring.try_push(RecvCqe::landed(0, 0));
        ring.try_push(RecvCqe::landed(1, 0));
        let r2 = ring.clone();
        let producer = std::thread::spawn(move || r2.push_blocking(RecvCqe::landed(2, 0)));
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(ring.pop().unwrap().imm, 0);
        producer.join().unwrap();
        assert_eq!(ring.pop().unwrap().imm, 1);
        assert_eq!(ring.pop().unwrap().imm, 2);
    }
}
