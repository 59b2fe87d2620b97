//! Microbatching request scheduler.
//!
//! Requests accumulate until either `batch` of them are pending or the
//! oldest has waited `wait_us` microseconds; each flush then scores as
//! one batch on the tensor runtime's worker pool (amortising the GEMM
//! against the item arena over the whole batch).
//!
//! The batcher is deliberately *synchronous*: the serving loop pumps it
//! with [`Microbatcher::submit`] / [`Microbatcher::poll`] and executes
//! flushed batches itself. No thread is spawned here — compute fans out
//! inside the kernels via `om_tensor::runtime` — and time is passed in by
//! the caller, so a replay under a virtual clock is exactly reproducible
//! (and testable) while production callers pass a monotonic clock.
//!
//! The batcher is generic over its item type (defaulting to [`Request`]):
//! the threaded front-end batches requests *wrapped with their telemetry
//! stamps* (admission and dequeue timestamps for the per-stage latency
//! attribution), while the synchronous replay paths keep batching plain
//! [`Request`]s. Batching policy cannot depend on the payload, so the
//! wrapper provably changes no flush boundary.

// Serving hot path: a panic kills the worker and its queue. Tests may panic.
#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo,
    clippy::unimplemented, clippy::indexing_slicing, clippy::string_slice, clippy::disallowed_macros,
))]

use crate::engine::Request;

/// Accumulates items and decides when a batch is due.
pub struct Microbatcher<T = Request> {
    pending: Vec<T>,
    batch: usize,
    wait_us: u64,
    oldest_us: u64,
}

impl<T> Microbatcher<T> {
    /// A batcher flushing at `batch` pending requests or `wait_us`
    /// microseconds of queueing, whichever comes first. `batch == 1`
    /// degenerates to unbatched serving.
    pub fn new(batch: usize, wait_us: u64) -> Microbatcher<T> {
        Microbatcher {
            pending: Vec::with_capacity(batch.max(1)),
            batch: batch.max(1),
            wait_us,
            oldest_us: 0,
        }
    }

    /// Enqueue a request arriving at `now_us`. Returns the batch to score
    /// when this arrival filled it.
    pub fn submit(&mut self, req: T, now_us: u64) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            self.oldest_us = now_us;
        }
        self.pending.push(req);
        if self.pending.len() >= self.batch {
            self.take()
        } else {
            None
        }
    }

    /// Flush if the oldest pending request has waited out the deadline.
    pub fn poll(&mut self, now_us: u64) -> Option<Vec<T>> {
        if !self.pending.is_empty() && now_us.saturating_sub(self.oldest_us) >= self.wait_us {
            self.take()
        } else {
            None
        }
    }

    /// Unconditionally flush whatever is pending (end of trace/shutdown).
    pub fn drain(&mut self) -> Option<Vec<T>> {
        if self.pending.is_empty() {
            None
        } else {
            self.take()
        }
    }

    /// Number of requests currently queued.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Arrival time of the oldest queued request (meaningful only while
    /// `pending() > 0`).
    pub fn oldest_us(&self) -> u64 {
        self.oldest_us
    }

    fn take(&mut self) -> Option<Vec<T>> {
        Some(std::mem::take(&mut self.pending))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use om_data::types::UserId;

    fn req(id: u64) -> Request {
        Request {
            id,
            user: UserId(id as u32),
            arrive_us: 0,
        }
    }

    #[test]
    fn flushes_when_batch_fills() {
        let mut b = Microbatcher::new(3, 1_000);
        assert!(b.submit(req(1), 10).is_none());
        assert!(b.submit(req(2), 11).is_none());
        let batch = b.submit(req(3), 12).expect("third arrival fills the batch");
        assert_eq!(batch.iter().map(|r| r.id).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn flushes_when_oldest_waits_out_the_deadline() {
        let mut b = Microbatcher::new(100, 500);
        assert!(b.submit(req(1), 1_000).is_none());
        assert!(b.poll(1_499).is_none(), "deadline not yet reached");
        let batch = b.poll(1_500).expect("oldest waited 500us");
        assert_eq!(batch.len(), 1);
        // The deadline tracks the *oldest* arrival, not the newest.
        assert!(b.submit(req(2), 2_000).is_none());
        assert!(b.submit(req(3), 2_400).is_none());
        assert!(b.poll(2_499).is_none());
        assert_eq!(b.poll(2_500).expect("flush").len(), 2);
    }

    #[test]
    fn drain_returns_the_remainder() {
        let mut b = Microbatcher::new(10, 1_000);
        assert!(b.drain().is_none());
        b.submit(req(1), 0);
        b.submit(req(2), 1);
        assert_eq!(b.drain().expect("remainder").len(), 2);
        assert!(b.drain().is_none());
    }

    #[test]
    fn batch_of_one_is_unbatched_serving() {
        let mut b = Microbatcher::new(1, 1_000);
        assert_eq!(b.submit(req(9), 5).expect("immediate flush").len(), 1);
    }

    #[test]
    fn generic_items_batch_identically_to_requests() {
        // The front-end batches a stamped wrapper; same policy, any T.
        let mut b: Microbatcher<(u64, &str)> = Microbatcher::new(2, 100);
        assert!(b.submit((1, "a"), 0).is_none());
        let batch = b.submit((2, "b"), 1).expect("fills at 2");
        assert_eq!(batch, vec![(1, "a"), (2, "b")]);
        assert!(b.submit((3, "c"), 10).is_none());
        assert_eq!(b.poll(110).expect("deadline flush").len(), 1);
    }
}
