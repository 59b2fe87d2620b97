//! Monotonic timestamps, nanoseconds since a process-wide anchor.
//!
//! The anchor is the first call site, so timestamps are small, strictly
//! non-decreasing and comparable across threads — exactly what span
//! records and the Chrome trace need. Wall-clock time never enters the
//! event stream (determinism: two runs of the same seed differ only in
//! timing fields, never in model-visible values).

#![expect(clippy::disallowed_types, reason = "the workspace's one sanctioned monotonic clock")]

use std::sync::OnceLock;
use std::time::Instant;

static ANCHOR: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process anchor (the first `now_ns` call).
#[inline]
pub fn now_ns() -> u64 {
    ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_and_anchored() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
