//! Seeded hits for every `clippy.toml` entry and every workspace lint
//! level. `tests/clippy_rules.rs` expects clippy to report exactly the
//! lint each trailing `hit:` comment names, on that comment's line, and
//! nothing else. Nothing here runs.

pub mod hot_path;
pub mod unsafe_ok;

pub fn wall_clock_and_hashing() {
    let _ = std::collections::HashMap::<u8, u8>::new(); // hit: clippy::disallowed_types
    let _ = std::collections::HashSet::<u8>::new(); // hit: clippy::disallowed_types
    let _ = std::hash::RandomState::new(); // hit: clippy::disallowed_types
    let _ = std::time::Instant::now(); // hit: clippy::disallowed_types
    let _ = std::time::SystemTime::now(); // hit: clippy::disallowed_types
}

pub fn threads() {
    let _ = std::thread::spawn(|| {}); // hit: clippy::disallowed_methods
    let _ = std::thread::Builder::new().spawn(|| {}); // hit: clippy::disallowed_methods
    std::thread::scope(|s| {
        let _ = s.spawn(|| {}); // hit: clippy::disallowed_methods
        let _ = std::thread::Builder::new().spawn_scoped(s, || {}); // hit: clippy::disallowed_methods
    });
}

/// A method named `spawn` that starts no thread: matched by path, not by
/// name, so it is silent.
pub struct Frontend;

impl Frontend {
    pub fn spawn() -> Frontend {
        Frontend
    }
}

pub fn wrapper_call() -> Frontend {
    Frontend::spawn()
}

/// Assertions are banned only in the hot path (`disallowed_macros` is
/// allowed workspace-wide): silent here.
pub fn assert_outside_the_hot_path(x: u8) {
    assert!(x > 0);
}

pub fn unsafe_outside_the_allowed_modules(x: &u8) -> u8 {
    let p: *const u8 = x;
    // SAFETY: `p` comes from a live reference.
    unsafe { *p } // hit: unsafe_code
}

#[allow(dead_code)] // hit: clippy::allow_attributes_without_reason
fn reasonless_allow() {}

#[expect(dead_code)] // hit: clippy::allow_attributes_without_reason
fn reasonless_expect() {}

#[expect(dead_code, reason = "the accepted exception: silent")]
fn argued_expect() {}

#[expect(clippy::disallowed_types, reason = "stale: nothing below uses a banned type")] // hit: unfulfilled_lint_expectations
pub fn stale_expect() {}
