//! The serving hot path's header, as in `om_serve::engine`.

#![cfg_attr(not(test), deny(
    clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo,
    clippy::unimplemented, clippy::indexing_slicing, clippy::string_slice, clippy::disallowed_macros,
))]

pub fn panics(v: &[u8], s: &str, o: Option<u8>, r: Result<u8, ()>) -> u8 {
    let a = o.unwrap(); // hit: clippy::unwrap_used
    let b = r.expect("seeded"); // hit: clippy::expect_used
    let c = v[1]; // hit: clippy::indexing_slicing
    let _ = &s[1..]; // hit: clippy::string_slice
    assert!(a > 0); // hit: clippy::disallowed_macros
    assert_eq!(a, b); // hit: clippy::disallowed_macros
    assert_ne!(a, c); // hit: clippy::disallowed_macros
    debug_assert!(c > 0); // hit: clippy::disallowed_macros
    match a {
        1 => panic!("seeded"), // hit: clippy::panic
        2 => unreachable!(), // hit: clippy::unreachable
        3 => todo!(), // hit: clippy::todo
        4 => unimplemented!(), // hit: clippy::unimplemented
        _ => a,
    }
}

#[cfg(test)]
mod tests {
    /// The deny is `cfg_attr(not(test), …)`: tests may panic.
    #[test]
    fn tests_may_panic() {
        assert_eq!("1".parse::<u8>().unwrap(), 1);
    }
}
