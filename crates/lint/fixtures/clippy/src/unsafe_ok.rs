//! A module allowed to hold `unsafe`, like `om_tensor::runtime`.

#![expect(unsafe_code, reason = "the accepted exception: silent")]

/// # Safety
///
/// `p` must be valid for reads.
pub unsafe fn documented(p: *const u8) -> u8 {
    // SAFETY: the caller upholds this fn's contract.
    unsafe { private_undocumented(p) }
}

unsafe fn private_undocumented(p: *const u8) -> u8 { // hit: clippy::missing_safety_doc
    *p // hit: E0133 (`unsafe_op_in_unsafe_fn` reports under rustc's error code)
}

pub fn no_safety_comment(x: &u8) -> u8 {
    let p: *const u8 = x;
    unsafe { *p } // hit: clippy::undocumented_unsafe_blocks
}
