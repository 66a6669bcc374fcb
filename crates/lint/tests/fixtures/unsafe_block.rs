//! Fixture: `unsafe` in a behavior crate. Three real violations (a
//! block, an `unsafe fn`, and a block after the test module), one waived
//! block, plus decoys — the word in a comment, in a string literal, and
//! in test code — that must all stay silent.

fn read_raw(bytes: &[u8]) -> u64 {
    // An unsafe idea discussed in a comment must not count.
    let claim = "this string says unsafe and is inert";
    let _ = claim;
    let out;
    unsafe {
        out = bytes.as_ptr().cast::<u64>().read_unaligned();
    }
    out
}

unsafe fn raw_entry(p: *const u8) -> u8 {
    *p
}

fn sanctioned() {
    // lint:allow(unsafe-block): fixture-sanctioned block exercising the waiver ledger
    unsafe { std::arch::asm!("nop") }
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_side_unsafe_is_exempt() {
        let x = unsafe { super::read_raw(&[0u8; 8]) };
        assert_eq!(x, 0);
    }
}

/// A trailing test module does not exempt what follows it.
fn after_the_tests(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}
