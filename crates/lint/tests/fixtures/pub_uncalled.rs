//! Seeded `pub-uncalled` violations: three public functions no non-test
//! code calls, and one that `pub_uncalled_caller.rs` calls.

mod inner {
    /// Flagged: the `pub use` below names it but calls nothing.
    pub fn reexported_only() -> u32 {
        1
    }
}

pub use inner::reexported_only;

/// Flagged: no call anywhere. Its name in this comment, never_called(),
/// and in the string below does not count.
pub fn never_called() -> &'static str {
    "never_called()"
}

/// Flagged: only the test module calls it.
pub fn called_from_tests_only() -> u32 {
    2
}

/// Clean: called from the other fixture file.
pub fn called_elsewhere() -> u32 {
    3
}

#[cfg(test)]
mod tests {
    #[test]
    fn pins_the_value() {
        assert_eq!(super::called_from_tests_only(), 2);
    }
}
