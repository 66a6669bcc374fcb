//! Seeded `pub-uncalled` violations: five public functions no non-test
//! code uses, and two that `pub_uncalled_caller.rs` uses.

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

/// Clean: the other fixture file takes it as a function pointer (a path
/// without a call).
pub fn used_as_pointer() -> u32 {
    4
}

pub struct Meter {
    pub reading: u32,
}

impl Meter {
    /// Flagged: a field, a parameter and a local share its name, and
    /// none of them is a use.
    pub fn reading(&self) -> u32 {
        self.reading
    }
}

fn doubled(reading: u32) -> u32 {
    let reading = reading * 2;
    reading
}

#[cfg(test)]
mod tests {
    #[test]
    fn pins_the_value() {
        assert_eq!(super::called_from_tests_only(), 2);
    }
}

/// Flagged: a trailing test module does not make what follows it test
/// code.
pub fn after_the_tests() -> u32 {
    5
}
