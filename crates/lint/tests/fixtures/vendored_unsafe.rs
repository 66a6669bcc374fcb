//! Fixture: a vendored stand-in. `unsafe-block` and the waiver ledger see
//! it: one unwaived block, one waived block. Every other rule is blind to
//! it, so the wall-clock read, the hash iteration, the unwrap in a
//! recovery-named function, the uncalled `pub fn` and the write-only
//! counter stay silent, and its call of `never_called` keeps nothing alive.

use std::collections::HashMap;
use std::time::Instant;

pub struct FixtureChurn {
    pub unread_by_any_test: u64,
}

pub fn nothing_calls_this() -> u64 {
    let started = Instant::now();
    let counts: HashMap<u32, u64> = HashMap::new();
    let total: u64 = counts.values().sum();
    total + started.elapsed().as_secs() + never_called().len() as u64
}

fn reissue(slot: Option<u8>) -> u8 {
    slot.unwrap()
}

fn raw(bytes: &[u8]) -> u8 {
    unsafe { *bytes.as_ptr() }
}

fn sound(bytes: &[u8; 1]) -> u8 {
    // lint:allow(unsafe-block): fixture-vendored block whose waiver states why it is sound
    unsafe { *bytes.as_ptr() }
}
