//! One violation of each ban a deterministic crate is under, plus a
//! suppression that matches nothing. `scripts/check.sh` requires clippy
//! to report exactly these five, so a ban that stops binding — a path
//! dropped from `clippy.toml`, a lint level relaxed — fails the gate
//! the way a known-bad fixture would.

/// 1. `clippy::disallowed_types`: a hash collection, reached through an
///    alias (clippy resolves the path; the field below adds no second
///    diagnostic).
pub type Index = std::collections::HashMap<u32, u32>;

pub struct Table {
    pub by_id: Index,
}

/// 2. `clippy::disallowed_methods`: a wall-clock read.
pub fn stamp() -> std::time::Instant {
    std::time::Instant::now()
}

/// 3. `clippy::disallowed_methods`: a thread outside the sanctioned
///    modules.
pub fn fan_out() {
    std::thread::spawn(|| ()).join().expect("worker panicked");
}

/// 4. `unsafe_code`.
pub fn first(bytes: &[u8]) -> u8 {
    unsafe { *bytes.get_unchecked(0) }
}

/// 5. `unfulfilled_lint_expectations`: nothing here is disallowed.
#[expect(clippy::disallowed_methods, reason = "matches nothing")]
pub fn quiet() -> u64 {
    7
}
