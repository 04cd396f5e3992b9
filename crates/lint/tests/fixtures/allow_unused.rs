//! Marker fixture: the allow below suppresses nothing and must be
//! reported (D000) so dead exemptions cannot accumulate.

// lint:allow(D005): nothing on the next line sorts floats
fn clean() -> u64 {
    7
}
