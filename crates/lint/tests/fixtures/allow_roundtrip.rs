//! Marker fixture: every violation carries a justified `lint:allow`,
//! exercising both placements (line above, same line).

fn rank(xs: &mut [f64]) {
    // lint:allow(D005): fixture exercises next-line suppression
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

fn rank_unstable(xs: &mut [f64]) {
    xs.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap()); // lint:allow(D005): fixture exercises same-line suppression
}
