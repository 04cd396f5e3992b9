//! Marker fixture: a reason-less allow is malformed — it must be
//! reported (D000) and must NOT suppress the finding beneath it.

fn rank(xs: &mut [f64]) {
    // lint:allow(D005)
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}
