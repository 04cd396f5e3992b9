//! Property-based tests for id arithmetic and namespace ranges.

use proptest::prelude::*;
use seaweed_types::{Id, IdRange};

proptest! {
    /// Reassembling an id from its digits reproduces the id, for every
    /// legal digit width.
    #[test]
    fn digits_roundtrip(v in any::<u128>(), b in prop::sample::select(vec![1u8, 2, 4, 8])) {
        let id = Id(v);
        let n = Id::num_digits(b);
        let mut rebuilt = Id::ZERO;
        for i in 0..n {
            rebuilt = rebuilt.with_digit(i, b, id.digit(i, b));
        }
        prop_assert_eq!(rebuilt, id);
    }

    /// prefix(k) and suffix(n-k) partition the bits of the id.
    #[test]
    fn prefix_suffix_partition(v in any::<u128>(), k in 0usize..=32) {
        let id = Id(v);
        let n = Id::num_digits(4);
        prop_assert_eq!(id.prefix(k, 4).0 | id.suffix(n - k, 4).0, id.0);
        prop_assert_eq!(id.prefix(k, 4).0 & id.suffix(n - k, 4).0, 0);
        prop_assert_eq!(id.concat(k, id, 4), id);
    }

    /// prefix_len is consistent with digit-by-digit comparison.
    #[test]
    fn prefix_len_matches_digits(a in any::<u128>(), b_v in any::<u128>()) {
        let (a, b) = (Id(a), Id(b_v));
        let l = a.prefix_len(b, 4);
        for i in 0..l {
            prop_assert_eq!(a.digit(i, 4), b.digit(i, 4));
        }
        if l < Id::num_digits(4) {
            prop_assert_ne!(a.digit(l, 4), b.digit(l, 4));
        }
    }

    /// Ring distance is symmetric, zero iff equal, and at most half the
    /// circle.
    #[test]
    fn ring_dist_properties(a in any::<u128>(), b in any::<u128>()) {
        let (x, y) = (Id(a), Id(b));
        prop_assert_eq!(x.ring_dist(y), y.ring_dist(x));
        prop_assert_eq!(x.ring_dist(x), 0);
        prop_assert!(x.ring_dist(y) <= 1u128 << 127);
        prop_assert_eq!(x.ring_dist(y) == 0, x == y);
    }

    /// cw_dist + ccw_dist is the full circle (mod 2^128) for distinct ids.
    #[test]
    fn cw_ccw_complement(a in any::<u128>(), b in any::<u128>()) {
        prop_assume!(a != b);
        let (x, y) = (Id(a), Id(b));
        prop_assert_eq!(x.cw_dist(y).wrapping_add(x.ccw_dist(y)), 0u128);
    }

    /// Splitting any range into k parts yields disjoint subranges whose
    /// widths sum to the original width, preserving order and coverage of
    /// sampled points.
    #[test]
    fn split_is_partition(
        start in any::<u128>(),
        width in 1u128..=u128::MAX,
        parts in 1u32..=32,
        probe in any::<u128>(),
    ) {
        let r = IdRange::new(Id(start), width);
        let subs: Vec<_> = r.split(parts).collect();
        prop_assert!(subs.len() <= parts as usize);
        let total: u128 = subs.iter().map(|s| s.width().unwrap()).sum();
        prop_assert_eq!(total, width);
        // Consecutive: each subrange starts where the previous ended.
        let mut cursor = Id(start);
        for s in &subs {
            prop_assert_eq!(s.start(), cursor);
            cursor = cursor.wrapping_add(s.width().unwrap());
        }
        // Membership of an arbitrary probe point is preserved exactly once.
        let p = Id(probe);
        let hits = subs.iter().filter(|s| s.contains(p)).count();
        prop_assert_eq!(hits, usize::from(r.contains(p)));
    }

    /// The full namespace splits into parts covering every probe exactly
    /// once.
    #[test]
    fn split_full_is_partition(parts in 1u32..=32, probe in any::<u128>()) {
        let subs: Vec<_> = IdRange::FULL.split(parts).collect();
        let hits = subs.iter().filter(|s| s.contains(Id(probe))).count();
        prop_assert_eq!(hits, 1);
    }

    /// A range contains its own start, last and midpoint.
    #[test]
    fn range_contains_landmarks(start in any::<u128>(), width in 1u128..u128::MAX) {
        let r = IdRange::new(Id(start), width);
        prop_assert!(r.contains(r.start()));
        prop_assert!(r.contains(r.last()));
        prop_assert!(r.contains(r.midpoint()));
        prop_assert!(!r.contains(r.start().wrapping_sub(1)));
        prop_assert!(!r.contains(r.last().wrapping_add(1)));
    }
}
