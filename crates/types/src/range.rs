//! Half-open, possibly wrapping ranges of the circular id namespace.
//!
//! Query dissemination (paper §3.3) repeatedly subdivides the namespace into
//! equal subranges; a range may wrap past the top of the namespace, and the
//! full namespace itself must be representable. We therefore store a start
//! point and an explicit *width* rather than two endpoints: `width == 0`
//! denotes the full namespace (a circumference of 2^128 does not fit in
//! `u128`), and an empty range is represented by `IdRange::EMPTY`.

use crate::id::Id;

/// A half-open arc `[start, start + width)` of the id circle.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct IdRange {
    start: Id,
    /// Arc width; `0` means the whole circle (width 2^128).
    width: u128,
    /// Distinguishes the empty range from the full circle (both would
    /// otherwise have `width == 0`).
    empty: bool,
}

impl IdRange {
    /// The whole namespace.
    pub const FULL: IdRange = IdRange {
        start: Id(0),
        width: 0,
        empty: false,
    };

    /// The empty range.
    pub const EMPTY: IdRange = IdRange {
        start: Id(0),
        width: 0,
        empty: true,
    };

    /// Range starting at `start`, covering `width` ids clockwise.
    /// `width == 0` yields the empty range.
    #[must_use]
    pub fn new(start: Id, width: u128) -> Self {
        if width == 0 {
            IdRange::EMPTY
        } else {
            IdRange {
                start,
                width,
                empty: false,
            }
        }
    }

    /// Half-open range `[lo, hi)` going clockwise from `lo`. If `lo == hi`
    /// the result is the empty range (use [`IdRange::FULL`] for the circle).
    #[must_use]
    pub fn between(lo: Id, hi: Id) -> Self {
        IdRange::new(lo, lo.cw_dist(hi))
    }

    /// The first id in the range (meaningless for the empty range).
    #[must_use]
    pub fn start(&self) -> Id {
        self.start
    }

    /// Arc width; `None` for the full circle (2^128 overflows `u128`).
    #[must_use]
    pub fn width(&self) -> Option<u128> {
        if self.empty {
            Some(0)
        } else if self.is_full() {
            None
        } else {
            Some(self.width)
        }
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.empty
    }

    #[must_use]
    pub fn is_full(&self) -> bool {
        !self.empty && self.width == 0
    }

    /// The last id inside the range.
    #[must_use]
    pub fn last(&self) -> Id {
        debug_assert!(!self.empty);
        if self.is_full() {
            self.start.wrapping_sub(1)
        } else {
            self.start.wrapping_add(self.width - 1)
        }
    }

    /// Does the range contain `id`?
    #[must_use]
    pub fn contains(&self, id: Id) -> bool {
        if self.empty {
            return false;
        }
        if self.is_full() {
            return true;
        }
        self.start.cw_dist(id) < self.width
    }

    /// The midpoint of the arc (rounding down). Used as the routing target
    /// when handing a subrange to some live endsystem inside it.
    #[must_use]
    pub fn midpoint(&self) -> Id {
        debug_assert!(!self.empty);
        if self.is_full() {
            self.start.wrapping_add(1u128 << 127)
        } else {
            self.start.wrapping_add(self.width / 2)
        }
    }

    /// Splits the range into `parts` near-equal consecutive subranges
    /// (clockwise order). The first `width % parts` subranges get one extra
    /// id so that the union is exactly `self` and subranges are disjoint.
    /// Empty subranges are omitted, so fewer than `parts` may be yielded
    /// for narrow ranges. Lazy: nothing is allocated.
    pub fn split(&self, parts: u32) -> impl Iterator<Item = IdRange> {
        assert!(parts >= 1, "cannot split into zero parts");
        let parts_u = u128::from(parts);
        // The full circle in one part is itself; its width, 2^128, is no
        // `u128` for the arithmetic below.
        let whole = (parts == 1 && self.is_full()).then_some(*self);
        let (base, rem) = if whole.is_some() {
            (0, 0)
        } else if self.is_full() {
            // 2^128 = (u128::MAX + 1) = parts * base + rem.
            let base = u128::MAX / parts_u;
            let rem = u128::MAX % parts_u + 1;
            // If rem == parts, fold one extra into base.
            if rem == parts_u {
                (base + 1, 0)
            } else {
                (base, rem)
            }
        } else {
            // The empty range has width 0, so it yields no part.
            (self.width / parts_u, self.width % parts_u)
        };
        let mut cursor = self.start;
        whole.into_iter().chain((0..parts_u).filter_map(move |i| {
            let w = base + u128::from(i < rem);
            if w == 0 {
                return None;
            }
            let part = IdRange::new(cursor, w);
            cursor = cursor.wrapping_add(w);
            Some(part)
        }))
    }
}

impl std::fmt::Display for IdRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.empty {
            write!(f, "[empty)")
        } else if self.is_full() {
            write!(f, "[full)")
        } else {
            write!(f, "[{}..+{:x})", self.start, self.width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_contains_everything() {
        assert!(IdRange::FULL.contains(Id(0)));
        assert!(IdRange::FULL.contains(Id(u128::MAX)));
        assert!(IdRange::FULL.is_full());
        assert!(!IdRange::FULL.is_empty());
    }

    #[test]
    fn empty_contains_nothing() {
        assert!(!IdRange::EMPTY.contains(Id(0)));
        assert!(IdRange::EMPTY.is_empty());
        assert_eq!(IdRange::between(Id(5), Id(5)), IdRange::EMPTY);
    }

    #[test]
    fn wrapping_range_contains() {
        let r = IdRange::between(Id(u128::MAX - 10), Id(10));
        assert!(r.contains(Id(u128::MAX)));
        assert!(r.contains(Id(0)));
        assert!(r.contains(Id(9)));
        assert!(!r.contains(Id(10)));
        assert!(!r.contains(Id(u128::MAX - 11)));
        assert_eq!(r.width(), Some(21));
    }

    #[test]
    fn split_partitions_exactly() {
        let r = IdRange::new(Id(100), 10);
        let parts: Vec<_> = r.split(3).collect();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], IdRange::new(Id(100), 4));
        assert_eq!(parts[1], IdRange::new(Id(104), 3));
        assert_eq!(parts[2], IdRange::new(Id(107), 3));
        // Union property on a sample of points.
        for v in 95..115u128 {
            let inside = r.contains(Id(v));
            let count = parts.iter().filter(|p| p.contains(Id(v))).count();
            assert_eq!(count, usize::from(inside), "id {v}");
        }
    }

    #[test]
    fn split_full_into_16() {
        let parts: Vec<_> = IdRange::FULL.split(16).collect();
        assert_eq!(parts.len(), 16);
        let each = 1u128 << 124;
        for (i, p) in parts.iter().enumerate() {
            assert_eq!(p.width(), Some(each));
            assert_eq!(p.start(), Id((i as u128) << 124));
        }
    }

    #[test]
    fn split_narrow_range_drops_empty_parts() {
        let r = IdRange::new(Id(0), 3);
        let parts: Vec<_> = r.split(16).collect();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|p| p.width() == Some(1)));
    }

    #[test]
    fn midpoint_and_last() {
        let r = IdRange::new(Id(10), 10);
        assert_eq!(r.midpoint(), Id(15));
        assert_eq!(r.last(), Id(19));
        let w = IdRange::between(Id(u128::MAX - 1), Id(2));
        assert_eq!(w.midpoint(), Id(0));
        assert_eq!(w.last(), Id(1));
        assert_eq!(IdRange::FULL.midpoint(), Id(1u128 << 127));
        assert_eq!(IdRange::FULL.last(), Id(u128::MAX));
    }
}
