//! Per-node Pastry state: leafset and routing table.

use std::ops::Deref;

use seaweed_sim::NodeIdx;
use seaweed_types::{Id, IdRange};

/// Hard cap on one leafset half: `OverlayConfig::leafset` may be at most
/// `2 × HALF_CAP` (the paper runs l = 8, i.e. 4 per side).
pub const HALF_CAP: usize = 8;

/// A short list of nodes stored inline: at most `N` entries, read through
/// `Deref<[NodeIdx]>`; being `Copy`, a snapshot costs no allocation.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Inline<const N: usize> {
    len: u8,
    slots: [NodeIdx; N],
}

/// One leafset half in [`NodeState`]: nearest neighbor first, no
/// duplicates.
pub type LeafHalf = Inline<HALF_CAP>;

/// [`NodeState::nearest_members`] collected: a node's replica set as its
/// own leafset shows it.
pub type ReplicaSet = Inline<{ 2 * HALF_CAP }>;

impl<const N: usize> Default for Inline<N> {
    fn default() -> Self {
        Inline {
            len: 0,
            slots: [NodeIdx(0); N],
        }
    }
}

impl<const N: usize> Deref for Inline<N> {
    type Target = [NodeIdx];

    fn deref(&self) -> &[NodeIdx] {
        &self.slots[..self.len as usize]
    }
}

impl<const N: usize> std::fmt::Debug for Inline<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<const N: usize> FromIterator<NodeIdx> for Inline<N> {
    fn from_iter<I: IntoIterator<Item = NodeIdx>>(iter: I) -> Self {
        let mut list = Self::default();
        iter.into_iter().for_each(|x| list.push(x));
        list
    }
}

impl<const N: usize> Inline<N> {
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends `x` as the farthest member.
    ///
    /// # Panics
    /// Panics if the list already holds `N` members.
    pub fn push(&mut self, x: NodeIdx) {
        self.slots[self.len as usize] = x;
        self.len += 1;
    }

    /// Inserts `x` at `pos`, keeping at most `half` members; returns the
    /// member pushed off the far end, if any. Requires `pos < half` and
    /// `half <= N`.
    pub fn insert_capped(&mut self, pos: usize, x: NodeIdx, half: usize) -> Option<NodeIdx> {
        let len = self.len as usize;
        debug_assert!(pos <= len && pos < half && half <= N);
        let evicted = (len == half).then(|| self.slots[len - 1]);
        let new_len = (len + 1).min(half);
        self.slots.copy_within(pos..new_len - 1, pos + 1);
        self.slots[pos] = x;
        self.len = new_len as u8;
        evicted
    }

    /// Removes the member at `pos`, closing the gap.
    pub fn remove(&mut self, pos: usize) {
        let len = self.len as usize;
        self.slots.copy_within(pos + 1..len, pos);
        self.len -= 1;
    }
}

/// Pastry state of one endsystem.
#[derive(Clone, Debug)]
pub struct NodeState {
    /// This node's endsystemId.
    pub id: Id,
    /// Has the node completed the join protocol since it last came up?
    pub joined: bool,
    /// Clockwise leafset half: nearest live neighbors in increasing ring
    /// distance (at most l/2).
    pub cw: LeafHalf,
    /// Counter-clockwise half, same ordering.
    pub ccw: LeafHalf,
    /// Routing table, flattened `rt[row * cols + digit]`, grown on write
    /// one whole row at a time. With random ids only the first
    /// ~log_{2^b}(N) rows ever fill, so eagerly allocating all `rows`
    /// rows (4 KB/endsystem at the default 32×16 geometry) would waste
    /// most of the per-endsystem budget; reads past the grown prefix are
    /// simply empty.
    rt: Vec<Option<NodeIdx>>,
    /// Row width (`2^b`); needed to index the flattened table.
    cols: u32,
}

impl NodeState {
    #[must_use]
    pub fn new(id: Id, _rows: usize, cols: usize) -> Self {
        NodeState {
            id,
            joined: false,
            cw: LeafHalf::default(),
            ccw: LeafHalf::default(),
            rt: Vec::new(),
            cols: cols as u32,
        }
    }

    /// Clears volatile state when the node goes down (metadata about the
    /// old incarnation must not leak into the next). Frees the routing
    /// table outright: a down endsystem holds no routing state.
    pub fn reset(&mut self) {
        self.joined = false;
        self.cw.clear();
        self.ccw.clear();
        self.rt = Vec::new();
    }

    /// Routing-table entry for (`row`, `col`); `None` beyond the grown
    /// prefix.
    #[must_use]
    pub fn rt_get(&self, row: usize, col: usize) -> Option<NodeIdx> {
        self.rt
            .get(row * self.cols as usize + col)
            .copied()
            .flatten()
    }

    /// Mutable slot for (`row`, `col`), growing the table (whole rows of
    /// `None`) on first touch.
    pub fn rt_slot_mut(&mut self, row: usize, col: usize) -> &mut Option<NodeIdx> {
        let cols = self.cols as usize;
        let need = (row + 1) * cols;
        if self.rt.len() < need {
            self.rt.resize(need, None);
        }
        &mut self.rt[row * cols + col]
    }

    /// One routing-table row (empty slice beyond the grown prefix).
    #[must_use]
    pub fn rt_row(&self, row: usize) -> &[Option<NodeIdx>] {
        let cols = self.cols as usize;
        let lo = (row * cols).min(self.rt.len());
        let hi = ((row + 1) * cols).min(self.rt.len());
        &self.rt[lo..hi]
    }

    /// All populated routing-table entries.
    pub fn rt_iter(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.rt.iter().flatten().copied()
    }

    /// Drops every routing-table reference to `gone`.
    pub fn rt_purge(&mut self, gone: NodeIdx) {
        for e in &mut self.rt {
            if *e == Some(gone) {
                *e = None;
            }
        }
    }

    /// All current leafset members (both halves). In a ring of at most
    /// l/2 + 1 nodes a member sits in *both* halves and is yielded twice;
    /// see [`NodeState::members`].
    pub fn leafset(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        self.cw.iter().chain(self.ccw.iter()).copied()
    }

    /// Deduplicated leafset members: the clockwise half, then the
    /// counter-clockwise members not already seen.
    pub fn members(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        dedup_members(&self.cw, &self.ccw)
    }

    /// Deduplicated leafset members, ring-closest to this node first with
    /// the smaller id breaking a tie (`ids[n]` is node `n`'s id).
    pub fn nearest_members<'a>(&'a self, ids: &'a [Id]) -> impl Iterator<Item = NodeIdx> + 'a {
        // No member is farther than half the ring, so this sorts last.
        const TAKEN: (u128, u128) = (u128::MAX, 0);
        let key = move |m: Option<&NodeIdx>| {
            m.map_or(TAKEN, |m| (ids[m.idx()].ring_dist(self.id), ids[m.idx()].0))
        };
        let mut halves: [&[NodeIdx]; 2] = [&self.cw, &self.ccw];
        // A half ascends by its own direction's distance, so by ring
        // distance it rises up to the exactly-opposite point and falls
        // after it: its nearest remaining member is at one of its ends. A
        // member of both halves has one key, so its two copies come out
        // back to back. The four ends' keys — front and back of `cw`,
        // front and back of `ccw` — are carried from one output to the
        // next: taking a member re-keys the one end it was taken from.
        let mut ends = [
            key(self.cw.first()),
            key(self.cw.last()),
            key(self.ccw.first()),
            key(self.ccw.last()),
        ];
        let mut last = None;
        std::iter::from_fn(move || loop {
            let mut e = 0;
            for other in 1..4 {
                if ends[other] < ends[e] {
                    e = other;
                }
            }
            let (h, back) = (e / 2, e % 2 == 1);
            let (&m, rest) = if back {
                halves[h].split_last()
            } else {
                halves[h].split_first()
            }?;
            halves[h] = rest;
            ends[e] = key(if back { rest.last() } else { rest.first() });
            if rest.is_empty() {
                // The half's one remaining member was both of its ends.
                ends[e ^ 1] = TAKEN;
            }
            if last.replace(m) != Some(m) {
                return Some(m);
            }
        })
    }

    /// True if `n` is in the leafset.
    #[must_use]
    pub fn in_leafset(&self, n: NodeIdx) -> bool {
        self.cw.contains(&n) || self.ccw.contains(&n)
    }

    /// Removes `n` from the leafset; returns whether it was present.
    pub fn remove_from_leafset(&mut self, n: NodeIdx) -> bool {
        let mut removed = false;
        if let Some(p) = self.cw.iter().position(|&x| x == n) {
            self.cw.remove(p);
            removed = true;
        }
        if let Some(p) = self.ccw.iter().position(|&x| x == n) {
            self.ccw.remove(p);
            removed = true;
        }
        removed
    }

    /// The namespace range this node is responsible for — keys closer to
    /// it than to its nearest live neighbor on either side. A node with
    /// no neighbors owns the full namespace.
    #[must_use]
    pub fn responsible_range(&self, ids: &[Id]) -> IdRange {
        match (self.ccw.first(), self.cw.first()) {
            (None, None) => IdRange::FULL,
            (ccw, cw) => {
                // Fall back to the other side's neighbor when one half is
                // empty (2-node networks).
                let pred = ids[ccw.or(cw).expect("nonempty").idx()];
                let succ = ids[cw.or(ccw).expect("nonempty").idx()];
                let lo = ring_midpoint(pred, self.id);
                let hi = ring_midpoint(self.id, succ);
                if lo == hi {
                    // Two-node ring: split the circle in half.
                    IdRange::new(lo, 1u128 << 127)
                } else {
                    IdRange::between(lo, hi)
                }
            }
        }
    }
}

/// `cw` followed by the members of `ccw` not in `cw` (each half is
/// duplicate-free on its own).
pub(crate) fn dedup_members<'a>(
    cw: &'a [NodeIdx],
    ccw: &'a [NodeIdx],
) -> impl Iterator<Item = NodeIdx> + 'a {
    let fresh = ccw.iter().filter(move |m| !cw.contains(m));
    cw.iter().chain(fresh).copied()
}

/// Midpoint of the clockwise arc from `a` to `b` (exclusive of wrap
/// ambiguity: if `a == b` the result is `a`).
#[must_use]
pub fn ring_midpoint(a: Id, b: Id) -> Id {
    a.wrapping_add(a.cw_dist(b) / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn half(members: &[u32]) -> LeafHalf {
        let mut h = LeafHalf::default();
        for &m in members {
            h.push(NodeIdx(m));
        }
        h
    }

    #[test]
    fn leafset_membership_ops() {
        let mut n = NodeState::new(Id(100), 32, 16);
        n.cw = half(&[1, 2]);
        n.ccw = half(&[3]);
        assert!(n.in_leafset(NodeIdx(2)));
        assert!(!n.in_leafset(NodeIdx(9)));
        assert_eq!(n.leafset().count(), 3);
        assert!(n.remove_from_leafset(NodeIdx(2)));
        assert!(!n.remove_from_leafset(NodeIdx(2)));
        assert_eq!(n.leafset().count(), 2);
    }

    #[test]
    fn leaf_half_insert_evicts_the_farthest() {
        let mut h = half(&[1, 2, 3]);
        assert_eq!(h.insert_capped(3, NodeIdx(4), 4), None);
        assert_eq!(&*h, &[NodeIdx(1), NodeIdx(2), NodeIdx(3), NodeIdx(4)]);
        assert_eq!(h.insert_capped(1, NodeIdx(9), 4), Some(NodeIdx(4)));
        assert_eq!(&*h, &[NodeIdx(1), NodeIdx(9), NodeIdx(2), NodeIdx(3)]);
        assert_eq!(h.insert_capped(3, NodeIdx(7), 4), Some(NodeIdx(3)));
        assert_eq!(&*h, &[NodeIdx(1), NodeIdx(9), NodeIdx(2), NodeIdx(7)]);
        h.remove(0);
        assert_eq!(&*h, &[NodeIdx(9), NodeIdx(2), NodeIdx(7)]);
        h.clear();
        assert!(h.is_empty());
    }

    #[test]
    fn members_dedups_a_node_in_both_halves() {
        let mut n = NodeState::new(Id(100), 32, 16);
        n.cw = half(&[1, 2]);
        n.ccw = half(&[2, 1, 3]);
        assert_eq!(n.leafset().count(), 5);
        let members: Vec<NodeIdx> = n.members().collect();
        assert_eq!(members, [NodeIdx(1), NodeIdx(2), NodeIdx(3)]);
    }

    #[test]
    fn reset_clears_everything() {
        let mut n = NodeState::new(Id(5), 2, 4);
        n.joined = true;
        n.cw.push(NodeIdx(1));
        *n.rt_slot_mut(0, 3) = Some(NodeIdx(2));
        assert_eq!(n.rt_get(0, 3), Some(NodeIdx(2)));
        n.reset();
        assert!(!n.joined);
        assert_eq!(n.leafset().count(), 0);
        assert_eq!(n.rt_iter().count(), 0);
    }

    #[test]
    fn midpoint_on_ring() {
        assert_eq!(ring_midpoint(Id(10), Id(20)), Id(15));
        // Wrapping arc.
        assert_eq!(ring_midpoint(Id(u128::MAX - 1), Id(4)), Id(1));
        assert_eq!(ring_midpoint(Id(7), Id(7)), Id(7));
    }

    #[test]
    fn responsible_range_with_neighbors() {
        let ids = vec![Id(0), Id(100), Id(200)];
        let mut n = NodeState::new(Id(100), 32, 16);
        // Node 1 (id 100) between node 0 (id 0) and node 2 (id 200).
        n.ccw.push(NodeIdx(0));
        n.cw.push(NodeIdx(2));
        let r = n.responsible_range(&ids);
        assert!(r.contains(Id(100)));
        assert!(r.contains(Id(50)));
        assert!(r.contains(Id(149)));
        assert!(!r.contains(Id(49)));
        assert!(!r.contains(Id(150)));
    }

    #[test]
    fn responsible_range_singleton_and_pair() {
        let ids = vec![Id(0), Id(1u128 << 127)];
        let lone = NodeState::new(Id(0), 32, 16);
        assert!(lone.responsible_range(&ids).is_full());

        let mut a = NodeState::new(Id(0), 32, 16);
        a.cw.push(NodeIdx(1));
        let r = a.responsible_range(&ids);
        // Owns half the ring (the exact midpoint is a boundary tie that
        // goes to the clockwise neighbor).
        assert!(r.contains(Id(0)));
        assert!(r.contains(Id((1u128 << 126) - 1)));
        assert!(!r.contains(Id(1u128 << 127)));
    }
}
