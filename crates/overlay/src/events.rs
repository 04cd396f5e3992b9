//! The overlay → application event hand-off.

use std::collections::VecDeque;

use crate::overlay::OverlayEvent;

/// A FIFO of [`OverlayEvent`]s with its first element stored inline.
///
/// Every overlay handler returns one. Almost all of them surface zero
/// events (leafset maintenance) or exactly one (an application message
/// delivered), so that hand-off — and the application's drain loop over
/// it — never touches the allocator; only a second queued event spills
/// to the heap.
#[derive(Debug)]
pub struct OverlayEvents<A> {
    /// The oldest queued event, if `rest` has not taken over: `first`
    /// always precedes everything in `rest`.
    first: Option<OverlayEvent<A>>,
    rest: VecDeque<OverlayEvent<A>>,
}

impl<A> Default for OverlayEvents<A> {
    fn default() -> Self {
        OverlayEvents {
            first: None,
            rest: VecDeque::new(),
        }
    }
}

impl<A> OverlayEvents<A> {
    /// The empty list.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A list holding just `ev`.
    #[must_use]
    pub fn one(ev: OverlayEvent<A>) -> Self {
        OverlayEvents {
            first: Some(ev),
            rest: VecDeque::new(),
        }
    }

    /// Appends `ev` at the back.
    pub fn push(&mut self, ev: OverlayEvent<A>) {
        if self.first.is_none() && self.rest.is_empty() {
            self.first = Some(ev);
        } else {
            self.rest.push_back(ev);
        }
    }

    /// Removes and returns the oldest event.
    pub fn pop_front(&mut self) -> Option<OverlayEvent<A>> {
        self.first.take().or_else(|| self.rest.pop_front())
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.first.is_none() && self.rest.is_empty()
    }

    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// The queued events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &OverlayEvent<A>> {
        self.first.iter().chain(&self.rest)
    }
}

impl<A> Extend<OverlayEvent<A>> for OverlayEvents<A> {
    fn extend<I: IntoIterator<Item = OverlayEvent<A>>>(&mut self, iter: I) {
        for ev in iter {
            self.push(ev);
        }
    }
}

impl<A> IntoIterator for OverlayEvents<A> {
    type Item = OverlayEvent<A>;
    type IntoIter = std::iter::Chain<
        std::option::IntoIter<OverlayEvent<A>>,
        std::collections::vec_deque::IntoIter<OverlayEvent<A>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaweed_sim::NodeIdx;

    fn joined(i: u32) -> OverlayEvent<u64> {
        OverlayEvent::Joined { node: NodeIdx(i) }
    }

    fn node_of(ev: &OverlayEvent<u64>) -> u32 {
        match ev {
            OverlayEvent::Joined { node } => node.0,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fifo_order_survives_interleaved_pushes_and_pops() {
        let mut q = OverlayEvents::one(joined(0));
        q.push(joined(1));
        q.push(joined(2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_front().as_ref().map(node_of), Some(0));
        // The inline slot is free but older events wait in the spill
        // queue: a new event must queue behind them.
        q.push(joined(3));
        assert_eq!(q.iter().map(node_of).collect::<Vec<_>>(), [1, 2, 3]);
        q.extend(OverlayEvents::one(joined(4)));
        assert_eq!(
            q.into_iter().map(|e| node_of(&e)).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
    }

    #[test]
    fn drains_to_empty_and_refills_inline() {
        let mut q = OverlayEvents::new();
        assert!(q.is_empty());
        assert!(q.pop_front().is_none());
        q.push(joined(7));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_front().as_ref().map(node_of), Some(7));
        assert!(q.is_empty());
    }
}
