//! Hot-state containers for the protocol layer.
//!
//! Every per-query/per-node table the handlers touch on the hot path
//! lives in one of the stores below: state in cells addressed by dense
//! `u32` node index and query slot (`Vec`s indexed directly) or per-query
//! slab slots, so the common operations — "this node went down, drop its
//! soft state", "this query expired, drop everything it owns", point
//! lookups keyed by a node the caller already holds as a dense index —
//! touch only the entries involved instead of walking a map of the whole
//! world.
//!
//! Iteration order is part of the protocol's determinism contract: each
//! store iterates in exactly the order of one workspace-wide `BTreeMap`
//! keyed by the full composite tuple (`(node, query, start, width)` and
//! friends) — node-major rows of query-ordered sorted cells replay the
//! `(node, query, ...)` lexicographic order, per-query vertex maps the
//! `(query, id)` order. The proptest at the bottom of this file drives
//! each store against such a map, operation by operation.

use std::collections::BTreeMap;

use seaweed_types::{Id, Time};

use super::{DissemTask, PendingSubmit, QueryHandle, TaskKey, TimerAction, VertexState};

/// A key whose first component is the dense index of the endsystem that
/// owns the entry and whose second is the query it belongs to.
pub(crate) trait NodeKey: Copy {
    /// The key without its node and query: what a cell orders by.
    type Tail: Ord + Copy + std::fmt::Debug;
    fn split(self) -> (u32, QueryHandle, Self::Tail);
    fn join(node: u32, query: QueryHandle, tail: Self::Tail) -> Self;
}

impl NodeKey for TaskKey {
    type Tail = (u128, u128);
    fn split(self) -> (u32, QueryHandle, Self::Tail) {
        (self.0, self.1, (self.2, self.3))
    }
    fn join(node: u32, query: QueryHandle, (start, width): Self::Tail) -> Self {
        (node, query, start, width)
    }
}

impl NodeKey for SubmitKey {
    type Tail = u128;
    fn split(self) -> (u32, QueryHandle, Self::Tail) {
        (self.0, self.1, self.2)
    }
    fn join(node: u32, query: QueryHandle, child: Self::Tail) -> Self {
        (node, query, child)
    }
}

/// `(submitting node, query, child key)`.
pub(crate) type SubmitKey = (u32, QueryHandle, u128);

/// Entries in cells addressed `[node][query slot]`, each cell the handful
/// of entries one endsystem holds for one query, sorted by the rest of
/// the key. A lookup is two indexings and a search of that handful;
/// node-death cleanup drops one row, query expiry one cell per row —
/// neither reads an entry it does not drop. (A row is as long as the
/// highest slot its endsystem has held an entry for: 24 bytes a slot.)
#[derive(Debug)]
pub(crate) struct NodeStore<K: NodeKey, V> {
    cells: Vec<Vec<Cell<K, V>>>,
    len: usize,
}

type Cell<K, V> = Vec<(<K as NodeKey>::Tail, V)>;

/// Dissemination tasks, keyed `(node, query, range start, range width)`.
pub(crate) type TaskStore = NodeStore<TaskKey, DissemTask>;

/// In-flight upward submissions, keyed `(node, query, child key)`.
pub(crate) type SubmitStore = NodeStore<SubmitKey, PendingSubmit>;

impl<K: NodeKey, V> NodeStore<K, V> {
    pub fn new(n: usize) -> Self {
        NodeStore {
            cells: (0..n).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// `node`'s entries for `query`, in ascending key order.
    fn cell(&self, node: u32, query: QueryHandle) -> &[(K::Tail, V)] {
        self.cells[node as usize]
            .get(query as usize)
            .map_or(&[], Vec::as_slice)
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        let (node, query, tail) = key.split();
        let cell = self.cell(node, query);
        let at = cell.binary_search_by_key(&tail, |e| e.0).ok()?;
        Some(&cell[at].1)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (node, query, tail) = key.split();
        let cell = self.cells[node as usize].get_mut(query as usize)?;
        let at = cell.binary_search_by_key(&tail, |e| e.0).ok()?;
        Some(&mut cell[at].1)
    }

    pub fn insert(&mut self, key: K, val: V) {
        let (node, query, tail) = key.split();
        let row = &mut self.cells[node as usize];
        if row.len() <= query as usize {
            row.resize_with(query as usize + 1, Vec::new);
        }
        let cell = &mut row[query as usize];
        match cell.binary_search_by_key(&tail, |e| e.0) {
            Ok(at) => cell[at].1 = val,
            Err(at) => {
                // A cell holds one entry, or a few, for as long as its
                // query lives: sized to fit, not doubled ahead.
                cell.reserve_exact(1);
                cell.insert(at, (tail, val));
                self.len += 1;
            }
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (node, query, tail) = key.split();
        let cell = self.cells[node as usize].get_mut(query as usize)?;
        let at = cell.binary_search_by_key(&tail, |e| e.0).ok()?;
        self.len -= 1;
        Some(cell.remove(at).1)
    }

    /// Drops every entry owned by `node` (its volatile state died with
    /// it). O(own entries).
    pub fn clear_node(&mut self, node: u32) {
        let row = std::mem::take(&mut self.cells[node as usize]);
        self.len -= row.iter().map(Vec::len).sum::<usize>();
    }

    /// Drops every entry belonging to an expired query: one cell per
    /// endsystem, emptied without a look at any other query's.
    pub fn clear_query(&mut self, query: QueryHandle) {
        for row in &mut self.cells {
            let Some(cell) = row.get_mut(query as usize) else {
                continue;
            };
            self.len -= cell.len();
            *cell = Vec::new();
        }
    }

    /// `node`'s entries, in ascending key order.
    fn of_node(&self, node: u32) -> impl Iterator<Item = (K, &V)> + '_ {
        self.cells[node as usize]
            .iter()
            .enumerate()
            .flat_map(move |(query, cell)| {
                cell.iter()
                    .map(move |(tail, val)| (K::join(node, query as QueryHandle, *tail), val))
            })
    }

    /// All keys in ascending order of the full tuple.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        (0..self.cells.len() as u32).flat_map(|node| self.of_node(node).map(|(key, _)| key))
    }
}

impl TaskStore {
    /// `node`'s tasks for `query`, in ascending key order (the heal and
    /// report paths pick the first one that qualifies, so this order is
    /// protocol-visible).
    pub fn tasks_of(
        &self,
        node: u32,
        query: QueryHandle,
    ) -> impl Iterator<Item = (TaskKey, &DissemTask)> + '_ {
        self.cell(node, query)
            .iter()
            .map(move |(tail, task)| (TaskKey::join(node, query, *tail), task))
    }
}

impl SubmitStore {
    /// The earliest retransmission deadline among `node`'s unacked
    /// submissions.
    pub fn earliest_retry(&self, node: u32) -> Option<Time> {
        self.of_node(node).map(|(_, p)| p.retry_at).min()
    }

    /// Keys of `node`'s submissions whose retransmission is due at
    /// `now`, in ascending key order.
    pub fn due_keys(&self, node: u32, now: Time) -> Vec<SubmitKey> {
        self.of_node(node)
            .filter(|(_, p)| p.retry_at <= now)
            .map(|(key, _)| key)
            .collect()
    }
}

/// Aggregation-tree vertices, keyed `(query, vertex id)`: per-query id
/// maps resolving into one shared slab of state slots. Freed slots are
/// wiped (`std::mem::take`) before entering the free list, so a recycled
/// slot can never leak a dead query's children or holders into a new
/// handle. Live entries = `slots` minus `free`.
#[derive(Debug, Default)]
pub(crate) struct VertexStore {
    by_id: Vec<BTreeMap<u128, u32>>,
    slots: Vec<VertexState>,
    free: Vec<u32>,
}

impl VertexStore {
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The slab slot holding `key`'s state: what a handler that touches
    /// one vertex several times looks up once and then addresses through
    /// [`VertexStore::at`] / [`VertexStore::at_mut`]. Valid until the
    /// vertex is removed or its query cleared.
    pub fn slot(&self, key: &(QueryHandle, Id)) -> Option<u32> {
        self.by_id.get(key.0 as usize)?.get(&key.1 .0).copied()
    }

    pub fn at(&self, slot: u32) -> &VertexState {
        &self.slots[slot as usize]
    }

    pub fn at_mut(&mut self, slot: u32) -> &mut VertexState {
        &mut self.slots[slot as usize]
    }

    pub fn get(&self, key: &(QueryHandle, Id)) -> Option<&VertexState> {
        self.slot(key).map(|slot| self.at(slot))
    }

    pub fn get_mut(&mut self, key: &(QueryHandle, Id)) -> Option<&mut VertexState> {
        self.slot(key).map(|slot| self.at_mut(slot))
    }

    /// Stores `state` under `key`, replacing what was there; returns the
    /// slot it now occupies.
    pub fn insert(&mut self, key: (QueryHandle, Id), state: VertexState) -> u32 {
        let q = key.0 as usize;
        if self.by_id.len() <= q {
            self.by_id.resize_with(q + 1, BTreeMap::new);
        }
        if let Some(&slot) = self.by_id[q].get(&key.1 .0) {
            self.slots[slot as usize] = state;
            return slot;
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                slot
            }
            None => {
                self.slots.push(state);
                (self.slots.len() - 1) as u32
            }
        };
        self.by_id[q].insert(key.1 .0, slot);
        slot
    }

    pub fn remove(&mut self, key: &(QueryHandle, Id)) -> Option<VertexState> {
        let slot = self.by_id.get_mut(key.0 as usize)?.remove(&key.1 .0)?;
        self.free.push(slot);
        Some(std::mem::take(&mut self.slots[slot as usize]))
    }

    /// Drops every vertex of an expired query.
    pub fn clear_query(&mut self, query: QueryHandle) {
        let Some(bucket) = self.by_id.get_mut(query as usize) else {
            return;
        };
        for (_, slot) in std::mem::take(bucket) {
            self.slots[slot as usize] = VertexState::default();
            self.free.push(slot);
        }
    }

    /// Entries in ascending `(query, vertex id)` order.
    pub fn iter(&self) -> impl Iterator<Item = ((QueryHandle, Id), &VertexState)> + '_ {
        self.by_id.iter().enumerate().flat_map(move |(q, bucket)| {
            bucket
                .iter()
                .map(move |(&id, &slot)| ((q as QueryHandle, Id(id)), &self.slots[slot as usize]))
        })
    }

    pub fn keys(&self) -> impl Iterator<Item = (QueryHandle, Id)> + '_ {
        self.iter().map(|(k, _)| k)
    }
}

/// Small `Copy` values keyed `(node, query)` — continuous-query epochs
/// and persisted leaf vertex ids: one lazily allocated dense block per
/// query (a bitset of occupied node slots plus a value array), recycled
/// through a pool when the query expires with its occupancy bits cleared
/// so a reused block starts empty.
#[derive(Debug)]
pub(crate) struct NodeQueryStore<T> {
    n: usize,
    /// `blocks[query]`, allocated on first insert for that handle.
    blocks: Vec<Option<Block<T>>>,
    /// Recycled blocks with occupancy cleared.
    pool: Vec<Block<T>>,
}

#[derive(Debug)]
struct Block<T> {
    /// Occupancy bitset over dense node indices.
    set: Vec<u64>,
    vals: Vec<T>,
}

impl<T: Copy + Default> NodeQueryStore<T> {
    pub fn new(n: usize) -> Self {
        NodeQueryStore {
            n,
            blocks: Vec::new(),
            pool: Vec::new(),
        }
    }

    pub fn get(&self, node: u32, query: QueryHandle) -> Option<T> {
        let block = self.blocks.get(query as usize)?.as_ref()?;
        let (w, b) = (node as usize / 64, node as usize % 64);
        (block.set[w] & (1u64 << b) != 0).then(|| block.vals[node as usize])
    }

    pub fn insert(&mut self, node: u32, query: QueryHandle, val: T) {
        let NodeQueryStore { n, blocks, pool } = self;
        let q = query as usize;
        if blocks.len() <= q {
            blocks.resize_with(q + 1, || None);
        }
        let block = blocks[q].get_or_insert_with(|| {
            pool.pop().unwrap_or_else(|| Block {
                set: vec![0; n.div_ceil(64)],
                vals: vec![T::default(); *n],
            })
        });
        let (w, b) = (node as usize / 64, node as usize % 64);
        block.set[w] |= 1u64 << b;
        block.vals[node as usize] = val;
    }

    /// Drops `node`'s entry for every query (crash-amnesia wipe).
    pub fn clear_node(&mut self, node: u32) {
        let (w, b) = (node as usize / 64, node as usize % 64);
        for block in self.blocks.iter_mut().flatten() {
            block.set[w] &= !(1u64 << b);
        }
    }

    /// Returns an expired query's block to the pool with its occupancy
    /// cleared.
    pub fn clear_query(&mut self, query: QueryHandle) {
        let Some(mut block) = self.blocks.get_mut(query as usize).and_then(Option::take) else {
            return;
        };
        block.set.fill(0);
        self.pool.push(block);
    }

    /// All occupied keys in ascending `(node, query)` order. Oracle-only;
    /// the protocol never iterates these.
    pub fn keys(&self) -> impl Iterator<Item = (u32, QueryHandle)> {
        let mut keys: Vec<(u32, QueryHandle)> = Vec::new();
        for (q, block) in self.blocks.iter().enumerate() {
            let Some(block) = block else { continue };
            for (w, &word) in block.set.iter().enumerate() {
                let mut cur = word;
                while cur != 0 {
                    let node = (w * 64 + cur.trailing_zeros() as usize) as u32;
                    keys.push((node, q as QueryHandle));
                    cur &= cur - 1;
                }
            }
        }
        keys.sort_unstable();
        keys.into_iter()
    }
}

/// Deferred timer actions, addressed by the engine timer tag they are
/// armed under: a free-listed slab, the slot index in the tag's low 32
/// bits and the slot's generation in the 30 above, so that every tag
/// stays below the overlay's tag space. Vacating a slot — its action
/// fired or died with its endsystem — bumps the
/// generation, so a tag that outlived its action resolves to nothing,
/// whoever holds the index now. The actions tied to one endsystem's
/// liveness are chained through their slots: node-down unlinks exactly
/// its own, wherever in the slab they sit.
#[derive(Debug)]
pub(crate) struct ActionSlab {
    slots: Vec<ActionSlot>,
    free: Vec<u32>,
    /// First slot of each endsystem's chain; `NIL` for an empty chain.
    heads: Vec<u32>,
}

#[derive(Debug)]
struct ActionSlot {
    generation: u32,
    /// `None` while the slot is on the free list.
    action: Option<TimerAction>,
    /// Chain neighbours (`NIL` at either end, and for detached actions).
    prev: u32,
    next: u32,
}

const NIL: u32 = u32::MAX;
const GENERATION_BITS: u32 = 30;

fn action_tag(generation: u32, idx: u32) -> u64 {
    u64::from(generation) << 32 | u64::from(idx)
}

impl ActionSlab {
    pub fn new(n: usize) -> Self {
        ActionSlab {
            slots: Vec::new(),
            free: Vec::new(),
            heads: vec![NIL; n],
        }
    }

    /// Parked actions.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The occupied slot `tag` names, unless the tag is stale.
    fn resolve(&self, tag: u64) -> Option<u32> {
        let idx = tag as u32;
        let slot = self.slots.get(idx as usize)?;
        (slot.action.is_some() && u64::from(slot.generation) == tag >> 32).then_some(idx)
    }

    /// Parks `action` and returns the tag to arm its engine timer with.
    pub fn park(&mut self, action: TimerAction) -> u64 {
        let owner = action.node();
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(ActionSlot {
                    generation: 0,
                    action: None,
                    prev: NIL,
                    next: NIL,
                });
                u32::try_from(self.slots.len() - 1).expect("action slab index fits u32")
            }
        };
        // Chained at the head: the order within a chain is never read.
        let next = owner.map_or(NIL, |n| std::mem::replace(&mut self.heads[n.idx()], idx));
        if next != NIL {
            self.slots[next as usize].prev = idx;
        }
        let slot = &mut self.slots[idx as usize];
        slot.action = Some(action);
        slot.prev = NIL;
        slot.next = next;
        action_tag(slot.generation, idx)
    }

    /// The action parked under `tag`, if it is still there.
    pub fn get(&self, tag: u64) -> Option<&TimerAction> {
        self.slots[self.resolve(tag)? as usize].action.as_ref()
    }

    /// Unparks the action `tag` names: its timer fired. `None` for a
    /// stale tag.
    pub fn take(&mut self, tag: u64) -> Option<TimerAction> {
        let idx = self.resolve(tag)?;
        let ActionSlot { prev, next, .. } = self.slots[idx as usize];
        if next != NIL {
            self.slots[next as usize].prev = prev;
        }
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if let Some(n) = self.slots[idx as usize]
            .action
            .as_ref()
            .and_then(TimerAction::node)
        {
            self.heads[n.idx()] = next;
        }
        self.vacate(idx)
    }

    /// Drops every action tied to `node`'s liveness (the engine cancelled
    /// their timers when it went down). O(its own actions).
    pub fn drop_node(&mut self, node: u32) {
        let mut idx = std::mem::replace(&mut self.heads[node as usize], NIL);
        while idx != NIL {
            let next = self.slots[idx as usize].next;
            self.vacate(idx);
            idx = next;
        }
    }

    /// Empties an already unlinked slot onto the free list.
    fn vacate(&mut self, idx: u32) -> Option<TimerAction> {
        let slot = &mut self.slots[idx as usize];
        slot.generation = (slot.generation + 1) & ((1 << GENERATION_BITS) - 1);
        self.free.push(idx);
        slot.action.take()
    }

    /// Every parked action with its tag, in slot order. Oracle-only; the
    /// protocol never iterates the slab.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &TimerAction)> + '_ {
        self.slots.iter().enumerate().filter_map(|(idx, slot)| {
            let action = slot.action.as_ref()?;
            Some((action_tag(slot.generation, idx as u32), action))
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;
    use seaweed_store::{AggFunc, Aggregate};
    use seaweed_types::IdRange;

    use super::super::RangeResult;
    use super::*;

    #[test]
    fn vertex_slab_recycles_without_leaking() {
        let mut vs = VertexStore::default();
        let mut st = VertexState::default();
        st.children
            .insert(Id(7), (3, Aggregate::empty(AggFunc::Count)));
        st.out_version = 5;
        vs.insert((0, Id(100)), st);
        assert_eq!(vs.len(), 1);

        vs.clear_query(0);
        assert_eq!(vs.len(), 0);
        assert!(vs.get(&(0, Id(100))).is_none());

        // The recycled slot must come back blank for the new handle.
        vs.insert((1, Id(200)), VertexState::default());
        let fresh = vs.get(&(1, Id(200))).unwrap();
        assert!(fresh.children.is_empty());
        assert_eq!(fresh.out_version, 0);
        assert_eq!(vs.keys().collect::<Vec<_>>(), vec![(1, Id(200))]);

        // remove() wipes too.
        assert_eq!(vs.remove(&(1, Id(200))).unwrap().children.len(), 0);
        assert_eq!(vs.len(), 0);
    }

    #[test]
    fn node_table_blocks_recycle_clean() {
        let mut nq: NodeQueryStore<u64> = NodeQueryStore::new(130);
        nq.insert(0, 0, 11);
        nq.insert(129, 0, 22);
        assert_eq!(nq.get(129, 0), Some(22));
        assert_eq!(nq.keys().collect::<Vec<_>>(), vec![(0, 0), (129, 0)]);

        nq.clear_query(0);
        assert_eq!(nq.get(0, 0), None);

        // Query 1 gets the pooled block; nothing from query 0 shows.
        nq.insert(5, 1, 33);
        assert_eq!(nq.get(0, 1), None);
        assert_eq!(nq.get(129, 1), None);
        assert_eq!(nq.get(5, 1), Some(33));

        nq.clear_node(5);
        assert_eq!(nq.get(5, 1), None);
        assert_eq!(nq.keys().count(), 0);
    }

    #[test]
    fn per_node_stores_clear_in_o_own_entries() {
        let mut ss = SubmitStore::new(4);
        ss.insert((1, 0, 9), sub(1));
        ss.insert((1, 2, 9), sub(2));
        ss.insert((3, 0, 9), sub(3));
        assert_eq!(ss.len(), 3);
        assert_eq!(
            ss.keys().collect::<Vec<_>>(),
            vec![(1, 0, 9), (1, 2, 9), (3, 0, 9)]
        );
        ss.clear_node(1);
        assert_eq!(ss.len(), 1);
        ss.clear_query(0);
        assert_eq!(ss.len(), 0);
    }

    fn sub(version: u64) -> PendingSubmit {
        PendingSubmit {
            target_vertex: Id(0),
            version,
            agg: Aggregate::empty(AggFunc::Count),
            attempts: 0,
            // The model's deadlines: the step that wrote the entry.
            retry_at: Time(version),
        }
    }

    // ---- model-based: every store against one `BTreeMap` keyed by the
    // full tuple, the representation the stores replaced. Each value
    // carries the step that wrote it as a marker, so a stale read, a
    // slot handed to two keys or a block recycled dirty shows up as the
    // wrong marker.

    /// Endsystems in the model world: enough for two occupancy words.
    const NODES: usize = 70;

    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Insert or overwrite.
        Put(Key),
        Remove(Key),
        ClearNode(u32),
        ClearQuery(QueryHandle),
    }

    /// `(node, query, a, b)`; each store uses the prefix its key has.
    type Key = (u32, QueryHandle, u128, u128);

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        // Few distinct values per component, so overwrites, removals of
        // present keys and clears of populated buckets are the norm; the
        // nodes straddle the 64-bit occupancy-word boundary.
        let node = || prop::sample::select(vec![0u32, 1, 63, 64, 69]);
        let query = || 0u32..4;
        let key = move || (node(), query(), 0u128..3, 0u128..2);
        prop::collection::vec(
            prop_oneof![
                key().prop_map(Op::Put),
                key().prop_map(Op::Put),
                key().prop_map(Op::Put),
                key().prop_map(Op::Remove),
                node().prop_map(Op::ClearNode),
                query().prop_map(Op::ClearQuery),
            ],
            1..120,
        )
    }

    fn task(marker: u64) -> DissemTask {
        DissemTask {
            parent: None,
            extra_parents: Vec::new(),
            range: IdRange::FULL,
            slots: Vec::new(),
            local: RangeResult::View(Aggregate::empty(AggFunc::Count), marker),
            reported: false,
            round: 0,
        }
    }

    fn task_marker(t: &DissemTask) -> u64 {
        match t.local {
            RangeResult::View(_, marker) => marker,
            RangeResult::Predictor(_) => unreachable!("the model only stores views"),
        }
    }

    fn check_tasks(script: &[Op]) -> Result<(), TestCaseError> {
        let mut store = TaskStore::new(NODES);
        let mut model: BTreeMap<TaskKey, u64> = BTreeMap::new();
        for (step, &op) in script.iter().enumerate() {
            let marker = step as u64;
            match op {
                Op::Put(k) => {
                    store.insert(k, task(marker));
                    model.insert(k, marker);
                }
                // Tasks are never removed one at a time: read instead,
                // through both accessors.
                Op::Remove(k) => {
                    prop_assert_eq!(store.get(&k).map(task_marker), model.get(&k).copied());
                    prop_assert_eq!(
                        store.get_mut(&k).map(|t| task_marker(t)),
                        model.get(&k).copied()
                    );
                }
                Op::ClearNode(n) => {
                    store.clear_node(n);
                    model.retain(|k, _| k.0 != n);
                }
                Op::ClearQuery(q) => {
                    store.clear_query(q);
                    model.retain(|k, _| k.1 != q);
                }
            }
            prop_assert_eq!(store.len(), model.len(), "step {}", step);
            let got: Vec<(TaskKey, u64)> = store
                .keys()
                .map(|k| (k, task_marker(store.get(&k).expect("listed key"))))
                .collect();
            let want: Vec<(TaskKey, u64)> = model.iter().map(|(&k, &m)| (k, m)).collect();
            prop_assert_eq!(got, want, "step {}", step);
            // The heal path's query: one node's tasks for one query that
            // satisfy a predicate, first candidate wins.
            if let Op::Put((n, q, ..)) | Op::Remove((n, q, ..)) = op {
                let even = |m: u64| m.is_multiple_of(2);
                let want: Vec<TaskKey> = model
                    .range((n, q, 0, 0)..=(n, q, u128::MAX, u128::MAX))
                    .filter(|&(_, &m)| even(m))
                    .map(|(&k, _)| k)
                    .collect();
                let got: Vec<TaskKey> = store
                    .tasks_of(n, q)
                    .filter(|(_, t)| even(task_marker(t)))
                    .map(|(k, _)| k)
                    .collect();
                prop_assert_eq!(got, want, "step {}", step);
            }
        }
        Ok(())
    }

    fn check_vertices(script: &[Op]) -> Result<(), TestCaseError> {
        let mut store = VertexStore::default();
        let mut model: BTreeMap<(QueryHandle, Id), u64> = BTreeMap::new();
        let mut most_live = 0;
        for (step, &op) in script.iter().enumerate() {
            let marker = step as u64;
            match op {
                Op::Put((_, q, a, _)) => {
                    let state = VertexState {
                        out_version: marker,
                        ..VertexState::default()
                    };
                    store.insert((q, Id(a)), state);
                    model.insert((q, Id(a)), marker);
                }
                Op::Remove((_, q, a, _)) => {
                    let k = (q, Id(a));
                    prop_assert_eq!(store.slot(&k).is_some(), model.contains_key(&k));
                    prop_assert_eq!(
                        store.get_mut(&k).map(|s| s.out_version),
                        model.get(&k).copied()
                    );
                    prop_assert_eq!(
                        store.remove(&k).map(|s| s.out_version),
                        model.remove(&k),
                        "step {}",
                        step
                    );
                }
                // Vertices are not bucketed by node.
                Op::ClearNode(_) => {}
                Op::ClearQuery(q) => {
                    store.clear_query(q);
                    model.retain(|k, _| k.0 != q);
                }
            }
            prop_assert_eq!(store.len(), model.len(), "step {}", step);
            let got: Vec<((QueryHandle, Id), u64)> =
                store.iter().map(|(k, s)| (k, s.out_version)).collect();
            let want: Vec<((QueryHandle, Id), u64)> = model.iter().map(|(&k, &m)| (k, m)).collect();
            prop_assert_eq!(got, want, "step {}", step);
            prop_assert!(store.keys().eq(model.keys().copied()));
            // Slots are recycled before the slab grows, and a freed slot
            // holds nothing of its last tenant.
            most_live = most_live.max(model.len());
            prop_assert_eq!(store.slots.len(), most_live, "step {}", step);
            for &slot in &store.free {
                let s = &store.slots[slot as usize];
                prop_assert!(s.children.is_empty() && s.holders.is_empty() && s.out_version == 0);
            }
        }
        Ok(())
    }

    fn check_submits(script: &[Op]) -> Result<(), TestCaseError> {
        let mut store = SubmitStore::new(NODES);
        let mut model: BTreeMap<(u32, QueryHandle, u128), u64> = BTreeMap::new();
        for (step, &op) in script.iter().enumerate() {
            let marker = step as u64;
            match op {
                Op::Put((n, q, a, _)) => {
                    store.insert((n, q, a), sub(marker));
                    model.insert((n, q, a), marker);
                }
                Op::Remove((n, q, a, _)) => {
                    let k = (n, q, a);
                    prop_assert_eq!(store.get_mut(&k).map(|s| s.version), model.get(&k).copied());
                    prop_assert_eq!(
                        store.remove(&k).map(|s| s.version),
                        model.remove(&k),
                        "step {}",
                        step
                    );
                }
                Op::ClearNode(n) => {
                    store.clear_node(n);
                    model.retain(|k, _| k.0 != n);
                }
                Op::ClearQuery(q) => {
                    store.clear_query(q);
                    model.retain(|k, _| k.1 != q);
                }
            }
            prop_assert_eq!(store.len(), model.len(), "step {}", step);
            // What the retry timer asks of one endsystem's bucket.
            if let Op::Put((n, ..)) | Op::Remove((n, ..)) | Op::ClearNode(n) = op {
                let of_node = || model.iter().filter(move |(k, _)| k.0 == n);
                prop_assert_eq!(
                    store.earliest_retry(n),
                    of_node().map(|(_, &m)| Time(m)).min()
                );
                let now = Time(marker / 2);
                let due: Vec<_> = of_node()
                    .filter(|(_, &m)| Time(m) <= now)
                    .map(|(&k, _)| k)
                    .collect();
                prop_assert_eq!(store.due_keys(n, now), due, "step {}", step);
            }
            let got: Vec<((u32, QueryHandle, u128), u64)> = store
                .keys()
                .map(|k| (k, store.get(&k).expect("listed key").version))
                .collect();
            let want: Vec<((u32, QueryHandle, u128), u64)> =
                model.iter().map(|(&k, &m)| (k, m)).collect();
            prop_assert_eq!(got, want, "step {}", step);
        }
        Ok(())
    }

    fn check_node_query(script: &[Op]) -> Result<(), TestCaseError> {
        let mut store: NodeQueryStore<u64> = NodeQueryStore::new(NODES);
        let mut model: BTreeMap<(u32, QueryHandle), u64> = BTreeMap::new();
        // Queries holding a block: inserted into since their last clear.
        let mut holding: BTreeSet<QueryHandle> = BTreeSet::new();
        let mut most_holding = 0;
        for (step, &op) in script.iter().enumerate() {
            let marker = step as u64;
            match op {
                Op::Put((n, q, ..)) => {
                    store.insert(n, q, marker);
                    model.insert((n, q), marker);
                    holding.insert(q);
                }
                // Entries are never removed one at a time: read instead.
                Op::Remove((n, q, ..)) => {
                    prop_assert_eq!(store.get(n, q), model.get(&(n, q)).copied());
                }
                Op::ClearNode(n) => {
                    store.clear_node(n);
                    model.retain(|k, _| k.0 != n);
                }
                Op::ClearQuery(q) => {
                    store.clear_query(q);
                    model.retain(|k, _| k.1 != q);
                    holding.remove(&q);
                }
            }
            let got: Vec<((u32, QueryHandle), u64)> = store
                .keys()
                .map(|(n, q)| ((n, q), store.get(n, q).expect("listed key")))
                .collect();
            let want: Vec<((u32, QueryHandle), u64)> =
                model.iter().map(|(&k, &m)| (k, m)).collect();
            prop_assert_eq!(got, want, "step {}", step);
            // Blocks come from the pool before the allocator, and wait
            // there with every occupancy bit cleared.
            most_holding = most_holding.max(holding.len());
            let in_use = store.blocks.iter().flatten().count();
            prop_assert_eq!(in_use, holding.len(), "step {}", step);
            prop_assert_eq!(in_use + store.pool.len(), most_holding, "step {}", step);
            prop_assert!(store.pool.iter().all(|b| b.set.iter().all(|&w| w == 0)));
        }
        Ok(())
    }

    // ---- the action slab against the `BTreeMap<u64, TimerAction>` it
    // replaced: the map is keyed by the tags the slab hands out, so what
    // is checked is that a tag names its own action for exactly as long
    // as the map holds it — through index reuse, and whatever node-down
    // sweeps in between.

    #[derive(Clone, Copy, Debug)]
    enum SlabOp {
        /// Park an action tied to this endsystem's liveness.
        Park(u32),
        /// Park a detached action (query expiry).
        ParkDetached,
        /// Fire the i-th tag ever issued (modulo how many there are) —
        /// as often as not a stale one.
        Take(usize),
        DropNode(u32),
    }

    fn slab_ops() -> impl Strategy<Value = Vec<SlabOp>> {
        let node = || 0u32..4;
        prop::collection::vec(
            prop_oneof![
                node().prop_map(SlabOp::Park),
                node().prop_map(SlabOp::Park),
                (0u32..1).prop_map(|_| SlabOp::ParkDetached),
                (0usize..200).prop_map(SlabOp::Take),
                (0usize..200).prop_map(SlabOp::Take),
                node().prop_map(SlabOp::DropNode),
            ],
            1..160,
        )
    }

    /// `(owner, marker)`; the marker rides in the query field.
    fn action_marker(a: &TimerAction) -> (Option<u32>, u32) {
        match *a {
            TimerAction::ExecuteLocal { node, query } => (Some(node.0), query),
            TimerAction::QueryExpire { query } => (None, query),
            ref other => unreachable!("the model parks no {other:?}"),
        }
    }

    fn check_slab(script: &[SlabOp]) -> Result<(), TestCaseError> {
        use seaweed_sim::NodeIdx;
        let mut slab = ActionSlab::new(4);
        let mut model: BTreeMap<u64, (Option<u32>, u32)> = BTreeMap::new();
        let mut issued: Vec<u64> = Vec::new();
        let mut most_live = 0;
        for (step, &op) in script.iter().enumerate() {
            let marker = step as u32;
            match op {
                SlabOp::Park(_) | SlabOp::ParkDetached => {
                    let action = match op {
                        SlabOp::Park(n) => TimerAction::ExecuteLocal {
                            node: NodeIdx(n),
                            query: marker,
                        },
                        _ => TimerAction::QueryExpire { query: marker },
                    };
                    let entry = action_marker(&action);
                    let tag = slab.park(action);
                    prop_assert!(tag < 1 << 62, "tag {:x} in the overlay's space", tag);
                    prop_assert!(!issued.contains(&tag), "tag {:x} issued twice", tag);
                    issued.push(tag);
                    model.insert(tag, entry);
                }
                SlabOp::Take(i) => {
                    let Some(&tag) = issued.get(i % issued.len().max(1)) else {
                        continue;
                    };
                    prop_assert_eq!(slab.get(tag).map(action_marker), model.get(&tag).copied());
                    prop_assert_eq!(
                        slab.take(tag).as_ref().map(action_marker),
                        model.remove(&tag),
                        "step {}",
                        step
                    );
                }
                SlabOp::DropNode(n) => {
                    slab.drop_node(n);
                    model.retain(|_, &mut (owner, _)| owner != Some(n));
                }
            }
            prop_assert_eq!(slab.len(), model.len(), "step {}", step);
            let mut got: Vec<(u64, (Option<u32>, u32))> = slab
                .iter()
                .map(|(tag, a)| (tag, action_marker(a)))
                .collect();
            got.sort_unstable();
            let want: Vec<(u64, (Option<u32>, u32))> =
                model.iter().map(|(&t, &m)| (t, m)).collect();
            prop_assert_eq!(got, want, "step {}", step);
            // No tag the map has let go of resolves, whoever has its
            // index now.
            for &tag in &issued {
                prop_assert_eq!(slab.get(tag).is_some(), model.contains_key(&tag));
            }
            // Indices are reused before the slab grows.
            most_live = most_live.max(model.len());
            prop_assert_eq!(slab.slots.len(), most_live, "step {}", step);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn stores_match_one_ordered_map(script in ops()) {
            check_tasks(&script)?;
            check_vertices(&script)?;
            check_submits(&script)?;
            check_node_query(&script)?;
        }

        #[test]
        fn action_slab_matches_the_map_it_replaced(script in slab_ops()) {
            check_slab(&script)?;
        }
    }
}
