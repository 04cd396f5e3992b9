//! Hot-state containers for the protocol layer.
//!
//! Every per-query/per-node table the handlers touch on the hot path
//! lives in one of the stores below: state bucketed by dense `u32` node
//! index (a `Vec` addressed directly) or per-query slab slots, so the
//! common operations — "this node went down, drop its soft state", "this
//! query expired, drop everything it owns", point lookups keyed by a
//! node the caller already holds as a dense index — touch only the
//! entries involved instead of walking a map of the whole world.
//!
//! Iteration order is part of the protocol's determinism contract: each
//! store iterates in exactly the order of one workspace-wide `BTreeMap`
//! keyed by the full composite tuple (`(node, query, start, width)` and
//! friends) — node-major buckets replay the `(node, ...)` lexicographic
//! order, per-query vertex maps the `(query, id)` order. The proptest at
//! the bottom of this file drives each store against such a map,
//! operation by operation.

use std::collections::BTreeMap;

use seaweed_types::Id;

use super::{DissemTask, PendingSubmit, QueryHandle, TaskKey, VertexState};

/// A key whose first component is the dense index of the endsystem that
/// owns the entry and whose second is the query it belongs to.
pub(crate) trait NodeKey: Copy {
    /// The key without its node, `(query, ...)`: what a bucket orders by.
    type Rest: Ord + Copy;
    fn split(self) -> (u32, Self::Rest);
    fn join(node: u32, rest: Self::Rest) -> Self;
    fn query(rest: &Self::Rest) -> QueryHandle;
}

impl NodeKey for TaskKey {
    type Rest = (QueryHandle, u128, u128);
    fn split(self) -> (u32, Self::Rest) {
        (self.0, (self.1, self.2, self.3))
    }
    fn join(node: u32, (q, start, width): Self::Rest) -> Self {
        (node, q, start, width)
    }
    fn query(rest: &Self::Rest) -> QueryHandle {
        rest.0
    }
}

impl NodeKey for SubmitKey {
    type Rest = (QueryHandle, u128);
    fn split(self) -> (u32, Self::Rest) {
        (self.0, (self.1, self.2))
    }
    fn join(node: u32, (q, child): Self::Rest) -> Self {
        (node, q, child)
    }
    fn query(rest: &Self::Rest) -> QueryHandle {
        rest.0
    }
}

/// `(submitting node, query, child key)`.
pub(crate) type SubmitKey = (u32, QueryHandle, u128);

/// Entries bucketed by owning endsystem: one map per node, keyed by the
/// remainder of the key, so node-death cleanup drops one bucket instead
/// of filtering the world.
#[derive(Debug)]
pub(crate) struct NodeStore<K: NodeKey, V> {
    per_node: Vec<BTreeMap<K::Rest, V>>,
    len: usize,
}

/// Dissemination tasks, keyed `(node, query, range start, range width)`.
pub(crate) type TaskStore = NodeStore<TaskKey, DissemTask>;

/// In-flight upward submissions, keyed `(node, query, child key)`.
pub(crate) type SubmitStore = NodeStore<SubmitKey, PendingSubmit>;

impl<K: NodeKey, V> NodeStore<K, V> {
    pub fn new(n: usize) -> Self {
        NodeStore {
            per_node: (0..n).map(|_| BTreeMap::new()).collect(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        let (node, rest) = key.split();
        self.per_node[node as usize].get(&rest)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let (node, rest) = key.split();
        self.per_node[node as usize].get_mut(&rest)
    }

    pub fn insert(&mut self, key: K, val: V) {
        let (node, rest) = key.split();
        if self.per_node[node as usize].insert(rest, val).is_none() {
            self.len += 1;
        }
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        let (node, rest) = key.split();
        let removed = self.per_node[node as usize].remove(&rest);
        if removed.is_some() {
            self.len -= 1;
        }
        removed
    }

    /// Drops every entry owned by `node` (its volatile state died with
    /// it). O(own entries).
    pub fn clear_node(&mut self, node: u32) {
        let bucket = std::mem::take(&mut self.per_node[node as usize]);
        self.len -= bucket.len();
    }

    /// Drops every entry belonging to an expired query.
    pub fn clear_query(&mut self, query: QueryHandle) {
        for bucket in &mut self.per_node {
            let before = bucket.len();
            bucket.retain(|rest, _| K::query(rest) != query);
            self.len -= before - bucket.len();
        }
    }

    /// All keys in ascending order of the full tuple.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.per_node
            .iter()
            .enumerate()
            .flat_map(|(n, bucket)| bucket.keys().map(move |&rest| K::join(n as u32, rest)))
    }
}

impl TaskStore {
    /// Keys of `node`'s tasks for `query` whose task satisfies `pred`,
    /// in ascending key order (the heal/report paths pick the first
    /// candidate, so this order is protocol-visible).
    pub fn candidate_keys(
        &self,
        node: u32,
        query: QueryHandle,
        mut pred: impl FnMut(&DissemTask) -> bool,
    ) -> Vec<TaskKey> {
        self.per_node[node as usize]
            .range((query, 0, 0)..=(query, u128::MAX, u128::MAX))
            .filter(|(_, t)| pred(t))
            .map(|(&(q, s, w), _)| (node, q, s, w))
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

    pub fn contains_key(&self, key: &(QueryHandle, Id)) -> bool {
        self.get(key).is_some()
    }

    pub fn get(&self, key: &(QueryHandle, Id)) -> Option<&VertexState> {
        self.by_id
            .get(key.0 as usize)?
            .get(&key.1 .0)
            .map(|&slot| &self.slots[slot as usize])
    }

    pub fn get_mut(&mut self, key: &(QueryHandle, Id)) -> Option<&mut VertexState> {
        self.by_id
            .get(key.0 as usize)?
            .get(&key.1 .0)
            .map(|&slot| &mut self.slots[slot as usize])
    }

    pub fn insert(&mut self, key: (QueryHandle, Id), state: VertexState) {
        let q = key.0 as usize;
        if self.by_id.len() <= q {
            self.by_id.resize_with(q + 1, BTreeMap::new);
        }
        if let Some(&slot) = self.by_id[q].get(&key.1 .0) {
            self.slots[slot as usize] = state;
        } else {
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
        }
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
            timeout_timer: None,
            hedge_timer: None,
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
                prop_assert_eq!(
                    store.candidate_keys(n, q, |t| even(task_marker(t))),
                    want,
                    "step {}",
                    step
                );
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
                    prop_assert_eq!(store.contains_key(&k), model.contains_key(&k));
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn stores_match_one_ordered_map(script in ops()) {
            check_tasks(&script)?;
            check_vertices(&script)?;
            check_submits(&script)?;
            check_node_query(&script)?;
        }
    }
}
