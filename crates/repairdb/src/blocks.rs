//! Block decomposition of an inconsistent database.
//!
//! Following Section 2.1 of the paper, the facts of a database `D` are
//! partitioned into *blocks*: two facts belong to the same block iff they
//! have the same key value `keyΣ(α)`.  Facts of relations without a key are
//! their own singleton blocks (their key value is the whole tuple).  Blocks
//! are ordered by the lexicographic ordering `≺_{D,Σ}` on key values, which
//! fixes the sequence `B₁, …, Bₙ` used by every algorithm in the paper
//! (Algorithm 1, Algorithm 2, and the FPRAS).

use std::collections::HashMap;
use std::fmt;

use crate::{AppliedMutation, Database, Fact, FactId, KeySet, RelationId, Value};

/// The key value `keyΣ(α)` of a fact: the relation symbol together with the
/// key prefix of the tuple (or the whole tuple for unkeyed relations).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct KeyValue {
    relation: RelationId,
    key: Box<[Value]>,
}

impl KeyValue {
    /// Computes the key value of a fact w.r.t. a key set.
    pub fn of(fact: &Fact, keys: &KeySet) -> KeyValue {
        let width = keys.key_width(fact.relation()).unwrap_or(fact.arity());
        KeyValue {
            relation: fact.relation(),
            key: fact.args()[..width].to_vec().into_boxed_slice(),
        }
    }

    /// The relation symbol of the key value.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The key constants.
    pub fn key(&self) -> &[Value] {
        &self.key
    }
}

impl fmt::Display for KeyValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨r{}, (", self.relation.index())?;
        for (i, v) in self.key.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")⟩")
    }
}

/// Identifier of a block within a [`BlockPartition`].
///
/// Block ids are *stable slots*: once a key value is assigned a slot, every
/// mutation applied through [`BlockPartition::apply`] keeps that assignment,
/// so cached artifacts that name blocks (certificate boxes, selectors)
/// survive edits to unrelated blocks.  On a freshly built partition the
/// slot order coincides with the ordered sequence `B₁, …, Bₙ`, i.e.
/// `BlockId(0)` is the block whose key value is smallest under `≺_{D,Σ}`;
/// blocks created by later insertions revive the retired slot their key
/// previously occupied, or take the next free slot, regardless of where
/// their key value sorts.  Use [`BlockPartition::iter`] (or
/// [`BlockPartition::position_of_block`]) for the `≺_{D,Σ}` order.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub(crate) u32);

impl BlockId {
    /// Builds a block id from a position in the ordered block sequence.
    pub fn new(index: usize) -> BlockId {
        BlockId(index as u32)
    }

    /// The position of this block in the ordered block sequence.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A block: all facts of the database that share one key value.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Block {
    key: KeyValue,
    facts: Vec<FactId>,
}

impl Block {
    /// The key value shared by the facts of the block.
    pub fn key(&self) -> &KeyValue {
        &self.key
    }

    /// The ids of the facts in the block, in ascending fact-id order.
    pub fn facts(&self) -> &[FactId] {
        &self.facts
    }

    /// Number of facts in the block.
    pub fn len(&self) -> usize {
        self.facts.len()
    }

    /// Returns `true` iff the block is empty (never the case for blocks in a
    /// [`BlockPartition`]).
    pub fn is_empty(&self) -> bool {
        self.facts.is_empty()
    }

    /// Returns `true` iff the block contains exactly one fact, i.e. the fact
    /// is not in conflict with any other fact.
    pub fn is_singleton(&self) -> bool {
        self.facts.len() == 1
    }

    /// Returns `true` iff the block contains the given fact.
    pub fn contains(&self, fact: FactId) -> bool {
        self.facts.binary_search(&fact).is_ok()
    }

    /// The position of a fact within the block, if present.
    pub fn position_of(&self, fact: FactId) -> Option<usize> {
        self.facts.binary_search(&fact).ok()
    }

    /// Inserts a fact id, keeping the ascending order.
    fn insert_fact(&mut self, fact: FactId) {
        if let Err(pos) = self.facts.binary_search(&fact) {
            self.facts.insert(pos, fact);
        }
    }

    /// Removes a fact id if present; returns whether it was.
    fn remove_fact(&mut self, fact: FactId) -> bool {
        match self.facts.binary_search(&fact) {
            Ok(pos) => {
                self.facts.remove(pos);
                true
            }
            Err(_) => false,
        }
    }
}

/// What one mutation did to a [`BlockPartition`]: which block slot changed
/// and how its size moved.
///
/// `old_len == 0` means the block was created by the mutation;
/// `new_len == 0` means the block was emptied and retired from the live
/// sequence.  The total repair count `∏ |Bᵢ|` can be maintained
/// incrementally from the delta alone: divide out `old_len` (when
/// non-zero) and multiply in `new_len` (when non-zero).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockDelta {
    /// The slot of the block the mutation touched.
    pub block: BlockId,
    /// Size of the block before the mutation (0 if it did not exist).
    pub old_len: usize,
    /// Size of the block after the mutation (0 if it was emptied).
    pub new_len: usize,
}

impl BlockDelta {
    /// Returns `true` iff the mutation created the block.
    pub fn created(&self) -> bool {
        self.old_len == 0 && self.new_len > 0
    }

    /// Returns `true` iff the mutation emptied (retired) the block.
    pub fn removed(&self) -> bool {
        self.old_len > 0 && self.new_len == 0
    }

    /// Returns `true` iff the block's size changed at all (a duplicate
    /// insertion changes nothing).
    pub fn changed(&self) -> bool {
        self.old_len != self.new_len
    }
}

/// The ordered block sequence `B₁, …, Bₙ` of a database w.r.t. a set of
/// primary keys.
///
/// ```
/// use cdr_repairdb::{BlockPartition, Database, KeySet, Schema};
///
/// let mut schema = Schema::new();
/// schema.add_relation("Employee", 3).unwrap();
/// let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
/// let mut db = Database::new(schema);
/// db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
/// db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
/// db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
/// db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
///
/// let blocks = BlockPartition::new(&db, &keys);
/// assert_eq!(blocks.len(), 2);
/// assert_eq!(blocks.sizes(), vec![2, 2]);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct BlockPartition {
    /// Block slots.  A slot whose block is empty has been retired by a
    /// deletion; it stays in place so every other slot keeps its id.
    blocks: Vec<Block>,
    /// The live (non-empty) slots in `≺_{D,Σ}` order of their key values.
    order: Vec<BlockId>,
    fact_to_block: HashMap<FactId, BlockId>,
    /// Key value → live slot.  When a block empties its key moves to
    /// `retired`, and re-inserting the key later *revives* its original
    /// slot, so slot growth is bounded by the number of distinct key
    /// values ever live (not by insert/delete churn).
    key_to_block: HashMap<KeyValue, BlockId>,
    /// Key value → retired (empty) slot awaiting possible revival.
    retired: HashMap<KeyValue, BlockId>,
}

impl BlockPartition {
    /// Computes the block partition of `db` w.r.t. `keys`.
    ///
    /// On a fresh partition, slot ids coincide with `≺_{D,Σ}` positions.
    pub fn new(db: &Database, keys: &KeySet) -> Self {
        let mut grouped: HashMap<KeyValue, Vec<FactId>> = HashMap::new();
        for (id, fact) in db.iter() {
            grouped
                .entry(KeyValue::of(fact, keys))
                .or_default()
                .push(id);
        }
        let mut entries: Vec<(KeyValue, Vec<FactId>)> = grouped.into_iter().collect();
        // ≺_{D,Σ}: lexicographic ordering over key values.
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        let mut blocks = Vec::with_capacity(entries.len());
        let mut fact_to_block = HashMap::new();
        let mut key_to_block = HashMap::new();
        for (i, (key, mut facts)) in entries.into_iter().enumerate() {
            facts.sort();
            let id = BlockId(i as u32);
            for &f in &facts {
                fact_to_block.insert(f, id);
            }
            key_to_block.insert(key.clone(), id);
            blocks.push(Block { key, facts });
        }
        let order = (0..blocks.len()).map(|i| BlockId(i as u32)).collect();
        BlockPartition {
            blocks,
            order,
            fact_to_block,
            key_to_block,
            retired: HashMap::new(),
        }
    }

    /// Applies one database mutation incrementally, rebuilding only the
    /// touched key-block, and reports which block changed and how.
    ///
    /// The caller is responsible for feeding every [`AppliedMutation`] the
    /// database reports (in order) with the same `keys` the partition was
    /// built with; the partition then stays equal, block for block, to what
    /// a fresh recomputation over the live facts would produce — up to slot
    /// numbering, which is intentionally kept stable instead of re-sorted.
    pub fn apply(&mut self, keys: &KeySet, applied: &AppliedMutation) -> BlockDelta {
        match applied {
            AppliedMutation::AlreadyPresent { id } => {
                let block = self
                    .block_of(*id)
                    .expect("a duplicate insertion names a live fact");
                let len = self.blocks[block.index()].len();
                BlockDelta {
                    block,
                    old_len: len,
                    new_len: len,
                }
            }
            AppliedMutation::Inserted { id, fact } => {
                let key = KeyValue::of(fact, keys);
                match self.key_to_block.get(&key) {
                    Some(&block) => {
                        let slot = &mut self.blocks[block.index()];
                        let old_len = slot.len();
                        slot.insert_fact(*id);
                        self.fact_to_block.insert(*id, block);
                        BlockDelta {
                            block,
                            old_len,
                            new_len: old_len + 1,
                        }
                    }
                    None => {
                        // Revive the key's retired slot if it ever had
                        // one; otherwise allocate the next fresh slot.
                        // Either way slot ids stay stable, and revival
                        // keeps churn from growing the slot table.
                        let block = match self.retired.remove(&key) {
                            Some(block) => block,
                            None => {
                                let block = BlockId(self.blocks.len() as u32);
                                self.blocks.push(Block {
                                    key: key.clone(),
                                    facts: Vec::new(),
                                });
                                block
                            }
                        };
                        let position = self
                            .order
                            .binary_search_by(|&b| self.blocks[b.index()].key().cmp(&key))
                            .expect_err("a fresh key value is not in the live order");
                        self.blocks[block.index()].facts.push(*id);
                        self.order.insert(position, block);
                        self.key_to_block.insert(key, block);
                        self.fact_to_block.insert(*id, block);
                        BlockDelta {
                            block,
                            old_len: 0,
                            new_len: 1,
                        }
                    }
                }
            }
            AppliedMutation::Deleted { id, .. } => {
                let block = self
                    .fact_to_block
                    .remove(id)
                    .expect("a deletion names a fact the partition knows");
                let slot = &mut self.blocks[block.index()];
                let old_len = slot.len();
                let removed = slot.remove_fact(*id);
                debug_assert!(removed, "fact_to_block and block contents agree");
                let new_len = old_len - 1;
                if new_len == 0 {
                    // Retire the slot: evict it from the live order and
                    // the key index, but keep the slot itself (parked in
                    // `retired`) so ids stay stable and a later re-insert
                    // of the key revives it.
                    let key = slot.key.clone();
                    self.key_to_block.remove(&key);
                    self.retired.insert(key.clone(), block);
                    let position = self
                        .order
                        .binary_search_by(|&b| self.blocks[b.index()].key().cmp(&key))
                        .expect("a retiring block is in the live order");
                    self.order.remove(position);
                }
                BlockDelta {
                    block,
                    old_len,
                    new_len,
                }
            }
        }
    }

    /// Rebuilds the partition after a [`Database::compact`]: retired
    /// (never-revived) slots are dropped, the surviving blocks are
    /// renumbered so slot ids coincide with `≺_{D,Σ}` positions again (as
    /// on a freshly built partition), and every fact id is remapped
    /// through the compaction's translation table.
    ///
    /// The `≺_{D,Σ}` sequence itself is untouched: block keys, block
    /// sizes and the relative order of facts within each block are all
    /// preserved (the translation is monotone), so exact counts and
    /// seeded estimates derived from the rebuilt partition are
    /// bit-for-bit identical to pre-compaction answers over the same live
    /// facts.  The rebuilt partition equals `BlockPartition::new` over
    /// the compacted database.
    ///
    /// Slot renumbering invalidates every cached artifact that names
    /// blocks or facts (certificate boxes, selectors, choice vectors);
    /// callers must drop such caches — the engine clears its plan cache —
    /// before answering from the compacted partition.
    pub fn rebuild_compacted(&mut self, report: &crate::CompactionReport) {
        let old_blocks = std::mem::take(&mut self.blocks);
        let old_order = std::mem::take(&mut self.order);
        self.fact_to_block.clear();
        self.key_to_block.clear();
        self.retired.clear();
        self.blocks.reserve_exact(old_order.len());
        for old_id in old_order {
            let block = &old_blocks[old_id.index()];
            let id = BlockId(self.blocks.len() as u32);
            let facts: Vec<FactId> = block
                .facts
                .iter()
                .map(|&f| {
                    report
                        .translate(f)
                        .expect("live blocks hold only live facts")
                })
                .collect();
            debug_assert!(
                facts.windows(2).all(|w| w[0] < w[1]),
                "a monotone translation preserves in-block fact order"
            );
            for &f in &facts {
                self.fact_to_block.insert(f, id);
            }
            self.key_to_block.insert(block.key.clone(), id);
            self.blocks.push(Block {
                key: block.key.clone(),
                facts,
            });
        }
        self.order = (0..self.blocks.len()).map(|i| BlockId(i as u32)).collect();
    }

    /// Number of live blocks `n`.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` iff the database has no live facts.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of slots ever allocated (live blocks plus retired ones).
    ///
    /// Choice vectors indexed by [`BlockId::index`] must have this length.
    pub fn slot_count(&self) -> usize {
        self.blocks.len()
    }

    /// The live blocks in `≺_{D,Σ}` order.
    pub fn blocks(&self) -> impl Iterator<Item = &Block> {
        self.order.iter().map(|&b| &self.blocks[b.index()])
    }

    /// The block in slot `id` (possibly empty, if the slot was retired by a
    /// deletion).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// The block containing the given fact, if the fact belongs to the
    /// underlying database.
    pub fn block_of(&self, fact: FactId) -> Option<BlockId> {
        self.fact_to_block.get(&fact).copied()
    }

    /// The position of a live block in the `≺_{D,Σ}` sequence, or `None`
    /// for retired slots.
    pub fn position_of_block(&self, id: BlockId) -> Option<usize> {
        let key = self.blocks.get(id.index())?.key();
        let position = self
            .order
            .binary_search_by(|&b| self.blocks[b.index()].key().cmp(key))
            .ok()?;
        // Defensive: only report a position for the slot that is actually
        // live under this key (a revived key always reuses its slot, so
        // this can only differ if the slot itself is retired).
        (self.order[position] == id).then_some(position)
    }

    /// The live block at a given `≺_{D,Σ}` position.
    ///
    /// # Panics
    ///
    /// Panics if `position >= self.len()`.
    pub fn block_at(&self, position: usize) -> (BlockId, &Block) {
        let id = self.order[position];
        (id, &self.blocks[id.index()])
    }

    /// Iterates over the live `(BlockId, &Block)` pairs in `≺_{D,Σ}` order.
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.order.iter().map(|&b| (b, &self.blocks[b.index()]))
    }

    /// The sizes `|B₁|, …, |Bₙ|` of the live blocks in `≺_{D,Σ}` order.
    pub fn sizes(&self) -> Vec<usize> {
        self.blocks().map(|b| b.len()).collect()
    }

    /// The per-slot sizes, indexed by [`BlockId::index`]; retired slots
    /// have size 0.
    pub fn slot_sizes(&self) -> Vec<usize> {
        self.blocks.iter().map(|b| b.len()).collect()
    }

    /// The maximum block size `m = maxᵢ |Bᵢ|` (zero for an empty database).
    pub fn max_block_size(&self) -> usize {
        self.blocks().map(|b| b.len()).max().unwrap_or(0)
    }

    /// Returns `true` iff every live block is a singleton, i.e. the
    /// database is consistent w.r.t. the keys used to build the partition.
    pub fn is_consistent(&self) -> bool {
        self.blocks().all(Block::is_singleton)
    }

    /// Number of live blocks with more than one fact (the number of key
    /// values that are actually in conflict).
    pub fn conflicting_block_count(&self) -> usize {
        self.blocks().filter(|b| !b.is_singleton()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mutation, Schema};

    fn employee_db() -> (Database, KeySet) {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
        (db, keys)
    }

    #[test]
    fn example_1_1_has_two_blocks_of_two() {
        let (db, keys) = employee_db();
        let blocks = BlockPartition::new(&db, &keys);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.sizes(), vec![2, 2]);
        assert_eq!(blocks.max_block_size(), 2);
        assert!(!blocks.is_consistent());
        assert_eq!(blocks.conflicting_block_count(), 2);
    }

    #[test]
    fn blocks_are_ordered_by_key_value() {
        let (db, keys) = employee_db();
        let blocks = BlockPartition::new(&db, &keys);
        // Employee id 1 block comes before employee id 2 block.
        assert_eq!(blocks.block(BlockId(0)).key().key(), &[Value::int(1)]);
        assert_eq!(blocks.block(BlockId(1)).key().key(), &[Value::int(2)]);
    }

    #[test]
    fn block_of_maps_facts_to_their_block() {
        let (db, keys) = employee_db();
        let blocks = BlockPartition::new(&db, &keys);
        for (id, fact) in db.iter() {
            let b = blocks.block_of(id).unwrap();
            assert!(blocks.block(b).contains(id));
            assert_eq!(
                blocks.block(b).key().key()[0],
                fact.args()[0],
                "fact must live in the block of its own key"
            );
            assert!(blocks.block(b).position_of(id).is_some());
        }
        assert_eq!(blocks.block_of(FactId(999)), None);
    }

    #[test]
    fn unkeyed_relations_form_singleton_blocks() {
        let mut schema = Schema::new();
        schema.add_relation("Log", 2).unwrap();
        let keys = KeySet::empty(&schema);
        let mut db = Database::new(schema);
        db.insert_parsed("Log(1, 'a')").unwrap();
        db.insert_parsed("Log(1, 'b')").unwrap();
        db.insert_parsed("Log(2, 'a')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.is_consistent());
        assert_eq!(blocks.conflicting_block_count(), 0);
        assert!(blocks.blocks().all(Block::is_singleton));
    }

    #[test]
    fn consistent_keyed_database_has_singleton_blocks() {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        assert!(blocks.is_consistent());
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn empty_database_has_empty_partition() {
        let schema = Schema::new();
        let keys = KeySet::empty(&schema);
        let db = Database::new(schema);
        let blocks = BlockPartition::new(&db, &keys);
        assert!(blocks.is_empty());
        assert_eq!(blocks.len(), 0);
        assert_eq!(blocks.max_block_size(), 0);
        assert!(blocks.is_consistent());
    }

    #[test]
    fn composite_keys_group_by_prefix() {
        let mut schema = Schema::new();
        schema.add_relation("Assign", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Assign", 2).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Assign(1, 'p1', 'alice')").unwrap();
        db.insert_parsed("Assign(1, 'p1', 'bob')").unwrap();
        db.insert_parsed("Assign(1, 'p2', 'carol')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.sizes(), vec![2, 1]);
    }

    #[test]
    fn key_value_display_is_readable() {
        let (db, keys) = employee_db();
        let (_, fact) = db.iter().next().unwrap();
        let kv = KeyValue::of(fact, &keys);
        assert_eq!(kv.relation().index(), 0);
        let text = kv.to_string();
        assert!(text.contains("r0"));
        assert!(text.contains('1'));
    }

    /// Asserts that an incrementally maintained partition is equal, block
    /// for block in `≺_{D,Σ}` order, to a fresh recomputation (slot
    /// numbering may differ, which is the point of stable slots).
    fn assert_matches_fresh(blocks: &BlockPartition, db: &Database, keys: &KeySet) {
        let fresh = BlockPartition::new(db, keys);
        let live: Vec<(&KeyValue, &[FactId])> =
            blocks.iter().map(|(_, b)| (b.key(), b.facts())).collect();
        let expected: Vec<(&KeyValue, &[FactId])> =
            fresh.iter().map(|(_, b)| (b.key(), b.facts())).collect();
        assert_eq!(live, expected);
        assert_eq!(blocks.len(), fresh.len());
        assert_eq!(blocks.sizes(), fresh.sizes());
        assert_eq!(blocks.max_block_size(), fresh.max_block_size());
        assert_eq!(blocks.is_consistent(), fresh.is_consistent());
        for (id, b) in blocks.iter() {
            for &f in b.facts() {
                assert_eq!(blocks.block_of(f), Some(id));
            }
        }
    }

    #[test]
    fn apply_insert_into_existing_block_resizes_it() {
        let (mut db, keys) = employee_db();
        let mut blocks = BlockPartition::new(&db, &keys);
        let applied = db
            .apply(Mutation::Insert(
                db.parse_fact("Employee(1, 'Bob', 'Sales')").unwrap(),
            ))
            .unwrap();
        let delta = blocks.apply(&keys, &applied);
        assert_eq!(delta.old_len, 2);
        assert_eq!(delta.new_len, 3);
        assert!(delta.changed() && !delta.created() && !delta.removed());
        assert_eq!(delta.block, BlockId(0), "employee 1 lives in slot 0");
        assert_matches_fresh(&blocks, &db, &keys);
    }

    #[test]
    fn apply_insert_with_fresh_key_creates_block_in_order() {
        let (mut db, keys) = employee_db();
        let mut blocks = BlockPartition::new(&db, &keys);
        // Key 0 sorts before both existing blocks, but takes the next slot.
        let applied = db
            .apply(Mutation::Insert(
                db.parse_fact("Employee(0, 'Zoe', 'HR')").unwrap(),
            ))
            .unwrap();
        let delta = blocks.apply(&keys, &applied);
        assert!(delta.created());
        assert_eq!(delta.block, BlockId(2), "new blocks take the next slot");
        assert_eq!(blocks.position_of_block(delta.block), Some(0));
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks.slot_count(), 3);
        assert_matches_fresh(&blocks, &db, &keys);
    }

    #[test]
    fn apply_delete_retires_emptied_blocks_and_keeps_slots_stable() {
        let (mut db, keys) = employee_db();
        let mut blocks = BlockPartition::new(&db, &keys);
        // Delete both facts of employee 1: the block retires.
        for text in ["Employee(1, 'Bob', 'HR')", "Employee(1, 'Bob', 'IT')"] {
            let id = db.fact_id(&db.parse_fact(text).unwrap()).unwrap();
            let applied = db.apply(Mutation::Delete(id)).unwrap();
            let delta = blocks.apply(&keys, &applied);
            assert_eq!(delta.block, BlockId(0));
        }
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks.slot_count(), 2, "the retired slot stays");
        assert!(blocks.block(BlockId(0)).is_empty());
        assert_eq!(blocks.position_of_block(BlockId(0)), None);
        // Employee 2 keeps its slot id and is now first in ≺ order.
        assert_eq!(blocks.position_of_block(BlockId(1)), Some(0));
        assert_eq!(blocks.slot_sizes(), vec![0, 2]);
        assert_matches_fresh(&blocks, &db, &keys);
        // Re-inserting employee 1 revives its original slot: churn on one
        // key never grows the slot table.
        let applied = db
            .apply(Mutation::Insert(
                db.parse_fact("Employee(1, 'Bob', 'HR')").unwrap(),
            ))
            .unwrap();
        let delta = blocks.apply(&keys, &applied);
        assert!(delta.created());
        assert_eq!(delta.block, BlockId(0));
        assert_eq!(blocks.slot_count(), 2);
        assert_eq!(blocks.position_of_block(BlockId(0)), Some(0));
        assert_matches_fresh(&blocks, &db, &keys);
        // A genuinely new key still allocates a fresh slot.
        let applied = db
            .apply(Mutation::Insert(
                db.parse_fact("Employee(3, 'Ann', 'IT')").unwrap(),
            ))
            .unwrap();
        let delta = blocks.apply(&keys, &applied);
        assert!(delta.created());
        assert_eq!(delta.block, BlockId(2));
        assert_eq!(blocks.slot_count(), 3);
        assert_matches_fresh(&blocks, &db, &keys);
    }

    #[test]
    fn apply_duplicate_insertion_is_a_visible_noop() {
        let (mut db, keys) = employee_db();
        let mut blocks = BlockPartition::new(&db, &keys);
        let applied = db
            .apply(Mutation::Insert(
                db.parse_fact("Employee(1, 'Bob', 'HR')").unwrap(),
            ))
            .unwrap();
        let delta = blocks.apply(&keys, &applied);
        assert!(!delta.changed());
        assert_eq!(delta.old_len, 2);
        assert_eq!(delta.new_len, 2);
        assert_matches_fresh(&blocks, &db, &keys);
    }

    #[test]
    fn random_mutation_interleavings_match_fresh_recomputation() {
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        schema.add_relation("S", 2).unwrap();
        let keys = KeySet::builder(&schema)
            .key("R", 1)
            .unwrap()
            .key("S", 1)
            .unwrap()
            .build();
        let mut db = Database::new(schema);
        let mut blocks = BlockPartition::new(&db, &keys);
        // A deterministic pseudo-random walk of inserts and deletes.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        for step in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let relation = if state & 1 == 0 { "R" } else { "S" };
            let key = (state >> 8) % 6;
            let payload = (state >> 16) % 3;
            let delete = step > 40 && (state >> 24).is_multiple_of(3);
            let applied = if delete {
                let victim = db
                    .iter()
                    .nth((state >> 32) as usize % db.len().max(1))
                    .map(|(id, _)| id);
                match victim {
                    Some(id) => db.apply(Mutation::Delete(id)).unwrap(),
                    None => continue,
                }
            } else {
                let fact = db
                    .parse_fact(&format!("{relation}({key}, 'p{payload}')"))
                    .unwrap();
                db.apply(Mutation::Insert(fact)).unwrap()
            };
            blocks.apply(&keys, &applied);
        }
        assert_matches_fresh(&blocks, &db, &keys);
    }

    #[test]
    fn rebuild_compacted_equals_a_fresh_partition_over_the_compacted_db() {
        let (mut db, keys) = employee_db();
        let mut blocks = BlockPartition::new(&db, &keys);
        // Churn: retire the employee-1 block, revive it, add a fresh key,
        // then delete one of its facts — slots are non-dense and the slot
        // order no longer matches ≺.
        for text in ["Employee(1, 'Bob', 'HR')", "Employee(1, 'Bob', 'IT')"] {
            let id = db.fact_id(&db.parse_fact(text).unwrap()).unwrap();
            blocks.apply(&keys, &db.apply(Mutation::Delete(id)).unwrap());
        }
        for text in [
            "Employee(0, 'Zoe', 'HR')",
            "Employee(1, 'Bob', 'Sales')",
            "Employee(3, 'Ann', 'IT')",
        ] {
            let fact = db.parse_fact(text).unwrap();
            blocks.apply(&keys, &db.apply(Mutation::Insert(fact)).unwrap());
        }
        let ann = db
            .fact_id(&db.parse_fact("Employee(3, 'Ann', 'IT')").unwrap())
            .unwrap();
        blocks.apply(&keys, &db.apply(Mutation::Delete(ann)).unwrap());
        assert!(blocks.slot_count() > blocks.len(), "a retired slot exists");
        let sizes_before = blocks.sizes();
        let keys_before: Vec<KeyValue> = blocks.blocks().map(|b| b.key().clone()).collect();

        let report = db.compact();
        blocks.rebuild_compacted(&report);

        // Bit-for-bit the same ≺ sequence: keys and sizes are unchanged.
        assert_eq!(blocks.sizes(), sizes_before);
        let keys_after: Vec<KeyValue> = blocks.blocks().map(|b| b.key().clone()).collect();
        assert_eq!(keys_after, keys_before);
        // Slots are dense again and coincide with ≺ positions, exactly as
        // on a fresh partition — which the rebuilt one now *equals*.
        assert_eq!(blocks.slot_count(), blocks.len());
        for (position, (id, _)) in blocks.iter().enumerate() {
            assert_eq!(id.index(), position);
            assert_eq!(blocks.position_of_block(id), Some(position));
        }
        let fresh = BlockPartition::new(&db, &keys);
        assert_eq!(blocks, fresh);
        // The fact index agrees with the compacted ids.
        for (id, _) in db.iter() {
            let b = blocks.block_of(id).expect("every live fact has a block");
            assert!(blocks.block(b).contains(id));
        }
        assert_matches_fresh(&blocks, &db, &keys);
    }

    #[test]
    fn multi_relation_blocks_are_grouped_per_relation() {
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        schema.add_relation("S", 2).unwrap();
        let keys = KeySet::builder(&schema)
            .key("R", 1)
            .unwrap()
            .key("S", 1)
            .unwrap()
            .build();
        let mut db = Database::new(schema);
        db.insert_parsed("R(1, 'a')").unwrap();
        db.insert_parsed("R(1, 'b')").unwrap();
        db.insert_parsed("S(1, 'a')").unwrap();
        db.insert_parsed("S(1, 'b')").unwrap();
        db.insert_parsed("S(1, 'c')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks.sizes(), vec![2, 3]);
        // Facts with the same key constant but different relations are in
        // different blocks.
        let r_block = blocks.block_of(FactId(0)).unwrap();
        let s_block = blocks.block_of(FactId(2)).unwrap();
        assert_ne!(r_block, s_block);
    }
}
