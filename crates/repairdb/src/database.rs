//! Databases: finite sets of facts over a schema.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::{parse_value, DbError, Fact, KeySet, RelationId, Schema, Value};

/// Identifier of a fact within a [`Database`].
///
/// Fact ids are dense indices assigned in insertion order.  They are stable:
/// deleting a fact tombstones its slot and the id is never reused, so ids
/// handed out before a mutation remain valid names for the facts that
/// survive it.  Re-inserting previously deleted content allocates a fresh
/// id.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FactId(pub(crate) u32);

impl FactId {
    /// Builds a fact id from its dense index.
    pub fn new(index: usize) -> FactId {
        FactId(index as u32)
    }

    /// The dense index of this fact.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edit to a [`Database`]: the unit of change the mutable engine
/// sessions speak.
///
/// Mutations are applied through [`Database::apply`], which reports what
/// actually happened as an [`AppliedMutation`] so downstream structures
/// (the block partition, the engine's plan cache) can update incrementally.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Add a fact (a no-op if the fact is already present).
    Insert(Fact),
    /// Remove the fact with the given id (an error if it is not live).
    Delete(FactId),
}

/// What a [`Mutation`] actually did to a [`Database`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppliedMutation {
    /// The fact was new and got a fresh id.
    Inserted {
        /// The id assigned to the fact.
        id: FactId,
        /// The inserted fact.
        fact: Fact,
    },
    /// The fact was already present: the database did not change.
    AlreadyPresent {
        /// The id of the pre-existing identical fact.
        id: FactId,
    },
    /// The fact was tombstoned; its id will never be reused.
    Deleted {
        /// The id that was removed.
        id: FactId,
        /// The removed fact.
        fact: Fact,
    },
}

impl AppliedMutation {
    /// The id of the fact the mutation touched (or found).
    pub fn fact_id(&self) -> FactId {
        match self {
            AppliedMutation::Inserted { id, .. }
            | AppliedMutation::AlreadyPresent { id }
            | AppliedMutation::Deleted { id, .. } => *id,
        }
    }

    /// Returns `true` iff the database changed (i.e. not a duplicate
    /// insertion).
    pub fn changed(&self) -> bool {
        !matches!(self, AppliedMutation::AlreadyPresent { .. })
    }
}

/// What [`Database::compact`] did: the id-translation table plus
/// reclamation stats.
///
/// Compaction rebuilds fact storage dropping every tombstone and remaps
/// the surviving facts onto the dense id prefix `0..live`, in their
/// original insertion order.  The translation is therefore *monotone*:
/// if `a < b` are both live old ids, their new ids satisfy the same
/// inequality — which is what lets downstream structures (the block
/// partition, certificate boxes) remap fact-id sequences without
/// re-sorting them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// `translation[old.index()]` is the new id of old fact `old`, or
    /// `None` if `old` was a tombstone dropped by the compaction.
    translation: Vec<Option<FactId>>,
    /// Fact ids assigned before compacting (live facts plus tombstones).
    pub fact_ids_before: u32,
    /// Live facts surviving the compaction (= fact ids assigned after).
    pub live_facts: u32,
}

impl CompactionReport {
    /// Translates a pre-compaction fact id: `Some(new)` for a fact that
    /// survived, `None` for dropped tombstones and never-assigned ids.
    pub fn translate(&self, old: FactId) -> Option<FactId> {
        self.translation.get(old.index()).copied().flatten()
    }

    /// Tombstones dropped — equivalently, the fact ids reclaimed: the id
    /// headroom the compaction recovered under a fixed
    /// [`Database::fact_id_capacity`].
    pub fn ids_reclaimed(&self) -> u32 {
        self.fact_ids_before - self.live_facts
    }

    /// Iterates the `(old, new)` pairs of surviving facts, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, FactId)> + '_ {
        self.translation
            .iter()
            .enumerate()
            .filter_map(|(old, new)| new.map(|new| (FactId(old as u32), new)))
    }
}

/// A database: a finite set of facts over a schema.
///
/// Inserting the same fact twice is a no-op (set semantics), and facts can
/// be removed again with [`Database::remove`] (or the uniform
/// [`Database::apply`]): deletion tombstones the fact's slot so every other
/// fact keeps its id.  The database maintains a per-relation index so query
/// evaluation and block construction avoid full scans.
///
/// ```
/// use cdr_repairdb::{Database, Schema};
///
/// let mut schema = Schema::new();
/// schema.add_relation("Employee", 3).unwrap();
/// let mut db = Database::new(schema);
/// db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
/// db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
/// assert_eq!(db.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Database {
    schema: Schema,
    facts: Vec<Fact>,
    /// `live[i]` is `false` iff fact `i` has been tombstoned by a delete.
    live: Vec<bool>,
    live_count: usize,
    dedup: HashMap<Fact, FactId>,
    by_relation: Vec<Vec<FactId>>,
    /// How many ids may ever be assigned.  Ids are never reused, so this
    /// caps *cumulative* inserts, not live facts; at most `u32::MAX`.
    fact_id_capacity: u32,
}

impl Database {
    /// Creates an empty database over the given schema.
    pub fn new(schema: Schema) -> Self {
        let by_relation = vec![Vec::new(); schema.len()];
        Database {
            schema,
            facts: Vec::new(),
            live: Vec::new(),
            live_count: 0,
            dedup: HashMap::new(),
            by_relation,
            fact_id_capacity: u32::MAX,
        }
    }

    /// Caps the number of fact ids this database may ever assign (clamped
    /// to at most `u32::MAX`, the width of a [`FactId`]).
    ///
    /// Ids are never reused, so the cap bounds *cumulative* inserts over the
    /// database's lifetime — a memory guardrail for long-lived serving
    /// sessions.  Once the cap is reached, [`Database::insert`] and
    /// [`Database::apply`] fail with [`DbError::FactIdsExhausted`] instead
    /// of panicking, so a server can surface the condition as an error
    /// reply and keep running.
    pub fn with_fact_id_capacity(mut self, capacity: u32) -> Self {
        self.fact_id_capacity = capacity;
        self
    }

    /// The fact-id capacity: how many ids may ever be assigned.
    pub fn fact_id_capacity(&self) -> u32 {
        self.fact_id_capacity
    }

    /// How many fact ids have been assigned so far (live facts plus
    /// tombstones): the portion of the id space already consumed.
    pub fn fact_ids_assigned(&self) -> u32 {
        self.facts.len() as u32
    }

    /// Number of tombstoned fact slots: ids consumed by facts that have
    /// since been deleted.  Tombstones accumulate until
    /// [`Database::compact`] drops them.
    pub fn tombstone_count(&self) -> u32 {
        (self.facts.len() - self.live_count) as u32
    }

    /// Rebuilds fact storage dropping every tombstone, remapping the
    /// surviving facts onto the dense id prefix `0..live` (insertion order
    /// preserved), and returns the id-translation table plus reclamation
    /// stats.
    ///
    /// Compaction resets the id headroom: with the capacity unchanged, the
    /// database may again assign `capacity - live` fresh ids before
    /// [`DbError::FactIdsExhausted`], so delete-bearing sessions can run
    /// indefinitely by compacting periodically.  Every fact id handed out
    /// before the compaction is invalidated — callers holding ids must
    /// re-resolve them through [`CompactionReport::translate`].
    ///
    /// The per-relation indexes and the dedup index are remapped in place;
    /// a compacted database is [`PartialEq`]-identical to a fresh database
    /// built by inserting the live facts in id order.
    pub fn compact(&mut self) -> CompactionReport {
        let fact_ids_before = self.facts.len() as u32;
        let old_facts = std::mem::take(&mut self.facts);
        let old_live = std::mem::take(&mut self.live);
        let mut translation: Vec<Option<FactId>> = vec![None; old_facts.len()];
        self.facts.reserve_exact(self.live_count);
        for (old, fact) in old_facts.into_iter().enumerate() {
            if old_live[old] {
                translation[old] = Some(FactId(self.facts.len() as u32));
                self.facts.push(fact);
            }
        }
        self.live = vec![true; self.facts.len()];
        debug_assert_eq!(self.facts.len(), self.live_count);
        for id in self.dedup.values_mut() {
            *id = translation[id.index()].expect("the dedup index holds only live facts");
        }
        for index in &mut self.by_relation {
            // The translation is monotone, so remapping in place keeps
            // every per-relation index sorted.
            for id in index.iter_mut() {
                *id = translation[id.index()].expect("relation indexes hold only live facts");
            }
            debug_assert!(index.windows(2).all(|w| w[0] < w[1]));
        }
        CompactionReport {
            translation,
            fact_ids_before,
            live_facts: self.facts.len() as u32,
        }
    }

    /// The schema of the database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Inserts a fact, validating its relation and arity against the schema.
    ///
    /// Returns the id of the fact; inserting a duplicate returns the id of
    /// the existing fact.
    pub fn insert(&mut self, fact: Fact) -> Result<FactId, DbError> {
        self.validate(&fact)?;
        if let Some(&id) = self.dedup.get(&fact) {
            return Ok(id);
        }
        self.insert_new(fact)
    }

    /// Appends a fact already known to be valid and absent (the caller has
    /// run [`Database::validate`] and checked the dedup index), so the hot
    /// mutation path hashes the fact only once more, for the index insert.
    fn insert_new(&mut self, fact: Fact) -> Result<FactId, DbError> {
        // Ids are never reused (deletes tombstone their slot), so the id
        // space is consumed by cumulative inserts; fail with an error the
        // serving layer can report instead of wrapping into a colliding id.
        if self.facts.len() >= self.fact_id_capacity as usize {
            return Err(DbError::FactIdsExhausted {
                capacity: self.fact_id_capacity,
            });
        }
        let id = FactId(self.facts.len() as u32);
        self.dedup.insert(fact.clone(), id);
        self.by_relation[fact.relation().index()].push(id);
        self.facts.push(fact);
        self.live.push(true);
        self.live_count += 1;
        Ok(id)
    }

    /// Checks a fact against the schema (known relation, right arity)
    /// without inserting it — the validation [`Database::insert`] performs,
    /// exposed so callers can vet a whole batch before applying any of it.
    pub fn validate(&self, fact: &Fact) -> Result<(), DbError> {
        let rel = fact.relation();
        if rel.index() >= self.schema.len() {
            return Err(DbError::UnknownRelation(format!("r{}", rel.index())));
        }
        let expected = self.schema.arity(rel);
        if fact.arity() != expected {
            return Err(DbError::ArityMismatch {
                relation: self.schema.name(rel).to_string(),
                expected,
                found: fact.arity(),
            });
        }
        Ok(())
    }

    /// Removes (tombstones) the fact with the given id, returning it.
    ///
    /// The id is never reused; re-inserting the same content later yields a
    /// fresh id.  Removing an id that was never assigned or is already
    /// tombstoned fails with [`DbError::MissingFact`].
    pub fn remove(&mut self, id: FactId) -> Result<Fact, DbError> {
        if !self.is_live(id) {
            return Err(DbError::MissingFact(id.index()));
        }
        let fact = self.facts[id.index()].clone();
        self.live[id.index()] = false;
        self.live_count -= 1;
        self.dedup.remove(&fact);
        // Ids are handed out in increasing order and deletes preserve the
        // order, so the per-relation index stays sorted: binary search
        // instead of a full scan keeps deletes cheap on large relations.
        let index = &mut self.by_relation[fact.relation().index()];
        let position = index
            .binary_search(&id)
            .expect("a live fact is in its relation index");
        index.remove(position);
        Ok(fact)
    }

    /// Applies one [`Mutation`], reporting what actually happened.
    ///
    /// Inserting an already-present fact is a no-op
    /// ([`AppliedMutation::AlreadyPresent`]); deleting a missing fact is an
    /// error.
    pub fn apply(&mut self, mutation: Mutation) -> Result<AppliedMutation, DbError> {
        match mutation {
            Mutation::Insert(fact) => {
                self.validate(&fact)?;
                if let Some(&id) = self.dedup.get(&fact) {
                    return Ok(AppliedMutation::AlreadyPresent { id });
                }
                let id = self.insert_new(fact.clone())?;
                Ok(AppliedMutation::Inserted { id, fact })
            }
            Mutation::Delete(id) => {
                let fact = self.remove(id)?;
                Ok(AppliedMutation::Deleted { id, fact })
            }
        }
    }

    /// Returns `true` iff the id names a fact that is present (assigned and
    /// not tombstoned).
    pub fn is_live(&self, id: FactId) -> bool {
        self.live.get(id.index()).copied().unwrap_or(false)
    }

    /// Inserts a fact given the relation name and its arguments.
    pub fn insert_values(
        &mut self,
        relation: &str,
        args: impl Into<Vec<Value>>,
    ) -> Result<FactId, DbError> {
        let rel = self.schema.require(relation)?;
        self.insert(Fact::new(rel, args))
    }

    /// Parses and inserts a fact written as `Relation(v1, v2, …)`.
    ///
    /// Values follow the syntax of [`parse_value`].
    pub fn insert_parsed(&mut self, text: &str) -> Result<FactId, DbError> {
        let fact = self.parse_fact(text)?;
        self.insert(fact)
    }

    /// Parses a fact written as `Relation(v1, v2, …)` against this
    /// database's schema, without inserting it.
    pub fn parse_fact(&self, text: &str) -> Result<Fact, DbError> {
        let s = text.trim();
        let open = s
            .find('(')
            .ok_or_else(|| DbError::Parse(format!("missing `(` in fact `{s}`")))?;
        if !s.ends_with(')') {
            return Err(DbError::Parse(format!("missing `)` in fact `{s}`")));
        }
        let name = s[..open].trim();
        let rel = self.schema.require(name)?;
        let inner = &s[open + 1..s.len() - 1];
        let mut args = Vec::new();
        if !inner.trim().is_empty() {
            for part in split_top_level_commas(inner) {
                args.push(parse_value(&part)?);
            }
        }
        let expected = self.schema.arity(rel);
        if args.len() != expected {
            return Err(DbError::ArityMismatch {
                relation: name.to_string(),
                expected,
                found: args.len(),
            });
        }
        Ok(Fact::new(rel, args))
    }

    /// Returns the fact with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned by this database or has been
    /// tombstoned by [`Database::remove`].
    pub fn fact(&self, id: FactId) -> &Fact {
        assert!(
            self.is_live(id),
            "fact id {} is not live in this database",
            id.index()
        );
        &self.facts[id.index()]
    }

    /// Returns the id of a fact if it is present.
    pub fn fact_id(&self, fact: &Fact) -> Option<FactId> {
        self.dedup.get(fact).copied()
    }

    /// Returns `true` iff the fact is present.
    pub fn contains(&self, fact: &Fact) -> bool {
        self.dedup.contains_key(fact)
    }

    /// Number of (live) facts.
    pub fn len(&self) -> usize {
        self.live_count
    }

    /// Returns `true` iff the database has no live facts.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Iterates over all live facts with their ids, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (FactId, &Fact)> {
        self.facts
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.live[i])
            .map(|(i, f)| (FactId(i as u32), f))
    }

    /// Iterates over all live facts, in insertion order.
    pub fn facts(&self) -> impl Iterator<Item = &Fact> {
        self.iter().map(|(_, f)| f)
    }

    /// The ids of the facts of a given relation, in insertion order.
    pub fn facts_of(&self, relation: RelationId) -> &[FactId] {
        self.by_relation
            .get(relation.index())
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The active domain `dom(D)`: all constants occurring in the database,
    /// in sorted order.
    pub fn active_domain(&self) -> BTreeSet<Value> {
        let mut dom = BTreeSet::new();
        for fact in self.facts() {
            for v in fact.args() {
                dom.insert(v.clone());
            }
        }
        dom
    }

    /// Returns `true` iff the database satisfies every key in `keys`
    /// (i.e. `D ⊨ Σ`).
    pub fn is_consistent(&self, keys: &KeySet) -> bool {
        keys.satisfied_by(self.facts())
    }

    /// Builds a new database containing exactly the facts with the given
    /// ids (useful for materialising a repair).
    pub fn subset(&self, ids: impl IntoIterator<Item = FactId>) -> Database {
        let mut out = Database::new(self.schema.clone());
        for id in ids {
            out.insert(self.fact(id).clone())
                .expect("subset facts are valid by construction");
        }
        out
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fact) in self.facts().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{}", fact.display(&self.schema))?;
        }
        Ok(())
    }
}

/// Splits `inner` at commas that are not inside quotes.
fn split_top_level_commas(inner: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut quote: Option<char> = None;
    for ch in inner.chars() {
        match quote {
            Some(q) => {
                current.push(ch);
                if ch == q {
                    quote = None;
                }
            }
            None => match ch {
                '\'' | '"' => {
                    quote = Some(ch);
                    current.push(ch);
                }
                ',' => {
                    parts.push(current.trim().to_string());
                    current.clear();
                }
                _ => current.push(ch),
            },
        }
    }
    parts.push(current.trim().to_string());
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn employee_db() -> Database {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
        db
    }

    #[test]
    fn insert_and_query_basics() {
        let db = employee_db();
        assert_eq!(db.len(), 4);
        assert!(!db.is_empty());
        let emp = db.schema().relation_id("Employee").unwrap();
        assert_eq!(db.facts_of(emp).len(), 4);
        let bob_hr = db.parse_fact("Employee(1, 'Bob', 'HR')").unwrap();
        assert!(db.contains(&bob_hr));
        assert_eq!(db.fact(db.fact_id(&bob_hr).unwrap()), &bob_hr);
        assert_eq!(db.iter().count(), 4);
        assert_eq!(db.facts().count(), 4);
    }

    #[test]
    fn duplicate_insertion_is_a_no_op() {
        let mut db = employee_db();
        let before = db.len();
        let id1 = db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        assert_eq!(db.len(), before);
        let fact = db.parse_fact("Employee(1, 'Bob', 'HR')").unwrap();
        assert_eq!(db.fact_id(&fact), Some(id1));
    }

    #[test]
    fn insert_validates_arity_and_relation() {
        let mut db = employee_db();
        assert!(matches!(
            db.insert_parsed("Employee(1, 'Bob')"),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            db.insert_parsed("Dept(1, 'HR')"),
            Err(DbError::UnknownRelation(_))
        ));
        assert!(matches!(
            db.insert_values("Employee", vec![Value::int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        // A fact built against a foreign schema with an out-of-range relation id.
        let mut other = Schema::new();
        other.add_relation("A", 1).unwrap();
        other.add_relation("B", 1).unwrap();
        let b = other.relation_id("B").unwrap();
        assert!(matches!(
            db.insert(Fact::new(b, vec![Value::int(1)])),
            Err(DbError::UnknownRelation(_))
        ));
    }

    #[test]
    fn parse_fact_handles_quotes_and_spacing() {
        let db = employee_db();
        let f = db
            .parse_fact("  Employee( 3 , 'Eve, the second' , \"R&D\" ) ")
            .unwrap();
        assert_eq!(f.arg(0), &Value::int(3));
        assert_eq!(f.arg(1), &Value::text("Eve, the second"));
        assert_eq!(f.arg(2), &Value::text("R&D"));
    }

    #[test]
    fn parse_fact_rejects_malformed_input() {
        let db = employee_db();
        assert!(db.parse_fact("Employee 1, 2, 3").is_err());
        assert!(db.parse_fact("Employee(1, 2, 3").is_err());
        assert!(db.parse_fact("Unknown(1)").is_err());
        assert!(db.parse_fact("Employee(1, 2, 3, 4)").is_err());
    }

    #[test]
    fn active_domain_collects_all_constants() {
        let db = employee_db();
        let dom = db.active_domain();
        assert!(dom.contains(&Value::int(1)));
        assert!(dom.contains(&Value::int(2)));
        assert!(dom.contains(&Value::text("Bob")));
        assert!(dom.contains(&Value::text("HR")));
        assert!(dom.contains(&Value::text("IT")));
        assert_eq!(dom.len(), 7);
    }

    #[test]
    fn consistency_against_keys() {
        let db = employee_db();
        let keys = KeySet::builder(db.schema())
            .key("Employee", 1)
            .unwrap()
            .build();
        assert!(!db.is_consistent(&keys));
        let no_keys = KeySet::empty(db.schema());
        assert!(db.is_consistent(&no_keys));
    }

    #[test]
    fn subset_materialises_chosen_facts() {
        let db = employee_db();
        let ids: Vec<FactId> = db.iter().map(|(id, _)| id).take(2).collect();
        let sub = db.subset(ids.clone());
        assert_eq!(sub.len(), 2);
        for id in ids {
            assert!(sub.contains(db.fact(id)));
        }
    }

    #[test]
    fn display_lists_facts() {
        let db = employee_db();
        let text = db.to_string();
        assert!(text.contains("Employee(1, 'Bob', 'HR')"));
        assert!(text.contains("Employee(2, 'Tim', 'IT')"));
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn remove_tombstones_without_disturbing_other_ids() {
        let mut db = employee_db();
        let bob_it = db.parse_fact("Employee(1, 'Bob', 'IT')").unwrap();
        let id = db.fact_id(&bob_it).unwrap();
        let removed = db.remove(id).unwrap();
        assert_eq!(removed, bob_it);
        assert_eq!(db.len(), 3);
        assert!(!db.is_live(id));
        assert!(!db.contains(&bob_it));
        assert_eq!(db.fact_id(&bob_it), None);
        // The other facts keep their ids and the relation index shrinks.
        let bob_hr = db.parse_fact("Employee(1, 'Bob', 'HR')").unwrap();
        let hr_id = db.fact_id(&bob_hr).unwrap();
        assert!(db.is_live(hr_id));
        let emp = db.schema().relation_id("Employee").unwrap();
        assert_eq!(db.facts_of(emp).len(), 3);
        assert!(!db.facts_of(emp).contains(&id));
        // Iteration, display and the active domain skip the tombstone.
        assert_eq!(db.iter().count(), 3);
        assert_eq!(db.to_string().lines().count(), 3);
        // Double delete and unknown ids fail.
        assert_eq!(db.remove(id), Err(DbError::MissingFact(id.index())));
        assert!(matches!(
            db.remove(FactId(99)),
            Err(DbError::MissingFact(_))
        ));
    }

    #[test]
    fn reinsertion_after_delete_gets_a_fresh_id() {
        let mut db = employee_db();
        let fact = db.parse_fact("Employee(2, 'Tim', 'IT')").unwrap();
        let old_id = db.fact_id(&fact).unwrap();
        db.remove(old_id).unwrap();
        let new_id = db.insert(fact.clone()).unwrap();
        assert_ne!(old_id, new_id);
        assert!(new_id > old_id, "ids are monotonically increasing");
        assert!(db.is_live(new_id));
        assert!(!db.is_live(old_id));
        assert_eq!(db.len(), 4);
    }

    #[test]
    fn apply_reports_what_happened() {
        let mut db = employee_db();
        let fact = db.parse_fact("Employee(3, 'Eve', 'R&D')").unwrap();
        let applied = db.apply(Mutation::Insert(fact.clone())).unwrap();
        let id = match applied {
            AppliedMutation::Inserted { id, fact: f } => {
                assert_eq!(f, fact);
                id
            }
            other => panic!("expected Inserted, got {other:?}"),
        };
        assert!(applied_changed(&db, id));
        // A duplicate insertion is a visible no-op.
        let again = db.apply(Mutation::Insert(fact.clone())).unwrap();
        assert_eq!(again, AppliedMutation::AlreadyPresent { id });
        assert!(!again.changed());
        assert_eq!(again.fact_id(), id);
        // Deletion round-trips the fact.
        let deleted = db.apply(Mutation::Delete(id)).unwrap();
        assert_eq!(deleted, AppliedMutation::Deleted { id, fact });
        assert!(deleted.changed());
        // Deleting again is an error.
        assert!(matches!(
            db.apply(Mutation::Delete(id)),
            Err(DbError::MissingFact(_))
        ));
    }

    fn applied_changed(db: &Database, id: FactId) -> bool {
        db.is_live(id)
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn fact_panics_on_tombstoned_ids() {
        let mut db = employee_db();
        let id = db.iter().next().unwrap().0;
        db.remove(id).unwrap();
        let _ = db.fact(id);
    }

    #[test]
    fn fact_id_exhaustion_is_an_error_not_a_panic() {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let mut db = Database::new(schema).with_fact_id_capacity(2);
        assert_eq!(db.fact_id_capacity(), 2);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        let id = db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        assert_eq!(db.fact_ids_assigned(), 2);
        // A duplicate insert is still a no-op, not an exhaustion error.
        assert!(db.insert_parsed("Employee(1, 'Bob', 'HR')").is_ok());
        // A fresh insert fails loudly and leaves the database unchanged.
        let err = db.insert_parsed("Employee(2, 'Eve', 'IT')").unwrap_err();
        assert_eq!(err, DbError::FactIdsExhausted { capacity: 2 });
        assert_eq!(db.len(), 2);
        // Deletes do not reclaim id space: the next insert still fails.
        db.remove(id).unwrap();
        let fact = db.parse_fact("Employee(1, 'Bob', 'IT')").unwrap();
        assert!(matches!(
            db.apply(Mutation::Insert(fact)),
            Err(DbError::FactIdsExhausted { .. })
        ));
        assert_eq!(db.fact_ids_assigned(), 2);
    }

    #[test]
    fn compact_drops_tombstones_and_remaps_to_a_dense_prefix() {
        let mut db = employee_db();
        let bob_it = db.parse_fact("Employee(1, 'Bob', 'IT')").unwrap();
        let tim = db.parse_fact("Employee(2, 'Tim', 'IT')").unwrap();
        db.remove(db.fact_id(&bob_it).unwrap()).unwrap();
        db.remove(db.fact_id(&tim).unwrap()).unwrap();
        assert_eq!(db.tombstone_count(), 2);
        let before: Vec<Fact> = db.facts().cloned().collect();
        let old_ids: Vec<FactId> = db.iter().map(|(id, _)| id).collect();

        let report = db.compact();
        assert_eq!(report.fact_ids_before, 4);
        assert_eq!(report.live_facts, 2);
        assert_eq!(report.ids_reclaimed(), 2);
        assert_eq!(db.tombstone_count(), 0);
        assert_eq!(db.fact_ids_assigned(), 2);
        assert_eq!(db.len(), 2);
        // Survivors keep their insertion order on the dense prefix.
        let after: Vec<Fact> = db.facts().cloned().collect();
        assert_eq!(before, after);
        let new_ids: Vec<FactId> = db.iter().map(|(id, _)| id).collect();
        assert_eq!(new_ids, vec![FactId(0), FactId(1)]);
        // The translation table maps exactly the survivors, monotonically.
        for (old, new) in old_ids.iter().zip(&new_ids) {
            assert_eq!(report.translate(*old), Some(*new));
        }
        assert_eq!(report.iter().count(), 2);
        assert_eq!(report.translate(FactId(1)), None, "bob/IT was a tombstone");
        assert_eq!(report.translate(FactId(99)), None, "never assigned");
        // The dedup and per-relation indexes were remapped coherently.
        let emp = db.schema().relation_id("Employee").unwrap();
        assert_eq!(db.facts_of(emp), &new_ids[..]);
        for (id, fact) in db.iter() {
            assert_eq!(db.fact_id(fact), Some(id));
            assert!(db.is_live(id));
        }
        // A compacted database equals a fresh one over the live facts.
        let mut fresh = Database::new(db.schema().clone());
        for fact in &after {
            fresh.insert(fact.clone()).unwrap();
        }
        assert_eq!(db, fresh);
    }

    #[test]
    fn compact_restores_id_headroom_under_a_capacity() {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let mut db = Database::new(schema).with_fact_id_capacity(3);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        let id = db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Eve', 'IT')").unwrap();
        db.remove(id).unwrap();
        // The id space is spent even though only two facts are live.
        assert!(matches!(
            db.insert_parsed("Employee(3, 'Kim', 'IT')"),
            Err(DbError::FactIdsExhausted { .. })
        ));
        let report = db.compact();
        assert_eq!(report.ids_reclaimed(), 1);
        assert_eq!(db.fact_id_capacity(), 3, "the capacity itself is unchanged");
        // The reclaimed headroom admits a fresh insert again.
        let new_id = db.insert_parsed("Employee(3, 'Kim', 'IT')").unwrap();
        assert_eq!(new_id, FactId(2));
        assert_eq!(db.len(), 3);
    }

    #[test]
    fn compact_without_tombstones_is_an_identity() {
        let mut db = employee_db();
        let before = db.clone();
        let report = db.compact();
        assert_eq!(report.ids_reclaimed(), 0);
        assert_eq!(report.fact_ids_before, report.live_facts);
        assert_eq!(db, before);
        for (old, new) in report.iter() {
            assert_eq!(old, new);
        }
    }

    #[test]
    fn empty_schema_database_works() {
        let db = Database::new(Schema::new());
        assert!(db.is_empty());
        assert!(db.active_domain().is_empty());
        assert_eq!(db.to_string(), "");
    }
}
