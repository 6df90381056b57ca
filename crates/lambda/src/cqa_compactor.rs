//! `#CQA(Q, Σ)` as a k-compactor (Algorithm 2).
//!
//! The membership half of Theorem 5.1: for a UCQ `Q` and a set of primary
//! keys `Σ` with `kw(Q, Σ) = k`, the function `#CQA(Q, Σ)` is in `Λ[k]`.
//! The witnessing compactor takes the database `D` on its first tape and a
//! candidate certificate `(Q', h)` on its second tape; after checking
//! `h(Q') ⊆ D` and `h(Q') ⊨ Σ` it outputs, block by block, either the
//! pinned fact (when `h(Q') ∩ Bᵢ` is a keyed singleton) or the full block.
//!
//! [`CqaCompactor`] realises this: its solution domains are the blocks
//! `B₁, …, Bₙ`, its candidate certificates are the pairs `(Q', h)`
//! enumerated over the database, and its check/compact step is exactly the
//! selector derivation already implemented in `cdr-core`.

use cdr_core::{enumerate_certificates, Certificate, CountError};
use cdr_query::{max_disjunct_keywidth, UcqQuery};
use cdr_repairdb::{BlockPartition, Database, KeySet};

use crate::compactor::{CompactOutput, Compactor, PinBox};

/// The k-compactor of Algorithm 2 for a fixed `(Q, Σ)` on a fixed database.
pub struct CqaCompactor {
    blocks: BlockPartition,
    certificates: Vec<Certificate>,
    keywidth: usize,
    /// Labels for the facts of each block, used for string rendering.
    block_fact_labels: Vec<Vec<String>>,
}

impl CqaCompactor {
    /// Builds the compactor for a UCQ over a database with primary keys.
    pub fn new(db: &Database, keys: &KeySet, ucq: &UcqQuery) -> Result<Self, CountError> {
        let blocks = BlockPartition::new(db, keys);
        let certificates = enumerate_certificates(db, keys, &blocks, ucq)?;
        let keywidth = max_disjunct_keywidth(ucq, db.schema(), keys);
        let block_fact_labels = blocks
            .iter()
            .map(|(_, block)| {
                block
                    .facts()
                    .iter()
                    .map(|&f| db.fact(f).display(db.schema()).to_string())
                    .collect()
            })
            .collect();
        Ok(CqaCompactor {
            blocks,
            certificates,
            keywidth,
            block_fact_labels,
        })
    }

    /// The block partition the compactor works over.
    pub fn blocks(&self) -> &BlockPartition {
        &self.blocks
    }

    /// The certificates `(Q', h)` the compactor checks.
    pub fn certificates(&self) -> &[Certificate] {
        &self.certificates
    }
}

impl Compactor for CqaCompactor {
    fn domain_sizes(&self) -> Vec<usize> {
        self.blocks.iter().map(|(_, b)| b.len()).collect()
    }

    fn certificate_count(&self) -> usize {
        self.certificates.len()
    }

    fn compact(&self, certificate: usize) -> CompactOutput {
        // Candidate certificates outside the valid range correspond to
        // strings the machine rejects.
        let Some(cert) = self.certificates.get(certificate) else {
            return CompactOutput::Empty;
        };
        let pins: PinBox = cert
            .selector
            .pins()
            .map(|(block, fact)| {
                let position = self
                    .blocks
                    .block(block)
                    .position_of(fact)
                    .expect("pinned facts belong to their block");
                (block.index(), position)
            })
            .collect();
        CompactOutput::Boxed(pins)
    }

    fn pin_bound(&self) -> Option<usize> {
        Some(self.keywidth)
    }

    fn element_label(&self, domain: usize, element: usize) -> String {
        self.block_fact_labels[domain][element].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::{enumerate_solutions, unfold_count};
    use cdr_core::{count_by_boxes, count_by_enumeration, RepairEngine};
    use cdr_query::{parse_query, rewrite_to_ucq};
    use cdr_repairdb::Schema;

    fn employee() -> (Database, KeySet) {
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
    fn algorithm_2_reproduces_example_1_1() {
        let (db, keys) = employee();
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let compactor = CqaCompactor::new(&db, &keys, &ucq).unwrap();
        assert_eq!(compactor.domain_sizes(), vec![2, 2]);
        assert_eq!(compactor.pin_bound(), Some(2));
        assert_eq!(compactor.certificate_count(), 2);
        assert_eq!(unfold_count(&compactor, 1_000).unwrap().to_u64(), Some(2));
        // The guess-check-expand enumeration produces the same two repairs.
        assert_eq!(enumerate_solutions(&compactor, usize::MAX).len(), 2);
        // Element labels are the facts themselves.
        let label = compactor.element_label(0, 0);
        assert!(label.contains("Employee(1"));
        // Out-of-range candidate certificates are rejected (output ε).
        assert_eq!(compactor.compact(99), CompactOutput::Empty);
        assert_eq!(compactor.blocks().len(), 2);
        assert_eq!(compactor.certificates().len(), 2);
    }

    #[test]
    fn unfold_count_equals_exact_cqa_on_many_queries() {
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
        for (k, v) in [(1, "a"), (1, "b"), (1, "c"), (2, "a"), (2, "b"), (3, "c")] {
            db.insert_parsed(&format!("R({k}, '{v}')")).unwrap();
        }
        for (k, v) in [(1, "a"), (1, "x"), (2, "y"), (2, "a")] {
            db.insert_parsed(&format!("S({k}, '{v}')")).unwrap();
        }
        for text in [
            "EXISTS k . R(k, 'a') AND S(k, 'a')",
            "EXISTS k, v . R(k, v) AND S(k, v)",
            "EXISTS k . R(k, 'c')",
            "R(1, 'a') OR S(1, 'x')",
            "(EXISTS k . R(k, 'a')) AND (EXISTS j . S(j, 'y'))",
            "TRUE",
            "FALSE",
        ] {
            let q = parse_query(text).unwrap();
            let ucq = rewrite_to_ucq(&q).unwrap();
            let compactor = CqaCompactor::new(&db, &keys, &ucq).unwrap();
            let via_compactor = unfold_count(&compactor, 1_000_000).unwrap();
            let via_boxes = count_by_boxes(&db, &keys, &ucq, 1_000_000).unwrap();
            let via_enumeration = count_by_enumeration(&db, &keys, &q, 1_000_000).unwrap();
            assert_eq!(via_compactor, via_boxes, "compactor vs boxes on {text}");
            assert_eq!(
                via_compactor, via_enumeration,
                "compactor vs enumeration on {text}"
            );
        }
    }

    #[test]
    fn keywidth_bounds_the_pins() {
        let (db, keys) = employee();
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let compactor = CqaCompactor::new(&db, &keys, &ucq).unwrap();
        let k = compactor.pin_bound().unwrap();
        assert_eq!(k, RepairEngine::new(db, keys).keywidth(&q));
        for c in 0..compactor.certificate_count() {
            if let CompactOutput::Boxed(b) = compactor.compact(c) {
                assert!(b.len() <= k);
            }
        }
    }

    #[test]
    fn keywidth_zero_queries_have_unconstrained_outputs() {
        // A query over an unkeyed relation has kw = 0: the compactor never
        // pins a block and the count is either 0 or the total.
        let mut schema = Schema::new();
        schema.add_relation("Keyed", 2).unwrap();
        schema.add_relation("Plain", 1).unwrap();
        let keys = KeySet::builder(&schema).key("Keyed", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Keyed(1, 'a')").unwrap();
        db.insert_parsed("Keyed(1, 'b')").unwrap();
        db.insert_parsed("Plain('p')").unwrap();
        let q = parse_query("Plain('p')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let compactor = CqaCompactor::new(&db, &keys, &ucq).unwrap();
        assert_eq!(compactor.pin_bound(), Some(0));
        assert_eq!(unfold_count(&compactor, 1_000).unwrap().to_u64(), Some(2));
    }
}
