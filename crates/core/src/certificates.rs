//! Certificates and selector boxes.
//!
//! A *small certificate* for "some repair entails the UCQ `Q = Q₁ ∨ ⋯ ∨ Qₘ`"
//! is a pair `(Q', h)` where `Q'` is a disjunct of `Q` and
//! `h : var(Q') → dom(D)` is a homomorphism with `h(Q') ⊆ D` and
//! `h(Q') ⊨ Σ` (Section 4.1).  Each certificate determines an ℓ-selector
//! over the block sequence `B₁, …, Bₙ`: block `Bᵢ` is *pinned* to the fact
//! `R(t̄)` iff `h(Q') ∩ Bᵢ = {R(t̄)}` and `Σ` has an `R`-key.  The set of
//! repairs witnessed by the certificate is then the cartesian "box"
//! `[B₁, …, Bₙ]_σ`: pinned blocks contribute their pinned fact, all other
//! blocks contribute any of their facts.
//!
//! The exact counters, the FPRAS and the Λ-hierarchy compactors all consume
//! this module.

use cdr_query::{find_homomorphisms, Assignment, Term, UcqQuery};
use cdr_repairdb::{BlockId, BlockPartition, Database, FactId, KeySet, Repair};

use crate::CountError;

/// A certificate `(Q', h)` together with its derived selector.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Certificate {
    /// Index of the disjunct `Q'` within the UCQ.
    pub disjunct: usize,
    /// The homomorphism `h : var(Q') → dom(D)`.
    pub homomorphism: Assignment,
    /// The image `h(Q') ⊆ D`, as fact ids (duplicates removed, sorted).
    pub image: Vec<FactId>,
    /// The selector box determined by the certificate.
    pub selector: SelectorBox,
}

/// A selector box `[B₁, …, Bₙ]_σ`: a set of repairs described by pinning
/// at most `k` blocks to specific facts.
///
/// Pins are stored as a flat slice sorted by block slot — boxes are tiny
/// (at most the query's keywidth entries), so linear merges and binary
/// searches beat a tree both in time and in allocation count, and the
/// derived ordering/hashing coincide with the old sorted-map
/// representation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct SelectorBox {
    /// The pins `(block, fact)`, sorted by block slot, one pin per block.
    pinned: Box<[(BlockId, FactId)]>,
}

impl SelectorBox {
    /// Creates a box from explicit pins.  Pinning the same block twice
    /// keeps the last pin (map-insertion semantics).
    pub fn new(pins: impl IntoIterator<Item = (BlockId, FactId)>) -> Self {
        let mut pinned: Vec<(BlockId, FactId)> = pins.into_iter().collect();
        pinned.sort_by_key(|&(block, _)| block);
        // Keep the *last* pin of every equal-block run.
        pinned.reverse();
        pinned.dedup_by_key(|&mut (block, _)| block);
        pinned.reverse();
        SelectorBox {
            pinned: pinned.into_boxed_slice(),
        }
    }

    /// The pinned blocks and the fact each one is pinned to, in ascending
    /// block-slot order.
    pub fn pins(&self) -> impl Iterator<Item = (BlockId, FactId)> + '_ {
        self.pinned.iter().copied()
    }

    /// Number of pinned blocks (the `ℓ` of an ℓ-selector).
    pub fn pin_count(&self) -> usize {
        self.pinned.len()
    }

    /// Returns `true` iff no block is pinned, i.e. the box is the full
    /// cartesian product of all blocks (every repair is covered).
    pub fn is_unconstrained(&self) -> bool {
        self.pinned.is_empty()
    }

    /// Returns `true` iff the repair lies inside the box.
    ///
    /// A repair holds exactly one fact from every block, so it matches a
    /// pin `(B, α)` iff it contains `α` — no block lookup is needed.
    pub fn contains_repair(&self, repair: &Repair) -> bool {
        self.pinned.iter().all(|&(_, fact)| repair.contains(fact))
    }

    /// The intersection of two boxes: a box, unless they pin the same block
    /// to different facts, in which case the intersection is empty.
    pub fn intersect(&self, other: &SelectorBox) -> Option<SelectorBox> {
        let mut pinned = Vec::with_capacity(self.pinned.len() + other.pinned.len());
        let (mut left, mut right) = (
            self.pinned.iter().peekable(),
            other.pinned.iter().peekable(),
        );
        loop {
            match (left.peek(), right.peek()) {
                (Some(&&(lb, lf)), Some(&&(rb, rf))) => {
                    if lb == rb {
                        if lf != rf {
                            return None;
                        }
                        pinned.push((lb, lf));
                        left.next();
                        right.next();
                    } else if lb < rb {
                        pinned.push((lb, lf));
                        left.next();
                    } else {
                        pinned.push((rb, rf));
                        right.next();
                    }
                }
                (Some(&&pin), None) => {
                    pinned.push(pin);
                    left.next();
                }
                (None, Some(&&pin)) => {
                    pinned.push(pin);
                    right.next();
                }
                (None, None) => break,
            }
        }
        Some(SelectorBox {
            pinned: pinned.into_boxed_slice(),
        })
    }

    /// Returns `true` iff every repair in `self` is also in `other`
    /// (i.e. `other`'s pins are a subset of `self`'s pins) — a linear
    /// merge over the two sorted pin slices.
    pub fn is_subset_of(&self, other: &SelectorBox) -> bool {
        let mut mine = self.pinned.iter();
        'outer: for &(block, fact) in other.pinned.iter() {
            for &(candidate_block, candidate_fact) in mine.by_ref() {
                if candidate_block == block {
                    if candidate_fact != fact {
                        return false;
                    }
                    continue 'outer;
                }
                if candidate_block > block {
                    return false;
                }
            }
            return false;
        }
        true
    }
}

/// Enumerates all certificates of a UCQ over a database, together with
/// their selector boxes.
///
/// Certificates are returned in a deterministic order: by disjunct index,
/// then by the sorted homomorphism.  Two different homomorphisms can induce
/// the same box; no deduplication is performed here because the certificate
/// itself (not the box) is the paper's notion — callers that only need
/// boxes can deduplicate with [`distinct_boxes`].
pub fn enumerate_certificates(
    db: &Database,
    keys: &KeySet,
    blocks: &BlockPartition,
    ucq: &UcqQuery,
) -> Result<Vec<Certificate>, CountError> {
    let mut certificates = Vec::new();
    for (disjunct_index, disjunct) in ucq.disjuncts().iter().enumerate() {
        let homomorphisms = find_homomorphisms(db, disjunct)?;
        for hom in homomorphisms {
            // Compute the image h(Q') as fact ids.
            let mut image = Vec::with_capacity(disjunct.atoms().len());
            let mut image_facts = Vec::with_capacity(disjunct.atoms().len());
            for atom in disjunct.atoms() {
                let grounded = atom.substitute(&|v| hom.get(v).cloned().map(Term::Const));
                debug_assert!(grounded.is_ground(), "homomorphism must ground the atom");
                let rel = db
                    .schema()
                    .relation_id(grounded.relation())
                    .expect("validated by find_homomorphisms");
                let args: Vec<_> = grounded
                    .terms()
                    .iter()
                    .map(|t| t.as_const().expect("ground").clone())
                    .collect();
                let fact = cdr_repairdb::Fact::new(rel, args);
                let id = db
                    .fact_id(&fact)
                    .expect("image facts are in D by construction");
                if !image.contains(&id) {
                    image.push(id);
                    image_facts.push(fact);
                }
            }
            image.sort();
            // Check h(Q') ⊨ Σ.
            if !keys.satisfied_by(image_facts.iter()) {
                continue;
            }
            // Derive the selector: pin block Bᵢ to R(t̄) iff
            // h(Q') ∩ Bᵢ = {R(t̄)} and Σ has an R-key.
            // h(Q') ⊨ Σ guarantees at most one image fact per keyed
            // block, so collecting never produces conflicting pins.
            let pins = image.iter().filter_map(|&fact_id| {
                let fact = db.fact(fact_id);
                if !keys.has_key(fact.relation()) {
                    return None;
                }
                let block = blocks
                    .block_of(fact_id)
                    .expect("facts of D belong to a block");
                Some((block, fact_id))
            });
            certificates.push(Certificate {
                disjunct: disjunct_index,
                homomorphism: hom,
                selector: SelectorBox::new(pins),
                image,
            });
        }
    }
    Ok(certificates)
}

/// The distinct selector boxes of a certificate set, preserving first-seen
/// order.
pub fn distinct_boxes(certificates: &[Certificate]) -> Vec<SelectorBox> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for cert in certificates {
        if seen.insert(cert.selector.clone()) {
            out.push(cert.selector.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_query::{parse_query, rewrite_to_ucq};
    use cdr_repairdb::{RepairIter, Schema};

    fn employee() -> (Database, KeySet, BlockPartition, UcqQuery) {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        (db, keys, blocks, ucq)
    }

    #[test]
    fn example_1_1_certificates() {
        let (db, keys, blocks, ucq) = employee();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        // Bob(IT) with Alice(IT), and Bob(IT) with Tim(IT).
        assert_eq!(certs.len(), 2);
        for c in &certs {
            assert_eq!(c.disjunct, 0);
            assert_eq!(c.image.len(), 2);
            assert_eq!(c.selector.pin_count(), 2, "both atoms are keyed");
            assert!(!c.selector.is_unconstrained());
        }
        // Each certificate's box contains exactly one repair here (both
        // blocks pinned), and the two boxes are distinct.
        let boxes = distinct_boxes(&certs);
        assert_eq!(boxes.len(), 2);
        for b in &boxes {
            let inside = RepairIter::new(&blocks).filter(|r| b.contains_repair(r));
            assert_eq!(inside.count(), 1);
        }
    }

    #[test]
    fn union_of_boxes_matches_enumeration_on_the_example() {
        let (db, keys, blocks, ucq) = employee();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        let boxes = distinct_boxes(&certs);
        let mut covered = 0;
        for repair in RepairIter::new(&blocks) {
            if boxes.iter().any(|b| b.contains_repair(&repair)) {
                covered += 1;
            }
        }
        assert_eq!(covered, 2, "the paper's example: 2 of 4 repairs entail Q");
    }

    #[test]
    fn inconsistent_homomorphic_images_are_rejected() {
        // Query joining two different names for the same employee id:
        // h(Q') would need two conflicting facts, which violates Σ.
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Ann', 'IT')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        let q =
            parse_query("EXISTS d, e . Employee(1, 'Bob', d) AND Employee(1, 'Ann', e)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        assert!(certs.is_empty(), "no repair can contain both facts");
    }

    #[test]
    fn unkeyed_atoms_are_not_pinned() {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        schema.add_relation("Log", 1).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Log('audit')").unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        let q = parse_query("EXISTS d . Employee(1, 'Bob', d) AND Log('audit')").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        assert_eq!(certs.len(), 2);
        for c in &certs {
            assert_eq!(
                c.selector.pin_count(),
                1,
                "only the Employee atom is pinned"
            );
        }
    }

    #[test]
    fn selector_box_operations() {
        let (db, keys, blocks, ucq) = employee();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        let a = &certs[0].selector;
        let b = &certs[1].selector;
        // Intersection of a box with itself is itself.
        assert_eq!(a.intersect(a).as_ref(), Some(a));
        assert!(a.is_subset_of(a));
        // The two boxes pin the same block (employee 2) to different facts:
        // their intersection must be empty.
        assert_eq!(a.intersect(b), None);
        assert!(!a.is_subset_of(b));
        // An unconstrained box covers every repair.
        let full = SelectorBox::default();
        assert!(full.is_unconstrained());
        for repair in RepairIter::new(&blocks) {
            assert!(full.contains_repair(&repair));
        }
        // A subset relation with a less constrained box.
        let looser = SelectorBox::new(a.pins().take(1));
        assert!(a.is_subset_of(&looser));
        assert!(!looser.is_subset_of(a));
        assert!(looser.intersect(a).is_some());
    }

    #[test]
    fn trivially_true_query_yields_unconstrained_certificate() {
        let (db, keys, blocks, _) = employee();
        let ucq = rewrite_to_ucq(&parse_query("TRUE").unwrap()).unwrap();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        assert_eq!(certs.len(), 1);
        assert!(certs[0].selector.is_unconstrained());
        assert!(certs[0].image.is_empty());
    }

    #[test]
    fn false_query_has_no_certificates() {
        let (db, keys, blocks, _) = employee();
        let ucq = rewrite_to_ucq(&parse_query("FALSE").unwrap()).unwrap();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        assert!(certs.is_empty());
    }
}
