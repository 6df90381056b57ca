//! `#DisjPoskDNF`: counting P-assignments that satisfy a positive kDNF.
//!
//! Section 7.1: the input is a set of Boolean variables `X`, a partition
//! `P = {X₁, …, Xₙ}` of `X`, and a positive kDNF `φ = C₁ ∨ ⋯ ∨ C_m` whose
//! clauses are conjunctions of at most `k` variables.  A *P-assignment*
//! sets exactly one variable of each class to true; the problem asks how
//! many P-assignments satisfy `φ`.  Theorem 7.1: `#DisjPoskDNF` is
//! Λ\[k\]-complete, and its unbounded version `#DisjPosDNF` is
//! SpanLL-complete (Theorem 7.5).
//!
//! The structure is exactly a union of boxes: the solution domains are the
//! classes (pick the true variable per class), and each clause is a box
//! pinning the classes of its variables — unless the clause mentions two
//! distinct variables of the same class, in which case it is unsatisfiable
//! under P-assignments and contributes nothing.

use cdr_core::{count_union_generic, CountError};
use cdr_num::BigNat;
use cdr_query::{parse_query, Query};
use cdr_repairdb::{Database, KeySet, Schema, Value};

use crate::compactor::{CompactOutput, Compactor, PinBox};
use crate::reduction::count_via_engine;

/// A positive DNF formula over partitioned variables.
///
/// Variables are identified by index `0 … num_vars-1`; every variable must
/// belong to exactly one partition class.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DisjPosDnf {
    num_vars: usize,
    /// `classes[i]` lists the variables of class `Xᵢ`.
    classes: Vec<Vec<usize>>,
    /// `class_of[v]` is the class index of variable `v`.
    class_of: Vec<usize>,
    /// Clauses: each a set of variable indices (positive literals).
    clauses: Vec<Vec<usize>>,
    /// The clause-width bound `k`, if this is a kDNF.
    width_bound: Option<usize>,
}

impl DisjPosDnf {
    /// Builds a formula.
    ///
    /// `classes` must partition `0 … num_vars-1`; every clause variable
    /// must exist; when `width_bound = Some(k)`, every clause must have at
    /// most `k` variables.
    pub fn new(
        num_vars: usize,
        classes: Vec<Vec<usize>>,
        clauses: Vec<Vec<usize>>,
        width_bound: Option<usize>,
    ) -> Result<Self, String> {
        let mut class_of = vec![usize::MAX; num_vars];
        for (i, class) in classes.iter().enumerate() {
            if class.is_empty() {
                return Err(format!("class {i} is empty"));
            }
            for &v in class {
                if v >= num_vars {
                    return Err(format!("class {i} mentions unknown variable {v}"));
                }
                if class_of[v] != usize::MAX {
                    return Err(format!("variable {v} appears in two classes"));
                }
                class_of[v] = i;
            }
        }
        if let Some(v) = class_of.iter().position(|&c| c == usize::MAX) {
            return Err(format!("variable {v} is not covered by the partition"));
        }
        let mut normalized_clauses = Vec::with_capacity(clauses.len());
        for (ci, clause) in clauses.into_iter().enumerate() {
            let mut c = clause;
            c.sort_unstable();
            c.dedup();
            for &v in &c {
                if v >= num_vars {
                    return Err(format!("clause {ci} mentions unknown variable {v}"));
                }
            }
            if let Some(k) = width_bound {
                if c.len() > k {
                    return Err(format!(
                        "clause {ci} has {} variables but the width bound is {k}",
                        c.len()
                    ));
                }
            }
            normalized_clauses.push(c);
        }
        Ok(DisjPosDnf {
            num_vars,
            classes,
            class_of,
            clauses: normalized_clauses,
            width_bound,
        })
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The partition classes.
    pub fn classes(&self) -> &[Vec<usize>] {
        &self.classes
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Vec<usize>] {
        &self.clauses
    }

    /// The clause-width bound `k`, if any.
    pub fn width_bound(&self) -> Option<usize> {
        self.width_bound
    }

    /// The total number of P-assignments: `∏ |Xᵢ|`.
    pub fn total_assignments(&self) -> BigNat {
        let mut total = BigNat::one();
        for class in &self.classes {
            total.mul_assign_u64(class.len() as u64);
        }
        total
    }

    /// Converts a clause to its box over the classes: `None` if the clause
    /// is unsatisfiable under P-assignments (two variables of one class).
    fn clause_box(&self, clause: &[usize]) -> Option<PinBox> {
        let mut pins: Vec<(usize, usize)> = Vec::with_capacity(clause.len());
        for &v in clause {
            let class = self.class_of[v];
            let position = self.classes[class]
                .iter()
                .position(|&u| u == v)
                .expect("class_of is consistent with classes");
            // Clauses are short: a linear scan beats any map here.
            match pins.iter().find(|&&(c, _)| c == class) {
                Some(&(_, existing)) if existing != position => return None,
                Some(_) => {}
                None => pins.push((class, position)),
            }
        }
        Some(pins.into_iter().collect())
    }

    /// Counts the satisfying P-assignments exactly.
    pub fn count_satisfying(&self, budget: u64) -> Result<BigNat, CountError> {
        let sizes: Vec<usize> = self.classes.iter().map(Vec::len).collect();
        let boxes: Vec<PinBox> = self
            .clauses
            .iter()
            .filter_map(|c| self.clause_box(c))
            .collect();
        count_union_generic(&sizes, &boxes, budget)
    }

    /// Brute-force count over all P-assignments (ground truth for tests).
    pub fn count_satisfying_brute_force(&self) -> BigNat {
        let sizes: Vec<usize> = self.classes.iter().map(Vec::len).collect();
        if sizes.is_empty() {
            // The empty partition has exactly one (empty) P-assignment; it
            // satisfies φ iff some clause is empty (an empty conjunction).
            return if self.clauses.iter().any(Vec::is_empty) {
                BigNat::one()
            } else {
                BigNat::zero()
            };
        }
        let mut choice = vec![0usize; sizes.len()];
        let mut count: u64 = 0;
        loop {
            let truth = |v: usize| -> bool {
                let class = self.class_of[v];
                self.classes[class][choice[class]] == v
            };
            if self
                .clauses
                .iter()
                .any(|clause| clause.iter().all(|&v| truth(v)))
            {
                count += 1;
            }
            let mut i = sizes.len();
            loop {
                if i == 0 {
                    return BigNat::from(count);
                }
                i -= 1;
                choice[i] += 1;
                if choice[i] < sizes[i] {
                    break;
                }
                choice[i] = 0;
            }
        }
    }

    /// The natural reduction to `#CQA`: relation `Chosen(class, var)` with
    /// `key(Chosen) = {1}` holds the candidate "true variable per class";
    /// the query is the disjunction of the clauses, each asking that all
    /// its variables are the chosen ones.
    ///
    /// The reduction is parsimonious: repairs of the constructed database
    /// are exactly the P-assignments, and a repair entails the query iff
    /// the assignment satisfies `φ`.
    pub fn to_cqa_instance(&self) -> Result<(Database, KeySet, Query), CountError> {
        let mut schema = Schema::new();
        schema.add_relation("Chosen", 2)?;
        let keys = KeySet::builder(&schema).key("Chosen", 1)?.build();
        let mut db = Database::new(schema);
        for (i, class) in self.classes.iter().enumerate() {
            for &v in class {
                db.insert_values("Chosen", vec![Value::int(i as i64), Value::int(v as i64)])?;
            }
        }
        let mut disjuncts = Vec::new();
        for clause in &self.clauses {
            if clause.is_empty() {
                disjuncts.push("TRUE".to_string());
                continue;
            }
            let atoms: Vec<String> = clause
                .iter()
                .map(|&v| format!("Chosen({}, {})", self.class_of[v], v))
                .collect();
            disjuncts.push(format!("({})", atoms.join(" AND ")));
        }
        let text = if disjuncts.is_empty() {
            "FALSE".to_string()
        } else {
            disjuncts.join(" OR ")
        };
        let query = parse_query(&text)?;
        Ok((db, keys, query))
    }

    /// Counts the satisfying P-assignments by going through the `#CQA`
    /// reduction (used to validate Theorem 7.1 experimentally).
    pub fn count_via_cqa(&self, budget: u64) -> Result<BigNat, CountError> {
        let (db, keys, query) = self.to_cqa_instance()?;
        count_via_engine(db, keys, query, budget)
    }
}

impl Compactor for DisjPosDnf {
    fn domain_sizes(&self) -> Vec<usize> {
        self.classes.iter().map(Vec::len).collect()
    }

    fn certificate_count(&self) -> usize {
        self.clauses.len()
    }

    fn compact(&self, certificate: usize) -> CompactOutput {
        match self.clauses.get(certificate) {
            None => CompactOutput::Empty,
            Some(clause) => match self.clause_box(clause) {
                None => CompactOutput::Empty,
                Some(pins) => CompactOutput::Boxed(pins),
            },
        }
    }

    fn pin_bound(&self) -> Option<usize> {
        self.width_bound
    }

    fn element_label(&self, domain: usize, element: usize) -> String {
        format!("x{}", self.classes[domain][element])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::unfold_count;
    use crate::reduction::reduce_compactor_to_cqa;

    /// φ = (x0 ∧ x2) ∨ (x1 ∧ x3), partition {x0, x1}, {x2, x3}.
    fn small() -> DisjPosDnf {
        DisjPosDnf::new(
            4,
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 2], vec![1, 3]],
            Some(2),
        )
        .unwrap()
    }

    #[test]
    fn small_formula_counts() {
        let f = small();
        assert_eq!(f.total_assignments().to_u64(), Some(4));
        // Satisfying: (x0,x2) and (x1,x3): 2 assignments.
        assert_eq!(f.count_satisfying(1_000).unwrap().to_u64(), Some(2));
        assert_eq!(f.count_satisfying_brute_force().to_u64(), Some(2));
        assert_eq!(f.num_vars(), 4);
        assert_eq!(f.classes().len(), 2);
        assert_eq!(f.clauses().len(), 2);
        assert_eq!(f.width_bound(), Some(2));
    }

    #[test]
    fn clause_with_two_variables_of_one_class_is_dead() {
        // (x0 ∧ x1) can never hold under a P-assignment.
        let f = DisjPosDnf::new(
            4,
            vec![vec![0, 1], vec![2, 3]],
            vec![vec![0, 1], vec![2]],
            Some(2),
        )
        .unwrap();
        assert_eq!(f.count_satisfying(1_000).unwrap().to_u64(), Some(2));
        assert_eq!(f.count_satisfying_brute_force().to_u64(), Some(2));
        // Its compactor output is ε.
        assert_eq!(f.compact(0), CompactOutput::Empty);
        assert!(matches!(f.compact(1), CompactOutput::Boxed(_)));
        assert_eq!(f.compact(99), CompactOutput::Empty);
    }

    #[test]
    fn empty_clause_makes_everything_satisfying() {
        let f = DisjPosDnf::new(2, vec![vec![0], vec![1]], vec![vec![]], Some(3)).unwrap();
        assert_eq!(f.count_satisfying(100).unwrap().to_u64(), Some(1));
        assert_eq!(f.count_satisfying_brute_force().to_u64(), Some(1));
        // No clauses at all: nothing satisfies.
        let g = DisjPosDnf::new(2, vec![vec![0], vec![1]], vec![], Some(3)).unwrap();
        assert!(g.count_satisfying(100).unwrap().is_zero());
        assert!(g.count_satisfying_brute_force().is_zero());
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        // Variable in two classes.
        assert!(DisjPosDnf::new(2, vec![vec![0, 1], vec![1]], vec![], None).is_err());
        // Uncovered variable.
        assert!(DisjPosDnf::new(3, vec![vec![0], vec![1]], vec![], None).is_err());
        // Empty class.
        assert!(DisjPosDnf::new(2, vec![vec![0, 1], vec![]], vec![], None).is_err());
        // Unknown variable in a clause.
        assert!(DisjPosDnf::new(2, vec![vec![0], vec![1]], vec![vec![5]], None).is_err());
        // Unknown variable in a class.
        assert!(DisjPosDnf::new(2, vec![vec![0], vec![7]], vec![], None).is_err());
        // Clause wider than the bound.
        assert!(DisjPosDnf::new(
            3,
            vec![vec![0], vec![1], vec![2]],
            vec![vec![0, 1, 2]],
            Some(2)
        )
        .is_err());
        // The same clause is fine without a bound.
        assert!(DisjPosDnf::new(
            3,
            vec![vec![0], vec![1], vec![2]],
            vec![vec![0, 1, 2]],
            None
        )
        .is_ok());
    }

    #[test]
    fn exact_count_matches_brute_force_on_a_family() {
        // A family of formulas with 3 classes of sizes 2..4 and random-ish
        // clause structure chosen deterministically.
        for variant in 0..6usize {
            let classes = vec![vec![0, 1], vec![2, 3, 4], vec![5, 6, 7, 8]];
            let clauses = match variant {
                0 => vec![vec![0, 2], vec![1, 5]],
                1 => vec![vec![0], vec![3, 6]],
                2 => vec![vec![0, 2, 5], vec![1, 3, 6], vec![0, 4, 8]],
                3 => vec![vec![2], vec![3], vec![4]],
                4 => vec![vec![0, 1]],
                _ => vec![vec![5], vec![0, 6], vec![1, 2, 7]],
            };
            let f = DisjPosDnf::new(9, classes, clauses, Some(3)).unwrap();
            assert_eq!(
                f.count_satisfying(1_000_000).unwrap(),
                f.count_satisfying_brute_force(),
                "variant {variant}"
            );
        }
    }

    #[test]
    fn compactor_view_agrees_with_direct_counting() {
        let f = small();
        assert_eq!(
            unfold_count(&f, 1_000).unwrap(),
            f.count_satisfying(1_000).unwrap()
        );
        assert_eq!(f.domain_sizes(), vec![2, 2]);
        assert_eq!(f.pin_bound(), Some(2));
        assert_eq!(f.element_label(0, 1), "x1");
    }

    #[test]
    fn theorem_7_1_reductions_preserve_counts() {
        let f = small();
        let expected = f.count_satisfying(1_000).unwrap();
        // The natural reduction to #CQA.
        assert_eq!(f.count_via_cqa(1_000_000).unwrap(), expected);
        // The generic Theorem 5.1 reduction applied to the formula's
        // compactor.
        let instance = reduce_compactor_to_cqa(&f).unwrap();
        assert_eq!(instance.count(1_000_000).unwrap(), expected);
    }

    #[test]
    fn unbounded_formula_counts_like_spanll() {
        // Width-4 clauses, no bound: still countable exactly, and usable as
        // an unbounded compactor.
        let f = DisjPosDnf::new(
            8,
            vec![vec![0, 1], vec![2, 3], vec![4, 5], vec![6, 7]],
            vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7], vec![0, 3]],
            None,
        )
        .unwrap();
        assert_eq!(f.pin_bound(), None);
        assert_eq!(
            f.count_satisfying(1_000).unwrap(),
            f.count_satisfying_brute_force()
        );
        assert_eq!(
            unfold_count(&f, 1_000).unwrap(),
            f.count_satisfying_brute_force()
        );
    }
}
