//! `#kForbColoring`: counting forbidden colorings of k-uniform hypergraphs.
//!
//! Section 7.1: the input is a k-uniform hypergraph `H = (V, E)`, a set of
//! colors `C_v` for every vertex, and for every hyperedge `e` a set `F_e`
//! of *forbidden* assignments of colors to the vertices of `e`.  A coloring
//! `µ` of `V` is forbidden iff some hyperedge `e` has an assignment
//! `ν ∈ F_e` that `µ` extends.  Theorem 7.2: `#kForbColoring` is
//! Λ\[k\]-complete; its unbounded version is SpanLL-complete (Theorem 7.5).
//!
//! Structurally this is again a union of boxes: the solution domains are
//! the vertices (their color lists), and each pair `(e, ν)` is a box
//! pinning the `k` vertices of `e` to the colors of `ν`.

use cdr_core::{count_union_generic, CountError};
use cdr_num::BigNat;
use cdr_query::{parse_query, Query};
use cdr_repairdb::{Database, KeySet, Schema, Value};

use crate::compactor::{CompactOutput, Compactor, PinBox};
use crate::reduction::count_via_engine;

/// A hypergraph with per-vertex color lists and per-edge forbidden
/// assignments.
///
/// Vertices are `0 … num_vertices-1`; colors are indices into each vertex's
/// color list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hypergraph {
    /// `colors[v]` is the number of colors available to vertex `v`
    /// (`|C_v|`).
    colors: Vec<usize>,
    /// Hyperedges: each a sorted list of distinct vertices.
    edges: Vec<Vec<usize>>,
    /// Uniformity bound `k`, if required.
    uniformity: Option<usize>,
}

/// A `#ForbColoring` instance: a hypergraph plus forbidden assignments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForbiddenColoring {
    graph: Hypergraph,
    /// `forbidden[e]` lists, for hyperedge `e`, the forbidden assignments:
    /// each maps the vertices of `e` (in edge order) to a color index.
    forbidden: Vec<Vec<Vec<usize>>>,
}

impl Hypergraph {
    /// Builds a hypergraph.
    ///
    /// Every vertex must have at least one color; edges must list distinct
    /// existing vertices; when `uniformity = Some(k)` every edge must have
    /// exactly `k` vertices.
    pub fn new(
        colors: Vec<usize>,
        edges: Vec<Vec<usize>>,
        uniformity: Option<usize>,
    ) -> Result<Self, String> {
        if let Some(v) = colors.iter().position(|&c| c == 0) {
            return Err(format!("vertex {v} has an empty color list"));
        }
        let mut normalized = Vec::with_capacity(edges.len());
        for (i, edge) in edges.into_iter().enumerate() {
            let mut e = edge;
            e.sort_unstable();
            let before = e.len();
            e.dedup();
            if e.len() != before {
                return Err(format!("edge {i} repeats a vertex"));
            }
            for &v in &e {
                if v >= colors.len() {
                    return Err(format!("edge {i} mentions unknown vertex {v}"));
                }
            }
            if let Some(k) = uniformity {
                if e.len() != k {
                    return Err(format!(
                        "edge {i} has {} vertices but the hypergraph must be {k}-uniform",
                        e.len()
                    ));
                }
            }
            normalized.push(e);
        }
        Ok(Hypergraph {
            colors,
            edges: normalized,
            uniformity,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.colors.len()
    }

    /// The number of colors of each vertex.
    pub fn colors(&self) -> &[usize] {
        &self.colors
    }

    /// The hyperedges.
    pub fn edges(&self) -> &[Vec<usize>] {
        &self.edges
    }

    /// The uniformity bound `k`, if any.
    pub fn uniformity(&self) -> Option<usize> {
        self.uniformity
    }

    /// The total number of colorings `∏ |C_v|`.
    pub fn total_colorings(&self) -> BigNat {
        let mut total = BigNat::one();
        for &c in &self.colors {
            total.mul_assign_u64(c as u64);
        }
        total
    }
}

impl ForbiddenColoring {
    /// Builds an instance.
    ///
    /// `forbidden` must have one entry per hyperedge; each forbidden
    /// assignment must list one valid color per vertex of its edge.
    pub fn new(graph: Hypergraph, forbidden: Vec<Vec<Vec<usize>>>) -> Result<Self, String> {
        if forbidden.len() != graph.edges.len() {
            return Err(format!(
                "expected {} forbidden-assignment sets, got {}",
                graph.edges.len(),
                forbidden.len()
            ));
        }
        for (e, (edge, sets)) in graph.edges.iter().zip(&forbidden).enumerate() {
            for (a, assignment) in sets.iter().enumerate() {
                if assignment.len() != edge.len() {
                    return Err(format!(
                        "forbidden assignment {a} of edge {e} has {} colors for {} vertices",
                        assignment.len(),
                        edge.len()
                    ));
                }
                for (&v, &c) in edge.iter().zip(assignment) {
                    if c >= graph.colors[v] {
                        return Err(format!(
                            "forbidden assignment {a} of edge {e} uses color {c} \
                             but vertex {v} has only {} colors",
                            graph.colors[v]
                        ));
                    }
                }
            }
        }
        Ok(ForbiddenColoring { graph, forbidden })
    }

    /// The underlying hypergraph.
    pub fn graph(&self) -> &Hypergraph {
        &self.graph
    }

    /// The forbidden assignments, indexed by hyperedge.
    pub fn forbidden(&self) -> &[Vec<Vec<usize>>] {
        &self.forbidden
    }

    /// All boxes `(e, ν)`: one per forbidden assignment of each edge.
    fn boxes(&self) -> Vec<PinBox> {
        let mut out = Vec::new();
        for (edge, sets) in self.graph.edges.iter().zip(&self.forbidden) {
            for assignment in sets {
                let pins: PinBox = edge
                    .iter()
                    .copied()
                    .zip(assignment.iter().copied())
                    .collect();
                out.push(pins);
            }
        }
        out
    }

    /// Counts the forbidden colorings exactly.
    pub fn count_forbidden(&self, budget: u64) -> Result<BigNat, CountError> {
        count_union_generic(&self.graph.colors, &self.boxes(), budget)
    }

    /// Brute-force count over all colorings (ground truth for tests).
    pub fn count_forbidden_brute_force(&self) -> BigNat {
        let sizes = &self.graph.colors;
        if sizes.is_empty() {
            return if self.boxes().iter().any(PinBox::is_empty) {
                BigNat::one()
            } else {
                BigNat::zero()
            };
        }
        let boxes = self.boxes();
        let mut choice = vec![0usize; sizes.len()];
        let mut count: u64 = 0;
        loop {
            if boxes.iter().any(|b| b.pins().all(|(v, c)| choice[v] == c)) {
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

    /// The natural reduction to `#CQA`: relation `Paint(vertex, color)` with
    /// `key(Paint) = {1}`; the query is the disjunction over all pairs
    /// `(e, ν)` of the conjunction `⋀_{v ∈ e} Paint(v, ν(v))`.
    pub fn to_cqa_instance(&self) -> Result<(Database, KeySet, Query), CountError> {
        let mut schema = Schema::new();
        schema.add_relation("Paint", 2)?;
        let keys = KeySet::builder(&schema).key("Paint", 1)?.build();
        let mut db = Database::new(schema);
        for (v, &count) in self.graph.colors.iter().enumerate() {
            for c in 0..count {
                db.insert_values("Paint", vec![Value::int(v as i64), Value::int(c as i64)])?;
            }
        }
        let mut disjuncts = Vec::new();
        for (edge, sets) in self.graph.edges.iter().zip(&self.forbidden) {
            for assignment in sets {
                if edge.is_empty() {
                    disjuncts.push("TRUE".to_string());
                    continue;
                }
                let atoms: Vec<String> = edge
                    .iter()
                    .zip(assignment)
                    .map(|(&v, &c)| format!("Paint({v}, {c})"))
                    .collect();
                disjuncts.push(format!("({})", atoms.join(" AND ")));
            }
        }
        let text = if disjuncts.is_empty() {
            "FALSE".to_string()
        } else {
            disjuncts.join(" OR ")
        };
        let query = parse_query(&text)?;
        Ok((db, keys, query))
    }

    /// Counts the forbidden colorings via the `#CQA` reduction.
    pub fn count_via_cqa(&self, budget: u64) -> Result<BigNat, CountError> {
        let (db, keys, query) = self.to_cqa_instance()?;
        count_via_engine(db, keys, query, budget)
    }
}

impl Compactor for ForbiddenColoring {
    fn domain_sizes(&self) -> Vec<usize> {
        self.graph.colors.clone()
    }

    fn certificate_count(&self) -> usize {
        self.boxes().len()
    }

    fn compact(&self, certificate: usize) -> CompactOutput {
        match self.boxes().get(certificate) {
            None => CompactOutput::Empty,
            Some(b) => CompactOutput::Boxed(b.clone()),
        }
    }

    fn pin_bound(&self) -> Option<usize> {
        self.graph.uniformity
    }

    fn element_label(&self, domain: usize, element: usize) -> String {
        format!("v{domain}c{element}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compactor::unfold_count;
    use crate::reduction::reduce_compactor_to_cqa;

    /// A triangle (3 vertices, 3 edges of size 2), 2 colors per vertex, and
    /// "both endpoints get color 0" forbidden on every edge.
    fn triangle() -> ForbiddenColoring {
        let graph = Hypergraph::new(
            vec![2, 2, 2],
            vec![vec![0, 1], vec![1, 2], vec![0, 2]],
            Some(2),
        )
        .unwrap();
        ForbiddenColoring::new(graph, vec![vec![vec![0, 0]]; 3]).unwrap()
    }

    #[test]
    fn triangle_forbidden_count() {
        let f = triangle();
        assert_eq!(f.graph().total_colorings().to_u64(), Some(8));
        // Colorings with at least one all-zero edge: complement of colorings
        // where every edge has a non-zero endpoint.  Non-forbidden are
        // exactly the colorings with at most one zero: 1 (no zeros) + 3
        // (one zero) = 4, so forbidden = 4.
        assert_eq!(f.count_forbidden(1_000).unwrap().to_u64(), Some(4));
        assert_eq!(f.count_forbidden_brute_force().to_u64(), Some(4));
        assert_eq!(f.graph().num_vertices(), 3);
        assert_eq!(f.graph().edges().len(), 3);
        assert_eq!(f.graph().uniformity(), Some(2));
        assert_eq!(f.forbidden().len(), 3);
    }

    #[test]
    fn list_coloring_style_instance() {
        // Different color-list sizes and several forbidden assignments per
        // edge; exact counting must match brute force.
        let graph = Hypergraph::new(
            vec![3, 2, 4, 2],
            vec![vec![0, 1, 2], vec![1, 2, 3]],
            Some(3),
        )
        .unwrap();
        let f = ForbiddenColoring::new(
            graph,
            vec![
                vec![vec![0, 0, 0], vec![1, 1, 2]],
                vec![vec![0, 3, 1], vec![1, 0, 0], vec![0, 0, 0]],
            ],
        )
        .unwrap();
        assert_eq!(
            f.count_forbidden(1_000_000).unwrap(),
            f.count_forbidden_brute_force()
        );
    }

    #[test]
    fn no_forbidden_assignments_means_zero() {
        let graph = Hypergraph::new(vec![2, 2], vec![vec![0, 1]], Some(2)).unwrap();
        let f = ForbiddenColoring::new(graph, vec![vec![]]).unwrap();
        assert!(f.count_forbidden(100).unwrap().is_zero());
        assert!(f.count_forbidden_brute_force().is_zero());
    }

    #[test]
    fn validation_rejects_bad_instances() {
        // Vertex with no colors.
        assert!(Hypergraph::new(vec![2, 0], vec![], None).is_err());
        // Edge with an unknown vertex.
        assert!(Hypergraph::new(vec![2, 2], vec![vec![0, 5]], None).is_err());
        // Edge repeating a vertex.
        assert!(Hypergraph::new(vec![2, 2], vec![vec![0, 0]], None).is_err());
        // Non-uniform edge under a uniformity requirement.
        assert!(Hypergraph::new(vec![2, 2, 2], vec![vec![0, 1, 2]], Some(2)).is_err());
        let graph = Hypergraph::new(vec![2, 2], vec![vec![0, 1]], Some(2)).unwrap();
        // Wrong number of forbidden sets.
        assert!(ForbiddenColoring::new(graph.clone(), vec![]).is_err());
        // Assignment with the wrong length.
        assert!(ForbiddenColoring::new(graph.clone(), vec![vec![vec![0]]]).is_err());
        // Assignment using a color outside the list.
        assert!(ForbiddenColoring::new(graph, vec![vec![vec![0, 9]]]).is_err());
    }

    #[test]
    fn compactor_view_and_reductions_agree() {
        let f = triangle();
        let expected = f.count_forbidden(1_000).unwrap();
        assert_eq!(unfold_count(&f, 1_000).unwrap(), expected);
        assert_eq!(f.count_via_cqa(1_000_000).unwrap(), expected);
        let instance = reduce_compactor_to_cqa(&f).unwrap();
        assert_eq!(instance.count(1_000_000).unwrap(), expected);
        assert_eq!(f.pin_bound(), Some(2));
        assert_eq!(f.domain_sizes(), vec![2, 2, 2]);
        assert_eq!(f.certificate_count(), 3);
        assert_eq!(f.element_label(1, 0), "v1c0");
        assert_eq!(f.compact(99), CompactOutput::Empty);
    }

    #[test]
    fn non_uniform_unbounded_instances_work() {
        // Mixed edge sizes, no uniformity bound: the SpanLL-style version.
        let graph = Hypergraph::new(
            vec![2, 3, 2, 2],
            vec![vec![0], vec![1, 2, 3], vec![0, 2]],
            None,
        )
        .unwrap();
        let f = ForbiddenColoring::new(
            graph,
            vec![
                vec![vec![1]],
                vec![vec![0, 0, 0], vec![2, 1, 1]],
                vec![vec![0, 1]],
            ],
        )
        .unwrap();
        assert_eq!(f.pin_bound(), None);
        assert_eq!(
            f.count_forbidden(1_000_000).unwrap(),
            f.count_forbidden_brute_force()
        );
        assert_eq!(
            f.count_via_cqa(1_000_000).unwrap(),
            f.count_forbidden_brute_force()
        );
    }
}
