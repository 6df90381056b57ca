//! Exact counting via certificates and selector boxes.
//!
//! The set of repairs entailing a UCQ is the union of the boxes
//! `[B₁, …, Bₙ]_{σ_c}` over all certificates `c` (Section 4.1).  Counting
//! that union exactly is the crux of the exact algorithm:
//!
//! 1. boxes that are subsumed by another box are discarded;
//! 2. the remaining boxes are grouped into *components*: two boxes are in
//!    the same component iff they pin a common block (transitively);
//! 3. blocks pinned by no box at all are *free* and contribute a plain
//!    multiplicative factor;
//! 4. within a component the number of covered assignments is counted
//!    either by enumerating the assignments of the component's touched
//!    blocks or by inclusion–exclusion over its boxes, whichever is
//!    cheaper;
//! 5. the component counts combine by complementation, because a repair
//!    fails to entail the query iff it avoids every box of every component,
//!    and components constrain disjoint blocks:
//!    `#non-entailing = (∏ free |Bᵢ|) · ∏_components (totalᵢ − coveredᵢ)`.
//!
//! The implementation is a flat-representation hot path: boxes are sorted
//! pin slices (no per-box tree allocations), subsumption pruning and
//! component grouping work on *references* with a pin-count pre-sort, and
//! the free-block product is obtained by dividing the (precomputed) total
//! instead of multiplying over every untouched block.

use cdr_num::BigNat;
use cdr_query::UcqQuery;
use cdr_repairdb::{count_repairs, BlockPartition, Database, KeySet};

use crate::{distinct_boxes, enumerate_certificates, CountError, SelectorBox};

/// Counts the repairs of `db` w.r.t. `keys` that entail the UCQ, using the
/// certificate/box algorithm.
pub fn count_by_boxes(
    db: &Database,
    keys: &KeySet,
    ucq: &UcqQuery,
    budget: u64,
) -> Result<BigNat, CountError> {
    let blocks = BlockPartition::new(db, keys);
    let certificates = enumerate_certificates(db, keys, &blocks, ucq)?;
    let boxes = distinct_boxes(&certificates);
    count_union_of_boxes(&blocks, &boxes, budget)
}

/// Counts `|⋃ boxes|`: the number of repairs (one fact per block of
/// `blocks`) contained in at least one of the given selector boxes.
///
/// This is the quantity `|⋃_c [B₁, …, Bₙ]_{σ_c}|` of the paper's
/// "solutions via certificate expansion" property, and it is also the
/// unfolding count of a compactor output, which is why the Λ-hierarchy
/// crate reuses [`count_union_generic`], the domain-agnostic version this
/// function delegates to.
pub fn count_union_of_boxes(
    blocks: &BlockPartition,
    boxes: &[SelectorBox],
    budget: u64,
) -> Result<BigNat, CountError> {
    count_union_of_boxes_with_total(blocks, boxes, budget, count_repairs(blocks))
}

/// [`count_union_of_boxes`] with the total repair count `∏ |Bᵢ|` supplied
/// by the caller (the engine maintains it incrementally across mutations),
/// so the union count never re-multiplies every block size per query.
pub fn count_union_of_boxes_with_total(
    blocks: &BlockPartition,
    boxes: &[SelectorBox],
    budget: u64,
    total: BigNat,
) -> Result<BigNat, CountError> {
    count_union_impl(
        &SlotSizes(blocks),
        &slot_boxes(blocks, boxes),
        budget,
        total,
    )
}

/// Rewrites selector boxes over `blocks` as boxes over block *slots*: a
/// pin `(block, fact)` becomes `(slot, position of the fact in its
/// block)`.  Slots rather than `≺_{D,Σ}` positions, because that is what
/// selector pins name; retired slots (emptied by deletions) are never
/// pinned.  The exact union counter and both estimators read `#CQA`
/// boxes through this one conversion.
pub(crate) fn slot_boxes(blocks: &BlockPartition, boxes: &[SelectorBox]) -> Vec<GenericBox> {
    boxes
        .iter()
        .map(|b| {
            // A selector's pins are sorted by block slot, so the mapped
            // pins arrive already sorted by domain.
            GenericBox::from_sorted(
                b.pins()
                    .map(|(block, fact)| {
                        let position = blocks
                            .block(block)
                            .position_of(fact)
                            .expect("a box only pins facts of its own block");
                        (block.index() as u32, position as u32)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// A box over abstract solution domains: a partial map from domain index
/// to the index of the pinned element within that domain, stored as a flat
/// slice of `(domain, element)` pairs sorted by domain.
///
/// Subset tests are linear merges over the sorted pins and lookups are
/// binary searches; compared to the previous `BTreeMap` representation a
/// box is one allocation and hashing/equality touch contiguous memory.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct GenericBox {
    pins: Box<[(u32, u32)]>,
}

impl GenericBox {
    /// The empty (unconstrained) box, covering every tuple.
    pub fn new() -> GenericBox {
        GenericBox::default()
    }

    /// Builds a box from pins already sorted by strictly increasing
    /// domain index.
    pub fn from_sorted(pins: Vec<(u32, u32)>) -> GenericBox {
        debug_assert!(
            pins.windows(2).all(|w| w[0].0 < w[1].0),
            "pins must be sorted by strictly increasing domain"
        );
        GenericBox {
            pins: pins.into_boxed_slice(),
        }
    }

    /// Number of pinned domains.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.pins.len()
    }

    /// Returns `true` iff no domain is pinned (the box covers everything).
    pub fn is_empty(&self) -> bool {
        self.pins.is_empty()
    }

    /// The element the given domain is pinned to, if any.
    pub fn get(&self, domain: usize) -> Option<usize> {
        u32::try_from(domain).ok().and_then(|d| {
            self.pins
                .binary_search_by_key(&d, |&(pin_domain, _)| pin_domain)
                .ok()
                .map(|i| self.pins[i].1 as usize)
        })
    }

    /// The pins `(domain, element)` in ascending domain order.
    pub fn pins(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.pins.iter().map(|&(d, e)| (d as usize, e as usize))
    }

    /// The raw sorted pin slice.
    pub fn as_slice(&self) -> &[(u32, u32)] {
        &self.pins
    }

    /// Returns `true` iff every tuple covered by `self` is covered by
    /// `other`, i.e. `other`'s pins are a subset of `self`'s pins — a
    /// linear merge with early exit.
    pub fn is_subset_of(&self, other: &GenericBox) -> bool {
        if other.pins.len() > self.pins.len() {
            return false;
        }
        let mut mine = self.pins.iter();
        'outer: for &(domain, element) in other.pins.iter() {
            for &(candidate_domain, candidate_element) in mine.by_ref() {
                if candidate_domain == domain {
                    if candidate_element != element {
                        return false;
                    }
                    continue 'outer;
                }
                if candidate_domain > domain {
                    return false;
                }
            }
            return false;
        }
        true
    }
}

impl FromIterator<(usize, usize)> for GenericBox {
    /// Collects pins, sorting by domain; pinning the same domain twice
    /// keeps the last pin (map-insertion semantics).
    fn from_iter<I: IntoIterator<Item = (usize, usize)>>(iter: I) -> GenericBox {
        let mut pins: Vec<(u32, u32)> = iter
            .into_iter()
            .map(|(d, e)| {
                (
                    u32::try_from(d).expect("domain index fits in u32"),
                    u32::try_from(e).expect("element index fits in u32"),
                )
            })
            .collect();
        pins.sort_by_key(|&(d, _)| d);
        // Keep the *last* pin of every equal-domain run.
        pins.reverse();
        pins.dedup_by_key(|&mut (d, _)| d);
        pins.reverse();
        GenericBox {
            pins: pins.into_boxed_slice(),
        }
    }
}

/// Counts the tuples of `S₀ × ⋯ × S_{n-1}` (where `|Sᵢ| = domain_sizes[i]`)
/// that are covered by at least one box.
///
/// This is the engine behind both [`count_union_of_boxes`] and the
/// unfolding count of a Λ-hierarchy compactor: the paper's
/// `|⋃_c unfolding(M(x, c))|`.
pub fn count_union_generic(
    domain_sizes: &[usize],
    boxes: &[GenericBox],
    budget: u64,
) -> Result<BigNat, CountError> {
    count_union_impl(&domain_sizes, boxes, budget, domain_product(domain_sizes))
}

/// `∏ |Sᵢ|`: the number of tuples of `S₀ × ⋯ × S_{n-1}`.
pub(crate) fn domain_product(domain_sizes: &[usize]) -> BigNat {
    let mut total = BigNat::one();
    for &s in domain_sizes {
        total.mul_assign_u64(s as u64);
    }
    total
}

/// Domain-size lookup abstraction: the generic entry point reads a plain
/// slice, while the selector-box path borrows sizes directly from the
/// block partition (clamping retired slots to neutral size 1) without
/// materialising a vector per query.
pub(crate) trait DomainSizes {
    fn count(&self) -> usize;
    fn size(&self, domain: usize) -> usize;
}

impl DomainSizes for &[usize] {
    fn count(&self) -> usize {
        self.len()
    }

    fn size(&self, domain: usize) -> usize {
        self[domain]
    }
}

pub(crate) struct SlotSizes<'a>(pub(crate) &'a BlockPartition);

impl DomainSizes for SlotSizes<'_> {
    fn count(&self) -> usize {
        self.0.slot_count()
    }

    fn size(&self, domain: usize) -> usize {
        self.0
            .block(cdr_repairdb::BlockId::new(domain))
            .len()
            .max(1)
    }
}

fn count_union_impl<S: DomainSizes>(
    sizes: &S,
    boxes: &[GenericBox],
    budget: u64,
    total: BigNat,
) -> Result<BigNat, CountError> {
    // A box pinning an element outside its domain, or an empty domain,
    // cannot cover anything; skip such boxes up front (by reference — the
    // surviving boxes are never cloned).
    let boxes: Vec<&GenericBox> = boxes
        .iter()
        .filter(|b| {
            b.pins()
                .all(|(d, e)| d < sizes.count() && e < sizes.size(d))
        })
        .collect();
    if total.is_zero() || boxes.is_empty() {
        return Ok(BigNat::zero());
    }
    if boxes.iter().any(|b| b.is_empty()) {
        return Ok(total);
    }
    let boxes = prune_subsumed(&boxes);
    let components = connected_components(&boxes, sizes.count());

    // A repair avoids the union iff it avoids every component's boxes;
    // free domains (touched by no component) contribute their full size.
    // Start from the caller's total and divide out each touched domain —
    // O(touched) divisions instead of O(domains) multiplications.
    let mut uncovered_product = total.clone();
    for component in &components {
        for &d in &component.touched {
            let (quotient, remainder) = uncovered_product.div_rem_u64(sizes.size(d) as u64);
            debug_assert_eq!(remainder, 0, "domain sizes divide the total exactly");
            uncovered_product = quotient;
        }
    }
    for component in &components {
        let mut component_total = BigNat::one();
        for &d in &component.touched {
            component_total.mul_assign_u64(sizes.size(d) as u64);
        }
        let covered = count_component_union(sizes, &component.boxes, &component.touched, budget)?;
        let uncovered = component_total
            .checked_sub(&covered)
            .expect("covered assignments cannot exceed the component total");
        uncovered_product = &uncovered_product * &uncovered;
    }
    Ok(total
        .checked_sub(&uncovered_product)
        .expect("non-entailing tuples cannot exceed the total"))
}

/// Drops boxes that are subsumed by (contained in) another box, preserving
/// the input order of the survivors.
///
/// A box can only be subsumed by a box with at most as many pins, so the
/// scan processes candidates in ascending pin count and checks each only
/// against already-kept boxes, stopping as soon as the kept boxes grow
/// larger than the candidate — no clones, no O(n²) full cross-product.
/// Tie-break: of two *equal* boxes exactly the first (smallest input
/// index) survives, exactly as before the flat-representation rewrite.
fn prune_subsumed<'a>(boxes: &[&'a GenericBox]) -> Vec<&'a GenericBox> {
    let mut order: Vec<usize> = (0..boxes.len()).collect();
    order.sort_by_key(|&i| (boxes[i].len(), i));
    let mut kept: Vec<usize> = Vec::with_capacity(boxes.len());
    'outer: for &i in &order {
        let candidate = boxes[i];
        for &j in &kept {
            let other = boxes[j];
            if other.len() > candidate.len() {
                // Kept boxes are visited in ascending pin count: nothing
                // beyond this point can subsume the candidate.
                break;
            }
            if candidate.is_subset_of(other) {
                continue 'outer;
            }
        }
        kept.push(i);
    }
    kept.sort_unstable();
    kept.into_iter().map(|i| boxes[i]).collect()
}

struct Component<'a> {
    boxes: Vec<&'a GenericBox>,
    /// The domains pinned by at least one box of the component, sorted.
    touched: Vec<usize>,
}

/// Groups boxes into connected components of the "shares a pinned domain"
/// relation, via union–find over box indices with a slot-indexed
/// domain-owner table (domains are dense indices below `domain_count`).
fn connected_components<'a>(boxes: &[&'a GenericBox], domain_count: usize) -> Vec<Component<'a>> {
    let mut parent: Vec<u32> = (0..boxes.len() as u32).collect();

    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    fn union(parent: &mut [u32], a: u32, b: u32) {
        let ra = find(parent, a);
        let rb = find(parent, b);
        if ra != rb {
            parent[ra as usize] = rb;
        }
    }

    const NO_OWNER: u32 = u32::MAX;
    let mut domain_owner: Vec<u32> = vec![NO_OWNER; domain_count];
    for (i, b) in boxes.iter().enumerate() {
        for &(domain, _) in b.as_slice() {
            let owner = &mut domain_owner[domain as usize];
            if *owner == NO_OWNER {
                *owner = i as u32;
            } else {
                let previous = *owner;
                union(&mut parent, i as u32, previous);
            }
        }
    }

    // Group boxes by root, preserving input order within and across
    // components (components are ordered by their first member).
    let mut component_of: Vec<u32> = vec![NO_OWNER; boxes.len()];
    let mut components: Vec<Component<'a>> = Vec::new();
    for (i, b) in boxes.iter().enumerate() {
        let root = find(&mut parent, i as u32);
        let slot = if component_of[root as usize] == NO_OWNER {
            components.push(Component {
                boxes: Vec::new(),
                touched: Vec::new(),
            });
            component_of[root as usize] = (components.len() - 1) as u32;
            components.len() - 1
        } else {
            component_of[root as usize] as usize
        };
        components[slot].boxes.push(b);
        components[slot]
            .touched
            .extend(b.pins().map(|(domain, _)| domain));
    }
    for component in &mut components {
        component.touched.sort_unstable();
        component.touched.dedup();
    }
    components
}

/// Maximum number of boxes for which inclusion–exclusion (2^boxes terms) is
/// attempted when enumeration of the touched domains is over budget.
const MAX_IE_BOXES: usize = 22;

/// Counts the assignments of the component's touched domains that are
/// covered by at least one of the component's boxes.
fn count_component_union<S: DomainSizes>(
    sizes: &S,
    boxes: &[&GenericBox],
    touched: &[usize],
    budget: u64,
) -> Result<BigNat, CountError> {
    // Cost of enumerating the touched assignments.
    let mut enumeration_cost: u128 = 1;
    for &d in touched {
        enumeration_cost = enumeration_cost.saturating_mul(sizes.size(d) as u128);
        if enumeration_cost > budget as u128 {
            break;
        }
    }
    if enumeration_cost <= budget as u128 {
        return Ok(count_by_touched_enumeration(sizes, boxes, touched));
    }
    if boxes.len() <= MAX_IE_BOXES {
        return Ok(count_by_inclusion_exclusion(sizes, boxes, touched));
    }
    Err(CountError::ExactBudgetExceeded {
        what: format!(
            "a component with {} boxes touching {} domains ({} assignments)",
            boxes.len(),
            touched.len(),
            enumeration_cost
        ),
        budget,
    })
}

/// Enumerates the assignments of the touched domains and counts those
/// covered by at least one box.
fn count_by_touched_enumeration<S: DomainSizes>(
    sizes: &S,
    boxes: &[&GenericBox],
    touched: &[usize],
) -> BigNat {
    let touched_sizes: Vec<usize> = touched.iter().map(|&d| sizes.size(d)).collect();
    let mut choice = vec![0usize; touched.len()];
    let mut covered: u64 = 0;
    loop {
        let is_covered = boxes.iter().any(|b| {
            b.pins().all(|(domain, element)| {
                match touched.binary_search(&domain) {
                    Ok(position) => choice[position] == element,
                    // A box never pins a domain outside its own component.
                    Err(_) => false,
                }
            })
        });
        if is_covered {
            covered += 1;
        }
        // Advance the mixed-radix counter.
        let mut i = touched.len();
        loop {
            if i == 0 {
                return BigNat::from(covered);
            }
            i -= 1;
            choice[i] += 1;
            if choice[i] < touched_sizes[i] {
                break;
            }
            choice[i] = 0;
        }
        if touched.is_empty() {
            return BigNat::from(covered);
        }
    }
}

/// Counts the covered assignments by inclusion–exclusion over the boxes:
/// `|⋃ boxes| = Σ_{∅ ≠ S} (−1)^{|S|+1} |⋂ S|`, where the intersection of a
/// set of boxes is itself a box (or empty).  The intersection pin sets are
/// built by sorted merges into two scratch buffers reused across the
/// 2^n − 1 subsets.
fn count_by_inclusion_exclusion<S: DomainSizes>(
    sizes: &S,
    boxes: &[&GenericBox],
    touched: &[usize],
) -> BigNat {
    let n = boxes.len();
    let mut positive = BigNat::zero();
    let mut negative = BigNat::zero();
    let mut intersection: Vec<(u32, u32)> = Vec::new();
    let mut merged: Vec<(u32, u32)> = Vec::new();
    for mask in 1u64..(1u64 << n) {
        intersection.clear();
        let mut empty = false;
        'boxes: for (i, b) in boxes.iter().enumerate() {
            if mask & (1 << i) == 0 {
                continue;
            }
            // merged ← intersection ∪ b.pins, conflict ⇒ empty box.
            merged.clear();
            let mut existing = intersection.iter().peekable();
            for &(domain, element) in b.as_slice() {
                while let Some(&&(have_domain, have_element)) = existing.peek() {
                    if have_domain < domain {
                        merged.push((have_domain, have_element));
                        existing.next();
                    } else if have_domain == domain {
                        if have_element != element {
                            empty = true;
                            break 'boxes;
                        }
                        existing.next();
                        break;
                    } else {
                        break;
                    }
                }
                merged.push((domain, element));
            }
            merged.extend(existing.copied());
            std::mem::swap(&mut intersection, &mut merged);
        }
        if empty {
            continue;
        }
        // Size of the intersection restricted to the touched domains: walk
        // the two sorted lists in lockstep.
        let mut size = BigNat::one();
        let mut pins = intersection.iter().peekable();
        for &d in touched {
            while pins.next_if(|&&(pin, _)| (pin as usize) < d).is_some() {}
            if pins.peek().is_some_and(|&&(pin, _)| pin as usize == d) {
                continue;
            }
            size.mul_assign_u64(sizes.size(d) as u64);
        }
        if mask.count_ones() % 2 == 1 {
            positive += size;
        } else {
            negative += size;
        }
    }
    positive
        .checked_sub(&negative)
        .expect("inclusion-exclusion must not go negative")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::count_by_enumeration;
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

    fn count_both_ways(db: &Database, keys: &KeySet, text: &str) -> (u64, u64) {
        let q = parse_query(text).unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let by_boxes = count_by_boxes(db, keys, &ucq, 1_000_000).unwrap();
        let by_enum = count_by_enumeration(db, keys, &q, 1_000_000).unwrap();
        (by_boxes.to_u64().unwrap(), by_enum.to_u64().unwrap())
    }

    /// Shorthand: prune a slice of owned boxes through the by-reference
    /// entry point, returning clones of the survivors.
    fn prune(boxes: &[GenericBox]) -> Vec<GenericBox> {
        let refs: Vec<&GenericBox> = boxes.iter().collect();
        prune_subsumed(&refs).into_iter().cloned().collect()
    }

    #[test]
    fn example_1_1_counts_two() {
        let (db, keys) = employee();
        let (boxes, enumeration) = count_both_ways(
            &db,
            &keys,
            "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)",
        );
        assert_eq!(boxes, 2);
        assert_eq!(enumeration, 2);
    }

    #[test]
    fn agreement_with_enumeration_on_various_queries() {
        let (db, keys) = employee();
        for text in [
            "EXISTS n . Employee(2, n, 'IT')",
            "EXISTS n, d . Employee(3, n, d)",
            "Employee(1, 'Bob', 'HR')",
            "Employee(1, 'Bob', 'HR') OR Employee(1, 'Bob', 'IT')",
            "Employee(1, 'Bob', 'HR') AND Employee(2, 'Tim', 'IT')",
            "EXISTS i, n . Employee(i, n, 'HR')",
            "EXISTS i, n, d . Employee(i, n, d)",
            "TRUE",
            "FALSE",
        ] {
            let (a, b) = count_both_ways(&db, &keys, text);
            assert_eq!(a, b, "count mismatch for {text}");
        }
    }

    #[test]
    fn larger_database_with_mixed_blocks() {
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
        // R blocks: key 1 -> {a, b, c}; key 2 -> {a, b}; key 3 -> {c}.
        for (k, v) in [(1, "a"), (1, "b"), (1, "c"), (2, "a"), (2, "b"), (3, "c")] {
            db.insert_parsed(&format!("R({k}, '{v}')")).unwrap();
        }
        // S blocks: key 1 -> {a, x}; key 2 -> {y}.
        for (k, v) in [(1, "a"), (1, "x"), (2, "y")] {
            db.insert_parsed(&format!("S({k}, '{v}')")).unwrap();
        }
        for text in [
            "EXISTS k . R(k, 'a') AND S(k, 'a')",
            "EXISTS k, v . R(k, v) AND S(k, v)",
            "EXISTS k . R(k, 'c')",
            "R(1, 'a') OR S(1, 'x')",
            "EXISTS k . R(k, 'b') AND S(1, 'a')",
            "(EXISTS k . R(k, 'a')) AND (EXISTS j . S(j, 'y'))",
        ] {
            let q = parse_query(text).unwrap();
            let ucq = rewrite_to_ucq(&q).unwrap();
            let by_boxes = count_by_boxes(&db, &keys, &ucq, 1_000_000).unwrap();
            let by_enum = count_by_enumeration(&db, &keys, &q, 1_000_000).unwrap();
            assert_eq!(by_boxes, by_enum, "count mismatch for {text}");
        }
    }

    #[test]
    fn unconstrained_box_short_circuits_to_total() {
        let (db, keys) = employee();
        let ucq = rewrite_to_ucq(&parse_query("TRUE").unwrap()).unwrap();
        assert_eq!(
            count_by_boxes(&db, &keys, &ucq, 10).unwrap().to_u64(),
            Some(4)
        );
    }

    #[test]
    fn subsumed_boxes_are_pruned() {
        let (db, keys) = employee();
        let blocks = BlockPartition::new(&db, &keys);
        // Build two boxes where one subsumes the other.
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        let tight = certs[0].selector.clone();
        let loose = SelectorBox::new(tight.pins().take(1));
        // At the generic level, the tighter box (more pins) is dropped.
        let tight_g: GenericBox = [(0usize, 1usize), (1, 0)].into_iter().collect();
        let loose_g: GenericBox = [(0usize, 1usize)].into_iter().collect();
        let pruned = prune(&[tight_g.clone(), loose_g.clone()]);
        assert_eq!(pruned, vec![loose_g.clone()]);
        // Equal boxes: exactly one survives.
        let pruned = prune(&[loose_g.clone(), loose_g.clone()]);
        assert_eq!(pruned.len(), 1);
        // Counting with redundant boxes still gives the right answer.
        let with_redundant = count_union_of_boxes(&blocks, &[tight, loose.clone()], 1000).unwrap();
        let alone = count_union_of_boxes(&blocks, &[loose], 1000).unwrap();
        assert_eq!(with_redundant, alone);
    }

    /// Regression for the pin-count pre-sort: duplicates, mutually
    /// subsuming chains and interleaved input orders must keep the
    /// pre-rewrite semantics — strictly-subsumed boxes always die, and of
    /// two equal boxes exactly the first survives, in input order.
    #[test]
    fn prune_tie_breaks_match_the_quadratic_semantics() {
        let a: GenericBox = [(0usize, 0usize)].into_iter().collect();
        let ab: GenericBox = [(0usize, 0usize), (1, 1)].into_iter().collect();
        let abc: GenericBox = [(0usize, 0usize), (1, 1), (2, 2)].into_iter().collect();
        let other: GenericBox = [(5usize, 0usize)].into_iter().collect();

        // A chain with duplicates, largest first: only the smallest
        // (and, of its two copies, the first) survives.
        let pruned = prune(&[abc.clone(), ab.clone(), a.clone(), a.clone(), ab.clone()]);
        assert_eq!(pruned, vec![a.clone()]);

        // Three identical boxes: exactly one survivor.
        let pruned = prune(&[ab.clone(), ab.clone(), ab.clone()]);
        assert_eq!(pruned, vec![ab.clone()]);

        // Survivors keep their input order, even when the pin-count
        // pre-sort visits them in a different order.
        let pruned = prune(&[abc.clone(), other.clone(), a.clone()]);
        assert_eq!(pruned, vec![other.clone(), a.clone()]);

        // Mutually incomparable boxes all survive.
        let b: GenericBox = [(1usize, 0usize)].into_iter().collect();
        let pruned = prune(&[a.clone(), b.clone(), other.clone()]);
        assert_eq!(pruned, vec![a.clone(), b, other]);

        // Equal boxes still collapse to one when a strict subsumer is
        // also present — and the subsumer is the survivor.
        let pruned = prune(&[ab.clone(), ab.clone(), a.clone()]);
        assert_eq!(pruned, vec![a]);
    }

    #[test]
    fn generic_box_accessors_and_last_pin_wins() {
        let b: GenericBox = [(3usize, 1usize), (1, 2), (3, 7)].into_iter().collect();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.get(1), Some(2));
        assert_eq!(b.get(3), Some(7), "the last pin of a domain wins");
        assert_eq!(b.get(0), None);
        assert_eq!(b.pins().collect::<Vec<_>>(), vec![(1, 2), (3, 7)]);
        assert_eq!(b.as_slice(), &[(1u32, 2u32), (3, 7)]);
    }

    #[test]
    fn generic_union_counting_matches_brute_force() {
        // Three domains of sizes 3, 2, 4; a handful of boxes; compare
        // against a brute-force sweep of all 24 tuples.
        let sizes = [3usize, 2, 4];
        let boxes: Vec<GenericBox> = vec![
            [(0usize, 0usize), (1, 1)].into_iter().collect(),
            [(1usize, 0usize), (2, 3)].into_iter().collect(),
            [(0usize, 2usize)].into_iter().collect(),
        ];
        let mut expected = 0u64;
        for a in 0..3 {
            for b in 0..2 {
                for c in 0..4 {
                    let tuple = [a, b, c];
                    if boxes.iter().any(|bx| bx.pins().all(|(d, e)| tuple[d] == e)) {
                        expected += 1;
                    }
                }
            }
        }
        let counted = count_union_generic(&sizes, &boxes, 1_000).unwrap();
        assert_eq!(counted.to_u64(), Some(expected));
        // The same result through the inclusion-exclusion path.
        let counted_ie = count_union_generic(&sizes, &boxes, 1).unwrap();
        assert_eq!(counted_ie.to_u64(), Some(expected));
    }

    #[test]
    fn generic_union_counting_edge_cases() {
        // No boxes.
        assert!(count_union_generic(&[2, 2], &[], 10).unwrap().is_zero());
        // An empty (unconstrained) box covers everything.
        let all: Vec<GenericBox> = vec![GenericBox::new()];
        assert_eq!(
            count_union_generic(&[2, 3], &all, 10).unwrap().to_u64(),
            Some(6)
        );
        // A box pinning a non-existent element is discarded.
        let bogus: Vec<GenericBox> = vec![[(0usize, 9usize)].into_iter().collect()];
        assert!(count_union_generic(&[2, 2], &bogus, 10).unwrap().is_zero());
        // An empty product space.
        let b: Vec<GenericBox> = vec![[(0usize, 0usize)].into_iter().collect()];
        assert!(count_union_generic(&[2, 0], &b, 10).unwrap().is_zero());
        // No domains at all: the single empty tuple, covered only by an
        // unconstrained box.
        assert_eq!(
            count_union_generic(&[], &all, 10).unwrap().to_u64(),
            Some(1)
        );
        assert!(count_union_generic(&[], &[], 10).unwrap().is_zero());
    }

    #[test]
    fn inclusion_exclusion_matches_enumeration_within_a_component() {
        // Force the IE path by using a tiny budget, then compare with the
        // enumeration path under a large budget.
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        let keys = KeySet::builder(&schema).key("R", 1).unwrap().build();
        let mut db = Database::new(schema);
        for k in 1..=4i64 {
            for v in ["a", "b", "c"] {
                db.insert_parsed(&format!("R({k}, '{v}')")).unwrap();
            }
        }
        let q = parse_query(
            "(EXISTS x . R(1, 'a') AND R(2, 'a')) OR (EXISTS x . R(2, 'b') AND R(3, 'c')) \
             OR (EXISTS x . R(1, 'b') AND R(3, 'a') AND R(4, 'c'))",
        )
        .unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let blocks = BlockPartition::new(&db, &keys);
        let certs = enumerate_certificates(&db, &keys, &blocks, &ucq).unwrap();
        let boxes = distinct_boxes(&certs);
        // All three boxes overlap on blocks {1,2,3,4}: a single component.
        let big_budget = count_union_of_boxes(&blocks, &boxes, 1_000_000).unwrap();
        let tiny_budget = count_union_of_boxes(&blocks, &boxes, 2).unwrap();
        assert_eq!(big_budget, tiny_budget);
        let by_enum = count_by_enumeration(&db, &keys, &q, 1_000_000).unwrap();
        assert_eq!(big_budget, by_enum);
    }

    #[test]
    fn budget_exceeded_when_both_strategies_are_infeasible() {
        // Many boxes in one component and a huge touched product: with a
        // tiny budget and more than MAX_IE_BOXES boxes, counting must fail.
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        schema.add_relation("Hub", 2).unwrap();
        let keys = KeySet::builder(&schema)
            .key("R", 1)
            .unwrap()
            .key("Hub", 1)
            .unwrap()
            .build();
        let mut db = Database::new(schema);
        for k in 1..=30i64 {
            db.insert_parsed(&format!("R({k}, 'a')")).unwrap();
            db.insert_parsed(&format!("R({k}, 'b')")).unwrap();
            // Hub links every R block into one component.
            db.insert_parsed(&format!("Hub(0, 'h{k}')")).unwrap();
        }
        // Each disjunct pins Hub block 0 (shared) and one R block.
        let mut disjuncts = Vec::new();
        for k in 1..=30i64 {
            disjuncts.push(format!("(EXISTS h . R({k}, 'a') AND Hub(0, h))"));
        }
        let q = parse_query(&disjuncts.join(" OR ")).unwrap();
        let ucq = rewrite_to_ucq(&q).unwrap();
        let err = count_by_boxes(&db, &keys, &ucq, 100).unwrap_err();
        assert!(matches!(err, CountError::ExactBudgetExceeded { .. }));
    }

    #[test]
    fn empty_database_cases() {
        let mut schema = Schema::new();
        schema.add_relation("R", 1).unwrap();
        let keys = KeySet::builder(&schema).key("R", 1).unwrap().build();
        let db = Database::new(schema);
        let t = rewrite_to_ucq(&parse_query("TRUE").unwrap()).unwrap();
        let f = rewrite_to_ucq(&parse_query("FALSE").unwrap()).unwrap();
        let r = rewrite_to_ucq(&parse_query("EXISTS x . R(x)").unwrap()).unwrap();
        assert_eq!(
            count_by_boxes(&db, &keys, &t, 10).unwrap().to_u64(),
            Some(1)
        );
        assert_eq!(
            count_by_boxes(&db, &keys, &f, 10).unwrap().to_u64(),
            Some(0)
        );
        assert_eq!(
            count_by_boxes(&db, &keys, &r, 10).unwrap().to_u64(),
            Some(0)
        );
    }
}
