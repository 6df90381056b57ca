//! The [`RepairEngine`]: an owned, thread-safe, caching, *mutable* entry
//! point for every operation the paper studies.
//!
//! The engine owns its database and key set (behind [`Arc`](std::sync::Arc)s so clones are
//! cheap to share across threads), computes the block partition `B₁, …, Bₙ`
//! and the total repair count **once** at construction, and then keeps both
//! up to date **incrementally** as [`Mutation`](cdr_repairdb::Mutation)s arrive: an insert or
//! delete rebuilds only the touched key-block
//! ([`cdr_repairdb::BlockPartition::apply`]) and the total repair count is
//! updated by dividing out the old block's contribution and multiplying in
//! the new one — never by a full reproduct.
//!
//! All operations go through one command/response pair: an
//! [`EngineCommand`] is either a [`CountRequest`] (a query, a
//! [`Semantics`], a [`Strategy`], a budget and a sample cap) or a
//! [`Mutation`](cdr_repairdb::Mutation) / batch of mutations; an [`EngineResponse`] is the matching
//! [`CountReport`] or [`MutationReport`].  Queries remain `&self` (and
//! [`RepairEngine::run_batch`] fans them out across
//! [`std::thread::scope`] threads when a [`RepairEngine::with_parallelism`]
//! knob allows); mutations take `&mut self`, which makes every mutation a
//! natural barrier between parallel batches.
//!
//! Per-query planning artifacts — the UCQ rewrite, the query class, the
//! keywidth and disjunct keywidth, the certificate boxes, and the prepared
//! estimators — live in a bounded, generation-stamped LRU plan cache.  The
//! engine maintains a monotonically increasing *generation* counter plus a
//! per-relation last-mutation generation; a cached plan whose certificate
//! boxes pin a block of a mutated relation is lazily re-derived on its next
//! use, while plans over untouched relations survive the mutation (their
//! boxes pin *stable* block slots, which mutations to other relations never
//! renumber).  The [`RepairEngine::cache_stats`] counters — hits, misses,
//! evictions, invalidations — make all of this observable.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::{Duration, Instant};

use cdr_num::{BigNat, Ratio};
use cdr_query::{
    evaluate, keywidth, max_disjunct_keywidth, rewrite_to_ucq, Query, QueryClass, UcqQuery,
};
use cdr_repairdb::{
    count_repairs, AppliedMutation, BlockDelta, BlockPartition, CompactionReport, Database, FactId,
    KeySet, Mutation, RepairIter,
};

use crate::approx::{ApproxConfig, ApproxCount, DomainSampler, FprasEstimator, KarpLubyEstimator};
use crate::exact::{count_by_enumeration, count_union_of_boxes_with_total, DEFAULT_EXACT_BUDGET};
use crate::{distinct_boxes, enumerate_certificates, CountError, SelectorBox};

/// Default capacity of the engine's LRU plan cache.
///
/// One plan is cached per distinct query text; the bound keeps an engine
/// exposed to an untrusted query stream from growing without limit.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1024;

/// What question a [`CountRequest`] asks about its query.
#[derive(Clone, Debug, PartialEq)]
pub enum Semantics {
    /// The exact number of repairs entailing the query (`#CQA`).
    Exact,
    /// An (ε, δ)-approximation of the exact count (Theorem 6.2).
    Approximate {
        /// Relative error bound `ε > 0`.
        epsilon: f64,
        /// Failure probability `δ ∈ (0, 1)`.
        delta: f64,
        /// Seed for the pseudo-random generator, for reproducible runs.
        seed: u64,
    },
    /// The decision problem `#CQA>0`: does *some* repair entail the query?
    Decision,
    /// Certain-answer semantics: does *every* repair entail the query?
    CertainAnswer,
    /// The relative frequency of the query over the repairs (Section 1.1).
    Frequency,
}

/// How the engine should compute the answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Strategy {
    /// Choose automatically from the query class and the semantics: the
    /// certificate/box machinery for existential positive queries, repair
    /// enumeration for arbitrary first-order queries, and the paper's
    /// FPRAS for approximations.
    #[default]
    Auto,
    /// Enumerate every repair (any first-order query; exponential).
    Enumeration,
    /// The certificate/box algorithm (existential positive queries only).
    CertificateBoxes,
    /// The Karp–Luby baseline estimator (approximate semantics only).
    KarpLuby,
}

impl Strategy {
    fn name(self) -> &'static str {
        match self {
            Strategy::Auto => "Auto",
            Strategy::Enumeration => "Enumeration",
            Strategy::CertificateBoxes => "CertificateBoxes",
            Strategy::KarpLuby => "KarpLuby",
        }
    }
}

/// A single question for a [`RepairEngine`]: a query, the [`Semantics`] to
/// apply, and the tuning knobs ([`Strategy`], budget, sample cap, seed).
///
/// ```
/// use cdr_core::{CountRequest, Semantics, Strategy};
/// use cdr_query::parse_query;
///
/// let q = parse_query("EXISTS n . Employee(2, n, 'IT')").unwrap();
/// let request = CountRequest::exact(q.clone())
///     .with_strategy(Strategy::CertificateBoxes)
///     .with_budget(1_000_000);
/// assert_eq!(request.semantics(), &Semantics::Exact);
/// assert_eq!(request.strategy(), Strategy::CertificateBoxes);
/// assert_eq!(request.budget(), Some(1_000_000));
///
/// let approx = CountRequest::approximate(q, 0.1, 0.05).with_seed(42);
/// assert!(matches!(
///     approx.semantics(),
///     Semantics::Approximate { seed: 42, .. }
/// ));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CountRequest {
    query: Query,
    semantics: Semantics,
    strategy: Strategy,
    budget: Option<u64>,
    sample_cap: u64,
}

impl CountRequest {
    /// A request with explicit semantics and default knobs.
    pub fn new(query: Query, semantics: Semantics) -> Self {
        CountRequest {
            query,
            semantics,
            strategy: Strategy::Auto,
            budget: None,
            sample_cap: ApproxConfig::default().max_samples,
        }
    }

    /// Asks for the exact repair count of the query.
    pub fn exact(query: Query) -> Self {
        CountRequest::new(query, Semantics::Exact)
    }

    /// Asks for an (ε, δ)-approximate count with the default seed.
    pub fn approximate(query: Query, epsilon: f64, delta: f64) -> Self {
        CountRequest::new(
            query,
            Semantics::Approximate {
                epsilon,
                delta,
                seed: ApproxConfig::default().seed,
            },
        )
    }

    /// Asks whether some repair entails the query (`#CQA>0`).
    pub fn decision(query: Query) -> Self {
        CountRequest::new(query, Semantics::Decision)
    }

    /// Asks whether every repair entails the query (certain answers).
    pub fn certain_answer(query: Query) -> Self {
        CountRequest::new(query, Semantics::CertainAnswer)
    }

    /// Asks for the relative frequency of the query over the repairs.
    pub fn frequency(query: Query) -> Self {
        CountRequest::new(query, Semantics::Frequency)
    }

    /// Forces a particular [`Strategy`] instead of `Auto`.
    pub fn with_strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the number of repairs (or per-component assignments) exact
    /// algorithms may enumerate; defaults to the engine's budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = Some(budget);
        self
    }

    /// Caps the number of samples an approximation may draw.
    pub fn with_sample_cap(mut self, sample_cap: u64) -> Self {
        self.sample_cap = sample_cap;
        self
    }

    /// Sets the random seed (only meaningful for approximate semantics).
    pub fn with_seed(mut self, seed: u64) -> Self {
        if let Semantics::Approximate { seed: s, .. } = &mut self.semantics {
            *s = seed;
        }
        self
    }

    /// The query being asked about.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The semantics requested.
    pub fn semantics(&self) -> &Semantics {
        &self.semantics
    }

    /// The strategy requested (before `Auto` resolution).
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The explicit budget, if one was set.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// The sample cap for approximate semantics.
    pub fn sample_cap(&self) -> u64 {
        self.sample_cap
    }
}

/// One instruction for a [`RepairEngine`] session: ask a question or edit
/// the database.
///
/// Commands are the uniform surface a serving loop speaks: parse the wire
/// format into an `EngineCommand`, call [`RepairEngine::execute`], ship the
/// [`EngineResponse`] back.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineCommand {
    /// Answer one counting request.
    Query(CountRequest),
    /// Apply one database mutation.
    Mutate(Mutation),
    /// Apply a sequence of mutations as one atomic command: validated up
    /// front, applied in order, one aggregated report — a rejected batch
    /// changes nothing (see [`RepairEngine::apply_batch`]).
    MutateBatch(Vec<Mutation>),
    /// Compact the engine: drop tombstones and retired block slots,
    /// remap the surviving fact ids onto a dense prefix, and reclaim id
    /// headroom (see [`RepairEngine::compact`]).
    Compact,
}

/// The uniform result of [`RepairEngine::execute`].
#[derive(Clone, Debug)]
pub enum EngineResponse {
    /// The answer to a [`EngineCommand::Query`].
    Report(CountReport),
    /// The effect of a [`EngineCommand::Mutate`] / `MutateBatch`.
    Applied(MutationReport),
    /// The effect of an [`EngineCommand::Compact`].
    Compacted(CompactionOutcome),
}

impl EngineResponse {
    /// The count report, if this response is one.
    pub fn as_report(&self) -> Option<&CountReport> {
        match self {
            EngineResponse::Report(r) => Some(r),
            _ => None,
        }
    }

    /// The mutation report, if this response is one.
    pub fn as_applied(&self) -> Option<&MutationReport> {
        match self {
            EngineResponse::Applied(r) => Some(r),
            _ => None,
        }
    }

    /// The compaction outcome, if this response is one.
    pub fn as_compacted(&self) -> Option<&CompactionOutcome> {
        match self {
            EngineResponse::Compacted(r) => Some(r),
            _ => None,
        }
    }
}

/// What a mutation command did to the engine.
#[derive(Clone, Debug)]
pub struct MutationReport {
    /// Number of mutations that actually changed the database.
    pub applied: usize,
    /// Number of mutations that were visible no-ops (duplicate inserts).
    pub noops: usize,
    /// The engine generation after the command (bumped once per applied
    /// mutation, never for no-ops).
    pub generation: u64,
    /// The per-mutation block deltas, in application order (no entry for
    /// no-ops).
    pub deltas: Vec<BlockDelta>,
    /// Wall-clock time spent applying the command.
    pub duration: Duration,
}

/// What an [`EngineCommand::Compact`] did to the engine.
#[derive(Clone, Debug)]
pub struct CompactionOutcome {
    /// The database-level report: the id-translation table plus fact-id
    /// reclamation stats.
    pub report: CompactionReport,
    /// Block slots (live + retired) before the compaction.
    pub slots_before: usize,
    /// Block slots after: equals the live block count, since compaction
    /// drops every retired slot and renumbers the rest densely.
    pub slots_after: usize,
    /// Cached query plans dropped by the compaction (their certificate
    /// boxes pinned pre-compaction slot and fact ids).
    pub plans_dropped: u64,
    /// Whether the freshly recomputed `∏ |Bᵢ|` agreed with the
    /// incrementally-maintained total (it always should; the recomputed
    /// value is authoritative either way).
    pub total_cross_checked: bool,
    /// The engine generation after the compaction.
    pub generation: u64,
    /// Wall-clock time the compaction took.
    pub duration: Duration,
}

impl CompactionOutcome {
    /// Retired block slots the compaction dropped.
    pub fn slots_dropped(&self) -> usize {
        self.slots_before - self.slots_after
    }
}

/// The tagged payload of a [`CountReport`].
#[derive(Clone, Debug)]
pub enum Answer {
    /// An exact repair count.
    Count(BigNat),
    /// An approximate count with its sampling diagnostics.
    Estimate(ApproxCount),
    /// An exact relative frequency.
    Frequency(Ratio),
    /// A yes/no answer (decision or certain-answer semantics).
    Decision(bool),
}

impl Answer {
    /// The exact count, if this answer is one.
    pub fn as_count(&self) -> Option<&BigNat> {
        match self {
            Answer::Count(c) => Some(c),
            _ => None,
        }
    }

    /// The estimate, if this answer is one.
    pub fn as_estimate(&self) -> Option<&ApproxCount> {
        match self {
            Answer::Estimate(e) => Some(e),
            _ => None,
        }
    }

    /// The frequency, if this answer is one.
    pub fn as_frequency(&self) -> Option<&Ratio> {
        match self {
            Answer::Frequency(f) => Some(f),
            _ => None,
        }
    }

    /// The boolean, if this answer is a decision.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Answer::Decision(b) => Some(*b),
            _ => None,
        }
    }
}

/// The uniform result of [`RepairEngine::run`]: the [`Answer`] plus the
/// provenance of how it was computed.
#[derive(Clone, Debug)]
pub struct CountReport {
    /// The answer, tagged by kind.
    pub answer: Answer,
    /// The strategy that actually produced the answer (`Auto` resolved).
    pub strategy: Strategy,
    /// Number of certificates found, when the certificate machinery ran.
    pub certificates: Option<usize>,
    /// The sample size the approximation theory asked for (0 for exact
    /// semantics).
    pub samples_requested: u64,
    /// The number of samples actually drawn (0 for exact semantics).
    pub samples_used: u64,
    /// Wall-clock time spent answering the request.
    pub duration: Duration,
    /// Whether the query plan came from the engine's cache.
    pub plan_cached: bool,
    /// The engine generation the answer is valid for (the database state
    /// this report describes).
    pub generation: u64,
}

/// Counters describing the engine's generation-stamped LRU plan cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests answered with an already-planned query.
    pub hits: u64,
    /// Requests that had to plan the query from scratch.
    pub misses: u64,
    /// Number of plans currently cached.
    pub entries: u64,
    /// Maximum number of resident plans before LRU eviction kicks in.
    pub capacity: u64,
    /// Number of plans evicted to keep the cache within capacity.
    pub evictions: u64,
    /// Number of times a cached plan's certificate boxes were re-derived
    /// because a mutation had touched one of the query's relations.
    pub invalidations: u64,
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "plan cache: {}/{} entries, {} hits, {} misses, {} evictions, {} invalidations",
            self.entries, self.capacity, self.hits, self.misses, self.evictions, self.invalidations
        )
    }
}

/// Locks a mutex, recovering from poisoning (the engine's caches hold no
/// invariants a panicking thread could break mid-update that the rebuild
/// paths cannot repair).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Everything the engine ever needs to know about one query.  The
/// database-independent parts (rewrite, class, keywidths) are computed once
/// per plan; the database-dependent parts (certificate boxes, prepared
/// estimators) are generation-stamped and lazily re-derived after a
/// mutation invalidates them.
struct QueryPlan {
    query: Query,
    class: QueryClass,
    keywidth: usize,
    /// The relation names the query mentions (sorted, deduplicated) — the
    /// invalidation footprint: only mutations to these relations can change
    /// the query's certificate set.
    relations: Vec<String>,
    /// The UCQ rewrite, or the rewrite error for genuinely first-order
    /// queries (kept so forced box strategies report the right error).
    ucq: Result<UcqQuery, CountError>,
    /// `max_disjunct_keywidth` of the rewrite (None for FO queries).
    disjunct_keywidth: Option<usize>,
    certs: Mutex<Option<CertState>>,
    estimators: Mutex<Option<EstState>>,
}

/// A generation-stamped certificate summary.
struct CertState {
    /// The maximum last-mutation generation over the plan's relations at
    /// the time the summary was derived.
    rel_generation: u64,
    summary: Result<CertSummary, CountError>,
}

/// Generation-stamped prepared estimators.  Estimators embed the whole
/// block partition and the total repair count, so *any* mutation makes them
/// stale — but rebuilding them from a live certificate summary is cheap.
struct EstState {
    generation: u64,
    estimators: Result<Arc<Estimators>, CountError>,
}

/// The certificate boxes of a query over the engine's current database.
#[derive(Clone)]
struct CertSummary {
    /// Total number of certificates (before box deduplication).
    count: usize,
    /// The distinct selector boxes, shared with the prepared estimators.
    boxes: Arc<Vec<SelectorBox>>,
    /// Whether some box pins nothing (covers every repair).
    has_unconstrained: bool,
}

/// Both prepared estimators for a query, sharing the cached boxes.
struct Estimators {
    fpras: FprasEstimator,
    karp_luby: KarpLubyEstimator,
}

impl QueryPlan {
    fn build(query: &Query, db: &Database, keys: &KeySet) -> Self {
        let class = query.classify();
        let ucq = rewrite_to_ucq(query).map_err(CountError::from);
        let disjunct_keywidth = ucq
            .as_ref()
            .ok()
            .map(|u| max_disjunct_keywidth(u, db.schema(), keys));
        let mut relations: Vec<String> = query
            .atoms()
            .iter()
            .map(|atom| atom.relation().to_string())
            .collect();
        relations.sort();
        relations.dedup();
        QueryPlan {
            query: query.clone(),
            class,
            keywidth: keywidth(query, db.schema(), keys),
            relations,
            ucq,
            disjunct_keywidth,
            certs: Mutex::new(None),
            estimators: Mutex::new(None),
        }
    }

    /// The certificate summary for the engine's *current* database,
    /// re-deriving it iff a mutation has touched one of the query's
    /// relations since it was last computed.
    fn cert_summary(&self, engine: &RepairEngine) -> Result<CertSummary, CountError> {
        let needed = engine.relations_generation(&self.relations);
        let mut guard = lock(&self.certs);
        if let Some(state) = guard.as_ref() {
            if state.rel_generation == needed {
                return state.summary.clone();
            }
            engine.invalidations.fetch_add(1, Ordering::Relaxed);
        }
        let summary = (|| {
            let ucq = self.ucq.as_ref().map_err(Clone::clone)?;
            let certs = enumerate_certificates(&engine.db, &engine.keys, &engine.blocks, ucq)?;
            let boxes = distinct_boxes(&certs);
            Ok(CertSummary {
                count: certs.len(),
                has_unconstrained: boxes.iter().any(SelectorBox::is_unconstrained),
                boxes: Arc::new(boxes),
            })
        })();
        *guard = Some(CertState {
            rel_generation: needed,
            summary: summary.clone(),
        });
        summary
    }

    /// The prepared estimators for the engine's *current* generation,
    /// rebuilt from the (possibly surviving) certificate summary whenever
    /// any mutation has happened since they were prepared.
    ///
    /// The boolean is `true` when the estimators were (re)built by this
    /// call — the caller must then register the plan with
    /// [`RepairEngine::note_estimator_holder`] so the next mutation can
    /// drop exactly the estimator states that exist.  The generation stamp
    /// is the semantic staleness guard; the registered sweep exists so the
    /// partition `Arc` is uniquely held again when a mutation wants to
    /// update it in place.
    fn estimators(&self, engine: &RepairEngine) -> Result<(Arc<Estimators>, bool), CountError> {
        let generation = engine.generation;
        let mut guard = lock(&self.estimators);
        if let Some(state) = guard.as_ref() {
            if state.generation == generation {
                return state.estimators.clone().map(|e| (e, false));
            }
        }
        let built = self.cert_summary(engine).map(|certs| {
            let disjunct_keywidth = self
                .disjunct_keywidth
                .expect("cert_summary succeeded, so the query rewrote to a UCQ");
            // One live-block sampler per partition generation, shared
            // across every plan's estimators — it holds a precomputed
            // sampler per live block, so per-plan copies would multiply
            // that by the plan-cache size.
            let sampler = engine.live_block_sampler();
            Arc::new(Estimators {
                fpras: FprasEstimator::from_parts(
                    Arc::clone(&engine.blocks),
                    Arc::clone(&certs.boxes),
                    Arc::clone(&sampler),
                    disjunct_keywidth,
                    engine.total_repairs.clone(),
                ),
                karp_luby: KarpLubyEstimator::from_parts(
                    Arc::clone(&engine.blocks),
                    Arc::clone(&certs.boxes),
                    sampler,
                    engine.total_repairs.clone(),
                ),
            })
        });
        *guard = Some(EstState {
            generation,
            estimators: built.clone(),
        });
        built.map(|e| (e, true))
    }
}

/// The engine's bounded plan cache: least-recently-used eviction over an
/// access-ordered index.
struct PlanCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<String, CacheEntry>,
    by_recency: BTreeMap<u64, String>,
}

struct CacheEntry {
    plan: Arc<QueryPlan>,
    tick: u64,
}

impl PlanCache {
    fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            by_recency: BTreeMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Fetches a plan, marking it most-recently-used.
    fn get(&mut self, key: &str) -> Option<Arc<QueryPlan>> {
        self.tick += 1;
        let tick = self.tick;
        let entry = self.entries.get_mut(key)?;
        // Move the owned key from the old recency entry to the new one so
        // the warm path never re-allocates the query text.
        let owned = self
            .by_recency
            .remove(&entry.tick)
            .unwrap_or_else(|| key.to_string());
        entry.tick = tick;
        self.by_recency.insert(tick, owned);
        Some(Arc::clone(&entry.plan))
    }

    /// Inserts a plan unless the key is already occupied, evicting the
    /// least-recently-used plans to stay within capacity.  Returns the
    /// number of evictions.
    fn insert(&mut self, key: String, plan: Arc<QueryPlan>) -> u64 {
        if self.entries.contains_key(&key) {
            return 0;
        }
        let mut evicted = 0;
        while self.entries.len() >= self.capacity {
            let Some((_, victim)) = self.by_recency.pop_first() else {
                break;
            };
            self.entries.remove(&victim);
            evicted += 1;
        }
        self.tick += 1;
        self.by_recency.insert(self.tick, key.clone());
        self.entries.insert(
            key,
            CacheEntry {
                plan,
                tick: self.tick,
            },
        );
        evicted
    }

    /// Drops every resident plan, returning how many were dropped.
    fn clear(&mut self) -> u64 {
        let dropped = self.entries.len() as u64;
        self.entries.clear();
        self.by_recency.clear();
        dropped
    }
}

/// An owned, `Send + Sync`, caching engine answering repair-counting
/// requests over a database it keeps up to date under inserts and deletes.
///
/// ```
/// use cdr_core::{CountRequest, EngineCommand, RepairEngine};
/// use cdr_query::parse_query;
/// use cdr_repairdb::{Database, KeySet, Mutation, Schema};
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
/// let mut engine = RepairEngine::new(db, keys);
/// let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
///
/// assert_eq!(engine.total_repairs().to_u64(), Some(4));
/// let exact = engine.run(&CountRequest::exact(q.clone())).unwrap();
/// assert_eq!(exact.answer.as_count().unwrap().to_u64(), Some(2));
/// let freq = engine.run(&CountRequest::frequency(q.clone())).unwrap();
/// assert_eq!(freq.answer.as_frequency().unwrap().to_string(), "1/2");
///
/// // The second run reused the cached plan.
/// assert!(freq.plan_cached);
/// assert_eq!(engine.cache_stats().misses, 1);
///
/// // Mutations go through the same engine: only the touched block is
/// // rebuilt, and the total is updated incrementally.
/// let eve = engine.database().parse_fact("Employee(3, 'Eve', 'IT')").unwrap();
/// let response = engine
///     .execute(EngineCommand::Mutate(Mutation::Insert(eve)))
///     .unwrap();
/// assert_eq!(response.as_applied().unwrap().applied, 1);
/// assert_eq!(engine.total_repairs().to_u64(), Some(4));
/// let freq = engine.run(&CountRequest::frequency(q)).unwrap();
/// assert_eq!(freq.answer.as_frequency().unwrap().to_string(), "1/2");
/// ```
pub struct RepairEngine {
    db: Arc<Database>,
    keys: Arc<KeySet>,
    blocks: Arc<BlockPartition>,
    /// `∏ |Bᵢ|`, maintained incrementally under mutations.
    total_repairs: BigNat,
    /// Bumped once per applied mutation; stamps reports and cached plans.
    generation: u64,
    /// Last generation at which each relation (by [`cdr_repairdb::RelationId`]
    /// index) was mutated.
    rel_generations: Vec<u64>,
    default_budget: u64,
    /// Number of worker threads [`RepairEngine::run_batch`] may fan out to.
    parallelism: usize,
    plans: Mutex<PlanCache>,
    /// Plans that currently hold prepared estimators (and therefore a
    /// clone of the partition `Arc`); the next mutation drains exactly
    /// these instead of sweeping the whole plan cache.
    estimator_holders: Mutex<Vec<Weak<QueryPlan>>>,
    /// The live-block sampler shared by every plan's prepared estimators
    /// (one precomputed sampler per live block), rebuilt lazily after each
    /// mutation.
    repair_sampler: Mutex<Option<Arc<DomainSampler>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
}

impl RepairEngine {
    /// Builds an engine that owns the database and key set.
    ///
    /// The block partition and the total repair count are computed here,
    /// once; subsequent mutations maintain both incrementally.
    pub fn new(db: Database, keys: KeySet) -> Self {
        RepairEngine::from_arcs(Arc::new(db), Arc::new(keys))
    }

    /// Builds an engine over shared handles, avoiding a copy when the
    /// caller already holds the database in an [`Arc`].
    ///
    /// The handles are snapshots: once the engine applies a mutation it
    /// copies-on-write, so the caller's handles keep describing the
    /// pre-mutation state.
    pub fn from_arcs(db: Arc<Database>, keys: Arc<KeySet>) -> Self {
        let blocks = Arc::new(BlockPartition::new(&db, &keys));
        let total_repairs = count_repairs(&blocks);
        let rel_generations = vec![0; db.schema().len()];
        RepairEngine {
            db,
            keys,
            blocks,
            total_repairs,
            generation: 0,
            rel_generations,
            default_budget: DEFAULT_EXACT_BUDGET,
            parallelism: 1,
            plans: Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            estimator_holders: Mutex::new(Vec::new()),
            repair_sampler: Mutex::new(None),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Rebuilds an engine from a snapshot image: the database and keys it
    /// captured, plus the provenance counters (`generation`,
    /// per-relation generations) recorded at the image point.
    ///
    /// This is the recovery path of the replicated command log: a
    /// restored engine followed by a replay of the log suffix is
    /// bit-for-bit equal to the engine that wrote the log — including the
    /// `gen=` stamps every report carries, which is why the counters are
    /// restored rather than recomputed.
    ///
    /// # Panics
    ///
    /// Panics if `rel_generations` does not have one entry per schema
    /// relation — a snapshot/schema mismatch is a corrupt image, not a
    /// recoverable state.
    pub fn restore(db: Database, keys: KeySet, generation: u64, rel_generations: Vec<u64>) -> Self {
        assert_eq!(
            rel_generations.len(),
            db.schema().len(),
            "one relation generation per schema relation"
        );
        let mut engine = RepairEngine::new(db, keys);
        engine.generation = generation;
        engine.rel_generations = rel_generations;
        engine
    }

    /// Sets the budget used when a request does not carry its own.
    pub fn with_default_budget(mut self, budget: u64) -> Self {
        self.default_budget = budget;
        self
    }

    /// Sets how many threads [`RepairEngine::run_batch`] may fan out to
    /// (clamped to at least 1; the default of 1 keeps batches sequential).
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }

    /// Bounds the LRU plan cache (clamped to at least 1 entry; the default
    /// is [`DEFAULT_PLAN_CACHE_CAPACITY`]).  Resident plans beyond the new
    /// capacity are evicted lazily on the next insertion.
    pub fn with_plan_cache_capacity(self, capacity: usize) -> Self {
        lock(&self.plans).capacity = capacity.max(1);
        self
    }

    /// The database being counted over (the current, post-mutation state).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// A shareable snapshot handle to the current database state.
    pub fn database_arc(&self) -> Arc<Database> {
        Arc::clone(&self.db)
    }

    /// The primary keys in force.
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// The block partition `B₁, …, Bₙ`, maintained incrementally.
    pub fn blocks(&self) -> &BlockPartition {
        &self.blocks
    }

    /// The total number of repairs `∏ |Bᵢ|`, maintained incrementally.
    pub fn total_repairs(&self) -> &BigNat {
        &self.total_repairs
    }

    /// The engine's generation: how many mutations have been applied.
    /// Reports carry the generation they were computed at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-relation mutation generations, indexed by
    /// [`cdr_repairdb::RelationId`] index — the counters a snapshot
    /// records so [`RepairEngine::restore`] can reproduce report
    /// provenance exactly.
    pub fn rel_generations(&self) -> &[u64] {
        &self.rel_generations
    }

    /// The engine's default exact budget.
    pub fn default_budget(&self) -> u64 {
        self.default_budget
    }

    /// The batch fan-out width.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Plan-cache counters: hits, misses, resident entries, capacity,
    /// evictions and invalidations.
    pub fn cache_stats(&self) -> CacheStats {
        let (entries, capacity) = {
            let cache = lock(&self.plans);
            (cache.len() as u64, cache.capacity as u64)
        };
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            capacity,
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }

    /// The keywidth `kw(Q, Σ)` of a query (cached with the query's plan).
    pub fn keywidth(&self, query: &Query) -> usize {
        self.plan(query).0.keywidth
    }

    /// The disjunct keywidth of a query — the exponent in the FPRAS
    /// sample-size bound. Errors for genuinely first-order queries.
    pub fn disjunct_keywidth(&self, query: &Query) -> Result<usize, CountError> {
        let (plan, _) = self.plan(query);
        plan.ucq.as_ref().map_err(Clone::clone)?;
        Ok(plan
            .disjunct_keywidth
            .expect("rewrite succeeded, so the disjunct keywidth was computed"))
    }

    /// Executes one [`EngineCommand`], the uniform session entry point.
    pub fn execute(&mut self, command: EngineCommand) -> Result<EngineResponse, CountError> {
        match command {
            EngineCommand::Query(request) => Ok(EngineResponse::Report(self.run(&request)?)),
            EngineCommand::Mutate(mutation) => Ok(EngineResponse::Applied(self.apply(mutation)?)),
            EngineCommand::MutateBatch(mutations) => {
                Ok(EngineResponse::Applied(self.apply_batch(mutations)?))
            }
            EngineCommand::Compact => Ok(EngineResponse::Compacted(self.compact())),
        }
    }

    /// The engine's reclaimable waste: tombstoned fact slots plus retired
    /// block slots.  Both accumulate under delete-bearing churn until
    /// [`RepairEngine::compact`] drops them, so this is the gauge an
    /// auto-compaction policy (and the serving layer's `STATS` reply)
    /// watches.
    pub fn waste(&self) -> u64 {
        u64::from(self.db.tombstone_count()) + (self.blocks.slot_count() - self.blocks.len()) as u64
    }

    /// Compacts the engine: the database drops its tombstones and remaps
    /// the surviving fact ids onto a dense prefix
    /// ([`Database::compact`]), the block partition drops retired slots
    /// and renumbers the rest in `≺_{D,Σ}` order
    /// ([`BlockPartition::rebuild_compacted`]), the plan cache and the
    /// prepared-estimator registry are cleared **once** (cached
    /// certificate boxes pin pre-compaction slot and fact ids), the
    /// total repair count is recomputed from the rebuilt partition as a
    /// cross-check against the incrementally-maintained value, and the
    /// generation is bumped (every relation counts as mutated: all fact
    /// ids moved).
    ///
    /// Answers are unaffected: the live facts, the `≺` block sequence
    /// and the in-block fact order are all preserved, so exact counts
    /// and seeded estimates after a compaction are bit-for-bit what they
    /// were before it (`tests/hotpath_parity.rs` pins this).  What
    /// changes is the *name space*: fact ids handed out earlier must be
    /// re-resolved through [`CompactionReport::translate`], and the
    /// reclaimed id headroom lets a capacity-capped session keep
    /// inserting indefinitely.
    pub fn compact(&mut self) -> CompactionOutcome {
        let started = Instant::now();
        let slots_before = self.blocks.slot_count();
        // Prepared estimators embed the pre-compaction partition and the
        // flattened sampler; drop them first so they cannot be served
        // stale and the partition Arc is uniquely held again.
        self.drop_prepared_estimators();
        let report = Arc::make_mut(&mut self.db).compact();
        Arc::make_mut(&mut self.blocks).rebuild_compacted(&report);
        let recomputed = count_repairs(&self.blocks);
        let total_cross_checked = recomputed == self.total_repairs;
        debug_assert!(
            total_cross_checked,
            "the incrementally-maintained total diverged from ∏ |Bᵢ|: {} vs {}",
            self.total_repairs, recomputed
        );
        self.total_repairs = recomputed;
        self.generation += 1;
        for generation in &mut self.rel_generations {
            *generation = self.generation;
        }
        let plans_dropped = lock(&self.plans).clear();
        CompactionOutcome {
            report,
            slots_before,
            slots_after: self.blocks.slot_count(),
            plans_dropped,
            total_cross_checked,
            generation: self.generation,
            duration: started.elapsed(),
        }
    }

    /// The serving layer's auto-compaction policy: compacts iff there is
    /// any reclaimable waste **and** either the waste has reached
    /// `threshold` or the fact-id space is fully consumed (in which case
    /// waiting any longer would only serve `ERR EXHAUSTED`).  Returns
    /// what the compaction did, or `None` when it did not run.
    ///
    /// This lives on the engine — rather than in `cdr-server` — so the
    /// serving scheduler, the single-threaded oracle replay and the
    /// workload generators all share one deterministic policy.
    pub fn maybe_compact(&mut self, threshold: u64) -> Option<CompactionOutcome> {
        let waste = self.waste();
        let exhausted = self.db.fact_ids_assigned() >= self.db.fact_id_capacity();
        if waste > 0 && (waste >= threshold || exhausted) {
            Some(self.compact())
        } else {
            None
        }
    }

    /// Applies one mutation: the database gains/loses the fact, the touched
    /// key-block is rebuilt in place, the total repair count is updated by
    /// dividing out the old block size and multiplying in the new one, and
    /// plans over the mutated relation are marked for lazy re-derivation.
    ///
    /// A duplicate insert is a visible no-op; deleting a missing fact is an
    /// error that leaves the engine unchanged.
    pub fn apply(&mut self, mutation: Mutation) -> Result<MutationReport, CountError> {
        let started = Instant::now();
        let (applied, delta) = self.apply_one(mutation)?;
        Ok(MutationReport {
            applied: usize::from(applied.changed()),
            noops: usize::from(!applied.changed()),
            generation: self.generation,
            deltas: delta.into_iter().collect(),
            duration: started.elapsed(),
        })
    }

    /// Applies a sequence of mutations in order, aggregating one report.
    ///
    /// The batch is atomic: every mutation is validated up front, so a
    /// rejected batch (unknown relation, wrong arity, or a delete naming a
    /// fact that is not live before the batch or named by two deletes) is
    /// an error that leaves the engine — and its generation — completely
    /// unchanged, and no partially-applied report can be lost.  Deletes
    /// must name facts that are live when the batch starts; a fact
    /// inserted by the batch cannot be deleted by the same batch (its id
    /// is only known once the report comes back).
    pub fn apply_batch(
        &mut self,
        mutations: impl IntoIterator<Item = Mutation>,
    ) -> Result<MutationReport, CountError> {
        let started = Instant::now();
        let mutations: Vec<Mutation> = mutations.into_iter().collect();
        let mut pending_deletes = std::collections::HashSet::new();
        {
            // Presence overlay simulating the batch: counts exactly how
            // many fresh fact ids the batch will consume (a delete + re-
            // insert of the same content consumes a new id), so a batch
            // that would exhaust the id space is rejected before any of it
            // is applied.
            let mut overlay: HashMap<&cdr_repairdb::Fact, bool> = HashMap::new();
            let mut fresh_ids: u64 = 0;
            for mutation in &mutations {
                match mutation {
                    Mutation::Insert(fact) => {
                        self.db.validate(fact)?;
                        let present = overlay
                            .get(fact)
                            .copied()
                            .unwrap_or_else(|| self.db.contains(fact));
                        if !present {
                            fresh_ids += 1;
                            overlay.insert(fact, true);
                        }
                    }
                    Mutation::Delete(id) => {
                        if !self.db.is_live(*id) || !pending_deletes.insert(*id) {
                            return Err(cdr_repairdb::DbError::MissingFact(id.index()).into());
                        }
                        overlay.insert(self.db.fact(*id), false);
                    }
                }
            }
            let capacity = self.db.fact_id_capacity();
            if u64::from(self.db.fact_ids_assigned()) + fresh_ids > u64::from(capacity) {
                return Err(cdr_repairdb::DbError::FactIdsExhausted { capacity }.into());
            }
        }
        let mut report = MutationReport {
            applied: 0,
            noops: 0,
            generation: self.generation,
            deltas: Vec::new(),
            duration: Duration::ZERO,
        };
        for mutation in mutations {
            let (applied, delta) = self
                .apply_one(mutation)
                .expect("the whole batch was validated before applying");
            if applied.changed() {
                report.applied += 1;
            } else {
                report.noops += 1;
            }
            report.deltas.extend(delta);
        }
        report.generation = self.generation;
        report.duration = started.elapsed();
        Ok(report)
    }

    fn apply_one(
        &mut self,
        mutation: Mutation,
    ) -> Result<(AppliedMutation, Option<BlockDelta>), CountError> {
        // Settle no-ops and the common error before `Arc::make_mut`: when
        // a caller holds a `database_arc` snapshot, copy-on-write must
        // only pay for mutations that actually change something.  (An
        // insert that fails schema validation still clones first — rare
        // enough that the hot path keeps a single validation, in
        // `Database::apply`.)
        match &mutation {
            Mutation::Insert(fact) => {
                if let Some(id) = self.db.fact_id(fact) {
                    return Ok((AppliedMutation::AlreadyPresent { id }, None));
                }
            }
            Mutation::Delete(id) => {
                if !self.db.is_live(*id) {
                    return Err(cdr_repairdb::DbError::MissingFact(id.index()).into());
                }
            }
        }
        let applied = Arc::make_mut(&mut self.db).apply(mutation)?;
        debug_assert!(applied.changed(), "no-ops were settled above");
        // Prepared estimators embed the pre-mutation partition and total;
        // drop them now so (a) they cannot be served stale and (b) the
        // partition Arc is uniquely held again and mutates in place.
        self.drop_prepared_estimators();
        let delta = Arc::make_mut(&mut self.blocks).apply(&self.keys, &applied);
        if delta.old_len > 0 {
            let (quotient, remainder) = self.total_repairs.div_rem_u64(delta.old_len as u64);
            debug_assert_eq!(remainder, 0, "block sizes divide the total exactly");
            self.total_repairs = quotient;
        }
        if delta.new_len > 0 {
            self.total_repairs.mul_assign_u64(delta.new_len as u64);
        }
        self.generation += 1;
        let relation = match &applied {
            AppliedMutation::Inserted { fact, .. } | AppliedMutation::Deleted { fact, .. } => {
                fact.relation()
            }
            AppliedMutation::AlreadyPresent { .. } => {
                unreachable!("no-ops returned early above")
            }
        };
        if let Some(generation) = self.rel_generations.get_mut(relation.index()) {
            *generation = self.generation;
        }
        Ok((applied, Some(delta)))
    }

    fn drop_prepared_estimators(&mut self) {
        let holders = std::mem::take(
            self.estimator_holders
                .get_mut()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        );
        for plan in holders {
            if let Some(plan) = plan.upgrade() {
                *lock(&plan.estimators) = None;
            }
        }
        // The shared sampler snapshots the pre-mutation blocks; the next
        // approximate query rebuilds it from the mutated partition.
        *self
            .repair_sampler
            .get_mut()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = None;
    }

    /// The live-block sampler for the current partition state, built on
    /// first use after a mutation and shared (one sampler per live block)
    /// by every plan's prepared estimators.
    fn live_block_sampler(&self) -> Arc<DomainSampler> {
        let mut guard = lock(&self.repair_sampler);
        match guard.as_ref() {
            Some(sampler) => Arc::clone(sampler),
            None => {
                let sampler = Arc::new(DomainSampler::over_partition(&self.blocks));
                *guard = Some(Arc::clone(&sampler));
                sampler
            }
        }
    }

    /// Records that a plan just built estimators (pairing with
    /// [`RepairEngine::drop_prepared_estimators`]); called at most once
    /// per plan per mutation epoch, because only a fresh build registers.
    fn note_estimator_holder(&self, plan: &Arc<QueryPlan>) {
        lock(&self.estimator_holders).push(Arc::downgrade(plan));
    }

    /// The maximum last-mutation generation over a set of relation names
    /// (0 for relations never mutated or unknown to the schema).
    fn relations_generation(&self, relations: &[String]) -> u64 {
        relations
            .iter()
            .filter_map(|name| {
                self.db
                    .schema()
                    .relation_id(name)
                    .and_then(|rel| self.rel_generations.get(rel.index()).copied())
            })
            .max()
            .unwrap_or(0)
    }

    /// Answers one request.
    pub fn run(&self, request: &CountRequest) -> Result<CountReport, CountError> {
        let started = Instant::now();
        let (plan, plan_cached) = self.plan(&request.query);
        let budget = request.budget.unwrap_or(self.default_budget);
        let mut report = CountReport {
            answer: Answer::Decision(false),
            strategy: request.strategy,
            certificates: None,
            samples_requested: 0,
            samples_used: 0,
            duration: Duration::ZERO,
            plan_cached,
            generation: self.generation,
        };
        match &request.semantics {
            Semantics::Exact => {
                let (count, strategy) = self.exact_count(
                    &plan,
                    request.strategy,
                    budget,
                    "exact counting",
                    &mut report,
                )?;
                report.strategy = strategy;
                report.answer = Answer::Count(count);
            }
            Semantics::Frequency => {
                let (count, strategy) = self.exact_count(
                    &plan,
                    request.strategy,
                    budget,
                    "relative frequency",
                    &mut report,
                )?;
                report.strategy = strategy;
                report.answer = Answer::Frequency(Ratio::new(count, self.total_repairs.clone()));
            }
            Semantics::Decision => {
                let (holds, strategy) =
                    self.decide_some(&plan, request.strategy, budget, &mut report)?;
                report.strategy = strategy;
                report.answer = Answer::Decision(holds);
            }
            Semantics::CertainAnswer => {
                let (holds, strategy) =
                    self.decide_every(&plan, request.strategy, budget, &mut report)?;
                report.strategy = strategy;
                report.answer = Answer::Decision(holds);
            }
            Semantics::Approximate {
                epsilon,
                delta,
                seed,
            } => {
                let config = ApproxConfig {
                    epsilon: *epsilon,
                    delta: *delta,
                    max_samples: request.sample_cap,
                    seed: *seed,
                };
                let (estimate, strategy) =
                    self.approximate(&plan, request.strategy, &config, &mut report)?;
                report.strategy = strategy;
                report.samples_requested = estimate.samples_requested;
                report.samples_used = estimate.samples_used;
                report.answer = Answer::Estimate(estimate);
            }
        }
        report.duration = started.elapsed();
        Ok(report)
    }

    /// Answers a batch of requests, sharing the plan cache across them and
    /// fanning out across [`std::thread::scope`] worker threads when
    /// [`RepairEngine::with_parallelism`] allows more than one.
    ///
    /// Reports come back in request order.  Batches sit between mutations
    /// (which need `&mut self`), so every request of a batch sees the same
    /// generation.
    pub fn run_batch(&self, requests: &[CountRequest]) -> Vec<Result<CountReport, CountError>> {
        let workers = self.parallelism.min(requests.len()).max(1);
        if workers == 1 {
            return requests.iter().map(|request| self.run(request)).collect();
        }
        let chunk_size = requests.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .chunks(chunk_size)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|request| self.run(request))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("a run_batch worker panicked"))
                .collect()
        })
    }

    /// Fetches or builds the plan for a query. The boolean is `true` on a
    /// cache hit.
    fn plan(&self, query: &Query) -> (Arc<QueryPlan>, bool) {
        let key = query.to_string();
        {
            let mut cache = lock(&self.plans);
            if let Some(plan) = cache.get(&key) {
                // Display collisions are not expected, but equality is
                // cheap insurance against serving a wrong plan.
                if plan.query == *query {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (plan, true);
                }
            }
        }
        let plan = Arc::new(QueryPlan::build(query, &self.db, &self.keys));
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut cache = lock(&self.plans);
        if let Some(existing) = cache.get(&key) {
            // If another thread planned the same query first, prefer the
            // resident plan so lazily-computed artifacts are shared.
            if existing.query == *query {
                return (existing, false);
            }
            // A genuine display collision: serve the fresh plan uncached.
            return (plan, false);
        }
        let evicted = cache.insert(key, Arc::clone(&plan));
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        (plan, false)
    }

    /// Resolves `Auto` for exact semantics and rejects nonsensical
    /// strategy/semantics combinations.
    fn resolve_exact(
        &self,
        plan: &QueryPlan,
        strategy: Strategy,
        semantics: &'static str,
    ) -> Result<Strategy, CountError> {
        match strategy {
            Strategy::Auto => Ok(if plan.class == QueryClass::FirstOrder {
                Strategy::Enumeration
            } else {
                Strategy::CertificateBoxes
            }),
            Strategy::KarpLuby => Err(CountError::UnsupportedStrategy {
                semantics,
                strategy: strategy.name(),
            }),
            other => Ok(other),
        }
    }

    fn exact_count(
        &self,
        plan: &QueryPlan,
        strategy: Strategy,
        budget: u64,
        semantics: &'static str,
        report: &mut CountReport,
    ) -> Result<(BigNat, Strategy), CountError> {
        let effective = self.resolve_exact(plan, strategy, semantics)?;
        match effective {
            Strategy::Enumeration => {
                let count = count_by_enumeration(&self.db, &self.keys, &plan.query, budget)?;
                Ok((count, Strategy::Enumeration))
            }
            Strategy::CertificateBoxes => {
                let certs = plan.cert_summary(self)?;
                report.certificates = Some(certs.count);
                // The engine maintains ∏ |Bᵢ| incrementally; handing it to
                // the union counter spares an O(blocks) re-product per query.
                let count = count_union_of_boxes_with_total(
                    &self.blocks,
                    &certs.boxes,
                    budget,
                    self.total_repairs.clone(),
                )?;
                Ok((count, Strategy::CertificateBoxes))
            }
            _ => unreachable!("resolve_exact returns a concrete exact strategy"),
        }
    }

    fn decide_some(
        &self,
        plan: &QueryPlan,
        strategy: Strategy,
        budget: u64,
        report: &mut CountReport,
    ) -> Result<(bool, Strategy), CountError> {
        let effective = self.resolve_exact(plan, strategy, "the decision problem")?;
        match effective {
            Strategy::Enumeration => {
                let holds = crate::decision::holds_in_some_repair_fo_bounded(
                    &self.db,
                    &self.blocks,
                    &plan.query,
                    budget,
                )?;
                Ok((holds, Strategy::Enumeration))
            }
            Strategy::CertificateBoxes => {
                let certs = plan.cert_summary(self)?;
                report.certificates = Some(certs.count);
                Ok((certs.count > 0, Strategy::CertificateBoxes))
            }
            _ => unreachable!("resolve_exact returns a concrete exact strategy"),
        }
    }

    fn decide_every(
        &self,
        plan: &QueryPlan,
        strategy: Strategy,
        budget: u64,
        report: &mut CountReport,
    ) -> Result<(bool, Strategy), CountError> {
        let effective = self.resolve_exact(plan, strategy, "certain answers")?;
        match effective {
            Strategy::Enumeration => {
                // Witness search for a refuting repair: stop at the first
                // repair that does NOT entail the query.
                let mut visited: u64 = 0;
                for repair in RepairIter::new(&self.blocks) {
                    visited += 1;
                    if visited > budget {
                        return Err(CountError::ExactBudgetExceeded {
                            what: "certain-answer repair enumeration".into(),
                            budget,
                        });
                    }
                    let repaired = repair.to_database(&self.db);
                    if !evaluate(&repaired, &plan.query)? {
                        return Ok((false, Strategy::Enumeration));
                    }
                }
                Ok((true, Strategy::Enumeration))
            }
            Strategy::CertificateBoxes => {
                let certs = plan.cert_summary(self)?;
                report.certificates = Some(certs.count);
                if certs.has_unconstrained {
                    // Some certificate covers every repair.
                    return Ok((true, Strategy::CertificateBoxes));
                }
                if certs.boxes.is_empty() {
                    // No repair entails the query; there is always at
                    // least one repair (the empty database has one).
                    return Ok((false, Strategy::CertificateBoxes));
                }
                if self.refuting_choice(&certs.boxes).is_some() {
                    // Found block evidence: a repair avoiding every box.
                    return Ok((false, Strategy::CertificateBoxes));
                }
                // Inconclusive cheap checks: fall back to the exact count.
                let count = count_union_of_boxes_with_total(
                    &self.blocks,
                    &certs.boxes,
                    budget,
                    self.total_repairs.clone(),
                )?;
                Ok((count == self.total_repairs, Strategy::CertificateBoxes))
            }
            _ => unreachable!("resolve_exact returns a concrete exact strategy"),
        }
    }

    /// Greedily builds a repair avoiding every box, processing one box at
    /// a time and deviating on a pinned block. Sound but incomplete: a
    /// `Some` result is a genuine refutation of certainty, a `None` means
    /// the caller must fall back to exact counting.
    fn refuting_choice(&self, boxes: &[SelectorBox]) -> Option<HashMap<usize, FactId>> {
        let mut choice: HashMap<usize, FactId> = HashMap::new();
        for b in boxes {
            let already_avoided = b.pins().any(|(block, fact)| {
                choice
                    .get(&block.index())
                    .is_some_and(|&chosen| chosen != fact)
            });
            if already_avoided {
                continue;
            }
            let mut deviated = false;
            for (block, fact) in b.pins() {
                if choice.contains_key(&block.index()) {
                    // Already matching this pin; deviating here would
                    // disturb an earlier box's avoidance.
                    continue;
                }
                if let Some(&alternative) = self
                    .blocks
                    .block(block)
                    .facts()
                    .iter()
                    .find(|&&candidate| candidate != fact)
                {
                    choice.insert(block.index(), alternative);
                    deviated = true;
                    break;
                }
            }
            if !deviated {
                return None;
            }
        }
        Some(choice)
    }

    fn approximate(
        &self,
        plan: &Arc<QueryPlan>,
        strategy: Strategy,
        config: &ApproxConfig,
        report: &mut CountReport,
    ) -> Result<(ApproxCount, Strategy), CountError> {
        let effective = match strategy {
            Strategy::Auto => Strategy::CertificateBoxes,
            Strategy::KarpLuby => Strategy::KarpLuby,
            other => {
                return Err(CountError::UnsupportedStrategy {
                    semantics: "approximation",
                    strategy: other.name(),
                })
            }
        };
        let (estimators, freshly_built) = plan.estimators(self)?;
        if freshly_built {
            self.note_estimator_holder(plan);
        }
        if let Ok(certs) = plan.cert_summary(self) {
            report.certificates = Some(certs.count);
        }
        let estimate = match effective {
            Strategy::CertificateBoxes => estimators.fpras.estimate(config)?,
            Strategy::KarpLuby => estimators.karp_luby.estimate(config)?,
            _ => unreachable!("resolved above"),
        };
        Ok((estimate, effective))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_query::parse_query;
    use cdr_repairdb::Schema;

    fn employee_engine() -> RepairEngine {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("Employee(1, 'Bob', 'HR')").unwrap();
        db.insert_parsed("Employee(1, 'Bob', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Alice', 'IT')").unwrap();
        db.insert_parsed("Employee(2, 'Tim', 'IT')").unwrap();
        RepairEngine::new(db, keys)
    }

    fn example_query() -> Query {
        parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap()
    }

    fn insert(engine: &mut RepairEngine, text: &str) -> MutationReport {
        let fact = engine.database().parse_fact(text).unwrap();
        engine.apply(Mutation::Insert(fact)).unwrap()
    }

    fn delete(engine: &mut RepairEngine, text: &str) -> MutationReport {
        let fact = engine.database().parse_fact(text).unwrap();
        let id = engine.database().fact_id(&fact).unwrap();
        engine.apply(Mutation::Delete(id)).unwrap()
    }

    fn exact_count(engine: &RepairEngine, query: &Query) -> u64 {
        engine
            .run(&CountRequest::exact(query.clone()))
            .unwrap()
            .answer
            .as_count()
            .unwrap()
            .to_u64()
            .unwrap()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RepairEngine>();
        assert_send_sync::<CountRequest>();
        assert_send_sync::<CountReport>();
        assert_send_sync::<EngineCommand>();
        assert_send_sync::<EngineResponse>();
    }

    #[test]
    fn second_run_hits_the_plan_cache() {
        let engine = employee_engine();
        let request = CountRequest::exact(example_query());
        let first = engine.run(&request).unwrap();
        assert!(!first.plan_cached);
        let second = engine.run(&request).unwrap();
        assert!(second.plan_cached);
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        // Different semantics over the same query still share the plan.
        engine
            .run(&CountRequest::frequency(example_query()))
            .unwrap();
        assert_eq!(engine.cache_stats().hits, 2);
    }

    #[test]
    fn all_semantics_answer_the_running_example() {
        let engine = employee_engine();
        let q = example_query();
        let reports = engine.run_batch(&[
            CountRequest::exact(q.clone()),
            CountRequest::frequency(q.clone()),
            CountRequest::decision(q.clone()),
            CountRequest::certain_answer(q.clone()),
            CountRequest::approximate(q.clone(), 0.1, 0.05),
        ]);
        let reports: Vec<CountReport> = reports.into_iter().collect::<Result<_, _>>().unwrap();
        assert_eq!(reports[0].answer.as_count().unwrap().to_u64(), Some(2));
        assert_eq!(reports[1].answer.as_frequency().unwrap().to_string(), "1/2");
        assert_eq!(reports[2].answer.as_bool(), Some(true));
        assert_eq!(reports[3].answer.as_bool(), Some(false));
        let estimate = reports[4].answer.as_estimate().unwrap();
        assert!(estimate.relative_error(&BigNat::from(2u64)) <= 0.1);
        assert!(reports[4].samples_used > 0);
        // One planning miss, four hits.
        assert_eq!(engine.cache_stats().misses, 1);
        assert_eq!(engine.cache_stats().hits, 4);
    }

    #[test]
    fn strategies_resolve_per_class() {
        let engine = employee_engine();
        let positive = parse_query("EXISTS n . Employee(2, n, 'IT')").unwrap();
        let report = engine.run(&CountRequest::exact(positive)).unwrap();
        assert_eq!(report.strategy, Strategy::CertificateBoxes);
        assert!(report.certificates.is_some());
        let negated = parse_query("NOT EXISTS i, n . Employee(i, n, 'HR')").unwrap();
        let report = engine.run(&CountRequest::exact(negated.clone())).unwrap();
        assert_eq!(report.strategy, Strategy::Enumeration);
        assert_eq!(report.answer.as_count().unwrap().to_u64(), Some(2));
        assert!(report.certificates.is_none());
        let report = engine.run(&CountRequest::frequency(negated)).unwrap();
        assert_eq!(report.strategy, Strategy::Enumeration);
        assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/2");
    }

    #[test]
    fn unsupported_strategy_combinations_are_rejected() {
        let engine = employee_engine();
        let q = example_query();
        let exact_kl = CountRequest::exact(q.clone()).with_strategy(Strategy::KarpLuby);
        assert!(matches!(
            engine.run(&exact_kl),
            Err(CountError::UnsupportedStrategy { .. })
        ));
        let approx_enum =
            CountRequest::approximate(q.clone(), 0.1, 0.05).with_strategy(Strategy::Enumeration);
        assert!(matches!(
            engine.run(&approx_enum),
            Err(CountError::UnsupportedStrategy { .. })
        ));
        let fo = parse_query("NOT EXISTS i, n . Employee(i, n, 'HR')").unwrap();
        let forced_boxes = CountRequest::exact(fo).with_strategy(Strategy::CertificateBoxes);
        assert!(matches!(
            engine.run(&forced_boxes),
            Err(CountError::Query(_))
        ));
    }

    #[test]
    fn certain_answers_match_the_counting_definition() {
        let engine = employee_engine();
        for (text, expected) in [
            ("EXISTS n . Employee(2, n, 'IT')", true),
            ("EXISTS n, d . Employee(1, n, d)", true),
            ("Employee(1, 'Bob', 'HR')", false),
            ("EXISTS n, d . Employee(3, n, d)", false),
            ("TRUE", true),
            ("FALSE", false),
        ] {
            let q = parse_query(text).unwrap();
            let report = engine
                .run(&CountRequest::certain_answer(q.clone()))
                .unwrap();
            assert_eq!(report.answer.as_bool(), Some(expected), "{text}");
            // Cross-check against the definition: count == total.
            let count = engine
                .run(&CountRequest::exact(q))
                .unwrap()
                .answer
                .as_count()
                .unwrap()
                .clone();
            assert_eq!(count == *engine.total_repairs(), expected, "{text}");
        }
        // A consistent database is its own single repair: a query's
        // frequency is 1 if it is certain and 0 otherwise.
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        let keys = KeySet::builder(&schema).key("R", 1).unwrap().build();
        let mut db = Database::new(schema);
        db.insert_parsed("R(1, 'a')").unwrap();
        let consistent = RepairEngine::new(db, keys);
        for (text, expected) in [("R(1, 'a')", true), ("R(1, 'b')", false)] {
            let q = parse_query(text).unwrap();
            let report = consistent
                .run(&CountRequest::certain_answer(q.clone()))
                .unwrap();
            assert_eq!(report.answer.as_bool(), Some(expected), "{text}");
            let report = consistent.run(&CountRequest::frequency(q)).unwrap();
            let freq = report.answer.as_frequency().unwrap();
            assert_eq!(
                (freq.is_one(), freq.is_zero()),
                (expected, !expected),
                "{text}"
            );
        }
    }

    #[test]
    fn certain_answer_refutes_without_counting_via_block_evidence() {
        // A single-box query over a large database: the greedy refutation
        // must answer without touching the (budget-guarded) counter.
        let mut schema = Schema::new();
        schema.add_relation("R", 2).unwrap();
        let keys = KeySet::builder(&schema).key("R", 1).unwrap().build();
        let mut db = Database::new(schema);
        for k in 0..40i64 {
            db.insert_parsed(&format!("R({k}, 'a')")).unwrap();
            db.insert_parsed(&format!("R({k}, 'b')")).unwrap();
        }
        let engine = RepairEngine::new(db, keys);
        let q = parse_query("R(0, 'a')").unwrap();
        // 2^40 repairs: a full count would blow this budget immediately,
        // so a false answer proves the refutation short-circuit ran.
        let report = engine
            .run(&CountRequest::certain_answer(q).with_budget(8))
            .unwrap();
        assert_eq!(report.answer.as_bool(), Some(false));
    }

    #[test]
    fn decision_enumeration_strategy_is_exhaustive() {
        let engine = employee_engine();
        let q = parse_query("NOT EXISTS i, n . Employee(i, n, 'HR')").unwrap();
        let report = engine.run(&CountRequest::decision(q)).unwrap();
        assert_eq!(report.answer.as_bool(), Some(true));
        assert_eq!(report.strategy, Strategy::Enumeration);
        let q = parse_query("NOT EXISTS d . Employee(1, 'Bob', d)").unwrap();
        let report = engine.run(&CountRequest::decision(q)).unwrap();
        assert_eq!(report.answer.as_bool(), Some(false));
        // An empty database has one, empty, repair: it satisfies TRUE and
        // no existential query, whichever procedure decides.
        let mut schema = Schema::new();
        schema.add_relation("R", 1).unwrap();
        let keys = KeySet::builder(&schema).key("R", 1).unwrap().build();
        let empty = RepairEngine::new(Database::new(schema), keys);
        for (text, expected) in [("TRUE", true), ("EXISTS x . R(x)", false)] {
            for strategy in [Strategy::Enumeration, Strategy::CertificateBoxes] {
                let request =
                    CountRequest::decision(parse_query(text).unwrap()).with_strategy(strategy);
                let report = empty.run(&request).unwrap();
                assert_eq!(
                    report.answer.as_bool(),
                    Some(expected),
                    "{text} {strategy:?}"
                );
            }
        }
    }

    #[test]
    fn budget_and_sample_cap_are_honoured() {
        let engine = employee_engine();
        let q = parse_query("TRUE").unwrap();
        let strict = CountRequest::exact(q.clone())
            .with_strategy(Strategy::Enumeration)
            .with_budget(2);
        assert!(matches!(
            engine.run(&strict),
            Err(CountError::ExactBudgetExceeded { .. })
        ));
        // The box strategy needs no enumeration for TRUE, so the same
        // budget suffices.
        let report = engine
            .run(&strict.with_strategy(Strategy::CertificateBoxes))
            .unwrap();
        assert_eq!(report.answer.as_count().unwrap().to_u64(), Some(4));
        let capped = CountRequest::approximate(example_query(), 0.001, 0.05).with_sample_cap(100);
        let report = engine.run(&capped).unwrap();
        assert_eq!(report.samples_used, 100);
        assert!(report.samples_requested > 100);
    }

    #[test]
    fn decision_enumeration_honours_the_budget() {
        let engine = employee_engine();
        // A first-order query no repair satisfies forces the witness
        // search to visit every repair — the budget must stop it.
        let q = parse_query("NOT EXISTS d . Employee(1, 'Bob', d)").unwrap();
        let strict = CountRequest::decision(q.clone()).with_budget(2);
        assert!(matches!(
            engine.run(&strict),
            Err(CountError::ExactBudgetExceeded { .. })
        ));
        // A sufficient budget still answers.
        let report = engine
            .run(&CountRequest::decision(q).with_budget(4))
            .unwrap();
        assert_eq!(report.answer.as_bool(), Some(false));
    }

    #[test]
    fn frequency_strategy_errors_name_the_semantics() {
        let engine = employee_engine();
        let err = engine
            .run(&CountRequest::frequency(example_query()).with_strategy(Strategy::KarpLuby))
            .unwrap_err();
        assert!(err.to_string().contains("relative frequency"), "{err}");
    }

    #[test]
    fn karp_luby_strategy_runs_through_the_engine() {
        let engine = employee_engine();
        let request = CountRequest::approximate(example_query(), 0.1, 0.05)
            .with_strategy(Strategy::KarpLuby)
            .with_seed(7);
        let report = engine.run(&request).unwrap();
        assert_eq!(report.strategy, Strategy::KarpLuby);
        let estimate = report.answer.as_estimate().unwrap();
        assert!(estimate.relative_error(&BigNat::from(2u64)) <= 0.1);
    }

    #[test]
    fn engine_is_usable_across_threads() {
        let engine = Arc::new(employee_engine());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let engine = Arc::clone(&engine);
            handles.push(std::thread::spawn(move || {
                let report = engine.run(&CountRequest::exact(example_query())).unwrap();
                report.answer.as_count().unwrap().to_u64()
            }));
        }
        for handle in handles {
            assert_eq!(handle.join().unwrap(), Some(2));
        }
        let stats = engine.cache_stats();
        assert_eq!(stats.hits + stats.misses, 4);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn keywidths_are_served_from_the_plan() {
        let engine = employee_engine();
        let q = example_query();
        assert_eq!(engine.keywidth(&q), 2);
        assert_eq!(engine.disjunct_keywidth(&q).unwrap(), 2);
        let fo = parse_query("NOT EXISTS i, n . Employee(i, n, 'HR')").unwrap();
        assert!(engine.disjunct_keywidth(&fo).is_err());
        // Three lookups, one plan.
        assert_eq!(engine.cache_stats().entries, 2);
    }

    #[test]
    fn mutations_update_the_total_incrementally() {
        let mut engine = employee_engine();
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.total_repairs().to_u64(), Some(4));

        // Growing an existing block: 4 → 6.
        let report = insert(&mut engine, "Employee(1, 'Bob', 'Sales')");
        assert_eq!(report.applied, 1);
        assert_eq!(report.deltas.len(), 1);
        assert_eq!((report.deltas[0].old_len, report.deltas[0].new_len), (2, 3));
        assert_eq!(engine.total_repairs().to_u64(), Some(6));
        assert_eq!(engine.generation(), 1);

        // Creating a block: 6 → 6 (a singleton multiplies by 1).
        let report = insert(&mut engine, "Employee(3, 'Eve', 'R&D')");
        assert!(report.deltas[0].created());
        assert_eq!(engine.total_repairs().to_u64(), Some(6));

        // Shrinking and retiring blocks.
        delete(&mut engine, "Employee(1, 'Bob', 'Sales')");
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
        let report = delete(&mut engine, "Employee(3, 'Eve', 'R&D')");
        assert!(report.deltas[0].removed());
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
        assert_eq!(engine.generation(), 4);

        // The engine now matches a fresh one on the same database.
        let fresh = RepairEngine::new(engine.database().clone(), engine.keys().clone());
        assert_eq!(engine.total_repairs(), fresh.total_repairs());
    }

    #[test]
    fn noop_insert_does_not_bump_the_generation() {
        let mut engine = employee_engine();
        let report = insert(&mut engine, "Employee(1, 'Bob', 'HR')");
        assert_eq!(report.applied, 0);
        assert_eq!(report.noops, 1);
        assert!(report.deltas.is_empty());
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
    }

    #[test]
    fn deleting_a_missing_fact_is_an_error_and_leaves_the_engine_unchanged() {
        let mut engine = employee_engine();
        let err = engine.apply(Mutation::Delete(FactId::new(99))).unwrap_err();
        assert!(matches!(err, CountError::Db(_)));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
    }

    #[test]
    fn queries_after_mutations_see_the_new_database() {
        let mut engine = employee_engine();
        let q = example_query();
        assert_eq!(exact_count(&engine, &q), 2);
        // Give employee 1 a third department that also matches IT: the
        // count over the query's own relation must be re-derived.
        insert(&mut engine, "Employee(1, 'Bob', 'Sales')");
        assert_eq!(exact_count(&engine, &q), 2);
        assert_eq!(engine.cache_stats().invalidations, 1);
        delete(&mut engine, "Employee(1, 'Bob', 'HR')");
        // Blocks: employee 1 = {IT, Sales}, employee 2 = {Alice, Tim}.
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
        assert_eq!(exact_count(&engine, &q), 2);
        // Certain answers and decisions track the mutations too.
        delete(&mut engine, "Employee(1, 'Bob', 'Sales')");
        // Employee 1 only has IT now: the join is certain.
        let report = engine
            .run(&CountRequest::certain_answer(q.clone()))
            .unwrap();
        assert_eq!(report.answer.as_bool(), Some(true));
        assert_eq!(report.generation, engine.generation());
    }

    #[test]
    fn untouched_relations_keep_their_plans_but_see_the_new_total() {
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
        db.insert_parsed("S(1, 'x')").unwrap();
        let mut engine = RepairEngine::new(db, keys);
        let q = parse_query("R(1, 'a')").unwrap();
        assert_eq!(exact_count(&engine, &q), 1);

        // Mutate S only: the R plan must survive (no invalidation), while
        // both the count and the total move with the larger S block.
        let fact = engine.database().parse_fact("S(1, 'y')").unwrap();
        engine.apply(Mutation::Insert(fact)).unwrap();
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
        let report = engine.run(&CountRequest::frequency(q.clone())).unwrap();
        assert!(report.plan_cached);
        // 2 of the 4 repairs pick R(1, 'a'): same 1/2 ratio, new absolutes.
        assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/2");
        assert_eq!(exact_count(&engine, &q), 2);
        assert_eq!(engine.cache_stats().invalidations, 0);

        // Mutating R does invalidate the plan on its next use.
        let fact = engine.database().parse_fact("R(2, 'c')").unwrap();
        engine.apply(Mutation::Insert(fact)).unwrap();
        assert_eq!(exact_count(&engine, &q), 2);
        assert_eq!(engine.cache_stats().invalidations, 1);
    }

    #[test]
    fn estimates_follow_mutations_and_match_a_fresh_engine() {
        let mut engine = employee_engine();
        let q = example_query();
        let request = CountRequest::approximate(q, 0.1, 0.05).with_seed(99);
        let before = engine.run(&request).unwrap();
        assert!(!before.answer.as_estimate().unwrap().estimate.is_zero());

        insert(&mut engine, "Employee(2, 'Ada', 'HR')");
        let after = engine.run(&request).unwrap();
        let fresh = RepairEngine::new(engine.database().clone(), engine.keys().clone());
        let expected = fresh.run(&request).unwrap();
        assert_eq!(
            after.answer.as_estimate().unwrap().estimate,
            expected.answer.as_estimate().unwrap().estimate,
            "a mutated engine and a fresh engine share the sample path"
        );
    }

    #[test]
    fn execute_speaks_commands_and_responses() {
        let mut engine = employee_engine();
        let q = example_query();
        let fact = engine
            .database()
            .parse_fact("Employee(3, 'Eve', 'IT')")
            .unwrap();
        let fact_again = fact.clone();
        let response = engine
            .execute(EngineCommand::Mutate(Mutation::Insert(fact)))
            .unwrap();
        let applied = response.as_applied().unwrap();
        assert_eq!(applied.applied, 1);
        assert_eq!(applied.generation, 1);
        assert!(response.as_report().is_none());

        let response = engine
            .execute(EngineCommand::Query(CountRequest::exact(q.clone())))
            .unwrap();
        assert_eq!(
            response
                .as_report()
                .unwrap()
                .answer
                .as_count()
                .unwrap()
                .to_u64(),
            Some(2)
        );
        assert!(response.as_applied().is_none());

        // A batch: one duplicate no-op, one delete.
        let id = engine.database().fact_id(&fact_again).unwrap();
        let response = engine
            .execute(EngineCommand::MutateBatch(vec![
                Mutation::Insert(fact_again),
                Mutation::Delete(id),
            ]))
            .unwrap();
        let applied = response.as_applied().unwrap();
        assert_eq!(applied.applied, 1);
        assert_eq!(applied.noops, 1);
        assert_eq!(applied.deltas.len(), 1);
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
    }

    #[test]
    fn rejected_batches_are_atomic() {
        let mut engine = employee_engine();
        let good = engine
            .database()
            .parse_fact("Employee(3, 'Eve', 'IT')")
            .unwrap();
        let live = engine.database().fact_id(
            &engine
                .database()
                .parse_fact("Employee(1, 'Bob', 'HR')")
                .unwrap(),
        );
        // A batch with a valid insert, a valid delete, and a delete of a
        // fact that is not live: nothing may be applied.
        let err = engine
            .apply_batch(vec![
                Mutation::Insert(good.clone()),
                Mutation::Delete(live.unwrap()),
                Mutation::Delete(FactId::new(999)),
            ])
            .unwrap_err();
        assert!(matches!(err, CountError::Db(_)));
        assert_eq!(engine.generation(), 0);
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
        assert!(!engine.database().contains(&good));
        assert!(engine.database().fact_id(&good).is_none());
        // Two deletes of the same fact are also rejected up front.
        let err = engine
            .apply_batch(vec![
                Mutation::Delete(live.unwrap()),
                Mutation::Delete(live.unwrap()),
            ])
            .unwrap_err();
        assert!(matches!(err, CountError::Db(_)));
        assert_eq!(engine.generation(), 0);
        // The valid prefix alone goes through.
        let report = engine
            .apply_batch(vec![
                Mutation::Insert(good),
                Mutation::Delete(live.unwrap()),
            ])
            .unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(engine.generation(), 2);
    }

    #[test]
    fn churn_on_one_key_does_not_grow_the_slot_table() {
        let mut engine = employee_engine();
        let slots = engine.blocks().slot_count();
        for _ in 0..50 {
            insert(&mut engine, "Employee(9, 'Flux', 'Ops')");
            delete(&mut engine, "Employee(9, 'Flux', 'Ops')");
        }
        assert_eq!(
            engine.blocks().slot_count(),
            slots + 1,
            "the revived slot is reused across all 50 cycles"
        );
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
    }

    #[test]
    fn compact_reclaims_ids_and_slots_and_preserves_answers() {
        let mut engine = employee_engine();
        let q = example_query();
        assert_eq!(exact_count(&engine, &q), 2);
        // Churn: retire a block, consume ids, leave tombstones behind.
        insert(&mut engine, "Employee(9, 'Flux', 'Ops')");
        delete(&mut engine, "Employee(9, 'Flux', 'Ops')");
        insert(&mut engine, "Employee(1, 'Bob', 'Sales')");
        delete(&mut engine, "Employee(1, 'Bob', 'Sales')");
        assert_eq!(engine.waste(), 3, "two tombstones + one retired slot");
        let generation = engine.generation();
        let total_before = engine.total_repairs().clone();

        let outcome = engine.compact();
        assert_eq!(outcome.report.ids_reclaimed(), 2);
        assert_eq!(outcome.slots_dropped(), 1);
        assert_eq!(outcome.slots_after, engine.blocks().len());
        assert_eq!(outcome.plans_dropped, 1, "the cached plan was cleared");
        assert!(outcome.total_cross_checked);
        assert_eq!(outcome.generation, generation + 1);
        assert_eq!(engine.generation(), generation + 1);
        assert_eq!(engine.waste(), 0);
        assert_eq!(engine.database().fact_ids_assigned(), 4);
        assert_eq!(engine.total_repairs(), &total_before);
        assert_eq!(engine.cache_stats().entries, 0);

        // Answers are unchanged; the re-planned query is correct.
        assert_eq!(exact_count(&engine, &q), 2);
        let report = engine.run(&CountRequest::frequency(q)).unwrap();
        assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/2");
        assert_eq!(report.generation, generation + 1);
        // The compacted engine equals a fresh engine on its live facts.
        let fresh = RepairEngine::new(engine.database().clone(), engine.keys().clone());
        assert_eq!(engine.total_repairs(), fresh.total_repairs());
        assert_eq!(engine.blocks(), fresh.blocks());
    }

    #[test]
    fn compact_restores_insert_headroom_after_exhaustion() {
        let mut schema = Schema::new();
        schema.add_relation("Employee", 3).unwrap();
        let keys = KeySet::builder(&schema).key("Employee", 1).unwrap().build();
        let db = Database::new(schema).with_fact_id_capacity(3);
        let mut engine = RepairEngine::new(db, keys);
        insert(&mut engine, "Employee(1, 'Bob', 'HR')");
        insert(&mut engine, "Employee(1, 'Bob', 'IT')");
        delete(&mut engine, "Employee(1, 'Bob', 'IT')");
        insert(&mut engine, "Employee(2, 'Eve', 'IT')");
        // Id space spent: a fresh insert fails.
        let fact = engine
            .database()
            .parse_fact("Employee(3, 'Kim', 'IT')")
            .unwrap();
        let err = engine.apply(Mutation::Insert(fact.clone())).unwrap_err();
        assert!(matches!(
            err,
            CountError::Db(cdr_repairdb::DbError::FactIdsExhausted { .. })
        ));
        // Compaction through the command API reclaims the tombstone's id.
        let response = engine.execute(EngineCommand::Compact).unwrap();
        let outcome = response.as_compacted().unwrap();
        assert_eq!(outcome.report.ids_reclaimed(), 1);
        assert!(response.as_report().is_none() && response.as_applied().is_none());
        engine.apply(Mutation::Insert(fact)).unwrap();
        assert_eq!(engine.database().len(), 3);
        assert_eq!(engine.total_repairs().to_u64(), Some(1));
    }

    #[test]
    fn maybe_compact_follows_the_threshold_and_exhaustion_policy() {
        let mut engine = employee_engine();
        assert!(engine.maybe_compact(1).is_none(), "no waste, nothing to do");
        insert(&mut engine, "Employee(9, 'Flux', 'Ops')");
        delete(&mut engine, "Employee(9, 'Flux', 'Ops')");
        assert_eq!(engine.waste(), 2);
        assert!(engine.maybe_compact(3).is_none(), "below the threshold");
        let outcome = engine.maybe_compact(2).expect("threshold reached");
        assert_eq!(outcome.report.ids_reclaimed(), 1);
        assert_eq!(engine.waste(), 0);

        // Exhaustion triggers a compaction even below the threshold.
        let mut schema = Schema::new();
        schema.add_relation("R", 1).unwrap();
        let keys = KeySet::empty(&schema);
        let db = Database::new(schema).with_fact_id_capacity(2);
        let mut engine = RepairEngine::new(db, keys);
        insert(&mut engine, "R(1)");
        insert(&mut engine, "R(2)");
        delete(&mut engine, "R(1)");
        assert!(engine.maybe_compact(1_000).is_some(), "ids are exhausted");
        assert_eq!(engine.database().fact_ids_assigned(), 1);
    }

    #[test]
    fn estimates_are_bit_for_bit_stable_across_compaction() {
        let mut engine = employee_engine();
        // Non-dense ids and slots before compacting.
        insert(&mut engine, "Employee(2, 'Ada', 'HR')");
        insert(&mut engine, "Employee(7, 'Tmp', 'IT')");
        delete(&mut engine, "Employee(7, 'Tmp', 'IT')");
        let request = CountRequest::approximate(example_query(), 0.1, 0.05).with_seed(1234);
        let before = engine.run(&request).unwrap();
        let before = before.answer.as_estimate().unwrap();
        let (estimate, positive, used) = (
            before.estimate.clone(),
            before.positive_samples,
            before.samples_used,
        );
        engine.compact();
        let after = engine.run(&request).unwrap();
        let after = after.answer.as_estimate().unwrap();
        assert_eq!(after.estimate, estimate);
        assert_eq!(after.positive_samples, positive);
        assert_eq!(after.samples_used, used);
    }

    #[test]
    fn lru_cache_evicts_and_counts() {
        let engine = employee_engine().with_plan_cache_capacity(2);
        let q1 = parse_query("EXISTS n . Employee(1, n, 'HR')").unwrap();
        let q2 = parse_query("EXISTS n . Employee(1, n, 'IT')").unwrap();
        let q3 = parse_query("EXISTS n . Employee(2, n, 'IT')").unwrap();
        engine.run(&CountRequest::exact(q1.clone())).unwrap();
        engine.run(&CountRequest::exact(q2.clone())).unwrap();
        // Touch q1 so q2 is the LRU victim when q3 arrives.
        engine.run(&CountRequest::exact(q1.clone())).unwrap();
        engine.run(&CountRequest::exact(q3.clone())).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.capacity, 2);
        assert_eq!(stats.evictions, 1);
        // q1 survived (it was recently used), q2 was evicted.
        assert!(engine.run(&CountRequest::exact(q1)).unwrap().plan_cached);
        assert!(!engine.run(&CountRequest::exact(q2)).unwrap().plan_cached);
        assert_eq!(engine.cache_stats().evictions, 2);
    }

    #[test]
    fn cache_stats_display_is_readable() {
        let engine = employee_engine();
        engine.run(&CountRequest::exact(example_query())).unwrap();
        let text = engine.cache_stats().to_string();
        assert!(text.contains("1/1024 entries"), "{text}");
        assert!(text.contains("0 hits"), "{text}");
        assert!(text.contains("1 miss"), "{text}");
        assert!(text.contains("0 evictions"), "{text}");
        assert!(text.contains("0 invalidations"), "{text}");
    }

    #[test]
    fn parallel_run_batch_matches_sequential() {
        let sequential = employee_engine();
        let parallel = employee_engine().with_parallelism(4);
        assert_eq!(parallel.parallelism(), 4);
        let mut requests = Vec::new();
        for text in [
            "EXISTS n . Employee(1, n, 'HR')",
            "EXISTS n . Employee(1, n, 'IT')",
            "EXISTS n . Employee(2, n, 'IT')",
            "Employee(1, 'Bob', 'HR')",
            "TRUE",
            "FALSE",
        ] {
            let q = parse_query(text).unwrap();
            requests.push(CountRequest::exact(q.clone()));
            requests.push(CountRequest::frequency(q.clone()));
            requests.push(CountRequest::decision(q));
        }
        let expected: Vec<Option<u64>> = sequential
            .run_batch(&requests)
            .into_iter()
            .map(|r| match r.unwrap().answer {
                Answer::Count(c) => c.to_u64(),
                Answer::Decision(b) => Some(b as u64),
                Answer::Frequency(f) => Some(f.to_string().len() as u64),
                Answer::Estimate(_) => None,
            })
            .collect();
        let got: Vec<Option<u64>> = parallel
            .run_batch(&requests)
            .into_iter()
            .map(|r| match r.unwrap().answer {
                Answer::Count(c) => c.to_u64(),
                Answer::Decision(b) => Some(b as u64),
                Answer::Frequency(f) => Some(f.to_string().len() as u64),
                Answer::Estimate(_) => None,
            })
            .collect();
        assert_eq!(expected, got, "parallel batches preserve request order");
        let stats = parallel.cache_stats();
        assert_eq!(stats.hits + stats.misses, requests.len() as u64);
    }
}
