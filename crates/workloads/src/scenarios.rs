//! Fully specified scenarios used by the examples and experiments.

use std::collections::HashSet;

use cdr_core::RepairEngine;
use cdr_repairdb::{Database, KeySet, Mutation, Schema, Value};

/// The paper's Example 1.1: the `Employee` relation with two conflicting
/// blocks.  Returns the database and the primary key `key(Employee) = {1}`.
pub fn employee_example() -> (Database, KeySet) {
    let mut schema = Schema::new();
    schema.add_relation("Employee", 3).expect("fresh schema");
    let keys = KeySet::builder(&schema)
        .key("Employee", 1)
        .expect("valid key")
        .build();
    let mut db = Database::new(schema);
    for fact in [
        "Employee(1, 'Bob', 'HR')",
        "Employee(1, 'Bob', 'IT')",
        "Employee(2, 'Alice', 'IT')",
        "Employee(2, 'Tim', 'IT')",
    ] {
        db.insert_parsed(fact).expect("example facts are valid");
    }
    (db, keys)
}

/// `blocks` conflicting `R(key, value)` blocks of `width` facts each,
/// keyed on the first column: `R(k, 'v0'), …, R(k, 'v{width-1}')` for
/// every `k < blocks`, so the total repair count is `width^blocks`.
///
/// This is a block-count-heavy shape: every block is a conflict, and each
/// apply's incremental block-product update runs over a number of limbs
/// proportional to the block count the engine holds.
pub fn conflicting_blocks(blocks: usize, width: usize) -> (Database, KeySet) {
    let mut schema = Schema::new();
    schema.add_relation("R", 2).expect("fresh schema");
    let keys = KeySet::builder(&schema)
        .key("R", 1)
        .expect("valid key")
        .build();
    let mut db = Database::new(schema);
    for k in 0..blocks {
        for v in 0..width {
            db.insert_parsed(&format!("R({k}, 'v{v}')"))
                .expect("generated facts are valid");
        }
    }
    (db, keys)
}

/// A two-source data-integration scenario: `customers` customer records
/// merged from two systems that disagree on city and status for a fraction
/// of the customers, plus a consistent `Order` relation.
///
/// * `Customer(id, city, status)` with `key(Customer) = {1}`;
/// * `Order(order_id, customer_id, amount)` with `key(Order) = {1}`.
///
/// Customer ids divisible by `conflict_every` receive two conflicting
/// records (one per source); the rest get a single record.  Orders
/// reference customer `order_id % customers` and are never conflicting.
pub fn two_source_customers(customers: usize, conflict_every: usize) -> (Database, KeySet) {
    let conflict_every = conflict_every.max(1);
    let mut schema = Schema::new();
    schema.add_relation("Customer", 3).expect("fresh schema");
    schema.add_relation("Order", 3).expect("fresh schema");
    let keys = KeySet::builder(&schema)
        .key("Customer", 1)
        .expect("valid key")
        .key("Order", 1)
        .expect("valid key")
        .build();
    let mut db = Database::new(schema);
    let cities = ["Edinburgh", "Amsterdam", "Rome", "Paris"];
    for id in 0..customers {
        let city = cities[id % cities.len()];
        db.insert_values(
            "Customer",
            vec![
                Value::int(id as i64),
                Value::text(city),
                Value::text("active"),
            ],
        )
        .expect("generated facts are valid");
        if id % conflict_every == 0 {
            // The second source disagrees on the city and the status.
            let other_city = cities[(id + 1) % cities.len()];
            db.insert_values(
                "Customer",
                vec![
                    Value::int(id as i64),
                    Value::text(other_city),
                    Value::text("dormant"),
                ],
            )
            .expect("generated facts are valid");
        }
        // One order per customer, consistent.
        db.insert_values(
            "Order",
            vec![
                Value::int(1000 + id as i64),
                Value::int(id as i64),
                Value::int((id as i64 % 7 + 1) * 10),
            ],
        )
        .expect("generated facts are valid");
    }
    (db, keys)
}

/// A sensor-deduplication scenario: `sensors` sensors each report one
/// reading per tick, but for `duplicates_per_sensor` of the sensors the
/// ingestion pipeline recorded several conflicting readings for the same
/// tick.
///
/// * `Reading(sensor, tick, value)` with `key(Reading) = {1, 2}`
///   (sensor and tick jointly identify a reading).
pub fn sensor_readings(
    sensors: usize,
    ticks: usize,
    duplicates_per_sensor: usize,
) -> (Database, KeySet) {
    let mut schema = Schema::new();
    schema.add_relation("Reading", 3).expect("fresh schema");
    let keys = KeySet::builder(&schema)
        .key("Reading", 2)
        .expect("valid key")
        .build();
    let mut db = Database::new(schema);
    for s in 0..sensors {
        for t in 0..ticks {
            let base = (s * 31 + t * 7) % 100;
            db.insert_values(
                "Reading",
                vec![
                    Value::int(s as i64),
                    Value::int(t as i64),
                    Value::int(base as i64),
                ],
            )
            .expect("generated facts are valid");
            // Every third sensor has conflicting duplicates at tick 0..duplicates.
            if s % 3 == 0 && t < duplicates_per_sensor {
                for d in 1..=2usize {
                    db.insert_values(
                        "Reading",
                        vec![
                            Value::int(s as i64),
                            Value::int(t as i64),
                            Value::int((base + d * 5) as i64),
                        ],
                    )
                    .expect("generated facts are valid");
                }
            }
        }
    }
    (db, keys)
}

/// The retractable facts of a sensor base, discovered from the built
/// database: every fact of a conflicting block *except its first*, so a
/// scenario deleting only these stays delete-bearing (and valid) no matter
/// how [`sensor_readings`] shapes its values.
fn retractable_duplicates(db: &Database, keys: &KeySet) -> Vec<cdr_repairdb::FactId> {
    cdr_repairdb::BlockPartition::new(db, keys)
        .iter()
        .filter(|(_, block)| !block.is_singleton())
        .flat_map(|(_, block)| block.facts()[1..].iter().copied())
        .collect()
}

/// One step of the scenarios' deterministic LCG (Knuth's MMIX constants).
fn lcg_step(state: &mut u64) {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
}

/// A mutation-heavy streaming scenario on top of [`sensor_readings`]: the
/// base database plus a deterministic stream of `updates` mutations — late
/// arriving conflicting readings ([`Mutation::Insert`], occasionally a
/// duplicate of an earlier arrival, i.e. a visible no-op) interleaved with
/// retractions of duplicates recorded at ingestion time
/// ([`Mutation::Delete`], roughly one mutation in three).
///
/// The stream is constructed so that applying it in order never errors:
/// every delete names a base fact that is still live when it is reached.
/// The same parameters always produce the same stream, so benchmarks and
/// tests are reproducible.
pub fn streaming_sensor_updates(
    sensors: usize,
    ticks: usize,
    updates: usize,
) -> (Database, KeySet, Vec<Mutation>) {
    let duplicates_per_sensor = ticks.min(2);
    let (db, keys) = sensor_readings(sensors, ticks, duplicates_per_sensor);
    let retractable = retractable_duplicates(&db, &keys);
    let mut stream = Vec::with_capacity(updates);
    let mut retracted = HashSet::new();
    let mut state: u64 = 0x5EED_CAFE_F00D_D00D;
    for step in 0..updates {
        lcg_step(&mut state);
        let sensor = (state >> 8) as usize % sensors.max(1);
        let tick = (state >> 24) as usize % ticks.max(1);
        if step % 3 == 2 && !retractable.is_empty() {
            // Retract one of the duplicates recorded at ingestion time.
            let id = retractable[(state >> 40) as usize % retractable.len()];
            if retracted.insert(id) {
                stream.push(Mutation::Delete(id));
                continue;
            }
        }
        // A late-arriving reading that conflicts with the recorded one.
        let value = 100 + (state >> 48) as usize % 23;
        let fact = db
            .parse_fact(&format!("Reading({sensor}, {tick}, {value})"))
            .expect("generated readings are well-formed");
        stream.push(Mutation::Insert(fact));
    }
    (db, keys, stream)
}

/// A serving-session trace over the [`sensor_readings`] base: the database
/// and keys a server should boot with, plus a deterministic sequence of
/// *wire lines* (the `cdr_core::wire` grammar) mixing inserts, deletes,
/// exact counts, certain-answer and frequency probes, and `STATS` checks —
/// the trace a line-protocol client replays over a real socket.
///
/// The trace is valid by construction when replayed against a server booted
/// on exactly the returned database:
///
/// * the base facts receive ids `0..n` in insertion order, and every fact
///   the trace inserts is fresh (its value range is disjoint from the
///   base), so ids assigned during the session are predictable;
/// * every `DELETE` names an id that is live when the line is reached —
///   either a duplicate recorded at ingestion time (never the first fact
///   of its block) or a fact the trace itself inserted earlier.
///
/// The same parameters always produce the same trace, so socket tests and
/// the CI smoke job are reproducible.
pub fn serving_session(
    sensors: usize,
    ticks: usize,
    ops: usize,
) -> (Database, KeySet, Vec<String>) {
    let duplicates_per_sensor = ticks.min(2);
    let (db, keys) = sensor_readings(sensors, ticks, duplicates_per_sensor);
    let retractable = retractable_duplicates(&db, &keys);
    let mut next_id = db.fact_ids_assigned() as usize;
    let mut session_ids: Vec<usize> = Vec::new();
    let mut retracted = HashSet::new();
    let mut trace = Vec::with_capacity(ops);
    let mut state: u64 = 0xC0FF_EE00_5E55_1011;
    for step in 0..ops {
        lcg_step(&mut state);
        let sensor = (state >> 8) as usize % sensors.max(1);
        let tick = (state >> 24) as usize % ticks.max(1);
        match step % 7 {
            // Queries keep the plan cache warm and cross mutation barriers.
            1 => trace.push(format!(
                "COUNT auto EXISTS v . Reading({sensor}, {tick}, v)"
            )),
            3 => trace.push(format!("CERTAIN EXISTS v . Reading({sensor}, {tick}, v)")),
            5 => trace.push(format!(
                "FREQ EXISTS s, v . Reading(s, {tick}, v) AND Reading(s, {t2}, v)",
                t2 = (tick + 1) % ticks.max(1)
            )),
            6 if step % 2 == 0 => trace.push("STATS".to_string()),
            // Roughly one mutation in three is a retraction.
            2 => {
                let deleted = if step % 6 == 2 && !retractable.is_empty() {
                    let id = retractable[(state >> 40) as usize % retractable.len()];
                    retracted.insert(id.index()).then(|| id.index())
                } else {
                    session_ids.pop()
                };
                match deleted {
                    Some(id) => trace.push(format!("DELETE {id}")),
                    None => trace.push(format!("DECIDE EXISTS v . Reading({sensor}, {tick}, v)")),
                }
            }
            // Fresh late-arriving conflicting readings: values start at
            // 1000 + step, far above anything the base generator emits, so
            // every insert allocates a new id.
            _ => {
                let value = 1000 + step;
                trace.push(format!("INSERT Reading({sensor}, {tick}, {value})"));
                session_ids.push(next_id);
                next_id += 1;
            }
        }
    }
    trace.push("STATS".to_string());
    (db, keys, trace)
}

/// The base database of [`churn_session`]: a small `Event(key, payload)`
/// relation with `key(Event) = {1}` — four singleton blocks plus two
/// conflicting duplicates, so queries are non-trivial from the first line.
pub fn churn_base() -> (Database, KeySet) {
    let mut schema = Schema::new();
    schema.add_relation("Event", 2).expect("fresh schema");
    let keys = KeySet::builder(&schema)
        .key("Event", 1)
        .expect("valid key")
        .build();
    let mut db = Database::new(schema);
    for k in 0..4i64 {
        db.insert_values("Event", vec![Value::int(k), Value::text("base")])
            .expect("generated facts are valid");
    }
    for k in 0..2i64 {
        db.insert_values("Event", vec![Value::int(k), Value::text("dup")])
            .expect("generated facts are valid");
    }
    (db, keys)
}

/// A delete-heavy long-session wire trace over [`churn_base`]: a
/// deterministic stream of `ops` lines dominated by inserts of
/// *never-repeated* keys and deletes of random live facts, interleaved
/// with query probes and `STATS` checks.  Left unchecked, this churn
/// grows without bound — every fresh key allocates a block slot that is
/// never revived, and every delete leaves a tombstoned fact id.
///
/// The trace is generated by *simulating* the session against a real
/// engine running the same auto-compaction policy the serving layer
/// applies ([`cdr_core::RepairEngine::maybe_compact`] before each
/// mutating command, with the given `auto_compact` threshold; `None`
/// disables the policy).  Every `DELETE` therefore names a fact id that
/// is live at that point *of a server replaying the trace under the same
/// policy* — compactions remap ids mid-session, and the simulation
/// tracks the remapping exactly.  Replaying the trace against
/// `cdr-serve --scenario churn --auto-compact <same threshold>` draws
/// only `OK` replies, no matter how long the session runs.
pub fn churn_session(ops: usize, auto_compact: Option<u64>) -> (Database, KeySet, Vec<String>) {
    let (db, keys) = churn_base();
    let mut engine = RepairEngine::new(db.clone(), keys.clone());
    let mut trace = Vec::with_capacity(ops + 1);
    let mut state: u64 = 0xD1CE_B0A7_CAFE_5EED;
    for step in 0..ops {
        lcg_step(&mut state);
        let probe_key = (state >> 8) % 16;
        // Mirror the serving layer exactly: before each emitted mutation
        // line the policy runs under the write guard — and it must run
        // *before* the delete victim is chosen, because a compaction
        // here remaps every id and the `DELETE` line must carry the
        // post-compaction one (the id the fact has when the server,
        // having just run the same policy, applies the line).
        let run_policy = |engine: &mut RepairEngine| {
            if let Some(threshold) = auto_compact {
                engine.maybe_compact(threshold);
            }
        };
        match step % 5 {
            // Probes cross the mutation (and compaction) barriers.
            1 => trace.push(format!("COUNT auto EXISTS p . Event({probe_key}, p)")),
            4 if step % 2 == 0 => trace.push("STATS".to_string()),
            4 => trace.push(format!("CERTAIN EXISTS p . Event({probe_key}, p)")),
            // Deletes: retract a pseudo-random live fact (keeping a small
            // floor so the probes stay non-trivial).
            2 | 3 if engine.database().len() > 3 => {
                run_policy(&mut engine);
                let nth = (state >> 16) as usize % engine.database().len();
                let id = engine
                    .database()
                    .iter()
                    .nth(nth)
                    .map(|(id, _)| id)
                    .expect("nth is in range");
                engine
                    .apply(Mutation::Delete(id))
                    .expect("the victim was chosen live, after the policy ran");
                trace.push(format!("DELETE {}", id.index()));
            }
            2 | 3 => trace.push(format!("FREQ EXISTS p . Event({probe_key}, p)")),
            // Inserts: a fresh key per step (`1000 + step` never repeats),
            // so every insert consumes a new id *and* a new block slot.
            _ => {
                run_policy(&mut engine);
                let key = 1_000 + step as i64;
                let payload = (state >> 24) % 7;
                let fact = engine
                    .database()
                    .parse_fact(&format!("Event({key}, 'p{payload}')"))
                    .expect("generated events are well-formed");
                engine
                    .apply(Mutation::Insert(fact))
                    .expect("fresh-key inserts always apply");
                trace.push(format!("INSERT Event({key}, 'p{payload}')"));
            }
        }
    }
    trace.push("STATS".to_string());
    (db, keys, trace)
}

/// The follower-read verification battery for the churn schema: a fixed
/// list of read-only lines sent to both ends of a replication pair and
/// compared byte-for-byte.
///
/// Two properties matter.  First, the lines are *textually disjoint*
/// from every query [`churn_session`] emits (probe keys stay below 16;
/// the battery stays at 100+), so neither node has a warmer plan cache
/// for them than the other.  Second, each distinct line appears twice in
/// a row, so on every node the first send is a plan-cache miss and the
/// second a hit — making the `cached=` provenance in the replies part of
/// what byte-equality verifies.  Seeded `APPROX` lines extend that to
/// the sampling estimators.
pub fn replication_battery() -> Vec<String> {
    let queries = [
        "COUNT auto TRUE".to_string(),
        "COUNT auto EXISTS p . Event(100, p)".to_string(),
        "COUNT auto EXISTS k . Event(k, 'base')".to_string(),
        "CERTAIN EXISTS p . Event(101, p)".to_string(),
        "DECIDE EXISTS p . Event(102, p)".to_string(),
        "FREQ EXISTS k . Event(k, 'dup')".to_string(),
        "APPROX 0.25 0.1 42 EXISTS p . Event(103, p)".to_string(),
        "APPROX 0.5 0.2 7 EXISTS k . Event(k, 'base')".to_string(),
    ];
    let mut lines = Vec::with_capacity(queries.len() * 2);
    for query in queries {
        lines.push(query.clone());
        lines.push(query);
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdr_core::{CountRequest, RepairEngine};
    use cdr_query::parse_query;
    use cdr_repairdb::BlockPartition;

    #[test]
    fn employee_example_matches_the_paper() {
        let (db, keys) = employee_example();
        assert_eq!(db.len(), 4);
        let engine = RepairEngine::new(db, keys);
        assert_eq!(engine.total_repairs().to_u64(), Some(4));
        let q = parse_query("EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)").unwrap();
        let report = engine.run(&CountRequest::frequency(q)).unwrap();
        assert_eq!(report.answer.as_frequency().unwrap().to_string(), "1/2");
    }

    #[test]
    fn two_source_scenario_has_the_expected_conflicts() {
        let (db, keys) = two_source_customers(20, 4);
        let blocks = BlockPartition::new(&db, &keys);
        // 20 customer blocks + 20 order blocks.
        assert_eq!(blocks.len(), 40);
        // Customers 0, 4, 8, 12, 16 are conflicted: 5 blocks of size 2.
        assert_eq!(blocks.conflicting_block_count(), 5);
        let engine = RepairEngine::new(db, keys);
        assert_eq!(engine.total_repairs().to_u64(), Some(32));
    }

    #[test]
    fn sensor_scenario_keys_on_sensor_and_tick() {
        let (db, keys) = sensor_readings(6, 4, 2);
        let blocks = BlockPartition::new(&db, &keys);
        assert_eq!(blocks.len(), 24, "one block per (sensor, tick) pair");
        // Sensors 0 and 3 have duplicates at ticks 0 and 1: 4 conflicted
        // blocks of size 3.
        assert_eq!(blocks.conflicting_block_count(), 4);
        assert_eq!(blocks.max_block_size(), 3);
        let engine = RepairEngine::new(db, keys);
        assert_eq!(engine.total_repairs().to_u64(), Some(81));
    }

    #[test]
    fn streaming_updates_apply_cleanly_and_deterministically() {
        let (db, keys, stream) = streaming_sensor_updates(6, 4, 60);
        let (_, _, again) = streaming_sensor_updates(6, 4, 60);
        assert_eq!(stream, again, "same parameters, same stream");
        assert_eq!(stream.len(), 60);
        let deletes = stream
            .iter()
            .filter(|m| matches!(m, Mutation::Delete(_)))
            .count();
        assert!(deletes > 0, "the stream retracts some duplicates");
        assert!(deletes < stream.len(), "the stream also inserts");
        // Applying the stream in order never errors, and the incremental
        // partition tracks a fresh recomputation.
        let mut mutated = db.clone();
        let mut blocks = BlockPartition::new(&mutated, &keys);
        for mutation in stream {
            let applied = mutated.apply(mutation).expect("stream applies cleanly");
            blocks.apply(&keys, &applied);
        }
        let fresh = BlockPartition::new(&mutated, &keys);
        assert_eq!(blocks.sizes(), fresh.sizes());
        assert!(blocks.conflicting_block_count() > 0);
    }

    #[test]
    fn serving_session_trace_replays_cleanly() {
        let (db, keys, trace) = serving_session(5, 3, 56);
        let (_, _, again) = serving_session(5, 3, 56);
        assert_eq!(trace, again, "same parameters, same trace");
        assert_eq!(trace.len(), 57, "ops lines plus the final STATS");
        let mut engine = cdr_core::RepairEngine::new(db, keys);
        let mut mutations = 0usize;
        let mut queries = 0usize;
        let mut stats = 0usize;
        for line in &trace {
            if line == "STATS" {
                stats += 1;
                continue;
            }
            let command = cdr_core::parse_engine_command(line, engine.database())
                .unwrap_or_else(|e| panic!("trace line `{line}` must parse: {e}"));
            match &command {
                cdr_core::EngineCommand::Query(_) => queries += 1,
                _ => mutations += 1,
            }
            engine
                .execute(command)
                .unwrap_or_else(|e| panic!("trace line `{line}` must apply: {e}"));
        }
        assert!(mutations > 0, "the trace mutates");
        assert!(queries > 0, "the trace queries");
        assert!(stats > 0, "the trace checks STATS");
        let deletes = trace.iter().filter(|l| l.starts_with("DELETE")).count();
        assert!(deletes > 0, "the trace retracts some facts");
    }

    #[test]
    fn churn_session_is_deterministic_and_delete_heavy() {
        let (db, _, trace) = churn_session(200, Some(16));
        let (_, _, again) = churn_session(200, Some(16));
        assert_eq!(trace, again, "same parameters, same trace");
        assert_eq!(db.len(), 6, "the base is small and fixed");
        let inserts = trace.iter().filter(|l| l.starts_with("INSERT")).count();
        let deletes = trace.iter().filter(|l| l.starts_with("DELETE")).count();
        assert!(inserts >= 40, "{inserts} inserts");
        assert!(deletes > 35, "{deletes} deletes");
        assert!(
            deletes > inserts,
            "delete-heavy: the live set hovers near its floor"
        );
        assert!(trace.iter().any(|l| l == "STATS"));
        assert!(trace.iter().any(|l| l.starts_with("COUNT")));
        // The threshold changes compaction points, hence the delete ids.
        let (_, _, other) = churn_session(200, None);
        assert_ne!(trace, other);
    }

    #[test]
    fn churn_growth_is_unbounded_without_compaction_and_bounded_with_it() {
        let ops = 300;
        // Replay both traces through engines running the matching policy.
        let waste_after = |threshold: Option<u64>| {
            let (db, keys, trace) = churn_session(ops, threshold);
            let mut engine = cdr_core::RepairEngine::new(db, keys);
            for line in &trace {
                match cdr_core::parse_engine_command(line, engine.database()) {
                    Ok(command) => {
                        if !matches!(command, cdr_core::EngineCommand::Query(_)) {
                            if let Some(t) = threshold {
                                engine.maybe_compact(t);
                            }
                        }
                        engine
                            .execute(command)
                            .unwrap_or_else(|e| panic!("churn line `{line}` must apply: {e}"));
                    }
                    Err(_) => assert_eq!(line, "STATS"),
                }
            }
            (engine.waste(), engine.blocks().slot_count())
        };
        let (unbounded_waste, unbounded_slots) = waste_after(None);
        let (bounded_waste, bounded_slots) = waste_after(Some(16));
        assert!(
            unbounded_waste > 100,
            "pre-compaction churn accumulates waste without bound ({unbounded_waste})"
        );
        assert!(
            bounded_waste < 16 + 2,
            "the policy bounds waste ({bounded_waste})"
        );
        assert!(
            bounded_slots < unbounded_slots / 2,
            "{bounded_slots} vs {unbounded_slots}"
        );
    }

    /// Regression: aggressive thresholds make compactions fire on
    /// *delete* steps too, where the victim id must be chosen only after
    /// the policy has remapped ids — picking it first generated `DELETE`
    /// lines naming pre-compaction ids and panicked the generator.
    #[test]
    fn churn_session_survives_aggressive_compaction_thresholds() {
        for threshold in [1u64, 5, 9] {
            let (db, keys, trace) = churn_session(600, Some(threshold));
            let mut engine = cdr_core::RepairEngine::new(db, keys);
            for line in &trace {
                match cdr_core::parse_engine_command(line, engine.database()) {
                    Ok(command) => {
                        if !matches!(command, cdr_core::EngineCommand::Query(_)) {
                            engine.maybe_compact(threshold);
                        }
                        engine.execute(command).unwrap_or_else(|e| {
                            panic!("threshold {threshold}: line `{line}` must apply: {e}")
                        });
                    }
                    Err(_) => assert_eq!(line, "STATS"),
                }
            }
        }
    }

    #[test]
    fn degenerate_parameters_are_tolerated() {
        let (db, keys) = two_source_customers(0, 0);
        assert!(db.is_empty());
        let blocks = BlockPartition::new(&db, &keys);
        assert!(blocks.is_empty());
        let (db, _) = sensor_readings(0, 0, 0);
        assert!(db.is_empty());
    }
}
