//! Property suite for the replicated command log: follower divergence is
//! impossible, and the snapshot codec reproduces the engine bit for bit.
//!
//! Wire replies carry no wall-clock or node-local provenance — they are
//! a pure function of engine state and command order.  That makes
//! replica equality a *byte* property, checked here three ways for the
//! same randomly driven primary:
//!
//! * the primary itself,
//! * two followers that bootstrapped from `REPL SNAPSHOT BIN` and
//!   tailed the log (through mutations, rejected commands, batches and
//!   replicated compactions) at different fetch batch sizes,
//! * a cold-restarted instance recovered from the snapshot plus the
//!   post-snapshot log suffix,
//!
//! all of which must answer the read battery identically — including
//! `gen=` generation stamps, `cached=` plan-cache provenance (each
//! battery line runs twice: a miss, then a hit) and seeded `APPROX`
//! estimates.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use repair_count::db::FactId;
use repair_count::prelude::*;
use repair_count::workloads::{churn_base, replication_battery};

/// Distinct per-case log directories under the system temp dir.
static LOG_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_log_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "cdr-replication-parity-{}-{}",
        std::process::id(),
        LOG_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn test_config() -> ServerConfig {
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.poll_interval = Duration::from_millis(25);
    config
}

fn churn_engine() -> RepairEngine {
    let (db, keys) = churn_base();
    RepairEngine::new(db, keys)
}

fn stat_u64(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no `{key}` field in `{line}`"))
}

fn stats_head(reply: &str) -> String {
    reply.split(" | ").next().unwrap_or(reply).to_string()
}

fn wait_for_offset(client: &mut Client, target: u64) -> String {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = client.send("STATS").expect("STATS");
        if stat_u64(&reply, "end=") >= target {
            return reply;
        }
        assert!(
            Instant::now() < deadline,
            "stuck short of offset {target}: {reply}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn battery_replies(client: &mut Client) -> Vec<String> {
    replication_battery()
        .iter()
        .map(|line| client.send(line).expect("battery line"))
        .collect()
}

const LCG_MUL: u64 = 6364136223846793005;
const LCG_ADD: u64 = 1442695040888963407;

/// One random wire step over the churn schema: either a single command
/// line or an atomic mutation batch.  Invalid steps (deletes of dead
/// ids) are part of the property: a rejected command is still logged,
/// and its rejection — which leaves the engine untouched — must
/// reproduce on every replica.
enum WireStep {
    Line(String),
    Batch(Vec<String>),
}

fn random_step(state: &mut u64, step: usize) -> WireStep {
    *state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
    let roll = (*state >> 33) % 10;
    let key = (*state >> 8) % 16;
    match roll {
        0..=3 => WireStep::Line(format!("INSERT Event({key}, 'p{step}')")),
        4 | 5 => WireStep::Line(format!("DELETE {}", (*state >> 16) % 48)),
        6 => WireStep::Batch(vec![
            format!("INSERT Event({key}, 'b{step}')"),
            format!("INSERT Event({}, 'b{step}')", (key + 1) % 16),
        ]),
        7 => WireStep::Line("COMPACT".to_string()),
        _ => WireStep::Line(format!("COUNT auto EXISTS p . Event({key}, p)")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Property: follower divergence is impossible.  After any random
    /// command stream — valid and invalid mutations, batches, manual and
    /// automatic compactions — the primary, two tailing followers and a
    /// cold-restarted instance answer the read battery byte-identically,
    /// and their `STATS` gauge heads agree.
    #[test]
    fn prop_follower_divergence_is_impossible(
        seed in 0u64..10_000,
        ops in 15usize..40,
    ) {
        let dir = temp_log_dir();
        let backend = ReplicatedBackend::primary(churn_engine(), &dir).expect("fresh primary");
        let mut config = test_config();
        config.auto_compact = Some(16);
        let primary = Server::start_replicated(backend, config).expect("bind primary");
        let primary_addr = primary.addr().to_string();

        // Both followers tail live while the trace is still being
        // driven, one of them with a small fetch batch so multi-round
        // catch-up is part of the property.
        let backend = ReplicatedBackend::follower_with(
            &primary_addr, Some(16), 32, |engine| engine,
        ).expect("bootstrap follower");
        let mut follower_config = test_config();
        follower_config.auto_compact = Some(16);
        let follower =
            Server::start_replicated(backend, follower_config).expect("bind follower");
        let backend = ReplicatedBackend::follower_with(
            &primary_addr, Some(16), 5, |engine| engine,
        ).expect("bootstrap small-batch follower");
        let mut follower_config = test_config();
        follower_config.auto_compact = Some(16);
        let small_follower =
            Server::start_replicated(backend, follower_config).expect("bind small-batch follower");

        let mut client = Client::connect(primary.addr()).expect("connect primary");
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        for step in 0..ops {
            match random_step(&mut state, step) {
                WireStep::Line(line) => {
                    client.send(&line).expect("trace line");
                }
                WireStep::Batch(lines) => {
                    let lines: Vec<&str> = lines.iter().map(String::as_str).collect();
                    client.send_batch(&lines).expect("trace batch");
                }
            }
        }
        let primary_stats = client.send("STATS").expect("STATS");
        let target = stat_u64(&primary_stats, "end=");
        let primary_battery = battery_replies(&mut client);

        // Both tailing followers converge to the same bytes — and each
        // counts the wire bytes its feed cost.
        for server in [&follower, &small_follower] {
            let mut reader = Client::connect(server.addr()).expect("connect follower");
            let follower_stats = wait_for_offset(&mut reader, target);
            prop_assert_eq!(stats_head(&primary_stats), stats_head(&follower_stats));
            prop_assert!(stat_u64(&follower_stats, "bytes=") > 0, "{}", follower_stats);
            prop_assert_eq!(&primary_battery, &battery_replies(&mut reader));
        }

        // The cold-restarted instance recovers to the same bytes,
        // replaying only the post-snapshot suffix.
        let hello = client.send("REPL HELLO").expect("HELLO");
        let snap = stat_u64(&hello, "snap=");
        prop_assert_eq!(client.send("SHUTDOWN").expect("SHUTDOWN"), "OK SHUTDOWN");
        primary.join();
        let backend = ReplicatedBackend::primary(churn_engine(), &dir).expect("recover");
        let restarted = Server::start_replicated(backend, test_config()).expect("bind");
        let mut client = Client::connect(restarted.addr()).expect("connect restarted");
        let restarted_stats = client.send("STATS").expect("STATS");
        prop_assert_eq!(stats_head(&primary_stats), stats_head(&restarted_stats));
        prop_assert_eq!(stat_u64(&restarted_stats, "end="), target);
        prop_assert_eq!(stat_u64(&restarted_stats, "replayed="), target - snap);
        prop_assert_eq!(&primary_battery, &battery_replies(&mut client));

        restarted.shutdown();
        prop_assert_eq!(restarted.join().recovered_panics, 0);
        follower.shutdown();
        prop_assert_eq!(follower.join().recovered_panics, 0);
        small_follower.shutdown();
        prop_assert_eq!(small_follower.join().recovered_panics, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Property: `Snapshot` encode ∘ decode reproduces the engine bit
    /// for bit — database, key set, generation counters — so a restored
    /// replica replays every report identically, including seeded
    /// `APPROX` estimates and `gen=` provenance.
    #[test]
    fn prop_snapshot_codec_round_trips_the_engine(
        seed in 0u64..10_000,
        ops in 0usize..24,
        epoch in 0u64..5,
        offset in 0u64..1_000,
    ) {
        let mut engine = churn_engine();
        let mut state = seed.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        for step in 0..ops {
            state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            let key = (state >> 8) % 16;
            let mutation = if state % 4 == 0 {
                Mutation::Delete(FactId::new(((state >> 16) % 40) as usize))
            } else {
                let fact = engine
                    .database()
                    .parse_fact(&format!("Event({key}, 's{step}')"))
                    .expect("well-formed fact");
                Mutation::Insert(fact)
            };
            engine.apply(mutation).ok();
        }
        // Snapshots are dense images: compact away any tombstones first,
        // exactly as the primary does before it writes one.
        engine.compact();

        let snapshot = Snapshot {
            epoch,
            offset,
            generation: engine.generation(),
            rel_generations: engine.rel_generations().to_vec(),
            db: engine.database().clone(),
            keys: engine.keys().clone(),
        };
        let bytes = snapshot.encode().expect("dense images encode");
        let decoded = Snapshot::decode(&bytes).expect("round-trip decode");
        prop_assert_eq!(decoded.epoch, epoch);
        prop_assert_eq!(decoded.offset, offset);
        prop_assert_eq!(decoded.generation, engine.generation());
        prop_assert_eq!(&decoded.rel_generations[..], engine.rel_generations());
        prop_assert_eq!(&decoded.db, engine.database());
        prop_assert_eq!(&decoded.keys, engine.keys());

        let restored = RepairEngine::restore(
            decoded.db,
            decoded.keys,
            decoded.generation,
            decoded.rel_generations,
        );
        prop_assert_eq!(restored.total_repairs(), engine.total_repairs());

        // Replay equality through the full serving surface: both oracles
        // answer the read battery (and STATS) byte-identically.
        let mut original = Oracle::new(engine);
        let mut recovered = Oracle::new(restored);
        let mut probe = replication_battery();
        probe.push("STATS".to_string());
        for line in &probe {
            prop_assert_eq!(
                original.feed(line),
                recovered.feed(line),
                "diverged on `{}`", line
            );
        }
    }
}
