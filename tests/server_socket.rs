//! End-to-end socket tests for the serving front end.
//!
//! The ground truth everywhere is the [`Oracle`]: a single-threaded
//! replay of the same wire lines through the same parsing, scheduling
//! surface and rendering code over a bare [`RepairEngine`].  Wire replies
//! carry no wall-clock provenance, so a recorded interleaving must
//! reproduce byte for byte.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use repair_count::prelude::*;
use repair_count::workloads::{employee_example, two_source_customers};

fn start_server(engine: RepairEngine, configure: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig::bind("127.0.0.1:0");
    let mut poll = Duration::from_millis(25);
    std::mem::swap(&mut config.poll_interval, &mut poll);
    configure(&mut config);
    Server::start(engine, config).expect("binding an ephemeral loopback port")
}

fn employee_engine() -> RepairEngine {
    let (db, keys) = employee_example();
    RepairEngine::new(db, keys)
}

/// The id a successful `OK INSERT id=<n> …` reply assigned.
fn inserted_id(reply: &str) -> usize {
    reply
        .strip_prefix("OK INSERT id=")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|id| id.parse().ok())
        .unwrap_or_else(|| panic!("not an insert reply: {reply}"))
}

/// Acceptance: two concurrent clients interleave mutations and
/// `COUNT`/`CERTAIN` queries over real sockets; every reply must match a
/// single-threaded replay of the recorded command sequence against a bare
/// engine.
#[test]
fn concurrent_clients_match_single_threaded_replay() {
    // Each entry is one command with the replies it drew, in the global
    // order the server processed them (the turn lock serialises turns
    // while both clients stay genuinely concurrent connections).
    type TurnLog = Arc<Mutex<Vec<(String, Vec<String>)>>>;

    let server = start_server(employee_engine(), |_| {});
    let log: TurnLog = Arc::new(Mutex::new(Vec::new()));

    let q_join = "EXISTS x, y, z . Employee(1, x, y) AND Employee(2, z, y)";
    let q_it = "EXISTS n . Employee(2, n, 'IT')";

    let addr = server.addr();
    let scripted = |script: Vec<String>, log: TurnLog| {
        thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let mut last_insert_id = None;
            for step in script {
                // A `DELETE last` step deletes the fact this client
                // inserted most recently — ids are learned from replies,
                // exactly like a real client.
                let line = match (step.as_str(), last_insert_id) {
                    ("DELETE last", Some(id)) => format!("DELETE {id}"),
                    _ => step.clone(),
                };
                let mut log = log.lock().unwrap();
                let replies = if line == "BATCH-DEMO" {
                    let items = [format!("COUNT auto {q_it}"), format!("CERTAIN {q_join}")];
                    let items: Vec<&str> = items.iter().map(String::as_str).collect();
                    let replies = client.send_batch(&items).expect("batch");
                    let mut lines = vec!["BATCH".to_string()];
                    lines.extend(items.iter().map(|s| s.to_string()));
                    lines.push("END".to_string());
                    log.push((lines.join("\u{1}"), replies.clone()));
                    replies
                } else {
                    let reply = client.send(&line).expect("send");
                    log.push((line.clone(), vec![reply.clone()]));
                    vec![reply]
                };
                if replies[0].starts_with("OK INSERT id=") {
                    last_insert_id = Some(inserted_id(&replies[0]));
                }
            }
        })
    };

    let a = scripted(
        vec![
            format!("COUNT auto {q_join}"),
            "INSERT Employee(2, 'Eve', 'Finance')".to_string(),
            format!("CERTAIN {q_it}"),
            format!("COUNT auto {q_join}"),
            "DELETE last".to_string(),
            format!("CERTAIN {q_it}"),
            "STATS".to_string(),
        ],
        Arc::clone(&log),
    );
    let b = scripted(
        vec![
            format!("CERTAIN {q_it}"),
            "INSERT Employee(3, 'Ann', 'IT')".to_string(),
            format!("COUNT auto {q_it}"),
            "BATCH-DEMO".to_string(),
            "INSERT Employee(3, 'Kim', 'HR')".to_string(),
            format!("COUNT auto {q_join}"),
            "STATS".to_string(),
        ],
        Arc::clone(&log),
    );
    a.join().expect("client A panicked");
    b.join().expect("client B panicked");

    // Single-threaded replay of the recorded global order.
    let mut oracle = Oracle::new(employee_engine());
    let log = log.lock().unwrap();
    assert_eq!(log.len(), 14, "both scripts ran to completion");
    for (command, expected) in log.iter() {
        let mut got = Vec::new();
        for line in command.split('\u{1}') {
            got.extend(oracle.feed(line));
        }
        assert_eq!(&got, expected, "replay diverged on `{command}`");
    }

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.recovered_panics, 0);
    assert_eq!(stats.connections, 2);
}

/// Free-running concurrency (no turn lock): one client mutates and
/// queries `Customer`, another only queries `Order`.  The mutator's
/// replies must match its own single-threaded replay exactly (it is the
/// only mutator, so ids, generations and totals are its own); the
/// reader's `FREQ`/`CERTAIN`/`DECIDE` payloads are invariant under
/// other-relation mutations and must match a replay over the base engine.
#[test]
fn free_running_clients_stay_consistent() {
    let engine = || {
        let (db, keys) = two_source_customers(12, 3);
        RepairEngine::new(db, keys)
    };
    let server = start_server(engine(), |config| config.workers = 4);
    let addr = server.addr();

    let mutator = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut log = Vec::new();
        let mut inserted = Vec::new();
        for round in 0..12 {
            let fact = format!("INSERT Customer({}, 'Springfield', 'merged')", round % 5);
            let reply = client.send(&fact).expect("send");
            if reply.starts_with("OK INSERT id=") {
                inserted.push(inserted_id(&reply));
            }
            log.push((fact, reply));
            let query = format!("FREQ EXISTS s . Customer({}, 'Springfield', s)", round % 5);
            let reply = client.send(&query).expect("send");
            log.push((query, reply));
            if round % 3 == 2 {
                if let Some(id) = inserted.pop() {
                    let line = format!("DELETE {id}");
                    let reply = client.send(&line).expect("send");
                    log.push((line, reply));
                }
            }
        }
        log
    });
    let reader = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut log = Vec::new();
        for round in 0..24 {
            let id = 1000 + (round % 12);
            let line = match round % 3 {
                0 => format!("FREQ EXISTS c, a . Order({id}, c, a)"),
                1 => format!("CERTAIN EXISTS c, a . Order({id}, c, a)"),
                _ => format!("DECIDE EXISTS o, a . Order(o, {}, a)", round % 12),
            };
            let reply = client.send(&line).expect("send");
            log.push((line, reply));
        }
        log
    });
    let mutator_log = mutator.join().expect("mutator panicked");
    let reader_log = reader.join().expect("reader panicked");

    // The mutator replays exactly: it owned every mutation.
    let mut oracle = Oracle::new(engine());
    for (line, expected) in &mutator_log {
        let got = oracle.feed(line);
        assert_eq!(&got[0], expected, "mutator replay diverged on `{line}`");
    }
    // The reader's payloads (the part before provenance) are invariant.
    let mut oracle = Oracle::new(engine());
    for (line, expected) in &reader_log {
        let got = oracle.feed(line);
        let payload = |reply: &str| {
            reply
                .split(" strategy=")
                .next()
                .unwrap_or(reply)
                .to_string()
        };
        assert_eq!(
            payload(&got[0]),
            payload(expected),
            "reader payload diverged on `{line}`"
        );
    }

    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
}

/// Acceptance: a `BATCH` overload draws a `SERVER BUSY` backpressure
/// reply immediately instead of queueing without bound (or hanging).
#[test]
fn batch_overload_draws_server_busy() {
    let server = start_server(employee_engine(), |config| {
        config.batch_permits = 1;
        config.workers = 4;
    });
    let addr = server.addr();

    // Client A occupies the only batch permit for ~1.5 s.
    let occupant = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .send_batch(&["SLEEP 1500", "COUNT auto EXISTS n . Employee(2, n, 'IT')"])
            .expect("batch")
    });
    thread::sleep(Duration::from_millis(300));

    // Client B's batch is refused immediately, and the same connection
    // keeps working: plain queries bypass batch admission, and the batch
    // succeeds once the permit frees up.
    let mut probe = Client::connect(addr).expect("connect");
    let started = std::time::Instant::now();
    let refused = probe
        .send_batch(&["COUNT auto EXISTS n . Employee(2, n, 'IT')"])
        .expect("probe batch");
    assert!(
        started.elapsed() < Duration::from_millis(700),
        "backpressure must reply immediately, not queue behind the sleeper"
    );
    assert_eq!(refused.len(), 1);
    assert!(
        refused[0].starts_with("ERR BUSY SERVER BUSY"),
        "{}",
        refused[0]
    );
    let reply = probe
        .send("COUNT auto EXISTS n . Employee(2, n, 'IT')")
        .expect("plain query");
    assert!(reply.starts_with("OK COUNT 4 "), "{reply}");

    let replies = occupant.join().expect("occupant panicked");
    assert_eq!(replies[0], "OK BATCH 2");
    assert_eq!(replies[1], "OK SLEPT 1500");
    assert!(replies[2].starts_with("OK COUNT 4 "), "{}", replies[2]);

    let retried = probe
        .send_batch(&["COUNT auto EXISTS n . Employee(2, n, 'IT')"])
        .expect("retry batch");
    assert_eq!(retried[0], "OK BATCH 1");
    assert!(retried[1].starts_with("OK COUNT 4 "), "{}", retried[1]);

    server.shutdown();
    let stats = server.join();
    assert!(stats.busy_rejections >= 1);
    assert_eq!(stats.recovered_panics, 0);
}

/// Regression: fact-id exhaustion (and every other engine error) is an
/// `ERR <code> <msg>` reply that keeps the connection and the worker
/// alive — `Database::insert` used to panic, which would unwind a worker
/// mid-command.
#[test]
fn fact_id_exhaustion_is_a_reply_not_a_dead_worker() {
    let (db, keys) = employee_example();
    let engine = RepairEngine::new(db.with_fact_id_capacity(5), keys);
    let server = start_server(engine, |_| {});
    let mut client = Client::connect(server.addr()).expect("connect");

    // The base consumed ids 0..=3; one id remains.
    let reply = client.send("INSERT Employee(3, 'Ann', 'IT')").unwrap();
    assert_eq!(reply, "OK INSERT id=4 applied=1 gen=1 total=4");
    let reply = client.send("INSERT Employee(4, 'Joe', 'IT')").unwrap();
    assert!(reply.starts_with("ERR EXHAUSTED "), "{reply}");
    // The connection survives; deletes do not reclaim id space.
    let reply = client.send("DELETE 4").unwrap();
    assert!(reply.starts_with("OK DELETE id=4 "), "{reply}");
    let reply = client.send("INSERT Employee(3, 'Ann', 'IT')").unwrap();
    assert!(reply.starts_with("ERR EXHAUSTED "), "{reply}");
    // An atomic batch that would exhaust ids is rejected up front.
    let replies = client
        .send_batch(&[
            "INSERT Employee(5, 'Amy', 'IT')",
            "INSERT Employee(6, 'Max', 'IT')",
        ])
        .unwrap();
    assert_eq!(replies.len(), 1);
    assert!(replies[0].starts_with("ERR EXHAUSTED "), "{}", replies[0]);
    let reply = client.send("STATS").unwrap();
    assert!(reply.starts_with("OK STATS facts=4 ids=5 "), "{reply}");

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.recovered_panics, 0, "no worker unwound");
}

/// Acceptance: a capped session that would previously die with
/// `ERR EXHAUSTED` survives indefinitely under `--auto-compact` — the
/// scheduler compacts (an exclusive write-guard operation between
/// commands) before a mutation would run out of id headroom, and a
/// manual `COMPACT` recovers an already-exhausted session too.
#[test]
fn auto_compact_outlives_the_fact_id_cap() {
    let (db, keys) = employee_example();
    let engine = RepairEngine::new(db.with_fact_id_capacity(8), keys);
    let server = start_server(engine, |config| config.auto_compact = Some(3));
    let mut client = Client::connect(server.addr()).expect("connect");

    // 60 insert/delete cycles consume 60 fact ids against a capacity of
    // 8.  Without the policy the 5th cycle dies; with it, every reply is
    // OK and the waste gauge stays under the threshold.
    for cycle in 0..60 {
        let reply = client.send("INSERT Employee(9, 'Flux', 'Ops')").unwrap();
        assert!(reply.starts_with("OK INSERT "), "cycle {cycle}: {reply}");
        let id = inserted_id(&reply);
        let reply = client.send(&format!("DELETE {id}")).unwrap();
        assert!(reply.starts_with("OK DELETE "), "cycle {cycle}: {reply}");
    }
    let reply = client.send("STATS").unwrap();
    assert!(reply.starts_with("OK STATS facts=4 "), "{reply}");
    assert!(reply.contains(" cap=8 "), "{reply}");
    let ids: u32 = reply
        .split_whitespace()
        .find_map(|field| field.strip_prefix("ids="))
        .and_then(|v| v.parse().ok())
        .expect("STATS reports ids=");
    assert!(ids <= 8, "id consumption stays within the cap: {reply}");

    // A manual COMPACT recovers a session that already hit the wall.
    let reply = client.send("COMPACT").unwrap();
    assert!(
        reply.starts_with("OK COMPACTED facts=4 slots=2 "),
        "{reply}"
    );

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.recovered_panics, 0, "no worker unwound");
}

/// Regression: a handler panicking while holding the engine's *write*
/// lock poisons it; later guards must recover instead of wedging or
/// killing the server.  The chaos-only `PANIC` verb reproduces the old
/// `Database::insert` unwind-in-worker failure mode on demand.
#[test]
fn poisoned_lock_recovery_keeps_serving() {
    let server = start_server(employee_engine(), |config| config.chaos = true);
    let addr = server.addr();

    let mut victim = Client::connect(addr).expect("connect");
    victim.send_line("PANIC").expect("send");
    // The handler dies without a reply; the worker catches the unwind and
    // drops the connection.
    assert!(victim.read_line().is_err(), "the panicking session closes");

    // A fresh session reads and writes through the recovered lock.
    let mut client = Client::connect(addr).expect("connect");
    let reply = client.send("STATS").unwrap();
    assert!(reply.starts_with("OK STATS facts=4 "), "{reply}");
    let reply = client.send("INSERT Employee(2, 'Eve', 'Finance')").unwrap();
    assert_eq!(reply, "OK INSERT id=4 applied=1 gen=1 total=6");
    let reply = client
        .send("COUNT auto EXISTS n . Employee(2, n, 'IT')")
        .unwrap();
    assert!(reply.starts_with("OK COUNT 4 "), "{reply}");

    // The same state as a never-poisoned single-threaded session.
    let mut oracle = Oracle::new(employee_engine());
    oracle.feed("STATS");
    oracle.feed("INSERT Employee(2, 'Eve', 'Finance')");
    oracle.feed("COUNT auto EXISTS n . Employee(2, n, 'IT')");
    let expected = oracle.feed("STATS");
    assert_eq!(client.send("STATS").unwrap(), expected[0]);

    server.shutdown();
    let stats = server.join();
    assert_eq!(stats.recovered_panics, 1, "exactly the chaos panic");
}

/// `PANIC` without `--chaos` is just an unknown verb.
#[test]
fn chaos_verbs_are_gated() {
    let server = start_server(employee_engine(), |_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.send("PANIC").unwrap();
    assert!(reply.starts_with("ERR UNKNOWN "), "{reply}");
    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
}

/// Acceptance: with `--admin-token` set, `SHUTDOWN` and the chaos verbs
/// (`SLEEP`, `PANIC`) answer `ERR DENIED …` until the connection sends
/// `AUTH <token>` — and a denial is a reply, never a disconnect.
#[test]
fn admin_token_gates_shutdown_and_chaos_verbs() {
    let server = start_server(employee_engine(), |config| {
        config.chaos = true;
        config.admin_token = Some("sesame".to_string());
    });
    let mut client = Client::connect(server.addr()).expect("connect");

    for (line, verb) in [
        ("SLEEP 0", "SLEEP"),
        ("PANIC", "PANIC"),
        ("SHUTDOWN", "SHUTDOWN"),
    ] {
        let reply = client.send(line).unwrap();
        assert_eq!(
            reply,
            format!("ERR DENIED {verb} requires AUTH on this server")
        );
    }
    // The connection survives every denial, and data verbs are open.
    let reply = client
        .send("COUNT auto EXISTS n . Employee(2, n, 'IT')")
        .unwrap();
    assert!(reply.starts_with("OK COUNT 4 "), "{reply}");
    // A batch-embedded SLEEP is gated too.
    let replies = client
        .send_batch(&["COUNT auto EXISTS n . Employee(2, n, 'IT')", "SLEEP 0"])
        .unwrap();
    assert_eq!(
        replies,
        vec!["ERR DENIED SLEEP requires AUTH on this server"]
    );

    // A wrong token does not unlock; the right one does.
    assert_eq!(
        client.send("AUTH opensesame").unwrap(),
        "ERR DENIED bad admin token"
    );
    assert_eq!(
        client.send("SLEEP 0").unwrap(),
        "ERR DENIED SLEEP requires AUTH on this server"
    );
    assert_eq!(client.send("AUTH sesame").unwrap(), "OK AUTH");
    assert_eq!(client.send("SLEEP 0").unwrap(), "OK SLEPT 0");

    // AUTH is per-connection: a fresh session starts denied.
    let mut other = Client::connect(server.addr()).expect("connect");
    assert_eq!(
        other.send("SHUTDOWN").unwrap(),
        "ERR DENIED SHUTDOWN requires AUTH on this server"
    );

    assert_eq!(client.send("SHUTDOWN").unwrap(), "OK SHUTDOWN");
    let stats = server.join();
    assert_eq!(stats.recovered_panics, 0, "every denial was a reply");
}

/// `QUIT` closes one session; `SHUTDOWN` drains the whole server and
/// `join` returns its final counters.
#[test]
fn quit_and_shutdown_are_clean() {
    let server = start_server(employee_engine(), |_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.send("QUIT").unwrap(), "OK BYE");
    assert!(client.read_line().is_err(), "the session is closed");

    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.send("SHUTDOWN").unwrap(), "OK SHUTDOWN");
    let stats = server.join();
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.recovered_panics, 0);
}
