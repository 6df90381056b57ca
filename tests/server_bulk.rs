//! End-to-end tests for the binary bulk-ingest path (`BULK` frames)
//! against live servers.
//!
//! The hard invariant of the bulk-ingest PR: a frame carrying a run of
//! mutations draws replies **byte-identical** to the textual
//! `INSERT`/`DELETE` lines it replaces — ids, `applied=`, `gen=` and
//! `total=` provenance included — and leaves the engine in the same
//! state, measured through `STATS`.  The invariant must hold for every
//! backend (single engine, replicated primary), a
//! follower must refuse bulk mutations per op with `ERR READONLY`, and
//! the readiness-driven server must keep serving other connections
//! while one peer dribbles a frame in byte by byte.

use std::thread;
use std::time::{Duration, Instant};

use repair_count::prelude::*;
use repair_count::workloads::{employee_example, sensor_readings};

fn start_server(engine: RepairEngine, configure: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.poll_interval = Duration::from_millis(25);
    configure(&mut config);
    Server::start(engine, config).expect("binding an ephemeral loopback port")
}

fn employee_engine() -> RepairEngine {
    let (db, keys) = employee_example();
    RepairEngine::new(db, keys)
}

/// The mutation script both ingest paths run: inserts across two
/// departments, a delete of a fresh id, and a reinsert.
fn script() -> Vec<String> {
    let mut lines: Vec<String> = (0..12)
        .map(|i| {
            format!(
                "INSERT Employee({}, 'Bulk_{i}', '{}')",
                5 + i,
                if i % 2 == 0 { "IT" } else { "HR" }
            )
        })
        .collect();
    lines.push("DELETE 7".to_string());
    lines.push("INSERT Employee(5, 'Bulk_0', 'IT')".to_string());
    lines
}

/// Encodes the script as one frame against the served schema.
fn script_frame(db: &Database) -> (Vec<u8>, usize) {
    let ops: Vec<Mutation> = script()
        .iter()
        .map(|line| parse_mutation(line, db).expect("valid line"))
        .collect();
    (encode_bulk(db, &ops), ops.len())
}

/// Runs the script textually on one server and as a single bulk frame
/// on an identically-seeded second server, and demands byte-identical
/// replies plus byte-identical final `STATS`.
fn assert_bulk_textual_parity(mut start: impl FnMut() -> Server) {
    let textual_server = start();
    let bulk_server = start();
    let mut textual = Client::connect(textual_server.addr()).expect("connect");
    let mut bulk = Client::connect(bulk_server.addr()).expect("connect");

    let (db, keys) = employee_example();
    let _ = keys;
    let (frame, ops) = script_frame(&db);

    let textual_replies: Vec<String> = script()
        .iter()
        .map(|line| textual.send(line).expect("textual reply"))
        .collect();
    let bulk_replies = bulk.send_bulk(&frame, ops).expect("bulk replies");
    assert_eq!(bulk_replies, textual_replies, "replies diverged");
    assert!(
        bulk_replies[0].starts_with("OK INSERT id=") && bulk_replies[0].contains(" gen="),
        "provenance fields present: {}",
        bulk_replies[0]
    );

    // Same engine state afterwards, including the repair-count gauges.
    let textual_stats = textual.send("STATS").expect("STATS");
    let bulk_stats = bulk.send("STATS").expect("STATS");
    assert_eq!(bulk_stats, textual_stats, "final STATS diverged");
    let query = "COUNT auto EXISTS n . Employee(2, n, 'IT')";
    assert_eq!(
        bulk.send(query).expect("COUNT"),
        textual.send(query).expect("COUNT"),
        "post-ingest query provenance diverged"
    );

    for server in [textual_server, bulk_server] {
        server.shutdown();
        assert_eq!(server.join().recovered_panics, 0);
    }
}

#[test]
fn bulk_matches_textual_on_the_single_engine() {
    assert_bulk_textual_parity(|| start_server(employee_engine(), |_| {}));
}

#[test]
fn bulk_matches_textual_on_a_replicated_primary() {
    let dir_for = |tag: &str| {
        let dir =
            std::env::temp_dir().join(format!("cdr-bulk-replog-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    let textual_dir = dir_for("textual");
    let bulk_dir = dir_for("bulk");
    {
        let dirs = [textual_dir.clone(), bulk_dir.clone()];
        let mut dirs = dirs.into_iter();
        assert_bulk_textual_parity(move || {
            let dir = dirs.next().expect("two servers per parity check");
            let backend = ReplicatedBackend::primary(employee_engine(), &dir)
                .expect("a fresh log directory always opens");
            let mut config = ServerConfig::bind("127.0.0.1:0");
            config.poll_interval = Duration::from_millis(25);
            Server::start_replicated(backend, config).expect("bind")
        });
    }
    let _ = std::fs::remove_dir_all(textual_dir);
    let _ = std::fs::remove_dir_all(bulk_dir);
}

/// A follower refuses bulk mutations the same way it refuses textual
/// ones: one `ERR READONLY …` reply per op, connection intact.
#[test]
fn a_follower_refuses_bulk_frames_per_op() {
    let dir = std::env::temp_dir().join(format!("cdr-bulk-follower-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backend = ReplicatedBackend::primary(employee_engine(), &dir).expect("fresh log directory");
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.poll_interval = Duration::from_millis(25);
    let primary = Server::start_replicated(backend, config).expect("bind");

    let upstream = primary.addr().to_string();
    let follower_backend =
        ReplicatedBackend::follower(&upstream, None, |engine| engine).expect("bootstrap");
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.poll_interval = Duration::from_millis(25);
    let follower = Server::start_replicated(follower_backend, config).expect("bind");

    let (db, _) = employee_example();
    let (frame, ops) = script_frame(&db);
    let mut client = Client::connect(follower.addr()).expect("connect");
    let replies = client.send_bulk(&frame, ops).expect("refusals");
    assert_eq!(replies.len(), ops, "one refusal per op");
    for reply in &replies {
        assert!(reply.starts_with("ERR READONLY "), "{reply}");
    }
    // The refused frame changed nothing and the session is in line mode.
    let stats = client.send("STATS").expect("STATS");
    assert!(stats.starts_with("OK STATS facts=4 "), "{stats}");

    follower.shutdown();
    assert_eq!(follower.join().recovered_panics, 0);
    primary.shutdown();
    assert_eq!(primary.join().recovered_panics, 0);
    let _ = std::fs::remove_dir_all(dir);
}

/// An oversize `BULK` length prefix is refused before any body byte is
/// read or any buffer is sized to it, and the line protocol resumes.
#[test]
fn an_oversize_frame_header_is_refused_up_front() {
    let server = start_server(employee_engine(), |config| {
        config.max_frame_bytes = 1024;
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.send("BULK 1025").expect("refusal");
    assert!(reply.starts_with("ERR FRAME "), "{reply}");
    // No body was ever expected: the next line is a command again.
    let stats = client.send("STATS").expect("STATS");
    assert!(stats.starts_with("OK STATS facts=4 "), "{stats}");
    // A frame at exactly the cap is accepted.
    let (db, _) = employee_example();
    let ops = vec![parse_mutation("INSERT Employee(9, 'Cap', 'IT')", &db).expect("valid")];
    let frame = encode_bulk(&db, &ops);
    assert!(frame.len() <= 1024, "test frame fits the cap");
    let replies = client.send_bulk(&frame, ops.len()).expect("bulk");
    assert!(replies[0].starts_with("OK INSERT id="), "{}", replies[0]);
    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
}

/// The readiness-driven core: a peer that dribbles a large frame in
/// byte by byte must not stall anyone — even with a single worker, a
/// concurrent connection's `STATS` round-trips while the slow frame is
/// still arriving, because an incomplete frame never occupies a worker.
#[test]
fn a_mid_frame_slow_writer_does_not_stall_other_connections() {
    let (db, keys) = sensor_readings(4, 3, 2);
    let server = start_server(RepairEngine::new(db.clone(), keys), |config| {
        config.workers = 1;
    });
    let addr = server.addr();

    let ops: Vec<Mutation> = (0..64)
        .map(|i| {
            parse_mutation(
                &format!("INSERT Reading({}, {}, {})", i % 4, i % 3, 5000 + i),
                &db,
            )
            .expect("valid line")
        })
        .collect();
    let frame = encode_bulk(&db, &ops);
    let header = format!("BULK {}\n", frame.len());

    let mut slow = Client::connect(addr).expect("connect");
    slow.send_raw(header.as_bytes()).expect("header");

    // Dribble the first half of the frame one byte at a time while a
    // second connection keeps querying.  The slow frame is incomplete
    // the whole time, so the single worker stays free for the probe.
    let half = frame.len() / 2;
    let dribbler = thread::spawn(move || {
        for byte in &frame[..half] {
            slow.send_raw(std::slice::from_ref(byte)).expect("dribble");
            thread::sleep(Duration::from_millis(1));
        }
        (slow, frame)
    });

    let mut probe = Client::connect(addr).expect("connect");
    let mut slowest = Duration::ZERO;
    for _ in 0..10 {
        let started = Instant::now();
        let reply = probe.send("STATS").expect("probe STATS");
        slowest = slowest.max(started.elapsed());
        assert!(reply.starts_with("OK STATS "), "{reply}");
        thread::sleep(Duration::from_millis(3));
    }
    assert!(
        slowest < Duration::from_secs(5),
        "probe STATS stalled behind a half-received frame: {slowest:?}"
    );

    // The dribbled frame completes and executes normally afterwards.
    let (mut slow, frame) = dribbler.join().expect("dribbler panicked");
    slow.send_raw(&frame[half..]).expect("rest of the frame");
    for _ in 0..ops.len() {
        let reply = slow.read_line().expect("op reply");
        assert!(reply.starts_with("OK INSERT id="), "{reply}");
    }

    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
}
