//! Protocol robustness: arbitrary byte lines — garbage verbs, overlong
//! lines, partial writes, abrupt disconnects, interleaved mutations from
//! two clients — must never panic a server thread, and after any session
//! the served engine must be bit-for-bit equal to a fresh engine built on
//! the final fact set (the `engine_mutation_parity` harness's criterion,
//! checked here through the wire).  Each generated case also picks the
//! backend — the classic `RwLock<RepairEngine>` or a replicated primary
//! logging to disk — since hostile input must not care what engine is
//! behind the socket.  The replicated cases additionally boot a follower afterwards
//! and demand catch-up plus gauge parity, and every case now mixes
//! garbage `REPL` frames into the hostile stream.
//!
//! Binary `BULK` frames joined the chaos with the bulk-ingest PR: valid
//! frames must answer exactly like their textual lines, while flipped
//! payload bytes, flipped checksums, truncated structures, unknown
//! versions, out-of-range symbol indexes and oversize length prefixes
//! must each draw one deterministic `ERR FRAME …` line, execute
//! nothing, and leave the connection in line mode — and a peer that
//! vanishes mid-frame must not disturb anyone else.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use repair_count::db::snapshot::crc32;
use repair_count::db::{count_repairs, BlockPartition};
use repair_count::prelude::*;
use repair_count::workloads::sensor_readings;

fn fuzz_config() -> ServerConfig {
    let mut config = ServerConfig::bind("127.0.0.1:0");
    config.poll_interval = Duration::from_millis(25);
    config.max_line_bytes = 512;
    config
}

fn start_server(engine: RepairEngine, chaos_free_config: impl FnOnce(&mut ServerConfig)) -> Server {
    let mut config = fuzz_config();
    chaos_free_config(&mut config);
    Server::start(engine, config).expect("binding an ephemeral loopback port")
}

static REPLOG_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A fresh, empty directory for one replicated-primary case's log.
fn temp_log_dir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cdr-fuzz-replog-{}-{}",
        std::process::id(),
        REPLOG_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `mode == 0` serves the classic `RwLock<RepairEngine>` backend, and
/// mode 1 a replicated primary appending to an on-disk command log (the
/// second return is the log directory to clean up).  The fuzz property
/// runs against both — hostile bytes must not care which engine is
/// behind the socket, and the parity criterion is backend-independent.
fn start_fuzz_server(
    db: Database,
    keys: KeySet,
    mode: usize,
) -> (Server, Option<std::path::PathBuf>) {
    if mode == 0 {
        (start_server(RepairEngine::new(db, keys), |_| {}), None)
    } else {
        let dir = temp_log_dir();
        let backend = ReplicatedBackend::primary(RepairEngine::new(db, keys), &dir)
            .expect("a fresh log directory always opens");
        let server = Server::start_replicated(backend, fuzz_config())
            .expect("binding an ephemeral loopback port");
        (server, Some(dir))
    }
}

/// Reads the raw body an `OK REPL BATCH` or `OK REPL SNAPSHOT BIN`
/// header announces, so the connection never desyncs.
fn drain_repl_reply(client: &mut Client, header: &str) {
    if let Some(rest) = header.strip_prefix("OK REPL BATCH ") {
        let len = rest
            .split_whitespace()
            .next()
            .and_then(|token| token.parse::<usize>().ok())
            .expect("BATCH headers announce their frame length");
        client.read_exact(len).expect("announced batch frame");
        return;
    }
    if header.starts_with("OK REPL SNAPSHOT BIN ") {
        let bytes = stat_field(header, "bytes=").expect("snapshot bytes");
        let chunks = stat_field(header, "chunks=").expect("snapshot chunks");
        client
            .read_exact(bytes as usize + 8 * chunks as usize)
            .expect("announced snapshot chunks");
    }
}

fn base() -> (Database, KeySet) {
    sensor_readings(4, 3, 2)
}

/// Rebuilds the state a cold restart would load: exactly the live facts,
/// in id order (the `engine_mutation_parity` notion of the "final fact
/// set").
fn fresh_engine(live: &BTreeMap<usize, String>) -> RepairEngine {
    let (db, keys) = base();
    let mut facts: Vec<Fact> = Vec::new();
    for text in live.values() {
        facts.push(db.parse_fact(text).expect("tracked facts are valid"));
    }
    let mut rebuilt = Database::new(db.schema().clone());
    for fact in facts {
        rebuilt.insert(fact).expect("tracked facts are valid");
    }
    RepairEngine::new(rebuilt, keys)
}

/// The parity criterion: totals and exact counts of the served engine
/// (observed through the wire) equal a fresh engine on the live facts.
fn assert_served_parity(client: &mut Client, live: &BTreeMap<usize, String>) {
    let fresh = fresh_engine(live);
    let stats = client.send("STATS").expect("STATS");
    let expected = format!("OK STATS facts={} ids=", fresh.database().len());
    assert!(stats.starts_with(&expected), "{stats} vs {expected}");
    let total = format!(" total={} gen=", fresh.total_repairs());
    assert!(stats.contains(&total), "{stats} vs {total}");
    let recomputed = count_repairs(&BlockPartition::new(fresh.database(), fresh.keys()));
    assert_eq!(*fresh.total_repairs(), recomputed);
    for (sensor, tick) in [(0, 0), (1, 2), (3, 1)] {
        let query = format!("EXISTS v . Reading({sensor}, {tick}, v)");
        let reply = client.send(&format!("COUNT auto {query}")).expect("COUNT");
        let request = CountRequest::exact(parse_query(&query).unwrap());
        let count = fresh
            .run(&request)
            .unwrap()
            .answer
            .as_count()
            .unwrap()
            .clone();
        let expected = format!("OK COUNT {count} ");
        assert!(reply.starts_with(&expected), "{reply} vs {expected}");
    }
}

/// Wraps a raw payload in a fresh, *correct* checksum — for frame cases
/// where the payload itself carries the defect under test.
fn reframe(payload: &[u8]) -> Vec<u8> {
    let mut frame = crc32(payload).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    frame
}

/// One xorshift step: the deterministic chaos source for a case.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Property: any interleaving of valid mutations, valid queries and
    /// hostile garbage from two concurrent client connections leaves the
    /// server alive (every line answered, no worker panics) and the
    /// engine in parity with a fresh engine on the final fact set.
    #[test]
    fn arbitrary_lines_never_panic_the_server(
        seed in 0u64..300,
        steps in 20usize..48,
        mode in 0usize..2,
    ) {
        let (db, keys) = base();
        // Track live facts by id: the base assigned 0..n in insertion order.
        let mut live: BTreeMap<usize, String> = db
            .iter()
            .map(|(id, fact)| (id.index(), fact.display(db.schema()).to_string()))
            .collect();
        let mut next_id = live.len();
        // The schema view the bulk-frame arms encode against.
        let codec_db = db.clone();

        let (server, log_dir) = start_fuzz_server(db, keys, mode);
        let mut clients = [
            Client::connect(server.addr()).expect("connect"),
            Client::connect(server.addr()).expect("connect"),
        ];
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
        for step in 0..steps {
            let who = (next(&mut state) >> 7) as usize % 2;
            let client = &mut clients[who];
            match next(&mut state) % 12 {
                // Fresh insert (values disjoint from the base generator).
                0 | 1 => {
                    let sensor = next(&mut state) % 4;
                    let tick = next(&mut state) % 3;
                    let value = 1000 + step;
                    let line = format!("INSERT Reading({sensor}, {tick}, {value})");
                    let reply = client.send(&line).expect("insert reply");
                    prop_assert!(reply.starts_with("OK INSERT id="), "{}", reply);
                    live.insert(next_id, format!("Reading({sensor}, {tick}, {value})"));
                    next_id += 1;
                }
                // Delete a live fact (or draw MISSING on an exhausted id).
                2 => {
                    let target = live
                        .keys()
                        .nth(next(&mut state) as usize % live.len().max(1))
                        .copied();
                    if let Some(id) = target {
                        let reply = client.send(&format!("DELETE {id}")).expect("delete reply");
                        prop_assert!(reply.starts_with("OK DELETE id="), "{}", reply);
                        live.remove(&id);
                    }
                }
                // Valid queries.
                3 => {
                    let sensor = next(&mut state) % 4;
                    let tick = next(&mut state) % 3;
                    let reply = client
                        .send(&format!("COUNT auto EXISTS v . Reading({sensor}, {tick}, v)"))
                        .expect("count reply");
                    prop_assert!(reply.starts_with("OK COUNT "), "{}", reply);
                }
                4 => {
                    let sensor = next(&mut state) % 4;
                    let reply = client
                        .send(&format!("CERTAIN EXISTS t, v . Reading({sensor}, t, v)"))
                        .expect("certain reply");
                    prop_assert!(reply.starts_with("OK CERTAIN "), "{}", reply);
                }
                // Garbage bytes (newline-free, then terminated): comments
                // and blank lines are silently skipped by design, anything
                // else draws one reply — either way the session survives,
                // which the `OK SLEPT 0` marker probe proves.
                5 => {
                    let len = 1 + next(&mut state) as usize % 40;
                    let junk: Vec<u8> = (0..len)
                        .map(|_| {
                            let b = (next(&mut state) % 255) as u8 + 1;
                            if b == b'\n' || b == b'\r' { b'?' } else { b }
                        })
                        .collect();
                    client.send_raw(&junk).expect("send junk");
                    client.send_raw(b"\nSLEEP 0\n").expect("terminate junk");
                    let mut lines = 0;
                    loop {
                        let reply = client.read_line().expect("session stays alive");
                        lines += 1;
                        prop_assert!(lines <= 2, "junk drew more than one reply");
                        if reply == "OK SLEPT 0" {
                            break;
                        }
                    }
                }
                // An overlong line: discarded, answered, session continues.
                6 => {
                    let line = format!("INSERT Reading(0, 0, {})", "9".repeat(600));
                    let reply = client.send(&line).expect("overlong reply");
                    prop_assert!(reply.starts_with("ERR LINE "), "{}", reply);
                }
                // A partial write split across flushes, completed later.
                7 => {
                    client.send_raw(b"STA").expect("partial write");
                    std::thread::sleep(Duration::from_millis(2));
                    client.send_raw(b"TS\n").expect("completion");
                    let reply = client.read_line().expect("reassembled line");
                    prop_assert!(reply.starts_with("OK STATS "), "{}", reply);
                }
                // Garbage / partial REPL frames: forged feed lines, bad
                // cursors, truncated subcommands, forms missing `BIN`.
                // Non-replicated backends refuse the verb, a replicated
                // primary answers in protocol — nobody panics, and raw
                // reply bodies are drained so the session never desyncs.
                8 => {
                    let garbage = [
                        "REPL",
                        "REPL FETCH",
                        "REPL FETCH -1 nope",
                        "REPL FETCH 18446744073709551615 2",
                        "REPL RECORD deadbeef",
                        "REPL CHUNK zz!!",
                        "REPL NONSENSE 1 2 3",
                        "REPL HELLO",
                        "REPL FETCH 0 3",
                        "REPL FETCH 0 3 BIN",
                        "REPL FETCH 0 3 NOPE",
                        "REPL SNAPSHOT BIN",
                        "REPL SNAPSHOT NOPE",
                    ];
                    let line = garbage[next(&mut state) as usize % garbage.len()];
                    let reply = client.send(line).expect("repl reply");
                    prop_assert!(
                        reply.starts_with("OK REPL ") || reply.starts_with("ERR REPL "),
                        "{}",
                        reply
                    );
                    drain_repl_reply(client, &reply);
                }
                // A valid binary bulk frame: two fresh inserts, answered
                // with the same `OK INSERT id=…` lines the textual path
                // would have produced.
                9 => {
                    let lines: Vec<String> = (0..2usize)
                        .map(|k| {
                            let sensor = next(&mut state) % 4;
                            let tick = next(&mut state) % 3;
                            let value = 2000 + step * 2 + k;
                            format!("INSERT Reading({sensor}, {tick}, {value})")
                        })
                        .collect();
                    let ops: Vec<Mutation> = lines
                        .iter()
                        .map(|line| parse_mutation(line, &codec_db).expect("valid line"))
                        .collect();
                    let frame = encode_bulk(&codec_db, &ops);
                    let replies = client.send_bulk(&frame, ops.len()).expect("bulk replies");
                    prop_assert_eq!(replies.len(), lines.len());
                    for reply in &replies {
                        prop_assert!(reply.starts_with("OK INSERT id="), "{}", reply);
                    }
                    for line in &lines {
                        let fact = line.strip_prefix("INSERT ").unwrap().to_string();
                        live.insert(next_id, fact);
                        next_id += 1;
                    }
                }
                // A defective bulk frame: flipped payload byte, flipped
                // checksum byte, truncated structure, unknown version, or
                // an out-of-range symbol index.  Exactly one `ERR FRAME`
                // line, nothing executes, the session stays in line mode.
                10 => {
                    let ops =
                        vec![parse_mutation("INSERT Reading(0, 0, 9999)", &codec_db)
                            .expect("valid line")];
                    let frame = match next(&mut state) % 5 {
                        0 => {
                            let mut frame = encode_bulk(&codec_db, &ops);
                            let last = frame.len() - 1;
                            frame[last] ^= 0x20;
                            frame
                        }
                        1 => {
                            let mut frame = encode_bulk(&codec_db, &ops);
                            frame[2] ^= 0x01;
                            frame
                        }
                        2 => {
                            // Cut the payload short and re-checksum, so the
                            // truncated structure itself is at fault.
                            let whole = encode_bulk(&codec_db, &ops);
                            let keep = 5 + next(&mut state) as usize % (whole.len() - 6);
                            reframe(&whole[4..keep])
                        }
                        3 => {
                            // Version byte from the future, re-checksummed.
                            let whole = encode_bulk(&codec_db, &ops);
                            let mut payload = whole[4..].to_vec();
                            payload[0] = 99;
                            reframe(&payload)
                        }
                        _ => {
                            // Symbol index 7 against an empty dictionary,
                            // hand-assembled (every varint fits one byte).
                            reframe(&[1, 0, 1, 0, 0, 1, 7])
                        }
                    };
                    let replies = client.send_bulk(&frame, ops.len()).expect("frame reply");
                    prop_assert_eq!(replies.len(), 1);
                    prop_assert!(replies[0].starts_with("ERR FRAME "), "{}", replies[0]);
                    let probe = client.send("SLEEP 0").expect("session survives");
                    prop_assert_eq!(probe.as_str(), "OK SLEPT 0");
                }
                // An oversize length prefix: refused before any body byte
                // is read (none is ever sent), line mode resumes at once.
                _ => {
                    let reply = client.send("BULK 536870912").expect("oversize header reply");
                    prop_assert!(reply.starts_with("ERR FRAME "), "{}", reply);
                    let stats = client.send("STATS").expect("line mode resumed");
                    prop_assert!(stats.starts_with("OK STATS "), "{}", stats);
                }
            }
        }

        // An abrupt mid-line disconnect must not disturb the others.
        let mut rude = Client::connect(server.addr()).expect("connect");
        rude.send_raw(b"INSERT Reading(0, 0, 55").expect("half a line");
        drop(rude);
        // Nor a peer that promises a 64-byte frame, ships 10 and vanishes.
        let mut rude = Client::connect(server.addr()).expect("connect");
        rude.send_raw(b"BULK 64\n0123456789").expect("partial frame");
        drop(rude);

        assert_served_parity(&mut clients[0], &live);
        assert_served_parity(&mut clients[1], &live);

        // A replicated primary that survived the hostile stream must
        // still be tailable: boot a follower, wait for catch-up, and
        // demand gauge parity plus the read-only refusal.
        if mode == 1 {
            let upstream = server.addr().to_string();
            let follower_backend = ReplicatedBackend::follower(&upstream, None, |engine| engine)
                .expect("bootstrapping from a live primary");
            let follower =
                Server::start_replicated(follower_backend, fuzz_config()).expect("ephemeral port");
            let mut primary_client = Client::connect(server.addr()).expect("connect");
            let primary_stats = primary_client.send("STATS").expect("primary STATS");
            let target = stat_field(&primary_stats, "end=").expect("repl gauge");
            let mut follower_client = Client::connect(follower.addr()).expect("connect");
            let deadline = Instant::now() + Duration::from_secs(10);
            let follower_stats = loop {
                let reply = follower_client.send("STATS").expect("follower STATS");
                if stat_field(&reply, "end=").is_some_and(|end| end >= target) {
                    break reply;
                }
                prop_assert!(Instant::now() < deadline, "follower never caught up: {}", reply);
                std::thread::sleep(Duration::from_millis(10));
            };
            prop_assert_eq!(
                primary_stats.split(" | ").next(),
                follower_stats.split(" | ").next(),
                "gauge heads diverge"
            );
            let refused = follower_client
                .send("INSERT Reading(0, 0, 424242)")
                .expect("refusal reply");
            prop_assert!(refused.starts_with("ERR READONLY "), "{}", refused);
            follower.shutdown();
            prop_assert_eq!(follower.join().recovered_panics, 0, "follower never panicked");
        }

        server.shutdown();
        let stats = server.join();
        prop_assert_eq!(stats.recovered_panics, 0, "no worker ever panicked");
        if let Some(dir) = log_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// `key=value` extraction from a `STATS` reply.
fn stat_field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
}

/// Deterministic edge cases that deserve names of their own.
#[test]
fn overlong_line_then_valid_command() {
    let (db, keys) = base();
    let server = start_server(RepairEngine::new(db, keys), |_| {});
    let mut client = Client::connect(server.addr()).expect("connect");
    let mut junk = vec![b'x'; 2000];
    junk.push(b'\n');
    client.send_raw(&junk).expect("oversized line");
    let reply = client.read_line().expect("reply");
    assert!(reply.starts_with("ERR LINE "), "{reply}");
    let reply = client.send("STATS").expect("next command");
    assert!(reply.starts_with("OK STATS "), "{reply}");
    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
}

#[test]
fn abrupt_disconnect_mid_batch_leaves_engine_untouched() {
    let (db, keys) = base();
    let total = RepairEngine::new(db.clone(), keys.clone())
        .total_repairs()
        .clone();
    let server = start_server(RepairEngine::new(db, keys), |_| {});
    let mut rude = Client::connect(server.addr()).expect("connect");
    rude.send_line("BATCH").expect("open a batch");
    rude.send_line("INSERT Reading(0, 0, 777)")
        .expect("queue a mutation");
    drop(rude); // vanish without END
    let mut client = Client::connect(server.addr()).expect("connect");
    let reply = client.send("STATS").expect("STATS");
    assert!(
        reply.contains(&format!(" total={total} gen=0 ")),
        "an unterminated batch applied nothing: {reply}"
    );
    server.shutdown();
    assert_eq!(server.join().recovered_panics, 0);
}

/// A scripted hostile upstream for the replication feed: it handshakes
/// like a primary, then serves one defective `REPL FETCH … BIN` reply
/// per connection — a flipped payload byte, a flipped checksum byte, a
/// mid-frame disconnect after half the promised bytes, an oversize
/// `BATCH <len>` header, and a frame whose header lies about the record
/// count.  The tailer must degrade to
/// idle-and-retry on every one of them: one retry counted per defect,
/// zero records applied, no panic — and it recovers fully once
/// retargeted back at the real primary.
#[test]
fn a_hostile_binary_upstream_never_panics_the_tailer() {
    use repair_count::counting::replog::encode_record_batch;
    use std::io::{BufRead, BufReader, Write};

    let (db, keys) = base();
    let dir = temp_log_dir();
    let backend = ReplicatedBackend::primary(RepairEngine::new(db, keys), &dir).expect("primary");
    let primary = Server::start_replicated(backend, fuzz_config()).expect("bind primary");
    let mut client = Client::connect(primary.addr()).expect("connect primary");
    for value in 3000..3003 {
        let reply = client
            .send(&format!("INSERT Reading(0, 0, {value})"))
            .expect("insert");
        assert!(reply.starts_with("OK INSERT "), "{reply}");
    }
    let follower_backend =
        ReplicatedBackend::follower(&primary.addr().to_string(), None, |engine| engine)
            .expect("bootstrap");

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake upstream");
    let fake_addr = listener.local_addr().expect("fake addr").to_string();
    const DEFECTS: u64 = 5;
    let hostile = std::thread::spawn(move || {
        for defect in 0..DEFECTS {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).unwrap_or(0) == 0 {
                    break; // the tailer dropped the defective feed
                }
                if line.starts_with("REPL HELLO") {
                    stream
                        .write_all(
                            b"OK REPL HELLO epoch=0 base=0 end=9 snap=0 role=primary \
                              compact=off\n",
                        )
                        .ok();
                } else if line.starts_with("REPL FETCH") {
                    let frame =
                        encode_record_batch(&[b"not-a-record".to_vec(), b"also-not".to_vec()]);
                    match defect {
                        0 => {
                            // Flipped payload byte: the checksum catches it.
                            let mut bad = frame.clone();
                            let last = bad.len() - 1;
                            bad[last] ^= 0x40;
                            let header = format!("OK REPL BATCH {} n=2 next=5 end=9\n", bad.len());
                            stream.write_all(header.as_bytes()).ok();
                            stream.write_all(&bad).ok();
                        }
                        1 => {
                            // Flipped checksum byte over an intact payload.
                            let mut bad = frame.clone();
                            bad[0] ^= 0x01;
                            let header = format!("OK REPL BATCH {} n=2 next=5 end=9\n", bad.len());
                            stream.write_all(header.as_bytes()).ok();
                            stream.write_all(&bad).ok();
                        }
                        2 => {
                            // Promise the frame, ship half of it, vanish.
                            let header =
                                format!("OK REPL BATCH {} n=2 next=5 end=9\n", frame.len());
                            stream.write_all(header.as_bytes()).ok();
                            stream.write_all(&frame[..frame.len() / 2]).ok();
                            break;
                        }
                        3 => {
                            // A 64 GiB length header: refused unread.
                            stream
                                .write_all(b"OK REPL BATCH 68719476736 n=1 next=5 end=9\n")
                                .ok();
                        }
                        _ => {
                            // The frame decodes but the header lies: n=3
                            // against a 2-record batch.
                            let header =
                                format!("OK REPL BATCH {} n=3 next=5 end=9\n", frame.len());
                            stream.write_all(header.as_bytes()).ok();
                            stream.write_all(&frame).ok();
                        }
                    }
                } else {
                    break;
                }
            }
        }
    });

    let mut config = fuzz_config();
    config.poll_interval = Duration::from_millis(10);
    let follower = Server::start_replicated(follower_backend, config).expect("bind follower");
    let mut reader = Client::connect(follower.addr()).expect("connect follower");
    // Let the tailer finish catching up over the real primary's warm
    // bootstrap connection before the feed turns hostile, so the
    // baseline below is the settled cursor.
    let settled = stat_field(&client.send("STATS").expect("STATS"), "end=").expect("end gauge");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = reader.send("STATS").expect("STATS");
        if stat_field(&stats, "end=").is_some_and(|end| end >= settled) {
            break;
        }
        assert!(Instant::now() < deadline, "never caught up: {stats}");
        std::thread::sleep(Duration::from_millis(10));
    }
    let baseline = settled;
    assert_eq!(
        reader
            .send(&format!("RETARGET {fake_addr}"))
            .expect("RETARGET"),
        format!("OK RETARGET {fake_addr}")
    );

    // Every defect costs exactly one retry and nothing else: the cursor
    // never moves, the role never flips, no worker panics.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = reader.send("STATS").expect("STATS");
        if stat_field(&stats, "retries=").is_some_and(|retries| retries >= DEFECTS) {
            assert_eq!(
                stat_field(&stats, "end="),
                Some(baseline),
                "defective batches applied nothing: {stats}"
            );
            assert!(stats.contains("role=follower"), "{stats}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "tailer never counted the defects: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    hostile.join().expect("hostile upstream thread exits");

    // Retargeted at the real primary, the degraded tailer recovers and
    // keeps tailing, counting the wire bytes it fetches.
    let real_addr = primary.addr().to_string();
    assert_eq!(
        reader
            .send(&format!("RETARGET {real_addr}"))
            .expect("RETARGET"),
        format!("OK RETARGET {real_addr}")
    );
    let reply = client.send("INSERT Reading(1, 1, 3100)").expect("insert");
    assert!(reply.starts_with("OK INSERT "), "{reply}");
    let target = stat_field(&client.send("STATS").expect("STATS"), "end=").expect("end gauge");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = reader.send("STATS").expect("STATS");
        if stat_field(&stats, "end=").is_some_and(|end| end >= target) {
            assert!(
                stat_field(&stats, "bytes=").is_some_and(|b| b > 0),
                "{stats}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "follower never recovered: {stats}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    follower.shutdown();
    assert_eq!(
        follower.join().recovered_panics,
        0,
        "the tailer never panicked"
    );
    primary.shutdown();
    assert_eq!(primary.join().recovered_panics, 0);
    let _ = std::fs::remove_dir_all(dir);
}

/// A hostile upstream whose snapshot header promises `bytes=10` over
/// `chunks=3`, then streams 8-byte chunks: the follower must refuse at
/// the chunk that overruns `bytes=`, naming the overrun, rather than
/// read every promised chunk first — a header with `chunks=1000000`
/// must buy no buffering.
#[test]
fn a_snapshot_overrunning_its_header_is_refused_at_the_first_extra_chunk() {
    use repair_count::counting::replog::frame;
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake upstream");
    let fake_addr = listener.local_addr().expect("fake addr").to_string();
    let hostile = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("the follower dials in");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap_or(0) > 0 {
            if line.starts_with("REPL HELLO") {
                stream
                    .write_all(
                        b"OK REPL HELLO epoch=0 base=0 end=0 snap=0 role=primary compact=off\n",
                    )
                    .ok();
            } else if line.starts_with("REPL SNAPSHOT") {
                stream
                    .write_all(b"OK REPL SNAPSHOT BIN epoch=0 offset=0 bytes=10 chunks=3\n")
                    .ok();
                stream.write_all(&frame(&[0xAB; 8])).ok();
                stream.write_all(&frame(&[0xCD; 8])).ok();
                return; // close without the third chunk
            }
            line.clear();
        }
    });

    let refused = ReplicatedBackend::follower(&fake_addr, None, |engine| engine).err();
    hostile.join().expect("hostile upstream thread exits");
    match refused {
        Some(ReplogError::Diverged(why)) => assert_eq!(
            why,
            "snapshot chunk of 8 bytes overruns bytes=10 after 8 bytes"
        ),
        other => panic!("expected the named overrun, got {other:?}"),
    }
}
