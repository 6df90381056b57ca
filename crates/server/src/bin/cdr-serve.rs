//! `cdr-serve`: boot a repair-counting line-protocol server.
//!
//! ```text
//! cdr-serve --addr 127.0.0.1:7878 --scenario sensors --sensors 8 --ticks 4
//! ```
//!
//! The server answers the `cdr_core::wire` grammar plus the serving-layer
//! verbs (`BATCH … END`, `STATS`, `SLEEP`, `QUIT`, `SHUTDOWN`); see the
//! README's Serving section for a transcript.  It prints one
//! `listening on <addr>` line once ready and exits 0 after a clean
//! shutdown (a client's `SHUTDOWN` command or SIGTERM-less drain).

use std::process::exit;

use cdr_core::RepairEngine;
use cdr_repairdb::{Database, KeySet, Schema};
use cdr_server::{ReplicatedBackend, Server, ServerConfig};
use cdr_workloads::{
    churn_base, employee_example, sensor_readings, serving_session, two_source_customers,
};

const USAGE: &str = "\
cdr-serve — line-protocol repair-counting server

USAGE:
  cdr-serve [OPTIONS]

SERVER OPTIONS:
  --addr <host:port>      bind address (default 127.0.0.1:7878; port 0 = ephemeral)
  --workers <n>           connection worker pool size (default 4)
  --backlog <n>           bounded accept backlog before SERVER BUSY (default 16)
  --batch-permits <n>     concurrent BATCH fan-outs before SERVER BUSY (default 2)
  --max-line-bytes <n>    longest accepted command line (default 65536)
  --max-batch <n>         most commands per BATCH (default 4096)
  --auto-compact <waste>  compact before a mutating command once tombstones
                          + retired block slots reach <waste> (or the
                          fact-id space is exhausted); off by default
  --admin-token <tok>     gate SHUTDOWN, PROMOTE, RETARGET and the chaos
                          verbs behind `AUTH <tok>` (default: open,
                          legacy behaviour)
  --rate-limit <n>        per-connection token bucket: at most <n> commands
                          per second (burst <n>); throttled lines answer
                          exactly `ERR BUSY RATE LIMITED` (off by default)
  --chaos                 enable the PANIC test verb (never in production)

REPLICATION OPTIONS:
  --log-dir <dir>         serve as a replicated primary: append every
                          mutating verb to <dir>/log.bin before applying,
                          snapshot to <dir>/snapshot.bin at every
                          compaction; on restart, recover from the
                          snapshot plus the log suffix
  --follow <host:port>    serve as a follower: bootstrap from the
                          primary's binary snapshot, tail its binary
                          record batches, and answer reads
                          byte-identically; mutations answer
                          `ERR READONLY …` until PROMOTE; RETARGET
                          repoints the tailer at a newly promoted primary
  --fetch-batch <n>       records per tailer FETCH round trip
                          (default 64, capped at 256)

ENGINE OPTIONS:
  --parallelism <n>       BATCH query fan-out threads (default 1)
  --cache-cap <n>         plan-cache capacity (default 1024)
  --budget <n>            default exact-counting budget
  --fact-id-cap <n>       cap on cumulative inserts (memory guardrail)

DATA OPTIONS:
  --scenario <name>       employee | sensors | customers | serving | churn |
                          empty (default sensors)
  --sensors <n>           sensors for sensors/serving (default 8)
  --ticks <n>             ticks for sensors/serving (default 4)
  --dups <n>              duplicated readings per sensor (default 2)
  --customers <n>         customers for customers (default 50)
  --conflict-every <n>    conflict period for customers (default 4)
  --relation <R/arity/kw> add a relation to the empty scenario (repeatable)
";

fn fail(message: &str) -> ! {
    eprintln!("cdr-serve: {message}");
    eprintln!("{USAGE}");
    exit(2)
}

struct Options {
    config: ServerConfig,
    log_dir: Option<String>,
    follow: Option<String>,
    fetch_batch: u64,
    parallelism: usize,
    cache_cap: Option<usize>,
    budget: Option<u64>,
    fact_id_cap: Option<u32>,
    scenario: String,
    sensors: usize,
    ticks: usize,
    dups: usize,
    customers: usize,
    conflict_every: usize,
    relations: Vec<String>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            config: ServerConfig::bind("127.0.0.1:7878"),
            log_dir: None,
            follow: None,
            fetch_batch: 64,
            parallelism: 1,
            cache_cap: None,
            budget: None,
            fact_id_cap: None,
            scenario: "sensors".to_string(),
            sensors: 8,
            ticks: 4,
            dups: 2,
            customers: 50,
            conflict_every: 4,
            relations: Vec::new(),
        }
    }
}

fn parse_options() -> Options {
    let mut options = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next()
                .unwrap_or_else(|| fail(&format!("{flag} needs a {what}")))
        };
        match flag.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                exit(0)
            }
            "--addr" => options.config.addr = value("host:port"),
            "--workers" => options.config.workers = parse(&flag, &value("count")),
            "--backlog" => options.config.backlog = parse(&flag, &value("count")),
            "--batch-permits" => options.config.batch_permits = parse(&flag, &value("count")),
            "--max-line-bytes" => options.config.max_line_bytes = parse(&flag, &value("bytes")),
            "--max-batch" => options.config.max_batch_commands = parse(&flag, &value("count")),
            "--auto-compact" => options.config.auto_compact = Some(parse(&flag, &value("waste"))),
            "--admin-token" => options.config.admin_token = Some(value("token")),
            "--rate-limit" => options.config.rate_limit = Some(parse(&flag, &value("count"))),
            "--log-dir" => options.log_dir = Some(value("dir")),
            "--follow" => options.follow = Some(value("host:port")),
            "--fetch-batch" => options.fetch_batch = parse(&flag, &value("count")),
            "--chaos" => options.config.chaos = true,
            "--parallelism" => options.parallelism = parse(&flag, &value("count")),
            "--cache-cap" => options.cache_cap = Some(parse(&flag, &value("count"))),
            "--budget" => options.budget = Some(parse(&flag, &value("count"))),
            "--fact-id-cap" => options.fact_id_cap = Some(parse(&flag, &value("count"))),
            "--scenario" => options.scenario = value("name"),
            "--sensors" => options.sensors = parse(&flag, &value("count")),
            "--ticks" => options.ticks = parse(&flag, &value("count")),
            "--dups" => options.dups = parse(&flag, &value("count")),
            "--customers" => options.customers = parse(&flag, &value("count")),
            "--conflict-every" => options.conflict_every = parse(&flag, &value("count")),
            "--relation" => options.relations.push(value("R/arity/keywidth")),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    options
}

fn parse<T: std::str::FromStr>(flag: &str, text: &str) -> T {
    text.parse()
        .unwrap_or_else(|_| fail(&format!("{flag}: `{text}` is not a valid value")))
}

fn build_data(options: &Options) -> (Database, KeySet) {
    match options.scenario.as_str() {
        "employee" => employee_example(),
        "sensors" => sensor_readings(options.sensors, options.ticks, options.dups),
        "customers" => two_source_customers(options.customers, options.conflict_every),
        "serving" => {
            let (db, keys, _) = serving_session(options.sensors, options.ticks, 0);
            (db, keys)
        }
        "churn" => churn_base(),
        "empty" => {
            let mut schema = Schema::new();
            let mut keyed: Vec<(String, usize)> = Vec::new();
            for spec in &options.relations {
                let parts: Vec<&str> = spec.split('/').collect();
                let [name, arity, keywidth] = parts.as_slice() else {
                    fail(&format!("--relation `{spec}` is not R/arity/keywidth"));
                };
                let arity: usize = parse("--relation arity", arity);
                let keywidth: usize = parse("--relation keywidth", keywidth);
                schema
                    .add_relation(name, arity)
                    .unwrap_or_else(|e| fail(&format!("--relation `{spec}`: {e}")));
                if keywidth > 0 {
                    keyed.push((name.to_string(), keywidth));
                }
            }
            let mut builder = KeySet::builder(&schema);
            for (name, keywidth) in keyed {
                builder = builder
                    .key(&name, keywidth)
                    .unwrap_or_else(|e| fail(&format!("key on `{name}`: {e}")));
            }
            let keys = builder.build();
            (Database::new(schema), keys)
        }
        other => fail(&format!("unknown scenario `{other}`")),
    }
}

fn main() {
    let options = parse_options();
    if options.log_dir.is_some() && options.follow.is_some() {
        fail("--log-dir and --follow are mutually exclusive");
    }

    if let Some(upstream) = options.follow.clone() {
        // A follower's state comes from the primary's snapshot: the
        // scenario flags are ignored, only the engine tuning applies.
        let tune = {
            let parallelism = options.parallelism;
            let cache_cap = options.cache_cap;
            let budget = options.budget;
            move |mut engine: RepairEngine| {
                engine = engine.with_parallelism(parallelism);
                if let Some(cap) = cache_cap {
                    engine = engine.with_plan_cache_capacity(cap);
                }
                if let Some(budget) = budget {
                    engine = engine.with_default_budget(budget);
                }
                engine
            }
        };
        let backend = match ReplicatedBackend::follower_with(
            &upstream,
            options.config.auto_compact,
            options.fetch_batch,
            tune,
        ) {
            Ok(backend) => backend,
            Err(e) => {
                eprintln!("cdr-serve: cannot bootstrap from {upstream}: {e}");
                exit(1)
            }
        };
        eprintln!(
            "cdr-serve: follower of {upstream}, {} workers",
            options.config.workers
        );
        serve(
            Server::start_replicated(backend, options.config.clone()),
            &options,
        );
        return;
    }

    let (mut db, keys) = build_data(&options);
    if let Some(cap) = options.fact_id_cap {
        db = db.with_fact_id_capacity(cap);
    }
    let mut engine = RepairEngine::new(db, keys).with_parallelism(options.parallelism);
    if let Some(cap) = options.cache_cap {
        engine = engine.with_plan_cache_capacity(cap);
    }
    if let Some(budget) = options.budget {
        engine = engine.with_default_budget(budget);
    }
    eprintln!(
        "cdr-serve: scenario `{}`, {} facts, {} workers, {} batch permits",
        options.scenario,
        engine.database().len(),
        options.config.workers,
        options.config.batch_permits
    );
    let started = if let Some(dir) = options.log_dir.clone() {
        match ReplicatedBackend::primary(engine, std::path::Path::new(&dir)) {
            Ok(backend) => Server::start_replicated(backend, options.config.clone()),
            Err(e) => {
                eprintln!("cdr-serve: cannot open the command log in {dir}: {e}");
                exit(1)
            }
        }
    } else {
        Server::start(engine, options.config.clone())
    };
    serve(started, &options);
}

fn serve(started: std::io::Result<Server>, options: &Options) {
    let server = match started {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cdr-serve: cannot bind {}: {e}", options.config.addr);
            exit(1)
        }
    };
    println!("cdr-serve listening on {}", server.addr());
    let stats = server.join();
    println!(
        "cdr-serve clean shutdown: {} connections, {} commands, {} busy rejections, {} recovered panics",
        stats.connections, stats.commands, stats.busy_rejections, stats.recovered_panics
    );
}
