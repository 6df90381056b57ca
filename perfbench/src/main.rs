//! `perfbench`: the served end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the root of a checkout.  It builds `cdr-serve`, generates the
//! seeded trace and its expected replies, boots the workload's nodes,
//! drives them from two connections (open loop, then closed loop), checks
//! every reply, and prints a readable report followed by one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1` (which adds the in-process traced replay).  See
//! `perfbench/README.md`.

mod net;
mod nodes;
mod rng;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use net::{Conn, PhaseResult, Sample};
use nodes::Node;
use stats::{median, percentile};
use workload::{Class, Kind, Spec, Trace, A, B};

/// Set-ups per run; `setup_s` is their median.
const SETUP_BOOTS: usize = 5;
/// Share of `--seconds` spent in the open loop; the rest is the closed
/// loop.
const OPEN_SHARE: f64 = 0.6;
/// Where runs keep their scratch files, under the checkout.
const RUN_ROOT: &str = ".bench_run";
/// Spacing of the follower `STATS` polls that wait for the final write.
const DRAIN_POLL: Duration = Duration::from_millis(2);
/// The generator's p99 lateness beyond which its schedule, not the
/// server, would be shaping the open-loop latencies.
const LATE_BOUND_US: f64 = 10_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag}: `{value}` is not valid ({e})");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// A metric as printed: value and unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

/// The nodes of one boot and the two measurement connections.
struct Cluster {
    /// Primary first, then the follower (if any).
    nodes: Vec<Node>,
    conns: [Conn; 2],
}

impl Cluster {
    /// Boots the workload's nodes and connects: A to the primary, B to
    /// the follower on `replicated` and to the primary otherwise.
    fn boot(spec: &Spec, bin: &Path, dir: &Path) -> Result<Cluster, String> {
        fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let mut flags = spec.serve_flags();
        if spec.kind == Kind::Replicated {
            flags.extend([
                "--log-dir".to_string(),
                dir.join("log").display().to_string(),
            ]);
        }
        let primary = Node::spawn(bin, &flags, dir, "primary").map_err(|e| e.to_string())?;
        let mut nodes = vec![primary];
        if spec.kind == Kind::Replicated {
            let mut follow = vec![
                "--follow".to_string(),
                nodes[0].addr.clone(),
                "--workers".to_string(),
                "2".to_string(),
            ];
            if let Some(t) = spec.auto_compact {
                follow.extend(["--auto-compact".to_string(), t.to_string()]);
            }
            nodes.push(Node::spawn(bin, &follow, dir, "follower").map_err(|e| e.to_string())?);
        }
        let connect = |node: &Node| Conn::connect(&node.addr).map_err(|e| e.to_string());
        let conns = [connect(&nodes[0])?, connect(nodes.last().expect("a node"))?];
        let mut cluster = Cluster { nodes, conns };
        if spec.kind == Kind::Replicated {
            let target = nodes::log_end(&mut cluster.conns[A]).map_err(|e| e.to_string())?;
            let mut polls = PhaseResult::default();
            if !net::poll_until(
                &mut cluster.conns[B],
                target,
                Instant::now(),
                DRAIN_POLL,
                &mut polls,
            ) {
                return Err("the follower never caught up at boot".to_string());
            }
        }
        Ok(cluster)
    }

    /// Sends the warm-up ops; returns how many drew a wrong reply.
    fn warm_up(&mut self, trace: &Trace) -> usize {
        let mut wrong = 0;
        for conn in [A, B] {
            for op in &trace.warmup[conn] {
                let ok = self.conns[conn].send(&op.payload).is_ok()
                    && self.conns[conn]
                        .read_reply(op.reply_lines())
                        .is_ok_and(|got| op.check(&got));
                wrong += usize::from(!ok);
            }
        }
        wrong
    }

    fn rss_mb(&self) -> Result<f64, String> {
        self.nodes
            .iter()
            .map(|n| n.peak_rss_mb().map_err(|e| e.to_string()))
            .sum()
    }

    /// Stops the follower first, then the primary.
    fn stop(self) -> Result<(), String> {
        drop(self.conns);
        for node in self.nodes.into_iter().rev() {
            node.stop().map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// Everything the served run measured.
struct Served {
    setup_s: Vec<f64>,
    warmup_wrong: usize,
    open: [PhaseResult; 2],
    closed: [PhaseResult; 2],
    drained: bool,
    rss_mb: f64,
    reply_bytes: u64,
}

fn serve(
    spec: &Spec,
    trace: &Trace,
    bin: &Path,
    dir: &Path,
    seconds: f64,
) -> Result<Served, String> {
    let mut setup_s = Vec::new();
    let mut warmup_wrong = 0;
    let mut cluster: Option<Cluster> = None;
    for boot in 0..SETUP_BOOTS {
        if let Some(previous) = cluster.take() {
            previous.stop()?;
        }
        let started = Instant::now();
        let mut booted = Cluster::boot(spec, bin, &dir.join(format!("boot{boot}")))?;
        warmup_wrong += booted.warm_up(trace);
        setup_s.push(started.elapsed().as_secs_f64());
        cluster = Some(booted);
    }
    let mut cluster = cluster.expect("at least one boot");
    let bytes_before = cluster.conns[A].bytes_in + cluster.conns[B].bytes_in;

    let open_secs = seconds * OPEN_SHARE;
    let closed = Duration::from_secs_f64(seconds - open_secs);
    let final_end = trace.conns[A][..trace.open_ops[A]]
        .iter()
        .filter_map(|op| op.log_end)
        .max();
    let barrier = Barrier::new(2);
    let gate = net::MixGate::new(spec.rate);
    let start = Instant::now() + Duration::from_millis(20);
    let [conn_a, conn_b] = &mut cluster.conns;
    let drive = |conn: usize, c: &mut Conn| {
        let ops = &trace.conns[conn];
        let open_ops = trace.open_ops[conn];
        let period = Duration::from_secs_f64(1.0 / spec.rate[conn]);
        let offset = if conn == B {
            period / 2
        } else {
            Duration::ZERO
        };
        let mut open = net::open_loop(c, ops, 0..open_ops, start, offset, period);
        let mut drained = true;
        if conn == B {
            if let Some(target) = final_end {
                drained = net::poll_until(c, target, start, DRAIN_POLL, &mut open);
            }
        }
        barrier.wait();
        // A's trace is finite; B repeats its cycle for as long as it runs.
        let end = if conn == A { ops.len() } else { usize::MAX };
        let closed = net::closed_loop(c, ops, open_ops..end, closed, &gate, conn);
        (open, closed, drained)
    };
    let ((open_a, closed_a, _), (open_b, closed_b, drained)) = std::thread::scope(|scope| {
        let b = scope.spawn(|| drive(B, conn_b));
        let a = drive(A, conn_a);
        (a, b.join().expect("connection B's loop does not panic"))
    });
    let reply_bytes = cluster.conns[A].bytes_in + cluster.conns[B].bytes_in - bytes_before;
    let rss_mb = cluster.rss_mb()?;
    cluster.stop()?;
    Ok(Served {
        setup_s,
        warmup_wrong,
        open: [open_a, open_b],
        closed: [closed_a, closed_b],
        drained,
        rss_mb,
        reply_bytes,
    })
}

fn samples(phases: &[PhaseResult], class: Class) -> impl Iterator<Item = &Sample> {
    phases
        .iter()
        .flat_map(|p| p.samples.iter())
        .filter(move |s| s.class == class && s.ok)
}

fn latencies(phases: &[PhaseResult], class: Class, scale: f64) -> Vec<f64> {
    samples(phases, class)
        .map(|s| s.latency_us * scale)
        .collect()
}

/// Follower lag per acknowledged open-loop write: ms from its ack until
/// a follower `STATS` poll showed `end=` covering it; and the records the
/// follower trailed by at each poll.
fn follower_lag(trace: &Trace, served: &Served) -> (Vec<f64>, Vec<f64>) {
    let mut polls: Vec<(f64, u64)> = served.open[B]
        .samples
        .iter()
        .filter_map(|s| s.stats_end.map(|end| (s.done_s, end)))
        .collect();
    polls.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut covered = Vec::with_capacity(polls.len());
    let mut best = 0;
    for &(_, end) in &polls {
        best = best.max(end);
        covered.push(best);
    }
    let mut acks: Vec<(f64, u64)> = served.open[A]
        .samples
        .iter()
        .filter(|s| s.class == Class::Write && s.ok)
        .filter_map(|s| trace.conns[A][s.index].log_end.map(|end| (s.done_s, end)))
        .collect();
    acks.sort_by(|x, y| x.0.total_cmp(&y.0));
    let lag_ms = acks
        .iter()
        .filter_map(|&(acked, end)| {
            let first = covered.partition_point(|&c| c < end);
            polls
                .get(first)
                .map(|&(seen, _)| (seen - acked).max(0.0) * 1e3)
        })
        .collect();
    let mut primary_end = 0;
    let mut next_ack = 0;
    let lag_records = polls
        .iter()
        .map(|&(seen, end)| {
            while next_ack < acks.len() && acks[next_ack].0 <= seen {
                primary_end = primary_end.max(acks[next_ack].1);
                next_ack += 1;
            }
            primary_end.saturating_sub(end) as f64
        })
        .collect();
    (lag_ms, lag_records)
}

/// Completed ops per second in each whole second of the closed loop: the
/// capacity is their median, so one disturbed second cannot move it.
fn closed_windows(served: &Served) -> Vec<f64> {
    let elapsed = served
        .closed
        .iter()
        .map(|p| p.elapsed_s)
        .fold(f64::INFINITY, f64::min);
    let mut counts = vec![0usize; elapsed.floor() as usize];
    for sample in served.closed.iter().flat_map(|p| p.samples.iter()) {
        if let Some(count) = counts.get_mut(sample.done_s as usize) {
            *count += usize::from(sample.ok) * sample.weight;
        }
    }
    counts.into_iter().map(|c| c as f64).collect()
}

/// Prints one report line per metric.
fn report_line(name: &str, value: Option<f64>, unit: &str, n: usize) {
    match value {
        Some(v) => println!("  {name:<28} {v:>14.3} {unit:<6} (n={n})"),
        None => println!(
            "  {name:<28} {:>14} {unit:<6} (n={n}: too few samples)",
            "-"
        ),
    }
}

/// Computes, prints and returns the end-to-end metrics, and whether the
/// generator kept its schedule (p99 lateness within `LATE_BOUND_US`).
fn end_to_end(spec: &Spec, trace: &Trace, served: &Served) -> Result<(Metrics, bool), String> {
    let mut metrics = Metrics::new();
    let query = latencies(&served.open, Class::Query, 1.0);
    let write = latencies(&served.open, Class::Write, 1.0);
    let approx = latencies(&served.open, Class::Approx, 1e-3);
    let windows = closed_windows(served);
    let setup = median(&served.setup_s).expect("setups ran");

    println!("end-to-end ({}):", spec.name);
    let mut gated = |name: &str, value: Option<f64>, unit: &'static str, n: usize| {
        report_line(name, value, unit, n);
        let v = value.ok_or_else(|| format!("{name}: too few samples ({n}) for a stable value"))?;
        metrics.insert(name.to_string(), (v, unit));
        Ok::<(), String>(())
    };
    gated("setup_s", Some(setup), "s", served.setup_s.len())?;
    gated("query_p50_us", percentile(&query, 0.50), "us", query.len())?;
    gated("write_p50_us", percentile(&write, 0.50), "us", write.len())?;
    gated("peak_ops_s", median(&windows), "ops/s", windows.len())?;
    gated("server_rss_mb", Some(served.rss_mb), "MB", 1)?;
    // Reported, not gated: a gated metric must exist and hold steady on
    // every workload, and these do not (see README).
    report_line("query_p90_us", percentile(&query, 0.90), "us", query.len());
    report_line("query_p99_us", percentile(&query, 0.99), "us", query.len());
    for (conn, label) in [(A, "A"), (B, "B")] {
        let own = latencies(&served.open[conn..=conn], Class::Query, 1.0);
        report_line(
            &format!("query_p50_us[{label}]"),
            percentile(&own, 0.50),
            "us",
            own.len(),
        );
        report_line(
            &format!("query_p99_us[{label}]"),
            percentile(&own, 0.99),
            "us",
            own.len(),
        );
    }
    for (conn, label) in [(A, "A"), (B, "B")] {
        let phase = &served.closed[conn];
        let done: usize = phase
            .samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.weight)
            .sum();
        let rate = done as f64 / phase.elapsed_s.max(1e-9);
        report_line(&format!("closed_ops_s[{label}]"), Some(rate), "ops/s", done);
    }
    report_line("write_p99_us", percentile(&write, 0.99), "us", write.len());
    if !approx.is_empty() {
        report_line(
            "approx_p50_ms",
            percentile(&approx, 0.50),
            "ms",
            approx.len(),
        );
        report_line(
            "approx_p90_ms",
            percentile(&approx, 0.90),
            "ms",
            approx.len(),
        );
    }
    if spec.kind == Kind::Replicated {
        let (lag, records) = follower_lag(trace, served);
        report_line(
            "follower_lag_p50_ms",
            percentile(&lag, 0.50),
            "ms",
            lag.len(),
        );
        report_line(
            "follower_lag_p99_ms",
            percentile(&lag, 0.99),
            "ms",
            lag.len(),
        );
        report_line(
            "repl.lag_records_p99",
            percentile(&records, 0.99),
            "count",
            records.len(),
        );
    }
    let late: Vec<f64> = served
        .open
        .iter()
        .flat_map(|p| p.samples.iter())
        .map(|s| s.late_us)
        .collect();
    let late_p99 = percentile(&late, 0.99);
    report_line("gen.late_p99_us", late_p99, "us", late.len());
    let on_time = late_p99.is_some_and(|us| us <= LATE_BOUND_US);
    println!("  generator lateness within {LATE_BOUND_US} us: {on_time}");
    Ok((metrics, on_time))
}

/// Computes the per-layer metrics: the traced replay's, plus those that
/// compare the served run against it.
fn per_layer(spec: &Spec, trace: &Trace, served: &Served, layers: &traced::Layers) -> Metrics {
    let mut values: BTreeMap<&'static str, f64> = layers.metrics.clone();
    // Transport: the closed-loop service time's median minus the median
    // in-process session time of the same class.  (B repeats its cycle,
    // so per-op pairs would compare different plan-cache states.)
    let residual = |class: Class, session: &str| {
        let served_us: Vec<f64> = samples(&served.closed, class)
            .filter(|s| s.weight == 1)
            .map(|s| s.latency_us)
            .collect();
        median(&served_us).unwrap_or(0.0) - layers.metrics[session]
    };
    values.insert(
        "transport.query_us",
        residual(Class::Query, "session.query_us"),
    );
    values.insert(
        "transport.write_us",
        residual(Class::Write, "session.write_us"),
    );
    let replies: usize = served
        .open
        .iter()
        .chain(&served.closed)
        .flat_map(|p| p.samples.iter())
        .map(|s| s.weight.max(1))
        .sum();
    values.insert(
        "transport.reply_bytes",
        served.reply_bytes as f64 / replies.max(1) as f64,
    );
    // Queueing: open-loop latency minus closed-loop service time.
    let open_q = latencies(&served.open, Class::Query, 1.0);
    let closed_q = latencies(&served.closed, Class::Query, 1.0);
    let wait = |p: f64| match (percentile(&open_q, p), percentile(&closed_q, p)) {
        (Some(open), Some(closed)) => open - closed,
        _ => 0.0,
    };
    values.insert("queue.wait_p50_us", wait(0.50));
    values.insert("queue.wait_p99_us", wait(0.99));
    let late: Vec<f64> = served
        .open
        .iter()
        .flat_map(|p| p.samples.iter())
        .map(|s| s.late_us)
        .collect();
    values.insert("gen.late_p99_us", percentile(&late, 0.99).unwrap_or(0.0));
    let metrics: Metrics = traced::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .expect("every per-layer metric is computed");
            (name.to_string(), (value, unit))
        })
        .collect();

    println!("per-layer ({}):", spec.name);
    for (name, (value, unit)) in &metrics {
        println!("  {name:<32} {value:>14.3} {unit}");
    }
    println!("traced replay:");
    for (class, cover) in &layers.coverage {
        println!(
            "  {class:<8} median coverage of the session span by its children {:.1}% (must be within {:.0}% of 100%); ops within: {:.1}%",
            cover * 100.0,
            traced::SPAN_TOLERANCE * 100.0,
            layers.op_within_share[class] * 100.0
        );
    }
    println!("  spans account for the session: {}", layers.accounted());
    println!(
        "  tracing overhead (traced minus untraced Oracle::feed time): {:.3} s over {:.3} s",
        layers.overhead_secs, trace.feed_secs
    );
    metrics
}

fn print_json(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn run(args: &Args) -> Result<(), String> {
    let spec = workload::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = workload::SPECS.iter().map(|s| s.name).collect();
        format!(
            "unknown workload `{}` (one of {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let bin = nodes::build_server().map_err(|e| e.to_string())?;
    let dir: PathBuf = Path::new(RUN_ROOT).join(format!("{}-{}", spec.name, std::process::id()));
    fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let result = run_in(args, spec, &bin, &dir);
    let _ = fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, spec: &Spec, bin: &Path, dir: &Path) -> Result<(), String> {
    let trace = workload::build(
        spec,
        args.seed,
        args.seconds * OPEN_SHARE,
        args.seconds * (1.0 - OPEN_SHARE),
        &dir.join("oracle-log"),
    );
    let layers = args.trace.then(|| traced::replay(spec, &trace, dir));
    let served = serve(spec, &trace, bin, dir, args.seconds)?;

    let phases = served.open.iter().chain(&served.closed);
    let attempted: usize = phases.clone().map(PhaseResult::attempted).sum();
    let failed: usize = phases.map(PhaseResult::failed).sum();
    println!(
        "{} seed={} attempted={attempted} failed={failed} ({:.4}%) warm-up wrong={} follower drained={}",
        spec.name,
        args.seed,
        100.0 * failed as f64 / attempted.max(1) as f64,
        served.warmup_wrong,
        served.drained
    );
    let (e2e, on_time) = end_to_end(spec, &trace, &served)?;
    let correct = failed == 0 && served.warmup_wrong == 0 && served.drained && on_time;
    match layers {
        None => print_json(correct, attempted, failed, &e2e),
        Some(layers) => {
            let metrics = per_layer(spec, &trace, &served, &layers);
            let spans =
                Path::new(RUN_ROOT).join(format!("spans-{}-seed{}.tsv", spec.name, args.seed));
            layers
                .recorder
                .write_tsv(&spans)
                .map_err(|e| e.to_string())?;
            println!("  spans written to {}", spans.display());
            print_json(correct && layers.accounted(), attempted, failed, &metrics);
        }
    }
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2)
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        exit(1)
    }
}
