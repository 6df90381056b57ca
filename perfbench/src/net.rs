//! The load generator: one connection per thread, an open loop that
//! times each op from its *intended* send time, and a closed loop that
//! measures service time and capacity.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use cdr_core::replog::field_u64;

use crate::workload::{Class, Op, Payload};

/// An op that has no complete reply this long after it was due fails,
/// and the connection is abandoned.
pub const OP_DEADLINE: Duration = Duration::from_secs(3);

/// A line-protocol connection with its own receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Reply bytes received so far.
    pub bytes_in: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(OP_DEADLINE))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
            bytes_in: 0,
        })
    }

    pub fn send(&mut self, payload: &Payload) -> io::Result<()> {
        match payload {
            Payload::Line(line) => {
                let mut bytes = Vec::with_capacity(line.len() + 1);
                bytes.extend_from_slice(line.as_bytes());
                bytes.push(b'\n');
                self.stream.write_all(&bytes)
            }
            Payload::Bulk { frame, .. } => {
                let mut bytes = format!("BULK {}\n", frame.len()).into_bytes();
                bytes.extend_from_slice(frame);
                self.stream.write_all(&bytes)
            }
        }
    }

    /// Moves complete lines from the buffer to `out` until `out` holds
    /// `limit` lines.
    fn drain_lines(&mut self, out: &mut Vec<String>, limit: usize) {
        let mut start = 0;
        while out.len() < limit {
            let Some(pos) = self.buf[start..].iter().position(|&b| b == b'\n') else {
                break;
            };
            let end = start + pos;
            let mut line = &self.buf[start..end];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            out.push(String::from_utf8_lossy(line).into_owned());
            start = end + 1;
        }
        self.buf.drain(..start);
    }

    /// Waits up to `timeout` for bytes and appends them to the buffer.
    /// Returns an error on EOF.
    fn fill(&mut self, timeout: Duration) -> io::Result<()> {
        if !wait_readable(&self.stream, timeout)? {
            return Ok(());
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(ErrorKind::UnexpectedEof, "server closed")),
            Ok(n) => {
                self.bytes_in += n as u64;
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Waits up to `timeout` for bytes and appends every complete reply
    /// line to `out`.  Returns an error on EOF.
    pub fn poll_lines(&mut self, timeout: Duration, out: &mut Vec<String>) -> io::Result<()> {
        self.fill(timeout)?;
        self.drain_lines(out, usize::MAX);
        Ok(())
    }

    /// Reads the reply to one op of `n` reply lines — or just its first
    /// line when that is an `ERR` (a rejected frame answers once) —
    /// failing after `OP_DEADLINE`.
    pub fn read_reply(&mut self, n: usize) -> io::Result<Vec<String>> {
        let started = Instant::now();
        let mut out = Vec::with_capacity(n);
        loop {
            self.drain_lines(&mut out, n);
            if out.len() == n || out.first().is_some_and(|l| l.starts_with("ERR ")) {
                return Ok(out);
            }
            let left = OP_DEADLINE
                .checked_sub(started.elapsed())
                .ok_or_else(|| io::Error::new(ErrorKind::TimedOut, "no reply by the deadline"))?;
            self.fill(left)?;
        }
    }

    /// Sends one line and returns its single reply line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        self.send(&Payload::Line(line.to_string()))?;
        Ok(self.read_reply(1)?.remove(0))
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` has bytes to read (or hit EOF/error) or
/// `timeout` passes; returns whether it is readable.  `ppoll` keeps the
/// open loop's sends on time to the microsecond, where a socket read
/// timeout would round up to the kernel tick (up to 10 ms).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    const POLLIN: i16 = 0x001;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `timeout` are live locals for the whole call, the
    // count of one matches the single `PollFd`, and a null signal mask
    // leaves the mask unchanged, as `ppoll(2)` documents.
    let ready = unsafe { ppoll(&mut fd, 1, &timeout, std::ptr::null()) };
    match ready {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// One measured op.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Index of the op in its connection's trace.
    pub index: usize,
    pub class: Class,
    /// Mutations or commands the op carried.
    pub weight: usize,
    /// Open loop: intended send time to last reply line.  Closed loop:
    /// actual send to last reply line.
    pub latency_us: f64,
    /// Open loop: how late the generator sent the op.
    pub late_us: f64,
    /// Seconds from the phase start to the last reply line.
    pub done_s: f64,
    /// Whether the reply was right (never for an `ERR`, since expected
    /// replies are all `OK`).
    pub ok: bool,
    /// `end=` of a `STATS` poll.
    pub stats_end: Option<u64>,
}

/// What one connection did in one phase.
#[derive(Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    /// Ops sent that drew no complete reply by the deadline.
    pub timed_out: usize,
    /// Seconds from the phase start until the last reply.
    pub elapsed_s: f64,
}

impl PhaseResult {
    pub fn attempted(&self) -> usize {
        self.samples.iter().map(|s| s.weight).sum::<usize>() + self.timed_out
    }

    pub fn failed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| !s.ok)
            .map(|s| s.weight)
            .sum::<usize>()
            + self.timed_out
    }
}

struct Pending {
    index: usize,
    intended: Instant,
    late_us: f64,
    want: usize,
    got: Vec<String>,
}

/// Wrong replies described on stderr per process, at most.
const REPORTED_MISMATCHES: usize = 5;
static MISMATCHES: AtomicUsize = AtomicUsize::new(0);

fn finish(op: &Op, p: Pending, start: Instant, now: Instant) -> Sample {
    let ok = op.check(&p.got);
    if !ok && MISMATCHES.fetch_add(1, Ordering::Relaxed) < REPORTED_MISMATCHES {
        eprintln!(
            "perfbench: wrong reply to {:?}\n  want {:?}\n  got  {:?}",
            op.payload, op.expect, p.got
        );
    }
    let stats_end = match op.class {
        Class::Stats if ok => field_u64(&p.got[0], "end="),
        _ => None,
    };
    Sample {
        index: p.index,
        class: op.class,
        weight: op.weight(),
        latency_us: now.duration_since(p.intended).as_secs_f64() * 1e6,
        late_us: p.late_us,
        done_s: now.duration_since(start).as_secs_f64(),
        ok,
        stats_end,
    }
}

/// Hands received lines to the oldest pending ops, completing them.
fn settle(
    ops: &[Op],
    pending: &mut VecDeque<Pending>,
    lines: &mut Vec<String>,
    start: Instant,
    out: &mut PhaseResult,
) {
    if lines.is_empty() {
        return;
    }
    let now = Instant::now();
    for line in lines.drain(..) {
        let Some(front) = pending.front_mut() else {
            // A reply nobody asked for: the stream is out of step.
            out.timed_out += 1;
            continue;
        };
        // A rejected frame answers one line, not one per op.
        let rejected = line.starts_with("ERR ") && front.got.is_empty();
        front.got.push(line);
        if rejected || front.got.len() == front.want {
            let p = pending.pop_front().expect("front exists");
            out.samples.push(finish(&ops[p.index], p, start, now));
        }
    }
}

/// Sends ops `range` on a fixed schedule — op `i` is due at
/// `start + offset + (i - range.start) * period` whether or not earlier
/// replies have arrived — and times each from when it was due, so a
/// stall is charged to every op queued behind it.  Op `i` is
/// `ops[i % ops.len()]`, so a cyclic trace can run for any length.
pub fn open_loop(
    conn: &mut Conn,
    ops: &[Op],
    range: std::ops::Range<usize>,
    start: Instant,
    offset: Duration,
    period: Duration,
) -> PhaseResult {
    let mut out = PhaseResult::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut lines = Vec::new();
    let mut next = range.start;
    let due = |i: usize| start + offset + period.mul_f64((i - range.start) as f64);
    loop {
        let now = Instant::now();
        if next < range.end && due(next) <= now {
            let intended = due(next);
            let index = next % ops.len();
            if conn.send(&ops[index].payload).is_err() {
                break;
            }
            pending.push_back(Pending {
                index,
                intended,
                late_us: now.duration_since(intended).as_secs_f64() * 1e6,
                want: ops[index].reply_lines(),
                got: Vec::new(),
            });
            next += 1;
            continue;
        }
        if next >= range.end && pending.is_empty() {
            break;
        }
        if let Some(front) = pending.front() {
            if now.duration_since(front.intended) > OP_DEADLINE {
                break;
            }
        }
        let wait = if next < range.end {
            due(next).saturating_duration_since(now)
        } else {
            Duration::from_millis(20)
        };
        if conn.poll_lines(wait, &mut lines).is_err() {
            break;
        }
        settle(ops, &mut pending, &mut lines, start, &mut out);
    }
    out.timed_out += pending.iter().map(|p| ops[p.index].weight()).sum::<usize>()
        + (next..range.end)
            .map(|i| ops[i % ops.len()].weight())
            .sum::<usize>();
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Keeps the closed loop on the open loop's mix: a connection may run at
/// most `SLACK` ops ahead of its share of all completed ops, so capacity
/// is measured for the same mix the offered rates describe rather than
/// for whichever connection wins the CPU.  Ending either loop ends both.
pub struct MixGate {
    share: [f64; 2],
    done: [AtomicUsize; 2],
    stop: AtomicBool,
}

impl MixGate {
    const SLACK: f64 = 4.0;

    /// A gate for connections offered `rate[0]` and `rate[1]` ops/s.
    pub fn new(rate: [f64; 2]) -> MixGate {
        let total = rate[0] + rate[1];
        MixGate {
            share: [rate[0] / total, rate[1] / total],
            done: [AtomicUsize::new(0), AtomicUsize::new(0)],
            stop: AtomicBool::new(false),
        }
    }

    fn ahead(&self, conn: usize) -> bool {
        let done = [0, 1].map(|c| self.done[c].load(Ordering::Relaxed) as f64);
        done[conn] > self.share[conn] * (done[0] + done[1]) + Self::SLACK
    }
}

/// Sends ops `range` of connection `conn` (op `i` is
/// `ops[i % ops.len()]`) one at a time, each as soon as the previous
/// reply is in and the gate allows, until `duration` has passed or
/// either connection's range runs out.
pub fn closed_loop(
    conn: &mut Conn,
    ops: &[Op],
    range: std::ops::Range<usize>,
    duration: Duration,
    gate: &MixGate,
    side: usize,
) -> PhaseResult {
    let mut out = PhaseResult::default();
    let start = Instant::now();
    'ops: for i in range {
        loop {
            if start.elapsed() >= duration || gate.stop.load(Ordering::Relaxed) {
                break 'ops;
            }
            if !gate.ahead(side) {
                break;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
        let index = i % ops.len();
        let op = &ops[index];
        let sent = Instant::now();
        if conn.send(&op.payload).is_err() {
            out.timed_out += op.weight();
            break;
        }
        let Ok(got) = conn.read_reply(op.reply_lines()) else {
            out.timed_out += op.weight();
            break;
        };
        let p = Pending {
            index,
            intended: sent,
            late_us: 0.0,
            want: op.reply_lines(),
            got,
        };
        out.samples.push(finish(op, p, start, Instant::now()));
        gate.done[side].fetch_add(1, Ordering::Relaxed);
    }
    gate.stop.store(true, Ordering::Relaxed);
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

/// Polls `STATS` every `every` until `end=` reaches `target` (or the
/// deadline passes), recording each poll like an open-loop sample.
pub fn poll_until(
    conn: &mut Conn,
    target: u64,
    start: Instant,
    every: Duration,
    out: &mut PhaseResult,
) -> bool {
    let began = Instant::now();
    while began.elapsed() < OP_DEADLINE {
        let Ok(reply) = conn.request("STATS") else {
            return false;
        };
        let end = field_u64(&reply, "end=");
        out.samples.push(Sample {
            index: usize::MAX,
            class: Class::Stats,
            weight: 0,
            latency_us: 0.0,
            late_us: 0.0,
            done_s: start.elapsed().as_secs_f64(),
            ok: end.is_some(),
            stats_end: end,
        });
        if end.is_some_and(|e| e >= target) {
            return true;
        }
        std::thread::sleep(every);
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    fn op(line: &str) -> Op {
        Op {
            payload: Payload::Line(line.to_string()),
            class: Class::Query,
            expect: vec![format!("OK {line}")],
            masked: false,
            log_end: None,
        }
    }

    /// A peer that echoes `OK <line>` but sleeps once, on the third
    /// line, must raise the open-loop latency of the ops queued behind
    /// it: they were due on schedule and are charged the stall.
    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            for (n, line) in BufReader::new(stream).lines().enumerate() {
                let line = line.unwrap();
                if n == 2 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                writer.write_all(format!("OK {line}\n").as_bytes()).unwrap();
            }
        });
        let ops: Vec<Op> = (0..8).map(|i| op(&format!("Q{i}"))).collect();
        let mut conn = Conn::connect(&addr).unwrap();
        let start = Instant::now();
        let result = open_loop(
            &mut conn,
            &ops,
            0..ops.len(),
            start,
            Duration::ZERO,
            Duration::from_millis(5),
        );
        drop(conn);
        peer.join().unwrap();
        assert_eq!(result.failed(), 0);
        assert_eq!(result.samples.len(), 8);
        let latency: Vec<f64> = result.samples.iter().map(|s| s.latency_us).collect();
        assert!(
            latency[0] < 20_000.0 && latency[1] < 20_000.0,
            "{latency:?}"
        );
        // Op 3 was due at 15 ms but the peer was asleep until ~70 ms;
        // ops 3..6 were all due inside the stall and wait it out.
        for queued in &latency[3..6] {
            assert!(*queued > 25_000.0, "queued op not charged: {latency:?}");
        }
    }
}
