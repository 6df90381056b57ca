//! Building, booting and stopping real `cdr-serve` processes.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

use cdr_core::replog::field_u64;

use crate::net::Conn;

/// How long a node may take to print `listening on`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a node may take to exit after `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
/// glibc malloc settings for every node: fixed trim (256 MiB) and mmap
/// (32 MiB) thresholds.  By default glibc moves both as large blocks are
/// freed, and a write, which copies and frees the whole database, then
/// flips between reusing the heap and faulting fresh pages from one
/// second to the next: on `write_churn` the per-second median write
/// latency swung between about 2.4 and 5 ms within one run.  Fixed
/// thresholds keep the heap, so runs measure the code, not the
/// allocator's state.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.trim_threshold=268435456:glibc.malloc.mmap_threshold=33554432";

/// Builds `cdr-serve` from the checkout in the working directory and
/// returns its path.
pub fn build_server() -> io::Result<PathBuf> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "cdr-server",
            "--bin",
            "cdr-serve",
        ])
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "building cdr-serve failed: {status}"
        )));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("cdr-serve");
    if !bin.is_file() {
        return Err(io::Error::other(format!("{} was not built", bin.display())));
    }
    Ok(bin)
}

/// One running `cdr-serve` process.
pub struct Node {
    child: Child,
    pub addr: String,
}

impl Node {
    /// Spawns `bin` with `flags` (plus an ephemeral `--addr`) and waits
    /// for its `listening on` line, which lands in `dir/<label>.out`.
    pub fn spawn(bin: &Path, flags: &[String], dir: &Path, label: &str) -> io::Result<Node> {
        let out_path = dir.join(format!("{label}.out"));
        let child = Command::new(bin)
            .args(flags)
            .args(["--addr", "127.0.0.1:0"])
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .stdin(Stdio::null())
            .stdout(fs::File::create(&out_path)?)
            .stderr(fs::File::create(dir.join(format!("{label}.err")))?)
            .spawn()?;
        let mut node = Node {
            child,
            addr: String::new(),
        };
        let started = Instant::now();
        loop {
            let out = fs::read_to_string(&out_path)?;
            if let Some(rest) = out.split("listening on ").nth(1) {
                if let Some(addr) = rest.lines().next() {
                    node.addr = addr.trim().to_string();
                    return Ok(node);
                }
            }
            if let Some(status) = node.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "{label} exited during boot: {status}"
                )));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err(io::Error::other(format!("{label} did not start listening")));
            }
            sleep(Duration::from_micros(500));
        }
    }

    /// Peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kb = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|kb| kb.parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM line"))?;
        Ok(kb / 1024.0)
    }

    /// Sends `SHUTDOWN` and waits for the process to exit; kills it if
    /// it does not.
    pub fn stop(mut self) -> io::Result<()> {
        let asked = Conn::connect(&self.addr).and_then(|mut conn| conn.request("SHUTDOWN"));
        let started = Instant::now();
        while started.elapsed() < EXIT_TIMEOUT {
            if self.child.try_wait()?.is_some() {
                return asked.map(|_| ());
            }
            sleep(Duration::from_millis(2));
        }
        self.child.kill()?;
        self.child.wait()?;
        Err(io::Error::other("node ignored SHUTDOWN and was killed"))
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        // Reached only when `stop` was not: never leave a server behind.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The log end a node reports in `STATS` (`end=`).
pub fn log_end(conn: &mut Conn) -> io::Result<u64> {
    let stats = conn.request("STATS")?;
    field_u64(&stats, "end=").ok_or_else(|| io::Error::other(format!("no end= in `{stats}`")))
}
