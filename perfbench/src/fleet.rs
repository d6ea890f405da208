//! The serving processes under test: release `vrdag-cli serve` and
//! `vrdag-cli route` binaries started as child processes, exactly as
//! deployed, plus the closed-loop wire helpers the benchmark uses to
//! check readiness, pre-warm caches and read counters.

use crate::model::{name as model_name, Key};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use vrdag_serve::protocol::{GenSpec, ReplyHeader, Request, WireFormat};
use vrdag_serve::{LineClient, Reply};

/// How long a started process may take to answer.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running set of serving processes. Dropping it kills and reaps
/// every process.
pub struct Fleet {
    procs: Vec<Child>,
    /// Where clients connect: the node, or the router.
    pub entry: SocketAddr,
    /// The serve processes (the node itself when there is no router).
    pub nodes: Vec<SocketAddr>,
    /// The server command lines, for the result stamp.
    pub flags: Vec<String>,
}

impl Fleet {
    /// One `serve` node taking client connections directly.
    pub fn node(
        cli: &Path,
        models: &[PathBuf],
        workers: usize,
        cache_entries: usize,
        logs: &Path,
    ) -> std::io::Result<Fleet> {
        let mut fleet = Fleet::empty();
        let addr = fleet.spawn_serve(cli, models, workers, cache_entries, false, logs)?;
        wait_ready(addr, |c| Ok(matches!(c.request(&ping())?.header, ReplyHeader::Pong { .. })))?;
        fleet.entry = addr;
        Ok(fleet)
    }

    /// `backends` internal `serve` nodes behind one `route` process.
    pub fn routed(
        cli: &Path,
        models: &[PathBuf],
        backends: usize,
        workers: usize,
        cache_entries: usize,
        logs: &Path,
    ) -> std::io::Result<Fleet> {
        let mut fleet = Fleet::empty();
        for _ in 0..backends {
            let addr = fleet.spawn_serve(cli, models, workers, cache_entries, true, logs)?;
            wait_ready(addr, |c| {
                Ok(matches!(c.request(&ping())?.header, ReplyHeader::Pong { .. }))
            })?;
        }
        let port = free_port()?;
        let list: Vec<String> = fleet.nodes.iter().map(|a| a.to_string()).collect();
        let args = vec![
            "route".to_string(),
            "--backends".to_string(),
            list.join(","),
            "--addr".to_string(),
            format!("127.0.0.1:{port}"),
            "--log-level".to_string(),
            "warn".to_string(),
        ];
        fleet.spawn(cli, "route", args, logs)?;
        let entry: SocketAddr = ([127, 0, 0, 1], port).into();
        let up = format!("({backends} up)");
        wait_ready(entry, |c| {
            Ok(String::from_utf8_lossy(&c.request(&stats())?.payload).contains(&up))
        })?;
        fleet.entry = entry;
        Ok(fleet)
    }

    fn empty() -> Fleet {
        Fleet {
            procs: Vec::new(),
            entry: ([127, 0, 0, 1], 0).into(),
            nodes: Vec::new(),
            flags: Vec::new(),
        }
    }

    /// Start one `serve` process with `models` registered as `m0`, `m1`, …
    fn spawn_serve(
        &mut self,
        cli: &Path,
        models: &[PathBuf],
        workers: usize,
        cache_entries: usize,
        internal: bool,
        logs: &Path,
    ) -> std::io::Result<SocketAddr> {
        let port = free_port()?;
        let list: Vec<String> = models
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{}={}", model_name(i), p.display()))
            .collect();
        let mut args: Vec<String> = [
            "serve",
            "--models",
            &list.join(","),
            "--addr",
            &format!("127.0.0.1:{port}"),
            "--workers",
            &workers.to_string(),
            "--cache-entries",
            &cache_entries.to_string(),
            "--log-level",
            "warn",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        if internal {
            args.extend(["--internal".to_string(), "true".to_string()]);
        }
        self.spawn(cli, "serve", args, logs)?;
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        self.nodes.push(addr);
        Ok(addr)
    }

    fn spawn(
        &mut self,
        cli: &Path,
        role: &str,
        args: Vec<String>,
        logs: &Path,
    ) -> std::io::Result<()> {
        let log = logs.join(format!("{role}-{}.log", self.procs.len()));
        let child = Command::new(cli)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(std::fs::File::create(&log)?)
            .spawn()?;
        self.flags.push(format!("vrdag-cli {}", args.join(" ")));
        self.procs.push(child);
        Ok(())
    }

    /// Sum of the processes' peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.procs.iter().map(|c| vm_hwm_kib(&format!("/proc/{}/status", c.id()))).sum::<f64>()
            / 1024.0
    }

    /// CPU time the processes have used so far (user + system), in ms.
    pub fn cpu_ms(&self) -> f64 {
        self.procs.iter().map(|c| proc_cpu_ms(&format!("/proc/{}/stat", c.id()))).sum()
    }

    /// Whether every process is still running.
    pub fn alive(&mut self) -> bool {
        self.procs.iter_mut().all(|c| matches!(c.try_wait(), Ok(None)))
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for child in &mut self.procs {
            let _ = child.kill();
        }
        for child in &mut self.procs {
            let _ = child.wait();
        }
    }
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` file;
/// 0 when unreadable.
pub fn vm_hwm_kib(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0.0)
}

/// Clock ticks per second of `/proc/<pid>/stat` (Linux's `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU time in ms from a `/proc/<pid>/stat` file, threads
/// that have exited included; 0 when unreadable. The kernel leaves out
/// time the vCPU was stolen by the hypervisor.
pub fn proc_cpu_ms(stat_path: &str) -> f64 {
    std::fs::read_to_string(stat_path).ok().and_then(|s| stat_cpu_ms(&s)).unwrap_or(0.0)
}

/// utime + stime of one `/proc/<pid>/stat` line, in ms.
fn stat_cpu_ms(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) * 1e3 / USER_HZ)
}

/// A loopback port that was free a moment ago.
fn free_port() -> std::io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

fn ping() -> Request {
    Request::Ping { tag: None }
}

fn stats() -> Request {
    Request::Stats { tag: None }
}

/// Poll `addr` until `check` passes on a fresh connection.
fn wait_ready(
    addr: SocketAddr,
    check: impl Fn(&mut LineClient) -> std::io::Result<bool>,
) -> std::io::Result<()> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok(mut c) = LineClient::connect(addr) {
            if check(&mut c).unwrap_or(false) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("{addr} not ready after {READY_TIMEOUT:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Sum of every sample of the counter `name` in a Prometheus text
/// exposition (all label sets).
pub fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.strip_prefix(name).is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// The `METRICS` exposition of the process at `addr`.
pub fn scrape(addr: SocketAddr) -> std::io::Result<String> {
    let mut c = LineClient::connect(addr)?;
    let reply = c.request(&Request::Metrics { tag: None })?;
    Ok(String::from_utf8_lossy(&reply.payload).into_owned())
}

/// One closed-loop `GEN` (binary payload) on an open connection.
pub fn gen(c: &mut LineClient, t: usize, (model, seed): Key) -> std::io::Result<Reply> {
    c.gen(GenSpec::new(model_name(model), t, seed, WireFormat::Bin))
}

/// Send one tagged `GEN` per key on a fresh connection, then read every
/// reply: the pre-warm. Returns each key's reply, in key order.
pub fn gen_pipelined(addr: SocketAddr, t: usize, keys: &[Key]) -> std::io::Result<Vec<Reply>> {
    let mut c = LineClient::connect(addr)?;
    // Stay under the per-connection in-flight cap of a node.
    const WINDOW: usize = 16;
    let mut replies: Vec<Option<Reply>> = keys.iter().map(|_| None).collect();
    let mut sent = 0;
    let mut got = 0;
    while got < keys.len() {
        while sent < keys.len() && sent - got < WINDOW {
            let (model, seed) = keys[sent];
            let spec = GenSpec::new(model_name(model), t, seed, WireFormat::Bin)
                .with_tag(format!("w{sent}"));
            c.send(&Request::Gen(spec))?;
            sent += 1;
        }
        let reply = c.read_frame()?;
        let i = reply
            .header
            .tag()
            .and_then(|t| t.strip_prefix('w')?.parse::<usize>().ok())
            .filter(|&i| i < keys.len())
            .ok_or_else(|| std::io::Error::other(format!("unexpected frame {:?}", reply.header)))?;
        replies[i] = Some(reply);
        got += 1;
    }
    Ok(replies.into_iter().map(|r| r.expect("every tag answered once")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_label_sets_and_skips_lookalikes() {
        let text = "# TYPE vrdag_cache_hits_total counter\n\
                    vrdag_cache_hits_total 3\n\
                    vrdag_cache_hits_total{backend=\"a\"} 4\n\
                    vrdag_cache_hits_totalx 100\n";
        assert_eq!(counter(text, "vrdag_cache_hits_total"), 7.0);
        assert_eq!(counter(text, "vrdag_cache_misses_total"), 0.0);
    }

    #[test]
    fn vm_hwm_of_this_process_is_positive() {
        assert!(vm_hwm_kib("/proc/self/status") > 0.0);
        assert_eq!(vm_hwm_kib("/nonexistent/status"), 0.0);
    }

    #[test]
    fn cpu_time_of_this_process_grows_with_work() {
        let before = crate::calib::process_cpu_ms();
        let mut x = 0u64;
        while crate::calib::process_cpu_ms() - before < 30.0 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(proc_cpu_ms("/proc/self/stat") >= 20.0);
        assert_eq!(proc_cpu_ms("/nonexistent/stat"), 0.0);
        // A command name with spaces and parentheses does not shift the fields.
        let line = "42 (a (b) c) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20";
        assert_eq!(stat_cpu_ms(line), Some(3000.0));
        assert_eq!(stat_cpu_ms("42 (short) S 1"), None);
    }
}
