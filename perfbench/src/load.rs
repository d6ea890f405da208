//! Open-loop load over one pipelined, tagged wire connection.
//!
//! The send timetable is fixed before the run ([`timetable`]). A writer
//! thread sends each request when it falls due, whatever the server is
//! doing; the calling thread reads reply frames as they arrive. Every
//! latency is measured from the request's due time, so a stall in the
//! server (or in the generator) is charged to every request it delays.

use crate::trace::Tracer;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use vrdag_serve::protocol::{parse_reply, EndStatus, ReplyHeader};

/// Buffered `GEN` or streamed `SUB`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Gen,
    Sub,
}

/// One request of the timetable.
#[derive(Clone, Copy, Debug)]
pub struct Planned {
    /// When the request is due, as an offset from the run's start.
    pub due: Duration,
    pub kind: Kind,
    /// Index of the model (registered as `m<index>`).
    pub model: usize,
    pub seed: u64,
}

/// Due offsets of an open loop at `rate` requests per second: request
/// `i` is due `i / rate` after the start, independent of every reply.
pub fn timetable(rate: f64, count: usize) -> Vec<Duration> {
    assert!(rate > 0.0, "an open loop needs a positive rate");
    (0..count).map(|i| Duration::from_secs_f64(i as f64 / rate)).collect()
}

/// What happened to one request.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// When the writer actually sent it (`None`: never sent).
    pub sent: Option<Instant>,
    /// Arrival of each `EVT` frame (SUB only).
    pub evts: Vec<Instant>,
    /// Arrival of the terminal frame, fully read.
    pub done: Option<Instant>,
    /// `artifact_fingerprint` of the payload (SUB: of the concatenated
    /// `EVT` payloads).
    pub digest: Option<u64>,
    /// Error code, or `timeout` when no terminal frame arrived.
    pub error: Option<String>,
    /// `qms=` / `genms=` of a SUB's `END`.
    pub qms: Option<u64>,
    pub genms: Option<u64>,
    /// Snapshots the terminal frame reported.
    pub snapshots: usize,
}

/// Work the writer does while it waits for the next due time: one call
/// of `work` at most every `every`, and only when the next request is at
/// least `room` away, so the timetable is kept.
pub struct Idle<'a> {
    pub work: &'a (dyn Fn() -> f64 + Sync),
    pub every: Duration,
    pub room: Duration,
}

/// The result of [`run_open_loop`].
pub struct LoadRun {
    /// The instant the timetable's offsets count from.
    pub start: Instant,
    pub outcomes: Vec<Outcome>,
    /// What each call of the idle work returned, in order.
    pub idle: Vec<f64>,
}

/// Drive `plan` against `addr` on one connection: requests of `t`
/// snapshots, binary payloads, tags `r<index>`. Waits at most
/// `drain` after the last send for the outstanding replies, then counts
/// the rest as timeouts. With an enabled `tracer`, records a
/// `wire.request` span per request with its `wire.send`,
/// `wire.first_evt` and `wire.evt` children. `idle` runs in the writer
/// between sends.
pub fn run_open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    t: usize,
    drain: Duration,
    idle: Option<&Idle>,
    tracer: &mut Tracer,
) -> std::io::Result<LoadRun> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let reader_done = AtomicBool::new(false);
    // Lines are rendered before the clock starts, so sending is one write.
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let verb = if p.kind == Kind::Gen { "GEN" } else { "SUB" };
            format!(
                "{verb} model={} t={t} seed={} fmt=bin tag=r{i}\n",
                crate::model::name(p.model),
                p.seed
            )
        })
        .collect();
    let start = Instant::now() + Duration::from_millis(5);
    let mut outcomes = vec![Outcome::default(); plan.len()];
    let mut roots = vec![0u64; plan.len()];
    let (sent, idle_out) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| -> std::io::Result<(Vec<Option<Instant>>, Vec<f64>)> {
            let mut sent = vec![None; plan.len()];
            let mut idle_out = Vec::new();
            let mut next_idle = start;
            let mut result = Ok(());
            for (i, (p, line)) in plan.iter().zip(&lines).enumerate() {
                wait_until(start + p.due, idle, &mut next_idle, &mut idle_out);
                if let Err(e) = writer.write_all(line.as_bytes()) {
                    result = Err(e);
                    break;
                }
                sent[i] = Some(Instant::now());
            }
            if result.is_ok() {
                // QUIT is answered once in-flight work drains; the server
                // then closes, which ends the reader.
                result = writer.write_all(b"QUIT\n");
            }
            let deadline = Instant::now() + drain;
            while !reader_done.load(Ordering::SeqCst) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if !reader_done.load(Ordering::SeqCst) {
                // Unblock the reader: whatever is outstanding timed out.
                let _ = writer.shutdown(Shutdown::Both);
            }
            result.map(|()| (sent, idle_out))
        });
        read_replies(&stream, start, plan, &mut outcomes, &mut roots, tracer);
        reader_done.store(true, Ordering::SeqCst);
        writer_thread.join().expect("writer thread panicked")
    })?;
    for (i, (o, s)) in outcomes.iter_mut().zip(sent).enumerate() {
        o.sent = s;
        if let Some(s) = s {
            let parent = (roots[i] != 0).then_some(roots[i]);
            tracer.record("wire.send", i as u64, parent, start + plan[i].due, s);
        }
        if o.done.is_none() && o.error.is_none() {
            o.error = Some(if s.is_some() { "timeout" } else { "not-sent" }.to_string());
        }
    }
    Ok(LoadRun { start, outcomes, idle: idle_out })
}

/// Wait until `at` (returns at once if it has passed), doing the idle
/// work when it is due and there is room before `at`.
fn wait_until(at: Instant, idle: Option<&Idle>, next_idle: &mut Instant, out: &mut Vec<f64>) {
    loop {
        let now = Instant::now();
        if now >= at {
            return;
        }
        let Some(idle) = idle else {
            std::thread::sleep(at - now);
            return;
        };
        if at - now < idle.room {
            std::thread::sleep(at - now);
            return;
        }
        if now >= *next_idle {
            out.push((idle.work)());
            *next_idle = now + idle.every;
        } else {
            std::thread::sleep((*next_idle).min(at) - now);
        }
    }
}

/// Request index of a `r<index>` tag.
fn tag_index(tag: Option<&str>, len: usize) -> Option<usize> {
    tag?.strip_prefix('r')?.parse().ok().filter(|&i| i < len)
}

/// Read frames until the server closes the connection (or the writer
/// shuts it down), filling `outcomes`.
fn read_replies(
    stream: &TcpStream,
    start: Instant,
    plan: &[Planned],
    outcomes: &mut [Outcome],
    roots: &mut [u64],
    tracer: &mut Tracer,
) {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut line = String::new();
    let mut streams: HashMap<usize, Vec<u8>> = HashMap::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let Ok(header) = parse_reply(line.trim_end()) else {
            return;
        };
        let mut payload = vec![0u8; header.payload_bytes()];
        if reader.read_exact(&mut payload).is_err() {
            return;
        }
        let now = Instant::now();
        if let ReplyHeader::Bye { .. } = header {
            return;
        }
        let Some(i) = tag_index(header.tag(), outcomes.len()) else {
            continue;
        };
        let o = &mut outcomes[i];
        let due = start + plan[i].due;
        match header {
            ReplyHeader::Gen { snapshots, .. } => {
                o.done = Some(now);
                o.snapshots = snapshots;
                o.digest = Some(vrdag::artifact_fingerprint(&payload));
                roots[i] = tracer.record("wire.request", i as u64, None, due, now);
            }
            ReplyHeader::Evt { .. } => {
                o.evts.push(now);
                streams.entry(i).or_default().extend_from_slice(&payload);
            }
            ReplyHeader::End { snapshots, status, qms, genms, .. } => {
                o.done = Some(now);
                o.snapshots = snapshots;
                o.qms = qms;
                o.genms = genms;
                let body = streams.remove(&i).unwrap_or_default();
                o.digest = Some(vrdag::artifact_fingerprint(&body));
                if status != EndStatus::Ok {
                    o.error = Some(format!("end-{}", status.as_str()));
                }
                let root = tracer.record("wire.request", i as u64, None, due, now);
                roots[i] = root;
                let mut prev = due;
                for (k, &at) in o.evts.iter().enumerate() {
                    let name = if k == 0 { "wire.first_evt" } else { "wire.evt" };
                    tracer.record(name, i as u64, Some(root), prev, at);
                    prev = at;
                }
            }
            ReplyHeader::Err { code, .. } => {
                o.done = Some(now);
                o.error = Some(code.as_str().to_string());
                streams.remove(&i);
            }
            _ => {}
        }
    }
}

/// Highest number of requests outstanding at once: each request counts
/// from its send until its terminal frame (or `end` if none came).
pub fn max_in_flight(outcomes: &[Outcome], end: Instant) -> usize {
    let mut events: Vec<(Instant, i32)> = Vec::new();
    for o in outcomes {
        if let Some(s) = o.sent {
            events.push((s, 1));
            events.push((o.done.unwrap_or(end).max(s), -1));
        }
    }
    // Completions sort before sends at the same instant.
    events.sort();
    let (mut now, mut peak) = (0i32, 0i32);
    for (_, delta) in events {
        now += delta;
        peak = peak.max(now);
    }
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timetable_is_evenly_spaced_and_starts_at_zero() {
        let tt = timetable(12.0, 25);
        assert_eq!(tt.len(), 25);
        assert_eq!(tt[0], Duration::ZERO);
        for w in tt.windows(2) {
            let gap = (w[1] - w[0]).as_secs_f64();
            assert!((gap - 1.0 / 12.0).abs() < 1e-6, "gap {gap}");
        }
        // Request i is due at i / rate, with no drift over a long run.
        let tt = timetable(500.0, 10_001);
        assert!((tt[10_000].as_secs_f64() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn timetable_does_not_depend_on_replies() {
        // Same inputs, same schedule: the plan is fixed before the run.
        assert_eq!(timetable(7.5, 40), timetable(7.5, 40));
    }

    #[test]
    #[should_panic]
    fn timetable_rejects_a_zero_rate() {
        timetable(0.0, 3);
    }

    #[test]
    fn tag_indices_round_trip_and_reject_strangers() {
        assert_eq!(tag_index(Some("r17"), 20), Some(17));
        assert_eq!(tag_index(Some("r20"), 20), None);
        assert_eq!(tag_index(Some("~1"), 20), None);
        assert_eq!(tag_index(None, 20), None);
    }

    #[test]
    fn in_flight_peak_counts_overlapping_requests() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let req = |s, d: Option<u64>| Outcome {
            sent: Some(at(s)),
            done: d.map(at),
            ..Outcome::default()
        };
        // [0,10) [5,20) [10,12) [30, end): at most two overlap.
        let outs = vec![req(0, Some(10)), req(5, Some(20)), req(10, Some(12)), req(30, None)];
        assert_eq!(max_in_flight(&outs, at(40)), 2);
        assert_eq!(max_in_flight(&[], at(1)), 0);
    }
}
