//! The sharded-serving front tier ([`Router`]): one process speaking
//! the wire protocol of [`protocol`](crate::protocol) on **both hops**
//! — clients talk to the router exactly as they would to a single
//! `vrdag-serve`, and the router talks the same protocol to N backend
//! nodes.
//!
//! What the router owns:
//!
//! * **AUTH termination** — tenant tokens are verified here (same
//!   constant-time [`TenantRegistry`] as a single node); backends never
//!   see a token. On the internal hop the authenticated identity rides
//!   as a `tenant=` assertion on every relayed `GEN`/`SUB` line, which
//!   backends accept only in internal mode
//!   ([`FrontendConfig::trust_tenant_assertion`](crate::FrontendConfig)),
//!   so backend-side quotas and weighted fairness still apply per
//!   tenant.
//! * **Placement** — requests are consistent-hashed by
//!   `(model fingerprint, seed / seed_range)` onto the backend fleet
//!   via rendezvous hashing ([`BackendPool`](crate::backend)): identical
//!   keys always land on the same node's `SnapshotCache` (cache
//!   locality for free), and a backend loss moves only that backend's
//!   keys.
//! * **Verbatim relay** — reply frames (`OK GEN` + payload, `OK SUB`,
//!   `EVT`/`END` streams, backend `ERR`s) are forwarded byte-for-byte;
//!   the router parses headers only for bookkeeping, never re-encodes a
//!   payload, so a generation through the router is bit-identical to
//!   one served directly.
//! * **Failover** — `GEN` is idempotent (generation is deterministic by
//!   construction), so a `GEN` pending on a backend that dies is
//!   re-placed on the surviving fleet with bounded backoff
//!   ([`RouterConfig::gen_retries`]); an in-flight `SUB` stream cannot
//!   be replayed transparently (frames already reached the client) and
//!   terminates with a clean `ERR backend-unavailable tag=…` instead —
//!   the connection stays usable.
//! * **Aggregation** — `STATS`/`MODELS`/`METRICS` fan out to every
//!   reachable backend and come back as one reply: per-tenant counters
//!   summed across nodes, the model listing deduplicated, Prometheus
//!   series summed and merged with the router's own registry.
//!
//! The concurrency model is **one session per client connection**, each
//! running its own small non-blocking event loop on a private
//! [`vrdag_poll`] poller that watches the client socket plus that
//! session's lazily-dialed backend connections. Because backend
//! connections are per-session, tags never collide across clients and
//! nothing needs rewriting — the relay stays verbatim — while within a
//! session everything is single-threaded: no locks on the data path, a
//! full client outbox pauses backend reads (and vice versa), exactly
//! the reactor's backpressure discipline at one connection's scale.

use crate::backend::{hash_bytes, BackendPool};
use crate::protocol::{
    parse_reply, parse_request, EndStatus, ErrorCode, GenSpec, ProtocolError, ReplyHeader, Request,
    WireFormat, MAX_LINE_BYTES,
};
use crate::reactor::{salvage_tag, LineScanner, ScanLine};
use crate::tenant::{TenantRegistry, ANONYMOUS_TENANT};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use vrdag_obs::{mint_trace_id, Counter, Gauge, Histogram, Logger, Registry, Span, SpanRecorder};
use vrdag_poll::{connect_ready, create, raw_fd, Backend, Event, Interest, Poller, Waker};

/// Per-direction buffered-byte cap of a session. A peer that stops
/// reading pauses the opposite direction at this bound instead of
/// growing an unbounded queue in router memory.
const MAX_BUFFER: usize = 1 << 20;

/// Poll timeout of the accept loop and every session loop — the
/// latency bound on noticing the stop flag.
const TICK: Duration = Duration::from_millis(100);

/// How long a `QUIT` waits for in-flight relays to drain before the
/// session answers `OK BYE` anyway (mirrors the reactor's drain bound).
const QUIT_DRAIN: Duration = Duration::from_secs(60);

/// Construction-time knobs of a [`Router`].
pub struct RouterConfig {
    /// Tenant registry for client-side `AUTH` termination. With no
    /// tokens configured the router serves anonymously and relays
    /// without a tenant assertion.
    pub tenants: TenantRegistry,
    /// `GEN`/`SUB` relays one client connection may keep in flight.
    /// Higher than a single node's default: one session multiplexes
    /// over many backend connections, each with its own backend-side
    /// cap that still applies per hop.
    pub max_inflight_per_conn: usize,
    /// How many times a pending idempotent `GEN` is re-placed after its
    /// backend dies before the client sees `ERR backend-unavailable`.
    pub gen_retries: u32,
    /// Backoff before retry attempt `n` is `retry_backoff * n` —
    /// bounded by `gen_retries`, so the worst case adds
    /// `backoff * retries * (retries + 1) / 2` of delay.
    pub retry_backoff: Duration,
    /// Deadline for dialing a backend (and for the startup `MODELS`
    /// fingerprint probe).
    pub dial_timeout: Duration,
    /// Width of the seed bucket in the placement key (`seed /
    /// seed_range`): consecutive seeds within one bucket share a
    /// backend (cache locality), buckets fan out.
    pub seed_range: u64,
    /// Readiness backend for the accept loop and every session loop.
    pub poller: Backend,
    pub logger: Logger,
    /// The router's own metrics registry (`vrdag_route_*`; also the
    /// local half of an aggregated `METRICS` reply).
    pub metrics: Registry,
    /// Ring of completed relay [`Span`]s — one per routed `GEN`/`SUB`,
    /// keyed by the trace id the router mints and stamps on the
    /// internal hop (the owning backend records its serve-tier span
    /// under the same id). Feed it to an HTTP listener's `/traces`
    /// endpoint by cloning the handle.
    pub spans: SpanRecorder,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            tenants: TenantRegistry::default(),
            max_inflight_per_conn: 256,
            gen_retries: 2,
            retry_backoff: Duration::from_millis(50),
            dial_timeout: Duration::from_secs(2),
            seed_range: 16,
            poller: Backend::Auto,
            logger: Logger::default(),
            metrics: Registry::default(),
            spans: SpanRecorder::default(),
        }
    }
}

/// State shared by the acceptor and every session.
struct Shared {
    pool: BackendPool,
    tenants: TenantRegistry,
    logger: Logger,
    metrics: Registry,
    /// Model name → artifact fingerprint, learned from backend `MODELS`
    /// listings (startup probe + every aggregated `MODELS`). Placement
    /// falls back to hashing the name until a fingerprint is known.
    fingerprints: Mutex<HashMap<String, u64>>,
    relay_seconds: Histogram,
    retries: Counter,
    relayed_frames: Counter,
    spans: SpanRecorder,
    open: AtomicUsize,
    open_gauge: Gauge,
    stop: AtomicBool,
    max_inflight: usize,
    gen_retries: u32,
    retry_backoff: Duration,
    dial_timeout: Duration,
    poller: Backend,
}

/// The routing front tier. Binds a listener, probes the backends for
/// model fingerprints, and serves each accepted client connection on
/// its own session thread until [`shutdown`](Router::shutdown) (or
/// drop).
pub struct Router {
    local_addr: SocketAddr,
    waker: Waker,
    accept: Option<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
}

impl Router {
    /// Bind `addr` and route onto `backends`. The backends are probed
    /// synchronously (bounded by [`RouterConfig::dial_timeout`] each)
    /// for their model fingerprints; an unreachable backend starts
    /// *down* and is re-probed on demand, so the router comes up even
    /// with a partially-dead fleet.
    pub fn bind(
        addr: impl ToSocketAddrs,
        backends: Vec<SocketAddr>,
        cfg: RouterConfig,
    ) -> io::Result<Router> {
        if backends.is_empty() {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs >= 1 backend"));
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let pool = BackendPool::new(backends, cfg.seed_range, &cfg.metrics);
        crate::publish_build_info(&cfg.metrics);
        let shared = Arc::new(Shared {
            tenants: cfg.tenants,
            logger: cfg.logger,
            fingerprints: Mutex::new(HashMap::new()),
            relay_seconds: cfg.metrics.histogram("vrdag_route_relay_seconds", &[]),
            retries: cfg.metrics.counter("vrdag_route_retries_total", &[]),
            relayed_frames: cfg.metrics.counter("vrdag_route_relayed_frames_total", &[]),
            spans: cfg.spans,
            open: AtomicUsize::new(0),
            open_gauge: cfg.metrics.gauge("vrdag_route_open_connections", &[]),
            stop: AtomicBool::new(false),
            max_inflight: cfg.max_inflight_per_conn.max(1),
            gen_retries: cfg.gen_retries,
            retry_backoff: cfg.retry_backoff,
            dial_timeout: cfg.dial_timeout,
            poller: cfg.poller,
            metrics: cfg.metrics,
            pool,
        });
        shared.open_gauge.set(0);
        for slot in 0..shared.pool.len() {
            probe_backend(&shared, slot);
        }
        shared.logger.info(
            "serve.router",
            "routing",
            &[
                ("addr", local_addr.to_string()),
                ("backends", shared.pool.len().to_string()),
                ("up", shared.pool.up_count().to_string()),
            ],
        );
        let mut poller = create(shared.poller)?;
        let waker = poller.waker();
        poller.register(raw_fd(&listener), 0, Interest::READABLE)?;
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("vrdag-route-accept".to_string())
            .spawn(move || accept_loop(listener, poller, accept_shared))
            .expect("spawn router accept thread");
        Ok(Router { local_addr, waker, accept: Some(accept), shared })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Client connections currently being served.
    pub fn open_connections(&self) -> usize {
        self.shared.open.load(Ordering::SeqCst)
    }

    /// Health of backend `slot`, as placement currently sees it.
    pub fn backend_up(&self, slot: usize) -> bool {
        self.shared.pool.get(slot).is_up()
    }

    /// The router's own metrics registry (`vrdag_route_*`).
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// The ring of completed relay spans this router records into (a
    /// clone of [`RouterConfig::spans`]).
    pub fn spans(&self) -> &SpanRecorder {
        &self.shared.spans
    }

    /// Readiness: can the router place a request right now? True while
    /// at least one backend is up — the `/readyz` predicate.
    pub fn ready(&self) -> bool {
        self.shared.pool.up_count() >= 1
    }

    /// The aggregated Prometheus exposition: every reachable backend's
    /// `METRICS` payload merged (series summed), plus the router's own
    /// registry — the same bytes a wire `METRICS` command returns, for
    /// the HTTP `/metrics` endpoint. Blocks on one round trip per up
    /// backend (bounded by [`RouterConfig::dial_timeout`] each).
    pub fn metrics_text(&self) -> String {
        let mut texts: Vec<String> = Vec::new();
        for slot in 0..self.shared.pool.len() {
            let meta = self.shared.pool.get(slot);
            if !meta.is_up() {
                continue;
            }
            match blocking_round_trip(&self.shared, slot, b"METRICS\n") {
                Ok((ReplyHeader::Metrics { .. }, payload)) => {
                    if let Ok(text) = String::from_utf8(payload) {
                        texts.push(text);
                    }
                }
                Ok(_) => {}
                Err(_) => {
                    meta.note_dial_failure();
                    meta.mark_down();
                }
            }
        }
        // The router's own registry joins the merge as one more input
        // (instead of being appended raw) so families registered on
        // both sides — `vrdag_build_info` — stay a single family with
        // a single (summed) sample, a valid exposition.
        texts.push(self.shared.metrics.render());
        let refs: Vec<&str> = texts.iter().map(String::as_str).collect();
        merge_prometheus(&refs)
    }

    /// Stop accepting, wake the acceptor, and wait (bounded) for the
    /// session threads to notice the flag and finish. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.shared.open.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One blocking request/reply round trip against backend `slot` on a
/// fresh connection, bounded by the dial timeout in each direction.
/// Shared by the startup fingerprint probe and the HTTP `/metrics`
/// fan-out — neither runs on a session's event loop.
fn blocking_round_trip(
    shared: &Shared,
    slot: usize,
    request: &[u8],
) -> io::Result<(ReplyHeader, Vec<u8>)> {
    let meta = shared.pool.get(slot);
    let stream = TcpStream::connect_timeout(&meta.addr(), shared.dial_timeout)?;
    stream.set_read_timeout(Some(shared.dial_timeout))?;
    stream.set_write_timeout(Some(shared.dial_timeout))?;
    let _ = stream.set_nodelay(true);
    let mut stream = stream;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while byte[0] != b'\n' {
        if raw.len() > MAX_LINE_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "oversized reply header"));
        }
        stream.read_exact(&mut byte)?;
        raw.push(byte[0]);
    }
    let line = std::str::from_utf8(&raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-utf8 reply"))?;
    let header = parse_reply(line.trim_end())
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let mut payload = vec![0u8; header.payload_bytes()];
    stream.read_exact(&mut payload)?;
    let _ = stream.write_all(b"QUIT\n");
    Ok((header, payload))
}

/// Startup/recovery fingerprint probe: one blocking `MODELS` round trip
/// against backend `slot`. Marks the backend's health from the outcome.
fn probe_backend(shared: &Shared, slot: usize) {
    let meta = shared.pool.get(slot);
    let outcome = blocking_round_trip(shared, slot, b"MODELS\n").map(|(header, payload)| {
        if let ReplyHeader::Models { .. } = header {
            learn_fingerprints(shared, &payload);
        }
    });
    match outcome {
        Ok(()) => meta.mark_up(),
        Err(e) => {
            meta.note_dial_failure();
            meta.mark_down();
            shared.logger.warn(
                "serve.router",
                "backend probe failed",
                &[("backend", meta.addr().to_string()), ("error", e.to_string())],
            );
        }
    }
}

/// Harvest `name … fingerprint=<hex>` pairs from a `MODELS` payload.
fn learn_fingerprints(shared: &Shared, payload: &[u8]) {
    let Ok(text) = std::str::from_utf8(payload) else { return };
    let mut map = shared.fingerprints.lock().expect("fingerprint map poisoned");
    for line in text.lines() {
        let mut tokens = line.split_whitespace();
        let Some(name) = tokens.next() else { continue };
        for token in tokens {
            if let Some(hex) = token.strip_prefix("fingerprint=") {
                if let Ok(fp) = u64::from_str_radix(hex, 16) {
                    map.insert(name.to_string(), fp);
                }
            }
        }
    }
}

fn accept_loop(listener: TcpListener, mut poller: Box<dyn Poller>, shared: Arc<Shared>) {
    let mut events: Vec<Event> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        if poller.poll(&mut events, Some(TICK)).is_err() {
            std::thread::sleep(TICK);
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, peer)) => {
                    let session_shared = Arc::clone(&shared);
                    let count = shared.open.fetch_add(1, Ordering::SeqCst) + 1;
                    shared.open_gauge.set(count as u64);
                    let spawned = std::thread::Builder::new()
                        .name("vrdag-route-session".to_string())
                        .spawn(move || {
                            let _ = stream.set_nodelay(true);
                            let shared_for_exit = Arc::clone(&session_shared);
                            if let Ok(session) = Session::new(stream, session_shared) {
                                session.run();
                            }
                            let left = shared_for_exit.open.fetch_sub(1, Ordering::SeqCst) - 1;
                            shared_for_exit.open_gauge.set(left as u64);
                        });
                    if spawned.is_err() {
                        let left = shared.open.fetch_sub(1, Ordering::SeqCst) - 1;
                        shared.open_gauge.set(left as u64);
                    }
                    let _ = peer;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    std::thread::sleep(TICK);
                    break;
                }
            }
        }
    }
}

/// A reply frame read off a backend connection: the raw header line
/// exactly as received (relay is verbatim), its parse, and the payload.
struct BackendFrame {
    raw: String,
    header: ReplyHeader,
    payload: Vec<u8>,
}

/// Incremental frame reassembler for the backend side of the relay.
/// Unlike the request side, reply frames carry length-prefixed payloads
/// whose bytes may contain `\n`, so this scanner alternates between
/// line mode (headers) and counted mode (payloads).
#[derive(Default)]
struct FrameScanner {
    buf: Vec<u8>,
    pending: Option<(String, ReplyHeader)>,
}

impl FrameScanner {
    fn feed(&mut self, chunk: &[u8], out: &mut Vec<BackendFrame>) -> Result<(), String> {
        self.buf.extend_from_slice(chunk);
        loop {
            if let Some((_, header)) = &self.pending {
                let need = header.payload_bytes();
                if self.buf.len() < need {
                    return Ok(());
                }
                let payload: Vec<u8> = self.buf.drain(..need).collect();
                let (raw, header) = self.pending.take().expect("pending frame vanished");
                out.push(BackendFrame { raw, header, payload });
                continue;
            }
            let Some(nl) = self.buf.iter().position(|&b| b == b'\n') else {
                if self.buf.len() > MAX_LINE_BYTES {
                    return Err("oversized reply header from backend".to_string());
                }
                return Ok(());
            };
            let line_bytes: Vec<u8> = self.buf.drain(..=nl).collect();
            let line = std::str::from_utf8(&line_bytes[..nl])
                .map_err(|_| "non-utf8 reply header from backend".to_string())?
                .trim_end_matches('\r')
                .to_string();
            if line.is_empty() {
                continue;
            }
            let header = parse_reply(&line).map_err(|e| e.to_string())?;
            if header.payload_bytes() > 0 {
                self.pending = Some((line, header));
            } else {
                out.push(BackendFrame { raw: line, header, payload: Vec::new() });
            }
        }
    }
}

/// One lazily-dialed backend connection of a session.
struct BackendConn {
    stream: TcpStream,
    scanner: FrameScanner,
    out: Vec<u8>,
    out_pos: usize,
    interest: Interest,
}

impl BackendConn {
    fn new(stream: TcpStream) -> BackendConn {
        BackendConn {
            stream,
            scanner: FrameScanner::default(),
            out: Vec::new(),
            out_pos: 0,
            interest: Interest::READABLE,
        }
    }

    fn buffered(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// What a relayed tagged request is, for failover bookkeeping.
enum EntryKind {
    /// Idempotent; `line` is the internal-hop request line for replay.
    Gen { line: String, attempts: u32 },
    /// Not replayable once frames may have reached the client.
    Sub,
}

/// One in-flight tagged relay.
struct Entry {
    slot: usize,
    kind: EntryKind,
    t0: Instant,
    /// Trace id minted by this router and stamped on the internal hop;
    /// the relay span records under it at the terminal frame.
    trace: String,
    model: String,
    seed: u64,
    /// Milliseconds spent acquiring a backend (dial + failover
    /// re-dials), accumulated across retries.
    dial_ms: f64,
}

/// One in-flight *untagged* `GEN`. Untagged replies carry no tag to
/// match on, so completion is matched by the `(model, t, seed, fmt)`
/// echo in the `OK GEN` header (deterministic generation makes jobs
/// with identical coordinates interchangeable); an untagged `ERR`
/// resolves the oldest entry on that backend.
struct UntaggedGen {
    slot: usize,
    line: String,
    attempts: u32,
    model: String,
    t_len: usize,
    seed: u64,
    fmt: WireFormat,
    t0: Instant,
    trace: String,
    dial_ms: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum AggKind {
    Stats,
    Metrics,
    Models,
}

/// One backend's contribution to a fan-out reply.
enum Part {
    Waiting,
    Payload(Vec<u8>),
    /// Unreachable, or answered with an `ERR`; carries the note shown
    /// in the aggregate.
    Down(String),
}

/// A `STATS`/`MODELS`/`METRICS` fan-out in progress.
struct Aggregate {
    kind: AggKind,
    client_tag: Option<String>,
    parts: Vec<Part>,
    remaining: usize,
}

/// One client connection's relay loop. Owns a private poller watching
/// the client socket (token 0) and this session's backend connections
/// (token = slot + 1); everything is single-threaded.
struct Session {
    shared: Arc<Shared>,
    poller: Box<dyn Poller>,
    client: TcpStream,
    scanner: LineScanner,
    out: Vec<u8>,
    out_pos: usize,
    client_interest: Interest,
    conns: Vec<Option<BackendConn>>,
    inflight: HashMap<String, Entry>,
    untagged: Vec<UntaggedGen>,
    aggs: HashMap<u64, Aggregate>,
    /// Internal aggregate tag → (aggregate id, slot).
    agg_pending: HashMap<String, (u64, usize)>,
    next_agg: u64,
    /// Counter behind server-assigned `~<n>` SUB tags (mirrors the
    /// reactor's numbering so a session through the router hands out
    /// the same tags a direct connection would).
    auto_tag: u64,
    /// Counter behind internal `~a<n>` aggregate probe tags.
    agg_tag: u64,
    authed: bool,
    tenant_id: String,
    draining: Option<Instant>,
    drain_tag: Option<String>,
    closing: bool,
}

impl Session {
    fn new(client: TcpStream, shared: Arc<Shared>) -> io::Result<Session> {
        client.set_nonblocking(true)?;
        let mut poller = create(shared.poller)?;
        poller.register(raw_fd(&client), 0, Interest::READABLE)?;
        let slots = shared.pool.len();
        Ok(Session {
            poller,
            client,
            scanner: LineScanner::default(),
            out: Vec::new(),
            out_pos: 0,
            client_interest: Interest::READABLE,
            conns: (0..slots).map(|_| None).collect(),
            inflight: HashMap::new(),
            untagged: Vec::new(),
            aggs: HashMap::new(),
            agg_pending: HashMap::new(),
            next_agg: 0,
            auto_tag: 0,
            agg_tag: 0,
            authed: false,
            tenant_id: ANONYMOUS_TENANT.to_string(),
            draining: None,
            drain_tag: None,
            closing: false,
            shared,
        })
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                return;
            }
            if self.poller.poll(&mut events, Some(TICK)).is_err() {
                return;
            }
            let fired: Vec<Event> = events.clone();
            for ev in fired {
                if ev.token == 0 {
                    if ev.writable && self.flush_client().is_err() {
                        return;
                    }
                    if ev.readable {
                        match self.read_client() {
                            Ok(true) => {}
                            // EOF or transport failure: drop everything;
                            // the backends observe their conns closing
                            // and cancel in-flight work themselves.
                            Ok(false) | Err(_) => return,
                        }
                    }
                } else {
                    let slot = ev.token - 1;
                    if self.conns.get(slot).is_some_and(Option::is_some) {
                        if ev.writable {
                            if let Err(e) = self.flush_backend(slot) {
                                self.backend_failed(slot, &e.to_string());
                            }
                        }
                        if self.conns[slot].is_some() && ev.readable {
                            if let Err(e) = self.read_backend(slot) {
                                self.backend_failed(slot, &e.to_string());
                            }
                        }
                    }
                }
            }
            self.check_drain();
            if self.flush_client().is_err() {
                return;
            }
            if self.closing && self.buffered_client() == 0 {
                return;
            }
            if self.update_interests().is_err() {
                return;
            }
        }
    }

    // ----- byte plumbing ---------------------------------------------------

    fn buffered_client(&self) -> usize {
        self.out.len() - self.out_pos
    }

    fn push_client_bytes(&mut self, bytes: &[u8]) {
        self.out.extend_from_slice(bytes);
    }

    /// Queue a router-originated reply frame to the client.
    fn push_reply(&mut self, header: ReplyHeader, payload: &[u8]) {
        let line = header.to_line();
        self.out.reserve(line.len() + 1 + payload.len());
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.out.extend_from_slice(payload);
    }

    fn push_err(&mut self, code: ErrorCode, tag: Option<String>, message: impl Into<String>) {
        self.push_reply(ReplyHeader::Err { code, tag, message: message.into() }, &[]);
    }

    fn flush_client(&mut self) -> io::Result<()> {
        while self.out_pos < self.out.len() {
            match self.client.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        Ok(())
    }

    fn flush_backend(&mut self, slot: usize) -> io::Result<()> {
        let Some(conn) = self.conns[slot].as_mut() else { return Ok(()) };
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if conn.out_pos == conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
        }
        Ok(())
    }

    /// Recompute and apply per-fd interest: writable only while bytes
    /// are queued, readable only while the opposite direction has room
    /// (cross-hop backpressure).
    fn update_interests(&mut self) -> io::Result<()> {
        let client_room = self.buffered_client() < MAX_BUFFER;
        let backend_room =
            self.conns.iter().flatten().map(BackendConn::buffered).sum::<usize>() < MAX_BUFFER;
        let want = Interest {
            readable: !self.closing && self.draining.is_none() && backend_room,
            writable: self.buffered_client() > 0,
        };
        if want != self.client_interest {
            self.poller.reregister(raw_fd(&self.client), 0, want)?;
            self.client_interest = want;
        }
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else { continue };
            let want = Interest { readable: client_room, writable: conn.out_pos < conn.out.len() };
            if want != conn.interest {
                // A backend re-register failure is that backend's
                // problem, not the session's.
                if self.poller.reregister(raw_fd(&conn.stream), slot + 1, want).is_ok() {
                    conn.interest = want;
                } else {
                    self.backend_failed(slot, "poller re-registration failed");
                }
            }
        }
        Ok(())
    }

    // ----- client side -----------------------------------------------------

    /// Drain readable client bytes; `Ok(false)` means EOF.
    fn read_client(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.closing || self.draining.is_some() {
                return Ok(true);
            }
            match self.client.read(&mut chunk) {
                Ok(0) => return Ok(false),
                Ok(n) => {
                    let mut lines: Vec<ScanLine> = Vec::new();
                    self.scanner.feed(&chunk[..n], |line| lines.push(line));
                    for line in lines {
                        self.handle_client_line(line);
                        if self.closing || self.draining.is_some() {
                            return Ok(true);
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
            if self.buffered_client() >= MAX_BUFFER {
                return Ok(true);
            }
        }
    }

    fn handle_client_line(&mut self, line: ScanLine) {
        let parsed = match line {
            ScanLine::TooLong { len } => {
                let e = ProtocolError::LineTooLong { len };
                self.push_err(e.code(), None, e.to_string());
                return;
            }
            ScanLine::Line(raw) => match String::from_utf8(raw) {
                Err(_) => {
                    let e = ProtocolError::NotUtf8;
                    self.push_err(e.code(), None, e.to_string());
                    return;
                }
                Ok(text) => match parse_request(&text) {
                    Err(ProtocolError::Empty) => return,
                    Err(e) => {
                        self.push_err(e.code(), salvage_tag(&text), e.to_string());
                        return;
                    }
                    Ok(req) => req,
                },
            },
        };
        let needs_auth = self.shared.tenants.auth_enabled() && !self.authed;
        if needs_auth && !matches!(parsed, Request::Auth { .. }) {
            self.push_err(ErrorCode::AuthRequired, None, "authenticate first: AUTH token=<token>");
            self.closing = true;
            return;
        }
        match parsed {
            Request::Auth { token, tag } => self.handle_auth(token, tag),
            Request::Gen(spec) => self.route_gen(spec),
            Request::Sub(spec) => self.route_sub(spec),
            Request::Cancel { tag } => self.handle_cancel(tag),
            Request::Stats { tag } => self.start_aggregate(AggKind::Stats, tag),
            Request::Metrics { tag } => self.start_aggregate(AggKind::Metrics, tag),
            Request::Models { tag } => self.start_aggregate(AggKind::Models, tag),
            Request::Ping { tag } => self.push_reply(ReplyHeader::Pong { tag }, &[]),
            Request::Quit { tag } => {
                self.draining = Some(Instant::now() + QUIT_DRAIN);
                self.drain_tag = tag;
            }
        }
    }

    fn handle_auth(&mut self, token: String, tag: Option<String>) {
        if !self.shared.tenants.auth_enabled() {
            self.push_reply(ReplyHeader::Auth { tag, tenant: self.tenant_id.clone() }, &[]);
            return;
        }
        if self.authed {
            self.push_err(ErrorCode::BadRequest, tag, "connection is already authenticated");
            return;
        }
        match self.shared.tenants.authenticate(&token) {
            Some(tenant) => {
                let id = tenant.id().to_string();
                self.shared.logger.info(
                    "serve.router",
                    "connection authenticated",
                    &[("tenant", id.clone())],
                );
                self.tenant_id = id.clone();
                self.authed = true;
                self.push_reply(ReplyHeader::Auth { tag, tenant: id }, &[]);
            }
            None => {
                self.shared.logger.warn("serve.router", "auth failed: invalid token", &[]);
                self.push_err(ErrorCode::AuthFailed, tag, "invalid token");
                self.closing = true;
            }
        }
    }

    fn inflight_total(&self) -> usize {
        self.inflight.len() + self.untagged.len()
    }

    /// The placement key of `(model, seed)`: fingerprint when known,
    /// name hash until then (converges once any `MODELS` listing has
    /// been seen).
    fn placement_key(&self, model: &str, seed: u64) -> u64 {
        let model_key = self
            .shared
            .fingerprints
            .lock()
            .expect("fingerprint map poisoned")
            .get(model)
            .copied()
            .unwrap_or_else(|| hash_bytes(model.as_bytes()));
        self.shared.pool.request_key(model_key, seed)
    }

    /// Dial backend `slot` if this session has no connection to it yet.
    fn ensure_conn(&mut self, slot: usize) -> io::Result<()> {
        if self.conns[slot].is_some() {
            return Ok(());
        }
        let meta = Arc::clone(self.shared.pool.get(slot));
        match connect_ready(&meta.addr(), self.shared.dial_timeout) {
            Ok(stream) => {
                self.poller.register(raw_fd(&stream), slot + 1, Interest::READABLE)?;
                self.conns[slot] = Some(BackendConn::new(stream));
                meta.mark_up();
                Ok(())
            }
            Err(e) => {
                meta.note_dial_failure();
                meta.mark_down();
                self.shared.logger.warn(
                    "serve.router",
                    "backend dial failed",
                    &[("backend", meta.addr().to_string()), ("error", e.to_string())],
                );
                Err(e)
            }
        }
    }

    /// Pick (and connect) the backend for `key`: the full-fleet
    /// placement when that node is up (or probes back up), otherwise
    /// rendezvous over the healthy subset.
    fn acquire_backend(&mut self, key: u64, exclude: Option<usize>) -> Option<usize> {
        if exclude.is_none() {
            if let Some(home) = self.shared.pool.place(key) {
                let meta = self.shared.pool.get(home);
                if (meta.is_up() || meta.take_reprobe_slot()) && self.ensure_conn(home).is_ok() {
                    return Some(home);
                }
            }
        }
        // Each failed dial marks its backend down, shrinking the
        // healthy set, so this terminates within pool-size attempts.
        for _ in 0..self.shared.pool.len() {
            let slot = self.shared.pool.place_healthy(key, exclude)?;
            if self.ensure_conn(slot).is_ok() {
                return Some(slot);
            }
        }
        None
    }

    /// Queue `line` on backend `slot` and flush eagerly; a write
    /// failure routes through the failover path (which sees whatever
    /// entry the caller just recorded).
    fn send_backend(&mut self, slot: usize, line: &str) {
        if let Some(conn) = self.conns[slot].as_mut() {
            conn.out.reserve(line.len() + 1);
            conn.out.extend_from_slice(line.as_bytes());
            conn.out.push(b'\n');
        }
        if let Err(e) = self.flush_backend(slot) {
            self.backend_failed(slot, &e.to_string());
        }
    }

    /// Reject a client-stamped `trace=` (the same trust rule as
    /// `tenant=`: it is an internal-hop assertion, and the client side
    /// of the router is never an internal hop), then mint the request's
    /// trace id — the router is the first tier to see the request.
    fn resolve_trace(&mut self, asserted: &Option<String>, tag: Option<&str>) -> Option<String> {
        if asserted.is_some() {
            self.push_err(
                ErrorCode::InvalidRequest,
                tag.map(str::to_string),
                "trace= is an internal-hop assertion; this frontend does not trust it",
            );
            return None;
        }
        Some(mint_trace_id())
    }

    /// Record the router's relay span of one finished request: `dial`
    /// (backend acquisition, including failover re-dials), `relay`
    /// (request dispatched → terminal frame), `total`.
    #[allow(clippy::too_many_arguments)]
    fn record_route_span(
        &self,
        trace: &str,
        model: &str,
        seed: u64,
        outcome: &'static str,
        slot: Option<usize>,
        dial_ms: f64,
        t0: Instant,
    ) {
        let model_fp =
            self.shared.fingerprints.lock().expect("fingerprint map poisoned").get(model).copied();
        let relay_ms = t0.elapsed().as_secs_f64() * 1e3;
        self.shared.spans.record(Span {
            trace: trace.to_string(),
            tier: "route",
            parent: None,
            tenant: Some(self.tenant_id.clone()),
            model: model.to_string(),
            model_fp,
            seed,
            outcome,
            backend: slot.map(|s| self.shared.pool.get(s).addr().to_string()),
            stages_ms: vec![("dial", dial_ms), ("relay", relay_ms), ("total", dial_ms + relay_ms)],
        });
    }

    fn route_gen(&mut self, mut spec: GenSpec) {
        if let Some(tag) = &spec.tag {
            if self.inflight.contains_key(tag) || self.agg_pending.contains_key(tag) {
                let message = format!("tag {tag} is already in flight on this connection");
                self.push_err(ErrorCode::DuplicateTag, Some(tag.clone()), message);
                return;
            }
        }
        if self.inflight_total() >= self.shared.max_inflight {
            let message =
                format!("inflight={} cap={}", self.inflight_total(), self.shared.max_inflight);
            self.push_err(ErrorCode::TooManyInflight, spec.tag.clone(), message);
            return;
        }
        let Some(trace) = self.resolve_trace(&spec.trace, spec.tag.as_deref()) else { return };
        if self.shared.tenants.auth_enabled() {
            spec.tenant = Some(self.tenant_id.clone());
        }
        spec.trace = Some(trace.clone());
        let key = self.placement_key(&spec.model, spec.seed);
        let dial_t0 = Instant::now();
        let Some(slot) = self.acquire_backend(key, None) else {
            let dial_ms = dial_t0.elapsed().as_secs_f64() * 1e3;
            self.record_route_span(
                &trace,
                &spec.model,
                spec.seed,
                "error",
                None,
                dial_ms,
                Instant::now(),
            );
            self.push_err(
                ErrorCode::BackendUnavailable,
                spec.tag.clone(),
                "no healthy backend for this request",
            );
            return;
        };
        let dial_ms = dial_t0.elapsed().as_secs_f64() * 1e3;
        let line = Request::Gen(spec.clone()).to_line();
        let t0 = Instant::now();
        match spec.tag.clone() {
            Some(tag) => {
                let kind = EntryKind::Gen { line: line.clone(), attempts: 0 };
                self.inflight.insert(
                    tag,
                    Entry {
                        slot,
                        kind,
                        t0,
                        trace,
                        model: spec.model.clone(),
                        seed: spec.seed,
                        dial_ms,
                    },
                );
            }
            None => self.untagged.push(UntaggedGen {
                slot,
                line: line.clone(),
                attempts: 0,
                model: spec.model,
                t_len: spec.t_len,
                seed: spec.seed,
                fmt: spec.fmt,
                t0,
                trace,
                dial_ms,
            }),
        }
        self.send_backend(slot, &line);
    }

    fn route_sub(&mut self, mut spec: GenSpec) {
        // The trace assertion is checked first (like the reactor: before
        // the ack or any tag assignment) so a rejected hop never opens
        // a stream and the ERR carries the client's own tag.
        let Some(trace) = self.resolve_trace(&spec.trace, spec.tag.as_deref()) else { return };
        // Tags are assigned at the *router* for untagged SUBs: two
        // backends would otherwise both hand out `~1` on their own
        // connections and collide at the client's demux. The numbering
        // mirrors the reactor's, so the client sees the same tags a
        // direct connection would produce.
        let tag = match spec.tag.clone() {
            Some(tag) => {
                if self.inflight.contains_key(&tag) || self.agg_pending.contains_key(&tag) {
                    let message = format!("tag {tag} is already in flight on this connection");
                    self.push_err(ErrorCode::DuplicateTag, Some(tag), message);
                    return;
                }
                tag
            }
            None => loop {
                self.auto_tag += 1;
                let candidate = format!("~{}", self.auto_tag);
                if !self.inflight.contains_key(&candidate)
                    && !self.agg_pending.contains_key(&candidate)
                {
                    break candidate;
                }
            },
        };
        if self.inflight_total() >= self.shared.max_inflight {
            let message =
                format!("inflight={} cap={}", self.inflight_total(), self.shared.max_inflight);
            self.push_err(ErrorCode::TooManyInflight, Some(tag), message);
            return;
        }
        spec.tag = Some(tag.clone());
        if self.shared.tenants.auth_enabled() {
            spec.tenant = Some(self.tenant_id.clone());
        }
        spec.trace = Some(trace.clone());
        let key = self.placement_key(&spec.model, spec.seed);
        let dial_t0 = Instant::now();
        let Some(slot) = self.acquire_backend(key, None) else {
            let dial_ms = dial_t0.elapsed().as_secs_f64() * 1e3;
            self.record_route_span(
                &trace,
                &spec.model,
                spec.seed,
                "error",
                None,
                dial_ms,
                Instant::now(),
            );
            self.push_err(
                ErrorCode::BackendUnavailable,
                Some(tag),
                "no healthy backend for this request",
            );
            return;
        };
        let dial_ms = dial_t0.elapsed().as_secs_f64() * 1e3;
        let model = spec.model.clone();
        let seed = spec.seed;
        let line = Request::Sub(spec).to_line();
        self.inflight.insert(
            tag,
            Entry { slot, kind: EntryKind::Sub, t0: Instant::now(), trace, model, seed, dial_ms },
        );
        self.send_backend(slot, &line);
    }

    fn handle_cancel(&mut self, tag: String) {
        match self.inflight.get(&tag) {
            // The backend owns the stream's termination: its
            // `OK CANCEL` (and the stream's END) relay back verbatim.
            Some(entry) => {
                let slot = entry.slot;
                let line = Request::Cancel { tag }.to_line();
                self.send_backend(slot, &line);
            }
            None => self.push_reply(ReplyHeader::Cancel { tag, found: false }, &[]),
        }
    }

    // ----- aggregation -----------------------------------------------------

    fn next_internal_tag(&mut self) -> String {
        loop {
            self.agg_tag += 1;
            let candidate = format!("~a{}", self.agg_tag);
            if !self.inflight.contains_key(&candidate) && !self.agg_pending.contains_key(&candidate)
            {
                return candidate;
            }
        }
    }

    fn start_aggregate(&mut self, kind: AggKind, client_tag: Option<String>) {
        let id = self.next_agg;
        self.next_agg += 1;
        let slots = self.shared.pool.len();
        let mut parts: Vec<Part> = Vec::with_capacity(slots);
        let mut sends: Vec<(usize, String)> = Vec::new();
        let mut remaining = 0usize;
        for slot in 0..slots {
            let meta = Arc::clone(self.shared.pool.get(slot));
            let reachable =
                (meta.is_up() || meta.take_reprobe_slot()) && self.ensure_conn(slot).is_ok();
            if reachable {
                let itag = self.next_internal_tag();
                self.agg_pending.insert(itag.clone(), (id, slot));
                sends.push((slot, itag));
                parts.push(Part::Waiting);
                remaining += 1;
            } else {
                parts.push(Part::Down(meta.addr().to_string()));
            }
        }
        self.aggs.insert(id, Aggregate { kind, client_tag, parts, remaining });
        for (slot, itag) in sends {
            let line = match kind {
                AggKind::Stats => format!("STATS tag={itag}"),
                AggKind::Metrics => format!("METRICS tag={itag}"),
                AggKind::Models => format!("MODELS tag={itag}"),
            };
            self.send_backend(slot, &line);
        }
        self.finish_aggregate_if_ready(id);
    }

    fn resolve_aggregate_part(&mut self, itag: &str, part: Part) {
        let Some((id, slot)) = self.agg_pending.remove(itag) else { return };
        if let Some(agg) = self.aggs.get_mut(&id) {
            if matches!(agg.parts[slot], Part::Waiting) {
                agg.parts[slot] = part;
                agg.remaining -= 1;
            }
        }
        self.finish_aggregate_if_ready(id);
    }

    fn finish_aggregate_if_ready(&mut self, id: u64) {
        let done = self.aggs.get(&id).is_some_and(|agg| agg.remaining == 0);
        if !done {
            return;
        }
        let agg = self.aggs.remove(&id).expect("aggregate vanished");
        let payload = match agg.kind {
            AggKind::Stats => render_stats_aggregate(&self.shared.pool, &agg.parts),
            AggKind::Models => {
                // A MODELS sweep doubles as a fingerprint refresh, so
                // placement self-heals after model re-registration.
                for part in &agg.parts {
                    if let Part::Payload(bytes) = part {
                        learn_fingerprints(&self.shared, bytes);
                    }
                }
                render_models_aggregate(&agg.parts)
            }
            AggKind::Metrics => {
                // Own registry merges in as one more input so shared
                // families (`vrdag_build_info`) do not duplicate —
                // mirrors [`Router::metrics_text`] exactly.
                let own = self.shared.metrics.render();
                let texts: Vec<&str> = agg
                    .parts
                    .iter()
                    .filter_map(|p| match p {
                        Part::Payload(bytes) => std::str::from_utf8(bytes).ok(),
                        _ => None,
                    })
                    .chain(std::iter::once(own.as_str()))
                    .collect();
                merge_prometheus(&texts).into_bytes()
            }
        };
        let bytes = payload.len();
        let header = match agg.kind {
            AggKind::Stats => ReplyHeader::Stats { tag: agg.client_tag, bytes },
            AggKind::Metrics => ReplyHeader::Metrics { tag: agg.client_tag, bytes },
            AggKind::Models => ReplyHeader::Models { tag: agg.client_tag, bytes },
        };
        self.push_reply(header, &payload);
    }

    // ----- backend side ----------------------------------------------------

    /// Drain readable bytes from backend `slot`, relaying complete
    /// frames. `Err` means the backend connection is gone.
    fn read_backend(&mut self, slot: usize) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let mut frames: Vec<BackendFrame> = Vec::new();
            {
                let Some(conn) = self.conns[slot].as_mut() else { return Ok(()) };
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::UnexpectedEof,
                            "backend closed the connection",
                        ))
                    }
                    Ok(n) => {
                        conn.scanner
                            .feed(&chunk[..n], &mut frames)
                            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            for frame in frames {
                self.handle_backend_frame(slot, frame);
            }
            if self.buffered_client() >= MAX_BUFFER {
                return Ok(());
            }
        }
    }

    fn handle_backend_frame(&mut self, slot: usize, frame: BackendFrame) {
        if let Some(tag) = frame.header.tag() {
            if self.agg_pending.contains_key(tag) {
                let itag = tag.to_string();
                let part = match &frame.header {
                    ReplyHeader::Err { message, .. } => Part::Down(format!(
                        "{} answered ERR: {message}",
                        self.shared.pool.get(slot).addr()
                    )),
                    _ => Part::Payload(frame.payload),
                };
                self.resolve_aggregate_part(&itag, part);
                return;
            }
        }
        // Everything else relays verbatim: raw header line + payload,
        // exactly as the backend framed them.
        self.push_client_bytes(frame.raw.clone().as_bytes());
        self.push_client_bytes(b"\n");
        self.push_client_bytes(&frame.payload);
        self.shared.relayed_frames.inc();
        // Terminal-frame bookkeeping: observe the relay latency and
        // record the router's relay span under the request's trace id
        // (the backend recorded its serve-tier span under the same id).
        match &frame.header {
            ReplyHeader::Gen { tag: Some(tag), .. } | ReplyHeader::End { tag, .. } => {
                let outcome = match &frame.header {
                    ReplyHeader::End { status: EndStatus::Cancelled, .. } => "cancelled",
                    _ => "ok",
                };
                if let Some(entry) = self.inflight.remove(tag.as_str()) {
                    self.shared.relay_seconds.observe(entry.t0.elapsed().as_secs_f64());
                    self.record_route_span(
                        &entry.trace,
                        &entry.model,
                        entry.seed,
                        outcome,
                        Some(entry.slot),
                        entry.dial_ms,
                        entry.t0,
                    );
                }
            }
            ReplyHeader::Err { tag: Some(tag), .. } => {
                if let Some(entry) = self.inflight.remove(tag.as_str()) {
                    self.shared.relay_seconds.observe(entry.t0.elapsed().as_secs_f64());
                    self.record_route_span(
                        &entry.trace,
                        &entry.model,
                        entry.seed,
                        "error",
                        Some(entry.slot),
                        entry.dial_ms,
                        entry.t0,
                    );
                }
            }
            ReplyHeader::Gen { tag: None, model, t_len, seed, fmt, .. } => {
                if let Some(at) = self.untagged.iter().position(|u| {
                    u.slot == slot
                        && u.model == *model
                        && u.t_len == *t_len
                        && u.seed == *seed
                        && u.fmt == *fmt
                }) {
                    let u = self.untagged.remove(at);
                    self.shared.relay_seconds.observe(u.t0.elapsed().as_secs_f64());
                    self.record_route_span(
                        &u.trace,
                        &u.model,
                        u.seed,
                        "ok",
                        Some(u.slot),
                        u.dial_ms,
                        u.t0,
                    );
                }
            }
            ReplyHeader::Err { tag: None, .. } => {
                // No tag to match: resolve the oldest untagged job on
                // this backend (untagged replies are inherently
                // ambiguous — same as on a direct connection).
                if let Some(at) = self.untagged.iter().position(|u| u.slot == slot) {
                    let u = self.untagged.remove(at);
                    self.shared.relay_seconds.observe(u.t0.elapsed().as_secs_f64());
                    self.record_route_span(
                        &u.trace,
                        &u.model,
                        u.seed,
                        "error",
                        Some(u.slot),
                        u.dial_ms,
                        u.t0,
                    );
                }
            }
            _ => {}
        }
    }

    /// Backend `slot` died: mark it down, fail streams cleanly, retry
    /// idempotent `GEN`s with bounded backoff, and resolve any
    /// aggregate parts it still owed.
    fn backend_failed(&mut self, slot: usize, error: &str) {
        let meta = Arc::clone(self.shared.pool.get(slot));
        meta.mark_down();
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.deregister(raw_fd(&conn.stream), slot + 1);
        }
        self.shared.logger.warn(
            "serve.router",
            "backend connection failed",
            &[("backend", meta.addr().to_string()), ("error", error.to_string())],
        );
        let addr = meta.addr().to_string();
        // Streams: frames may already have reached the client, so the
        // stream cannot be replayed — terminate it cleanly instead.
        let dead_tags: Vec<String> = self
            .inflight
            .iter()
            .filter(|(_, e)| e.slot == slot)
            .map(|(tag, _)| tag.clone())
            .collect();
        for tag in dead_tags {
            let entry = self.inflight.remove(&tag).expect("inflight entry vanished");
            match entry.kind {
                EntryKind::Sub => {
                    self.record_route_span(
                        &entry.trace,
                        &entry.model,
                        entry.seed,
                        "error",
                        Some(slot),
                        entry.dial_ms,
                        entry.t0,
                    );
                    self.push_err(
                        ErrorCode::BackendUnavailable,
                        Some(tag),
                        format!("backend {addr} failed mid-stream; resubscribe to retry"),
                    );
                }
                EntryKind::Gen { line, attempts } => {
                    self.retry_gen(Some(tag), line, attempts, entry.t0, entry.dial_ms, slot);
                }
            }
        }
        let dead_untagged: Vec<UntaggedGen> = {
            let mut kept = Vec::new();
            let mut dead = Vec::new();
            for u in self.untagged.drain(..) {
                if u.slot == slot {
                    dead.push(u);
                } else {
                    kept.push(u);
                }
            }
            self.untagged = kept;
            dead
        };
        for u in dead_untagged {
            self.retry_untagged(u, slot);
        }
        // Aggregate parts this backend still owed become a down note.
        let owed: Vec<String> = self
            .agg_pending
            .iter()
            .filter(|(_, &(_, s))| s == slot)
            .map(|(itag, _)| itag.clone())
            .collect();
        for itag in owed {
            self.resolve_aggregate_part(&itag, Part::Down(format!("{addr} (unreachable)")));
        }
    }

    /// Re-place one tagged `GEN` whose backend died. The backoff sleep
    /// blocks only this session's thread.
    fn retry_gen(
        &mut self,
        tag: Option<String>,
        line: String,
        attempts: u32,
        t0: Instant,
        dial_ms: f64,
        dead: usize,
    ) {
        let attempts = attempts + 1;
        // The internal-hop line carries the trace= stamp, so a replay
        // keeps (and a failure span records) the original trace id.
        let Ok(Request::Gen(spec)) = parse_request(&line) else {
            self.push_err(ErrorCode::Internal, tag, "unreplayable relay line");
            return;
        };
        let trace = spec.trace.clone().unwrap_or_default();
        if attempts > self.shared.gen_retries {
            self.record_route_span(&trace, &spec.model, spec.seed, "error", None, dial_ms, t0);
            self.push_err(
                ErrorCode::BackendUnavailable,
                tag,
                format!("backend failed and retries ({}) are exhausted", self.shared.gen_retries),
            );
            return;
        }
        self.shared.retries.inc();
        std::thread::sleep(self.shared.retry_backoff * attempts);
        let key = self.placement_key(&spec.model, spec.seed);
        let dial_t0 = Instant::now();
        let Some(slot) = self.acquire_backend(key, Some(dead)) else {
            let dial_ms = dial_ms + dial_t0.elapsed().as_secs_f64() * 1e3;
            self.record_route_span(&trace, &spec.model, spec.seed, "error", None, dial_ms, t0);
            self.push_err(
                ErrorCode::BackendUnavailable,
                tag,
                "no healthy backend left for this request",
            );
            return;
        };
        let dial_ms = dial_ms + dial_t0.elapsed().as_secs_f64() * 1e3;
        match tag {
            Some(tag) => {
                let kind = EntryKind::Gen { line: line.clone(), attempts };
                self.inflight.insert(
                    tag,
                    Entry {
                        slot,
                        kind,
                        t0,
                        trace,
                        model: spec.model.clone(),
                        seed: spec.seed,
                        dial_ms,
                    },
                );
            }
            None => self.untagged.push(UntaggedGen {
                slot,
                line: line.clone(),
                attempts,
                model: spec.model,
                t_len: spec.t_len,
                seed: spec.seed,
                fmt: spec.fmt,
                t0,
                trace,
                dial_ms,
            }),
        }
        self.send_backend(slot, &line);
    }

    fn retry_untagged(&mut self, u: UntaggedGen, dead: usize) {
        self.retry_gen(None, u.line, u.attempts, u.t0, u.dial_ms, dead);
    }

    // ----- teardown --------------------------------------------------------

    /// After `QUIT`: once nothing is in flight (or the drain deadline
    /// passes), acknowledge and flush-close.
    fn check_drain(&mut self) {
        let Some(deadline) = self.draining else { return };
        let drained =
            self.inflight_total() == 0 && self.aggs.is_empty() && self.agg_pending.is_empty();
        if drained || Instant::now() >= deadline {
            let tag = self.drain_tag.take();
            self.push_reply(ReplyHeader::Bye { tag }, &[]);
            self.draining = None;
            self.closing = true;
        }
    }
}

// ----- aggregate rendering (pure helpers, unit-tested below) ---------------

/// Counters harvested from one backend's rendered stats payload.
#[derive(Default)]
struct ParsedStats {
    submitted: u64,
    completed: u64,
    cache_hits: u64,
    cache_misses: u64,
    /// id → (submitted, completed, failed, cancelled, rejected, KiB).
    tenants: Vec<(String, [u64; 6])>,
}

/// Why one backend's `STATS` payload could not be summed into the
/// fleet aggregate.
#[derive(Debug, PartialEq)]
enum StatsParseError {
    /// A required summary line is absent.
    MissingLine(&'static str),
    /// A counter on `line` (1-based) is missing or not a number.
    BadCounter { line: usize, field: &'static str, token: String },
}

impl std::fmt::Display for StatsParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsParseError::MissingLine(what) => write!(f, "no `{what}` line"),
            StatsParseError::BadCounter { line, field, token } => {
                write!(f, "line {line}: {field} counter {token:?} is not a number")
            }
        }
    }
}

/// Parse the counters the aggregate sums out of one
/// `ServeStats::render()` payload. The format is our own (stable,
/// loopback-tested); a payload that does not match it is an error, so
/// the aggregate can name the backend instead of summing a silent 0.
fn parse_backend_stats(text: &str) -> Result<ParsedStats, StatsParseError> {
    let mut out = ParsedStats::default();
    let (mut saw_serve, mut saw_cache, mut in_tenants) = (false, false, false);
    for (i, line) in text.lines().enumerate() {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let counter = |idx: usize, field: &'static str| -> Result<u64, StatsParseError> {
            let token = tokens.get(idx).copied().unwrap_or("");
            token.trim_start_matches('(').parse().map_err(|_| StatsParseError::BadCounter {
                line: i + 1,
                field,
                token: token.to_string(),
            })
        };
        if line.starts_with("serve: ") {
            // serve: A submitted / B completed (...)
            out.submitted = counter(1, "submitted")?;
            out.completed = counter(4, "completed")?;
            saw_serve = true;
        } else if tokens.first() == Some(&"cache:") {
            // cache: H hits / M misses (...)
            out.cache_hits = counter(1, "cache hits")?;
            out.cache_misses = counter(4, "cache misses")?;
            saw_cache = true;
        } else if line.trim_end() == "  tenants:" {
            in_tenants = true;
        } else if in_tenants && line.starts_with("    ") {
            // id w=K A submitted / B completed (C failed, D cancelled,
            // E rejected) KIB KiB streamed p50 ...
            let nums = [
                counter(2, "tenant submitted")?,
                counter(5, "tenant completed")?,
                counter(7, "tenant failed")?,
                counter(9, "tenant cancelled")?,
                counter(11, "tenant rejected")?,
                counter(13, "tenant KiB streamed")?,
            ];
            out.tenants.push((tokens[0].to_string(), nums));
        } else if in_tenants {
            in_tenants = false;
        }
    }
    match (saw_serve, saw_cache) {
        (false, _) => Err(StatsParseError::MissingLine("serve:")),
        (_, false) => Err(StatsParseError::MissingLine("cache:")),
        _ => Ok(out),
    }
}

fn render_stats_aggregate(pool: &BackendPool, parts: &[Part]) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut totals = ParsedStats::default();
    let mut tenant_sums: Vec<(String, [u64; 6])> = Vec::new();
    // Backends whose payload did not parse: named in the aggregate and
    // left out of its sums.
    let mut unparsed: Vec<(usize, StatsParseError)> = Vec::new();
    for (slot, part) in parts.iter().enumerate() {
        let Part::Payload(bytes) = part else { continue };
        let stats = match parse_backend_stats(&String::from_utf8_lossy(bytes)) {
            Ok(stats) => stats,
            Err(e) => {
                unparsed.push((slot, e));
                continue;
            }
        };
        totals.submitted += stats.submitted;
        totals.completed += stats.completed;
        totals.cache_hits += stats.cache_hits;
        totals.cache_misses += stats.cache_misses;
        for (id, nums) in stats.tenants {
            match tenant_sums.iter_mut().find(|(i, _)| *i == id) {
                Some((_, acc)) => {
                    for (a, n) in acc.iter_mut().zip(nums) {
                        *a += n;
                    }
                }
                None => tenant_sums.push((id, nums)),
            }
        }
    }
    tenant_sums.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "route: {} backends ({} up)  {} submitted / {} completed across the fleet",
        parts.len(),
        pool.up_count(),
        totals.submitted,
        totals.completed,
    );
    let _ = writeln!(
        out,
        "  cache: {} hits / {} misses fleet-wide",
        totals.cache_hits, totals.cache_misses
    );
    for (slot, err) in &unparsed {
        let addr = pool.get(*slot).addr();
        let _ = writeln!(out, "  unparsed: backend {addr} left out of the totals ({err})");
    }
    if !tenant_sums.is_empty() {
        let _ = writeln!(out, "  tenants (summed across backends):");
        for (id, [submitted, completed, failed, cancelled, rejected, kib]) in &tenant_sums {
            let _ = writeln!(
                out,
                "    {id:<16} {submitted} submitted / {completed} completed ({failed} failed, {cancelled} cancelled, {rejected} rejected)  {kib} KiB streamed",
            );
        }
    }
    for (slot, part) in parts.iter().enumerate() {
        let addr = pool.get(slot).addr();
        match part {
            Part::Payload(bytes) => {
                let _ = writeln!(out, "--- backend {addr} ---");
                out.push_str(&String::from_utf8_lossy(bytes));
                if !out.ends_with('\n') {
                    out.push('\n');
                }
            }
            Part::Down(note) => {
                let _ = writeln!(out, "--- backend {addr} DOWN ({note}) ---");
            }
            Part::Waiting => {
                let _ = writeln!(out, "--- backend {addr} (no reply) ---");
            }
        }
    }
    out.into_bytes()
}

/// Union of the backends' model listings, deduplicated and sorted — on
/// a healthy fleet every backend serves the same models, so the merge
/// is the common listing (a divergent fleet shows the union, which is
/// the honest answer).
fn render_models_aggregate(parts: &[Part]) -> Vec<u8> {
    let mut lines: Vec<String> = Vec::new();
    for part in parts {
        if let Part::Payload(bytes) = part {
            for line in String::from_utf8_lossy(bytes).lines() {
                if !line.trim().is_empty() && !lines.iter().any(|l| l == line) {
                    lines.push(line.to_string());
                }
            }
        }
    }
    lines.sort();
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out.into_bytes()
}

/// Merge Prometheus text expositions by summing series with identical
/// names+labels across backends (counters and histogram buckets sum
/// exactly; summed gauges read as fleet totals). `# TYPE`/`# HELP`
/// comment lines are kept once. Order is first-seen, so the merge of
/// deterministic inputs is deterministic.
fn merge_prometheus(texts: &[&str]) -> String {
    enum Item {
        Comment(String),
        Series(String),
    }
    let mut order: Vec<Item> = Vec::new();
    let mut sums: HashMap<String, f64> = HashMap::new();
    let mut seen_comments: Vec<String> = Vec::new();
    for text in texts {
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            if line.starts_with('#') {
                if !seen_comments.iter().any(|c| c == line) {
                    seen_comments.push(line.to_string());
                    order.push(Item::Comment(line.to_string()));
                }
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            let Ok(v) = value.parse::<f64>() else { continue };
            match sums.get_mut(series) {
                Some(acc) => *acc += v,
                None => {
                    sums.insert(series.to_string(), v);
                    order.push(Item::Series(series.to_string()));
                }
            }
        }
    }
    let mut out = String::new();
    for item in order {
        match item {
            Item::Comment(line) => {
                out.push_str(&line);
                out.push('\n');
            }
            Item::Series(series) => {
                let v = sums[&series];
                out.push_str(&series);
                out.push(' ');
                if v.fract() == 0.0 && v.abs() < 9.0e15 {
                    out.push_str(&format!("{}", v as i64));
                } else {
                    out.push_str(&format!("{v}"));
                }
                out.push('\n');
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_stats_parse_and_sum() {
        let a = "serve: 7 submitted / 6 completed (1 failed, 0 cancelled, 0 dropped) on 2 workers in 1.000s  (peak 2 in flight, 0 queued now)\n  throughput: 12 snapshots / 30 edges total\n  cache: 3 hits / 4 misses (43% hit rate), 0 evictions, 4 entries / 12 KiB resident\n  tenants:\n    gold             w=3  5 submitted / 4 completed (1 failed, 0 cancelled, 0 rejected)  18 KiB streamed  p50 1.00ms p95 2.00ms\n    bronze           w=1  2 submitted / 2 completed (0 failed, 0 cancelled, 2 rejected)  6 KiB streamed  p50 1.00ms p95 2.00ms\n";
        let parsed = parse_backend_stats(a).unwrap();
        assert_eq!(parsed.submitted, 7);
        assert_eq!(parsed.completed, 6);
        assert_eq!(parsed.cache_hits, 3);
        assert_eq!(parsed.cache_misses, 4);
        assert_eq!(parsed.tenants.len(), 2);
        let gold = parsed.tenants.iter().find(|(id, _)| id == "gold").unwrap();
        assert_eq!(gold.1, [5, 4, 1, 0, 0, 18]);
        let bronze = parsed.tenants.iter().find(|(id, _)| id == "bronze").unwrap();
        assert_eq!(bronze.1, [2, 2, 0, 0, 2, 6]);
    }

    #[test]
    fn malformed_backend_stats_are_an_error_named_in_the_aggregate() {
        let good = "serve: 7 submitted / 6 completed (1 failed, 0 cancelled, 0 dropped) on 2 workers in 1.000s  (peak 2 in flight, 0 queued now)\n  cache: 3 hits / 4 misses (43% hit rate), 0 evictions, 4 entries / 12 KiB resident\n";
        let bad = "serve: 7 submitted / many completed (1 failed, 0 cancelled, 0 dropped) on 2 workers in 1.000s  (peak 2 in flight, 0 queued now)\n  cache: 3 hits / 4 misses (43% hit rate), 0 evictions, 4 entries / 12 KiB resident\n";
        assert_eq!(
            parse_backend_stats(bad).err(),
            Some(StatsParseError::BadCounter {
                line: 1,
                field: "completed",
                token: "many".to_string()
            })
        );
        let truncated = "serve: 7 submitted / 6 completed (1 failed, 0 cancelled, 0 dropped)\n  cache: 3 hits\n";
        assert!(matches!(
            parse_backend_stats(truncated),
            Err(StatsParseError::BadCounter { line: 2, field: "cache misses", .. })
        ));
        assert_eq!(
            parse_backend_stats("hello\n").err(),
            Some(StatsParseError::MissingLine("serve:"))
        );

        let addrs: Vec<SocketAddr> =
            vec!["127.0.0.1:7001".parse().unwrap(), "127.0.0.1:7002".parse().unwrap()];
        let pool = BackendPool::new(addrs, 1, &Registry::new());
        let parts =
            [Part::Payload(good.as_bytes().to_vec()), Part::Payload(bad.as_bytes().to_vec())];
        let text = String::from_utf8(render_stats_aggregate(&pool, &parts)).unwrap();
        // Only the parsed backend is summed; the other is named, not zeroed.
        assert!(text.starts_with("route: 2 backends (2 up)  7 submitted / 6 completed"), "{text}");
        assert!(
            text.contains(
                "  unparsed: backend 127.0.0.1:7002 left out of the totals (line 1: completed counter \"many\" is not a number)"
            ),
            "{text}"
        );
        assert!(!text.contains("backend 127.0.0.1:7001 left out"), "{text}");
    }

    #[test]
    fn prometheus_merge_sums_series_and_keeps_comments_once() {
        let a = "# TYPE vrdag_jobs_total counter\nvrdag_jobs_total{outcome=\"ok\"} 3\nvrdag_open_connections 1\n";
        let b = "# TYPE vrdag_jobs_total counter\nvrdag_jobs_total{outcome=\"ok\"} 4\nvrdag_open_connections 2\nvrdag_jobs_total{outcome=\"failed\"} 1\n";
        let merged = merge_prometheus(&[a, b]);
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(
            lines,
            vec![
                "# TYPE vrdag_jobs_total counter",
                "vrdag_jobs_total{outcome=\"ok\"} 7",
                "vrdag_open_connections 3",
                "vrdag_jobs_total{outcome=\"failed\"} 1",
            ]
        );
        // Merging is value-summing, never value-concatenating: floats
        // survive with their fractional part.
        let merged = merge_prometheus(&["x_sum 0.5\n", "x_sum 0.25\n"]);
        assert_eq!(merged, "x_sum 0.75\n");
    }

    #[test]
    fn models_aggregate_dedups_identical_listings() {
        let line = "email nodes=12 attrs=3 size=4096 fingerprint=00000000deadbeef";
        let parts = vec![
            Part::Payload(format!("{line}\n").into_bytes()),
            Part::Payload(format!("{line}\n").into_bytes()),
        ];
        let merged = String::from_utf8(render_models_aggregate(&parts)).unwrap();
        assert_eq!(merged, format!("{line}\n"));
    }

    #[test]
    fn frame_scanner_reassembles_split_payloads() {
        let mut scanner = FrameScanner::default();
        let mut frames = Vec::new();
        // A payload containing '\n' must not confuse the line splitter.
        let wire = b"OK GEN id=1 model=m t=2 seed=0 fmt=tsv snapshots=2 edges=3 cache=miss bytes=8\nab\ncd\nefOK PONG\n";
        for chunk in wire.chunks(5) {
            scanner.feed(chunk, &mut frames).unwrap();
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, b"ab\ncd\nef");
        assert!(matches!(frames[0].header, ReplyHeader::Gen { bytes: 8, .. }));
        assert!(matches!(frames[1].header, ReplyHeader::Pong { tag: None }));
        assert_eq!(frames[1].raw, "OK PONG");
    }

    #[test]
    fn frame_scanner_rejects_oversized_headers() {
        let mut scanner = FrameScanner::default();
        let mut frames = Vec::new();
        let junk = vec![b'x'; MAX_LINE_BYTES + 2];
        assert!(scanner.feed(&junk, &mut frames).is_err());
    }
}
