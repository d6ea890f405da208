//! End-to-end tests of the sharded front tier (`vrdag_serve::Router`)
//! over live loopback TCP: a router fronting two real backend
//! `Frontend`s must be **indistinguishable from one node** to a client
//! — byte-identical `GEN`/`SUB` frames, the same tag discipline — while
//! adding the fleet behaviors a single node cannot have: consistent
//! placement (cache locality across backends), tenant `AUTH` terminated
//! at the router and asserted over the internal hop, fleet-wide
//! `STATS` aggregation, and transparent failover for idempotent `GEN`s
//! when a backend dies mid-flight.

use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag_suite::graph::io::BinaryStreamWriter;
use vrdag_suite::prelude::*;
use vrdag_suite::serve::protocol::{ErrorCode, GenSpec, ReplyHeader, Request, WireFormat};
use vrdag_suite::serve::{BackendPool, FrontendConfig};

fn fitted_model(seed: u64) -> Vrdag {
    let g = datasets::generate(&datasets::tiny(), seed);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    model.fit(&g, &mut rng).unwrap();
    model
}

/// Serialize exactly as the frontend does for each wire format.
fn encode(graph: &DynamicGraph, fmt: WireFormat) -> Vec<u8> {
    match fmt {
        WireFormat::Tsv => vrdag_suite::graph::io::write_tsv(graph, Vec::new()).unwrap(),
        WireFormat::Bin => {
            let mut w = BinaryStreamWriter::new(
                Vec::new(),
                graph.n_nodes(),
                graph.n_attrs(),
                graph.t_len(),
            )
            .unwrap();
            for (_, s) in graph.iter() {
                w.write_snapshot(s).unwrap();
            }
            w.finish().unwrap()
        }
    }
}

/// Ground truth for `(t_len, seed, fmt)` via a direct in-process core.
fn direct_payload(registry: &ModelRegistry, t_len: usize, seed: u64, fmt: WireFormat) -> Vec<u8> {
    let direct = ServeHandle::new(registry.clone(), 1).unwrap();
    let ticket = direct.submit(GenRequest::new("m", t_len, seed, GenSink::InMemory)).unwrap();
    let result = ticket.wait().unwrap();
    assert!(result.is_ok(), "{:?}", result.error);
    let payload = encode(result.graph.as_deref().unwrap(), fmt);
    direct.shutdown();
    payload
}

struct Backend {
    handle: ServeHandle,
    frontend: Frontend,
    registry: ModelRegistry,
}

/// One backend node serving the shared model `m`. `internal` puts the
/// frontend in router-hop mode (trust `tenant=`, no AUTH gate);
/// `tenants` still applies quotas/weights when given.
fn backend(
    model: &Vrdag,
    workers: usize,
    cache: CacheBudget,
    tenants: Option<TenantRegistry>,
    internal: bool,
) -> Backend {
    let registry = ModelRegistry::new();
    registry.register("m", model).unwrap();
    let handle = ServeHandle::with_config(
        registry.clone(),
        ServeConfig {
            workers,
            cache,
            tenants: tenants.unwrap_or_default(),
            logger: Logger::disabled(),
            ..Default::default()
        },
    )
    .unwrap();
    let frontend = Frontend::bind_with(
        handle.clone(),
        "127.0.0.1:0",
        FrontendConfig { trust_tenant_assertion: internal, ..Default::default() },
    )
    .unwrap();
    Backend { handle, frontend, registry }
}

fn fixture_tenants() -> TenantRegistry {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/tenants.conf");
    TenantRegistry::from_file(path).expect("fixture parses")
}

fn router(backends: &[&Backend], cfg: RouterConfig) -> Router {
    let addrs = backends.iter().map(|b| b.frontend.local_addr()).collect();
    Router::bind("127.0.0.1:0", addrs, cfg).unwrap()
}

fn quiet_router_config() -> RouterConfig {
    RouterConfig { logger: Logger::disabled(), ..Default::default() }
}

/// Read frames until `tag`'s terminal frame arrives, returning every
/// frame for that tag in order (frames for other tags are stashed by
/// the caller's closure-free pattern: they fail the test, which keeps
/// the lock-step tests honest).
fn read_stream(client: &mut LineClient, tag: &str) -> Vec<(ReplyHeader, Vec<u8>)> {
    let mut frames = Vec::new();
    loop {
        let reply = client.read_frame().unwrap();
        let done = matches!(
            &reply.header,
            ReplyHeader::End { tag: t, .. } if t == tag
        ) || matches!(
            &reply.header,
            ReplyHeader::Err { tag: Some(t), .. } if t == tag
        );
        frames.push((reply.header, reply.payload));
        if done {
            return frames;
        }
    }
}

#[test]
fn gen_and_sub_through_router_are_byte_identical_to_direct() {
    let model = fitted_model(11);
    let a = backend(&model, 2, CacheBudget::entries(16), None, true);
    let b = backend(&model, 2, CacheBudget::entries(16), None, true);
    let mut router = router(&[&a, &b], quiet_router_config());
    let mut client = LineClient::connect(router.local_addr()).unwrap();

    // Buffered GENs across several seeds (spanning seed buckets so both
    // backends can participate) and both wire formats.
    for (seed, fmt) in [(1u64, WireFormat::Tsv), (2, WireFormat::Bin), (40, WireFormat::Bin)] {
        let expected = direct_payload(&a.registry, 3, seed, fmt);
        let reply = client.gen(GenSpec::new("m", 3, seed, fmt)).unwrap();
        match reply.header {
            ReplyHeader::Gen { t_len, seed: rs, fmt: rf, snapshots, bytes, .. } => {
                assert_eq!((t_len, rs, rf, snapshots), (3, seed, fmt, 3));
                assert_eq!(bytes, reply.payload.len());
            }
            other => panic!("expected OK GEN through the router, got {other:?}"),
        }
        assert_eq!(reply.payload, expected, "routed payload must be byte-identical");
    }

    // A tagged SUB: the EVT payloads concatenated in order must equal
    // the buffered GEN payload — through the router exactly as direct.
    let expected = direct_payload(&a.registry, 4, 7, WireFormat::Bin);
    client.send(&Request::Sub(GenSpec::new("m", 4, 7, WireFormat::Bin).with_tag("s1"))).unwrap();
    let frames = read_stream(&mut client, "s1");
    assert!(
        matches!(&frames[0].0, ReplyHeader::Sub { tag, .. } if tag == "s1"),
        "first frame must be the OK SUB ack, got {:?}",
        frames[0].0
    );
    let mut streamed = Vec::new();
    for (header, payload) in &frames[1..frames.len() - 1] {
        assert!(matches!(header, ReplyHeader::Evt { tag, .. } if tag == "s1"));
        streamed.extend_from_slice(payload);
    }
    match &frames[frames.len() - 1].0 {
        ReplyHeader::End { tag, snapshots, .. } => {
            assert_eq!(tag, "s1");
            assert_eq!(*snapshots, 4);
        }
        other => panic!("expected END, got {other:?}"),
    }
    assert_eq!(streamed, expected, "streamed bytes must be byte-identical through the router");

    // An untagged SUB gets a router-assigned `~n` tag, exactly like a
    // direct connection would (the router must own the numbering — two
    // backends would both hand out `~1` and collide).
    client.send(&Request::Sub(GenSpec::new("m", 2, 9, WireFormat::Tsv))).unwrap();
    let ack = client.read_frame().unwrap();
    let auto = match &ack.header {
        ReplyHeader::Sub { tag, .. } => {
            assert!(tag.starts_with('~'), "expected a server-assigned tag, got {tag:?}");
            tag.clone()
        }
        other => panic!("expected OK SUB, got {other:?}"),
    };
    let mut frames = read_stream(&mut client, &auto);
    frames.insert(0, (ack.header, ack.payload));
    assert!(matches!(
        &frames[frames.len() - 1].0,
        ReplyHeader::End { tag, .. } if *tag == auto
    ));

    let bye = client.request(&Request::Quit { tag: None }).unwrap();
    assert!(matches!(bye.header, ReplyHeader::Bye { .. }));
    router.shutdown();
}

#[test]
fn cache_locality_same_key_misses_exactly_once_fleet_wide() {
    let model = fitted_model(13);
    let a = backend(&model, 2, CacheBudget::entries(16), None, true);
    let b = backend(&model, 2, CacheBudget::entries(16), None, true);
    let mut router = router(&[&a, &b], quiet_router_config());

    // The same (model, t, seed) key through two *separate* client
    // connections: placement is per-request, not per-connection, so
    // both must land on the same backend's SnapshotCache.
    for round in 0..2 {
        let mut client = LineClient::connect(router.local_addr()).unwrap();
        let reply = client.gen(GenSpec::new("m", 4, 5, WireFormat::Bin)).unwrap();
        match reply.header {
            ReplyHeader::Gen { cache_hit, .. } => {
                assert_eq!(cache_hit, round == 1, "second round must be served from cache");
            }
            other => panic!("expected OK GEN, got {other:?}"),
        }
        let _ = client.request(&Request::Quit { tag: None });
    }
    let (sa, sb) = (a.handle.stats(), b.handle.stats());
    assert_eq!(
        sa.cache.misses + sb.cache.misses,
        1,
        "identical keys must generate on exactly one backend (a={:?} b={:?})",
        sa.cache,
        sb.cache
    );
    assert_eq!(sa.cache.hits + sb.cache.hits, 1, "the repeat must be a hit on the same node");
    router.shutdown();
}

#[test]
fn auth_terminates_at_router_and_stats_aggregates_tenant_counters() {
    let model = fitted_model(17);
    // Internal-mode backends: no AUTH gate of their own, but the same
    // tenant file for quotas/weights keyed by the router's assertion.
    let a = backend(&model, 2, CacheBudget::entries(16), Some(fixture_tenants()), true);
    let b = backend(&model, 2, CacheBudget::entries(16), Some(fixture_tenants()), true);
    let cfg = RouterConfig { tenants: fixture_tenants(), ..quiet_router_config() };
    let mut router = router(&[&a, &b], cfg);

    // Unauthenticated requests are rejected at the router; the backends
    // never see them.
    let mut nosy = LineClient::connect(router.local_addr()).unwrap();
    let reply = nosy.gen(GenSpec::new("m", 2, 0, WireFormat::Tsv)).unwrap();
    assert!(
        matches!(reply.header, ReplyHeader::Err { code: ErrorCode::AuthRequired, .. }),
        "got {:?}",
        reply.header
    );
    let mut wrong = LineClient::connect(router.local_addr()).unwrap();
    let reply = wrong.auth("tok-wrong").unwrap();
    assert!(matches!(reply.header, ReplyHeader::Err { code: ErrorCode::AuthFailed, .. }));

    // A real token binds the connection; generation flows through the
    // internal hop with the tenant asserted, so the *backends'* stats
    // attribute the jobs to `gold` even though no backend saw a token.
    let mut client = LineClient::connect(router.local_addr()).unwrap();
    let reply = client.auth("tok-gold-fixture").unwrap();
    match &reply.header {
        ReplyHeader::Auth { tenant, .. } => assert_eq!(tenant, "gold"),
        other => panic!("expected OK AUTH, got {other:?}"),
    }
    // Seeds far apart so several seed buckets (and likely both
    // backends) take traffic; aggregation must sum regardless of split.
    let seeds = [0u64, 100, 2000, 31_000];
    for &seed in &seeds {
        let reply = client.gen(GenSpec::new("m", 2, seed, WireFormat::Tsv)).unwrap();
        assert!(matches!(reply.header, ReplyHeader::Gen { .. }), "got {:?}", reply.header);
    }
    let gold_on_backends: u64 = [&a, &b]
        .iter()
        .map(|n| {
            n.handle.stats().tenants.iter().find(|t| t.id == "gold").map_or(0, |t| t.submitted)
        })
        .sum();
    assert_eq!(
        gold_on_backends,
        seeds.len() as u64,
        "every routed job must be attributed to the asserted tenant on its backend"
    );

    // Fleet-wide STATS through the router: the aggregated per-tenant
    // section sums the per-backend counters.
    let reply = client.request(&Request::Stats { tag: None }).unwrap();
    let payload = String::from_utf8(reply.payload).unwrap();
    assert!(matches!(reply.header, ReplyHeader::Stats { .. }));
    assert!(payload.starts_with("route: 2 backends (2 up)"), "got: {payload}");
    let gold_line = payload
        .lines()
        .find(|l| l.trim_start().starts_with("gold") && l.contains("submitted"))
        .unwrap_or_else(|| panic!("no aggregated gold line in:\n{payload}"));
    let submitted: u64 = gold_line.split_whitespace().nth(1).unwrap().parse().unwrap();
    assert_eq!(submitted, seeds.len() as u64, "aggregate must sum per-tenant submits");
    // Both backends' verbatim sections ride along for drill-down.
    assert_eq!(payload.matches("--- backend ").count(), 2, "got: {payload}");

    // A client cannot smuggle its own tenant= past a *non-internal*
    // node: direct to a plain backend, the assertion is refused.
    let plain = backend(&model, 1, CacheBudget::entries(4), Some(fixture_tenants()), false);
    let mut direct = LineClient::connect(plain.frontend.local_addr()).unwrap();
    let reply = direct.auth("tok-bronze-fixture").unwrap();
    assert!(matches!(reply.header, ReplyHeader::Auth { .. }));
    let reply = direct
        .request(&Request::Gen(
            GenSpec::new("m", 2, 0, WireFormat::Tsv).with_asserted_tenant("gold"),
        ))
        .unwrap();
    match &reply.header {
        ReplyHeader::Err { code: ErrorCode::InvalidRequest, message, .. } => {
            assert!(message.contains("internal-hop"), "got {message:?}");
        }
        other => panic!("tenant smuggling must be refused, got {other:?}"),
    }
    router.shutdown();
}

#[test]
fn backend_death_retries_gens_and_fails_streams_cleanly() {
    let model = fitted_model(23);
    // Single-worker backends so one blocking job deterministically
    // pins a whole node; per-seed buckets so placement is probeable.
    let a = backend(&model, 1, CacheBudget::entries(16), None, true);
    let mut b = backend(&model, 1, CacheBudget::entries(16), None, true);
    let cfg = RouterConfig {
        seed_range: 1,
        retry_backoff: std::time::Duration::from_millis(10),
        ..quiet_router_config()
    };
    let mut router = router(&[&a, &b], cfg);

    // Predict placement offline with the same pool construction the
    // router uses: model fingerprint (learned by the router's startup
    // MODELS probe) + per-seed buckets.
    let fp = a.registry.handles()[0].fingerprint();
    let pool = BackendPool::new(
        vec![a.frontend.local_addr(), b.frontend.local_addr()],
        1,
        &MetricsRegistry::default(),
    );
    let place = |seed: u64| pool.place(pool.request_key(fp, seed)).unwrap();
    let seed_on_b = (0..).find(|&s| place(s) == 1).unwrap();
    let follow_up_on_a = (0..).find(|&s| place(s) == 0).unwrap();

    // Pin B's only worker via its in-process handle so routed work
    // queues behind it deterministically.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let mut fired = false;
    let blocker = b
        .handle
        .submit(GenRequest::new(
            "m",
            1,
            seed_on_b + 1,
            GenSink::Callback(Box::new(move |_, _| {
                if !fired {
                    fired = true;
                    started_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                }
            })),
        ))
        .unwrap();
    started_rx.recv().unwrap();

    let expected = direct_payload(&a.registry, 3, seed_on_b, WireFormat::Bin);
    let mut client = LineClient::connect(router.local_addr()).unwrap();
    // A SUB and a GEN, both placed on B, both stuck behind the blocker.
    client
        .send(&Request::Sub(GenSpec::new("m", 3, seed_on_b, WireFormat::Bin).with_tag("s1")))
        .unwrap();
    let ack = client.read_frame().unwrap();
    assert!(
        matches!(&ack.header, ReplyHeader::Sub { tag, .. } if tag == "s1"),
        "got {:?}",
        ack.header
    );
    client
        .send(&Request::Gen(GenSpec::new("m", 3, seed_on_b, WireFormat::Bin).with_tag("g1")))
        .unwrap();
    // Wait until the router has relayed the GEN to B (both jobs queued
    // behind the blocker): a GEN still unrelayed when B dies is placed
    // on A directly, never retried.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while b.handle.queue_depth() < 2 {
        assert!(std::time::Instant::now() < deadline, "the GEN never reached backend B");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }

    // Kill B while both are in flight.
    b.frontend.shutdown();

    // The stream cannot be replayed (frames may have been delivered):
    // it must die with a clean tagged ERR. The GEN is idempotent and
    // must be answered transparently from A — byte-identical.
    let mut sub_err = None;
    let mut gen_reply = None;
    while sub_err.is_none() || gen_reply.is_none() {
        let reply = client.read_frame().unwrap();
        match &reply.header {
            ReplyHeader::Err { code, tag: Some(tag), .. } if tag == "s1" => {
                assert_eq!(*code, ErrorCode::BackendUnavailable);
                sub_err = Some(());
            }
            ReplyHeader::Gen { tag: Some(tag), .. } if tag == "g1" => {
                gen_reply = Some(reply.payload.clone());
            }
            other => panic!("unexpected frame during failover: {other:?}"),
        }
    }
    assert_eq!(gen_reply.unwrap(), expected, "failover reply must stay byte-identical");
    assert_eq!(
        a.handle.stats().submitted,
        1,
        "the retried GEN must have landed on the surviving backend"
    );

    // The client connection survives the backend's death: lock-step
    // traffic keeps working against the remaining fleet.
    let pong = client.request(&Request::Ping { tag: None }).unwrap();
    assert!(matches!(pong.header, ReplyHeader::Pong { .. }));
    let reply = client.gen(GenSpec::new("m", 2, follow_up_on_a, WireFormat::Tsv)).unwrap();
    assert!(matches!(reply.header, ReplyHeader::Gen { .. }), "got {:?}", reply.header);

    // The failover is visible in the router's own metrics.
    let metrics = router.metrics().render();
    assert!(
        metrics.contains("vrdag_route_retries_total 1"),
        "retry must be counted, got:\n{metrics}"
    );
    assert!(router.backend_up(0), "A never failed");
    assert!(!router.backend_up(1), "B must be marked down");

    release_tx.send(()).unwrap();
    let _ = blocker.wait();
    router.shutdown();
}

#[test]
fn trace_id_joins_client_router_and_owning_backend() {
    let model = fitted_model(29);
    let a = backend(&model, 2, CacheBudget::entries(16), None, true);
    let b = backend(&model, 2, CacheBudget::entries(16), None, true);
    let mut router = router(&[&a, &b], quiet_router_config());
    let mut client = LineClient::connect(router.local_addr()).unwrap();

    // A routed GEN's terminal frame echoes the trace id the router
    // minted, so the client can quote it against /traces on any tier.
    let reply = client.gen(GenSpec::new("m", 3, 11, WireFormat::Tsv).with_tag("t1")).unwrap();
    let trace = match &reply.header {
        ReplyHeader::Gen { trace: Some(trace), .. } => trace.clone(),
        other => panic!("expected OK GEN with trace=, got {other:?}"),
    };

    // The router recorded a relay span under that id, naming the
    // backend it placed the request on.
    let route_span = router
        .spans()
        .recent(16)
        .into_iter()
        .find(|s| s.trace == trace)
        .unwrap_or_else(|| panic!("trace {trace} missing from router spans"));
    assert_eq!(route_span.tier, "route");
    assert_eq!(route_span.parent, None, "the router minted the id itself");
    assert_eq!(route_span.outcome, "ok");
    assert_eq!(route_span.model, "m");
    assert_eq!(route_span.seed, 11);
    let placed = route_span.backend.clone().expect("route span names its backend");

    // Exactly one backend holds the serve-tier span — the one the
    // router says it placed the request on — parented to the router.
    let serve_spans: Vec<_> = [&a, &b]
        .iter()
        .flat_map(|n| {
            let addr = n.frontend.local_addr().to_string();
            n.frontend.spans().recent(16).into_iter().map(move |s| (addr.clone(), s))
        })
        .filter(|(_, s)| s.trace == trace)
        .collect();
    assert_eq!(serve_spans.len(), 1, "the trace must appear on exactly one backend");
    let (owner_addr, serve_span) = &serve_spans[0];
    assert_eq!(*owner_addr, placed, "span owner must match the router's placement");
    assert_eq!(serve_span.tier, "serve");
    assert_eq!(serve_span.parent, Some("route"), "propagated ids are parented to the router");
    assert_eq!(serve_span.outcome, "ok");
    assert_eq!(serve_span.seed, 11);

    // Stage timings are consistent: the backend's whole job ran inside
    // the router's relay window, so its total cannot exceed the relay
    // span's total (both are real monotonic durations on one machine).
    let stage = |span: &vrdag_suite::obs::Span, name: &str| {
        span.stages_ms
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, ms)| *ms)
            .unwrap_or_else(|| panic!("{} span lacks stage {name}", span.tier))
    };
    let serve_total = stage(serve_span, "total");
    let route_total = stage(&route_span, "total");
    assert!(
        serve_total <= route_total,
        "backend total ({serve_total:.3}ms) must nest inside the relay ({route_total:.3}ms)"
    );
    assert!(stage(&route_span, "dial") >= 0.0 && stage(&route_span, "relay") >= 0.0);

    // Streams carry the id the same way: SUB's END frame echoes it and
    // both tiers record spans under it.
    client.send(&Request::Sub(GenSpec::new("m", 2, 12, WireFormat::Tsv).with_tag("s1"))).unwrap();
    let frames = read_stream(&mut client, "s1");
    let sub_trace = match &frames.last().unwrap().0 {
        ReplyHeader::End { trace: Some(trace), .. } => trace.clone(),
        other => panic!("expected END with trace=, got {other:?}"),
    };
    assert_ne!(sub_trace, trace, "each request gets its own id");
    assert!(
        router.spans().recent(16).iter().any(|s| s.trace == sub_trace),
        "SUB relay span missing"
    );
    assert!(
        [&a, &b].iter().any(|n| n.frontend.spans().recent(16).iter().any(|s| s.trace == sub_trace)),
        "SUB serve span missing"
    );
    router.shutdown();
}

#[test]
fn trace_assertion_is_refused_outside_the_internal_hop() {
    let model = fitted_model(31);
    let a = backend(&model, 1, CacheBudget::entries(4), None, true);
    let mut router = router(&[&a], quiet_router_config());

    // The router's client side is never an internal hop: a smuggled
    // trace= is refused before any backend sees the request.
    let mut client = LineClient::connect(router.local_addr()).unwrap();
    for request in [
        Request::Gen(GenSpec::new("m", 2, 0, WireFormat::Tsv).with_trace_id("deadbeef-1")),
        Request::Sub(
            GenSpec::new("m", 2, 0, WireFormat::Tsv).with_tag("s1").with_trace_id("deadbeef-2"),
        ),
    ] {
        let reply = client.request(&request).unwrap();
        match &reply.header {
            ReplyHeader::Err { code: ErrorCode::InvalidRequest, message, .. } => {
                assert!(message.contains("internal-hop"), "got {message:?}");
            }
            other => panic!("trace smuggling must be refused, got {other:?}"),
        }
    }
    assert_eq!(a.handle.stats().submitted, 0, "no smuggled request may reach a backend");

    // Same refusal direct to a *non-internal* frontend; an internal
    // one (router-facing) accepts the assertion instead.
    let plain = backend(&model, 1, CacheBudget::entries(4), None, false);
    let mut direct = LineClient::connect(plain.frontend.local_addr()).unwrap();
    let reply = direct
        .request(&Request::Gen(
            GenSpec::new("m", 2, 0, WireFormat::Tsv).with_trace_id("deadbeef-3"),
        ))
        .unwrap();
    match &reply.header {
        ReplyHeader::Err { code: ErrorCode::InvalidRequest, message, .. } => {
            assert!(message.contains("internal-hop"), "got {message:?}");
        }
        other => panic!("trace smuggling must be refused, got {other:?}"),
    }

    let mut internal = LineClient::connect(a.frontend.local_addr()).unwrap();
    let reply = internal
        .request(&Request::Gen(GenSpec::new("m", 2, 0, WireFormat::Tsv).with_trace_id("cafe-77")))
        .unwrap();
    match &reply.header {
        ReplyHeader::Gen { trace: Some(trace), .. } => assert_eq!(trace, "cafe-77"),
        other => panic!("internal hop must accept and echo the asserted id, got {other:?}"),
    }
    let span = a
        .frontend
        .spans()
        .recent(4)
        .into_iter()
        .find(|s| s.trace == "cafe-77")
        .expect("asserted id recorded");
    assert_eq!(span.parent, Some("route"), "propagated ids are parented to the upstream hop");
    router.shutdown();
}
