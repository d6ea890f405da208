//! The serving workflow end to end: train once, register the artifact,
//! stream one sequence to disk with bounded memory, serve a batch of
//! concurrent seed-addressed generation requests, serve a repeated
//! workload out of the snapshot cache, and finally serve concurrent TCP
//! clients over the line protocol — with the same bit-identical results
//! on every path.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag_suite::prelude::*;
use vrdag_suite::serve::protocol::{
    GenSpec, ReplyHeader, Request, StreamOutcome, TagDemux, WireFormat,
};

fn main() {
    let dir = std::env::temp_dir().join("vrdag_serving_example");
    std::fs::create_dir_all(&dir).unwrap();

    // 1. Train a small model (the data owner's side of the paper's
    //    train-once / generate-anywhere deployment) and persist it.
    let graph = datasets::generate(&datasets::tiny(), 42);
    let mut model = Vrdag::new(VrdagConfig::test_small());
    let mut rng = StdRng::seed_from_u64(0);
    let report = model.fit(&graph, &mut rng).unwrap();
    println!(
        "trained on N={} T={} in {:.2}s (final loss {:.4})",
        graph.n_nodes(),
        graph.t_len(),
        report.train_seconds,
        report.final_loss
    );
    let model_path = dir.join("model.vrdg");
    model.save(&model_path).unwrap();

    // 2. Register the artifact. Handles are cheap and thread-safe.
    let registry = ModelRegistry::new();
    let handle = registry.load_file("tiny", &model_path).unwrap();
    println!(
        "registered {:?}: {} bytes, n={} nodes, f={} attrs",
        handle.name(),
        handle.size_bytes(),
        handle.n_nodes(),
        handle.n_attrs()
    );

    // 3. Stream a sequence snapshot-by-snapshot (memory stays bounded by
    //    one snapshot) straight into the TSV format.
    let stream = handle.stream(graph.t_len(), 7).unwrap();
    let tsv_path = dir.join("streamed.tsv");
    let stats = stream
        .spill_tsv(std::io::BufWriter::new(std::fs::File::create(&tsv_path).unwrap()))
        .unwrap();
    println!(
        "streamed {} snapshots / {} edges to {}",
        stats.snapshots,
        stats.edges,
        tsv_path.display()
    );

    // 4. Serve a batch: 8 seed-addressed jobs over 4 workers.
    let mut scheduler = Scheduler::new(registry.clone(), 4).unwrap();
    for seed in 0..8u64 {
        scheduler
            .submit(GenRequest::new(
                "tiny",
                graph.t_len(),
                seed,
                GenSink::TsvFile(dir.join(format!("gen-{seed}.tsv"))),
            ))
            .unwrap();
    }
    let batch = scheduler.join().unwrap();
    print!("{}", batch.render());
    assert!(batch.all_ok());

    // 5. Determinism across the fleet: job seed 7 equals the stream above.
    let streamed = vrdag_suite::graph::io::load_tsv(&tsv_path).unwrap();
    let job7 = vrdag_suite::graph::io::load_tsv(dir.join("gen-7.tsv")).unwrap();
    assert_eq!(streamed, job7, "seed-addressed generation is deterministic");
    println!("seed 7 via stream == seed 7 via scheduler ✓");

    // 6. Repeated traffic through the snapshot cache: the same 4 seeds
    //    requested 3 times. Round one generates (and populates the LRU);
    //    the later rounds are served from it, bit-identically — the
    //    determinism contract is what makes the sequences cacheable.
    let mut cached = Scheduler::with_config(
        registry.clone(),
        ServeConfig { workers: 2, cache: CacheBudget::entries(16), ..Default::default() },
    )
    .unwrap();
    for _round in 0..3 {
        for seed in 0..4u64 {
            cached.submit(GenRequest::new("tiny", graph.t_len(), seed, GenSink::InMemory)).unwrap();
        }
    }
    let report = cached.join().unwrap();
    print!("{}", report.render());
    assert!(report.all_ok());
    assert!(report.cache.hits > 0, "repeated seeds must hit the snapshot cache");
    assert!(report.latency.p99_seconds >= report.latency.p50_seconds);
    // Cached and cold generations are identical.
    let cold = vrdag_suite::graph::io::load_tsv(dir.join("gen-2.tsv")).unwrap();
    let warm = report
        .jobs
        .iter()
        .find(|j| j.seed == 2 && j.cache_hit)
        .expect("seed 2 was served from the cache at least once");
    assert_eq!(warm.graph.as_deref().unwrap(), &cold, "cache hits are bit-identical");
    println!(
        "cache served {}/{} jobs ({} entries, {} KiB resident), latency {} ✓",
        report.cache_hits(),
        report.jobs.len(),
        report.cache.entries,
        report.cache.bytes / 1024,
        report.latency.render(),
    );

    // 7. The same service over the wire: a ServeHandle core behind the
    //    TCP line-protocol frontend, driven by concurrent clients. The
    //    non-blocking core accepts every request while earlier ones are
    //    still generating, and every streamed reply is bit-identical to
    //    the file the batch stage wrote for that seed.
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 2, cache: CacheBudget::entries(16), ..Default::default() },
    )
    .unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let addr = frontend.local_addr();
    println!("line-protocol frontend listening on {addr}");
    let t_len = graph.t_len();
    let clients: Vec<_> = (0..3u64)
        .map(|client| {
            std::thread::spawn(move || {
                let mut conn = LineClient::connect(addr).unwrap();
                // Overlapping seeds across clients: the shared snapshot
                // cache coalesces them into one generation each.
                let mut payloads = Vec::new();
                for seed in [client, client + 1] {
                    let reply =
                        conn.gen(GenSpec::new("tiny", t_len, seed, WireFormat::Tsv)).unwrap();
                    match &reply.header {
                        ReplyHeader::Gen { seed: echoed, .. } => assert_eq!(*echoed, seed),
                        other => panic!("expected a GEN reply, got {other:?}"),
                    }
                    payloads.push((seed, reply.payload));
                }
                conn.request(&Request::Quit { tag: None }).unwrap();
                payloads
            })
        })
        .collect();
    for client in clients {
        for (seed, payload) in client.join().unwrap() {
            // gen-{seed}.tsv from the batch stage is the ground truth.
            let expected = std::fs::read(dir.join(format!("gen-{seed}.tsv"))).unwrap();
            assert_eq!(payload, expected, "TCP reply for seed {seed} diverged");
        }
    }
    let stats = handle.stats();
    print!("{}", stats.render());
    assert_eq!(stats.failed, 0);
    assert!(stats.cache.hits > 0, "overlapping client seeds must coalesce");
    println!(
        "wire replies for 3 clients bit-identical to disk, latency {} ✓",
        stats.latency.render(),
    );

    // 8. Pipelining + streaming on ONE connection: fire several tagged
    //    GENs without reading (replies come back matched by tag, in
    //    completion order), then SUBscribe to the same key and verify
    //    the per-snapshot EVT stream concatenates to the buffered
    //    payload, bit for bit.
    let mut conn = LineClient::connect(addr).unwrap();
    let tags: Vec<String> = (0..4u64).map(|seed| format!("job-{seed}")).collect();
    for (seed, tag) in tags.iter().enumerate() {
        conn.send(&Request::Gen(
            GenSpec::new("tiny", t_len, seed as u64, WireFormat::Tsv).with_tag(tag.clone()),
        ))
        .unwrap();
    }
    let mut demux = TagDemux::new();
    for _ in 0..tags.len() {
        let reply = conn.read_frame().unwrap();
        demux.feed(&reply.header, &reply.payload).unwrap();
    }
    for (seed, tag) in tags.iter().enumerate() {
        let expected = std::fs::read(dir.join(format!("gen-{seed}.tsv"))).unwrap();
        assert_eq!(demux.get(tag).unwrap().payload, expected, "pipelined {tag} diverged");
    }
    conn.send(&Request::Sub(GenSpec::new("tiny", t_len, 2, WireFormat::Tsv).with_tag("stream")))
        .unwrap();
    loop {
        let reply = conn.read_frame().unwrap();
        demux.feed(&reply.header, &reply.payload).unwrap();
        if demux.get("stream").is_some_and(|s| s.is_done()) {
            break;
        }
    }
    let stream = demux.take("stream").unwrap();
    assert_eq!(stream.outcome, Some(StreamOutcome::Complete));
    assert_eq!(stream.frames, t_len, "one EVT frame per snapshot");
    assert_eq!(
        stream.payload,
        demux.get("job-2").unwrap().payload,
        "SUB stream must concatenate to the buffered GEN payload"
    );
    conn.request(&Request::Quit { tag: None }).unwrap();
    println!(
        "pipelined {} tagged GENs + a {}-frame SUB stream on one connection ✓",
        tags.len(),
        t_len
    );
    drop(frontend);

    // 9. Multi-tenant serving: pre-shared tokens, a mandatory AUTH
    //    greeting, weighted-fair scheduling, and per-tenant accounting.
    //    Two tenants (weights 3:1) share one core; an unauthenticated
    //    command and a wrong token are both turned away at the door.
    let registry = ModelRegistry::new();
    registry.load_file("tiny", &model_path).unwrap();
    let tenants = TenantRegistry::builder()
        .tenant(Tenant::new(TenantId::new("gold").unwrap()).with_weight(3), "demo-token-gold")
        .unwrap()
        .tenant(
            Tenant::new(TenantId::new("bronze").unwrap()).with_max_inflight(16),
            "demo-token-bronze",
        )
        .unwrap()
        .build();
    let handle = ServeHandle::with_config(
        registry,
        ServeConfig { workers: 2, tenants, ..Default::default() },
    )
    .unwrap();
    let frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let addr = frontend.local_addr();

    // Unauthenticated commands are rejected and the connection closed.
    let mut nosy = LineClient::connect(addr).unwrap();
    let reply = nosy.request(&Request::Ping { tag: None }).unwrap();
    assert!(matches!(
        reply.header,
        ReplyHeader::Err { code: vrdag_suite::serve::protocol::ErrorCode::AuthRequired, .. }
    ));
    assert!(nosy.read_frame().is_err(), "unauthenticated connection must be closed");
    // A wrong token fails closed too.
    let mut wrong = LineClient::connect(addr).unwrap();
    let reply = wrong.auth("not-a-real-token").unwrap();
    assert!(matches!(
        reply.header,
        ReplyHeader::Err { code: vrdag_suite::serve::protocol::ErrorCode::AuthFailed, .. }
    ));

    // Authenticated tenants submit concurrently; stats are per-tenant.
    let workers: Vec<_> = [("demo-token-gold", "gold"), ("demo-token-bronze", "bronze")]
        .into_iter()
        .map(|(token, expect)| {
            std::thread::spawn(move || {
                let mut conn = LineClient::connect(addr).unwrap();
                match conn.auth(token).unwrap().header {
                    ReplyHeader::Auth { tenant, .. } => assert_eq!(tenant, expect),
                    other => panic!("AUTH failed: {other:?}"),
                }
                for seed in 0..4u64 {
                    let reply = conn.gen(GenSpec::new("tiny", 3, seed, WireFormat::Tsv)).unwrap();
                    assert!(matches!(reply.header, ReplyHeader::Gen { .. }));
                }
                conn.request(&Request::Quit { tag: None }).unwrap();
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let stats = handle.stats();
    assert_eq!(stats.failed, 0);
    for id in ["gold", "bronze"] {
        let row = stats.tenants.iter().find(|t| t.id == id).expect("tenant row");
        assert_eq!(row.completed, 4, "{id}");
    }
    print!("{}", stats.render());
    println!("authenticated 2 tenants, rejected the rest, per-tenant accounting ✓");
}
