//! Per-layer probes for the traced run.
//!
//! Each probe times calls into one layer's public functions from
//! outside the program. Model layers run on modules built by their own
//! `::new` with a fixed weight seed at the workload's configuration and
//! node count: their cost depends on shapes, not on weight values.

use crate::fleet::{self, Fleet};
use crate::model::{derive, stream, Key};
use crate::report::Metric;
use crate::stats::{log_log_slope, median, summarize};
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;
use std::time::{Duration, Instant};
use vrdag::decoder::{gat_arrays, AttributeDecoder, MixBernoulliDecoder};
use vrdag::encoder::{snapshot_features, BiFlowEncoder};
use vrdag::latent::{reparam_sample, GaussianHead};
use vrdag::time2vec::Time2Vec;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_graph::io::{BinaryStreamWriter, TsvStreamWriter};
use vrdag_graph::Snapshot;
use vrdag_serve::protocol::ReplyHeader;
use vrdag_serve::{
    CacheBudget, GenRequest, GenSink, LineClient, Logger, ModelHandle, ModelRegistry, ServeConfig,
    ServeHandle, StageDurations,
};
use vrdag_tensor::nn::GruCell;
use vrdag_tensor::ops::concat_cols;
use vrdag_tensor::{no_grad, Matrix, Tensor};

/// Seed of every probe module's weights.
const WEIGHT_SEED: u64 = 0x5EED;
/// Wall time one probe may spend repeating its call.
const PROBE_BUDGET: Duration = Duration::from_millis(600);

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median milliseconds of `f`, repeated until `PROBE_BUDGET` is spent
/// (at least `min`, at most `max` times). Each call is a span.
fn time_ms(
    tracer: &mut Tracer,
    name: &'static str,
    min: usize,
    max: usize,
    mut f: impl FnMut(),
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min || (samples.len() < max && started.elapsed() < PROBE_BUDGET) {
        let t0 = Instant::now();
        f();
        let t1 = Instant::now();
        tracer.record(name, samples.len() as u64, None, t0, t1);
        samples.push(ms(t1 - t0));
    }
    median(&samples).expect("at least one sample")
}

/// Model layer probes on the fitted `model` of `n` nodes, run with
/// `threads` intra-job threads. Returns the metrics and the sequence the
/// step probe generated (the encode probes reuse it).
pub fn core(
    model: &Vrdag,
    bytes: &[u8],
    t_len: usize,
    threads: usize,
    seed: u64,
    tracer: &mut Tracer,
) -> (Vec<Metric>, Vec<Snapshot>) {
    let cfg = model.config().clone();
    let n = model.n_nodes().expect("fitted");
    let f = model.n_attrs().expect("fitted");
    let targets = &model.stats().expect("fitted").edges_per_step;
    let used = &targets[..t_len.min(targets.len())];
    let m_target = used.iter().sum::<f64>() / used.len() as f64;
    vrdag_tensor::par::with_threads(threads, || {
        no_grad(|| {
            let mut out = Vec::new();
            let mut w = StdRng::seed_from_u64(WEIGHT_SEED);
            let mut noise = StdRng::seed_from_u64(derive(seed, stream::PROBE, 0));
            let d_s = cfg.d_s();
            let h = Tensor::constant(Matrix::rand_normal(n, cfg.d_h, 0.0, 0.5, &mut w));

            let prior = GaussianHead::new(cfg.d_h, cfg.d_h, cfg.d_z, cfg.leaky_slope, &mut w);
            let prior_ms = time_ms(tracer, "core.prior", 5, 200, || {
                let (mu, lv) = prior.forward(&h);
                std::hint::black_box(reparam_sample(&mu, &lv, &mut noise));
            });

            let plan = MixBernoulliDecoder::new(
                d_s,
                cfg.decoder_hidden,
                cfg.k_mix,
                cfg.leaky_slope,
                &mut w,
            )
            .plan();
            let s_mat = Matrix::rand_normal(n, d_s, 0.0, 1.0, &mut w);
            let mut edges = Vec::new();
            let mut k = 0u64;
            let decoder_ms = time_ms(tracer, "core.decoder", 3, 50, || {
                edges = plan.generate_edges(&s_mat, Some(m_target), derive(seed, stream::PROBE, k));
                k += 1;
            });

            let attr_dec =
                AttributeDecoder::new(d_s, cfg.gat_hidden, f.max(1), cfg.leaky_slope, &mut w);
            let s = Tensor::constant(s_mat.clone());
            let attr_ms = time_ms(tracer, "core.attr", 5, 200, || {
                let (src, dst, segs) = gat_arrays(n, &edges);
                std::hint::black_box(attr_dec.forward(&s, &src, &dst, &segs, n));
            });

            let encoder = BiFlowEncoder::new(
                f + 2,
                cfg.d_e,
                cfg.d_e,
                cfg.gnn_layers,
                cfg.leaky_slope,
                cfg.bi_flow,
                &mut w,
            );
            let t2v = Time2Vec::new(cfg.d_t, &mut w);
            let gru_in = cfg.d_e + cfg.d_z + if cfg.use_time2vec { cfg.d_t } else { 0 };
            let gru = GruCell::new(gru_in, cfg.d_h, &mut w);
            let z = Tensor::constant(Matrix::rand_normal(n, cfg.d_z, 0.0, 1.0, &mut w));
            let snapshot =
                Snapshot::new(n, edges.clone(), Matrix::rand_normal(n, f, 0.0, 1.0, &mut w));
            let recur_ms = time_ms(tracer, "core.recur", 5, 200, || {
                let feats = Tensor::constant(snapshot_features(&snapshot));
                let in_adj = Rc::new(snapshot.in_adj().clone());
                let out_adj = Rc::new(snapshot.out_adj().clone());
                let enc = encoder.forward(&feats, &in_adj, &out_adj);
                let x = if cfg.use_time2vec {
                    concat_cols(&[&enc, &z, &t2v.forward_broadcast(1, n)])
                } else {
                    concat_cols(&[&enc, &z])
                };
                std::hint::black_box(gru.forward(&x, &h));
            });

            // The real step on the fitted model, one warm-up step first.
            let mut rng = StdRng::seed_from_u64(derive(seed, stream::PROBE, 1));
            model.begin_generation(&mut rng).expect("fitted").step(model);
            let mut state = model.begin_generation(&mut rng).expect("fitted");
            let mut steps = Vec::with_capacity(t_len);
            let mut sequence = Vec::with_capacity(t_len);
            for _ in 0..t_len {
                let t0 = Instant::now();
                let snap = model.step_generation(&mut state);
                let t1 = Instant::now();
                tracer.record("core.step", sequence.len() as u64, None, t0, t1);
                steps.push(ms(t1 - t0));
                sequence.push(snap);
            }
            let step_ms = median(&steps).expect("t_len >= 1");
            let edges_per_snapshot = sequence.iter().map(Snapshot::n_edges).sum::<usize>() as f64
                / sequence.len() as f64;

            let load_ms = time_ms(tracer, "core.persist.load", 5, 100, || {
                std::hint::black_box(Vrdag::from_bytes(bytes).expect("artifact loads"));
            });

            let pairs = (n * (n - 1)) as f64;
            out.push(Metric::new(
                "core.prior.ms",
                prior_ms,
                "ms",
                "GaussianHead::forward + reparam_sample",
            ));
            out.push(Metric::new(
                "core.decoder.ms",
                decoder_ms,
                "ms",
                format!("DecodePlan::generate_edges, target {m_target:.0} edges"),
            ));
            out.push(Metric::new(
                "core.decoder.pairs_per_s",
                pairs / (decoder_ms / 1e3),
                "1/s",
                format!("N(N-1) = {pairs}"),
            ));
            out.push(Metric::new(
                "core.attr.ms",
                attr_ms,
                "ms",
                "gat_arrays + AttributeDecoder::forward",
            ));
            out.push(Metric::new(
                "core.recur.ms",
                recur_ms,
                "ms",
                "snapshot_features + BiFlowEncoder + Time2Vec + GruCell",
            ));
            out.push(Metric::new(
                "core.step.ms",
                step_ms,
                "ms",
                format!("Vrdag::step_generation, median of {t_len}"),
            ));
            out.push(Metric::new(
                "core.unattributed.ms",
                step_ms - prior_ms - decoder_ms - attr_ms - recur_ms,
                "ms",
                "step minus the four parts (coverage check)",
            ));
            out.push(Metric::new(
                "core.edges_per_snapshot",
                edges_per_snapshot,
                "count",
                "fitted model, probe seed",
            ));
            out.push(Metric::new("core.persist.load_ms", load_ms, "ms", "Vrdag::from_bytes"));
            (out, sequence)
        })
    })
}

/// Structure decode at three sizes of Email (no fit), with the default
/// configuration, and the fitted log-log scaling exponent.
pub fn decode_sweep(threads: usize, seed: u64, tracer: &mut Tracer) -> Vec<Metric> {
    let cfg = VrdagConfig::default();
    let mut out = Vec::new();
    let mut points = Vec::new();
    for (label, scale) in [("n95", 0.05), ("n378", 0.2), ("n1513", 0.8)] {
        let graph = vrdag_datasets::generate(
            &vrdag_datasets::email().scaled(scale),
            derive(seed, stream::GRAPH, 0),
        );
        let n = graph.n_nodes();
        let m_target = graph.temporal_edge_count() as f64 / graph.t_len() as f64;
        let mut w = StdRng::seed_from_u64(WEIGHT_SEED);
        let plan = MixBernoulliDecoder::new(
            cfg.d_s(),
            cfg.decoder_hidden,
            cfg.k_mix,
            cfg.leaky_slope,
            &mut w,
        )
        .plan();
        let s_mat = Matrix::rand_normal(n, cfg.d_s(), 0.0, 1.0, &mut w);
        let mut k = 0u64;
        let decode_ms = vrdag_tensor::par::with_threads(threads, || {
            time_ms(tracer, "core.decoder.sweep", 2, 20, || {
                std::hint::black_box(plan.generate_edges(
                    &s_mat,
                    Some(m_target),
                    derive(seed, stream::PROBE, k),
                ));
                k += 1;
            })
        });
        points.push((n as f64, decode_ms));
        let name = format!("core.decoder.ms.{label}");
        out.push(Metric::new(&name, decode_ms, "ms", format!("N={n}, target {m_target:.0} edges")));
    }
    out.push(Metric::new(
        "core.decoder.size_slope",
        log_log_slope(&points),
        "ratio",
        "d ln(decode ms) / d ln N",
    ));
    out
}

/// In-process serving probes: artifact instantiation, and a cache hit
/// through `ServeHandle::submit` → `Ticket::wait`. With `stages`, also
/// runs cold jobs and reports their queue wait and generation time from
/// `JobResult::stages` (the library workload has no wire to report them).
pub fn serve_inprocess(
    handle: &ModelHandle,
    t_len: usize,
    threads: usize,
    seed: u64,
    stages: bool,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let instantiate_ms = time_ms(tracer, "serve.registry.instantiate", 5, 100, || {
        std::hint::black_box(handle.instantiate().expect("artifact instantiates"));
    });
    out.push(Metric::new(
        "serve.registry.instantiate_ms",
        instantiate_ms,
        "ms",
        "ModelHandle::instantiate",
    ));

    let registry = ModelRegistry::new();
    registry.register_bytes("model", handle.bytes().to_vec()).expect("artifact registers");
    let core = ServeHandle::with_config(
        registry,
        ServeConfig {
            workers: 1,
            cache: CacheBudget::entries(8),
            logger: Logger::disabled(),
            intra_threads: Some(threads),
            ..Default::default()
        },
    )
    .expect("one worker");
    let run = |seed: u64| {
        core.submit(GenRequest::new("model", t_len, seed, GenSink::Discard))
            .and_then(|ticket| ticket.wait())
            .map_err(|e| format!("in-process job failed: {e}"))
    };
    let hot = derive(seed, stream::PROBE, 100);
    let mut cold = vec![run(hot)?];
    if stages {
        for i in 1..3 {
            cold.push(run(derive(seed, stream::PROBE, 100 + i))?);
        }
    }
    let mut missed = None;
    let hit_ms = time_ms(tracer, "serve.cache.hit", 10, 500, || match run(hot) {
        Ok(r) if r.cache_hit => {}
        other => missed = Some(format!("{other:?}")),
    });
    core.shutdown();
    if let Some(reply) = missed {
        return Err(format!("a resident key did not hit the in-process cache: {reply}"));
    }
    out.push(Metric::new(
        "serve.cache.hit_ms_p50",
        hit_ms,
        "ms",
        "submit -> wait, resident key, GenSink::Discard",
    ));
    if stages {
        let stage = |f: fn(&StageDurations) -> Option<Duration>| -> Vec<f64> {
            cold.iter().map(|r| f(&r.stages).map_or(0.0, ms)).collect()
        };
        let q = summarize(&stage(|s| s.queue_wait)).expect("three jobs");
        out.push(Metric::new(
            "serve.queue.wait_ms_p50",
            q.p50,
            "ms",
            "JobResult::stages, 3 cold jobs, closed loop",
        ));
        out.push(Metric::new("serve.queue.wait_ms_tail", q.tail, "ms", q.tail_note()));
        out.push(Metric::new(
            "serve.worker.gen_ms_p50",
            median(&stage(|s| s.generation)).expect("three jobs"),
            "ms",
            "JobResult::stages",
        ));
    }
    Ok(out)
}

/// Encoding cost of the binary and TSV stream writers, per snapshot,
/// into memory.
pub fn encode(sequence: &[Snapshot], tracer: &mut Tracer) -> Vec<Metric> {
    let (n, f) = (sequence[0].n_nodes(), sequence[0].n_attrs());
    let bin = |s: &Snapshot| {
        let mut w = BinaryStreamWriter::new(Vec::new(), n, f, 1).expect("memory");
        w.write_snapshot(s).expect("memory");
        w.finish().expect("memory")
    };
    let tsv = |s: &Snapshot| {
        let mut w = TsvStreamWriter::new(Vec::new(), n, f, 1).expect("memory");
        w.write_snapshot(s).expect("memory");
        w.finish().expect("memory")
    };
    let per_snapshot = sequence.len() as f64;
    let bin_ms = time_ms(tracer, "graph.encode_bin", 20, 2000, || {
        sequence.iter().for_each(|s| drop(std::hint::black_box(bin(s))));
    }) / per_snapshot;
    let tsv_ms = time_ms(tracer, "graph.encode_tsv", 20, 2000, || {
        sequence.iter().for_each(|s| drop(std::hint::black_box(tsv(s))));
    }) / per_snapshot;
    // Payload bytes beyond the stream's 16-byte header.
    let bytes: usize = sequence.iter().map(|s| bin(s).len() - 16).sum();
    vec![
        Metric::new(
            "graph.encode_bin.ms",
            bin_ms,
            "ms",
            "BinaryStreamWriter::write_snapshot, per snapshot",
        ),
        Metric::new(
            "graph.encode_tsv.ms",
            tsv_ms,
            "ms",
            "TsvStreamWriter::write_snapshot, per snapshot",
        ),
        Metric::new(
            "graph.encode.bytes",
            bytes as f64 / per_snapshot,
            "count",
            "binary bytes per snapshot",
        ),
    ]
}

/// Closed-loop `GEN`s of one resident key: directly to a node, then
/// through the router. The hop cost is the difference of the medians.
pub fn hop(
    fleet: &Fleet,
    t_len: usize,
    key: Key,
    tracer: &mut Tracer,
) -> Result<Vec<Metric>, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut timed = |addr, name| -> Result<f64, String> {
        let mut c = LineClient::connect(addr).map_err(io)?;
        fleet::gen(&mut c, t_len, key).map_err(io)?; // make the key resident
        let mut bad = None;
        let p50 = time_ms(tracer, name, 50, 2000, || {
            match fleet::gen(&mut c, t_len, key).map(|r| r.header) {
                Ok(ReplyHeader::Gen { cache_hit: true, .. }) => {}
                other => bad = Some(format!("{other:?}")),
            }
        });
        match bad {
            None => Ok(p50),
            Some(reply) => Err(format!("{name}: resident key did not hit: {reply}")),
        }
    };
    let direct = timed(fleet.nodes[0], "serve.frontend.hit_reply")?;
    let routed = timed(fleet.entry, "serve.router.hit_reply")?;
    let retries =
        fleet::counter(&fleet::scrape(fleet.entry).map_err(io)?, "vrdag_route_retries_total");
    Ok(vec![
        Metric::new(
            "serve.frontend.hit_reply_ms_p50",
            direct,
            "ms",
            "closed-loop direct GEN, resident key",
        ),
        Metric::new(
            "serve.router.hop_ms_p50",
            routed - direct,
            "ms",
            format!("routed {routed:.4} ms minus direct"),
        ),
        Metric::new("serve.router.retries", retries, "count", "vrdag_route_retries_total"),
    ])
}
