//! The headline comparison at micro scale: VRDAG's one-shot snapshot
//! decode vs. walk-based sampling + merging (TIGGER-like) for the same
//! edge budget — the algorithmic asymmetry behind Fig. 9 and Tables
//! III/IV. The `decode_plan` group times the quadratic layer on its own
//! at the default decoder dims.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag::decoder::MixBernoulliDecoder;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_baselines::TiggerLike;
use vrdag_graph::DynamicGraphGenerator;
use vrdag_tensor::{par, Matrix};

fn bench_generation(c: &mut Criterion) {
    let spec = vrdag_datasets::email().scaled(0.05);
    let graph = vrdag_datasets::generate(&spec, 11);

    // Pre-fit both models outside the measured region.
    let mut vrdag = Vrdag::new(VrdagConfig { epochs: 3, ..VrdagConfig::test_small() });
    let mut rng = StdRng::seed_from_u64(1);
    vrdag.fit(&graph, &mut rng).unwrap();

    let mut tigger = TiggerLike::with_defaults();
    DynamicGraphGenerator::fit(&mut tigger, &graph, &mut rng).unwrap();

    let mut group = c.benchmark_group("generation_per_sequence");
    group.sample_size(10);
    group.bench_function("vrdag_one_shot", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(2);
            black_box(vrdag.generate(graph.t_len(), &mut r).unwrap())
        });
    });
    group.bench_function("tigger_walk_merge", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(2);
            black_box(DynamicGraphGenerator::generate(&tigger, graph.t_len(), &mut r).unwrap())
        });
    });
    group.finish();
}

/// `DecodePlan::generate_edges` on one thread at the default decoder dims
/// (K=3 components, hidden 32, d_s=48), calibrated to the Email edge rate,
/// at N=95, N=378 and N=1513 (Email ×0.05, ×0.2 and ×0.8). Weights and
/// states are random with fixed seeds; the decode's cost depends on N, the
/// dims, and how many pairs pass B's rejection bound skips.
fn bench_decode_plan(c: &mut Criterion) {
    let cfg = VrdagConfig::default();
    let mut group = c.benchmark_group("decode_plan");
    group.sample_size(10);
    for scale in [0.05, 0.2, 0.8] {
        let graph = vrdag_datasets::generate(&vrdag_datasets::email().scaled(scale), 11);
        let n = graph.n_nodes();
        let m_target = graph.temporal_edge_count() as f64 / graph.t_len() as f64;
        let mut rng = StdRng::seed_from_u64(3);
        let d_s = cfg.d_s();
        let plan =
            MixBernoulliDecoder::new(d_s, cfg.decoder_hidden, cfg.k_mix, cfg.leaky_slope, &mut rng)
                .plan();
        let s = Matrix::rand_normal(n, d_s, 0.0, 1.0, &mut rng);
        group.bench_with_input(BenchmarkId::new("n", n), &s, |b, s| {
            b.iter(|| {
                par::with_threads(1, || black_box(plan.generate_edges(s, Some(m_target), 5)))
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_generation, bench_decode_plan);
criterion_main!(benches);
