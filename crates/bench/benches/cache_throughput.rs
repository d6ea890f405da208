//! Snapshot-cache throughput: the same repeated seed-addressed workload
//! drained cold (cache disabled — every job regenerates) versus warm
//! (bounded LRU enabled — later rounds replay cached sequences). The gap
//! between the two is the win the determinism contract buys; the warm
//! run asserts nonzero cache hits.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_serve::{CacheBudget, GenRequest, GenSink, ModelRegistry, Scheduler, SchedulerConfig};

const DISTINCT_SEEDS: u64 = 4;
const ROUNDS: usize = 4;
const T_LEN: usize = 4;
const WORKERS: usize = 2;

fn registry() -> ModelRegistry {
    let spec = vrdag_datasets::tiny();
    let graph = vrdag_datasets::generate(&spec, 17);
    let mut model = Vrdag::new(VrdagConfig { epochs: 2, ..VrdagConfig::test_small() });
    let mut rng = StdRng::seed_from_u64(1);
    model.fit(&graph, &mut rng).unwrap();
    let registry = ModelRegistry::new();
    registry.register("bench", &model).unwrap();
    registry
}

/// Drain `ROUNDS` repetitions of the same `DISTINCT_SEEDS` requests and
/// return jobs/sec. With the cache enabled only the first round pays for
/// generation.
fn drain_repeated(registry: &ModelRegistry, cache: CacheBudget) -> f64 {
    let mut scheduler = Scheduler::with_config(
        registry.clone(),
        SchedulerConfig { workers: WORKERS, cache, ..Default::default() },
    )
    .unwrap();
    for _round in 0..ROUNDS {
        for seed in 0..DISTINCT_SEEDS {
            scheduler.submit(GenRequest::new("bench", T_LEN, seed, GenSink::InMemory)).unwrap();
        }
    }
    let report = scheduler.join().unwrap();
    assert!(report.all_ok());
    if cache.is_enabled() {
        // The whole point of the bench: repeated requests actually hit.
        assert!(report.cache.hits > 0, "warm run produced no cache hits");
    } else {
        assert_eq!(report.cache.hits, 0);
    }
    report.jobs_per_sec
}

fn bench_cache_throughput(c: &mut Criterion) {
    // Pin intra-op tensor parallelism to one thread (must happen before
    // the first tensor op caches the count), so the comparison isolates
    // caching, not kernel-level threading.
    std::env::set_var("VRDAG_THREADS", "1");
    let registry = registry();
    let mut group = c.benchmark_group("cache_throughput");
    group.sample_size(10);
    group.bench_with_input(
        BenchmarkId::new("repeated_16_jobs", "cold"),
        &CacheBudget::disabled(),
        |b, &budget| b.iter(|| black_box(drain_repeated(&registry, budget))),
    );
    group.bench_with_input(
        BenchmarkId::new("repeated_16_jobs", "warm"),
        &CacheBudget::entries(16),
        |b, &budget| b.iter(|| black_box(drain_repeated(&registry, budget))),
    );
    group.finish();
}

criterion_group!(benches, bench_cache_throughput);
criterion_main!(benches);
