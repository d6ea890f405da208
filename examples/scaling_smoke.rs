//! Scheduler-scaling smoke: the same batch of generation jobs on 1
//! worker and on 2 workers, with correctness asserted (identical
//! outputs either way) and the speedup printed.
//!
//! Intended for CI's multi-core runners — on a host with fewer free
//! cores than workers, 2 workers legitimately cannot beat 1. Timing is
//! therefore *reported*, and the run only fails on an egregious
//! regression (2 workers slower than 1 by more than the generous
//! [`REGRESSION_FACTOR`]), never on a missed speedup — CI boxes are
//! noisy neighbors.
//!
//! ```sh
//! cargo run --release --example scaling_smoke
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use vrdag_suite::prelude::*;

/// 2 workers may be this many times *slower* than 1 before the smoke
/// fails. Generous on purpose: the gate catches "multi-worker scheduling
/// went pathological", not "the runner was busy".
const REGRESSION_FACTOR: f64 = 1.5;

const JOBS: usize = 16;
const T_LEN: usize = 30;

fn run_batch(registry: &ModelRegistry, workers: usize) -> (f64, Vec<(u64, u64)>) {
    // Cache disabled: every job must really generate, or the second
    // configuration would be measured against warm entries.
    let handle = ServeHandle::with_config(
        registry.clone(),
        ServeConfig { workers, cache: CacheBudget::disabled(), ..Default::default() },
    )
    .unwrap();
    let started = Instant::now();
    let tickets: Vec<Ticket> = (0..JOBS as u64)
        .map(|seed| handle.submit(GenRequest::new("m", T_LEN, seed, GenSink::InMemory)).unwrap())
        .collect();
    // (seed, edge count) per job — a cheap output digest that must not
    // depend on the worker count.
    let mut digests: Vec<(u64, u64)> = tickets
        .into_iter()
        .map(|t| {
            let result = t.wait().unwrap();
            assert!(result.is_ok(), "{:?}", result.error);
            assert_eq!(result.snapshots, T_LEN);
            (result.seed, result.edges as u64)
        })
        .collect();
    let seconds = started.elapsed().as_secs_f64();
    digests.sort_unstable();
    let stats = handle.shutdown();
    assert_eq!(stats.completed, JOBS as u64);
    assert_eq!(stats.failed, 0);
    (seconds, digests)
}

fn main() {
    let graph = datasets::generate(&datasets::tiny(), 7);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(7);
    model.fit(&graph, &mut rng).unwrap();
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("scaling smoke: {JOBS} jobs x t={T_LEN} on a {cores}-core host");

    let (t1, d1) = run_batch(&registry, 1);
    let (t2, d2) = run_batch(&registry, 2);
    assert_eq!(d1, d2, "worker count changed the generated outputs");

    let speedup = t1 / t2.max(1e-9);
    println!("  1 worker : {t1:.3}s");
    println!("  2 workers: {t2:.3}s");
    println!("  speedup  : {speedup:.2}x (ideal 2.00x on >=2 cores)");
    if cores < 2 {
        println!("  single-core host: speedup not expected, timing informational only");
    } else if speedup < 1.0 {
        println!("  note: 2 workers did not beat 1 this run — timing may be noisy");
    }
    assert!(
        t2 <= t1 * REGRESSION_FACTOR,
        "2 workers were {:.2}x SLOWER than 1 (allowed {REGRESSION_FACTOR}x) — \
         scheduler scaling regressed",
        t2 / t1.max(1e-9),
    );
    println!("scheduler-scaling smoke passed ✓");
}
