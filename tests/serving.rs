//! Integration tests of the serving subsystem: stepper/one-shot
//! equivalence, persist → registry → concurrent generation determinism,
//! and streaming spill through the incremental writers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use vrdag_suite::graph::io;
use vrdag_suite::prelude::*;
use vrdag_suite::serve::SnapshotStream;

fn work_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join("vrdag_serving_it").join(name);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn fitted_model(seed: u64) -> Vrdag {
    let g = datasets::generate(&datasets::tiny(), seed);
    let mut cfg = VrdagConfig::test_small();
    cfg.epochs = 2;
    let mut model = Vrdag::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed);
    model.fit(&g, &mut rng).unwrap();
    model
}

#[test]
fn generation_state_step_matches_one_shot_generate() {
    let model = fitted_model(1);
    let mut r1 = StdRng::seed_from_u64(99);
    let one_shot = model.generate(6, &mut r1).unwrap();

    let mut r2 = StdRng::seed_from_u64(99);
    let mut state = model.begin_generation(&mut r2).unwrap();
    let stepped: Vec<Snapshot> = (0..6).map(|_| state.step(&model)).collect();
    assert_eq!(one_shot, DynamicGraph::new(stepped));
}

#[test]
fn persist_load_then_concurrent_generate_is_deterministic_and_distinct() {
    // persist → load → concurrent generate from 4 threads with distinct
    // seeds produces deterministic, distinct graphs.
    let dir = work_dir("registry_concurrency");
    let model = fitted_model(2);
    let path = dir.join("model.vrdg");
    model.save(&path).unwrap();

    let registry = ModelRegistry::new();
    registry.load_file("m", &path).unwrap();
    let handle = Arc::new(registry.get("m").unwrap());

    let spawn_fleet = || -> Vec<DynamicGraph> {
        let threads: Vec<_> = (0..4u64)
            .map(|seed| {
                let handle = Arc::clone(&handle);
                std::thread::spawn(move || {
                    let stream = handle.stream(4, seed).unwrap();
                    DynamicGraph::new(stream.collect::<Vec<_>>())
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    };

    let first = spawn_fleet();
    let second = spawn_fleet();
    // Deterministic: same seed → same graph across runs and threads.
    assert_eq!(first, second);
    // Matches the single-threaded path on the original (pre-save) model.
    for (seed, g) in first.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        assert_eq!(g, &model.generate(4, &mut rng).unwrap(), "seed {seed}");
    }
    // Distinct: different seeds give different graphs.
    for a in 0..first.len() {
        for b in a + 1..first.len() {
            assert_ne!(first[a], first[b], "seeds {a} and {b} collided");
        }
    }
}

#[test]
fn scheduler_streams_to_disk_with_bounded_memory_sinks() {
    let dir = work_dir("scheduler_spill");
    let model = fitted_model(3);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();

    let mut scheduler = Scheduler::new(registry, 2).unwrap();
    for seed in 0..4u64 {
        let sink = if seed % 2 == 0 {
            GenSink::TsvFile(dir.join(format!("gen-{seed}.tsv")))
        } else {
            GenSink::BinaryFile(dir.join(format!("gen-{seed}.vdag")))
        };
        scheduler.submit(GenRequest::new("m", 3, seed, sink)).unwrap();
    }
    let report = scheduler.join().unwrap();
    assert!(report.all_ok(), "{}", report.render());
    assert_eq!(report.jobs.len(), 4);
    // The streaming sinks never materialize a DynamicGraph.
    assert!(report.jobs.iter().all(|j| j.graph.is_none()));

    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let expected = model.generate(3, &mut rng).unwrap();
        let on_disk = if seed % 2 == 0 {
            io::load_tsv(dir.join(format!("gen-{seed}.tsv"))).unwrap()
        } else {
            io::load_binary(dir.join(format!("gen-{seed}.vdag"))).unwrap()
        };
        assert_eq!(expected, on_disk, "seed {seed}");
    }
}

#[test]
fn snapshot_stream_spills_incrementally_through_io_writers() {
    let model = fitted_model(4);
    let bytes = model.to_bytes().unwrap();

    // TSV spill equals the one-shot writer output byte-for-byte.
    let stream = SnapshotStream::new(Vrdag::from_bytes(&bytes).unwrap(), 4, 5).unwrap();
    let mut spilled = Vec::new();
    stream.spill_tsv(&mut spilled).unwrap();

    let mut rng = StdRng::seed_from_u64(5);
    let expected = model.generate(4, &mut rng).unwrap();
    let one_shot = io::write_tsv(&expected, Vec::new()).unwrap();
    assert_eq!(spilled, one_shot);
}

#[test]
fn facade_prelude_exposes_the_serving_surface() {
    // Compile-time check that the serving types flow through the facade.
    let registry: ModelRegistry = ModelRegistry::new();
    assert!(registry.is_empty());
    let _stats: vrdag_suite::serve::StreamStats = Default::default();
    let _cache: SnapshotCache = SnapshotCache::new(CacheBudget::entries(2));
    let _cache_stats: CacheStats = _cache.stats();
    // SchedulerConfig is the compatibility alias of ServeConfig.
    let _config: SchedulerConfig = ServeConfig::default();
    let model = fitted_model(6);
    let mut rng = StdRng::seed_from_u64(0);
    let state: GenerationState = model.begin_generation(&mut rng).unwrap();
    assert_eq!(state.t(), 0);

    // The service core and wire layer flow through the prelude too.
    registry.register("m", &model).unwrap();
    let handle: ServeHandle = ServeHandle::new(registry, 1).unwrap();
    let ticket: Ticket = handle.submit(GenRequest::new("m", 1, 0, GenSink::Discard)).unwrap();
    assert!(ticket.wait().unwrap().is_ok());
    let serve_stats: ServeStats = handle.stats();
    assert_eq!(serve_stats.completed, 1);
    let frontend: Frontend = Frontend::bind(handle.clone(), "127.0.0.1:0").unwrap();
    let _client: LineClient = LineClient::connect(frontend.local_addr()).unwrap();
}

#[test]
fn pooled_scheduling_matches_per_job_scheduling() {
    // N same-model jobs drained by a shared two-worker pool must produce
    // exactly the sequences that one-scheduler-per-job scheduling
    // produces for the same seeds.
    let model = fitted_model(7);
    let seeds: Vec<u64> = (0..6).collect();

    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let mut pooled = Scheduler::new(registry.clone(), 2).unwrap();
    for &seed in &seeds {
        pooled.submit(GenRequest::new("m", 4, seed, GenSink::InMemory)).unwrap();
    }
    let report = pooled.join().unwrap();
    assert!(report.all_ok(), "{}", report.render());

    for &seed in &seeds {
        let mut solo = Scheduler::new(registry.clone(), 1).unwrap();
        solo.submit(GenRequest::new("m", 4, seed, GenSink::InMemory)).unwrap();
        let solo_report = solo.join().unwrap();
        assert!(solo_report.all_ok(), "{}", solo_report.render());
        let expected = solo_report.jobs[0].graph.as_deref().unwrap();
        let pooled_job = report.jobs.iter().find(|j| j.seed == seed).unwrap();
        assert_eq!(pooled_job.graph.as_deref().unwrap(), expected, "seed {seed}");
    }
}

#[test]
fn admission_control_rejects_overflow_and_report_stays_consistent() {
    let model = fitted_model(8);
    let registry = ModelRegistry::new();
    registry.register("m", &model).unwrap();
    let mut scheduler = Scheduler::with_config(
        registry,
        SchedulerConfig { workers: 1, max_queue_depth: Some(1), ..Default::default() },
    )
    .unwrap();

    // Pin the single worker inside a job so submissions stay queued.
    let (started_tx, started_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let mut fired = false;
    scheduler
        .submit(GenRequest::new(
            "m",
            1,
            0,
            GenSink::Callback(Box::new(move |_, _| {
                if !fired {
                    fired = true;
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }
            })),
        ))
        .unwrap();
    started_rx.recv().unwrap();

    let accepted = scheduler.submit(GenRequest::new("m", 1, 1, GenSink::Discard)).unwrap();
    let rejected = scheduler.submit(GenRequest::new("m", 1, 2, GenSink::Discard));
    match rejected {
        Err(ServeError::QueueFull { depth, cap }) => {
            assert_eq!((depth, cap), (1, 1));
        }
        other => panic!("expected QueueFull, got {:?}", other.map(|_| ())),
    }

    release_tx.send(()).unwrap();
    let report = scheduler.join().unwrap();
    assert!(report.all_ok(), "{}", report.render());
    // Exactly the accepted jobs ran; the rejected seed never appears.
    assert_eq!(report.jobs.len(), 2);
    assert!(report.jobs.iter().any(|j| j.id == accepted));
    assert!(report.jobs.iter().all(|j| j.seed != 2));
}
