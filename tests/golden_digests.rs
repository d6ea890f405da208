//! Golden digests: the output bytes of a committed model, pinned.
//!
//! The other determinism suites compare runs with each other, so a change
//! that moves every run's bytes the same way would pass them. This suite
//! compares against a fixed table instead. The model is
//! `tests/fixtures/golden.vrdg` (default decoder dims, N=95; see
//! `tests/fixtures/README.md`). Each row holds the FNV-1a digest
//! (`vrdag::artifact_fingerprint`) of the tsv and of the binary encoding of
//! one `(t, seed)` sequence. Every path that produces those bytes must
//! match the table: direct `Vrdag::generate`, `ModelHandle::stream`, and
//! `ServeHandle` jobs, cold and replayed from the cache, at one and two
//! intra-job threads.
//!
//! A digest may change only through a deliberate change to the model
//! format or the generation contract, with the reason recorded in
//! CHANGES.md. The table assumes IEEE-754 `f32`/`f64` arithmetic and the
//! platform's `exp`; it was recorded on x86_64 Linux (glibc).

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;
use vrdag_suite::prelude::*;
use vrdag_suite::serve::ModelHandle;
use vrdag_suite::vrdag::artifact_fingerprint;

/// `(t, seed, tsv digest, bin digest)`.
const GOLDEN: [(usize, u64, u64, u64); 6] = [
    (1, 1, 0x558a64df366605d4, 0xfbf0e3d60f4fa53d),
    (1, 2, 0x80d733d3cfd3e8a9, 0x2d4a58adc2db64e1),
    (1, 3, 0xd29041b2b9714893, 0xf705bcbd773a04dd),
    (8, 1, 0x36ee743e1576159a, 0x62507d6773173fd0),
    (8, 2, 0x4658e326ebdfd777, 0x0667fd5c3a86462b),
    (8, 3, 0xf1bfae6e059b6ca6, 0x467e6cd5dc2de85f),
];

fn model_bytes() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/golden.vrdg");
        std::fs::read(path).expect("golden model fixture")
    })
}

fn handle() -> ModelHandle {
    let registry = ModelRegistry::new();
    registry.register_bytes("golden", model_bytes().clone()).unwrap()
}

/// Compare one path's digests with the table; on a mismatch, print the
/// whole observed table so a deliberate change can be reviewed row by row.
fn assert_table(path: &str, observed: &[(u64, u64)]) {
    let expected: Vec<(u64, u64)> = GOLDEN.iter().map(|&(_, _, tsv, bin)| (tsv, bin)).collect();
    if observed != expected.as_slice() {
        let rows: Vec<String> = GOLDEN
            .iter()
            .zip(observed)
            .map(|(&(t, seed, _, _), &(tsv, bin))| {
                format!("    ({t}, {seed}, {tsv:#018x}, {bin:#018x}),")
            })
            .collect();
        panic!("{path}: digests differ from the golden table; observed:\n{}", rows.join("\n"));
    }
}

#[test]
fn fixture_has_the_default_decoder_dims() {
    let model = Vrdag::from_bytes(model_bytes()).unwrap();
    let defaults = VrdagConfig::default();
    assert_eq!(model.config().k_mix, defaults.k_mix);
    assert_eq!(model.config().decoder_hidden, defaults.decoder_hidden);
    assert_eq!(model.n_nodes(), Some(95));
    assert_ne!(95 % 8, 0, "the fixture must leave a ragged lane block");
}

#[test]
fn direct_generation_matches_the_golden_table() {
    let model = Vrdag::from_bytes(model_bytes()).unwrap();
    let observed: Vec<(u64, u64)> = GOLDEN
        .iter()
        .map(|&(t, seed, _, _)| {
            let g = model.generate(t, &mut StdRng::seed_from_u64(seed)).unwrap();
            let tsv = vrdag_suite::graph::io::write_tsv(&g, Vec::new()).unwrap();
            let bin = vrdag_suite::graph::io::encode_binary(&g);
            (artifact_fingerprint(&tsv), artifact_fingerprint(bin.as_ref()))
        })
        .collect();
    assert_table("Vrdag::generate", &observed);
}

#[test]
fn streamed_generation_matches_the_golden_table() {
    let handle = handle();
    let observed: Vec<(u64, u64)> = GOLDEN
        .iter()
        .map(|&(t, seed, _, _)| {
            let mut tsv = Vec::new();
            handle.stream(t, seed).unwrap().spill_tsv(&mut tsv).unwrap();
            let mut bin = Vec::new();
            handle.stream(t, seed).unwrap().spill_binary(&mut bin).unwrap();
            (artifact_fingerprint(&tsv), artifact_fingerprint(&bin))
        })
        .collect();
    assert_table("ModelHandle::stream", &observed);
}

#[test]
fn served_cold_and_cached_generation_matches_the_golden_table() {
    let dir = std::env::temp_dir().join(format!("vrdag_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for threads in [1usize, 2] {
        let registry = ModelRegistry::new();
        registry.register_bytes("golden", model_bytes().clone()).unwrap();
        let serve = ServeHandle::with_config(
            registry,
            ServeConfig {
                workers: 1,
                cache: CacheBudget::entries(16),
                intra_threads: Some(threads),
                ..Default::default()
            },
        )
        .unwrap();
        // Pass 0 misses on the tsv job and replays for the binary job;
        // pass 1 replays both.
        let mut passes = [Vec::new(), Vec::new()];
        for (pass, observed) in passes.iter_mut().enumerate() {
            for &(t, seed, _, _) in &GOLDEN {
                let tsv_path = dir.join(format!("{threads}-{pass}-{t}-{seed}.tsv"));
                let bin_path = dir.join(format!("{threads}-{pass}-{t}-{seed}.vdag"));
                let tsv_job = serve
                    .submit(GenRequest::new("golden", t, seed, GenSink::TsvFile(tsv_path.clone())))
                    .unwrap()
                    .wait()
                    .unwrap();
                let bin_job = serve
                    .submit(GenRequest::new(
                        "golden",
                        t,
                        seed,
                        GenSink::BinaryFile(bin_path.clone()),
                    ))
                    .unwrap()
                    .wait()
                    .unwrap();
                assert!(
                    tsv_job.is_ok() && bin_job.is_ok(),
                    "{:?} {:?}",
                    tsv_job.error,
                    bin_job.error
                );
                assert_eq!(tsv_job.cache_hit, pass == 1, "threads {threads} pass {pass}: tsv job");
                assert!(bin_job.cache_hit, "threads {threads} pass {pass}: bin job must replay");
                observed.push((
                    artifact_fingerprint(&std::fs::read(&tsv_path).unwrap()),
                    artifact_fingerprint(&std::fs::read(&bin_path).unwrap()),
                ));
            }
        }
        serve.shutdown();
        assert_table(&format!("ServeHandle cold, {threads} intra-job threads"), &passes[0]);
        assert_table(&format!("ServeHandle cached, {threads} intra-job threads"), &passes[1]);
    }
    std::fs::remove_dir_all(&dir).ok();
}
