//! Inputs made from the workload seed: the synthetic graph, the fitted
//! model and the request seeds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use vrdag::{Vrdag, VrdagConfig};
use vrdag_graph::io::BinaryStreamWriter;
use vrdag_graph::Snapshot;
use vrdag_serve::ModelHandle;

/// Epochs every workload fits for.
pub const EPOCHS: usize = 2;

/// Models fitted per run, each on its own synthetic graph. Requests
/// rotate across them: a model's generation cost depends on its fitted
/// weights, so one run averages over several fits instead of resting on
/// one.
pub const MODELS: usize = 4;

/// A request's model and seed: the address of one output.
pub type Key = (usize, u64);

/// The registered name of model `i`.
pub fn name(i: usize) -> String {
    format!("m{i}")
}

/// Independent seed streams derived from the one workload seed.
pub mod stream {
    pub const GRAPH: u64 = 1;
    pub const FIT: u64 = 2;
    pub const REQUEST: u64 = 3;
    pub const KEY_PICK: u64 = 4;
    pub const PROBE: u64 = 5;
}

/// SplitMix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th value of seed stream `stream` under the workload seed.
pub fn derive(seed: u64, stream: u64, i: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ i)
}

/// Synthesize Email at `scale` and fit model `i` to it; returns the
/// serialized artifact.
fn fit(scale: f64, seed: u64, i: usize) -> Vec<u8> {
    let graph = vrdag_datasets::generate(
        &vrdag_datasets::email().scaled(scale),
        derive(seed, stream::GRAPH, i as u64),
    );
    let fit_seed = derive(seed, stream::FIT, i as u64);
    let mut model =
        Vrdag::new(VrdagConfig { epochs: EPOCHS, seed: fit_seed, ..VrdagConfig::default() });
    model.fit(&graph, &mut StdRng::seed_from_u64(fit_seed)).expect("synthetic graph fits");
    model.to_bytes().expect("a fitted model serializes")
}

/// Fit all [`MODELS`] models, spread over `threads` threads.
pub fn fit_all(scale: f64, seed: u64, threads: usize) -> Vec<Vec<u8>> {
    let threads = threads.clamp(1, MODELS);
    let mut fitted: Vec<(usize, Vec<u8>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || {
                    (k..MODELS)
                        .step_by(threads)
                        .map(|i| (i, vrdag_tensor::par::with_threads(1, || fit(scale, seed, i))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("fit thread panicked")).collect()
    });
    fitted.sort_by_key(|(i, _)| *i);
    fitted.into_iter().map(|(_, bytes)| bytes).collect()
}

/// Binary stream encoding (the wire's `fmt=bin` payload) of a sequence.
pub fn encode_bin(snapshots: &[Snapshot]) -> Vec<u8> {
    let first = &snapshots[0];
    let mut w =
        BinaryStreamWriter::new(Vec::new(), first.n_nodes(), first.n_attrs(), snapshots.len())
            .expect("writing to memory");
    for s in snapshots {
        w.write_snapshot(s).expect("writing to memory");
    }
    w.finish().expect("writing to memory")
}

/// Reference digests: for each key, `artifact_fingerprint` of
/// `ModelHandle::stream(t, seed)` spilled as binary. Computed on two
/// threads, each generating single-threaded, so the reference also
/// checks that the bytes do not depend on the thread count.
pub fn reference_digests(handles: &[ModelHandle], t: usize, keys: &[Key]) -> BTreeMap<Key, u64> {
    let half = keys.len().div_ceil(2);
    std::thread::scope(|scope| {
        let workers: Vec<_> = keys
            .chunks(half.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    vrdag_tensor::par::with_threads(1, || {
                        chunk
                            .iter()
                            .map(|&(model, seed)| {
                                let mut buf = Vec::new();
                                handles[model]
                                    .stream(t, seed)
                                    .and_then(|s| s.spill_binary(&mut buf))
                                    .expect("reference generation");
                                ((model, seed), vrdag::artifact_fingerprint(&buf))
                            })
                            .collect::<Vec<_>>()
                    })
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("reference thread panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_repeat_and_separate_streams() {
        assert_eq!(derive(7, stream::REQUEST, 3), derive(7, stream::REQUEST, 3));
        assert_ne!(derive(7, stream::REQUEST, 3), derive(7, stream::REQUEST, 4));
        assert_ne!(derive(7, stream::REQUEST, 3), derive(7, stream::KEY_PICK, 3));
        assert_ne!(derive(7, stream::REQUEST, 3), derive(8, stream::REQUEST, 3));
    }
}
