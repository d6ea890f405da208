//! The attributed graph generator (§III-C): the **MixBernoulli sampler**
//! for directed topology (Eq. 11) and the **GAT attribute decoder**
//! (Eq. 12), factorized per Eq. 10 (structure first, attributes conditioned
//! on the generated structure).
//!
//! Training evaluates the pairwise MLPs `f_α`, `f_θ` on *sampled* pairs
//! (positives + `Q` negatives per node, with importance weights that keep
//! the expected loss equal to the full-matrix BCE of Eq. 17). Generation
//! evaluates **all** `N²` pairs using the difference factorization: the
//! first Linear layer distributes over `s_i − s_j`, so `W·s_i` is
//! precomputed once and each pair costs only `O(h + hK)` — the CPU analogue
//! of the paper's batched GPU decode.

// Index-based loops below walk several parallel arrays in hot paths;
// iterator zips would obscure them. (clippy::needless_range_loop)
#![allow(clippy::needless_range_loop)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::rc::Rc;
use vrdag_graph::Snapshot;
use vrdag_tensor::nn::{Activation, Linear, Mlp};
use vrdag_tensor::ops::{self, Segments};
use vrdag_tensor::{par, Matrix, Tensor};

/// Sampled pair batch for the structure reconstruction loss (Eq. 17 with
/// negative sampling).
pub struct PairBatch {
    /// Source node of every pair.
    pub src: Rc<Vec<u32>>,
    /// Destination node of every pair.
    pub dst: Rc<Vec<u32>>,
    /// 1.0 for observed edges, 0.0 for sampled non-edges; `[P, 1]`.
    pub targets: Rc<Matrix>,
    /// Importance weights: 1 for positives, `(N−1−deg⁺_i)/Q` for negatives.
    pub weights: Rc<Matrix>,
}

impl PairBatch {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

/// Sample the Eq. 17 training pairs for one snapshot: every observed edge
/// as a positive plus `q` random non-edges per node.
pub fn sample_pair_batch(s: &Snapshot, q: usize, rng: &mut impl Rng) -> PairBatch {
    let n = s.n_nodes();
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    for i in 0..n {
        let outs = s.out_adj().neighbors(i);
        for &j in outs {
            src.push(i as u32);
            dst.push(j);
            targets.push(1.0);
            weights.push(1.0);
        }
        let non_edges = (n - 1).saturating_sub(outs.len());
        if non_edges == 0 || q == 0 {
            continue;
        }
        let w_neg = non_edges as f32 / q as f32;
        let mut drawn = 0usize;
        let mut guard = 0usize;
        while drawn < q && guard < 20 * q {
            guard += 1;
            let j = rng.gen_range(0..n) as u32;
            if j as usize == i || outs.binary_search(&j).is_ok() {
                continue;
            }
            src.push(i as u32);
            dst.push(j);
            targets.push(0.0);
            weights.push(w_neg);
            drawn += 1;
        }
    }
    let p = src.len();
    PairBatch {
        src: Rc::new(src),
        dst: Rc::new(dst),
        targets: Rc::new(Matrix::from_vec(p, 1, targets)),
        weights: Rc::new(Matrix::from_vec(p, 1, weights)),
    }
}

/// The MixBernoulli topology sampler (Eq. 11).
#[derive(Clone)]
pub struct MixBernoulliDecoder {
    f_alpha: Mlp,
    f_theta: Mlp,
    k: usize,
    slope: f32,
}

impl MixBernoulliDecoder {
    /// `d_s = d_z + d_h` is the per-node decoder state width; `hidden` the
    /// MLP width; `k` the number of mixture components.
    pub fn new(d_s: usize, hidden: usize, k: usize, slope: f32, rng: &mut impl Rng) -> Self {
        let act = Activation::LeakyRelu(slope);
        let f_alpha = Mlp::new(&[d_s, hidden, k], act, Activation::Identity, rng);
        let f_theta = Mlp::new(&[d_s, hidden, k], act, Activation::Identity, rng);
        // Bias the edge logits negative so the initial model is sparse
        // (graphs have density ≪ 0.5; without this the first epochs decode
        // near-complete graphs).
        f_theta.layer(1).bias.update_value(|b| b.fill(-2.5));
        MixBernoulliDecoder { f_alpha, f_theta, k, slope }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// Training-time mixture weights `α ∈ [n, K]` (Eq. 11): the sum
    /// `Σ_j f_α(s_i − s_j)` is approximated with `r` shared reference nodes
    /// scaled by `n/r` (exact at generation).
    pub fn alpha_train(&self, s: &Tensor, n: usize, r: usize, rng: &mut impl Rng) -> Tensor {
        let r = r.max(1).min(n);
        let refs: Vec<u32> = (0..r).map(|_| rng.gen_range(0..n) as u32).collect();
        let mut src = Vec::with_capacity(n * r);
        let mut dst = Vec::with_capacity(n * r);
        for i in 0..n as u32 {
            for &j in &refs {
                src.push(i);
                dst.push(j);
            }
        }
        let src = Rc::new(src);
        let d = ops::sub(&ops::gather_rows(s, Rc::clone(&src)), &ops::gather_rows(s, Rc::new(dst)));
        let f = self.f_alpha.forward(&d);
        let pooled = ops::scatter_add_rows(&f, src, n);
        ops::softmax_rows(&ops::scale(&pooled, n as f32 / r as f32))
    }

    /// Per-pair edge probabilities `p_ij = Σ_k α_{k,i} θ_{k,i,j}` for a
    /// sampled batch; `[P, 1]`.
    pub fn pair_probs(&self, s: &Tensor, alpha: &Tensor, batch: &PairBatch) -> Tensor {
        let d = ops::sub(
            &ops::gather_rows(s, Rc::clone(&batch.src)),
            &ops::gather_rows(s, Rc::clone(&batch.dst)),
        );
        let theta = ops::sigmoid(&self.f_theta.forward(&d));
        let alpha_pairs = ops::gather_rows(alpha, Rc::clone(&batch.src));
        ops::sum_cols(&ops::mul(&alpha_pairs, &theta))
    }

    /// Negative-sampled BCE structure loss (Eq. 17), normalized by `|V|`.
    pub fn structure_loss(
        &self,
        s: &Tensor,
        alpha: &Tensor,
        batch: &PairBatch,
        n: usize,
    ) -> Tensor {
        let p = self.pair_probs(s, alpha, batch);
        ops::bce_probs(&p, Rc::clone(&batch.targets), Some(Rc::clone(&batch.weights)), n as f32)
    }

    /// Materialize the decode-time weight plan once (see [`DecodePlan`]).
    ///
    /// Generation calls this once per job and reuses the plan across every
    /// snapshot step, instead of cloning all eight weight matrices out of
    /// the autograd tensors on every `generate_edges` call.
    pub fn plan(&self) -> DecodePlan {
        DecodePlan {
            w1a: self.f_alpha.layer(0).weight.value_clone(),
            b1a: self.f_alpha.layer(0).bias.value_clone(),
            w2a: self.f_alpha.layer(1).weight.value_clone(),
            b2a: self.f_alpha.layer(1).bias.value_clone(),
            w1t: self.f_theta.layer(0).weight.value_clone(),
            b1t: self.f_theta.layer(0).bias.value_clone(),
            w2t: self.f_theta.layer(1).weight.value_clone(),
            b2t: self.f_theta.layer(1).bias.value_clone(),
            k: self.k,
            slope: self.slope,
        }
    }

    /// One-shot full-adjacency generation (Algorithm 1, line 4).
    ///
    /// Convenience wrapper that builds a fresh [`DecodePlan`] per call;
    /// steady-state generation should build the plan once and call
    /// [`DecodePlan::generate_edges`] per step.
    pub fn generate_edges(&self, s: &Matrix, m_target: Option<f64>, seed: u64) -> Vec<(u32, u32)> {
        self.plan().generate_edges(s, m_target, seed)
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.f_alpha.parameters();
        p.extend(self.f_theta.parameters());
        p
    }
}

/// Decode-time snapshot of the [`MixBernoulliDecoder`] weights.
///
/// The weights are fixed for the whole of a generation job, so the serving
/// hot path materializes them out of the `Rc`-based autograd tensors once
/// (`MixBernoulliDecoder::plan`) and reuses the buffers for every snapshot —
/// part of the per-step arena reuse, alongside the `OnceLock`-cached CSR
/// builds in `vrdag_graph::Snapshot`.
#[derive(Clone, Debug)]
pub struct DecodePlan {
    w1a: Matrix,
    b1a: Matrix,
    w2a: Matrix,
    b2a: Matrix,
    w1t: Matrix,
    b1t: Matrix,
    w2t: Matrix,
    b2t: Matrix,
    k: usize,
    slope: f32,
}

impl DecodePlan {
    /// One-shot full-adjacency generation (Algorithm 1, line 4).
    ///
    /// `s` is the `[n, d_s]` decoder state matrix; `m_target` optionally
    /// calibrates the expected edge count (see `VrdagConfig::
    /// calibrate_density`); `seed` drives deterministic per-row RNG so the
    /// parallel decode is reproducible regardless of thread count: each row
    /// derives its own `splitmix64` stream from the job seed and the inner
    /// float loops run in serial per-row order, so chunk boundaries chosen
    /// by `par::num_threads()` never change the output bytes.
    pub fn generate_edges(&self, s: &Matrix, m_target: Option<f64>, seed: u64) -> Vec<(u32, u32)> {
        let n = s.rows();
        if n < 2 {
            return Vec::new();
        }
        let k = self.k;
        let (w2a, b1a, b2a) = (&self.w2a, &self.b1a, &self.b2a);
        let (w2t, b1t, b2t) = (&self.w2t, &self.b1t, &self.b2t);
        // First-layer precompute: U = S·W1 (+ b1 at pair time).
        let h = self.w1a.cols();
        let ua = s.matmul(&self.w1a);
        let ut = s.matmul(&self.w1t);
        let slope = self.slope;
        let calibrate = m_target.is_some();

        // Pass A: exact mixture weights per row (Eq. 11's Σ_j), plus — when
        // calibrating — the expected edge mass per row.
        struct RowStat {
            alpha: Vec<f32>,
            expected: f64,
        }
        impl Default for RowStat {
            fn default() -> Self {
                RowStat { alpha: Vec::new(), expected: 0.0 }
            }
        }
        impl Clone for RowStat {
            fn clone(&self) -> Self {
                RowStat { alpha: self.alpha.clone(), expected: self.expected }
            }
        }
        let stats: Vec<RowStat> = par::par_map_collect(n, 1, |i| {
            let mut acc = vec![0.0f64; k];
            let mut theta_sum = vec![0.0f64; k];
            let ua_i = ua.row(i);
            let ut_i = ut.row(i);
            let mut ha = vec![0.0f32; h];
            let mut ht = vec![0.0f32; h];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let ua_j = ua.row(j);
                for x in 0..h {
                    let v = ua_i[x] - ua_j[x] + b1a.data()[x];
                    ha[x] = if v > 0.0 { v } else { slope * v };
                }
                for kk in 0..k {
                    let mut o = b2a.data()[kk];
                    for x in 0..h {
                        o += ha[x] * w2a.get(x, kk);
                    }
                    acc[kk] += o as f64;
                }
                if calibrate {
                    let ut_j = ut.row(j);
                    for x in 0..h {
                        let v = ut_i[x] - ut_j[x] + b1t.data()[x];
                        ht[x] = if v > 0.0 { v } else { slope * v };
                    }
                    for kk in 0..k {
                        let mut o = b2t.data()[kk];
                        for x in 0..h {
                            o += ht[x] * w2t.get(x, kk);
                        }
                        theta_sum[kk] += (1.0 / (1.0 + (-o).exp())) as f64;
                    }
                }
            }
            // Softmax over K.
            let mx = acc.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = acc.iter().map(|&a| (a - mx).exp()).collect();
            let z: f64 = exps.iter().sum();
            let alpha: Vec<f32> = exps.iter().map(|&e| (e / z) as f32).collect();
            let expected: f64 =
                alpha.iter().zip(theta_sum.iter()).map(|(&a, &t)| a as f64 * t).sum();
            RowStat { alpha, expected }
        });

        let c = match m_target {
            Some(target) => {
                let e_total: f64 = stats.iter().map(|r| r.expected).sum();
                if e_total > 1e-9 {
                    (target / e_total).clamp(1e-4, 1e4)
                } else {
                    1.0
                }
            }
            None => 1.0,
        };

        // Pass B: choose a mixture component per row and Bernoulli-sample
        // its adjacency list (rows are independent given α — the paper's
        // "different rows can be computed in parallel").
        let rows: Vec<Vec<u32>> = par::par_map_collect(n, 1, |i| {
            let mut rng = StdRng::seed_from_u64(splitmix64(
                seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            let alpha = &stats[i].alpha;
            let kk = sample_categorical(alpha, &mut rng);
            let ut_i = ut.row(i);
            let mut out = Vec::new();
            let mut ht = vec![0.0f32; h];
            for j in 0..n {
                if j == i {
                    continue;
                }
                let ut_j = ut.row(j);
                for x in 0..h {
                    let v = ut_i[x] - ut_j[x] + b1t.data()[x];
                    ht[x] = if v > 0.0 { v } else { slope * v };
                }
                let mut o = b2t.data()[kk];
                for x in 0..h {
                    o += ht[x] * w2t.get(x, kk);
                }
                let theta = 1.0 / (1.0 + (-o as f64).exp());
                let p = (c * theta).min(1.0);
                if (rng.gen::<f64>()) < p {
                    out.push(j as u32);
                }
            }
            out
        });

        let mut edges = Vec::with_capacity(rows.iter().map(|r| r.len()).sum());
        for (i, dsts) in rows.into_iter().enumerate() {
            for j in dsts {
                edges.push((i as u32, j));
            }
        }
        edges
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn sample_categorical(probs: &[f32], rng: &mut impl RngCore) -> usize {
    let total: f32 = probs.iter().sum();
    let mut x = (rng.next_u64() >> 11) as f32 / (1u64 << 53) as f32 * total;
    for (i, &p) in probs.iter().enumerate() {
        if x < p {
            return i;
        }
        x -= p;
    }
    probs.len() - 1
}

/// The GAT-based attribute decoder (Eq. 12): one attention head over the
/// generated structure followed by an output MLP.
#[derive(Clone)]
pub struct AttributeDecoder {
    w: Linear,
    a_src: Linear,
    a_dst: Linear,
    mlp: Mlp,
    slope: f32,
}

impl AttributeDecoder {
    pub fn new(
        d_s: usize,
        gat_hidden: usize,
        f_out: usize,
        slope: f32,
        rng: &mut impl Rng,
    ) -> Self {
        AttributeDecoder {
            w: Linear::new(d_s, gat_hidden, rng),
            a_src: Linear::new(gat_hidden, 1, rng),
            a_dst: Linear::new(gat_hidden, 1, rng),
            mlp: Mlp::new(
                &[gat_hidden, gat_hidden, f_out],
                Activation::LeakyRelu(slope),
                Activation::Identity,
                rng,
            ),
            slope,
        }
    }

    /// Decode attributes from decoder states `s = [Z_t ‖ H_{t−1}]` and edge
    /// arrays (with self-loops; see [`gat_arrays`]).
    pub fn forward(
        &self,
        s: &Tensor,
        src: &Rc<Vec<u32>>,
        dst: &Rc<Vec<u32>>,
        segments: &Rc<Segments>,
        n: usize,
    ) -> Tensor {
        let hmat = self.w.forward(s);
        let hs = ops::gather_rows(&hmat, Rc::clone(src));
        let hd = ops::gather_rows(&hmat, Rc::clone(dst));
        let e = ops::leaky_relu(
            &ops::add(&self.a_src.forward(&hs), &self.a_dst.forward(&hd)),
            self.slope,
        );
        let att = ops::segment_softmax(&e, Rc::clone(segments));
        let msg = ops::mul_col(&hs, &att);
        let agg = ops::scatter_add_rows(&msg, Rc::clone(dst), n);
        self.mlp.forward(&agg)
    }

    pub fn parameters(&self) -> Vec<Tensor> {
        let mut p = self.w.parameters();
        p.extend(self.a_src.parameters());
        p.extend(self.a_dst.parameters());
        p.extend(self.mlp.parameters());
        p
    }
}

/// Build the GAT edge arrays for a directed edge list: self-loops are
/// appended so isolated nodes still attend to themselves, messages flow
/// src → dst, and attention is normalized per destination.
pub fn gat_arrays(n: usize, edges: &[(u32, u32)]) -> (Rc<Vec<u32>>, Rc<Vec<u32>>, Rc<Segments>) {
    let m = edges.len() + n;
    let mut src = Vec::with_capacity(m);
    let mut dst = Vec::with_capacity(m);
    for &(u, v) in edges {
        src.push(u);
        dst.push(v);
    }
    for i in 0..n as u32 {
        src.push(i);
        dst.push(i);
    }
    let segments = Segments::group(&dst, n);
    (Rc::new(src), Rc::new(dst), Rc::new(segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vrdag_tensor::no_grad;

    fn toy_snapshot() -> Snapshot {
        Snapshot::new(6, vec![(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 3)], Matrix::zeros(6, 2))
    }

    #[test]
    fn pair_batch_contains_all_positives() {
        let s = toy_snapshot();
        let mut rng = StdRng::seed_from_u64(1);
        let b = sample_pair_batch(&s, 3, &mut rng);
        let positives = b.targets.data().iter().filter(|&&t| t == 1.0).count();
        assert_eq!(positives, s.n_edges());
        // Negatives carry the importance weight (n-1-deg)/q.
        for p in 0..b.len() {
            if b.targets.data()[p] == 0.0 {
                let i = b.src[p] as usize;
                let expect = (5 - s.out_adj().neighbors(i).len()) as f32 / 3.0;
                assert!((b.weights.data()[p] - expect).abs() < 1e-6);
                // Negative pairs must not be edges.
                assert!(!s.has_edge(b.src[p], b.dst[p]));
            }
        }
    }

    #[test]
    fn alpha_rows_sum_to_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let dec = MixBernoulliDecoder::new(6, 8, 3, 0.2, &mut rng);
        let s = Tensor::constant(Matrix::rand_uniform(10, 6, -1.0, 1.0, &mut rng));
        let a = dec.alpha_train(&s, 10, 4, &mut rng).value_clone();
        for i in 0..10 {
            let sum: f32 = a.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn structure_loss_is_finite_and_trainable() {
        let mut rng = StdRng::seed_from_u64(3);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        let snap = toy_snapshot();
        let s = Tensor::param(Matrix::rand_uniform(6, 4, -0.5, 0.5, &mut rng));
        let batch = sample_pair_batch(&snap, 2, &mut rng);
        let alpha = dec.alpha_train(&s, 6, 3, &mut rng);
        let loss = dec.structure_loss(&s, &alpha, &batch, 6);
        assert!(loss.item().is_finite());
        loss.backward();
        for p in dec.parameters() {
            assert!(p.grad().is_some(), "decoder parameter missing grad");
        }
        assert!(s.grad().is_some());
    }

    #[test]
    fn generate_edges_is_deterministic_and_valid() {
        let mut rng = StdRng::seed_from_u64(4);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        let s = Matrix::rand_uniform(20, 4, -1.0, 1.0, &mut rng);
        let e1 = dec.generate_edges(&s, Some(30.0), 99);
        let e2 = dec.generate_edges(&s, Some(30.0), 99);
        assert_eq!(e1, e2, "same seed must give same edges");
        for &(u, v) in &e1 {
            assert!(u != v && (u as usize) < 20 && (v as usize) < 20);
        }
    }

    #[test]
    fn calibration_steers_edge_count() {
        let mut rng = StdRng::seed_from_u64(5);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        let s = Matrix::rand_uniform(40, 4, -1.0, 1.0, &mut rng);
        let target = 120.0;
        let edges = dec.generate_edges(&s, Some(target), 7);
        let m = edges.len() as f64;
        assert!(
            m > 0.4 * target && m < 2.5 * target,
            "calibrated edge count {m} far from target {target}"
        );
    }

    #[test]
    fn generation_matches_training_probabilities() {
        // For K components, marginal p̄_ij from pair_probs must equal the
        // α-weighted sigmoid the generator uses internally; spot-check via
        // the expected count under calibration off: generate many times and
        // compare the empirical rate of one pair. Cheaper: check that with
        // a strongly negative θ bias generation yields no edges.
        let mut rng = StdRng::seed_from_u64(6);
        let dec = MixBernoulliDecoder::new(4, 8, 2, 0.2, &mut rng);
        dec.f_theta.layer(1).bias.update_value(|b| b.fill(-30.0));
        let s = Matrix::rand_uniform(15, 4, -1.0, 1.0, &mut rng);
        let edges = dec.generate_edges(&s, None, 1);
        assert!(edges.is_empty(), "θ ≈ 0 must generate an empty graph");
    }

    #[test]
    fn gat_attribute_decoder_shapes_and_grads() {
        let mut rng = StdRng::seed_from_u64(7);
        let dec = AttributeDecoder::new(6, 8, 3, 0.2, &mut rng);
        let snap = toy_snapshot();
        let (src, dst, segs) = gat_arrays(6, snap.edges());
        let s = Tensor::param(Matrix::rand_uniform(6, 6, -1.0, 1.0, &mut rng));
        let x = dec.forward(&s, &src, &dst, &segs, 6);
        assert_eq!(x.shape(), (6, 3));
        let loss = ops::sum_all(&x);
        loss.backward();
        for p in dec.parameters() {
            assert!(p.grad().is_some());
        }
    }

    #[test]
    fn gat_handles_isolated_nodes_via_self_loops() {
        let mut rng = StdRng::seed_from_u64(8);
        let dec = AttributeDecoder::new(4, 4, 2, 0.2, &mut rng);
        let (src, dst, segs) = gat_arrays(3, &[]); // no edges at all
        let s = Tensor::constant(Matrix::ones(3, 4));
        let x = no_grad(|| dec.forward(&s, &src, &dst, &segs, 3));
        assert_eq!(x.shape(), (3, 2));
        assert!(!x.value_clone().has_non_finite());
    }

    #[test]
    fn splitmix_is_stable() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn categorical_sampling_respects_weights() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[sample_categorical(&[0.1, 0.6, 0.3], &mut rng)] += 1;
        }
        assert!(counts[1] > counts[0] && counts[1] > counts[2]);
        assert!(counts[0] > 100);
    }
}
