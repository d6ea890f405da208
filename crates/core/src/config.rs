//! Hyperparameter configuration for the VRDAG model.

use serde::{Deserialize, Serialize};

/// Attribute reconstruction criterion (Eq. 18 vs. the MSE ablation of
/// Appendix A-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttrLoss {
    /// Scaled cosine error `(1 − cos)^α` — the paper's choice.
    Sce,
    /// Mean squared error — the common alternative the paper argues against.
    Mse,
}

/// All hyperparameters of VRDAG. Field names follow the paper's notation
/// where one exists.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct VrdagConfig {
    /// Hidden node-state dimensionality `d_h` (GRU state `H_t`).
    pub d_h: usize,
    /// Latent variable dimensionality `d_z` (`Z_t`).
    pub d_z: usize,
    /// Bi-flow encoder output dimensionality `d_ε`.
    pub d_e: usize,
    /// Time2Vec dimensionality `d_T` (Eq. 13).
    pub d_t: usize,
    /// Number of bi-flow message passing layers `L` (Eq. 5).
    pub gnn_layers: usize,
    /// Number of mixture components `K` of the MixBernoulli sampler
    /// (Eq. 11).
    pub k_mix: usize,
    /// Hidden width of the pairwise decoder MLPs `f_α` / `f_θ`. These MLPs
    /// are constrained to two layers so generation can exploit the
    /// `W(s_i − s_j) = W s_i − W s_j` factorization (see the
    /// `decoder` module docs).
    pub decoder_hidden: usize,
    /// GAT head width of the attribute decoder (Eq. 12).
    pub gat_hidden: usize,
    /// Scaling factor `α ≥ 1` of the SCE loss (Eq. 18).
    pub sce_alpha: f32,
    /// Attribute reconstruction criterion.
    pub attr_loss: AttrLoss,
    /// Adam learning rate.
    pub lr: f32,
    /// Training epochs (full passes over the snapshot sequence).
    pub epochs: usize,
    /// Negative samples `Q` per node for the structure BCE (the paper's
    /// complexity analysis carries a `N·Q` term for exactly this).
    pub neg_samples: usize,
    /// Reference nodes `R` sampled to approximate the `Σ_j f_α(s_i − s_j)`
    /// mixture-weight sum during training (exact at generation).
    pub alpha_ref_samples: usize,
    /// Truncated-BPTT window: hidden states detach every this many
    /// timesteps to bound tape memory on long sequences.
    pub tbptt_window: usize,
    /// Global-norm gradient clip.
    pub grad_clip: f32,
    /// Weight of the KL prior-regularization term (Eq. 15).
    pub kl_weight: f32,
    /// Weight of the attribute reconstruction term.
    pub attr_weight: f32,
    /// Weight of a small MSE grounding term added to the SCE attribute
    /// loss. Eq. 18's cosine error is scale-invariant (and for F = 1 it
    /// reduces to a sign check), so a light magnitude anchor is needed to
    /// keep generated attribute values on the data's scale; set to 0 for
    /// the pure-Eq. 18 ablation.
    pub attr_mse_anchor: f32,
    /// Leaky-ReLU slope used throughout (the paper's ω).
    pub leaky_slope: f32,
    /// Ablation: bidirectional (in + out) message passing vs. out-flow only.
    pub bi_flow: bool,
    /// Ablation: include the Time2Vec timestep embedding in the GRU input.
    pub use_time2vec: bool,
    /// Ablation: carry hidden state across timesteps (false resets `H` each
    /// step, destroying temporal dependency — the "static VAE" ablation).
    pub use_recurrence: bool,
    /// Calibrate generation-time edge probabilities so the expected edge
    /// count matches the training sequence (negative sampling biases raw
    /// probabilities; see `DecodePlan::generate_edges`).
    pub calibrate_density: bool,
    /// Affinely calibrate generated attributes per dimension to the
    /// training snapshot's moments (the attribute analogue of density
    /// calibration; scale is unidentifiable under the SCE loss).
    pub calibrate_attributes: bool,
    /// RNG seed for parameter initialization and sampling.
    pub seed: u64,
}

impl Default for VrdagConfig {
    fn default() -> Self {
        VrdagConfig {
            d_h: 32,
            d_z: 16,
            d_e: 32,
            d_t: 8,
            gnn_layers: 2,
            k_mix: 3,
            decoder_hidden: 32,
            gat_hidden: 32,
            sce_alpha: 2.0,
            attr_loss: AttrLoss::Sce,
            lr: 3e-3,
            epochs: 30,
            neg_samples: 5,
            alpha_ref_samples: 16,
            tbptt_window: 8,
            grad_clip: 5.0,
            kl_weight: 1.0,
            attr_weight: 2.0,
            attr_mse_anchor: 0.5,
            leaky_slope: 0.2,
            bi_flow: true,
            use_time2vec: true,
            use_recurrence: true,
            calibrate_density: true,
            calibrate_attributes: true,
            seed: 0x5EED,
        }
    }
}

impl VrdagConfig {
    /// A configuration sized for unit tests: small widths, few epochs.
    pub fn test_small() -> Self {
        VrdagConfig {
            d_h: 8,
            d_z: 4,
            d_e: 8,
            d_t: 4,
            gnn_layers: 2,
            k_mix: 2,
            decoder_hidden: 8,
            gat_hidden: 8,
            epochs: 3,
            neg_samples: 3,
            alpha_ref_samples: 4,
            tbptt_window: 4,
            ..Default::default()
        }
    }

    /// Dimensionality of the per-node decoder state `s_i = [z_i ‖ h_i]`.
    pub fn d_s(&self) -> usize {
        self.d_z + self.d_h
    }

    /// Validate invariants; returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.d_h == 0 || self.d_z == 0 || self.d_e == 0 {
            return Err("dimensions must be positive".into());
        }
        if self.d_t < 1 {
            return Err("Time2Vec needs at least the linear component".into());
        }
        if self.gnn_layers == 0 {
            return Err("need at least one GNN layer".into());
        }
        if self.k_mix == 0 {
            return Err("need at least one mixture component".into());
        }
        if self.sce_alpha < 1.0 {
            return Err("Eq. 18 requires α ≥ 1".into());
        }
        if self.tbptt_window == 0 {
            return Err("tbptt_window must be ≥ 1".into());
        }
        if !(self.leaky_slope > 0.0 && self.leaky_slope < 1.0) {
            return Err("leaky_slope must be in (0,1)".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert!(VrdagConfig::default().validate().is_ok());
        assert!(VrdagConfig::test_small().validate().is_ok());
    }

    #[test]
    fn d_s_is_sum_of_latent_and_hidden() {
        let c = VrdagConfig::default();
        assert_eq!(c.d_s(), c.d_z + c.d_h);
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad_alpha = VrdagConfig { sce_alpha: 0.5, ..Default::default() };
        assert!(bad_alpha.validate().is_err());
        let bad_k = VrdagConfig { k_mix: 0, ..Default::default() };
        assert!(bad_k.validate().is_err());
        let bad_slope = VrdagConfig { leaky_slope: 1.5, ..Default::default() };
        assert!(bad_slope.validate().is_err());
    }
}
