//! # vrdag-datasets
//!
//! Synthetic dynamic attributed graph datasets mirroring the six benchmarks
//! of the VRDAG paper (Table I): Emails-DNC, Bitcoin-Alpha, Wiki-Vote,
//! Guarantee (proprietary loan network), Brain, and GDELT.
//!
//! The real datasets are not redistributable (and the Guarantee network was
//! never public), so each [`spec::DatasetSpec`] drives a seeded generator
//! ([`synth::generate`]) reproducing the Table I shape parameters and the
//! qualitative regimes the paper relies on — heavy-tailed directed degrees,
//! community structure, temporal edge persistence with bursts, and a full
//! structure ⇄ attribute co-evolution loop. Real data in the TSV format of
//! `vrdag_graph::io::load_tsv` can be dropped in wherever a
//! [`vrdag_graph::DynamicGraph`] is accepted.

pub mod spec;
pub mod synth;

pub use spec::{
    all_specs, bitcoin, brain, by_name, by_name_or_err, email, gdelt, guarantee, spec_names, tiny,
    wiki, DatasetSpec, Flavor, UnknownDataset,
};
pub use synth::{generate, generate_scaled};
