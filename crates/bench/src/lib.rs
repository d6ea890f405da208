//! # vrdag-bench
//!
//! Experiment harness regenerating **every table and figure** of the VRDAG
//! paper's evaluation (§IV), plus Criterion micro-benchmarks.
//!
//! One binary per experiment:
//!
//! | Binary      | Paper artifact |
//! |-------------|----------------|
//! | `table1`    | Table I — 8 structure metrics × 6 datasets × 7 methods |
//! | `fig3`      | Fig. 3 — attribute JSD / EMD |
//! | `table2`    | Table II — Spearman correlation MAE |
//! | `fig4_6`    | Figs. 4–6 — temporal degree / clustering / coreness differences |
//! | `fig7_8`    | Figs. 7–8 — temporal attribute MAE / RMSE |
//! | `fig9`      | Fig. 9 — training / generation wall time (+ timestep trend) |
//! | `table3_4`  | Tables III/IV — scalability vs. temporal edge count |
//! | `fig10`     | Fig. 10 — data-augmentation case study |
//! | `ablation`  | Appendix A-E — component ablations |
//!
//! All binaries accept `--scale {small|medium|paper}` (default `small`),
//! `--seed N`, and `--datasets a,b,c`; results are printed as aligned
//! tables and written as TSV under `results/`.

pub mod harness;
pub mod report;
