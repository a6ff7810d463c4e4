//! # fineq-bench
//!
//! Experiment harness: one module per table/figure of the paper's
//! evaluation section, each returning structured results plus a rendered
//! text table. Binaries under `src/bin` print single experiments;
//! `benches/paper_tables.rs` regenerates everything under `cargo bench`.
//!
//! Set `FINEQ_FAST=1` to shrink workloads for smoke runs (sizes drop by
//! roughly an order of magnitude; shapes of the results are preserved).

pub mod experiments;
pub mod timing;

pub use experiments::{
    ablations, fig1, fig2b, fig3b, fig8, fig9, table1, table2, table3, EvalSizes,
};
