//! # fineq-bench
//!
//! Experiment harness: one module per table/figure of the paper's
//! evaluation section, each returning structured results plus a rendered
//! text table. The `fineq-paper [name|all]` binary prints one
//! experiment or, by default, every one in a single pass.
//!
//! Set `FINEQ_FAST=1` to shrink workloads for smoke runs (sizes drop by
//! roughly an order of magnitude; shapes of the results are preserved).

pub mod experiments;
pub mod timing;

pub use experiments::{
    ablations, fig1, fig2b, fig3b, fig8, fig9, table1, table2, table3, EvalSizes,
};
