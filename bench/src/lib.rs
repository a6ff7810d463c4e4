//! `fineq-loadbench`: one benchmark for the packed serving stack.
//!
//! Four workloads (`decode_closed`, `arrival_mix`, `remote_2shard`,
//! `quantize_pack`), twelve end-to-end metrics from untraced runs, and a
//! per-layer budget from a separate traced run of the same workload. The
//! benchmark measures every layer **from outside**, by timing calls into
//! public functions of the `fineq` crates; see `bench/README.md` for the
//! metric catalogue and `/BENCHMARK.json` for the contract.

pub mod catalogue;
pub mod check;
pub mod cli;
pub mod compare;
pub mod derive;
pub mod driver;
pub mod host;
pub mod json;
pub mod probe_model;
pub mod probes;
pub mod quant;
pub mod recon;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workers;
pub mod workload;
