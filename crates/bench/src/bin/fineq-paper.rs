//! Prints the paper's evaluation tables and figures:
//! `fineq-paper <name>` one experiment, `fineq-paper all` (the default)
//! every one in a single pass. An unknown name exits non-zero with the
//! list of names. Run with `--release`; set `FINEQ_FAST=1` to shrink the
//! accuracy experiments for a smoke run.

use fineq_bench::EvalSizes;

/// An experiment's name and the function that renders it.
type Experiment = (&'static str, fn(EvalSizes) -> String);

/// Every experiment, in the order `all` prints them.
const EXPERIMENTS: [Experiment; 9] = [
    ("table3", |_| fineq_bench::table3()),
    ("fig8", |_| fineq_bench::fig8()),
    ("fig2b", |_| fineq_bench::fig2b()),
    ("fig9", |_| fineq_bench::fig9()),
    ("ablations", |_| fineq_bench::ablations()),
    ("fig3b", fineq_bench::fig3b),
    ("fig1", fineq_bench::fig1),
    ("table2", fineq_bench::table2),
    ("table1", fineq_bench::table1),
];

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let sizes = EvalSizes::from_env();
    if name == "all" {
        println!("FineQ paper reproduction — full experiment sweep");
        println!("(sizes: {sizes:?})");
        for (_, run) in EXPERIMENTS {
            print!("{}", run(sizes));
        }
        return;
    }
    let Some((_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!("unknown experiment {name:?}; expected one of: {}, all", names.join(", "));
        std::process::exit(2);
    };
    print!("{}", run(sizes));
}
