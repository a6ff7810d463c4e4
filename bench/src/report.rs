//! Rendering a run: the result file, the table on stderr, and the one
//! contract line on stdout.

use crate::catalogue::unit_of;
use crate::host;
use crate::json::Value;
use crate::run::Outcome;
use std::path::PathBuf;

fn metrics_value(outcome: &Outcome) -> Value {
    Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, v)| {
                let unit = unit_of(name).expect("every emitted metric is in the catalogue");
                (
                    (*name).to_owned(),
                    Value::obj(vec![("value", (*v).into()), ("unit", Value::str(unit))]),
                )
            })
            .collect(),
    )
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn contract_line(outcome: &Outcome) -> String {
    Value::obj(vec![
        ("correct", outcome.correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", metrics_value(outcome)),
    ])
    .render()
}

/// The result file: the contract fields plus the host stamp, the run's
/// settings, request and sample counts, and why a run was not correct.
pub fn result_file(outcome: &Outcome) -> Value {
    let mut pairs = vec![
        ("workload".to_owned(), Value::str(&outcome.args.workload)),
        ("seed".to_owned(), outcome.args.seed.into()),
        ("traced".to_owned(), outcome.args.traced.into()),
        ("correct".to_owned(), outcome.correct.into()),
        ("reasons".to_owned(), Value::Arr(outcome.reasons.iter().map(Value::str).collect())),
        ("attempted".to_owned(), outcome.attempted.into()),
        ("failed".to_owned(), outcome.failed.into()),
        ("host".to_owned(), host::stamp()),
    ];
    pairs.extend(outcome.details.as_obj().expect("details are an object").iter().cloned());
    pairs.push(("metrics".to_owned(), metrics_value(outcome)));
    Value::Obj(pairs)
}

pub fn result_path(outcome: &Outcome) -> PathBuf {
    outcome.args.out_dir.join(format!(
        "{}.seed{}.trace{}.json",
        outcome.args.workload,
        outcome.args.seed,
        u8::from(outcome.args.traced)
    ))
}

/// Every metric by name with its unit, for a person.
pub fn table(outcome: &Outcome) -> String {
    let mut out = format!(
        "{} seed {} trace {} — {}\n",
        outcome.args.workload,
        outcome.args.seed,
        u8::from(outcome.args.traced),
        if outcome.correct { "correct" } else { "NOT CORRECT" }
    );
    for reason in &outcome.reasons {
        out.push_str(&format!("  ! {reason}\n"));
    }
    for (name, v) in &outcome.metrics {
        out.push_str(&format!("  {name:<36} {v:>16.4} {}\n", unit_of(name).unwrap_or("")));
    }
    out
}
