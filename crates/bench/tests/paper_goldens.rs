//! The accelerator and serving-plan experiments print fixed arithmetic of
//! the paper's design points (64×64 arrays, fp16 KV cache, 5 % reserved),
//! so their text is pinned byte for byte: `tests/golden/<name>.txt` at the
//! repository root is exactly what `fineq-paper <name>` prints.

fn assert_golden(name: &str, printed: &str, golden: &str) {
    assert!(
        printed == golden,
        "`fineq-paper {name}` no longer prints tests/golden/{name}.txt\n--- printed ---\n{printed}--- golden ---\n{golden}"
    );
}

#[test]
fn table3_prints_its_golden() {
    assert_golden(
        "table3",
        &fineq_bench::table3(),
        include_str!("../../../tests/golden/table3.txt"),
    );
}

#[test]
fn fig8_prints_its_golden() {
    assert_golden("fig8", &fineq_bench::fig8(), include_str!("../../../tests/golden/fig8.txt"));
}

#[test]
fn fig2b_prints_its_golden() {
    assert_golden("fig2b", &fineq_bench::fig2b(), include_str!("../../../tests/golden/fig2b.txt"));
}
