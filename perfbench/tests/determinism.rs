//! The benchmark's own checks, on reduced sizes:
//!
//! * two traced runs with the same seed report identical per-layer work
//!   counts (queries, composed paths, `bv`/`sat`/`cores` counters,
//!   replay counts), and every verdict passes the oracle;
//! * the traced run's named parts plus `unattributed.ms` sum to its
//!   time budget, with a non-negative remainder;
//! * every metric the binary prints is declared in `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{audit, churn, fleet, Params, Run, END_TO_END, PER_LAYER};

fn traced(seed: u64) -> Params {
    Params {
        seed,
        seconds: 1,
        trace: true,
    }
}

fn check_run(name: &str, a: &Run, b: &Run) {
    assert!(a.failures.is_empty(), "{name}: {:?}", a.failures);
    assert!(a.attempted > 0, "{name}: nothing attempted");
    assert_eq!(a.counts, b.counts, "{name}: counts differ between runs");
    let v = |m: &str| a.value(m).unwrap_or_else(|| panic!("{name}: {m} missing"));
    let parts = v("step1.ms") + v("step2.ms") + v("churn.apply_ms") + v("fleet.idle_ms");
    let unattributed = v("unattributed.ms");
    assert!(
        (parts + unattributed - v("trace.budget_ms")).abs() < 1e-6 * v("trace.budget_ms").max(1.0),
        "{name}: parts do not sum to the budget"
    );
    assert!(
        unattributed >= 0.0,
        "{name}: negative remainder {unattributed}"
    );
    for m in &a.metrics {
        let declared = PER_LAYER
            .iter()
            .chain(END_TO_END)
            .find(|(n, _)| *n == m.name);
        assert_eq!(
            declared.map(|d| d.1),
            Some(m.unit),
            "{name}: {} undeclared",
            m.name
        );
    }
}

#[test]
fn audit_counts_repeat() {
    let size = audit::Size {
        generated: 9,
        passes: 1,
    };
    check_run(
        "audit",
        &audit::run(&traced(7), size),
        &audit::run(&traced(7), size),
    );
}

#[test]
fn fleet_counts_repeat() {
    let size = fleet::Size {
        variants: 3,
        reps: 1,
    };
    check_run(
        "fleet",
        &fleet::run(&traced(7), size),
        &fleet::run(&traced(7), size),
    );
}

#[test]
fn churn_counts_repeat() {
    let size = churn::Size {
        streams: 2,
        updates: 30,
        oracle_samples: 3,
    };
    check_run(
        "churn",
        &churn::run(&traced(7), size),
        &churn::run(&traced(7), size),
    );
}

#[test]
fn printed_metrics_are_declared_in_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
