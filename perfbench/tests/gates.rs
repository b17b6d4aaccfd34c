//! The benchmark's own tests: tiny runs of every workload pass, each
//! correctness gate trips on a deliberately wrong input, and
//! `BENCHMARK.json` lists exactly the metrics a run reports.

use eric_core::Device;
use eric_perfbench::boot::Boot;
use eric_perfbench::fleet::Fleet;
use eric_perfbench::{run, Size, Workload, END_TO_END, MAX_UNATTRIBUTED, PER_LAYER, WORKLOADS};
use std::sync::{Mutex, MutexGuard};

/// The tests time short ops and gate their attribution, so they run one
/// at a time rather than slow each other down.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn tiny_runs_of_every_workload_pass_and_report_every_metric() {
    let _serial = serial();
    for workload in WORKLOADS {
        let plain = run(workload, 5, 0.02, false, Size::Tiny).unwrap();
        assert!(plain.attempted >= 1, "{workload}");
        assert_eq!(plain.failed, 0, "{workload}");
        let names: Vec<&str> = plain.metrics.iter().map(|m| m.0.as_str()).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{workload}");
        assert!(
            plain.metrics.iter().all(|m| m.1 > 0.0),
            "{workload}: {plain:?}"
        );

        let traced = run(workload, 5, 0.02, true, Size::Tiny).unwrap();
        assert_eq!(traced.failed, 0, "{workload}");
        assert_eq!(traced.metrics.len(), PER_LAYER.len() + 10, "{workload}");
        let metric = |name: &str| traced.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(metric("trace.ops") >= 1.0, "{workload}");
        assert!(
            metric("trace.unattributed_frac") <= MAX_UNATTRIBUTED,
            "{workload}: stage self times leave {} of op time unattributed",
            metric("trace.unattributed_frac")
        );
    }
}

#[test]
fn modeled_counts_repeat_exactly_across_runs() {
    let _serial = serial();
    let modeled = || {
        let r = run("boot_suite", 9, 0.01, true, Size::Tiny).unwrap();
        let get = |name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
        (get("sim.modeled_cycles"), get("sim.modeled_hde_cycles"))
    };
    let first = modeled();
    assert!(first.0 > 0.0 && first.1 > 0.0);
    assert_eq!(first, modeled());
}

#[test]
fn a_foreign_credential_counts_as_failed() {
    let _serial = serial();
    let mut fleet = Fleet::setup(3, Size::Tiny).unwrap();
    fleet.creds[1] = Device::with_seed(0xF0E1, "foreign").enroll();
    let phase = fleet.measure(0.0).unwrap();
    assert_eq!(phase.attempted, fleet.creds.len() as u64);
    assert_eq!(phase.failed, 1, "only the foreign device's op fails");
    assert!(phase.counters.hde_rejected >= u64::from(eric_perfbench::fleet::MAX_ATTEMPTS));
    assert_eq!(phase.op_ms.iter().filter(|t| t.is_infinite()).count(), 1);
}

#[test]
fn a_wrong_golden_aborts_the_run() {
    let _serial = serial();
    let mut boot = Boot::setup(4, Size::Tiny).unwrap();
    boot.programs[3].golden += 1;
    let err = boot.measure(0.0).unwrap_err();
    assert!(err.contains("golden"), "{err}");
}

#[test]
fn a_modeled_count_that_moves_aborts_the_run() {
    let _serial = serial();
    let mut boot = Boot::setup(4, Size::Tiny).unwrap();
    boot.programs[0].modeled = Some((1, 1, 1));
    let err = boot.measure(0.0).unwrap_err();
    assert!(err.contains("modeled"), "{err}");
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let _serial = serial();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).unwrap();
    let rows: Vec<(String, &str)> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|&(n, u)| (n.to_string(), u))
        .chain(
            eric_perfbench::suite_programs()
                .into_iter()
                .map(|p| (format!("sim.run_ms.{p}"), "ms")),
        )
        .collect();
    for (name, unit) in &rows {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\":").count(),
        rows.len(),
        "BENCHMARK.json lists metrics a run does not report"
    );
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
}
