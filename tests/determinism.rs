//! Determinism checks beyond the goldens: a run is a pure function of
//! its configuration. Ring and torus full-system runs drain cleanly; an
//! inactive fault plan and trace capture observe a run without steering
//! it; run-to-N → snapshot → restore → run-to-end is byte-identical to
//! the unbroken run, fault ledger and trace included; and the model
//! checker's report does not depend on its worker count. Test builds
//! carry debug assertions, so every simulation here also checks the NoC
//! invariants each cycle.

use disco::core::{CompressionPlacement, SimBuilder, SimReport};
use disco::noc::{NocConfig, RoutingAlgorithm, TopologyChoice};
use disco::workloads::Benchmark;

/// One 4x4 matrix point.
fn matrix_point(
    seed: u64,
    placement: CompressionPlacement,
    routing: RoutingAlgorithm,
) -> SimBuilder {
    let noc = NocConfig {
        routing,
        ..NocConfig::default()
    };
    SimBuilder::new()
        .mesh(4, 4)
        .placement(placement)
        .benchmark(Benchmark::Dedup)
        .trace_len(300)
        .seed(seed)
        .noc(noc)
}

/// A finished run's stats file.
fn stats_text(report: &SimReport) -> String {
    let mut buf = Vec::new();
    report.write_stats(&mut buf).expect("in-memory write");
    String::from_utf8(buf).expect("stats are utf8")
}

/// Full stats report for one matrix point.
fn matrix_stats(seed: u64, placement: CompressionPlacement, routing: RoutingAlgorithm) -> String {
    let report = matrix_point(seed, placement, routing)
        .run()
        .expect("matrix run drains");
    stats_text(&report)
}

/// The wrapped topologies run full-system: ring and torus runs (which
/// exercise the dateline VC split and, on the ring, radix-3 port
/// tables) drain with no routing violation, checking the NoC
/// invariants every cycle. 3 seeds × {Baseline, DISCO} per topology.
#[test]
fn ring_and_torus_runs_drain_clean() {
    for topology in [TopologyChoice::Ring, TopologyChoice::Torus] {
        for seed in [1u64, 2, 3] {
            for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
                let report = SimBuilder::new()
                    .mesh(4, 4)
                    .topology(topology)
                    .placement(placement)
                    .benchmark(Benchmark::Dedup)
                    .trace_len(300)
                    .seed(seed)
                    .run()
                    .expect("wrapped-topology matrix run drains");
                assert!(
                    stats_text(&report).contains("noc.routing_violations = 0"),
                    "{topology}, seed {seed}, {placement}: routing violation"
                );
            }
        }
    }
}

/// Fault injection keeps the determinism contract: the fault schedule
/// is a pure function of `(seed, kind, cycle, site)` and all fault
/// bookkeeping runs in the node-ordered passes.
mod faults_matrix {
    use super::*;
    use disco::faults::FaultPlan;

    /// Full stats report for one faulty matrix point.
    fn faulty_stats(seed: u64, rate: f64) -> String {
        let report = matrix_point(seed, CompressionPlacement::Disco, RoutingAlgorithm::Xy)
            .faults(FaultPlan::uniform(seed ^ 0xfa17, rate))
            .run()
            .expect("faulty matrix run drains");
        stats_text(&report)
    }

    /// A rate-zero plan is indistinguishable from never arming one: the
    /// context is discarded at install time, so timing, stats, and the
    /// stats file bytes all match a run that never armed one.
    #[test]
    fn rate_zero_matches_fault_free_run() {
        let clean = matrix_stats(2, CompressionPlacement::Disco, RoutingAlgorithm::Xy);
        let armed = faulty_stats(2, 0.0);
        assert_eq!(clean, armed, "inactive plan must be a no-op");
    }
}

/// The trace twin of `rate_zero_matches_fault_free_run`: capturing a
/// trace observes the run without steering it. A `capture_trace(true)`
/// run's stats file is the plain run's plus the `trace.*` and
/// `provenance.*` lines, nothing else.
#[test]
fn trace_capture_matches_untraced_run() {
    let plain = matrix_stats(2, CompressionPlacement::Disco, RoutingAlgorithm::Xy);
    let report = matrix_point(2, CompressionPlacement::Disco, RoutingAlgorithm::Xy)
        .capture_trace(true)
        .run()
        .expect("traced run drains");
    assert!(report.trace.is_some(), "capture requested");
    let traced = stats_text(&report);
    let stripped: String = traced
        .lines()
        .filter(|l| !l.starts_with("trace.") && !l.starts_with("provenance."))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_ne!(traced, stripped, "a captured run reports its trace");
    assert_eq!(plain, stripped, "tracing must not change the simulation");
}

/// The checkpoint leg of the contract: run-to-cycle-N → snapshot →
/// restore → run-to-end must be byte-identical to the unbroken run —
/// the stats file, and for armed runs the fault ledger riding in it and
/// the trace JSONL export.
mod snapshot_roundtrip {
    use super::*;
    use disco::core::System;

    /// Cycle at which the interrupted run pauses and checkpoints.
    const SNAPSHOT_AT: u64 = 300;

    /// A matrix point; `armed` adds a fault plan and trace capture, so
    /// the snapshot carries fault-recovery and trace state too.
    fn matrix_builder(seed: u64, placement: CompressionPlacement, armed: bool) -> SimBuilder {
        let builder = matrix_point(seed, placement, RoutingAlgorithm::Xy);
        if armed {
            builder
                .faults(disco::faults::FaultPlan::uniform(seed ^ 0xfa17, 1e-4))
                .retain_trace_records(true)
        } else {
            builder
        }
    }

    /// Every byte-comparable artifact of a finished run: the stats file
    /// (which carries the fault ledger of an armed run) and the exported
    /// trace JSONL of a captured one.
    fn artifacts(report: &SimReport) -> String {
        let mut out = stats_text(report);
        if let Some(t) = &report.trace {
            out.push_str(&disco::trace::export::jsonl_string(&t.records));
        }
        out
    }

    #[test]
    fn snapshot_resume_is_byte_identical() {
        for seed in [1u64, 2, 3] {
            for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
                for armed in [false, true] {
                    let point = format!("seed {seed}, {placement}, armed {armed}");
                    let builder = matrix_builder(seed, placement, armed);
                    let unbroken = artifacts(&builder.clone().run().expect("unbroken run drains"));
                    let mut sys = builder.build();
                    assert!(
                        !sys.step_until(SNAPSHOT_AT).expect("within budget"),
                        "{point}: run finished before cycle {SNAPSHOT_AT}"
                    );
                    let bytes = sys.snapshot();
                    drop(sys);
                    let resumed = System::restore(&bytes)
                        .expect("snapshot restores")
                        .run_to_completion()
                        .expect("resumed run drains");
                    assert_eq!(
                        unbroken,
                        artifacts(&resumed),
                        "{point}: resumed run diverged from the unbroken run"
                    );
                }
            }
        }
    }
}

/// The model checker's report — state counts, depth, and every
/// counterexample schedule — must be byte-identical run to run and at
/// any worklist worker count, or `cargo xtask verify --json` artifacts
/// could not be diffed across CI runs. The explorer guarantees this by
/// merging per-chunk frontier results in chunk order; this pins it on a
/// configuration small enough for the test tier.
#[test]
fn model_checker_report_is_worker_invariant() {
    use disco_verify::explorer::{explore, ExploreOptions};
    use disco_verify::model::{LiveDir, ProtocolModel, ScriptOp};

    let run = |workers: usize| {
        let model = ProtocolModel::new(
            LiveDir::default(),
            vec![
                vec![ScriptOp::Write, ScriptOp::Read],
                vec![ScriptOp::Read, ScriptOp::Write],
            ],
        );
        let report = explore(
            &model,
            &ExploreOptions {
                max_depth: 32,
                max_states: 500_000,
                workers,
                max_violations: 8,
            },
        );
        (report.states, report.transitions, report.render("model"))
    };
    let (states, transitions, baseline) = run(1);
    assert!(states > 1_000, "two-writer model explores a real space");
    for workers in [2, 4] {
        let (s, t, render) = run(workers);
        assert_eq!(states, s, "state count diverged at {workers} workers");
        assert_eq!(
            transitions, t,
            "transition count diverged at {workers} workers"
        );
        assert_eq!(
            baseline, render,
            "rendered report diverged at {workers} workers"
        );
    }
}
