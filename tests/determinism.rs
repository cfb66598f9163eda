//! Determinism matrix: the phase-split cycle kernel must produce
//! byte-identical stats regardless of how many shards the compute phase
//! runs on. Serial builds ignore `compute_shards`, so there the matrix
//! degenerates to a (cheap) self-comparison; under `--features parallel`
//! it pins the real property — commit order, not thread schedule,
//! decides every outcome. Tracing and fault injection are runtime
//! options, so every build also runs the traced and faulty legs. CI
//! runs this file under all four feature combinations (default,
//! `parallel`, `validate`, `parallel,validate`).

use disco::core::{CompressionPlacement, SimBuilder, SimReport};
use disco::noc::{NocConfig, RoutingAlgorithm, TopologyChoice};
use disco::workloads::Benchmark;

/// One 4x4 matrix point at a given shard count.
fn matrix_point(
    seed: u64,
    placement: CompressionPlacement,
    routing: RoutingAlgorithm,
    shards: usize,
) -> SimBuilder {
    let noc = NocConfig {
        routing,
        compute_shards: shards,
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

/// Full stats report for one matrix point at a given shard count.
fn stats_with_shards(
    seed: u64,
    placement: CompressionPlacement,
    routing: RoutingAlgorithm,
    shards: usize,
) -> String {
    let report = matrix_point(seed, placement, routing, shards)
        .run()
        .expect("matrix run drains");
    stats_text(&report)
}

#[test]
fn shard_count_never_changes_stats() {
    for seed in [1u64, 2, 3] {
        for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
            for routing in [RoutingAlgorithm::Xy, RoutingAlgorithm::WestFirst] {
                let serial = stats_with_shards(seed, placement, routing, 1);
                let sharded = stats_with_shards(seed, placement, routing, 4);
                assert_eq!(
                    serial, sharded,
                    "seed {seed}, {placement}, {routing:?}: \
                     4-shard stats diverged from 1-shard"
                );
            }
        }
    }
}

/// The wrapped topologies join the matrix: ring and torus runs (which
/// exercise the dateline VC split and, on the ring, radix-3 port
/// tables) must be byte-identical at any shard count too. 3 seeds ×
/// {Baseline, DISCO} × shards {1, 4, 16} per topology.
#[test]
fn ring_and_torus_are_shard_invariant() {
    let stats =
        |topology: TopologyChoice, seed: u64, placement: CompressionPlacement, shards: usize| {
            let noc = NocConfig {
                compute_shards: shards,
                ..NocConfig::default()
            };
            let report = SimBuilder::new()
                .mesh(4, 4)
                .topology(topology)
                .placement(placement)
                .benchmark(Benchmark::Dedup)
                .trace_len(300)
                .seed(seed)
                .noc(noc)
                .run()
                .expect("wrapped-topology matrix run drains");
            let mut buf = Vec::new();
            report.write_stats(&mut buf).expect("in-memory write");
            String::from_utf8(buf).expect("stats are utf8")
        };
    for topology in [TopologyChoice::Ring, TopologyChoice::Torus] {
        for seed in [1u64, 2, 3] {
            for placement in [CompressionPlacement::Baseline, CompressionPlacement::Disco] {
                let serial = stats(topology, seed, placement, 1);
                for shards in [4, 16] {
                    assert_eq!(
                        serial,
                        stats(topology, seed, placement, shards),
                        "{topology}, seed {seed}, {placement}: \
                         {shards}-shard stats diverged from serial"
                    );
                }
            }
        }
    }
}

/// One router per shard is the most adversarial decomposition: every
/// cross-router effect crosses a shard boundary.
#[test]
fn one_router_per_shard_matches_serial() {
    let serial = stats_with_shards(7, CompressionPlacement::Disco, RoutingAlgorithm::Xy, 1);
    let extreme = stats_with_shards(7, CompressionPlacement::Disco, RoutingAlgorithm::Xy, 16);
    assert_eq!(serial, extreme);
}

/// A sharded run must also satisfy the runtime invariant checker: when
/// the `validate` feature is on (CI's `parallel,validate` job), this run
/// walks credit conservation and VC-state legality every cycle.
#[test]
fn sharded_run_passes_validation() {
    let stats = stats_with_shards(11, CompressionPlacement::Disco, RoutingAlgorithm::Xy, 4);
    assert!(stats.contains("noc.routing_violations = 0"));
}

/// The 16x16 leg: at 256 routers the parallel build actually engages
/// the persistent worker pool (auto-sharding refuses to split meshes
/// smaller than 16 routers per shard), so this is the configuration
/// where a commit-order bug or a pool race would first become visible.
/// 3 seeds × {Baseline, DISCO} × shards {1, 4, 16}, byte-compared.
#[test]
fn large_mesh_is_shard_invariant() {
    let stats_16x16 = |seed: u64, placement: CompressionPlacement, shards: usize| {
        let noc = NocConfig {
            compute_shards: shards,
            ..NocConfig::default()
        };
        let report = SimBuilder::new()
            .mesh(16, 16)
            .placement(placement)
            .benchmark(Benchmark::Dedup)
            .trace_len(200)
            .seed(seed)
            .noc(noc)
            .run()
            .expect("16x16 matrix run drains");
        let mut buf = Vec::new();
        report.write_stats(&mut buf).expect("in-memory write");
        String::from_utf8(buf).expect("stats are utf8")
    };
    // Serial builds ignore `compute_shards`, so each comparison there
    // is a self-check; one matrix point keeps the default-feature test
    // tier fast. The parallel build — where the pool actually runs —
    // covers the full 3-seed × 2-placement matrix (CI's `parallel*`
    // legs).
    let seeds: &[u64] = if cfg!(feature = "parallel") {
        &[1, 2, 3]
    } else {
        &[1]
    };
    let placements: &[CompressionPlacement] = if cfg!(feature = "parallel") {
        &[CompressionPlacement::Baseline, CompressionPlacement::Disco]
    } else {
        &[CompressionPlacement::Disco]
    };
    for &seed in seeds {
        for &placement in placements {
            let serial = stats_16x16(seed, placement, 1);
            for shards in [4, 16] {
                assert_eq!(
                    serial,
                    stats_16x16(seed, placement, shards),
                    "seed {seed}, {placement}: 16x16 diverged at {shards} shards"
                );
            }
        }
    }
}

/// Dropping to 1 shard must route through the serial compute path with
/// no worker pool spun up — a single-shard "parallel" run that parked a
/// thread anyway would pay rendezvous cost for nothing. Conversely, a
/// parallel build asked for N shards must hold N-1 parked workers
/// (index 0 runs on the caller's thread).
#[test]
fn single_shard_spins_up_no_pool() {
    use disco::noc::{Mesh, Network};

    let noc = NocConfig {
        compute_shards: 1,
        ..NocConfig::default()
    };
    let net = Network::new(Mesh::new(4, 4), noc);
    assert_eq!(net.compute_shards(), 1);
    assert_eq!(
        net.pool_workers(),
        0,
        "1 shard must not spin up a worker pool"
    );

    #[cfg(feature = "parallel")]
    {
        let noc = NocConfig {
            compute_shards: 4,
            ..NocConfig::default()
        };
        let net = Network::new(Mesh::new(4, 4), noc);
        assert_eq!(net.compute_shards(), 4);
        assert_eq!(
            net.pool_workers(),
            3,
            "4 shards must hold exactly 3 parked workers"
        );
    }
}

/// Fault injection must not weaken the determinism contract: the fault
/// schedule is a pure function of `(seed, kind, cycle, site)` and all
/// fault bookkeeping runs in the node-ordered serial passes, so the
/// whole stats file — FaultStats included — must be byte-identical at
/// any shard count, at any fault rate.
mod faults_matrix {
    use super::*;
    use disco::faults::FaultPlan;

    /// Full stats report for one faulty matrix point.
    fn faulty_stats(seed: u64, rate: f64, shards: usize) -> String {
        let report = matrix_point(
            seed,
            CompressionPlacement::Disco,
            RoutingAlgorithm::Xy,
            shards,
        )
        .faults(FaultPlan::uniform(seed ^ 0xfa17, rate))
        .run()
        .expect("faulty matrix run drains");
        stats_text(&report)
    }

    #[test]
    fn fault_stats_are_shard_invariant() {
        for seed in [1u64, 2, 3] {
            for rate in [0.0, 1e-4] {
                let serial = faulty_stats(seed, rate, 1);
                for shards in [4, 16] {
                    assert_eq!(
                        serial,
                        faulty_stats(seed, rate, shards),
                        "seed {seed}, rate {rate}: {shards}-shard stats diverged"
                    );
                }
            }
        }
    }

    /// A rate-zero plan is indistinguishable from never arming one: the
    /// context is discarded at install time, so timing, stats, and the
    /// stats file bytes all match a run that never armed one.
    #[test]
    fn rate_zero_matches_fault_free_run() {
        let clean = stats_with_shards(2, CompressionPlacement::Disco, RoutingAlgorithm::Xy, 1);
        let armed = faulty_stats(2, 0.0, 1);
        assert_eq!(clean, armed, "inactive plan must be a no-op");
    }

    /// JSONL byte-identity extends to faulty runs (fault events, eaten
    /// ejections, and retransmissions are all committed in node order).
    #[test]
    fn faulty_trace_jsonl_is_shard_invariant() {
        let export = |shards: usize| {
            let report = matrix_point(9, CompressionPlacement::Disco, RoutingAlgorithm::Xy, shards)
                .faults(FaultPlan::uniform(0xfa17, 1e-4))
                .retain_trace_records(true)
                .run()
                .expect("faulty matrix run drains");
            let t = report.trace.expect("capture requested");
            disco::trace::export::jsonl_string(&t.records)
        };
        let serial = export(1);
        assert!(!serial.is_empty());
        for shards in [4, 16] {
            assert_eq!(
                serial,
                export(shards),
                "faulty JSONL export diverged at {shards} shards"
            );
        }
    }
}

/// The trace twin of `rate_zero_matches_fault_free_run`: capturing a
/// trace observes the run without steering it. A `capture_trace(true)`
/// run's stats file is the plain run's plus the `trace.*` and
/// `provenance.*` lines, nothing else.
#[test]
fn trace_capture_matches_untraced_run() {
    let plain = stats_with_shards(2, CompressionPlacement::Disco, RoutingAlgorithm::Xy, 1);
    let report = matrix_point(2, CompressionPlacement::Disco, RoutingAlgorithm::Xy, 1)
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

/// The trace is part of the determinism contract too: every event is
/// committed in node order and stamped with the simulated cycle (never
/// wall-clock), so the exported JSONL must be byte-identical at any
/// shard count. Without `parallel` the shard request is ignored and the
/// comparison is a self-check.
#[test]
fn trace_jsonl_is_shard_invariant() {
    let export = |shards: usize| {
        let report = matrix_point(9, CompressionPlacement::Disco, RoutingAlgorithm::Xy, shards)
            .retain_trace_records(true)
            .run()
            .expect("matrix run drains");
        let t = report.trace.expect("capture requested");
        assert!(t.provenance.exact, "{shards} shards: decomposition exact");
        disco::trace::export::jsonl_string(&t.records)
    };
    let serial = export(1);
    assert!(!serial.is_empty());
    for shards in [4, 16] {
        assert_eq!(
            serial,
            export(shards),
            "JSONL export diverged at {shards} shards"
        );
    }
}

/// The checkpoint leg of the contract: run-to-cycle-N → snapshot →
/// restore → run-to-end must be byte-identical to the unbroken run at
/// every shard count — the stats file, and for armed runs the fault
/// ledger riding in it and the trace JSONL export.
mod snapshot_roundtrip {
    use super::*;
    use disco::core::System;

    /// Cycle at which the interrupted run pauses and checkpoints.
    const SNAPSHOT_AT: u64 = 300;

    /// A matrix point; `armed` adds a fault plan and trace capture, so
    /// the snapshot carries fault-recovery and trace state too.
    fn matrix_builder(
        seed: u64,
        placement: CompressionPlacement,
        shards: usize,
        armed: bool,
    ) -> SimBuilder {
        let builder = matrix_point(seed, placement, RoutingAlgorithm::Xy, shards);
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
                for shards in [1usize, 4, 16] {
                    for armed in [false, true] {
                        let point =
                            format!("seed {seed}, {placement}, {shards} shards, armed {armed}");
                        let builder = matrix_builder(seed, placement, shards, armed);
                        let unbroken =
                            artifacts(&builder.clone().run().expect("unbroken run drains"));
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
