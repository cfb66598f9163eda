//! Golden-file regression tests: fixed-seed simulations must reproduce
//! their recorded stats byte-for-byte. Any intentional change to the
//! simulator's behaviour shows up here as a readable stats diff.
//!
//! Three files are pinned: `tests/golden_stats.txt` (the default DISCO
//! run), `tests/golden_disco_variants.txt` (the same run once per
//! engine parameter the default leaves off, plus one traced run whose
//! JSONL export is pinned by checksum) and `tests/golden_kernel.txt`
//! (seeded open-loop NoC-only runs across the cycle kernel's
//! configurations, with a per-cycle checksum of every router's state).
//! `UPDATE_GOLDEN=1 cargo test --test golden` (`just update-golden`)
//! rewrites all three.

use disco::compress::{CacheLine, Codec};
use disco::core::{CompressionPlacement, DiscoLayer, DiscoParams, SimBuilder};
use disco::noc::{
    FaultPlan, FlowControl, Network, NocConfig, NodeId, PacketClass, Payload, RoutingAlgorithm,
    SchedulingPolicy, TopologyChoice,
};
use disco::workloads::Benchmark;
use std::fmt::Write as _;
use std::path::Path;

const GOLDEN_FILES: &str =
    "tests/golden_stats.txt, tests/golden_disco_variants.txt and tests/golden_kernel.txt";

/// The golden run's setup: 2×2 DISCO mesh, dedup, 400 accesses per core.
fn golden_builder() -> SimBuilder {
    SimBuilder::new()
        .mesh(2, 2)
        .placement(CompressionPlacement::Disco)
        .benchmark(Benchmark::Dedup)
        .trace_len(400)
        .seed(2016)
}

fn stats_text(builder: SimBuilder) -> (String, disco::core::SimReport) {
    let report = builder.run().expect("golden run drains");
    let mut buf = Vec::new();
    report.write_stats(&mut buf).expect("in-memory write");
    (String::from_utf8(buf).expect("stats are utf8"), report)
}

/// Compares `current` against the file at `rel`, or rewrites the file
/// when `UPDATE_GOLDEN` is set.
fn check_golden(rel: &str, current: &str) {
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden_path, current).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|_| {
        panic!(
            "missing {golden_path:?}; `UPDATE_GOLDEN=1 cargo test --test golden` \
             (`just update-golden`) regenerates {GOLDEN_FILES}"
        )
    });
    if golden != current {
        // Produce a line diff so the regression is readable.
        let mut diff = String::new();
        for (g, c) in golden.lines().zip(current.lines()) {
            if g != c {
                diff.push_str(&format!("  - {g}\n  + {c}\n"));
            }
        }
        if golden.lines().count() != current.lines().count() {
            diff.push_str("  (line counts differ)\n");
        }
        panic!(
            "fixed-seed output diverged from {rel} (intentional? \
             `UPDATE_GOLDEN=1 cargo test --test golden` regenerates {GOLDEN_FILES}):\n{diff}"
        );
    }
}

#[test]
fn fixed_seed_run_matches_golden_stats() {
    let (current, _) = stats_text(golden_builder());
    // The golden run never arms a fault plan, so no `faults.*` keys may
    // appear (fault keys are written only for runs that armed one).
    assert!(
        !current.contains("faults."),
        "fault keys leaked into a fault-free run"
    );
    check_golden("tests/golden_stats.txt", &current);
}

/// The golden run once per engine parameter the default run leaves
/// off: blocking decompression (VC locked for the whole operation), two
/// engines per router, and adaptive thresholds.
fn engine_variants() -> [(&'static str, DiscoParams); 3] {
    let base = DiscoParams::default();
    [
        (
            "blocking",
            DiscoParams {
                non_blocking: false,
                ..base
            },
        ),
        (
            "engines_per_router_2",
            DiscoParams {
                engines_per_router: 2,
                ..base
            },
        ),
        (
            "adaptive",
            DiscoParams {
                adaptive: true,
                ..base
            },
        ),
    ]
}

#[test]
fn engine_variants_match_golden_stats() {
    let mut current = String::new();
    for (name, params) in engine_variants() {
        let (stats, _) = stats_text(golden_builder().disco_params(params));
        current.push_str(&format!("[{name}]\n{stats}\n"));
    }
    // The default run with every trace record kept: the engine's
    // CodecStart/CodecEnd events are pinned through the JSONL checksum.
    let (stats, report) = stats_text(golden_builder().retain_trace_records(true));
    let records = &report.trace.as_ref().expect("capture requested").records;
    let jsonl = disco::trace::export::jsonl_string(records);
    current.push_str(&format!(
        "[trace]\ntrace.records = {}\ntrace.jsonl_fnv = {:#018x}\n{stats}",
        records.len(),
        disco::faults::checksum(jsonl.as_bytes())
    ));
    check_golden("tests/golden_disco_variants.txt", &current);
}

/// One open-loop NoC-only run of the kernel matrix: a 4×4-tile network
/// with DISCO engines and no caches, built the way the `noc-16x16`
/// benchmark builds its network.
struct KernelRun {
    name: &'static str,
    topology: TopologyChoice,
    config: NocConfig,
    faults: Option<FaultPlan>,
    traced: bool,
}

/// Cycles per kernel run: enough for every run to reach contention,
/// SA and VA losers and DISCO operations.
const KERNEL_CYCLES: u64 = 500;

/// The NoC configuration `noc-16x16` runs: Table 2 defaults with the
/// DISCO placement's demotion of uncompressed packets.
fn kernel_config() -> NocConfig {
    NocConfig {
        scheduling: SchedulingPolicy {
            demote_uncompressed: true,
            ..SchedulingPolicy::default()
        },
        ..NocConfig::default()
    }
}

fn kernel_matrix() -> Vec<KernelRun> {
    let base = kernel_config();
    let run = |name, topology, config| KernelRun {
        name,
        topology,
        config,
        faults: None,
        traced: false,
    };
    let mut runs: Vec<KernelRun> = TopologyChoice::ALL
        .into_iter()
        .map(|t| run(t.name(), t, base))
        .collect();
    for (name, flow_control) in [
        ("mesh_vct", FlowControl::VirtualCutThrough),
        ("mesh_saf", FlowControl::StoreAndForward),
    ] {
        let config = NocConfig {
            flow_control,
            ..base
        };
        runs.push(run(name, TopologyChoice::Mesh, config));
    }
    for (name, routing) in [
        ("mesh_yx", RoutingAlgorithm::Yx),
        ("mesh_o1turn", RoutingAlgorithm::O1Turn),
        ("mesh_west_first", RoutingAlgorithm::WestFirst),
    ] {
        let config = NocConfig { routing, ..base };
        runs.push(run(name, TopologyChoice::Mesh, config));
    }
    for (name, demote_uncompressed, prioritize_critical) in [
        ("mesh_critical_only", false, true),
        ("mesh_no_priority", false, false),
    ] {
        let config = NocConfig {
            scheduling: SchedulingPolicy {
                demote_uncompressed,
                prioritize_critical,
            },
            ..base
        };
        runs.push(run(name, TopologyChoice::Mesh, config));
    }
    let mut plan = FaultPlan::new(7);
    plan.port_stall_rate = 0.02;
    plan.link_flaky_rate = 0.02;
    runs.push(KernelRun {
        faults: Some(plan),
        ..run("mesh_port_stall_flaky", TopologyChoice::Mesh, base)
    });
    runs.push(KernelRun {
        traced: true,
        ..run("mesh_traced", TopologyChoice::Mesh, base)
    });
    runs
}

/// FNV-1a over formatted text, fed without building a `String`.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// Runs one kernel-matrix leg and renders its pinned section: the NoC
/// and DISCO stats, fault stats when armed, a checksum over every
/// router's `Debug` state after every cycle, and the trace's JSONL
/// checksum when traced.
fn kernel_section(leg: &KernelRun, seed: u64) -> String {
    let topo = leg.topology.build(4, 4);
    let mut config = leg.config;
    config.vcs = config.vcs.max(topo.min_vcs());
    let mut net = Network::new(topo, config);
    let codec = Codec::delta();
    if let Some(plan) = &leg.faults {
        net.set_fault_plan(plan.clone(), codec.clone());
    }
    if leg.traced {
        net.set_trace_capacity(1 << 16);
    }
    let routers = net.topology().routers();
    let tiles = net.topology().tiles();
    let mut layer = DiscoLayer::new(DiscoParams::default(), codec, routers);
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut state = Fnv(0xcbf2_9ce4_8422_2325);
    let mut records = Vec::new();
    let mut delivered = 0u64;
    for _ in 0..KERNEL_CYCLES {
        for src in 0..tiles {
            let draw = next();
            // ~1 packet per 10 tile-cycles: a mix of single-flit control
            // and compressible data lines.
            if draw % 10 != 0 {
                continue;
            }
            let dst = (src + 1 + (draw >> 8) as usize % (tiles - 1)) % tiles;
            let (class, payload) = match (draw >> 20) % 4 {
                0 => (PacketClass::Request, Payload::None),
                1 => (PacketClass::Coherence, Payload::None),
                _ => {
                    let base = draw >> 24;
                    let step = (draw >> 40) % 4;
                    let line = CacheLine::from_u64_words(std::array::from_fn(|w| {
                        base.wrapping_add(step * w as u64)
                    }));
                    (PacketClass::Response, Payload::Raw(line))
                }
            };
            let compressible = class == PacketClass::Response;
            net.send(NodeId(src), NodeId(dst), class, payload, compressible, draw);
        }
        net.tick();
        layer.tick(&mut net);
        for tile in 0..tiles {
            delivered += net.take_delivered(NodeId(tile)).len() as u64;
        }
        for r in 0..routers {
            write!(state, "{:?}", net.router(NodeId(r))).expect("hashing cannot fail");
        }
        if let Some(tracer) = net.tracer_mut() {
            records.extend(tracer.drain());
        }
    }
    let mut out = format!(
        "[{}]\nrouters = {routers}\nvcs = {}\ndelivered = {delivered}\nrouter_state_fnv = {:#018x}\n",
        leg.name, config.vcs, state.0
    );
    out.push_str(&format!("noc = {:?}\n", net.stats()));
    out.push_str(&format!("disco = {:?}\n", layer.stats()));
    if let Some(stats) = net.fault_stats() {
        out.push_str(&format!("faults = {stats:?}\n"));
    }
    if leg.traced {
        let jsonl = disco::trace::export::jsonl_string(&records);
        out.push_str(&format!(
            "trace.records = {}\ntrace.jsonl_fnv = {:#018x}\n",
            records.len(),
            disco::faults::checksum(jsonl.as_bytes())
        ));
    }
    out
}

/// The cycle kernel pinned across its configuration space: every
/// topology, flow control, routing algorithm and scheduling policy, one
/// fault plan with port stalls and flaky links (which forfeits SA
/// rounds), and one traced run. The per-cycle router-state checksum
/// covers allocation state, round-robin pointers and the SA-loser lists
/// the DISCO layer reads, so a kernel rewrite must reproduce every
/// cycle's decisions, not just the end-of-run totals.
#[test]
fn kernel_matrix_matches_golden() {
    let mut current = String::new();
    for leg in kernel_matrix() {
        current.push_str(&kernel_section(&leg, 2018));
        current.push('\n');
    }
    check_golden("tests/golden_kernel.txt", &current);
}
