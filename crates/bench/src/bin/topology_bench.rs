//! Per-topology benchmark: every shipped topology gets (a) a raw NoC
//! throughput point under uniform-random load and (b) a full-system
//! DISCO run, so the snapshot records both how fast each fabric moves
//! flits and how much codec latency DISCO hides on it. The full-system
//! leg captures latency provenance and reports the hidden-codec-latency
//! coverage directly (the NoC throughput leg runs untraced).
//!
//! `cargo run --release -p disco-bench --bin topology_bench -- \
//!     [--mesh 4] [--cycles 5000] [--rate 0.1] [--trace-len 2000] \
//!     [--out BENCH_pr8.json]`

use disco_bench::cli::{self, Flags};
use disco_bench::sweep::{run_point, SweepPoint};
use disco_core::{CompressionPlacement, SimBuilder};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use disco_pareto::json::Json;
use disco_workloads::Benchmark;
use std::process::ExitCode;

struct Args {
    mesh: usize,
    cycles: u64,
    rate: f64,
    trace_len: usize,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let flags = Flags::from_env(
        &["--mesh", "--cycles", "--rate", "--trace-len", "--out"],
        &[],
    )?;
    Ok(Args {
        mesh: flags.get("--mesh", 4)?,
        cycles: flags.get("--cycles", 5_000)?,
        rate: flags.get("--rate", 0.1)?,
        trace_len: flags.get("--trace-len", 2_000)?,
        out: flags.get("--out", "BENCH_pr8.json".to_string())?,
    })
}

/// Runs one topology's NoC throughput point and full-system DISCO run,
/// prints a summary line, and returns its JSON record.
fn run_topology(choice: TopologyChoice, args: &Args) -> Result<Json, String> {
    let topo = choice.build(args.mesh, args.mesh);
    let point = run_point(&SweepPoint {
        topology: choice,
        pattern: TrafficPattern::UniformRandom,
        injection_rate: args.rate,
        seed: disco_bench::DEFAULT_SEED,
        cols: args.mesh,
        rows: args.mesh,
        cycles: args.cycles,
        compute_shards: 1,
        trace_capacity: 0,
    });
    let report = SimBuilder::new()
        .mesh(args.mesh, args.mesh)
        .topology(choice)
        .placement(CompressionPlacement::Disco)
        .benchmark(Benchmark::Dedup)
        .trace_len(args.trace_len)
        .seed(disco_bench::DEFAULT_SEED)
        .capture_trace(true)
        .run()
        .map_err(|e| format!("{choice} system run failed: {e}"))?;
    let hidden_coverage = report
        .trace
        .as_ref()
        .expect("capture requested")
        .provenance
        .hidden_coverage();
    let disco = report.disco.as_ref();
    let compressions = disco.map_or(0, |d| d.compressions + d.queue_compressions);
    let stats = &point.stats;
    println!(
        "topology_bench: {choice}: {:.0} c/s, {} pkts, avg latency {:.2}, \
         {compressions} compressions, hidden coverage {hidden_coverage:.3}",
        point.cycles_per_sec,
        stats.packets_delivered,
        stats.avg_packet_latency(),
    );
    Ok(Json::obj([
        ("topology", Json::str(choice.to_string())),
        ("routers", Json::num(topo.routers())),
        ("radix", Json::num(topo.radix())),
        ("noc_cycles_per_s", Json::fixed(point.cycles_per_sec, 0)),
        ("packets_delivered", Json::num(stats.packets_delivered)),
        (
            "avg_packet_latency",
            Json::fixed(stats.avg_packet_latency(), 4),
        ),
        ("avg_hops", Json::fixed(stats.avg_hops(), 4)),
        (
            "avg_access_latency",
            Json::fixed(report.avg_access_latency(), 4),
        ),
        ("disco_compressions", Json::num(compressions)),
        (
            "disco_flits_saved",
            Json::num(disco.map_or(0, |d| d.flits_saved)),
        ),
        ("hidden_coverage", Json::fixed(hidden_coverage, 4)),
    ]))
}

fn main() -> ExitCode {
    cli::exit_status("topology_bench", run())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let topologies = TopologyChoice::ALL
        .into_iter()
        .map(|choice| run_topology(choice, &args).map_err(|e| format!("FAIL {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = Json::obj([
        ("bench", Json::str("topology_bench")),
        ("mesh", Json::str(format!("{0}x{0}", args.mesh))),
        ("noc_cycles", Json::num(args.cycles)),
        ("noc_rate", Json::num(args.rate)),
        ("system_trace_len", Json::num(args.trace_len)),
        ("host_cores", Json::num(host_cores)),
        ("topologies", Json::Arr(topologies)),
    ]);
    std::fs::write(&args.out, format!("{json:#}\n"))
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    println!(
        "topology_bench: {} topologies -> {}",
        TopologyChoice::ALL.len(),
        args.out
    );
    Ok(ExitCode::SUCCESS)
}
