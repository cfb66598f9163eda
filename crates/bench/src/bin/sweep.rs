//! Parallel sweep runner: the same uniform-random load sweep executed
//! twice — once fully serial, once fanned across threads — with a
//! machine-readable `BENCH_*.json` recording wall-clock and cycles/sec
//! per point plus the overall speedup. The two passes must agree on
//! every counter; the runner exits non-zero if they diverge.
//!
//! `cargo run --release -p disco-bench --bin sweep -- \
//!     [--mesh 8] [--topology mesh|ring|hring|torus|cmesh] \
//!     [--cycles 20000] [--threads N] [--shards S] \
//!     [--rates 0.05,0.1,0.2,0.3] [--out BENCH_pr3.json]`

use disco_bench::cli::{self, Flags};
use disco_bench::sweep::{pattern_name, run_sweep, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use disco_pareto::json::Json;
use std::process::ExitCode;
use std::time::Instant;

fn point_json(serial: &PointResult, fanned: &PointResult) -> Json {
    let p = &serial.point;
    Json::obj([
        ("pattern", Json::str(pattern_name(p.pattern))),
        ("rate", Json::num(p.injection_rate)),
        ("seed", Json::num(p.seed)),
        (
            "packets_delivered",
            Json::num(serial.stats.packets_delivered),
        ),
        (
            "avg_packet_latency",
            Json::fixed(serial.stats.avg_packet_latency(), 4),
        ),
        ("serial_wall_s", Json::fixed(serial.wall_secs, 6)),
        ("serial_cycles_per_s", Json::fixed(serial.cycles_per_sec, 0)),
        ("parallel_wall_s", Json::fixed(fanned.wall_secs, 6)),
        (
            "parallel_cycles_per_s",
            Json::fixed(fanned.cycles_per_sec, 0),
        ),
    ])
}

fn main() -> ExitCode {
    cli::exit_status("sweep", run())
}

fn run() -> Result<ExitCode, String> {
    let flags = Flags::from_env(
        &[
            "--mesh",
            "--topology",
            "--cycles",
            "--threads",
            "--shards",
            "--rates",
            "--out",
        ],
        &[],
    )?;
    let mesh: usize = flags.get("--mesh", 8)?;
    let topology = flags
        .opt_with("--topology", TopologyChoice::parse)?
        .unwrap_or(TopologyChoice::Mesh);
    let cycles: u64 = flags.get("--cycles", 20_000)?;
    let default_threads = std::thread::available_parallelism().map_or(4, |n| n.get());
    let threads = flags.get("--threads", default_threads)?;
    let shards = flags.get("--shards", 1)?;
    let rates: Vec<f64> = flags.list("--rates", vec![0.05, 0.1, 0.2, 0.3])?;
    let out = flags.get("--out", "BENCH_pr3.json".to_string())?;
    // Make over-subscription loud: on a host with fewer cores than
    // the threads the fanned pass runs (threads x kernel threads per
    // point), it measures time-slicing, and its speedup number is not a
    // parallelism result (this is exactly how BENCH_pr3's 0.952x on a
    // 1-core container read as a regression). `host_cores` in the JSON
    // records the truth.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(w) =
        disco_pareto::exec::oversubscription_warning("sweep", threads, shards, host_cores)
    {
        eprintln!("{w}");
    }
    // The driver maps `seed` to `seed | 1`, so adjacent integers collide;
    // step by 2 to get genuinely distinct streams.
    let seeds = [disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2];
    let points: Vec<SweepPoint> = rates
        .iter()
        .flat_map(|&rate| {
            seeds.iter().map(move |&seed| SweepPoint {
                topology,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed,
                cols: mesh,
                rows: mesh,
                cycles,
                compute_shards: shards,
                trace_capacity: 0,
            })
        })
        .collect();
    println!(
        "sweep: {} points ({}x{} {}, {} cycles each), serial then {} threads",
        points.len(),
        mesh,
        mesh,
        topology,
        cycles,
        threads
    );

    let t0 = Instant::now();
    let serial = run_sweep(&points, 1);
    let serial_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let fanned = run_sweep(&points, threads);
    let parallel_wall = t1.elapsed().as_secs_f64();

    let mut diverged = false;
    for (s, f) in serial.iter().zip(&fanned) {
        if s.stats != f.stats {
            eprintln!(
                "sweep: DIVERGENCE at rate {} seed {}: serial {:?} vs parallel {:?}",
                s.point.injection_rate, s.point.seed, s.stats, f.stats
            );
            diverged = true;
        }
    }

    let speedup = serial_wall / parallel_wall.max(1e-9);
    let points = serial.iter().zip(&fanned).map(|(s, f)| point_json(s, f));
    let json = Json::obj([
        ("bench", Json::str("sweep")),
        ("mesh", Json::str(format!("{mesh}x{mesh}"))),
        ("topology", Json::str(topology.to_string())),
        ("cycles_per_point", Json::num(cycles)),
        ("threads", Json::num(threads)),
        ("host_cores", Json::num(host_cores)),
        ("compute_shards", Json::num(shards)),
        ("points", Json::Arr(points.collect())),
        ("serial_total_wall_s", Json::fixed(serial_wall, 6)),
        ("parallel_total_wall_s", Json::fixed(parallel_wall, 6)),
        ("deterministic", Json::Bool(!diverged)),
        ("speedup", Json::fixed(speedup, 3)),
    ]);
    std::fs::write(&out, format!("{json:#}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "sweep: serial {serial_wall:.2}s, parallel {parallel_wall:.2}s, speedup {speedup:.2}x -> {out}"
    );
    if diverged {
        eprintln!("sweep: FAIL parallel pass diverged from serial pass");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
