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

use disco_bench::sweep::{pattern_name, run_sweep, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    mesh: usize,
    topology: TopologyChoice,
    cycles: u64,
    threads: usize,
    shards: usize,
    rates: Vec<f64>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mesh: 8,
        topology: TopologyChoice::Mesh,
        cycles: 20_000,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
        shards: 1,
        rates: vec![0.05, 0.1, 0.2, 0.3],
        out: "BENCH_pr3.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid {what}: {value}");
        match flag.as_str() {
            "--mesh" => args.mesh = value.parse().map_err(|_| bad("--mesh"))?,
            "--topology" => {
                args.topology = TopologyChoice::parse(&value).ok_or_else(|| bad("--topology"))?;
            }
            "--cycles" => args.cycles = value.parse().map_err(|_| bad("--cycles"))?,
            "--threads" => args.threads = value.parse().map_err(|_| bad("--threads"))?,
            "--shards" => args.shards = value.parse().map_err(|_| bad("--shards"))?,
            "--rates" => {
                args.rates = value
                    .split(',')
                    .map(|r| r.trim().parse().map_err(|_| bad("--rates")))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => args.out = value,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn point_json(serial: &PointResult, fanned: &PointResult) -> String {
    let p = &serial.point;
    format!(
        "{{\"pattern\": \"{}\", \"rate\": {}, \"seed\": {}, \
         \"packets_delivered\": {}, \"avg_packet_latency\": {:.4}, \
         \"serial_wall_s\": {:.6}, \"serial_cycles_per_s\": {:.0}, \
         \"parallel_wall_s\": {:.6}, \"parallel_cycles_per_s\": {:.0}}}",
        pattern_name(p.pattern),
        p.injection_rate,
        p.seed,
        serial.stats.packets_delivered,
        serial.stats.avg_packet_latency(),
        serial.wall_secs,
        serial.cycles_per_sec,
        fanned.wall_secs,
        fanned.cycles_per_sec,
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Make over-subscription loud: on a host with fewer cores than
    // the threads the fanned pass runs (threads x kernel threads per
    // point), it measures time-slicing, and its speedup number is not a
    // parallelism result (this is exactly how BENCH_pr3's 0.952x on a
    // 1-core container read as a regression). `host_cores` in the JSON
    // records the truth.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if let Some(w) =
        disco_pareto::exec::oversubscription_warning("sweep", args.threads, args.shards, host_cores)
    {
        eprintln!("{w}");
    }
    // The driver maps `seed` to `seed | 1`, so adjacent integers collide;
    // step by 2 to get genuinely distinct streams.
    let seeds = [disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2];
    let points: Vec<SweepPoint> = args
        .rates
        .iter()
        .flat_map(|&rate| {
            seeds.iter().map(move |&seed| SweepPoint {
                topology: args.topology,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed,
                cols: args.mesh,
                rows: args.mesh,
                cycles: args.cycles,
                compute_shards: args.shards,
                trace_capacity: 0,
            })
        })
        .collect();
    println!(
        "sweep: {} points ({}x{} {}, {} cycles each), serial then {} threads",
        points.len(),
        args.mesh,
        args.mesh,
        args.topology,
        args.cycles,
        args.threads
    );

    let t0 = Instant::now();
    let serial = run_sweep(&points, 1);
    let serial_wall = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let fanned = run_sweep(&points, args.threads);
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
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sweep\",");
    let _ = writeln!(json, "  \"mesh\": \"{}x{}\",", args.mesh, args.mesh);
    let _ = writeln!(json, "  \"topology\": \"{}\",", args.topology);
    let _ = writeln!(json, "  \"cycles_per_point\": {},", args.cycles);
    let _ = writeln!(json, "  \"threads\": {},", args.threads);
    let _ = writeln!(json, "  \"host_cores\": {host_cores},");
    let _ = writeln!(json, "  \"compute_shards\": {},", args.shards);
    let _ = writeln!(json, "  \"points\": [");
    for (i, (s, f)) in serial.iter().zip(&fanned).enumerate() {
        let sep = if i + 1 < serial.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{}", point_json(s, f), sep);
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"serial_total_wall_s\": {serial_wall:.6},");
    let _ = writeln!(json, "  \"parallel_total_wall_s\": {parallel_wall:.6},");
    let _ = writeln!(json, "  \"deterministic\": {},", !diverged);
    let _ = writeln!(json, "  \"speedup\": {speedup:.3}");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("sweep: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!(
        "sweep: serial {serial_wall:.2}s, parallel {parallel_wall:.2}s, speedup {speedup:.2}x -> {}",
        args.out
    );
    if diverged {
        eprintln!("sweep: FAIL parallel pass diverged from serial pass");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
