//! Tracing-overhead benchmark: the same uniform-random sweep run with the
//! tracer off and then on at ring capacities 2^12 .. 2^20, in one
//! process, emitting a machine-readable `BENCH_pr4.json`.
//!
//! Tracing is a runtime option (`Network::set_trace_capacity`, 0 = off),
//! so both legs run the same binary. The "zero behavioral impact" claim
//! is asserted in-process: the FNV-1a fingerprint over every point's
//! final `NetworkStats` must be identical for the untraced leg and for
//! every traced leg, or the run fails.
//!
//! `cargo run --release -p disco-bench --bin trace_overhead -- \
//!     [--mesh 8] [--cycles 20000] [--rates 0.05,0.1,0.2] \
//!     [--out BENCH_pr4.json]`

use disco_bench::sweep::{run_sweep, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Ring capacities of the traced legs; the untraced leg (capacity 0)
/// runs first.
const CAPACITIES: [usize; 5] = [1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20];

struct Args {
    mesh: usize,
    cycles: u64,
    rates: Vec<f64>,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mesh: 8,
        cycles: 20_000,
        rates: vec![0.05, 0.1, 0.2],
        out: "BENCH_pr4.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid {what}: {value}");
        match flag.as_str() {
            "--mesh" => args.mesh = value.parse().map_err(|_| bad("--mesh"))?,
            "--cycles" => args.cycles = value.parse().map_err(|_| bad("--cycles"))?,
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

fn points_for(args: &Args, trace_capacity: usize) -> Vec<SweepPoint> {
    let seeds = [disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2];
    args.rates
        .iter()
        .flat_map(|&rate| {
            seeds.iter().map(move |&seed| SweepPoint {
                topology: disco_noc::TopologyChoice::Mesh,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed,
                cols: args.mesh,
                rows: args.mesh,
                cycles: args.cycles,
                compute_shards: 1,
                trace_capacity,
            })
        })
        .collect()
}

/// FNV-1a over the debug rendering of every point's final counters: any
/// behavioral difference between legs moves at least one counter and
/// changes the fingerprint.
fn fingerprint(results: &[PointResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        for byte in format!("{:?}", r.stats).bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

struct Leg {
    capacity: usize,
    wall_secs: f64,
    cycles_per_sec: f64,
    emitted: u64,
    dropped: u64,
    fingerprint: u64,
}

fn run_leg(args: &Args, capacity: usize) -> Leg {
    let points = points_for(args, capacity);
    let results = run_sweep(&points, 1);
    let wall_secs: f64 = results.iter().map(|r| r.wall_secs).sum();
    let total_cycles: f64 = points.iter().map(|p| p.cycles as f64).sum();
    let (emitted, dropped) = results.iter().fold((0, 0), |(e, d), r| {
        (e + r.trace_emitted, d + r.trace_dropped)
    });
    Leg {
        capacity,
        wall_secs,
        cycles_per_sec: total_cycles / wall_secs.max(1e-9),
        emitted,
        dropped,
        fingerprint: fingerprint(&results),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("trace_overhead: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "trace_overhead: {}x{} mesh, {} cycles/point, rates {:?}",
        args.mesh, args.mesh, args.cycles, args.rates
    );

    let mut legs: Vec<Leg> = Vec::new();
    for capacity in std::iter::once(0).chain(CAPACITIES) {
        let leg = run_leg(&args, capacity);
        println!(
            "  capacity {:>8}: {:>10.0} cycles/s ({} events emitted, {} dropped)",
            if capacity == 0 {
                "off".to_string()
            } else {
                capacity.to_string()
            },
            leg.cycles_per_sec,
            leg.emitted,
            leg.dropped
        );
        // Tracing only observes; counters must not move with it.
        if legs
            .first()
            .is_some_and(|untraced| untraced.fingerprint != leg.fingerprint)
        {
            eprintln!("trace_overhead: FAIL capacity {capacity} changed the stats fingerprint");
            return ExitCode::FAILURE;
        }
        legs.push(leg);
    }

    // Throughput cost of tracing at the default ring capacity.
    let untraced = &legs[0];
    let default_leg = legs
        .iter()
        .find(|l| l.capacity == disco_trace::DEFAULT_CAPACITY)
        .unwrap_or(untraced);
    let overhead_pct =
        100.0 * (untraced.cycles_per_sec / default_leg.cycles_per_sec.max(1e-9) - 1.0);
    println!(
        "trace_overhead: stats identical with tracing on; tracing costs {overhead_pct:.1}% \
         throughput at the default capacity"
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"trace_overhead\",");
    let _ = writeln!(json, "  \"mesh\": \"{}x{}\",", args.mesh, args.mesh);
    let _ = writeln!(json, "  \"cycles_per_point\": {},", args.cycles);
    let _ = writeln!(
        json,
        "  \"stats_fingerprint\": \"{:016x}\",",
        untraced.fingerprint
    );
    let _ = writeln!(
        json,
        "  \"untraced_cycles_per_s\": {:.0},",
        untraced.cycles_per_sec
    );
    let _ = writeln!(json, "  \"overhead_vs_untraced_pct\": {overhead_pct:.2},");
    let _ = writeln!(json, "  \"legs\": [");
    for (i, leg) in legs.iter().enumerate() {
        let sep = if i + 1 < legs.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"capacity\": {}, \"wall_s\": {:.6}, \"cycles_per_s\": {:.0}, \
             \"events_emitted\": {}, \"events_dropped\": {}}}{}",
            leg.capacity, leg.wall_secs, leg.cycles_per_sec, leg.emitted, leg.dropped, sep
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("trace_overhead: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("trace_overhead: -> {}", args.out);
    ExitCode::SUCCESS
}
