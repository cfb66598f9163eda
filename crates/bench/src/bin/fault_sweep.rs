//! Resilience sweep: every Fig. 5 workload run under uniform fault rates
//! for both the Baseline and DISCO placements, asserting the fault
//! layer's contract and emitting a machine-readable `BENCH_pr5.json`.
//!
//! Three invariants back the "lose performance, never data" claim:
//!
//! - **zero silent corruption** — `faults.undetected` is 0 at every
//!   point (a violation would already abort the run with
//!   `SimError::SilentCorruption`);
//! - **exact ledger reconciliation** — injected == detected and
//!   injected == recovered + unrecoverable at every point;
//! - **100% recovery below the retry bound** — at rates up to 1e-4 per
//!   flit-hop every injected fault is recovered within the default
//!   retry budget (`faults.unrecoverable` is 0).
//!
//! `cargo run --release -p disco-bench --bin fault_sweep -- \
//!     [--mesh 4] [--rates 0.0,1e-5,1e-4,1e-3] [--quick] [--out BENCH_pr5.json]`

use disco_bench::cli::{self, Flags};
use disco_core::{CompressionPlacement, SimBuilder};
use disco_faults::{FaultPlan, FaultStats};
use disco_pareto::exec::injection_warning;
use disco_pareto::json::Json;
use disco_workloads::Benchmark;
use std::process::ExitCode;

/// Rates at and below which the sweep demands 100% recovery.
const RECOVERY_BOUND: f64 = 1e-4;

struct Args {
    mesh: usize,
    rates: Vec<f64>,
    trace_len: usize,
    out: String,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let flags = Flags::from_env(&["--mesh", "--rates", "--out"], &["--quick"])?;
    let quick = flags.switch("--quick");
    let rates = flags.list("--rates", vec![0.0, 1e-5, 1e-4, 1e-3])?;
    let trace_len = disco_bench::trace_len().min(6_000);
    Ok(Args {
        mesh: flags.get("--mesh", 4)?,
        rates: if quick { vec![0.0, 1e-4] } else { rates },
        trace_len: if quick {
            trace_len.min(1_500)
        } else {
            trace_len
        },
        out: flags.get("--out", "BENCH_pr5.json".to_string())?,
        quick,
    })
}

struct Row {
    benchmark: Benchmark,
    placement: CompressionPlacement,
    rate: f64,
    cycles: u64,
    avg_onchip_latency: f64,
    faults: Option<FaultStats>,
}

/// Runs one point; panics (failing the sweep) on any contract breach.
fn run_point(
    args: &Args,
    benchmark: Benchmark,
    placement: CompressionPlacement,
    rate: f64,
    plan_seed: u64,
) -> Row {
    let report = SimBuilder::new()
        .mesh(args.mesh, args.mesh)
        .placement(placement)
        .benchmark(benchmark)
        .trace_len(args.trace_len)
        .seed(disco_bench::DEFAULT_SEED)
        .faults(FaultPlan::uniform(plan_seed, rate))
        .run()
        .unwrap_or_else(|e| panic!("{benchmark}/{placement} @ rate {rate}: {e}"));
    let faults = report.faults;
    if rate == 0.0 {
        assert!(
            faults.is_none(),
            "{benchmark}/{placement}: rate-0 plan must be inactive"
        );
    }
    if let Some(f) = &faults {
        // A rate so low it injected nothing over this run would print as
        // a flawless 100%-recovery row — warn that the configuration
        // under-samples and needs a longer run (disco-serve's
        // long-run/resume mode exists for exactly this).
        if f.injected == 0 {
            let label = format!("{benchmark}/{}", placement.name());
            let sites = disco_bench::serve::injection_sites(args.mesh * args.mesh);
            if let Some(w) = injection_warning(&label, rate, report.cycles, sites) {
                eprintln!("{w}");
            }
        }
        assert_eq!(
            f.undetected, 0,
            "{benchmark}/{placement} @ rate {rate}: silent corruption"
        );
        assert!(
            f.reconciles(),
            "{benchmark}/{placement} @ rate {rate}: ledger does not reconcile: {f:?}"
        );
        if rate <= RECOVERY_BOUND {
            assert_eq!(
                f.unrecoverable, 0,
                "{benchmark}/{placement} @ rate {rate}: recovery must be total \
                 below {RECOVERY_BOUND}: {f:?}"
            );
        }
    }
    Row {
        benchmark,
        placement,
        rate,
        cycles: report.cycles,
        avg_onchip_latency: report.avg_onchip_latency(),
        faults,
    }
}

fn main() -> ExitCode {
    cli::exit_status("fault_sweep", run())
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    let placements = [CompressionPlacement::Baseline, CompressionPlacement::Disco];
    println!(
        "fault_sweep: {}x{} mesh, {} accesses/core, rates {:?}{}",
        args.mesh,
        args.mesh,
        args.trace_len,
        args.rates,
        if args.quick { " (quick)" } else { "" }
    );
    println!(
        "{:<14} {:<9} {:>8} {:>9} {:>9} {:>9} {:>7} {:>9} {:>10}",
        "benchmark",
        "placement",
        "rate",
        "injected",
        "recovered",
        "unrecov",
        "retries",
        "fallback",
        "latency"
    );

    let mut rows = Vec::new();
    for (bi, &benchmark) in Benchmark::ALL.iter().enumerate() {
        for (pi, &placement) in placements.iter().enumerate() {
            for &rate in &args.rates {
                let plan_seed = disco_bench::DEFAULT_SEED ^ ((bi as u64) << 8) ^ pi as u64;
                let row = run_point(&args, benchmark, placement, rate, plan_seed);
                let f = row.faults.unwrap_or_default();
                println!(
                    "{:<14} {:<9} {:>8.0e} {:>9} {:>9} {:>9} {:>7} {:>9} {:>10.2}",
                    row.benchmark.to_string(),
                    row.placement.name(),
                    row.rate,
                    f.injected,
                    f.recovered,
                    f.unrecoverable,
                    f.retries,
                    f.fallback_deliveries,
                    row.avg_onchip_latency,
                );
                rows.push(row);
            }
        }
    }

    let total =
        rows.iter()
            .filter_map(|r| r.faults.as_ref())
            .fold(FaultStats::default(), |mut acc, f| {
                acc.accumulate(f);
                acc
            });
    let bounded_unrecoverable: u64 = rows
        .iter()
        .filter(|r| r.rate > 0.0 && r.rate <= RECOVERY_BOUND)
        .filter_map(|r| r.faults.as_ref())
        .map(|f| f.unrecoverable)
        .sum();
    println!(
        "fault_sweep: {} points, {} faults injected, {} recovered, {} unrecoverable \
         (0 at rates <= {RECOVERY_BOUND}: {}), 0 undetected",
        rows.len(),
        total.injected,
        total.recovered,
        total.unrecoverable,
        bounded_unrecoverable == 0,
    );

    let points = rows.iter().map(|row| {
        let f = row.faults.unwrap_or_default();
        Json::obj([
            ("benchmark", Json::str(row.benchmark.to_string())),
            ("placement", Json::str(row.placement.name())),
            ("rate", Json::num(format_args!("{:e}", row.rate))),
            ("cycles", Json::num(row.cycles)),
            ("avg_onchip_latency", Json::fixed(row.avg_onchip_latency, 4)),
            ("injected", Json::num(f.injected)),
            ("detected", Json::num(f.detected)),
            ("recovered", Json::num(f.recovered)),
            ("unrecoverable", Json::num(f.unrecoverable)),
            ("retries", Json::num(f.retries)),
            ("fallback_deliveries", Json::num(f.fallback_deliveries)),
            ("undetected", Json::num(f.undetected)),
        ])
    });
    let json = Json::obj([
        ("bench", Json::str("fault_sweep")),
        ("mesh", Json::str(format!("{0}x{0}", args.mesh))),
        ("trace_len", Json::num(args.trace_len)),
        ("quick", Json::Bool(args.quick)),
        ("recovery_bound", Json::num(RECOVERY_BOUND)),
        ("total_injected", Json::num(total.injected)),
        ("total_recovered", Json::num(total.recovered)),
        ("total_unrecoverable", Json::num(total.unrecoverable)),
        ("total_undetected", Json::num(total.undetected)),
        ("points", Json::Arr(points.collect())),
    ]);
    std::fs::write(&args.out, format!("{json:#}\n"))
        .map_err(|e| format!("cannot write {}: {e}", args.out))?;
    println!("fault_sweep: -> {}", args.out);
    Ok(ExitCode::SUCCESS)
}
