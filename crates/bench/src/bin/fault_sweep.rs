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

use disco_core::{CompressionPlacement, SimBuilder};
use disco_faults::{FaultPlan, FaultStats};
use disco_workloads::Benchmark;
use std::fmt::Write as _;
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
    let mut args = Args {
        mesh: 4,
        rates: vec![0.0, 1e-5, 1e-4, 1e-3],
        trace_len: disco_bench::trace_len().min(6_000),
        out: "BENCH_pr5.json".to_string(),
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("invalid {what}: {value}");
        match flag.as_str() {
            "--mesh" => args.mesh = value.parse().map_err(|_| bad("--mesh"))?,
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
    if args.quick {
        args.rates = vec![0.0, 1e-4];
        args.trace_len = args.trace_len.min(1_500);
    }
    Ok(args)
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
            if let Some(w) =
                disco_bench::serve::injection_warning(&label, rate, report.cycles, sites)
            {
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
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("fault_sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
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

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fault_sweep\",");
    let _ = writeln!(json, "  \"mesh\": \"{}x{}\",", args.mesh, args.mesh);
    let _ = writeln!(json, "  \"trace_len\": {},", args.trace_len);
    let _ = writeln!(json, "  \"quick\": {},", args.quick);
    let _ = writeln!(json, "  \"recovery_bound\": {RECOVERY_BOUND},");
    let _ = writeln!(json, "  \"total_injected\": {},", total.injected);
    let _ = writeln!(json, "  \"total_recovered\": {},", total.recovered);
    let _ = writeln!(json, "  \"total_unrecoverable\": {},", total.unrecoverable);
    let _ = writeln!(json, "  \"total_undetected\": {},", total.undetected);
    let _ = writeln!(json, "  \"points\": [");
    for (i, row) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let f = row.faults.unwrap_or_default();
        let _ = writeln!(
            json,
            "    {{\"benchmark\": \"{}\", \"placement\": \"{}\", \"rate\": {:e}, \
             \"cycles\": {}, \"avg_onchip_latency\": {:.4}, \"injected\": {}, \
             \"detected\": {}, \"recovered\": {}, \"unrecoverable\": {}, \
             \"retries\": {}, \"fallback_deliveries\": {}, \"undetected\": {}}}{}",
            row.benchmark,
            row.placement.name(),
            row.rate,
            row.cycles,
            row.avg_onchip_latency,
            f.injected,
            f.detected,
            f.recovered,
            f.unrecoverable,
            f.retries,
            f.fallback_deliveries,
            f.undetected,
            sep
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("fault_sweep: cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    println!("fault_sweep: -> {}", args.out);
    ExitCode::SUCCESS
}
