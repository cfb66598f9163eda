//! Shared harness for the figure/table regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md`'s experiment index): it sweeps the same
//! configurations, prints the same rows/series, and reports the same
//! summary statistics the paper quotes in §4.

pub mod cli;
pub mod experiments;
pub mod serve;
pub mod sweep;

use disco_core::{CompressionPlacement, SimBuilder, SimReport};
use disco_workloads::Benchmark;

/// Default per-core trace length for the figure runs. Override with the
/// `TRACE_LEN` environment variable to trade fidelity for speed.
pub const DEFAULT_TRACE_LEN: usize = 12_000;

/// Default seed for figure runs (results are deterministic given it).
pub const DEFAULT_SEED: u64 = 2016;

/// Reads the trace length from `TRACE_LEN`, falling back to the default.
pub fn trace_len() -> usize {
    std::env::var("TRACE_LEN")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_TRACE_LEN)
}

/// Runs one configuration on the Table 2 system.
pub fn run(
    benchmark: Benchmark,
    placement: CompressionPlacement,
    scheme: disco_compress::SchemeKind,
    mesh: usize,
    len: usize,
) -> SimReport {
    SimBuilder::new()
        .mesh(mesh, mesh)
        .placement(placement)
        .scheme(scheme)
        .benchmark(benchmark)
        .trace_len(len)
        .seed(DEFAULT_SEED)
        .run()
        .unwrap_or_else(|e| panic!("{benchmark}/{placement}: {e}"))
}

/// Geometric mean.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of an empty set");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty set");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Prints a figure header with the workload column.
pub fn print_header(columns: &[&str]) {
    print!("{:<14}", "benchmark");
    for c in columns {
        print!(" {c:>9}");
    }
    println!();
}

/// Prints one row of normalized values.
pub fn print_row(label: &str, values: &[f64]) {
    print!("{label:<14}");
    for v in values {
        print!(" {v:>9.3}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_of_ones_is_one() {
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gmean_matches_hand_computation() {
        let g = gmean(&[2.0, 8.0]);
        assert!((g - 4.0).abs() < 1e-12);
        assert!((mean(&[2.0, 8.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_run_works() {
        let r = run(
            Benchmark::Swaptions,
            CompressionPlacement::Baseline,
            disco_compress::SchemeKind::Delta,
            2,
            100,
        );
        assert!(r.cycles > 0);
    }
}
