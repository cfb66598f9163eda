//! `pareto` — resumable Pareto design-space exploration (PR 10).
//!
//! ```text
//! pareto --out PARETO_pr10.json [--grid smoke|full] [--workers N]
//!        [--journal points.jsonl] [--max-points N]
//! ```
//!
//! Enumerates the declared design space, runs every point not already
//! in the journal through the full-system simulator under the
//! energy/area model, and — once the space is exhausted — writes the
//! exact latency/energy/area frontier with dominance proofs to `--out`.
//! Kill it at any moment and rerun the same command line: journaled
//! points are skipped and the final JSON is byte-identical to an
//! uninterrupted run at any `--workers` count.
//!
//! `--max-points N` budgets how many *new* points one invocation may
//! simulate — a deterministic stand-in for a kill, used by the
//! kill-and-resume tests and the CI smoke job. Exit status: 0 on
//! success, 1 on usage errors, 3 when the budget ran out with points
//! remaining (rerun to continue).

use disco_bench::cli::{self, Flags};
use disco_pareto::journal::write_atomic;
use disco_pareto::space::DesignSpace;
use disco_pareto::{explore, ExploreConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: pareto --out <frontier.json> [--grid smoke|full] \
                     [--workers N] [--journal <points.jsonl>] \
                     [--max-points N]";

fn parse_args() -> Result<(PathBuf, ExploreConfig), String> {
    let flags = Flags::from_env(
        &["--out", "--grid", "--workers", "--journal", "--max-points"],
        &[],
    )?;
    let grid = |name: &str| match name {
        "smoke" => Some(DesignSpace::smoke()),
        "full" => Some(DesignSpace::full()),
        _ => None,
    };
    let cfg = ExploreConfig {
        workers: flags.get("--workers", 1)?,
        journal: flags.opt("--journal")?,
        max_points: flags.get("--max-points", 0)?,
        ..ExploreConfig::new(
            flags
                .opt_with("--grid", grid)?
                .unwrap_or_else(DesignSpace::smoke),
        )
    };
    Ok((flags.required("--out")?, cfg))
}

fn main() -> ExitCode {
    cli::exit_status("pareto", run())
}

fn run() -> Result<ExitCode, String> {
    let (out, cfg) = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let outcome = explore(&cfg);
    for w in &outcome.warnings {
        eprintln!("{w}");
    }
    println!(
        "pareto: {} points, {} run now, {} remaining",
        outcome.total, outcome.completed, outcome.remaining
    );
    if outcome.remaining > 0 {
        eprintln!(
            "pareto: point budget exhausted with {} points remaining; \
             rerun with the same --journal to continue",
            outcome.remaining
        );
        return Ok(ExitCode::from(3));
    }
    let json = outcome.json.expect("fully explored");
    let frontier = outcome.frontier.expect("fully explored");
    write_atomic(&out, json.as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "pareto: frontier {} / dominated {} -> {}",
        frontier.frontier.len(),
        frontier.dominated.len(),
        out.display()
    );
    Ok(ExitCode::SUCCESS)
}
