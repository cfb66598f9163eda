//! `disco-serve` — a long-running simulation job-queue server.
//!
//! ```text
//! disco-serve --queue jobs.json --out results/ [--threads N]
//!             [--max-chunks N] [--validate-only]
//! ```
//!
//! Reads a JSON queue file (schema in `disco_bench::serve`), runs every
//! job not already completed in the output directory, checkpoints each
//! job every `checkpoint_every` cycles, and resumes interrupted jobs
//! from their checkpoints. Kill it at any point and rerun the same
//! command line: completed jobs are skipped, in-flight jobs resume from
//! their last checkpoint, and final per-job stats are byte-identical to
//! an uninterrupted run.
//!
//! `--max-chunks N` stops the server after N job chunks across all
//! workers — a deterministic stand-in for a kill, used by the
//! kill-and-resume tests. `--validate-only` parses and validates the
//! queue (printing any expected-injection warnings) without simulating.
//! Exit status: 0 on success, 1 on usage/queue errors or failed jobs,
//! 3 when stopped early by the chunk budget with work remaining.

use disco_bench::cli::{self, Flags};
use disco_bench::serve::{parse_queue, serve, ServeOpts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: disco-serve --queue <jobs.json> --out <dir> \
                     [--threads N] [--max-chunks N] [--validate-only]";

fn parse_args() -> Result<(PathBuf, ServeOpts, bool), String> {
    let flags = Flags::from_env(
        &["--queue", "--out", "--threads", "--max-chunks"],
        &["--validate-only"],
    )?;
    let queue = flags.required("--queue")?;
    let opts = ServeOpts {
        out_dir: flags.required("--out")?,
        threads: flags.get("--threads", 1)?,
        max_chunks: flags.opt("--max-chunks")?,
    };
    Ok((queue, opts, flags.switch("--validate-only")))
}

fn main() -> ExitCode {
    cli::exit_status("disco-serve", run())
}

fn run() -> Result<ExitCode, String> {
    let (queue, opts, validate_only) = parse_args().map_err(|e| format!("{e}\n{USAGE}"))?;
    let text = std::fs::read_to_string(&queue)
        .map_err(|e| format!("cannot read {}: {e}", queue.display()))?;
    let (cfg, warnings) = parse_queue(&text)?;
    for w in &warnings {
        eprintln!("{w}");
    }
    if validate_only {
        println!(
            "queue ok: {} jobs, checkpoint every {} cycles, {} warnings",
            cfg.jobs.len(),
            cfg.checkpoint_every,
            warnings.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    let summary = serve(&cfg, &opts)?;
    println!(
        "disco-serve: {} completed, {} already done, {} resumed, \
         {} interrupted, {} cancelled, {} failed",
        summary.completed,
        summary.already_done,
        summary.resumed,
        summary.interrupted,
        summary.cancelled,
        summary.failed
    );
    Ok(if summary.failed > 0 {
        ExitCode::FAILURE
    } else if summary.interrupted > 0 {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    })
}
