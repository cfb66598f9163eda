//! Simulation-as-a-service: a long-running job-queue engine behind the
//! `disco-serve` binary.
//!
//! A queue file (JSON, schema below) lists independent simulation jobs,
//! each a name plus a [`RunSpec`] parsed by [`RunSpec::from_json`]. The
//! engine fans them across OS worker threads
//! ([`disco_pareto::exec::fan_out`]), streams a heartbeat
//! JSONL line per job chunk, auto-checkpoints every
//! `checkpoint_every` cycles via [`System::snapshot`], and resumes any
//! job whose checkpoint it finds in the output directory — so a killed
//! process restarts and finishes its queue with final stats
//! byte-identical to an uninterrupted run (the snapshot determinism
//! contract, pinned by `tests/determinism.rs`).
//!
//! Queue schema:
//!
//! ```json
//! {
//!   "checkpoint_every": 2000,
//!   "jobs": [
//!     {
//!       "name": "bs-disco",
//!       "mesh": 4,                  // or "cols"/"rows"
//!       "topology": "mesh",         // mesh|ring|hring|torus|cmesh
//!       "placement": "disco",       // baseline|ideal|cc|cnc|disco
//!       "scheme": "delta",          // a compress::SchemeKind name
//!       "benchmark": "blackscholes",
//!       "trace_len": 10000,
//!       "seed": 1,
//!       "max_cycles": 0,            // 0 = auto budget
//!       "fault_rate": 0.0           // uniform fault plan when > 0
//!     }
//!   ]
//! }
//! ```
//!
//! Per-job files in the output directory: `<name>.stats` (final stats,
//! written atomically — its existence marks completion), `<name>.jsonl`
//! (heartbeat stream), `<name>.ckpt` (latest checkpoint, atomic
//! tmp+rename). Dropping a `<name>.cancel` marker file stops the job at
//! its next chunk boundary, checkpoint intact.

use disco_core::{SimError, System};
use disco_pareto::exec::injection_warning;
use disco_pareto::journal::write_atomic;
use disco_pareto::json::{self, Json};
use disco_pareto::RunSpec;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};

/// One queued simulation job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Unique, file-safe job name (output files derive from it).
    pub name: String,
    /// The run it simulates.
    pub spec: RunSpec,
}

/// A parsed queue file.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Jobs, in submission order.
    pub jobs: Vec<Job>,
    /// Cycles between auto-checkpoints (and heartbeat lines).
    pub checkpoint_every: u64,
}

/// Approximate per-cycle fault injection sites of a `cols`×`rows`
/// system: every router port (≈ 5 per tile on a mesh) is a potential
/// link/stall/flip site each cycle.
pub fn injection_sites(tiles: usize) -> u64 {
    5 * tiles as u64
}

fn job_name_ok(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

fn parse_job(obj: &Json, index: usize) -> Result<Job, String> {
    let path = format!("jobs[{index}]");
    let name = obj
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{path}.name missing"))?
        .to_string();
    if !job_name_ok(&name) {
        return Err(format!(
            "{path}.name: {name:?} is not file-safe (ascii alphanumerics, '-', '_', '.')"
        ));
    }
    Ok(Job {
        name,
        spec: RunSpec::from_json(obj, &path)?,
    })
}

/// Parses and validates a queue file. Emits the expected-injection
/// warning (to `warnings`) for every faulty job whose rate rounds to ~0
/// injections over its estimated length.
pub fn parse_queue(text: &str) -> Result<(ServeConfig, Vec<String>), String> {
    let root = json::parse(text)?;
    let checkpoint_every = root
        .get("checkpoint_every")
        .and_then(Json::as_u64)
        .unwrap_or(2_000)
        .max(1);
    let jobs_json = root
        .get("jobs")
        .and_then(Json::as_arr)
        .ok_or("queue file needs a \"jobs\" array")?;
    if jobs_json.is_empty() {
        return Err("queue file lists no jobs".into());
    }
    let mut jobs = Vec::with_capacity(jobs_json.len());
    let mut warnings = Vec::new();
    for (i, j) in jobs_json.iter().enumerate() {
        let job = parse_job(j, i)?;
        if jobs.iter().any(|existing: &Job| existing.name == job.name) {
            return Err(format!("duplicate job name {:?}", job.name));
        }
        if let Some(w) = injection_warning(
            &job.name,
            job.spec.fault_rate,
            job.spec.estimated_cycles(),
            injection_sites(job.spec.cols * job.spec.rows),
        ) {
            warnings.push(w);
        }
        jobs.push(job);
    }
    Ok((
        ServeConfig {
            jobs,
            checkpoint_every,
        },
        warnings,
    ))
}

/// Engine options (the binary's CLI maps 1:1 onto this).
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Per-job output directory (created if missing).
    pub out_dir: PathBuf,
    /// Worker threads (jobs fan round-robin; 1 = serial).
    pub threads: usize,
    /// Stop the whole server after this many job chunks — a
    /// deterministic stand-in for a process kill, used by the
    /// kill-and-resume tests. `None` = run to queue completion.
    pub max_chunks: Option<u64>,
}

/// What happened to one job this server run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Final stats written (this run, possibly after a resume).
    Completed,
    /// `<name>.stats` already existed; nothing to do.
    AlreadyDone,
    /// Stopped by the chunk budget; checkpoint on disk.
    Interrupted,
    /// Stopped by a `<name>.cancel` marker; checkpoint on disk.
    Cancelled,
    /// The simulation or an output file failed (details on the
    /// heartbeat stream and stderr).
    Failed,
}

/// Outcome tallies for a whole server run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Jobs whose final stats this run wrote.
    pub completed: usize,
    /// Jobs already complete when the run started.
    pub already_done: usize,
    /// Jobs that resumed from a checkpoint this run.
    pub resumed: usize,
    /// Jobs stopped by the chunk budget.
    pub interrupted: usize,
    /// Jobs stopped by a cancel marker.
    pub cancelled: usize,
    /// Jobs that failed.
    pub failed: usize,
}

struct JobFiles {
    stats: PathBuf,
    heartbeat: PathBuf,
    checkpoint: PathBuf,
    cancel: PathBuf,
}

impl JobFiles {
    fn new(out_dir: &Path, name: &str) -> Self {
        let p = |ext: &str| out_dir.join(format!("{name}.{ext}"));
        JobFiles {
            stats: p("stats"),
            heartbeat: p("jsonl"),
            checkpoint: p("ckpt"),
            cancel: p("cancel"),
        }
    }

    fn heartbeat(&self, name: &str, event: &str, sys: Option<&System>) {
        let mut fields = vec![("job", Json::str(name)), ("event", Json::str(event))];
        if let Some(sys) = sys {
            fields.push(("cycle", Json::num(sys.now())));
            fields.push(("outstanding", Json::num(sys.outstanding())));
        }
        let line = format!("{}\n", Json::obj(fields));
        if let Ok(mut f) = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.heartbeat)
        {
            let _ = f.write_all(line.as_bytes());
        }
    }
}

/// Runs one job: resume from its checkpoint if one exists, step in
/// `checkpoint_every`-cycle chunks, checkpoint after each, finish with
/// an atomically-written stats file. `resumed` is set when the job
/// continued from a checkpoint. A checkpoint of a different run (the
/// queue entry was edited after the kill) fails the job.
fn run_job(
    job: &Job,
    files: &JobFiles,
    checkpoint_every: u64,
    budget: &AtomicI64,
    resumed: &mut bool,
) -> JobOutcome {
    if files.stats.exists() {
        return JobOutcome::AlreadyDone;
    }
    let builder = job.spec.builder();
    let mut sys = match fs::read(&files.checkpoint) {
        Ok(bytes) => match System::restore_with(&bytes, &builder) {
            Ok(sys) => {
                *resumed = true;
                files.heartbeat(&job.name, "resumed", Some(&sys));
                sys
            }
            Err(e) => {
                eprintln!("disco-serve: {}: checkpoint unusable: {e}", job.name);
                files.heartbeat(&job.name, "failed", None);
                return JobOutcome::Failed;
            }
        },
        Err(_) => {
            let sys = builder.build();
            files.heartbeat(&job.name, "started", Some(&sys));
            sys
        }
    };
    loop {
        if files.cancel.exists() {
            let _ = write_atomic(&files.checkpoint, &sys.snapshot());
            files.heartbeat(&job.name, "cancelled", Some(&sys));
            return JobOutcome::Cancelled;
        }
        if budget.fetch_sub(1, Ordering::SeqCst) <= 0 {
            let _ = write_atomic(&files.checkpoint, &sys.snapshot());
            files.heartbeat(&job.name, "interrupted", Some(&sys));
            return JobOutcome::Interrupted;
        }
        let target = sys.now() + checkpoint_every;
        match sys.step_until(target) {
            Ok(false) => {
                if write_atomic(&files.checkpoint, &sys.snapshot()).is_err() {
                    eprintln!("disco-serve: {}: cannot write checkpoint", job.name);
                    files.heartbeat(&job.name, "failed", Some(&sys));
                    return JobOutcome::Failed;
                }
                files.heartbeat(&job.name, "checkpoint", Some(&sys));
            }
            Ok(true) => {
                files.heartbeat(&job.name, "draining", Some(&sys));
                return match sys.run_to_completion() {
                    Ok(report) => {
                        let mut buf = Vec::new();
                        if report.write_stats(&mut buf).is_err()
                            || write_atomic(&files.stats, &buf).is_err()
                        {
                            eprintln!("disco-serve: {}: cannot write stats", job.name);
                            files.heartbeat(&job.name, "failed", None);
                            return JobOutcome::Failed;
                        }
                        let _ = fs::remove_file(&files.checkpoint);
                        files.heartbeat(&job.name, "completed", None);
                        JobOutcome::Completed
                    }
                    Err(e) => {
                        eprintln!("disco-serve: {}: {e}", job.name);
                        files.heartbeat(&job.name, "failed", None);
                        JobOutcome::Failed
                    }
                };
            }
            Err(e @ SimError::DeadlineExceeded { .. }) => {
                eprintln!("disco-serve: {}: {e}", job.name);
                files.heartbeat(&job.name, "failed", Some(&sys));
                return JobOutcome::Failed;
            }
            Err(e) => {
                eprintln!("disco-serve: {}: {e}", job.name);
                files.heartbeat(&job.name, "failed", None);
                return JobOutcome::Failed;
            }
        }
    }
}

/// Runs the queue. Jobs fan round-robin across `threads` workers; each
/// worker processes its jobs in submission order. Returns the outcome
/// tally (the binary turns `failed > 0` into a failing exit code).
pub fn serve(cfg: &ServeConfig, opts: &ServeOpts) -> Result<ServeSummary, String> {
    fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.out_dir.display()))?;
    // i64 so concurrent fetch_subs past zero saturate harmlessly.
    let budget = AtomicI64::new(match opts.max_chunks {
        Some(n) => i64::try_from(n).unwrap_or(i64::MAX),
        None => i64::MAX,
    });
    let outcomes = disco_pareto::exec::fan_out(&cfg.jobs, opts.threads, |job| {
        let files = JobFiles::new(&opts.out_dir, &job.name);
        let mut resumed = false;
        let o = run_job(job, &files, cfg.checkpoint_every, &budget, &mut resumed);
        (o, resumed)
    });
    let mut summary = ServeSummary::default();
    for (outcome, resumed) in outcomes {
        if resumed {
            summary.resumed += 1;
        }
        match outcome {
            JobOutcome::Completed => summary.completed += 1,
            JobOutcome::AlreadyDone => summary.already_done += 1,
            JobOutcome::Interrupted => summary.interrupted += 1,
            JobOutcome::Cancelled => summary.cancelled += 1,
            JobOutcome::Failed => summary.failed += 1,
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_core::CompressionPlacement;

    fn queue_text() -> &'static str {
        r#"{
            "checkpoint_every": 500,
            "jobs": [
                {"name": "a", "mesh": 2, "benchmark": "swaptions",
                 "trace_len": 150, "seed": 1},
                {"name": "b", "mesh": 2, "placement": "baseline",
                 "benchmark": "dedup", "trace_len": 150, "seed": 2}
            ]
        }"#
    }

    #[test]
    fn queue_parses_and_validates() {
        let (cfg, warnings) = parse_queue(queue_text()).expect("valid queue");
        assert_eq!(cfg.checkpoint_every, 500);
        assert_eq!(cfg.jobs.len(), 2);
        assert_eq!(cfg.jobs[0].name, "a");
        assert_eq!(cfg.jobs[0].spec.placement, CompressionPlacement::Disco);
        assert_eq!(cfg.jobs[1].spec.placement, CompressionPlacement::Baseline);
        assert!(warnings.is_empty());
    }

    #[test]
    fn bad_queues_are_rejected_with_context() {
        let dup = r#"{"jobs": [
            {"name": "x", "mesh": 2, "trace_len": 10},
            {"name": "x", "mesh": 2, "trace_len": 10}
        ]}"#;
        assert!(parse_queue(dup).unwrap_err().contains("duplicate"));
        let bad_bench = r#"{"jobs": [
            {"name": "x", "mesh": 2, "trace_len": 10, "benchmark": "doom"}
        ]}"#;
        let e = parse_queue(bad_bench).unwrap_err();
        assert!(e.contains("doom") && e.contains("blackscholes"), "{e}");
        let bad_name = r#"{"jobs": [
            {"name": "../x", "mesh": 2, "trace_len": 10}
        ]}"#;
        assert!(parse_queue(bad_name).unwrap_err().contains("file-safe"));
        // Sizes that would abort or exhaust memory at build time are
        // refused up front, naming the limit.
        let huge_grid = r#"{"jobs": [{"name": "x", "mesh": 100000, "trace_len": 10}]}"#;
        let e = parse_queue(huge_grid).unwrap_err();
        assert!(e.contains("MAX_GRID_SIDE = 64"), "{e}");
        let tall_grid = r#"{"jobs": [{"name": "x", "cols": 2, "rows": 65, "trace_len": 10}]}"#;
        let e = parse_queue(tall_grid).unwrap_err();
        assert!(e.contains("MAX_GRID_SIDE"), "{e}");
        let long_trace = r#"{"jobs": [{"name": "x", "mesh": 64, "trace_len": 1025}]}"#;
        let e = parse_queue(long_trace).unwrap_err();
        assert!(e.contains("MAX_TOTAL_ACCESSES = 4194304"), "{e}");
        let overflow = r#"{"jobs": [{"name": "x", "mesh": 64, "trace_len": 1e19}]}"#;
        let e = parse_queue(overflow).unwrap_err();
        assert!(e.contains("MAX_TOTAL_ACCESSES"), "{e}");
        let inf_rate =
            r#"{"jobs": [{"name": "x", "mesh": 2, "trace_len": 10, "fault_rate": 1e400}]}"#;
        let e = parse_queue(inf_rate).unwrap_err();
        assert!(e.contains("fault_rate must be finite"), "{e}");
        let at_limit = r#"{"jobs": [{"name": "x", "mesh": 64, "trace_len": 1024}]}"#;
        assert!(parse_queue(at_limit).is_ok(), "the limits are inclusive");
        assert!(parse_queue("{}").is_err());
        assert!(parse_queue("not json").is_err());
    }

    #[test]
    fn near_zero_expected_injections_warn() {
        let w = injection_warning("j", 1e-9, 10_000, 80);
        let w = w.expect("1e-9 over 10k cycles rounds to ~0");
        assert!(w.contains("expected_injections_rounds_to_zero"));
        assert!(w.contains("resume"));
        assert!(injection_warning("j", 0.0, 10_000, 80).is_none());
        assert!(injection_warning("j", 1e-3, 10_000, 80).is_none());
    }

    #[test]
    fn serve_completes_a_queue_and_is_idempotent() {
        let (cfg, _) = parse_queue(queue_text()).expect("valid queue");
        let dir = std::env::temp_dir().join(format!("disco-serve-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let opts = ServeOpts {
            out_dir: dir.clone(),
            threads: 2,
            max_chunks: None,
        };
        let summary = serve(&cfg, &opts).expect("serves");
        assert_eq!(summary.completed, 2);
        assert_eq!(summary.failed, 0);
        for job in &cfg.jobs {
            let files = JobFiles::new(&dir, &job.name);
            assert!(files.stats.exists(), "{} missing stats", job.name);
            assert!(!files.checkpoint.exists(), "{} checkpoint left", job.name);
            assert!(files.heartbeat.exists(), "{} missing heartbeat", job.name);
        }
        let again = serve(&cfg, &opts).expect("re-serves");
        assert_eq!(again.already_done, 2);
        assert_eq!(again.completed, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
