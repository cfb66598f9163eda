//! End-to-end `disco-serve` contract: kill the server mid-queue and a
//! rerun of the same command line resumes from checkpoints and produces
//! final per-job stats byte-identical to an uninterrupted run — for a
//! fault-injected job, fault ledger included.
//!
//! The "kill" is the `--max-chunks` budget — a deterministic stand-in
//! for SIGKILL that stops workers at a chunk boundary, exactly where a
//! real kill would leave the newest on-disk checkpoint.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_disco-serve");

fn queue_json() -> String {
    // Small grid, but enough cycles that every job spans several
    // checkpoint chunks. The faulty job goes first, so the kill lands
    // mid-run with fault-recovery state in its checkpoint.
    r#"{
        "checkpoint_every": 300,
        "jobs": [
            {"name": "dd-faulty", "mesh": 4, "placement": "disco",
             "benchmark": "dedup", "trace_len": 300, "seed": 14,
             "fault_rate": 1e-4},
            {"name": "bs-disco", "mesh": 2, "placement": "disco",
             "benchmark": "blackscholes", "trace_len": 250, "seed": 11},
            {"name": "sw-base", "mesh": 2, "placement": "baseline",
             "benchmark": "swaptions", "trace_len": 250, "seed": 12},
            {"name": "dd-cc", "mesh": 2, "placement": "cc",
             "benchmark": "dedup", "trace_len": 250, "seed": 13}
        ]
    }"#
    .to_string()
}

struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn new(label: &str) -> Self {
        let root =
            std::env::temp_dir().join(format!("disco-serve-it-{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("temp dir");
        Dirs { root }
    }

    fn queue(&self) -> PathBuf {
        let path = self.root.join("jobs.json");
        fs::write(&path, queue_json()).expect("queue file");
        path
    }

    fn out(&self, which: &str) -> PathBuf {
        self.root.join(which)
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn run_serve(queue: &Path, out: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(BIN)
        .arg("--queue")
        .arg(queue)
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("disco-serve runs")
}

fn stats_of(dir: &Path, name: &str) -> Vec<u8> {
    fs::read(dir.join(format!("{name}.stats")))
        .unwrap_or_else(|e| panic!("{name}.stats in {}: {e}", dir.display()))
}

const JOBS: [&str; 4] = ["dd-faulty", "bs-disco", "sw-base", "dd-cc"];

#[test]
fn killed_and_resumed_queue_matches_uninterrupted_run() {
    let dirs = Dirs::new("resume");
    let queue = dirs.queue();

    // Uninterrupted baseline, serial.
    let baseline_dir = dirs.out("baseline");
    let out = run_serve(&queue, &baseline_dir, &[]);
    assert!(out.status.success(), "baseline: {out:?}");
    let baseline: Vec<Vec<u8>> = JOBS.iter().map(|j| stats_of(&baseline_dir, j)).collect();
    let faulty = String::from_utf8_lossy(&baseline[0]);
    let injected = faulty
        .lines()
        .find_map(|l| l.strip_prefix("faults.injected = "))
        .expect("the faulty job reports its fault ledger");
    assert_ne!(injected, "0", "the faulty job must see faults:\n{faulty}");

    // "Killed" run: a two-chunk budget stops the server long before the
    // queue drains, leaving checkpoints behind.
    let resumed_dir = dirs.out("resumed");
    let killed = run_serve(&queue, &resumed_dir, &["--max-chunks", "2"]);
    assert_eq!(
        killed.status.code(),
        Some(3),
        "chunk-budget stop exits 3: {killed:?}"
    );
    let unfinished = JOBS
        .iter()
        .filter(|j| !resumed_dir.join(format!("{j}.stats")).exists())
        .count();
    assert!(
        unfinished > 0,
        "budget of 2 chunks must interrupt the queue"
    );
    let checkpoints = JOBS
        .iter()
        .filter(|j| resumed_dir.join(format!("{j}.ckpt")).exists())
        .count();
    assert_eq!(
        checkpoints, unfinished,
        "every interrupted job leaves a checkpoint"
    );

    // Same command line again, no budget: resumes and finishes.
    let resumed = run_serve(&queue, &resumed_dir, &[]);
    assert!(resumed.status.success(), "resume: {resumed:?}");
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("resumed"),
        "summary mentions resumes: {stdout}"
    );

    for (job, expected) in JOBS.iter().zip(&baseline) {
        let got = stats_of(&resumed_dir, job);
        assert_eq!(
            &got, expected,
            "{job}: resumed stats differ from uninterrupted run"
        );
        assert!(
            !resumed_dir.join(format!("{job}.ckpt")).exists(),
            "{job}: checkpoint lingers after completion"
        );
        let beats =
            fs::read_to_string(resumed_dir.join(format!("{job}.jsonl"))).expect("heartbeat stream");
        assert!(beats
            .lines()
            .all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(beats.contains("\"event\":\"completed\""));
    }

    // A third run is a no-op: everything already done.
    let idem = run_serve(&queue, &resumed_dir, &[]);
    assert!(idem.status.success());
    assert!(String::from_utf8_lossy(&idem.stdout).contains("4 already done"));
}

/// A queue edited between the kill and the rerun describes another
/// simulation. The checkpoint must be refused, not resumed as the new
/// job: the job fails and no stats file appears.
#[test]
fn edited_job_does_not_resume_the_old_checkpoint() {
    let dirs = Dirs::new("edited");
    let queue = dirs.root.join("jobs.json");
    let job = |extra: &str| {
        format!(
            r#"{{"checkpoint_every": 300, "jobs": [{{"name": "j", "mesh": 4,
                "placement": "disco", "benchmark": {extra},
                "trace_len": 800, "seed": 2016}}]}}"#
        )
    };
    let out_dir = dirs.out("out");
    fs::write(&queue, job(r#""dedup""#)).expect("queue file");
    let killed = run_serve(&queue, &out_dir, &["--max-chunks", "2"]);
    assert_eq!(killed.status.code(), Some(3), "{killed:?}");
    assert!(out_dir.join("j.ckpt").exists());

    fs::write(&queue, job(r#""canneal", "fault_rate": 0.001"#)).expect("edited queue");
    let rerun = run_serve(&queue, &out_dir, &[]);
    assert_eq!(rerun.status.code(), Some(1), "{rerun:?}");
    assert!(String::from_utf8_lossy(&rerun.stdout).contains("1 failed"));
    assert!(
        !out_dir.join("j.stats").exists(),
        "the edited job resumed the old checkpoint"
    );
}

#[test]
fn parallel_workers_match_serial_stats() {
    let dirs = Dirs::new("threads");
    let queue = dirs.queue();
    let serial_dir = dirs.out("serial");
    let parallel_dir = dirs.out("parallel");
    assert!(run_serve(&queue, &serial_dir, &[]).status.success());
    assert!(run_serve(&queue, &parallel_dir, &["--threads", "3"])
        .status
        .success());
    for job in JOBS {
        assert_eq!(
            stats_of(&serial_dir, job),
            stats_of(&parallel_dir, job),
            "{job}: thread fan-out changed the stats"
        );
    }
}

#[test]
fn cancel_marker_stops_a_job_with_its_checkpoint_intact() {
    let dirs = Dirs::new("cancel");
    let queue = dirs.queue();
    let out_dir = dirs.out("out");
    fs::create_dir_all(&out_dir).expect("out dir");
    fs::write(out_dir.join("sw-base.cancel"), b"").expect("cancel marker");

    let first = run_serve(&queue, &out_dir, &[]);
    // Cancelled is not a failure and not an interruption.
    assert!(first.status.success(), "{first:?}");
    assert!(
        !out_dir.join("sw-base.stats").exists(),
        "cancelled job finished"
    );
    assert!(
        out_dir.join("sw-base.ckpt").exists(),
        "cancel must keep the checkpoint"
    );
    assert!(
        out_dir.join("bs-disco.stats").exists(),
        "other jobs unaffected"
    );

    // Lift the cancel; the job resumes from its checkpoint and finishes.
    fs::remove_file(out_dir.join("sw-base.cancel")).expect("lift cancel");
    let second = run_serve(&queue, &out_dir, &[]);
    assert!(second.status.success(), "{second:?}");
    assert!(out_dir.join("sw-base.stats").exists());
}

#[test]
fn validate_only_checks_the_queue_without_simulating() {
    let dirs = Dirs::new("validate");
    let queue = dirs.queue();
    let out_dir = dirs.out("out");
    let out = run_serve(&queue, &out_dir, &["--validate-only"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("queue ok: 4 jobs"));
    // Nothing simulated, nothing written.
    assert!(!out_dir.join("bs-disco.stats").exists());

    let bad = dirs.root.join("bad.json");
    fs::write(&bad, r#"{"jobs": [{"name": "x"}]}"#).expect("bad queue");
    let out = run_serve(&bad, &out_dir, &["--validate-only"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cols"));
}
