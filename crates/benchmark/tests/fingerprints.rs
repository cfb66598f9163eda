//! Result fingerprints are a pure function of the workload seed, and a
//! checkpointed job killed and resumed reproduces the uninterrupted one.
//! Workloads are shrunk through `Sizes`.

use std::path::PathBuf;

use disco_benchmark::spans::Recorder;
use disco_benchmark::workloads::{
    codec_inputs, kill_chunk, run_trial, time_codecs, Sizes, Trial, Workload,
};

fn tiny() -> Sizes {
    Sizes {
        paper_trace_len: 60,
        serve_mesh: 4,
        serve_trace_len: 150,
        noc_mesh: 4,
        noc_cycles: 1_500,
        dse_trace_len: 12,
    }
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "disco-benchmark-test-{label}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn trial(workload: Workload, seed: u64, index: u32) -> Trial {
    let dir = scratch(&format!("{}-{seed}-{index}", workload.name()));
    let t = run_trial(
        workload,
        seed,
        &tiny(),
        index,
        &dir,
        &mut Recorder::new(false),
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(t.errors.is_empty(), "{}: {:?}", workload.name(), t.errors);
    assert_eq!(t.failed, 0);
    assert_eq!(t.attempted, workload.attempts_per_trial());
    assert!(t.jobs > 0 && t.loop_s > 0.0 && !t.cycle_rates.is_empty());
    t
}

#[test]
fn same_seed_same_fingerprint_and_seeds_2016_2018_differ() {
    for w in Workload::ALL {
        let a = trial(w, 2016, 1);
        let b = trial(w, 2016, 1);
        let c = trial(w, 2018, 1);
        assert_eq!(a.fingerprint, b.fingerprint, "{} repeats", w.name());
        assert_eq!(a.counters, b.counters, "{} counters repeat", w.name());
        assert_ne!(
            a.fingerprint,
            c.fingerprint,
            "{} depends on the seed",
            w.name()
        );
    }
}

#[test]
fn killed_and_resumed_job_matches_the_uninterrupted_one() {
    let whole = trial(Workload::Serve8x8, 2016, 0);
    assert_eq!(kill_chunk(0), None);
    assert!(whole.resume_s.is_none());
    let kill = kill_chunk(1).expect("trial 1 is killed");
    assert!(
        whole.chunk_ms.len() > kill as usize,
        "the job outlives the kill point"
    );
    let resumed = trial(Workload::Serve8x8, 2016, 1);
    assert!(resumed.resume_s.is_some(), "trial 1 was killed and resumed");
    assert_eq!(whole.fingerprint, resumed.fingerprint);
}

#[test]
fn noc_trial_conserves_packets_and_uses_the_engines() {
    let t = trial(Workload::Noc16x16, 2016, 1);
    let c = |name: &str| t.counters[name];
    assert!(c("noc.packets_delivered") > 0.0);
    assert!(c("core.engine.started") > 0.0, "engines saw candidates");
    assert_eq!(c("core.system.cycles"), tiny().noc_cycles as f64);
}

#[test]
fn dse_cycle_count_is_read_back_from_the_frontier() {
    let t = trial(Workload::Dse4x4, 2016, 1);
    assert_eq!(t.jobs, 100, "the declared space has 100 points");
    assert!(t.counters["core.system.cycles"] > 0.0);
    assert!(t.counters["pareto.frontier_points"] >= 1.0);
}

#[test]
fn codec_inputs_round_trip() {
    for w in Workload::ALL {
        let timing = time_codecs(&codec_inputs(w, 2016, &tiny()));
        assert_eq!(timing.mismatches, 0, "{}", w.name());
        assert!(timing.ns_per_compress > 0.0 && timing.mean_ratio > 0.0);
    }
}
