//! One benchmark run: repeated trials of one workload for a time
//! budget, their samples, and the correctness verdict.

use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use crate::host::peak_rss_mib;
use crate::metrics::unit_of;
use crate::spans::{self_time_by_name, Recorder, Span, TRIAL};
use crate::stats::median;
use crate::workloads::{codec_inputs, run_trial, time_codecs, Sizes, Trial, Workload};

/// Expected result fingerprints at the default sizes, per workload and
/// seed. `serve-8x8`'s are those of the uninterrupted job, so a trial
/// that was killed and resumed must reproduce it exactly.
const EXPECTED: &[(Workload, u64, u64)] = &[
    (Workload::Paper4x4, 2016, 0xb44d_8fd7_1536_526e),
    (Workload::Paper4x4, 2018, 0xaeda_ab5e_7f2f_0f9b),
    (Workload::Serve8x8, 2016, 0x7a4e_65b0_bb09_f3ed),
    (Workload::Serve8x8, 2018, 0xd94d_7a32_7276_d45f),
    (Workload::Noc16x16, 2016, 0xc2bc_8da5_f9cb_e77b),
    (Workload::Noc16x16, 2018, 0x44a5_c1de_d85f_abc1),
    (Workload::Dse4x4, 2016, 0x5da2_06c2_fc88_2cbc),
    (Workload::Dse4x4, 2018, 0xc062_7e6b_776b_1323),
];

/// The pinned fingerprint of `workload` at `seed`, if any.
pub fn expected_fingerprint(workload: Workload, seed: u64, sizes: &Sizes) -> Option<u64> {
    if *sizes != Sizes::default() {
        return None;
    }
    EXPECTED
        .iter()
        .find(|&&(w, s, _)| w == workload && s == seed)
        .map(|&(_, _, fp)| fp)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed every input derives from.
    pub seed: u64,
    /// Measuring budget. Above zero, trial 0 is a discarded warm-up and
    /// trials repeat until the next would overrun the budget; zero runs
    /// exactly one measured trial.
    pub seconds: f64,
    /// Record spans: the first measured trial and every other one after
    /// it are traced, the rest give the untraced timings.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Directory for checkpoint and journal files.
    pub scratch: PathBuf,
}

/// Samples of one metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Samples {
    /// Unit.
    pub unit: String,
    /// Values, in the order measured.
    pub values: Vec<f64>,
}

/// Samples by metric name.
pub type SampleMap = BTreeMap<String, Samples>;

/// Appends one sample of `name`.
pub fn push(map: &mut SampleMap, name: &str, value: f64) {
    let entry = map.entry(name.to_string()).or_insert_with(|| Samples {
        unit: unit_of(name).to_string(),
        values: Vec::new(),
    });
    entry.values.push(value);
}

/// Metrics computed from other samples once all are in: the tracing
/// overhead (traced trial time over the untraced median).
pub fn derive(map: &mut SampleMap) {
    let wall = |name: &str| map.get(name).and_then(|s| median(&s.values));
    if let (Some(traced), Some(plain)) = (wall("trial_s.traced"), wall("trial_s")) {
        map.remove("trace.overhead");
        push(map, "trace.overhead", traced / plain - 1.0);
    }
}

/// The outcome of a run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every sample, warm-up excluded.
    pub samples: SampleMap,
    /// Runs attempted (per-trial attempts summed).
    pub attempted: u64,
    /// Runs that failed: panicked, returned an error, or produced a
    /// result whose fingerprint differs from the reference.
    pub failed: u64,
    /// Fingerprint every successful trial must reproduce: the pinned one,
    /// else the first trial's.
    pub reference: Option<u64>,
    /// Whether `reference` is pinned for this seed.
    pub pinned: bool,
    /// What went wrong, one line each.
    pub errors: Vec<String>,
    /// Trial kinds in execution order.
    pub order: Vec<&'static str>,
    /// Spans of the traced trials, parents indexing this list.
    pub spans: Vec<Span>,
}

impl RunResult {
    /// No run failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    fn absorb(
        &mut self,
        cfg: &RunConfig,
        index: u32,
        trial: Trial,
        wall_s: f64,
        measured: bool,
        spans: &[Span],
    ) {
        self.attempted += trial.attempted;
        let mut failed = trial.failed;
        self.errors
            .extend(trial.errors.iter().map(|e| format!("trial {index}: {e}")));
        if trial.failed == 0 {
            match self.reference {
                None => self.reference = Some(trial.fingerprint),
                Some(r) if r != trial.fingerprint => {
                    failed = trial.attempted;
                    self.errors.push(format!(
                        "trial {index}: fingerprint {:#018x} differs from {} {r:#018x}",
                        trial.fingerprint,
                        if self.pinned {
                            "the pinned"
                        } else {
                            "the first trial's"
                        },
                    ));
                }
                Some(_) => {}
            }
        }
        self.failed += failed;
        if !measured {
            return;
        }
        let s = &mut self.samples;
        for (&name, &v) in &trial.counters {
            push(s, name, v);
        }
        if let Some(u) = trial.cpu_utilization {
            push(s, "pareto.cpu_utilization", u);
        }
        if spans.is_empty() {
            push(s, "trial_s", wall_s);
            push(s, "setup_s", trial.setup_s);
            push(s, "workloads.generate_s", trial.generate_s);
            if trial.jobs > 0 && trial.loop_s > 0.0 {
                push(
                    s,
                    "jobs_per_hour",
                    trial.jobs as f64 * 3600.0 / trial.loop_s,
                );
            }
            for &r in &trial.cycle_rates {
                push(s, "sim_cycles_per_s", r);
            }
            for &c in &trial.chunk_ms {
                push(s, "chunk_ms", c);
            }
            if let Some(r) = trial.resume_s {
                push(s, "resume_s", r);
            }
            return;
        }

        push(s, "trial_s.traced", wall_s);
        let own = self_time_by_name(spans);
        let root_s = spans
            .iter()
            .find(|sp| sp.name == TRIAL)
            .map_or(wall_s, |sp| sp.dur_ns() as f64 * 1e-9);
        for (&name, &self_s) in &own {
            if name == TRIAL {
                push(s, "trace.coverage", 1.0 - self_s / root_s);
            } else {
                push(s, &format!("{name}.share"), self_s / root_s);
                push(s, &format!("{name}.self_s"), self_s);
            }
        }
        let counter = |name: &str| trial.counters.get(name).copied().unwrap_or(0.0);
        let per = |layer: &str, work: f64| {
            own.get(layer)
                .filter(|_| work > 0.0)
                .map(|t| t * 1e9 / work)
        };
        if let Some(v) = per("core.system.step", counter("core.system.cycles")) {
            push(s, "core.system.step_ns_per_cycle", v);
        }
        if let Some(v) = per("core.system.step", counter("core.system.accesses")) {
            push(s, "core.system.step_ns_per_access", v);
        }
        if let Some(v) = per("noc.tick", counter("noc.flit_hops")) {
            push(s, "noc.ns_per_flit_hop", v);
        }

        // Codec speed, timed after the trial so it inflates neither the
        // trial's wall time nor the tracing overhead.
        let codec = time_codecs(&codec_inputs(cfg.workload, cfg.seed, &cfg.sizes));
        if codec.mismatches > 0 {
            self.failed += 1;
            self.errors.push(format!(
                "trial {index}: {} lines failed the codec round trip",
                codec.mismatches
            ));
        }
        push(s, "compress.ns_per_compress", codec.ns_per_compress);
        push(s, "compress.ns_per_decompress", codec.ns_per_decompress);
        push(s, "compress.mean_ratio", codec.mean_ratio);
        if trial.loop_s > 0.0 {
            let codec_ns = counter("compress.compressions") * codec.ns_per_compress
                + counter("compress.decompressions") * codec.ns_per_decompress;
            push(s, "compress.est_share", codec_ns * 1e-9 / trial.loop_s);
        }
    }
}

fn label(warm_up: bool, traced: bool) -> &'static str {
    match (warm_up, traced) {
        (true, _) => "warm-up",
        (false, true) => "traced",
        (false, false) => "untraced",
    }
}

/// Runs trials of `cfg.workload` within `cfg.seconds`.
pub fn run(cfg: &RunConfig) -> RunResult {
    let expected = expected_fingerprint(cfg.workload, cfg.seed, &cfg.sizes);
    let mut res = RunResult {
        samples: SampleMap::new(),
        attempted: 0,
        failed: 0,
        reference: expected,
        pinned: expected.is_some(),
        errors: Vec::new(),
        order: Vec::new(),
        spans: Vec::new(),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.scratch) {
        res.errors
            .push(format!("cannot create {}: {e}", cfg.scratch.display()));
        return res;
    }
    let budgeted = cfg.seconds > 0.0;
    let need = if cfg.trace && budgeted { 2 } else { 1 };
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut measured = 0;
    let mut index: u32 = if budgeted { 0 } else { 1 };
    // The allocator keeps freed memory across trials, so the process
    // peak grows with the trial count; the peak after the first
    // (untraced) trial is what one job needs.
    let mut first_peak = None;
    loop {
        let warm_up = index == 0;
        let traced = cfg.trace && !warm_up && measured % 2 == 0;
        let mut rec = Recorder::new(traced);
        rec.begin_trial(index);
        let start = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            run_trial(
                cfg.workload,
                cfg.seed,
                &cfg.sizes,
                index,
                &cfg.scratch,
                &mut rec,
            )
        }));
        let wall = start.elapsed().as_secs_f64();
        rec.end_trial();
        res.order.push(label(warm_up, traced));
        match outcome {
            Ok(trial) => res.absorb(cfg, index, trial, wall, !warm_up, rec.spans()),
            Err(_) => {
                let n = cfg.workload.attempts_per_trial();
                res.attempted += n;
                res.failed += n;
                res.errors.push(format!("trial {index} panicked"));
            }
        }
        let offset = res.spans.len();
        res.spans.extend(rec.spans().iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s.clone()
        }));
        if walls.is_empty() && !traced {
            first_peak = peak_rss_mib();
        }
        walls.push(wall);
        if !warm_up {
            measured += 1;
        }
        index += 1;
        if !budgeted {
            break;
        }
        let typical = median(&walls).unwrap_or(wall);
        if measured >= need && started.elapsed().as_secs_f64() + typical > cfg.seconds {
            break;
        }
    }
    derive(&mut res.samples);
    if let Some(mib) = first_peak {
        push(&mut res.samples, "peak_rss_mb", mib);
    }
    res
}
