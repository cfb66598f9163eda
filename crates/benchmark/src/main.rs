//! `disco-benchmark` command line.
//!
//! One workload for a time budget (the form `BENCHMARK.json` names);
//! the last line of standard output is the JSON verdict:
//!
//! ```text
//! disco-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <file.jsonl>]
//! ```
//!
//! Every workload in interleaved rounds, each trial a fresh child
//! process; round 0 is a discarded warm-up followed by five measured
//! rounds, and `--trace-dir` adds one traced round whose spans land in
//! `<dir>/<workload>.jsonl`:
//!
//! ```text
//! disco-benchmark [--seed 2016] [--out <file.jsonl>] [--trace-dir <dir>]
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use disco_benchmark::host::Host;
use disco_benchmark::report::{
    hex, host_record, metric_records, provenance, run_record, span_records, summary_lines,
    verdict_json, Verdict,
};
use disco_benchmark::run::{derive, expected_fingerprint, SampleMap, Samples};
use disco_benchmark::{run, RunConfig, Sizes, Workload};
use disco_pareto::json::parse_flat_object;

/// Default seed; seeds step by 2 because the generators use `seed | 1`.
const DEFAULT_SEED: u64 = 2016;

/// Measured rounds of the suite, after its warm-up round.
const MEASURED_ROUNDS: usize = 5;

/// Where runs keep scratch files and default outputs, under the
/// working directory.
const WORK_DIR: &str = "target/disco-benchmark";

enum Mode {
    One {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
        out: Option<PathBuf>,
    },
    Suite {
        seed: u64,
        out: PathBuf,
        trace_dir: Option<PathBuf>,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let bad = |flag: &str, v: &str| format!("invalid {flag}: {v}");
    let seed = match flags.remove("--seed") {
        Some(v) => v.parse().map_err(|_| bad("--seed", v))?,
        None => DEFAULT_SEED,
    };
    let out = flags.remove("--out").map(PathBuf::from);
    let mode = if let Some(name) = flags.remove("--workload") {
        let workload = Workload::parse(name).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name} (one of {})", names.join(", "))
        })?;
        let seconds: f64 = match flags.remove("--seconds") {
            Some(v) => v.parse().map_err(|_| bad("--seconds", v))?,
            None => 0.0,
        };
        if !(0.0..=3600.0).contains(&seconds) {
            return Err(bad("--seconds", &seconds.to_string()));
        }
        let trace = match flags.remove("--trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            v => return Err(bad("--trace", v)),
        };
        Mode::One {
            workload,
            seed,
            seconds,
            trace,
            out,
        }
    } else {
        Mode::Suite {
            seed,
            out: out.unwrap_or_else(|| Path::new(WORK_DIR).join("suite.jsonl")),
            trace_dir: flags.remove("--trace-dir").map(PathBuf::from),
        }
    };
    match flags.keys().next() {
        Some(flag) => Err(format!("unknown flag {flag}")),
        None => Ok(mode),
    }
}

fn write_lines(path: &Path, lines: &[String]) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut text = lines.join("\n");
    text.push('\n');
    fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run_one(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<&Path>,
) -> ExitCode {
    let host = Host::detect();
    let sizes = Sizes::default();
    println!(
        "disco-benchmark: {} seed {seed}, {seconds} s, {}",
        workload.name(),
        if trace { "traced" } else { "untraced" }
    );
    println!("{}", provenance(&host));
    println!(
        "simulated caches start empty in every trial; trial 0 of a timed run is a \
         discarded warm-up"
    );
    let scratch = Path::new(WORK_DIR).join(format!("{}-{}", workload.name(), std::process::id()));
    let res = run(&RunConfig {
        workload,
        seed,
        seconds,
        trace,
        sizes,
        scratch: scratch.clone(),
    });
    let _ = fs::remove_dir_all(&scratch);
    let order = res.order.join(" ");
    println!("trial order: {order}");
    println!(
        "fingerprint {} ({})",
        hex(res.reference),
        if res.pinned {
            "checked against the pinned value"
        } else {
            "unchecked: no pinned value for this seed; trials checked against each other"
        }
    );
    for e in &res.errors {
        println!("ERROR: {e}");
        eprintln!("disco-benchmark: {e}");
    }
    for line in summary_lines(&res.samples) {
        println!("{line}");
    }
    let correct = res.correct();
    if let Some(path) = out {
        let mut lines = vec![
            host_record(&host),
            run_record(&Verdict {
                workload: workload.name(),
                seed,
                correct,
                attempted: res.attempted,
                failed: res.failed,
                fingerprint: res.reference,
                pinned: res.pinned,
                order,
            }),
        ];
        lines.extend(metric_records(workload.name(), &res.samples));
        lines.extend(span_records(workload.name(), &res.spans));
        if let Err(e) = write_lines(path, &lines) {
            eprintln!("disco-benchmark: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{}",
        verdict_json(correct, res.attempted, res.failed, &res.samples, trace)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// What the suite collects per workload across rounds.
#[derive(Default)]
struct Tally {
    samples: SampleMap,
    attempted: u64,
    failed: u64,
    fingerprints: Vec<u64>,
    errors: Vec<String>,
}

impl Tally {
    /// Folds in one child's JSONL records.
    fn absorb(&mut self, text: &str, measured: bool) {
        for record in text.lines().filter_map(parse_flat_object) {
            match record.get("type").map(String::as_str) {
                Some("run") => {
                    self.attempted += record
                        .get("attempted")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    self.failed += record
                        .get("failed")
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(0);
                    let fp = record
                        .get("fingerprint")
                        .and_then(|f| u64::from_str_radix(f.trim_start_matches("0x"), 16).ok());
                    self.fingerprints.extend(fp);
                }
                Some("metric") if measured => {
                    let (Some(name), Some(unit), Some(values)) = (
                        record.get("name"),
                        record.get("unit"),
                        record.get("samples"),
                    ) else {
                        continue;
                    };
                    let entry = self.samples.entry(name.clone()).or_insert_with(|| Samples {
                        unit: unit.clone(),
                        values: Vec::new(),
                    });
                    entry.values.extend(
                        values
                            .split_whitespace()
                            .filter_map(|v| v.parse::<f64>().ok()),
                    );
                }
                _ => {}
            }
        }
    }
}

fn run_suite(seed: u64, out: &Path, trace_dir: Option<&Path>) -> ExitCode {
    let host = Host::detect();
    let sizes = Sizes::default();
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("disco-benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let work = Path::new(WORK_DIR).join(format!("suite-{}", std::process::id()));
    for dir in std::iter::once(work.as_path()).chain(trace_dir) {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("disco-benchmark: cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!(
        "disco-benchmark suite: seed {seed}, 1 warm-up + {MEASURED_ROUNDS} measured rounds{}",
        if trace_dir.is_some() {
            " + 1 traced"
        } else {
            ""
        }
    );
    println!("{}", provenance(&host));
    println!("simulated caches start empty in every trial; each trial is a fresh process");

    let mut tallies: BTreeMap<Workload, Tally> = BTreeMap::new();
    let mut order = Vec::new();
    let traced_round = trace_dir.map(|_| MEASURED_ROUNDS + 1);
    for round in 0..=traced_round.unwrap_or(MEASURED_ROUNDS) {
        let traced = traced_round == Some(round);
        for w in Workload::ALL {
            let file = match trace_dir.filter(|_| traced) {
                Some(dir) => dir.join(format!("{}.jsonl", w.name())),
                None => work.join(format!("r{round}-{}.jsonl", w.name())),
            };
            let status = Command::new(&exe)
                .args(["--workload", w.name(), "--seed", &seed.to_string()])
                .args(["--seconds", "0", "--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&file)
                .stdout(Stdio::null())
                .status();
            order.push(format!("{}{}", w.name(), if traced { "*" } else { "" }));
            let tally = tallies.entry(w).or_default();
            match status {
                Ok(s) if s.success() => {}
                other => tally
                    .errors
                    .push(format!("round {round}: child exited with {other:?}")),
            }
            match fs::read_to_string(&file) {
                Ok(text) => tally.absorb(&text, round > 0),
                Err(e) => tally.errors.push(format!("round {round}: {e}")),
            }
        }
    }
    let _ = fs::remove_dir_all(&work);

    let order = order.join(" ");
    println!("trial order (round-major, * = traced): {order}");
    let mut lines = vec![host_record(&host)];
    let mut all_correct = true;
    for (w, tally) in &mut tallies {
        derive(&mut tally.samples);
        let expected = expected_fingerprint(*w, seed, &sizes);
        let reference = expected.or(tally.fingerprints.first().copied());
        let mismatched = tally
            .fingerprints
            .iter()
            .filter(|&&f| Some(f) != reference)
            .count();
        if mismatched > 0 {
            tally.errors.push(format!(
                "{mismatched} trial(s) differ from fingerprint {}",
                hex(reference)
            ));
        }
        let correct = tally.failed == 0 && tally.errors.is_empty() && tally.attempted > 0;
        all_correct &= correct;
        println!(
            "\n{}: correct={correct} attempted={} failed={} fingerprint {} ({})",
            w.name(),
            tally.attempted,
            tally.failed,
            hex(reference),
            if expected.is_some() {
                "pinned"
            } else {
                "unchecked"
            }
        );
        for e in &tally.errors {
            println!("  ERROR: {e}");
        }
        for line in summary_lines(&tally.samples) {
            println!("{line}");
        }
        lines.push(run_record(&Verdict {
            workload: w.name(),
            seed,
            correct,
            attempted: tally.attempted,
            failed: tally.failed,
            fingerprint: reference,
            pinned: expected.is_some(),
            order: order.clone(),
        }));
        lines.extend(metric_records(w.name(), &tally.samples));
    }
    if let Err(e) = write_lines(out, &lines) {
        eprintln!("disco-benchmark: {e}");
        return ExitCode::FAILURE;
    }
    println!("\nwrote {}", out.display());
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::One {
            workload,
            seed,
            seconds,
            trace,
            out,
        }) => run_one(workload, seed, seconds, trace, out.as_deref()),
        Ok(Mode::Suite {
            seed,
            out,
            trace_dir,
        }) => run_suite(seed, &out, trace_dir.as_deref()),
        Err(e) => {
            eprintln!("disco-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
