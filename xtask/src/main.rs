//! Workspace task runner: `cargo xtask verify` drives the `disco-verify`
//! analysis suite and fails the build on any finding.
//!
//! Six analyses run in order: channel-dependency-graph deadlock freedom,
//! MOESI transition-table exhaustiveness + message-class composition,
//! bounded protocol model checking against the live directory, the
//! credit/buffer conservation proof, and the AST-grade source lints.
//! `--json PATH` additionally writes a machine-readable report (one
//! record per analysis with pass/fail, state counts where applicable,
//! and wall time) that CI uploads as an artifact next to BENCH_*.json.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use disco_bench::cli::Flags;
use disco_noc::routing::RoutingAlgorithm;
use disco_noc::topology::{Mesh, TopologyChoice, TopologySpec};
use disco_noc::NocConfig;
use disco_pareto::json::Json;
use disco_verify::explorer::{explore, ExploreOptions};
use disco_verify::model::{LiveDir, ProtocolModel};
use disco_verify::{cdg, credits, lints, protocol};

/// The documented acceptance floor for the model pass: the default
/// configuration must explore at least this many deduplicated states
/// (see ARCHITECTURE.md "Model checking & symbolic analyses").
const MODEL_STATE_FLOOR: u64 = 100_000;

/// Ledger depth for the credit conservation proof, matching the default
/// `NocConfig` buffer depth.
const CREDIT_DEPTH: i16 = 8;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("verify") => match VerifyOpts::parse(&args[1..]) {
            Ok(opts) => verify(&opts),
            Err(e) => {
                eprintln!("xtask: {e}");
                usage();
                ExitCode::FAILURE
            }
        },
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`");
            usage();
            ExitCode::FAILURE
        }
        None => {
            usage();
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!("usage: cargo xtask verify [--json PATH] [--workers N] [--depth N]");
    eprintln!();
    eprintln!("  verify   run the static analyses: channel-dependency-graph");
    eprintln!("           deadlock freedom, MOESI transition-table exhaustiveness");
    eprintln!("           and message-class composition, bounded coherence model");
    eprintln!("           checking, the credit conservation proof, and AST-grade");
    eprintln!("           source lints");
    eprintln!();
    eprintln!("  --json PATH   also write a machine-readable report to PATH");
    eprintln!("  --workers N   model-checker worklist workers (default 4; the");
    eprintln!("                report is byte-identical at any worker count)");
    eprintln!("  --depth N     model-checker depth bound (default 64)");
}

/// Options for the `verify` task.
struct VerifyOpts {
    json: Option<PathBuf>,
    workers: usize,
    depth: usize,
}

impl VerifyOpts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let flags = Flags::parse(
            args.iter().cloned(),
            &["--json", "--workers", "--depth"],
            &[],
        )?;
        let positive = |v: &str| v.parse().ok().filter(|&n: &usize| n >= 1);
        Ok(VerifyOpts {
            json: flags.opt("--json")?,
            workers: flags.opt_with("--workers", positive)?.unwrap_or(4),
            depth: flags.opt_with("--depth", positive)?.unwrap_or(64),
        })
    }
}

/// Outcome of one analysis, for the human summary and the JSON report.
struct AnalysisResult {
    name: &'static str,
    pass: bool,
    /// One-line summary (what passed, or how many findings).
    detail: String,
    /// Deduplicated states explored, for the exhaustive analyses.
    states: Option<u64>,
    /// Transitions executed, for the exhaustive analyses.
    transitions: Option<u64>,
    /// Wall time of the analysis. Kept out of every analysis's own
    /// rendering so pass output stays byte-identical run to run; the
    /// JSON wrapper is the only place timing appears.
    ms: u128,
}

fn verify(opts: &VerifyOpts) -> ExitCode {
    let t0 = Instant::now();
    let results = vec![
        timed("cdg", run_cdg),
        timed("protocol", run_protocol),
        timed_with("model", || run_model(opts)),
        timed_with("credits", run_credits),
        timed("lints", run_lints),
    ];
    let total_ms = t0.elapsed().as_millis();
    let pass = results.iter().all(|r| r.pass);

    if let Some(path) = &opts.json {
        let json = render_json(&results, pass, total_ms);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!(
                "verify: cannot write JSON report to {}: {e}",
                path.display()
            );
            return ExitCode::FAILURE;
        }
        println!("verify: JSON report written to {}", path.display());
    }

    if pass {
        println!("verify: all analyses passed");
        ExitCode::SUCCESS
    } else {
        let failed: Vec<&str> = results.iter().filter(|r| !r.pass).map(|r| r.name).collect();
        eprintln!("verify: FAILED analyses: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Runs a simple pass (no state counts) under a wall-time measurement.
fn timed(name: &'static str, run: fn() -> (bool, String)) -> AnalysisResult {
    timed_with(name, move || {
        let (pass, detail) = run();
        (pass, detail, None, None)
    })
}

/// Runs a pass that may report explored-state counts.
fn timed_with<F>(name: &'static str, run: F) -> AnalysisResult
where
    F: FnOnce() -> (bool, String, Option<u64>, Option<u64>),
{
    let t0 = Instant::now();
    let (pass, detail, states, transitions) = run();
    AnalysisResult {
        name,
        pass,
        detail,
        states,
        transitions,
        ms: t0.elapsed().as_millis(),
    }
}

/// Channel-dependency-graph pass: every shipped topology must be
/// acyclic under its default routing (with dateline VC narrowing on the
/// wrapped shapes), and every deterministic/turn-model algorithm must
/// be acyclic on the Table 2 mesh. Known-cyclic configurations are
/// reported as notes, proving the analysis has teeth without failing
/// the build.
fn run_cdg() -> (bool, String) {
    let mut failures = 0usize;
    let config = NocConfig::default();
    for choice in TopologyChoice::ALL {
        let topo = choice.build(4, 4);
        let opts = cdg::CdgOptions {
            vcs: config.vcs.max(topo.min_vcs()),
            routing: config.routing,
            use_datelines: true,
            lock_partial_packets: false,
        };
        let report = cdg::analyze(&topo, &opts);
        match report.cycle_trace() {
            None => println!(
                "cdg: {} ({} routers, radix {}) at {} VCs: acyclic ({} channels, {} dependencies)",
                topo.name(),
                topo.routers(),
                topo.radix(),
                opts.vcs,
                report.channels,
                report.edges
            ),
            Some(trace) => {
                eprintln!(
                    "cdg: FAIL {} at {} VCs: cycle {trace}",
                    topo.name(),
                    opts.vcs
                );
                failures += 1;
            }
        }
    }
    let mesh = Mesh::new(4, 4).build();
    for routing in [RoutingAlgorithm::Yx, RoutingAlgorithm::WestFirst] {
        let opts = cdg::CdgOptions {
            vcs: config.vcs,
            routing,
            use_datelines: true,
            lock_partial_packets: false,
        };
        let report = cdg::analyze(&mesh, &opts);
        match report.cycle_trace() {
            None => println!(
                "cdg: {routing:?} on 4x4 mesh/{} VCs: acyclic ({} channels, {} dependencies)",
                config.vcs, report.channels, report.edges
            ),
            Some(trace) => {
                eprintln!(
                    "cdg: FAIL {routing:?} on 4x4 mesh/{} VCs: cycle {trace}",
                    config.vcs
                );
                failures += 1;
            }
        }
    }
    let o1 = cdg::analyze(
        &mesh,
        &cdg::CdgOptions {
            vcs: config.vcs,
            routing: RoutingAlgorithm::O1Turn,
            use_datelines: true,
            lock_partial_packets: false,
        },
    );
    if !o1.is_deadlock_free() {
        println!(
            "cdg: note: O1Turn sharing the class VC groups is cyclic (needs one virtual \
             network per dimension order); it is not part of the default configuration"
        );
    }
    let locked = cdg::analyze(
        &mesh,
        &cdg::CdgOptions {
            vcs: config.vcs,
            routing: config.routing,
            use_datelines: true,
            lock_partial_packets: true,
        },
    );
    if !locked.is_deadlock_free() {
        println!(
            "cdg: note: locking partially resident packets would close a cycle — the \
             engine therefore locks whole-resident packets only"
        );
    }
    let undatelined = cdg::analyze(
        &TopologyChoice::Torus.build(4, 4),
        &cdg::CdgOptions {
            vcs: 4,
            routing: config.routing,
            use_datelines: false,
            lock_partial_packets: false,
        },
    );
    if !undatelined.is_deadlock_free() {
        println!(
            "cdg: note: the torus without dateline VC narrowing is cyclic — the wrapped \
             shapes are safe only because the datelines are machine-checked above"
        );
    }
    if failures == 0 {
        (
            true,
            format!(
                "{} topologies acyclic (datelined); Xy/Yx/WestFirst acyclic on 4x4 mesh",
                TopologyChoice::ALL.len()
            ),
        )
    } else {
        (false, format!("{failures} routing configuration(s) cyclic"))
    }
}

/// Protocol pass: the extracted MOESI table must be total and fully
/// reachable, the `Msg` tag encoding must roundtrip every `Op`, and the
/// op → class mapping must compose with the VC groups and CDG results.
fn run_protocol() -> (bool, String) {
    let mut failures = 0usize;
    let table = protocol::extract_directory_table();
    let report = protocol::check_table(&table);
    if report.is_complete() {
        println!(
            "protocol: MOESI table total over {} transitions, every state reachable",
            table.transitions.len()
        );
    } else {
        for (state, event) in &report.missing {
            eprintln!(
                "protocol: FAIL unhandled ({} x {})",
                state.name(),
                event.name()
            );
        }
        for state in &report.unreachable {
            eprintln!(
                "protocol: FAIL state {} unreachable from Uncached",
                state.name()
            );
        }
        failures += 1;
    }
    let op_errors = protocol::check_ops();
    if op_errors.is_empty() {
        println!("protocol: Msg tag encoding roundtrips all ops, rejects stray codes");
    } else {
        for e in &op_errors {
            eprintln!("protocol: FAIL {e}");
        }
        failures += 1;
    }
    let mut class_errors = Vec::new();
    for choice in TopologyChoice::ALL {
        let topo = choice.build(4, 4);
        let config = NocConfig {
            vcs: NocConfig::default().vcs.max(topo.min_vcs()),
            ..NocConfig::default()
        };
        class_errors.extend(protocol::check_message_classes(&config, &topo));
    }
    if class_errors.is_empty() {
        println!(
            "protocol: op → class mapping pinned, VC groups partition, only documented \
             dependency cycles, CDG composition holds on every topology"
        );
    } else {
        for e in &class_errors {
            eprintln!("protocol: FAIL {e}");
        }
        failures += 1;
    }
    if failures == 0 {
        (
            true,
            format!(
                "MOESI table total ({} transitions); tag encoding exhaustive; \
                 class composition holds",
                table.transitions.len()
            ),
        )
    } else {
        (false, format!("{failures} protocol check(s) failed"))
    }
}

/// Model pass: exhaustively explore every delivery interleaving of the
/// default three-core configuration against the live `Directory`, to the
/// configured depth bound. Fails on any invariant violation, on
/// truncation, and on exploring fewer than `MODEL_STATE_FLOOR` states
/// (the documented acceptance bound).
fn run_model(opts: &VerifyOpts) -> (bool, String, Option<u64>, Option<u64>) {
    let model = ProtocolModel::default_config(LiveDir::default());
    let explore_opts = ExploreOptions {
        max_depth: opts.depth,
        max_states: 4_000_000,
        workers: opts.workers,
        max_violations: 8,
    };
    let report = explore(&model, &explore_opts);
    // render() is deterministic (no wall time, no worker count), so this
    // output is byte-identical run to run — tests/determinism.rs pins it.
    print!("{}", report.render("model"));
    let mut pass = true;
    if !report.clean() {
        eprintln!(
            "model: FAIL {} invariant violation(s); schedules above are replayable",
            report.violations.len()
        );
        pass = false;
    }
    if report.truncated {
        eprintln!(
            "model: FAIL search truncated at depth {} / {} states; raise --depth or the \
             state bound so the space is covered",
            report.max_depth_reached, report.states
        );
        pass = false;
    }
    if report.states < MODEL_STATE_FLOOR {
        eprintln!(
            "model: FAIL explored {} states, below the documented floor of {}",
            report.states, MODEL_STATE_FLOOR
        );
        pass = false;
    }
    let detail = if pass {
        format!(
            "0 violations over {} states to depth {} (complete)",
            report.states, report.max_depth_reached
        )
    } else {
        format!(
            "{} violation(s), truncated={}, {} states",
            report.violations.len(),
            report.truncated,
            report.states
        )
    };
    (pass, detail, Some(report.states), Some(report.transitions))
}

/// Credits pass: the symbolic conservation proof over the router
/// pipeline's ledger operations, plus exact conformance of the live
/// network at quiescence.
fn run_credits() -> (bool, String, Option<u64>, Option<u64>) {
    let mut failures = 0usize;
    let ledger = credits::CreditLedger::live(CREDIT_DEPTH);
    let report = credits::check_conservation(&ledger);
    if report.clean() && !report.truncated {
        println!(
            "credits: conservation proven at depth {CREDIT_DEPTH}: {} reachable ledger \
             states, {} transitions, no leak or double-free",
            report.states, report.transitions
        );
    } else {
        print!("{}", report.render("credits"));
        eprintln!("credits: FAIL conservation violated (see schedules above)");
        failures += 1;
    }
    match credits::verify_live_credits() {
        Ok(summary) => println!("credits: live conformance: {summary}"),
        Err(errors) => {
            for e in &errors {
                eprintln!("credits: FAIL {e}");
            }
            failures += 1;
        }
    }
    let detail = if failures == 0 {
        format!(
            "ledger conservation proven at depth {CREDIT_DEPTH} ({} states); live network \
             conserves exactly",
            report.states
        )
    } else {
        format!("{failures} credit check(s) failed")
    };
    (
        failures == 0,
        detail,
        Some(report.states),
        Some(report.transitions),
    )
}

/// Lint pass: AST-grade panic/confinement/wall-clock/purity checks plus
/// the stats-surfacing and fault-kind-coverage scans.
fn run_lints() -> (bool, String) {
    let root = lints::repo_root();
    let (mut ran, mut failures) = (0usize, 0usize);
    let mut check = |name: &str, outcome: std::io::Result<Vec<lints::Violation>>, ok_msg: &str| {
        ran += 1;
        match outcome {
            Ok(violations) if violations.is_empty() => println!("lints: {ok_msg}"),
            Ok(violations) => {
                for v in &violations {
                    eprintln!("lints: FAIL [{name}] {v}");
                }
                failures += 1;
            }
            Err(e) => {
                eprintln!("lints: FAIL [{name}] cannot read sources: {e}");
                failures += 1;
            }
        }
    };
    check(
        "hot-paths",
        lints::scan_hot_paths_ast(&root),
        &format!(
            "{} hot-path files are panic-API free (AST scan)",
            lints::HOT_PATHS.len()
        ),
    );
    check(
        "confinement",
        lints::check_commit_confinement_ast(&root),
        "Router mutations (direct, helper-method, and &mut-borrow) are confined to the \
         serial commit context (AST scan)",
    );
    check(
        "wall-clock",
        lints::check_no_wallclock_ast(&root),
        "trace crate and emission sites are wall-clock free (AST scan)",
    );
    check(
        "purity",
        lints::check_compute_purity(&root),
        "compute phase keeps its &Router signature and uses no interior mutability",
    );
    check(
        "fault-coverage",
        lints::check_fault_kind_coverage(&root),
        "every FaultKind has an injection site and a test",
    );
    check(
        "snapshot-manifest",
        lints::check_snapshot_manifest(&root),
        "every field of every snapshotted struct is accounted state|derived in the manifest",
    );
    if failures == 0 {
        (true, format!("{ran} lint families clean (AST-grade)"))
    } else {
        (false, format!("{failures} lint famil(ies) failed"))
    }
}

/// Renders the machine-readable report. Schema `disco-verify/1`:
/// top-level pass/total_ms plus one record per analysis.
fn render_json(results: &[AnalysisResult], pass: bool, total_ms: u128) -> String {
    let analyses = results.iter().map(|r| {
        let mut fields = vec![
            ("name", Json::str(r.name)),
            ("pass", Json::Bool(r.pass)),
            ("detail", Json::str(&r.detail)),
        ];
        fields.extend(r.states.map(|n| ("states", Json::num(n))));
        fields.extend(r.transitions.map(|n| ("transitions", Json::num(n))));
        fields.push(("ms", Json::num(r.ms)));
        Json::obj(fields)
    });
    let report = Json::obj([
        ("schema", Json::str("disco-verify/1")),
        ("pass", Json::Bool(pass)),
        ("total_ms", Json::num(total_ms)),
        ("analyses", Json::Arr(analyses.collect())),
    ]);
    format!("{report}\n")
}
