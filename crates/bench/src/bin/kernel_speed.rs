//! Cycle-kernel speed benchmark: serial vs sharded compute phase on the
//! *same* simulation, at mesh sizes where kernel-level parallelism can
//! actually pay (8x8 through the 4096-router 64x64 "hundreds of cores"
//! point the paper's scaling argument targets). This is the successor
//! to the PR 3
//! `sweep` snapshot: where `sweep` fans independent configurations
//! across threads, this bin shards a single simulation's compute phase
//! across the persistent worker pool and reports the speedup honestly —
//! including `host_cores`: the pool never runs more threads than the
//! host has cores, so on a 1-core host every shard runs inline and the
//! speedup is ~1.0 by construction.
//!
//! `cargo run --release -p disco-bench --bin kernel_speed -- \
//!     [--meshes 8,16,32,64] [--topology mesh|ring|hring|torus|cmesh] \
//!     [--cycles 0 (auto per mesh)] [--rate 0.1] \
//!     [--shards 0 (auto = host cores)] [--seeds 2016,2018] \
//!     [--out BENCH_pr7.json] [--gate-speedup 2.0]`
//!
//! `--gate-speedup` is a CI hook (default off): it fails the run when
//! the 16x16 sharded/serial speedup falls below the floor. Serial
//! throughput is not gated here: it varies too much from run to run on
//! one host to compare against a committed number. Same-host
//! parent-versus-change comparisons are `disco-benchmark`'s job.

use disco_bench::cli::{self, Flags};
use disco_bench::sweep::{run_point, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use disco_pareto::json::Json;
use std::process::ExitCode;

/// Committed PR 3 reference (BENCH_pr3.json): 8x8 serial cycles/s, mean
/// of the two rate-0.1 seeds, and the whole-sweep "speedup" the scoped
/// thread-per-cycle path achieved on that host.
const PR3_SERIAL_8X8_CPS: f64 = 26_862.0;
const PR3_PARALLEL_SPEEDUP: f64 = 0.952;

/// Committed PR 7 reference (BENCH_pr7.json): the persistent worker
/// pool result this bin originally snapshot.
const PR7_SERIAL_8X8_CPS: f64 = 86_056.0;
const PR7_PARALLEL_SPEEDUP: f64 = 0.833;

/// Auto cycle budget: keep the serial leg of each mesh size in the same
/// wall-clock ballpark (cycles/s falls roughly with router count).
fn cycles_for(mesh: usize, requested: u64) -> u64 {
    if requested > 0 {
        return requested;
    }
    match mesh {
        0..=8 => 20_000,
        9..=16 => 8_000,
        17..=32 => 3_000,
        // 64x64 is 4096 routers: ~4x the per-cycle work of 32x32, so a
        // quarter of its budget keeps the leg in the same ballpark.
        _ => 800,
    }
}

struct MeshResult {
    mesh: usize,
    cycles: u64,
    points: Vec<(PointResult, PointResult)>,
    serial_cps: f64,
    sharded_cps: f64,
    speedup: f64,
    deterministic: bool,
}

fn run_mesh(
    topology: TopologyChoice,
    mesh: usize,
    cycles: u64,
    rate: f64,
    shards: usize,
    seeds: &[u64],
) -> MeshResult {
    let mut points = Vec::new();
    let mut deterministic = true;
    for &seed in seeds {
        let base = SweepPoint {
            topology,
            pattern: TrafficPattern::UniformRandom,
            injection_rate: rate,
            seed,
            cols: mesh,
            rows: mesh,
            cycles,
            compute_shards: 1,
            trace_capacity: 0,
        };
        let serial = run_point(&base);
        let sharded = run_point(&SweepPoint {
            compute_shards: shards,
            ..base
        });
        if serial.stats != sharded.stats {
            eprintln!(
                "kernel_speed: DIVERGENCE at {mesh}x{mesh} seed {seed}: \
                 serial {:?} vs {shards}-shard {:?}",
                serial.stats, sharded.stats
            );
            deterministic = false;
        }
        points.push((serial, sharded));
    }
    let mean = |sel: fn(&(PointResult, PointResult)) -> f64| -> f64 {
        points.iter().map(sel).sum::<f64>() / points.len() as f64
    };
    let serial_cps = mean(|(s, _)| s.cycles_per_sec);
    let sharded_cps = mean(|(_, f)| f.cycles_per_sec);
    MeshResult {
        mesh,
        cycles,
        points,
        serial_cps,
        sharded_cps,
        speedup: sharded_cps / serial_cps.max(1e-9),
        deterministic,
    }
}

impl MeshResult {
    fn to_json(&self) -> Json {
        let points = self.points.iter().map(|(s, f)| {
            let speedup = f.cycles_per_sec / s.cycles_per_sec.max(1e-9);
            Json::obj([
                ("seed", Json::num(s.point.seed)),
                ("packets_delivered", Json::num(s.stats.packets_delivered)),
                ("serial_cycles_per_s", Json::fixed(s.cycles_per_sec, 0)),
                ("sharded_cycles_per_s", Json::fixed(f.cycles_per_sec, 0)),
                ("speedup", Json::fixed(speedup, 3)),
            ])
        });
        Json::obj([
            ("mesh", Json::str(format!("{0}x{0}", self.mesh))),
            ("cycles_per_point", Json::num(self.cycles)),
            ("points", Json::Arr(points.collect())),
            ("serial_cycles_per_s", Json::fixed(self.serial_cps, 0)),
            ("sharded_cycles_per_s", Json::fixed(self.sharded_cps, 0)),
            ("speedup", Json::fixed(self.speedup, 3)),
        ])
    }
}

/// One `trajectory` entry: a milestone's 8x8 serial throughput (omitted
/// when not measured) and parallel speedup.
fn milestone(pr: &str, serial_8x8: Option<f64>, speedup: Json, note: &str) -> Json {
    let mut fields = vec![("pr", Json::str(pr))];
    fields.extend(serial_8x8.map(|s| ("serial_8x8_cycles_per_s", Json::fixed(s, 0))));
    fields.push(("parallel_speedup", speedup));
    fields.push(("note", Json::str(note)));
    Json::obj(fields)
}

/// The run's JSON report. The 8x8 serial throughput, at the top level
/// and in this run's trajectory entry, is present only when 8 is among
/// the measured meshes: a mesh that was not run is left out, never
/// written as a zero that reads as a measurement.
fn report(
    topology: TopologyChoice,
    host_cores: usize,
    shards: usize,
    rate: f64,
    meshes: &[MeshResult],
) -> Json {
    let deterministic = meshes.iter().all(|m| m.deterministic);
    let serial_8x8 = meshes.iter().find(|m| m.mesh == 8).map(|m| m.serial_cps);
    let speedup_16x16 = meshes.iter().find(|m| m.mesh == 16).map(|m| m.speedup);
    let mut fields = vec![
        ("bench", Json::str("kernel_speed")),
        ("topology", Json::str(topology.to_string())),
        ("host_cores", Json::num(host_cores)),
        ("shards", Json::num(shards)),
        ("rate", Json::num(rate)),
        (
            "meshes",
            Json::Arr(meshes.iter().map(MeshResult::to_json).collect()),
        ),
    ];
    fields.extend(serial_8x8.map(|s| ("serial_8x8_cycles_per_s", Json::fixed(s, 0))));
    fields.extend(speedup_16x16.map(|s| ("speedup_16x16", Json::fixed(s, 3))));
    fields.push(("deterministic", Json::Bool(deterministic)));
    let trajectory = [
        milestone(
            "pr3",
            Some(PR3_SERIAL_8X8_CPS),
            Json::num(PR3_PARALLEL_SPEEDUP),
            "scoped threads spawned per cycle; per-cycle allocation in RC/VA/SA",
        ),
        milestone(
            "pr7",
            Some(PR7_SERIAL_8X8_CPS),
            Json::num(PR7_PARALLEL_SPEEDUP),
            "persistent worker pool + zero-alloc per-shard arenas",
        ),
        milestone(
            "pr9",
            serial_8x8,
            speedup_16x16.map_or(Json::Null, |s| Json::fixed(s, 3)),
            "64x64 hundreds-of-cores leg added; checkpoint/restore + disco-serve land",
        ),
    ];
    fields.push(("trajectory", Json::Arr(trajectory.into())));
    Json::obj(fields)
}

fn main() -> ExitCode {
    cli::exit_status("kernel_speed", run())
}

fn run() -> Result<ExitCode, String> {
    let flags = Flags::from_env(
        &[
            "--meshes",
            "--topology",
            "--cycles",
            "--rate",
            "--shards",
            "--seeds",
            "--out",
            "--gate-speedup",
        ],
        &[],
    )?;
    let mesh_sizes: Vec<usize> = flags.list("--meshes", vec![8, 16, 32, 64])?;
    let topology = flags
        .opt_with("--topology", TopologyChoice::parse)?
        .unwrap_or(TopologyChoice::Mesh);
    let requested_cycles = flags.get("--cycles", 0)?;
    let rate = flags.get("--rate", 0.1)?;
    let requested_shards = flags.get("--shards", 0)?;
    let default_seeds = vec![disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2];
    let seeds: Vec<u64> = flags.list("--seeds", default_seeds)?;
    let out = flags.get("--out", "BENCH_pr7.json".to_string())?;
    let gate_speedup = flags.get("--gate-speedup", 0.0)?;
    if mesh_sizes.is_empty() || seeds.is_empty() {
        return Err("need at least one mesh and one seed".to_string());
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = if requested_shards == 0 {
        host_cores
    } else {
        requested_shards
    };

    let mut meshes = Vec::new();
    for &mesh in &mesh_sizes {
        let cycles = cycles_for(mesh, requested_cycles);
        println!(
            "kernel_speed: {mesh}x{mesh} {topology}, {cycles} cycles x {} seed(s), serial then {shards} shards",
            seeds.len()
        );
        let result = run_mesh(topology, mesh, cycles, rate, shards, &seeds);
        println!(
            "kernel_speed: {mesh}x{mesh}: serial {:.0} c/s, sharded {:.0} c/s, speedup {:.3}x",
            result.serial_cps, result.sharded_cps, result.speedup
        );
        meshes.push(result);
    }

    let deterministic = meshes.iter().all(|m| m.deterministic);
    let speedup_16x16 = meshes.iter().find(|m| m.mesh == 16).map(|m| m.speedup);
    let json = format!(
        "{:#}\n",
        report(topology, host_cores, shards, rate, &meshes)
    );
    std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("kernel_speed: wrote {out}");

    let mut failed = false;
    if !deterministic {
        eprintln!("kernel_speed: FAIL sharded kernel diverged from serial kernel");
        failed = true;
    }
    if gate_speedup > 0.0 {
        match speedup_16x16 {
            Some(s) if s >= gate_speedup => {
                println!("kernel_speed: gate ok: 16x16 speedup {s:.3}x >= {gate_speedup:.2}x");
            }
            Some(s) => {
                eprintln!("kernel_speed: FAIL 16x16 speedup {s:.3}x < required {gate_speedup:.2}x");
                failed = true;
            }
            None => {
                eprintln!("kernel_speed: FAIL --gate-speedup set but 16 not in --meshes");
                failed = true;
            }
        }
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(mesh: usize) -> MeshResult {
        MeshResult {
            mesh,
            cycles: 100,
            points: Vec::new(),
            serial_cps: 1234.0,
            sharded_cps: 2468.0,
            speedup: 2.0,
            deterministic: true,
        }
    }

    /// The newest trajectory entry (this run's).
    fn this_run(json: &Json) -> &Json {
        match json.get("trajectory") {
            Some(Json::Arr(entries)) => entries.last().expect("trajectory has entries"),
            other => panic!("trajectory missing: {other:?}"),
        }
    }

    #[test]
    fn serial_8x8_is_omitted_when_8_is_not_measured() {
        let meshes = [measured(16), measured(32)];
        let json = report(TopologyChoice::Mesh, 2, 2, 0.1, &meshes);
        assert!(json.get("serial_8x8_cycles_per_s").is_none(), "{json}");
        assert!(this_run(&json).get("serial_8x8_cycles_per_s").is_none());
        assert!(json.get("speedup_16x16").is_some());
    }

    #[test]
    fn serial_8x8_is_reported_when_measured() {
        let json = report(TopologyChoice::Mesh, 2, 2, 0.1, &[measured(8)]);
        let expected = Some(&Json::fixed(1234.0, 0));
        assert_eq!(json.get("serial_8x8_cycles_per_s"), expected);
        assert_eq!(this_run(&json).get("serial_8x8_cycles_per_s"), expected);
        assert!(json.get("speedup_16x16").is_none());
    }
}
