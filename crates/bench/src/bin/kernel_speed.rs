//! Cycle-kernel speed benchmark: serial throughput of the NoC-only
//! uniform-random kernel per mesh size, from 8x8 through the
//! 4096-router 64x64 "hundreds of cores" point the paper's scaling
//! argument targets. Where `sweep` fans independent configurations
//! across threads, this bin times one simulation per mesh and seed, on
//! one thread.
//!
//! `cargo run --release -p disco-bench --bin kernel_speed -- \
//!     [--meshes 8,16,32,64] [--topology mesh|ring|hring|torus|cmesh] \
//!     [--cycles 0 (auto per mesh)] [--rate 0.1] [--seeds 2016,2018] \
//!     [--out BENCH_pr7.json]`
//!
//! Throughput is reported, not gated: it varies too much from run to
//! run on one host to compare against a committed number. Same-host
//! parent-versus-change comparisons are `disco-benchmark`'s job.

use disco_bench::cli::{self, Flags};
use disco_bench::sweep::{run_point, PointResult, SweepPoint};
use disco_noc::traffic::TrafficPattern;
use disco_noc::TopologyChoice;
use disco_pareto::json::Json;
use std::process::ExitCode;

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
    points: Vec<PointResult>,
    cycles_per_s: f64,
}

fn run_mesh(
    topology: TopologyChoice,
    mesh: usize,
    cycles: u64,
    rate: f64,
    seeds: &[u64],
) -> MeshResult {
    let points: Vec<PointResult> = seeds
        .iter()
        .map(|&seed| {
            run_point(&SweepPoint {
                topology,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed,
                cols: mesh,
                rows: mesh,
                cycles,
                trace_capacity: 0,
            })
        })
        .collect();
    let cycles_per_s = points.iter().map(|p| p.cycles_per_sec).sum::<f64>() / points.len() as f64;
    MeshResult {
        mesh,
        cycles,
        points,
        cycles_per_s,
    }
}

impl MeshResult {
    fn to_json(&self) -> Json {
        let points = self.points.iter().map(|p| {
            Json::obj([
                ("seed", Json::num(p.point.seed)),
                ("packets_delivered", Json::num(p.stats.packets_delivered)),
                ("serial_cycles_per_s", Json::fixed(p.cycles_per_sec, 0)),
            ])
        });
        Json::obj([
            ("mesh", Json::str(format!("{0}x{0}", self.mesh))),
            ("cycles_per_point", Json::num(self.cycles)),
            ("points", Json::Arr(points.collect())),
            ("serial_cycles_per_s", Json::fixed(self.cycles_per_s, 0)),
        ])
    }
}

/// The run's JSON report. The 8x8 serial throughput is present only
/// when 8 is among the measured meshes: a mesh that was not run is left
/// out, never written as a zero that reads as a measurement.
fn report(topology: TopologyChoice, host_cores: usize, rate: f64, meshes: &[MeshResult]) -> Json {
    let serial_8x8 = meshes.iter().find(|m| m.mesh == 8).map(|m| m.cycles_per_s);
    let mut fields = vec![
        ("bench", Json::str("kernel_speed")),
        ("topology", Json::str(topology.to_string())),
        ("host_cores", Json::num(host_cores)),
        ("rate", Json::num(rate)),
        (
            "meshes",
            Json::Arr(meshes.iter().map(MeshResult::to_json).collect()),
        ),
    ];
    fields.extend(serial_8x8.map(|s| ("serial_8x8_cycles_per_s", Json::fixed(s, 0))));
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
            "--seeds",
            "--out",
        ],
        &[],
    )?;
    let mesh_sizes: Vec<usize> = flags.list("--meshes", vec![8, 16, 32, 64])?;
    let topology = flags
        .opt_with("--topology", TopologyChoice::parse)?
        .unwrap_or(TopologyChoice::Mesh);
    let requested_cycles = flags.get("--cycles", 0)?;
    let rate = flags.get("--rate", 0.1)?;
    let default_seeds = vec![disco_bench::DEFAULT_SEED, disco_bench::DEFAULT_SEED + 2];
    let seeds: Vec<u64> = flags.list("--seeds", default_seeds)?;
    let out = flags.get("--out", "BENCH_pr7.json".to_string())?;
    if mesh_sizes.is_empty() || seeds.is_empty() {
        return Err("need at least one mesh and one seed".to_string());
    }
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut meshes = Vec::new();
    for &mesh in &mesh_sizes {
        let cycles = cycles_for(mesh, requested_cycles);
        println!(
            "kernel_speed: {mesh}x{mesh} {topology}, {cycles} cycles x {} seed(s)",
            seeds.len()
        );
        let result = run_mesh(topology, mesh, cycles, rate, &seeds);
        println!(
            "kernel_speed: {mesh}x{mesh}: serial {:.0} c/s",
            result.cycles_per_s
        );
        meshes.push(result);
    }

    let json = format!("{:#}\n", report(topology, host_cores, rate, &meshes));
    std::fs::write(&out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("kernel_speed: wrote {out}");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(mesh: usize) -> MeshResult {
        MeshResult {
            mesh,
            cycles: 100,
            points: Vec::new(),
            cycles_per_s: 1234.0,
        }
    }

    #[test]
    fn serial_8x8_is_omitted_when_8_is_not_measured() {
        let meshes = [measured(16), measured(32)];
        let json = report(TopologyChoice::Mesh, 2, 0.1, &meshes);
        assert!(json.get("serial_8x8_cycles_per_s").is_none(), "{json}");
    }

    #[test]
    fn serial_8x8_is_reported_when_measured() {
        let json = report(TopologyChoice::Mesh, 2, 0.1, &[measured(8)]);
        let expected = Some(&Json::fixed(1234.0, 0));
        assert_eq!(json.get("serial_8x8_cycles_per_s"), expected);
    }
}
