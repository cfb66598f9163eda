//! Parallel experiment harness: fan independent sweep points across OS
//! threads and report machine-readable throughput numbers.
//!
//! Each point is a complete, self-contained simulation (own `Network`,
//! own `TrafficDriver`, own RNG seed), so points share no state and the
//! fan-out needs no synchronization beyond joining. Results come back in
//! point order regardless of the thread count, and each point's stats
//! are byte-identical to a serial run of the same point — the harness
//! parallelizes *between* configurations; `NocConfig::compute_shards`
//! additionally shards the cycle kernel *within* one.

use disco_noc::traffic::{TrafficDriver, TrafficPattern};
use disco_noc::{Network, NetworkStats, NocConfig, NodeId, TopologyChoice};
use std::time::Instant;

/// One configuration of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// NoC topology (tiles stay `cols × rows` on every choice).
    pub topology: TopologyChoice,
    /// Synthetic destination pattern.
    pub pattern: TrafficPattern,
    /// Offered load in flits/node/cycle.
    pub injection_rate: f64,
    /// Driver RNG seed.
    pub seed: u64,
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Cycles to simulate.
    pub cycles: u64,
    /// Kernel shard request (see `NocConfig::compute_shards`).
    pub compute_shards: usize,
    /// Trace ring-buffer capacity in records; 0 = tracing off.
    pub trace_capacity: usize,
}

/// Measurements for one executed point.
#[derive(Debug, Clone, Copy)]
pub struct PointResult {
    /// The configuration that produced this result.
    pub point: SweepPoint,
    /// Final network counters.
    pub stats: NetworkStats,
    /// Wall-clock seconds for the simulation loop.
    pub wall_secs: f64,
    /// Simulated cycles per wall-clock second.
    pub cycles_per_sec: f64,
    /// Events the tracer emitted over the run (0 when tracing is off).
    pub trace_emitted: u64,
    /// Events the ring buffer dropped (0 when tracing is off).
    pub trace_dropped: u64,
}

/// Runs one sweep point to completion.
pub fn run_point(point: &SweepPoint) -> PointResult {
    let topo = point.topology.build(point.cols, point.rows);
    let config = NocConfig {
        vcs: NocConfig::default().vcs.max(topo.min_vcs()),
        compute_shards: point.compute_shards,
        ..NocConfig::default()
    };
    let nodes = topo.tiles();
    let mut net = Network::new(topo, config);
    net.set_trace_capacity(point.trace_capacity);
    let mut driver = TrafficDriver::new(point.pattern, point.injection_rate, true, point.seed);
    let start = Instant::now();
    for _ in 0..point.cycles {
        driver.inject(&mut net);
        net.tick();
        for n in 0..nodes {
            let _ = net.take_delivered(NodeId(n));
        }
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    PointResult {
        point: *point,
        stats: *net.stats(),
        wall_secs,
        cycles_per_sec: point.cycles as f64 / wall_secs,
        trace_emitted: net.tracer().map_or(0, |t| t.emitted()),
        trace_dropped: net.tracer().map_or(0, |t| t.dropped()),
    }
}

/// Runs every point, fanning them round-robin across `threads` OS
/// threads (1 = fully serial). Results are returned in point order.
/// The fan-out itself lives in [`disco_pareto::exec::fan_out`], shared
/// with the design-space-exploration driver.
pub fn run_sweep(points: &[SweepPoint], threads: usize) -> Vec<PointResult> {
    disco_pareto::exec::fan_out(points, threads, run_point)
}

/// Short label for a pattern, for JSON and filenames.
pub fn pattern_name(pattern: TrafficPattern) -> &'static str {
    match pattern {
        TrafficPattern::UniformRandom => "uniform_random",
        TrafficPattern::Hotspot(_) => "hotspot",
        TrafficPattern::Transpose => "transpose",
        TrafficPattern::BitComplement => "bit_complement",
        TrafficPattern::RingNext => "ring_next",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_points() -> Vec<SweepPoint> {
        [0.05, 0.2, 0.4]
            .iter()
            .map(|&rate| SweepPoint {
                topology: TopologyChoice::Mesh,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: rate,
                seed: 2016,
                cols: 4,
                rows: 4,
                cycles: 400,
                compute_shards: 1,
                trace_capacity: 0,
            })
            .collect()
    }

    #[test]
    fn fan_out_preserves_order_and_results() {
        let points = tiny_points();
        let serial = run_sweep(&points, 1);
        let fanned = run_sweep(&points, 3);
        assert_eq!(serial.len(), fanned.len());
        for (s, f) in serial.iter().zip(&fanned) {
            assert_eq!(s.point.injection_rate, f.point.injection_rate);
            assert_eq!(s.stats, f.stats, "thread count must not change stats");
        }
    }

    #[test]
    fn every_topology_runs_a_point() {
        for choice in TopologyChoice::ALL {
            let point = SweepPoint {
                topology: choice,
                pattern: TrafficPattern::UniformRandom,
                injection_rate: 0.1,
                seed: 7,
                cols: 4,
                rows: 4,
                cycles: 300,
                compute_shards: 1,
                trace_capacity: 0,
            };
            let r = run_point(&point);
            assert!(
                r.stats.packets_delivered > 0,
                "{choice}: no packets delivered"
            );
        }
    }

    #[test]
    fn heavier_load_moves_more_flits() {
        let results = run_sweep(&tiny_points(), 2);
        assert!(results[2].stats.link_flits > results[0].stats.link_flits);
    }

    /// Tracing only observes: an 8x8 mesh gives the same counters with
    /// the tracer off, at a ring small enough to drop events, and at the
    /// default capacity.
    #[test]
    fn tracing_never_changes_noc_stats() {
        for rate in [0.05, 0.2] {
            let run = |trace_capacity| {
                run_point(&SweepPoint {
                    topology: TopologyChoice::Mesh,
                    pattern: TrafficPattern::UniformRandom,
                    injection_rate: rate,
                    seed: 2016,
                    cols: 8,
                    rows: 8,
                    cycles: 2_000,
                    compute_shards: 1,
                    trace_capacity,
                })
            };
            let untraced = run(0);
            let small = run(1 << 12);
            let default = run(disco_trace::DEFAULT_CAPACITY);
            assert_eq!(untraced.stats, small.stats, "rate {rate}: 2^12 ring");
            assert_eq!(untraced.stats, default.stats, "rate {rate}: default ring");
            assert!(small.trace_dropped > 0, "rate {rate}: 2^12 ring must drop");
            assert!(default.trace_emitted > 0, "rate {rate}: tracer must emit");
        }
    }
}
