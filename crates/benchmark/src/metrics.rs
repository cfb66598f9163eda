//! The metric catalogue: every number the benchmark reports, by name,
//! with its unit and the direction that is better.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// `lower` or `higher`, as `BENCHMARK.json` spells it.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `module.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, reported by every workload from
/// untraced trials. Each value is the median over the run's samples.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", Lower),
    m("jobs_per_hour", "1/h", Higher),
    m("sim_cycles_per_s", "1/s", Higher),
    m("peak_rss_mb", "MiB", Lower),
];

/// Single-layer metrics reported by a traced run. Time metrics here are
/// measured on every workload; a layer a workload never calls reports a
/// zero share or count.
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.generate_s", "s", Lower),
    m("workloads.generate.share", "ratio", Lower),
    m("core.system.build.share", "ratio", Lower),
    m("core.system.step.share", "ratio", Lower),
    m("core.system.report.share", "ratio", Lower),
    m("core.system.cycles", "count", Lower),
    m("core.system.accesses", "count", Higher),
    m("core.system.demand_misses", "count", Lower),
    m("core.system.avg_miss_latency_cycles", "cycles", Lower),
    m("cache.l1_probes", "count", Lower),
    m("cache.l1_useful_ratio", "ratio", Higher),
    m("cache.l1_miss_rate", "ratio", Lower),
    m("cache.bank_accesses", "count", Lower),
    m("cache.bank_miss_rate", "ratio", Lower),
    m("cache.dir_ops", "count", Lower),
    m("cache.dram_accesses", "count", Lower),
    m("cache.dram_row_hit_rate", "ratio", Higher),
    m("cache.dram_conflict_cycles", "cycles", Lower),
    m("noc.build.share", "ratio", Lower),
    m("noc.send.share", "ratio", Lower),
    m("noc.tick.share", "ratio", Lower),
    m("noc.deliver.share", "ratio", Lower),
    m("noc.flit_hops", "count", Lower),
    m("noc.arbitrations", "count", Lower),
    m("noc.sa_losses", "count", Lower),
    m("noc.packets_delivered", "count", Higher),
    m("noc.backlog_packets", "count", Lower),
    m("noc.avg_packet_latency_cycles", "cycles", Lower),
    m("core.engine.tick.share", "ratio", Lower),
    m("core.engine.started", "count", Higher),
    m("core.engine.compressions", "count", Higher),
    m("core.engine.decompressions", "count", Higher),
    m("core.engine.aborts", "count", Lower),
    m("core.engine.low_confidence", "count", Lower),
    m("core.engine.flits_saved", "count", Higher),
    m("core.engine.useful_ratio", "ratio", Higher),
    m("compress.ns_per_compress", "ns", Lower),
    m("compress.ns_per_decompress", "ns", Lower),
    m("compress.ops", "count", Lower),
    m("compress.mean_ratio", "ratio", Higher),
    m("compress.est_share", "ratio", Lower),
    m("snapshot.encode.share", "ratio", Lower),
    m("snapshot.write.share", "ratio", Lower),
    m("snapshot.read.share", "ratio", Lower),
    m("snapshot.restore.share", "ratio", Lower),
    m("snapshot.bytes", "B", Lower),
    m("snapshot.checkpoints", "count", Lower),
    m("pareto.explore.share", "ratio", Lower),
    m("pareto.cpu_utilization", "ratio", Higher),
    m("pareto.frontier_points", "count", Higher),
    m("bench.check.share", "ratio", Lower),
    m("trace.coverage", "ratio", Higher),
    m("trace.overhead", "ratio", Lower),
];

/// Further numbers printed (and written with `--out`) but not part of
/// the end-to-end or per-layer sets, mostly because they exist on one
/// workload only.
pub const EXTRA: &[MetricDef] = &[
    m("trial_s", "s", Lower),
    m("trial_s.traced", "s", Lower),
    m("chunk_ms", "ms", Lower),
    m("resume_s", "s", Lower),
    m("compress.compressions", "count", Lower),
    m("compress.decompressions", "count", Lower),
    m("core.system.step_ns_per_cycle", "ns", Lower),
    m("core.system.step_ns_per_access", "ns", Lower),
    m("noc.ns_per_flit_hop", "ns", Lower),
];

/// The unit of a metric name: from the catalogue, `s` for the per-layer
/// self times (`<span>.self_s`), else `count`.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .chain(EXTRA)
        .find(|d| d.name == name)
        .map(|d| d.unit)
        .unwrap_or(if name.ends_with(".self_s") {
            "s"
        } else {
            "count"
        })
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// then letters, digits, `_`, `.` and `-`, at most 64 in all.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}
