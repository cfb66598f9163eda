//! One full-system run, described once.
//!
//! A [`RunSpec`] is every axis a `disco-serve` queue entry or a design
//! point sets on [`SimBuilder`]. [`RunSpec::builder`] is the only code
//! that maps a run description onto the simulator, and
//! [`RunSpec::from_json`] is the queue-entry parser, so the two callers
//! cannot drift apart.

use disco_compress::SchemeKind;
use disco_core::{CompressionPlacement, DiscoParams, SimBuilder};
use disco_noc::{NocConfig, TopologyChoice};
use disco_workloads::Benchmark;

use crate::json::Json;

/// Largest grid side a queued run may ask for. The biggest network the
/// repo simulates is `kernel_speed`'s 64×64 mesh.
pub const MAX_GRID_SIDE: usize = 64;

/// Largest total trace a queued run may ask for, in accesses (tiles ×
/// `trace_len`). Traces are generated up front, so this bounds a run's
/// memory. The biggest full-system run the repo makes is `fig8`'s 8×8
/// mesh at the default 12 000 accesses per core (768 000).
pub const MAX_TOTAL_ACCESSES: u64 = 1 << 22;

/// Every axis of one full-system simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// NoC topology.
    pub topology: TopologyChoice,
    /// Declared VCs per input port (raised to the topology's
    /// deadlock-freedom minimum at build time).
    pub vcs: usize,
    /// Buffer depth per VC, flits.
    pub buffer_depth: usize,
    /// Compression placement.
    pub placement: CompressionPlacement,
    /// Codec.
    pub scheme: SchemeKind,
    /// Workload.
    pub benchmark: Benchmark,
    /// Accesses per core.
    pub trace_len: usize,
    /// RNG seed.
    pub seed: u64,
    /// `CC_th` (DISCO only).
    pub cc_threshold: f64,
    /// `CD_th` (DISCO only).
    pub cd_threshold: f64,
    /// γ, the Eq. 1 local coefficient (DISCO only).
    pub gamma: f64,
    /// α, the Eq. 2 local coefficient (DISCO only).
    pub alpha: f64,
    /// β, the Eq. 2 distance coefficient (DISCO only).
    pub beta: f64,
    /// Cycle budget (0 = auto).
    pub max_cycles: u64,
    /// Uniform fault rate (0 = no fault plan).
    pub fault_rate: f64,
}

impl RunSpec {
    /// The simulator configuration this run describes.
    pub fn builder(&self) -> SimBuilder {
        let RunSpec {
            cols,
            rows,
            topology,
            vcs,
            buffer_depth,
            placement,
            scheme,
            benchmark,
            trace_len,
            seed,
            cc_threshold,
            cd_threshold,
            gamma,
            alpha,
            beta,
            max_cycles,
            fault_rate,
        } = *self;
        let builder = SimBuilder::new()
            .mesh(cols, rows)
            .topology(topology)
            .placement(placement)
            .scheme(scheme)
            .benchmark(benchmark)
            .trace_len(trace_len)
            .seed(seed)
            .disco_params(DiscoParams {
                cc_threshold,
                cd_threshold,
                gamma,
                alpha,
                beta,
                ..DiscoParams::default()
            })
            .noc(NocConfig {
                vcs,
                buffer_depth,
                ..NocConfig::default()
            })
            .max_cycles(max_cycles);
        if fault_rate > 0.0 {
            builder.faults(disco_faults::FaultPlan::uniform(seed ^ 0xfa17, fault_rate))
        } else {
            builder
        }
    }

    /// Rough cycle count this run will simulate: the explicit budget if
    /// set, otherwise an empirical multiple of the trace length.
    pub fn estimated_cycles(&self) -> u64 {
        if self.max_cycles > 0 {
            self.max_cycles
        } else {
            self.trace_len as u64 * 20
        }
    }

    /// Parses one queue entry's run axes. Errors name the offending key
    /// under `path` (e.g. `jobs[3]`).
    ///
    /// Keys: `mesh` (or `cols`/`rows`, required), `topology` (`mesh`),
    /// `placement` (`disco`), `scheme` (`Delta`), `benchmark`
    /// (`blackscholes`), `trace_len` (required), `seed` (1),
    /// `max_cycles` (0 = auto), `fault_rate` (0). Unknown keys are
    /// ignored, so an older entry that still names a kernel shard count
    /// is accepted: every shard count simulated the same run.
    /// NoC buffering and the DISCO parameters take their defaults. The
    /// grid must be 2..=[`MAX_GRID_SIDE`] per side and the total trace
    /// at most [`MAX_TOTAL_ACCESSES`]; `fault_rate` must be finite and
    /// non-negative.
    ///
    /// # Errors
    ///
    /// A message naming the key that is missing, mistyped or out of
    /// range.
    pub fn from_json(obj: &Json, path: &str) -> Result<RunSpec, String> {
        let ctx = |field: &str| format!("{path}.{field}");
        let mesh = obj.get("mesh").and_then(Json::as_u64);
        let cols =
            obj.get("cols")
                .and_then(Json::as_u64)
                .or(mesh)
                .ok_or_else(|| format!("{} (or mesh) missing", ctx("cols")))? as usize;
        let rows =
            obj.get("rows")
                .and_then(Json::as_u64)
                .or(mesh)
                .ok_or_else(|| format!("{} (or mesh) missing", ctx("rows")))? as usize;
        if cols < 2 || rows < 2 {
            return Err(format!("{}: grid must be at least 2x2", ctx("mesh")));
        }
        if cols > MAX_GRID_SIDE || rows > MAX_GRID_SIDE {
            return Err(format!(
                "{}: grid {cols}x{rows} exceeds MAX_GRID_SIDE = {MAX_GRID_SIDE}",
                ctx("mesh")
            ));
        }
        let field_str = |field: &str, default: &'static str| {
            obj.get(field)
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{} must be a string", ctx(field)))
                })
                .unwrap_or_else(|| Ok(default.to_string()))
        };
        let topology = lookup(
            "topology",
            &field_str("topology", "mesh")?,
            &TopologyChoice::ALL,
            TopologyChoice::name,
        )?;
        let placement = lookup(
            "placement",
            &field_str("placement", "disco")?,
            &CompressionPlacement::ALL,
            CompressionPlacement::name,
        )?;
        let scheme = lookup(
            "scheme",
            &field_str("scheme", "Delta")?,
            &SchemeKind::ALL,
            SchemeKind::name,
        )?;
        let benchmark = lookup(
            "benchmark",
            &field_str("benchmark", "blackscholes")?,
            &Benchmark::ALL,
            Benchmark::name,
        )?;
        let trace_len = obj
            .get("trace_len")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("{} missing", ctx("trace_len")))?;
        if trace_len == 0 {
            return Err(format!("{} must be positive", ctx("trace_len")));
        }
        let accesses = ((cols * rows) as u64).saturating_mul(trace_len);
        if accesses > MAX_TOTAL_ACCESSES {
            return Err(format!(
                "{}: {cols}x{rows} tiles x {trace_len} accesses exceeds \
                 MAX_TOTAL_ACCESSES = {MAX_TOTAL_ACCESSES}",
                ctx("trace_len")
            ));
        }
        let fault_rate = obj.get("fault_rate").and_then(Json::as_f64).unwrap_or(0.0);
        if fault_rate < 0.0 || !fault_rate.is_finite() {
            return Err(format!(
                "{} must be finite and non-negative",
                ctx("fault_rate")
            ));
        }
        let noc = NocConfig::default();
        let disco = DiscoParams::default();
        Ok(RunSpec {
            cols,
            rows,
            topology,
            vcs: noc.vcs,
            buffer_depth: noc.buffer_depth,
            placement,
            scheme,
            benchmark,
            trace_len: trace_len as usize,
            seed: obj.get("seed").and_then(Json::as_u64).unwrap_or(1),
            cc_threshold: disco.cc_threshold,
            cd_threshold: disco.cd_threshold,
            gamma: disco.gamma,
            alpha: disco.alpha,
            beta: disco.beta,
            max_cycles: obj.get("max_cycles").and_then(Json::as_u64).unwrap_or(0),
            fault_rate,
        })
    }
}

/// Resolves a case-insensitive name against `all`, listing the choices
/// on a miss.
fn lookup<T: Copy>(
    what: &str,
    value: &str,
    all: &[T],
    name: impl Fn(T) -> &'static str,
) -> Result<T, String> {
    all.iter()
        .copied()
        .find(|&v| name(v).eq_ignore_ascii_case(value))
        .ok_or_else(|| {
            let names: Vec<_> = all.iter().map(|&v| name(v)).collect();
            format!("unknown {what} {value:?} (one of: {})", names.join(", "))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documented_queue_entry_takes_todays_defaults() {
        // The example entry of ARCHITECTURE.md's "Server mode" queue; an
        // older entry that still carries a shard count parses the same.
        let documented = r#"{"name": "bs-disco", "mesh": 4, "topology": "mesh",
                "placement": "disco", "scheme": "delta",
                "benchmark": "blackscholes", "trace_len": 10000, "seed": 1,
                "max_cycles": 0, "fault_rate": 0.0}"#;
        let with_shards = documented.replace(r#""seed": 1,"#, r#""seed": 1, "compute_shards": 4,"#);
        assert_ne!(documented, with_shards);
        let disco = DiscoParams::default();
        for text in [documented, with_shards.as_str()] {
            let entry = crate::json::parse(text).expect("valid JSON");
            let spec = RunSpec::from_json(&entry, "jobs[0]").expect("valid entry");
            assert_eq!(
                spec,
                RunSpec {
                    cols: 4,
                    rows: 4,
                    topology: TopologyChoice::Mesh,
                    vcs: 2,
                    buffer_depth: 8,
                    placement: CompressionPlacement::Disco,
                    scheme: SchemeKind::Delta,
                    benchmark: Benchmark::Blackscholes,
                    trace_len: 10000,
                    seed: 1,
                    cc_threshold: disco.cc_threshold,
                    cd_threshold: disco.cd_threshold,
                    gamma: disco.gamma,
                    alpha: disco.alpha,
                    beta: disco.beta,
                    max_cycles: 0,
                    fault_rate: 0.0,
                },
                "{text}"
            );
        }
    }
}
