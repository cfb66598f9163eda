//! The batch exploration driver: enumerate the space, skip journaled
//! points, fan the rest across workers, journal completions in chunks,
//! and — once the space is exhausted — compute the frontier and render
//! the versioned `disco-pareto/1` JSON.
//!
//! Everything downstream of the journal is a pure function of the
//! design space, so the rendered JSON is byte-identical for any worker
//! count and across any kill-and-resume sequence. No wall-clock value
//! ever reaches the journal or the JSON.

use std::path::PathBuf;

use disco_core::CompressionPlacement;
use disco_energy::AreaModel;

use crate::exec::{fan_out, oversubscription_warning};
use crate::frontier::{self, Frontier};
use crate::journal::{Journal, JournalEntry};
use crate::json::json_escape;
use crate::space::DesignSpace;
use crate::spec::RunSpec;

/// One exploration request.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// The declared space.
    pub space: DesignSpace,
    /// Worker threads fanning over points (≤ 1 = serial).
    pub workers: usize,
    /// Ignored: every point runs once, on one thread. The field remains
    /// only so existing struct literals keep compiling.
    pub shards: usize,
    /// Journal path; `None` explores entirely in memory (no resume).
    pub journal: Option<PathBuf>,
    /// Budget: at most this many *new* points this invocation (0 =
    /// unlimited). An exhausted budget leaves the journal resumable.
    pub max_points: usize,
}

impl ExploreConfig {
    /// A serial, un-journaled exploration of `space`.
    pub fn new(space: DesignSpace) -> Self {
        ExploreConfig {
            space,
            workers: 1,
            shards: 1,
            journal: None,
            max_points: 0,
        }
    }
}

/// What one `explore` invocation accomplished.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// Points in the declared space.
    pub total: usize,
    /// Points newly simulated by this invocation.
    pub completed: usize,
    /// Points still missing afterwards (> 0 means the budget ran out:
    /// rerun with the same journal to continue).
    pub remaining: usize,
    /// Configuration warnings (JSON lines; empty when sound).
    pub warnings: Vec<String>,
    /// The frontier census, once the space is fully explored.
    pub frontier: Option<Frontier>,
    /// The rendered `disco-pareto/1` JSON, once fully explored.
    pub json: Option<String>,
}

/// Journal-append chunk size: a kill forfeits at most this many
/// finished points, and entries still land in id order because the
/// fan-out preserves item order within each chunk.
const CHUNK: usize = 8;

/// Runs (or resumes) one exploration. See [`ExploreConfig`] and the
/// crate docs for the determinism contract.
///
/// # Panics
///
/// Panics if a design point fails to simulate or journal I/O fails —
/// batch-driver conditions where continuing would corrupt the census.
pub fn explore(cfg: &ExploreConfig) -> ExploreOutcome {
    let points = cfg.space.points();
    let journal = cfg.journal.as_ref().map(Journal::new);
    let mut done = journal.as_ref().map(|j| j.load()).unwrap_or_default();
    // A stale journal with ids beyond the space means the space shrank
    // under an existing journal file: refuse to blend two explorations.
    if let Some(max) = done.keys().next_back() {
        assert!(
            (*max as usize) < points.len(),
            "journal contains point id {max} but the space has only {} points — \
             stale journal for a different space?",
            points.len()
        );
    }

    let mut warnings = Vec::new();
    let host = std::thread::available_parallelism().map_or(0, |n| n.get());
    if let Some(w) = oversubscription_warning("pareto", cfg.workers, host) {
        warnings.push(w);
    }

    let mut pending: Vec<(u64, &RunSpec)> = (0u64..)
        .zip(&points)
        .filter(|(id, _)| !done.contains_key(id))
        .collect();
    if cfg.max_points > 0 {
        pending.truncate(cfg.max_points);
    }

    let mut completed = 0;
    for chunk in pending.chunks(CHUNK.max(cfg.workers)) {
        let entries = fan_out(chunk, cfg.workers, |&(id, spec)| run_point(id, spec));
        if let Some(j) = &journal {
            j.append(&entries);
        }
        completed += entries.len();
        for e in entries {
            done.insert(e.id, e);
        }
    }

    let remaining = points.len() - done.len();
    let (frontier, json) = if remaining == 0 {
        let objectives: Vec<_> = done.values().map(|e| (e.id, e.objectives())).collect();
        let frontier = frontier::compute(&objectives);
        let json = render(&cfg.space, &points, &done, &frontier);
        (Some(frontier), Some(json))
    } else {
        (None, None)
    };

    ExploreOutcome {
        total: points.len(),
        completed,
        remaining,
        warnings,
        frontier,
        json,
    }
}

/// Simulates one point and derives its objectives + energy breakdown.
fn run_point(id: u64, spec: &RunSpec) -> JournalEntry {
    let report = spec
        .builder()
        .run()
        .unwrap_or_else(|e| panic!("point {id} ({spec:?}) failed: {e:?}"));
    let er = report.energy_report();
    JournalEntry {
        id,
        latency: report.avg_onchip_latency(),
        pj_per_cycle: er.pj_per_cycle(),
        area_mm2: added_area(spec),
        noc_dynamic_pj: er.breakdown.noc_dynamic_pj,
        noc_static_pj: er.breakdown.noc_static_pj,
        cache_dynamic_pj: er.breakdown.cache_dynamic_pj,
        cache_static_pj: er.breakdown.cache_static_pj,
        compressor_pj: er.breakdown.compressor_pj,
        deterministic: true,
    }
}

/// Silicon this point adds over the uncompressed plain-mesh baseline:
/// compression hardware per the placement's §4.3 cost, plus the
/// express-channel overlay when the topology has long-range links.
fn added_area(spec: &RunSpec) -> f64 {
    let tiles = spec.cols * spec.rows;
    let model = AreaModel::default();
    let compression = match spec.placement {
        CompressionPlacement::Baseline | CompressionPlacement::Ideal => 0.0,
        CompressionPlacement::CacheOnly => model.cc(tiles).added_mm2,
        CompressionPlacement::CacheAndNi => model.cnc(tiles).added_mm2,
        CompressionPlacement::Disco => model.disco(tiles).added_mm2,
    };
    let topo = spec.topology.build(spec.cols, spec.rows);
    compression + model.express(tiles, topo.express_link_count()).added_mm2
}

fn floats(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn names<T: Copy>(values: &[T], name: impl Fn(T) -> &'static str) -> String {
    values
        .iter()
        .map(|&v| format!("\"{}\"", json_escape(name(v))))
        .collect::<Vec<_>>()
        .join(",")
}

fn ints(values: &[usize]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders the versioned frontier JSON. `DesignSpace` and `RunSpec` are
/// destructured without `..`, so a new axis does not compile until it
/// is rendered here or waived with `_`.
fn render(
    space: &DesignSpace,
    points: &[RunSpec],
    done: &std::collections::BTreeMap<u64, JournalEntry>,
    frontier: &Frontier,
) -> String {
    use std::fmt::Write as _;
    let DesignSpace {
        cols,
        rows,
        trace_len,
        seed,
        topologies,
        vcs,
        buffer_depths,
        placements,
        schemes,
        cc_thresholds,
        cd_thresholds,
        gammas,
        alphas,
        betas,
        benchmarks,
    } = space;
    let mut out = String::new();
    out.push_str("{\n  \"format\": \"disco-pareto/1\",\n  \"space\": {\n");
    let _ = writeln!(out, "    \"cols\": {cols},");
    let _ = writeln!(out, "    \"rows\": {rows},");
    let _ = writeln!(out, "    \"trace_len\": {trace_len},");
    let _ = writeln!(out, "    \"seed\": {seed},");
    let _ = writeln!(
        out,
        "    \"topologies\": [{}],",
        names(topologies, |t| t.name())
    );
    let _ = writeln!(out, "    \"vcs\": [{}],", ints(vcs));
    let _ = writeln!(out, "    \"buffer_depths\": [{}],", ints(buffer_depths));
    let _ = writeln!(
        out,
        "    \"placements\": [{}],",
        names(placements, |p| p.name())
    );
    let _ = writeln!(out, "    \"schemes\": [{}],", names(schemes, |s| s.name()));
    let _ = writeln!(out, "    \"cc_thresholds\": [{}],", floats(cc_thresholds));
    let _ = writeln!(out, "    \"cd_thresholds\": [{}],", floats(cd_thresholds));
    let _ = writeln!(out, "    \"gammas\": [{}],", floats(gammas));
    let _ = writeln!(out, "    \"alphas\": [{}],", floats(alphas));
    let _ = writeln!(out, "    \"betas\": [{}],", floats(betas));
    let _ = writeln!(
        out,
        "    \"benchmarks\": [{}]",
        names(benchmarks, |b| b.name())
    );
    out.push_str("  },\n  \"points\": [\n");
    for (id, p) in (0u64..).zip(points) {
        let RunSpec {
            // Shared by every point; rendered once in the space block.
            cols: _,
            rows: _,
            trace_len: _,
            seed: _,
            topology,
            vcs,
            buffer_depth,
            placement,
            scheme,
            benchmark,
            cc_threshold,
            cd_threshold,
            gamma,
            alpha,
            beta,
            // Not axes: every point runs on the automatic cycle budget,
            // without faults (`DesignSpace::points`).
            max_cycles: _,
            fault_rate: _,
        } = p;
        let e = &done[&id];
        let _ = write!(
            out,
            "    {{\"id\":{id},\"topology\":\"{}\",\"vcs\":{vcs},\
             \"buffer_depth\":{buffer_depth},\"placement\":\"{}\",\"scheme\":\"{}\",\
             \"cc_threshold\":{cc_threshold:?},\"cd_threshold\":{cd_threshold:?},\
             \"gamma\":{gamma:?},\"alpha\":{alpha:?},\"beta\":{beta:?},\
             \"benchmark\":\"{}\",\"latency\":{:?},\"pj_per_cycle\":{:?},\
             \"area_mm2\":{:?},\"energy\":{{\"noc_dynamic_pj\":{:?},\
             \"noc_static_pj\":{:?},\"cache_dynamic_pj\":{:?},\"cache_static_pj\":{:?},\
             \"compressor_pj\":{:?}}},\"deterministic\":{}}}",
            json_escape(topology.name()),
            json_escape(placement.name()),
            json_escape(scheme.name()),
            json_escape(benchmark.name()),
            e.latency,
            e.pj_per_cycle,
            e.area_mm2,
            e.noc_dynamic_pj,
            e.noc_static_pj,
            e.cache_dynamic_pj,
            e.cache_static_pj,
            e.compressor_pj,
            e.deterministic,
        );
        out.push_str(if id + 1 < points.len() as u64 {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"frontier\": [{}],",
        frontier
            .frontier
            .iter()
            .map(|id| id.to_string())
            .collect::<Vec<_>>()
            .join(",")
    );
    let _ = writeln!(
        out,
        "  \"dominated\": [{}]",
        frontier
            .dominated
            .iter()
            .map(|d| format!("{{\"id\":{},\"dominator\":{}}}", d.id, d.dominator))
            .collect::<Vec<_>>()
            .join(",")
    );
    out.push_str("}\n");
    out
}
