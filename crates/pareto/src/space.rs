//! The declared design space and its deterministic enumeration.
//!
//! A [`DesignSpace`] names every axis the exploration sweeps; `points()`
//! expands the cartesian product into [`RunSpec`]s whose index is the
//! point id. The enumeration order is part of the format: point ids key
//! the journal and the rendered frontier JSON, so the loops below are
//! ordered outermost-to-innermost exactly as the fields are declared and
//! must never be reordered without bumping the output version.
//!
//! Axes that a placement cannot express are *not* multiplied out —
//! Baseline carries no codec, and only DISCO consults the arbitration
//! thresholds — so the space never contains two ids that describe the
//! same simulation.

use disco_compress::SchemeKind;
use disco_core::CompressionPlacement;
use disco_noc::TopologyChoice;
use disco_workloads::Benchmark;

use crate::spec::RunSpec;

/// The declared axes of one exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Mesh columns (fixed per space; the grid is not an axis because
    /// latency across different tile counts is not comparable).
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Accesses per core.
    pub trace_len: usize,
    /// RNG seed shared by every point (points differ by configuration,
    /// not by luck).
    pub seed: u64,
    /// NoC topologies.
    pub topologies: Vec<TopologyChoice>,
    /// Virtual channels per input port (raised to the topology's
    /// deadlock-freedom minimum at run time).
    pub vcs: Vec<usize>,
    /// Buffer depth per VC, flits.
    pub buffer_depths: Vec<usize>,
    /// Compression placements.
    pub placements: Vec<CompressionPlacement>,
    /// Codecs (skipped for Baseline, which carries none).
    pub schemes: Vec<SchemeKind>,
    /// `CC_th` candidates (DISCO only).
    pub cc_thresholds: Vec<f64>,
    /// `CD_th` candidates (DISCO only).
    pub cd_thresholds: Vec<f64>,
    /// γ candidates (DISCO only).
    pub gammas: Vec<f64>,
    /// α candidates (DISCO only).
    pub alphas: Vec<f64>,
    /// β candidates (DISCO only).
    pub betas: Vec<f64>,
    /// Workloads.
    pub benchmarks: Vec<Benchmark>,
}

impl DesignSpace {
    /// The CI smoke space: two topologies (plain mesh vs express mesh),
    /// every placement family from the paper's §4.1 comparison, two
    /// codecs, one threshold setting — small enough to explore in
    /// minutes, wide enough that the frontier shows a real trade-off.
    /// 4x4 so the span-2 express links of `xmesh` actually exist (at
    /// 2x2 the overlay is empty and `xmesh` degenerates to `mesh`).
    pub fn smoke() -> Self {
        DesignSpace {
            cols: 4,
            rows: 4,
            trace_len: 300,
            seed: 7,
            topologies: vec![TopologyChoice::Mesh, TopologyChoice::XMesh],
            vcs: vec![2],
            buffer_depths: vec![4],
            placements: vec![
                CompressionPlacement::Baseline,
                CompressionPlacement::CacheOnly,
                CompressionPlacement::CacheAndNi,
                CompressionPlacement::Disco,
            ],
            schemes: vec![SchemeKind::Bdi, SchemeKind::Fpc],
            cc_thresholds: vec![0.5],
            cd_thresholds: vec![0.5],
            gammas: vec![0.5],
            alphas: vec![0.5],
            betas: vec![1.5],
            benchmarks: vec![Benchmark::Swaptions],
        }
    }

    /// The full overnight space: every topology and placement, every
    /// codec, and a threshold/coefficient grid around the paper's
    /// operating point. Thousands of points — meant for `disco-pareto`
    /// batch runs with a journal, not for tests.
    pub fn full() -> Self {
        DesignSpace {
            cols: 4,
            rows: 4,
            trace_len: 2_000,
            seed: 7,
            topologies: TopologyChoice::ALL.to_vec(),
            vcs: vec![2, 4],
            buffer_depths: vec![4, 8],
            placements: CompressionPlacement::ALL.to_vec(),
            schemes: SchemeKind::ALL.to_vec(),
            cc_thresholds: vec![0.4, 0.6],
            cd_thresholds: vec![0.4, 0.6],
            gammas: vec![0.25, 0.5],
            alphas: vec![0.5],
            betas: vec![1.0, 1.5],
            benchmarks: vec![
                Benchmark::Swaptions,
                Benchmark::Canneal,
                Benchmark::Fluidanimate,
            ],
        }
    }

    /// Expands the axes into design points; a point's index is its id.
    ///
    /// Collapse rules (each skipped axis pins its *first* declared
    /// value): Baseline takes one scheme slot — it compresses nothing,
    /// so codecs are indistinguishable; every non-DISCO placement takes
    /// one threshold/coefficient slot — nothing else consults the DISCO
    /// parameters. Two distinct ids therefore always describe two
    /// distinct simulations.
    ///
    /// # Panics
    ///
    /// Panics if any axis is empty — an empty axis silently explores
    /// nothing, which is never what a batch driver wants.
    pub fn points(&self) -> Vec<RunSpec> {
        for (name, len) in [
            ("topologies", self.topologies.len()),
            ("vcs", self.vcs.len()),
            ("buffer_depths", self.buffer_depths.len()),
            ("placements", self.placements.len()),
            ("schemes", self.schemes.len()),
            ("cc_thresholds", self.cc_thresholds.len()),
            ("cd_thresholds", self.cd_thresholds.len()),
            ("gammas", self.gammas.len()),
            ("alphas", self.alphas.len()),
            ("betas", self.betas.len()),
            ("benchmarks", self.benchmarks.len()),
        ] {
            assert!(len > 0, "design-space axis `{name}` is empty");
        }
        let mut out = Vec::new();
        let defaults = (
            self.cc_thresholds[0],
            self.cd_thresholds[0],
            self.gammas[0],
            self.alphas[0],
            self.betas[0],
        );
        for &topology in &self.topologies {
            for &vcs in &self.vcs {
                for &buffer_depth in &self.buffer_depths {
                    for &placement in &self.placements {
                        let schemes: &[SchemeKind] = if placement.compressed_storage() {
                            &self.schemes
                        } else {
                            &self.schemes[..1]
                        };
                        for &scheme in schemes {
                            let mut push = |cc, cd, gamma, alpha, beta, bench| {
                                out.push(RunSpec {
                                    cols: self.cols,
                                    rows: self.rows,
                                    topology,
                                    vcs,
                                    buffer_depth,
                                    placement,
                                    scheme,
                                    benchmark: bench,
                                    trace_len: self.trace_len,
                                    seed: self.seed,
                                    cc_threshold: cc,
                                    cd_threshold: cd,
                                    gamma,
                                    alpha,
                                    beta,
                                    compute_shards: 1,
                                    max_cycles: 0,
                                    fault_rate: 0.0,
                                });
                            };
                            if placement == CompressionPlacement::Disco {
                                for &cc in &self.cc_thresholds {
                                    for &cd in &self.cd_thresholds {
                                        for &gamma in &self.gammas {
                                            for &alpha in &self.alphas {
                                                for &beta in &self.betas {
                                                    for &bench in &self.benchmarks {
                                                        push(cc, cd, gamma, alpha, beta, bench);
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            } else {
                                let (cc, cd, gamma, alpha, beta) = defaults;
                                for &bench in &self.benchmarks {
                                    push(cc, cd, gamma, alpha, beta, bench);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential_and_enumeration_is_stable() {
        let space = DesignSpace::smoke();
        let points = space.points();
        assert_eq!(points, space.points(), "enumeration must be deterministic");
        // Smoke space: 2 topologies × (Baseline·1 + CC·2 + CNC·2 +
        // DISCO·2 schemes) = 14 points.
        assert_eq!(points.len(), 14);
    }

    #[test]
    fn baseline_and_thresholds_do_not_multiply() {
        let mut space = DesignSpace::smoke();
        space.cc_thresholds = vec![0.3, 0.5, 0.7];
        let points = space.points();
        // Only DISCO points expand the threshold axis.
        let disco = points
            .iter()
            .filter(|p| p.placement == CompressionPlacement::Disco)
            .count();
        let baseline = points
            .iter()
            .filter(|p| p.placement == CompressionPlacement::Baseline)
            .count();
        assert_eq!(disco, 2 * 2 * 3, "topologies × schemes × cc_thresholds");
        assert_eq!(baseline, 2, "one Baseline point per topology");
        // No two ids describe the same simulation.
        for (i, a) in points.iter().enumerate() {
            for (j, b) in points.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "ids {i} and {j} collapse to one simulation");
            }
        }
    }

    #[test]
    #[should_panic(expected = "axis `benchmarks` is empty")]
    fn empty_axes_are_rejected() {
        let mut space = DesignSpace::smoke();
        space.benchmarks.clear();
        let _ = space.points();
    }

    #[test]
    fn full_space_covers_every_declared_variant() {
        let points = DesignSpace::full().points();
        for t in TopologyChoice::ALL {
            assert!(
                points.iter().any(|p| p.topology == t),
                "{} missing",
                t.name()
            );
        }
        for pl in CompressionPlacement::ALL {
            assert!(points.iter().any(|p| p.placement == pl), "{pl} missing");
        }
        for s in SchemeKind::ALL {
            assert!(points.iter().any(|p| p.scheme == s), "{} missing", s.name());
        }
    }
}
