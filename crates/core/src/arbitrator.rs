//! The DISCO arbitrator: packet filter + confidence counter (Fig. 3).
//!
//! Switch/VC-allocation losers are candidate packets; the confidence
//! counter estimates how long each will keep idling from the credit
//! signals (local `credit_out`, downstream `credit_in`) and, for
//! decompression, the remaining hop count (`RC_Hop`) — and only packets
//! whose confidence clears the thresholds `CC_th` / `CD_th` enter the
//! compressor, avoiding "hasty decisions" that would stall a packet the
//! switch is about to serve (§3.2 step 2).

/// Tunable DISCO parameters. The paper trains γ, α, β and the thresholds
/// offline from NoC traces and then fixes them; these defaults are tuned
/// the same way on our synthetic traces, and `disco-bench`'s
/// `ablation_confidence` binary sweeps them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoParams {
    /// Compression threshold `CC_th` (Eq. 1).
    pub cc_threshold: f64,
    /// Decompression threshold `CD_th` (Eq. 2).
    pub cd_threshold: f64,
    /// Local-pressure coefficient γ for compression (Eq. 1).
    pub gamma: f64,
    /// Local-pressure coefficient α for decompression (Eq. 2).
    pub alpha: f64,
    /// Distance coefficient β for decompression (Eq. 2): penalizes early
    /// decompression far from the destination.
    pub beta: f64,
    /// Non-blocking de/compression (§3.2 step 3): during the initial
    /// latency window the shadow packet stays schedulable and a grant
    /// aborts the operation. When `false`, the VC is locked for the whole
    /// operation (the ablation baseline).
    pub non_blocking: bool,
    /// Online congestion-aware threshold adaptation. The paper keeps the
    /// thresholds "deterministic for simplicity" but notes they depend on
    /// the congestion condition; with this extension enabled, each
    /// arbitrator nudges its effective thresholds every
    /// [`DiscoParams::epoch_cycles`]: up when the abort rate shows hasty
    /// decisions, down when congestion is high but the engine sits idle.
    pub adaptive: bool,
    /// Adaptation epoch length in cycles.
    pub epoch_cycles: u64,
    /// Compressor engines per router (the paper's router has one; more
    /// engines buy in-network coverage with proportional §4.3 area).
    pub engines_per_router: usize,
}

impl Default for DiscoParams {
    fn default() -> Self {
        DiscoParams {
            cc_threshold: 0.5,
            cd_threshold: 0.5,
            gamma: 0.5,
            alpha: 0.5,
            beta: 1.5,
            non_blocking: true,
            adaptive: false,
            epoch_cycles: 1_024,
            engines_per_router: 1,
        }
    }
}

/// The congestion signals of one candidate packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pressure {
    /// Occupied slots in the packet's own input VC (the complement of the
    /// `credit_out` this router reports upstream): local contention.
    pub local_occupancy: usize,
    /// Occupied slots downstream on the packet's RC-computed output port
    /// (buffer depth − `credit_in`): remote contention.
    pub remote_occupancy: usize,
    /// Hops remaining to the destination (`RC_Hop`).
    pub hops_remaining: usize,
}

impl DiscoParams {
    /// Eq. (1): confidence that an *uncompressed* candidate will idle long
    /// enough to hide compression.
    pub fn compression_confidence(&self, p: &Pressure) -> f64 {
        p.remote_occupancy as f64 + self.gamma * p.local_occupancy as f64
    }

    /// Eq. (2): confidence for a *compressed* candidate, discounted by the
    /// distance still to travel (early decompression wastes the traffic
    /// reduction).
    pub fn decompression_confidence(&self, p: &Pressure) -> f64 {
        p.remote_occupancy as f64 + self.alpha * p.local_occupancy as f64
            - self.beta * p.hops_remaining as f64
    }

    /// Should this uncompressed candidate be sent to the compressor?
    pub fn should_compress(&self, p: &Pressure) -> bool {
        self.compression_confidence(p) > self.cc_threshold
    }

    /// Should this compressed candidate be sent to the decompressor?
    pub fn should_decompress(&self, p: &Pressure) -> bool {
        self.decompression_confidence(p) > self.cd_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(local: usize, remote: usize, hops: usize) -> Pressure {
        Pressure {
            local_occupancy: local,
            remote_occupancy: remote,
            hops_remaining: hops,
        }
    }

    #[test]
    fn idle_network_never_compresses() {
        let params = DiscoParams::default();
        assert!(!params.should_compress(&p(1, 0, 3)));
        assert!(!params.should_decompress(&p(1, 0, 3)));
    }

    #[test]
    fn congestion_triggers_compression() {
        let params = DiscoParams::default();
        assert!(params.should_compress(&p(6, 6, 3)));
        // Remote pressure alone can suffice.
        assert!(params.should_compress(&p(0, 3, 3)));
    }

    #[test]
    fn early_decompression_suppressed_by_distance() {
        let params = DiscoParams::default();
        let near = p(4, 4, 0);
        let far = p(4, 4, 5);
        assert!(params.should_decompress(&near));
        assert!(
            !params.should_decompress(&far),
            "β·RC_Hop must veto early decompression"
        );
    }

    #[test]
    fn confidence_is_monotone_in_pressure() {
        let params = DiscoParams::default();
        let base = params.compression_confidence(&p(2, 2, 3));
        assert!(params.compression_confidence(&p(3, 2, 3)) > base);
        assert!(params.compression_confidence(&p(2, 3, 3)) > base);
    }

    #[test]
    fn thresholds_are_tunable() {
        let strict = DiscoParams {
            cc_threshold: 100.0,
            ..DiscoParams::default()
        };
        assert!(!strict.should_compress(&p(8, 8, 0)));
        let eager = DiscoParams {
            cc_threshold: -1.0,
            ..DiscoParams::default()
        };
        assert!(eager.should_compress(&p(0, 0, 0)));
    }
}

disco_snapshot::snap_fields!(DiscoParams {
    cc_threshold,
    cd_threshold,
    gamma,
    alpha,
    beta,
    non_blocking,
    adaptive,
    epoch_cycles,
    engines_per_router,
});
