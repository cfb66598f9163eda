//! NoC configuration (Table 2 defaults).

/// Flow-control policies (§3.3-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlowControl {
    /// Flit-granular wormhole with credit-based backpressure (Table 2
    /// default). Packets may be split across routers; in-network
    /// compression must use the separate-flit mode.
    #[default]
    Wormhole,
    /// Virtual cut-through: a packet advances only when the downstream
    /// virtual channel can hold it entirely, so whole packets stay
    /// together.
    VirtualCutThrough,
    /// Store-and-forward: additionally, a head flit leaves only after the
    /// whole packet has been buffered locally.
    StoreAndForward,
}

/// Packet-scheduling policy knobs (§3.3-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulingPolicy {
    /// Rule 1: read requests and responses win switch allocation over
    /// coherence traffic.
    pub prioritize_critical: bool,
    /// Rule 2 (DISCO): compressible-but-still-uncompressed packets get the
    /// lowest priority, raising their chance of idling next to a
    /// compressor.
    pub demote_uncompressed: bool,
}

impl Default for SchedulingPolicy {
    fn default() -> Self {
        SchedulingPolicy {
            prioritize_critical: true,
            demote_uncompressed: false,
        }
    }
}

use crate::routing::RoutingAlgorithm;

/// Router and network parameters. Defaults follow Table 2: 3 pipeline
/// stages, wormhole flow control, 8-flit buffers, 2 virtual channels,
/// XY routing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Virtual channels per input port.
    pub vcs: usize,
    /// Buffer depth per virtual channel, in flits.
    pub buffer_depth: usize,
    /// Router pipeline depth in cycles (a hop costs `pipeline_stages` + 1
    /// link cycle).
    pub pipeline_stages: u64,
    /// Flow control policy.
    pub flow_control: FlowControl,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Switch-allocation priority rules.
    pub scheduling: SchedulingPolicy,
    /// Shards for the compute phase: `0` (auto) and `1` run the serial
    /// path — no network this repository simulates is large enough for
    /// the worker pool to win — and larger values force that many
    /// shards (clamped to the router count). The pool runs at most one
    /// thread per host core whatever the shard count. Results are
    /// byte-identical for every value — sharding only changes
    /// wall-clock, never simulated behaviour.
    pub compute_shards: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            vcs: 2,
            buffer_depth: 8,
            pipeline_stages: 3,
            flow_control: FlowControl::Wormhole,
            routing: RoutingAlgorithm::default(),
            scheduling: SchedulingPolicy::default(),
            compute_shards: 0,
        }
    }
}

impl NocConfig {
    /// The cheap low-buffer ring router of "A Ring Router
    /// Microarchitecture for NoCs" (arxiv 2007.02242): a single-stage
    /// pipeline with 4-flit buffers, wormhole flow control, and the 4
    /// VCs the ring's dateline discipline needs. Pair with
    /// [`crate::topology::Ring`] or
    /// [`crate::topology::HierarchicalRing`].
    pub fn low_buffer_ring() -> Self {
        NocConfig {
            vcs: 4,
            buffer_depth: 4,
            pipeline_stages: 1,
            ..NocConfig::default()
        }
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn validate(&self) {
        assert!(self.vcs >= 1, "at least one virtual channel required");
        assert!(
            self.buffer_depth >= 1,
            "buffers must hold at least one flit"
        );
        assert!(
            self.pipeline_stages >= 1,
            "pipeline must be at least one stage"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table2() {
        let c = NocConfig::default();
        assert_eq!(c.vcs, 2);
        assert_eq!(c.buffer_depth, 8);
        assert_eq!(c.pipeline_stages, 3);
        assert_eq!(c.flow_control, FlowControl::Wormhole);
        assert_eq!(c.routing, RoutingAlgorithm::Xy);
        assert!(c.scheduling.prioritize_critical);
        assert!(!c.scheduling.demote_uncompressed);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "virtual channel")]
    fn zero_vcs_rejected() {
        NocConfig {
            vcs: 0,
            ..NocConfig::default()
        }
        .validate();
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

impl disco_snapshot::Snap for FlowControl {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        w.put(&match self {
            FlowControl::Wormhole => 0u8,
            FlowControl::VirtualCutThrough => 1,
            FlowControl::StoreAndForward => 2,
        });
    }
    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(match r.take::<u8>()? {
            0 => FlowControl::Wormhole,
            1 => FlowControl::VirtualCutThrough,
            2 => FlowControl::StoreAndForward,
            tag => return Err(disco_snapshot::malformed(format!("FlowControl tag {tag}"))),
        })
    }
}

disco_snapshot::snap_fields!(SchedulingPolicy {
    prioritize_critical,
    demote_uncompressed,
});

disco_snapshot::snap_fields!(NocConfig {
    vcs,
    buffer_depth,
    pipeline_stages,
    flow_control,
    routing,
    scheduling,
    compute_shards,
});
