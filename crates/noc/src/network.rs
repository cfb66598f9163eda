//! The cycle-stepped network: routers, links, NI injection/ejection, and
//! the extension API the DISCO layer drives.
//!
//! One [`Network::tick`] is NI injection, then one pass over the routers
//! in node order: each router's RC/VA/SA decisions (`compute_router` in
//! `phase.rs`) are committed at once (`commit.rs`), while the two
//! effects that reach a neighbour —
//! a flit crossing a link and a credit returned upstream — wait in a
//! per-cycle list until the last router is done. Each router therefore
//! decides from cycle-start state; the node order decides only the
//! order of the trace.
//! The per-slot loops outside the pass — NI injection and delivery
//! pickup — visit only the tiles a bitset marks busy.

use crate::bits::BitSet;
use crate::commit::LinkEffects;
use crate::config::{FlowControl, NocConfig};
use crate::packet::{flit_at, Packet, PacketClass, PacketId, PacketStore, Payload};
use crate::phase::{ComputeScratch, RouterOutcome};
use crate::router::Router;
use crate::stats::NetworkStats;
use crate::topology::{NodeId, PortId, Topology, TopologySpec};
use std::collections::VecDeque;

/// The router pass's reusable working memory: one outcome slot, the
/// RC/VA/SA scratch space and the deferred link effects. Allocations
/// grow to their high-water mark once and are reused every cycle
/// afterwards — the steady-state pass allocates nothing. Everything in
/// it is empty between ticks.
#[derive(Debug, Default)]
struct ComputeArena {
    /// The outcome of the router under commit.
    outcome: RouterOutcome,
    /// Request masks and loser list reused across routers.
    scratch: ComputeScratch,
    /// Link deliveries and credit returns, applied after the last router.
    links: LinkEffects,
}

/// Maximum packet size in flits: an uncompressed 64 B payload.
pub const MAX_PACKET_FLITS: usize = disco_compress::LINE_BYTES / crate::packet::FLIT_BYTES;

/// In-progress injection of one packet at a node's NI.
#[derive(Debug, Clone, Copy)]
struct InjectProgress {
    packet: PacketId,
    sent: usize,
    total: usize,
}

/// The network, over any [`Topology`].
///
/// ```
/// use disco_noc::{Network, NocConfig};
/// use disco_noc::topology::{Mesh, NodeId};
/// use disco_noc::packet::{PacketClass, Payload};
///
/// let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
/// net.send(NodeId(0), NodeId(15), PacketClass::Request, Payload::None, false, 7);
/// while net.take_delivered(NodeId(15)).is_empty() {
///     net.tick();
///     assert!(net.now() < 1_000, "packet must arrive");
/// }
/// ```
#[derive(Debug)]
pub struct Network {
    pub(crate) topology: Topology,
    pub(crate) config: NocConfig,
    pub(crate) routers: Vec<Router>,
    pub(crate) store: PacketStore,
    /// Per-tile, per-VC injection queues.
    inject_q: Vec<Vec<VecDeque<PacketId>>>,
    /// Per-tile in-flight injection (one NI port, one packet at a time
    /// per VC).
    inject_progress: Vec<Vec<Option<InjectProgress>>>,
    /// Round-robin over VCs for the single NI injection port.
    inject_rr: Vec<usize>,
    /// Per-tile count of packets queued or in flight at the NI. Rebuilt
    /// from the queues on restore.
    inject_pending: Vec<u32>,
    /// Tiles whose `inject_pending` is non-zero: the only tiles NI
    /// injection visits. Rebuilt on restore.
    inject_busy: BitSet,
    /// Packets fully ejected at each tile, awaiting pickup.
    delivered: Vec<Vec<PacketId>>,
    /// Tiles whose `delivered` list is non-empty. Rebuilt on restore.
    delivery_busy: BitSet,
    pub(crate) stats: NetworkStats,
    pub(crate) now: u64,
    /// The router pass's arena, taken out of `self` for the duration of
    /// each tick's pass so compute can borrow the network immutably and
    /// commit mutably while the arena is borrowed on its own.
    arena: ComputeArena,
    /// Cycle-stamped trace event collector, present only while tracing
    /// is on ([`Network::set_trace_capacity`]). Fed only from NI
    /// injection and the router pass's commits, in node order.
    pub(crate) tracer: Option<disco_trace::Tracer>,
    /// Commit-side fault injection/recovery state, present only while a
    /// plan with a non-zero schedule is installed
    /// ([`Network::set_fault_plan`]). Boxed so the commit pass's
    /// per-departure `take`/put-back moves a pointer, not the context.
    pub(crate) faults: Option<Box<crate::faults::FaultCtx>>,
}

impl Network {
    /// Builds an idle network over `spec`'s topology.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, if a non-wormhole flow
    /// control is paired with buffers too small to hold a whole packet
    /// (§3.3-A requires whole-packet residency for VCT/SAF), or if the
    /// topology's dateline discipline needs more VCs than configured
    /// ([`Topology::min_vcs`]).
    pub fn new(spec: impl TopologySpec, config: NocConfig) -> Self {
        config.validate();
        if config.flow_control != FlowControl::Wormhole {
            assert!(
                config.buffer_depth >= MAX_PACKET_FLITS,
                "VCT/SAF need buffer_depth >= {MAX_PACKET_FLITS} to hold a whole packet"
            );
        }
        let topology = spec.build();
        assert!(
            config.vcs >= topology.min_vcs(),
            "{} needs at least {} virtual channels for its dateline discipline, got {}",
            topology.name(),
            topology.min_vcs(),
            config.vcs
        );
        let routers = topology.routers();
        let tiles = topology.tiles();
        let radix = topology.radix();
        let link_ports = topology.link_ports();
        Network {
            topology,
            config,
            routers: (0..routers)
                .map(|i| Router::new(NodeId(i), config, radix, link_ports))
                .collect(),
            store: PacketStore::new(),
            inject_q: vec![vec![VecDeque::new(); config.vcs]; tiles],
            inject_progress: vec![vec![None; config.vcs]; tiles],
            inject_rr: vec![0; tiles],
            inject_pending: vec![0; tiles],
            inject_busy: BitSet::new(tiles),
            delivered: vec![Vec::new(); tiles],
            delivery_busy: BitSet::new(tiles),
            stats: NetworkStats::new(),
            now: 0,
            arena: ComputeArena::default(),
            tracer: None,
            faults: None,
        }
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The network's topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The configuration.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Accumulated event counters.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Read access to the trace event collector (`None` while tracing
    /// is off).
    pub fn tracer(&self) -> Option<&disco_trace::Tracer> {
        self.tracer.as_ref()
    }

    /// Mutable access to the trace collector: harnesses drain it once
    /// per cycle for lossless capture.
    pub fn tracer_mut(&mut self) -> Option<&mut disco_trace::Tracer> {
        self.tracer.as_mut()
    }

    /// True while a tracer is attached — the check
    /// [`disco_trace::emit!`] makes before building an event.
    pub fn is_tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records one event at the current cycle — the sink surface
    /// [`disco_trace::emit!`] uses from the NoC and the layers above it
    /// (codec engines, endpoint codecs). A no-op while tracing is off.
    /// Marked cold so untraced emission sites stay off the hot path.
    #[cold]
    pub fn trace_record(&mut self, event: disco_trace::Event) {
        if let Some(tracer) = &mut self.tracer {
            tracer.trace_record(event);
        }
    }

    /// Turns tracing on with a drop-oldest ring of `capacity` records,
    /// re-bounds the ring if tracing is already on, or — with
    /// `capacity == 0` — turns tracing off and frees the ring.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        if capacity == 0 {
            self.tracer = None;
            return;
        }
        match &mut self.tracer {
            Some(tracer) => tracer.set_capacity(capacity),
            None => {
                let mut tracer = disco_trace::Tracer::with_capacity(capacity);
                tracer.set_cycle(self.now);
                self.tracer = Some(tracer);
            }
        }
    }

    /// Test-only mutable counters (e.g. staging a routing violation for
    /// the health-check diagnostics).
    #[cfg(test)]
    pub(crate) fn stats_mut(&mut self) -> &mut NetworkStats {
        &mut self.stats
    }

    /// The central packet store.
    pub fn store(&self) -> &PacketStore {
        &self.store
    }

    /// Mutable packet store (the DISCO layer swaps payloads here).
    pub fn store_mut(&mut self) -> &mut PacketStore {
        &mut self.store
    }

    /// Read access to a router (extension API).
    pub fn router(&self, node: NodeId) -> &Router {
        &self.routers[node.0]
    }

    /// Write access to a router (extension API: locking VCs).
    pub fn router_mut(&mut self, node: NodeId) -> &mut Router {
        &mut self.routers[node.0]
    }

    /// Enqueues a packet for injection at tile `src`'s NI. Returns its id.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        class: PacketClass,
        payload: Payload,
        compressible: bool,
        tag: u64,
    ) -> PacketId {
        let id = self
            .store
            .create(src, dst, class, payload, compressible, self.now, tag);
        // Balance injection across the class's VC group. `validate()`
        // guarantees at least one VC, so the group is never empty and the
        // fallback VC 0 is unreachable.
        let vc = class
            .vc_range(self.config.vcs)
            .min_by_key(|&v| self.inject_q[src.0][v].len())
            .unwrap_or(0);
        self.inject_q[src.0][vc].push_back(id);
        self.inject_pending[src.0] += 1;
        self.inject_busy.insert(src.0);
        self.stats.packets_injected += 1;
        disco_trace::emit!(
            self,
            disco_trace::Event::Inject {
                packet: id.0,
                src: src.0 as u16,
                dst: dst.0 as u16,
                class: crate::stats::class_index(class) as u8,
                flits: self.store.get(id).size_flits() as u8,
            }
        );
        if let Some(ctx) = self.faults.as_mut() {
            ctx.on_send(id, &self.store);
        }
        id
    }

    /// Appends the packets fully delivered at tile `node` since the last
    /// drain to `out`, in delivery order, removing them from the store.
    /// The tile's id buffer keeps its capacity, so a caller that reuses
    /// `out` drains every cycle without allocating.
    pub fn drain_delivered(&mut self, node: NodeId, out: &mut Vec<Packet>) {
        let ids = &mut self.delivered[node.0];
        if ids.is_empty() {
            return;
        }
        let store = &mut self.store;
        out.extend(ids.drain(..).map(|id| store.remove(id)));
        self.delivery_busy.remove(node.0);
    }

    /// The first tile at or after `from` with delivered packets awaiting
    /// pickup, if any: a caller that drains every tile with deliveries
    /// in ascending order steps through them with this and
    /// [`Network::drain_delivered`], skipping the idle ones.
    pub fn next_delivery_tile(&self, from: NodeId) -> Option<NodeId> {
        self.delivery_busy.next_from(from.0).map(NodeId)
    }

    /// Queues a packet fully ejected at `tile` for pickup.
    pub(crate) fn push_delivered(&mut self, tile: NodeId, packet: PacketId) {
        self.delivered[tile.0].push(packet);
        self.delivery_busy.insert(tile.0);
    }

    /// Packets fully delivered at tile `node` since the last call,
    /// removed from the store: [`Network::drain_delivered`] into a fresh
    /// `Vec`.
    pub fn take_delivered(&mut self, node: NodeId) -> Vec<Packet> {
        let mut out = Vec::new();
        self.drain_delivered(node, &mut out);
        out
    }

    /// True when no packet is queued, in flight, or awaiting pickup, and
    /// no fault recovery (retransmission, in-progress drop) is pending.
    pub fn is_idle(&self) -> bool {
        if let Some(ctx) = &self.faults {
            if !ctx.quiescent() {
                return false;
            }
        }
        self.store.is_empty()
            && self.routers.iter().all(|r| r.total_buffered() == 0)
            && self.inject_busy.is_empty()
    }

    /// Checks run-time invariants across every router: per-router state
    /// legality ([`Router::check_invariants`]) and credit conservation —
    /// on each link, the upstream credit count plus the downstream buffer
    /// occupancy never exceeds the buffer depth (strict equality does not
    /// hold because the extension API may hold credits mid-reshape).
    ///
    /// Always compiled; [`Network::tick`] calls it every cycle in debug
    /// builds (every `cargo test` build).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        for r in &self.routers {
            r.check_invariants()?;
        }
        for node in 0..self.routers.len() {
            for port in 0..self.topology.link_ports() {
                let out = PortId(port);
                let Some((next, next_in)) = self.topology.out_link(NodeId(node), out) else {
                    continue;
                };
                for vc in 0..self.config.vcs {
                    let credits = self.routers[node].credit_in(out, vc);
                    let occupancy = self.routers[next.0].vc(next_in.0, vc).occupancy();
                    if credits + occupancy > self.config.buffer_depth {
                        return Err(format!(
                            "credit conservation violated on {}-{out}->{next} vc {vc}: \
                             {credits} credits + {occupancy} buffered > depth {}",
                            NodeId(node),
                            self.config.buffer_depth
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Advances the network one cycle: injection, then one pass over
    /// the routers in node order, each router's RC/VA/SA decided from
    /// its cycle-start state and committed at once (switch traversal,
    /// ejection), then the pass's deferred link deliveries and credit
    /// returns. Flits delivered downstream become ready only after the
    /// pipeline delay, so a flit advances at most one hop per cycle.
    pub fn tick(&mut self) {
        self.now += 1;
        self.stats.cycles += 1;
        if let Some(tracer) = &mut self.tracer {
            tracer.set_cycle(self.now);
        }
        crate::faults::drain_retransmits(self);
        self.inject();
        // Detach the arena from `self` so each compute can borrow the
        // network immutably, and each commit mutably, while the arena
        // stays borrowed.
        let mut arena = std::mem::take(&mut self.arena);
        self.router_pass(&mut arena);
        self.arena = arena;
        if cfg!(debug_assertions) {
            if let Err(msg) = self.check_invariants() {
                panic!("invariant violated: cycle {}: {msg}", self.now);
            }
        }
    }

    /// Runs [`crate::phase::compute_router`] and then
    /// [`crate::commit::commit_router`] for each router in node order,
    /// then applies the link effects the commits deferred. A router that
    /// holds no flit decides nothing and is not computed.
    fn router_pass(&mut self, arena: &mut ComputeArena) {
        let ComputeArena {
            outcome,
            scratch,
            links,
        } = arena;
        for node in 0..self.routers.len() {
            if self.routers[node].total_buffered() == 0 {
                crate::commit::commit_empty(&mut self.routers[node]);
                continue;
            }
            crate::phase::compute_router(
                &self.routers[node],
                self.now,
                &self.store,
                &self.topology,
                self.phase_gate(),
                scratch,
                outcome,
            );
            crate::commit::commit_router(self, node, outcome, links);
        }
        crate::commit::apply_link_effects(self, links);
    }

    /// NI injection: one flit per tile per cycle, round-robin over VCs.
    /// Each tile owns one local port on its router (tiles and routers
    /// coincide except on the concentrated mesh). Only tiles with a
    /// queued or in-flight packet are visited, in ascending order.
    fn inject(&mut self) {
        let mut next = self.inject_busy.next_from(0);
        while let Some(tile) = next {
            next = self.inject_busy.next_from(tile + 1);
            let vcs = self.config.vcs;
            let router = self.topology.router_of(NodeId(tile)).0;
            let local = self.topology.local_port(NodeId(tile)).0;
            let start = self.inject_rr[tile];
            for k in 0..vcs {
                // `start < vcs`: one subtraction wraps the VC index.
                let vc = if start + k >= vcs {
                    start + k - vcs
                } else {
                    start + k
                };
                if self.inject_progress[tile][vc].is_none() {
                    if let Some(&id) = self.inject_q[tile][vc].front() {
                        let total = self.store.get(id).size_flits();
                        self.inject_q[tile][vc].pop_front();
                        self.inject_progress[tile][vc] = Some(InjectProgress {
                            packet: id,
                            sent: 0,
                            total,
                        });
                        disco_trace::emit!(
                            self,
                            disco_trace::Event::NiStart {
                                packet: id.0,
                                node: tile as u16,
                            }
                        );
                    }
                }
                let Some(mut prog) = self.inject_progress[tile][vc] else {
                    continue;
                };
                if self.routers[router].free_slots(local, vc) == 0 {
                    continue;
                }
                let flit = flit_at(prog.packet, prog.sent, prog.total, self.now + 1);
                self.routers[router].accept(local, vc, flit);
                self.stats.buffer_writes += 1;
                prog.sent += 1;
                if prog.sent < prog.total {
                    self.inject_progress[tile][vc] = Some(prog);
                } else {
                    self.inject_progress[tile][vc] = None;
                    self.inject_pending[tile] -= 1;
                    if self.inject_pending[tile] == 0 {
                        self.inject_busy.remove(tile);
                    }
                    disco_trace::emit!(
                        self,
                        disco_trace::Event::NiDone {
                            packet: prog.packet.0,
                            node: tile as u16,
                        }
                    );
                }
                self.inject_rr[tile] = if vc + 1 == vcs { 0 } else { vc + 1 };
                break; // one flit per tile per cycle
            }
        }
    }

    // ------------------------------------------------------------------
    // Extension API for in-network de/compression (used by disco-core).
    // ------------------------------------------------------------------

    /// Replaces the resident flits of one packet in a VC with `new_len`
    /// flits, adjusting upstream credits for the freed (or consumed)
    /// slots. Growth fails (returns `false`) when the buffer or the
    /// upstream credit window cannot absorb it.
    ///
    /// `finalize` stamps proper head/tail kinds; mid-compression reshapes
    /// leave the packet tail-less so it cannot be mistaken for complete.
    pub fn reshape_resident(
        &mut self,
        node: NodeId,
        port: usize,
        vc: usize,
        packet: PacketId,
        new_len: usize,
        finalize: bool,
    ) -> bool {
        let seg_len = self.routers[node.0].vc(port, vc).resident_of(packet);
        if seg_len == 0 {
            return false;
        }
        let upstream = if port < self.topology.link_ports() {
            self.topology.in_source(node, PortId(port))
        } else {
            None
        };
        if new_len > seg_len {
            let growth = new_len - seg_len;
            if self.routers[node.0].free_slots(port, vc) < growth {
                return false;
            }
            if let Some((up, up_out)) = upstream {
                if !self.routers[up.0].try_take_credits(up_out, vc, growth) {
                    return false;
                }
            }
        }
        let delta =
            self.routers[node.0].reshape_packet(port, vc, packet, new_len, finalize, self.now);
        if delta < 0 {
            if let Some((up, up_out)) = upstream {
                for _ in 0..(-delta) {
                    self.routers[up.0].return_credit(up_out, vc);
                }
            }
        }
        true
    }

    /// Packets waiting in a tile's NI injection queue for `vc` (none of
    /// them has started injecting — the in-flight packet is popped when
    /// injection begins). These are idle whole packets the DISCO layer
    /// may compress in place.
    pub fn inject_backlog(&self, node: NodeId, vc: usize) -> &VecDeque<PacketId> {
        &self.inject_q[node.0][vc]
    }

    /// The downstream free-slot count on the route of the front packet of
    /// `(node, port, vc)` — `credit_in{RC(packet)}` of Eq. (1)/(2). Returns
    /// `None` when the packet has no computed route yet.
    pub fn downstream_credits(&self, node: NodeId, port: usize, vc: usize) -> Option<usize> {
        let r = &self.routers[node.0];
        let dir = r.vc(port, vc).routed_port()?;
        if self.topology.is_local(dir) {
            return Some(usize::MAX / 2);
        }
        // Pressure is the best case over the class group's downstream VCs
        // (the packet may win any of them).
        let class = r
            .vc(port, vc)
            .front_packet()
            .map(|p| self.store.get(p).class)?;
        class
            .vc_range(self.config.vcs)
            .map(|v| r.credit_in(dir, v))
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::flits_for;
    use crate::topology::{Mesh, Ring, TopologyChoice, Torus, EAST, WEST};
    use disco_compress::CacheLine;

    fn net(cols: usize, rows: usize) -> Network {
        Network::new(Mesh::new(cols, rows), NocConfig::default())
    }

    fn run_until_delivered(net: &mut Network, node: NodeId, limit: u64) -> Vec<Packet> {
        loop {
            let got = net.take_delivered(node);
            if !got.is_empty() {
                return got;
            }
            net.tick();
            assert!(net.now() < limit, "delivery deadline exceeded");
        }
    }

    #[test]
    fn single_flit_packet_crosses_mesh() {
        let mut n = net(4, 4);
        n.send(
            NodeId(0),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            9,
        );
        let got = run_until_delivered(&mut n, NodeId(15), 200);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 9);
        assert!(n.is_idle());
        assert_eq!(n.stats().packets_delivered, 1);
    }

    #[test]
    fn trace_capacity_switches_the_tracer_on_and_off() {
        let mut n = net(4, 4);
        assert!(n.tracer().is_none(), "a new network holds no tracer");
        n.set_trace_capacity(64);
        n.send(
            NodeId(0),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            9,
        );
        run_until_delivered(&mut n, NodeId(15), 200);
        let tracer = n.tracer().expect("capacity > 0 attaches a tracer");
        assert_eq!(tracer.capacity(), 64);
        assert!(tracer.emitted() > 0, "inject, NI and hop events recorded");
        n.set_trace_capacity(0);
        assert!(n.tracer().is_none(), "capacity 0 turns tracing off");
    }

    #[test]
    fn zero_load_latency_scales_with_hops() {
        // One hop vs six hops: latency difference ≈ 5 * per-hop cost.
        let mut a = net(4, 4);
        a.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            0,
        );
        run_until_delivered(&mut a, NodeId(1), 100);
        let lat1 = a.stats().avg_packet_latency();

        let mut b = net(4, 4);
        b.send(
            NodeId(0),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            0,
        );
        run_until_delivered(&mut b, NodeId(15), 100);
        let lat6 = b.stats().avg_packet_latency();
        let per_hop = (lat6 - lat1) / 5.0;
        assert!(
            (per_hop - (NocConfig::default().pipeline_stages as f64)).abs() <= 1.0,
            "per-hop cost {per_hop} should be ≈ pipeline depth"
        );
    }

    #[test]
    fn response_packet_carries_eight_flits() {
        let mut n = net(2, 2);
        let line = CacheLine::from_u64_words([42; 8]);
        n.send(
            NodeId(0),
            NodeId(3),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(3), 200);
        assert_eq!(got[0].size_flits(), 8);
        assert_eq!(n.stats().link_flits, 8 * 2); // 2 hops
        match &got[0].payload {
            Payload::Raw(l) => assert_eq!(*l, line),
            other => panic!("expected raw payload, got {other:?}"),
        }
    }

    #[test]
    fn many_packets_all_arrive() {
        let mut n = net(4, 4);
        let mut expected = vec![0usize; 16];
        for i in 0..16 {
            #[allow(clippy::needless_range_loop)]
            for j in 0..16 {
                if i != j {
                    n.send(
                        NodeId(i),
                        NodeId(j),
                        PacketClass::Request,
                        Payload::None,
                        false,
                        (i * 16 + j) as u64,
                    );
                    expected[j] += 1;
                }
            }
        }
        let mut got = vec![0usize; 16];
        for _ in 0..5_000 {
            n.tick();
            #[allow(clippy::needless_range_loop)]
            for j in 0..16 {
                got[j] += n.take_delivered(NodeId(j)).len();
            }
            if n.is_idle() {
                break;
            }
        }
        assert_eq!(got, expected);
        assert!(n.is_idle());
    }

    /// All-to-all traffic drains on every shipped topology at a 16-tile
    /// budget, with invariants checked each cycle — the end-to-end
    /// smoke test of the per-topology routing + dateline discipline.
    #[test]
    fn every_topology_delivers_all_to_all() {
        for choice in TopologyChoice::ALL {
            let topo = choice.build(4, 4);
            let config = NocConfig {
                vcs: topo.min_vcs().max(2),
                ..NocConfig::default()
            };
            let tiles = topo.tiles();
            let mut n = Network::new(topo, config);
            let mut expected = vec![0usize; tiles];
            for i in 0..tiles {
                #[allow(clippy::needless_range_loop)]
                for j in 0..tiles {
                    if i != j {
                        n.send(
                            NodeId(i),
                            NodeId(j),
                            PacketClass::Request,
                            Payload::None,
                            false,
                            (i * tiles + j) as u64,
                        );
                        expected[j] += 1;
                    }
                }
            }
            let mut got = vec![0usize; tiles];
            for _ in 0..10_000 {
                n.tick();
                n.check_invariants()
                    .unwrap_or_else(|e| panic!("{choice}: {e}"));
                #[allow(clippy::needless_range_loop)]
                for j in 0..tiles {
                    got[j] += n.take_delivered(NodeId(j)).len();
                }
                if n.is_idle() {
                    break;
                }
            }
            assert_eq!(got, expected, "{choice} must deliver everything");
            assert!(n.is_idle(), "{choice} must drain");
        }
    }

    /// Heavy multi-flit wormhole traffic on the wrap topologies: the
    /// regime where an un-datelined design would actually deadlock.
    #[test]
    fn wrap_topologies_drain_heavy_responses() {
        let legs: [(&str, Network); 2] = [
            (
                "ring",
                Network::new(Ring::new(16), NocConfig::low_buffer_ring()),
            ),
            (
                "torus",
                Network::new(
                    Torus::new(4, 4),
                    NocConfig {
                        vcs: 4,
                        ..NocConfig::default()
                    },
                ),
            ),
        ];
        for (name, mut n) in legs {
            let line = CacheLine::from_u64_words([7, 8, 9, 10, 11, 12, 13, 14]);
            for i in 0..16usize {
                for k in 0..4u64 {
                    // Wrap-heavy pattern: every destination is across
                    // the dateline from most sources.
                    let dst = NodeId((i + 11) % 16);
                    n.send(
                        NodeId(i),
                        dst,
                        PacketClass::Response,
                        Payload::Raw(line),
                        true,
                        k,
                    );
                }
            }
            let mut delivered = 0;
            for _ in 0..40_000 {
                n.tick();
                for j in 0..16 {
                    delivered += n.take_delivered(NodeId(j)).len();
                }
                if n.is_idle() {
                    break;
                }
            }
            assert_eq!(delivered, 64, "{name} must deliver everything");
            assert!(n.is_idle(), "{name} must drain — deadlock otherwise");
        }
    }

    #[test]
    #[should_panic(expected = "dateline")]
    fn ring_with_too_few_vcs_rejected() {
        let _ = Network::new(Ring::new(8), NocConfig::default()); // vcs 2 < 4
    }

    #[test]
    fn cmesh_tiles_map_to_shared_routers() {
        use crate::topology::ConcentratedMesh;
        let mut n = Network::new(ConcentratedMesh::new(2, 2, 4), NocConfig::default());
        // Tiles 0 and 1 share router 0; cross-router and same-router
        // deliveries both work.
        n.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            1,
        );
        n.send(
            NodeId(2),
            NodeId(15),
            PacketClass::Request,
            Payload::None,
            false,
            2,
        );
        assert_eq!(run_until_delivered(&mut n, NodeId(1), 200).len(), 1);
        assert_eq!(run_until_delivered(&mut n, NodeId(15), 200).len(), 1);
        assert!(n.is_idle());
    }

    #[test]
    fn invariants_hold_under_load() {
        let mut n = net(4, 4);
        let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
        for i in 0..16usize {
            n.send(
                NodeId(i),
                NodeId((i + 7) % 16),
                PacketClass::Response,
                Payload::Raw(line),
                true,
                i as u64,
            );
            n.send(
                NodeId(i),
                NodeId((i + 3) % 16),
                PacketClass::Request,
                Payload::None,
                false,
                0,
            );
        }
        for _ in 0..2_000 {
            n.tick();
            n.check_invariants().expect("invariants hold every cycle");
            for j in 0..16 {
                let _ = n.take_delivered(NodeId(j));
            }
            if n.is_idle() {
                break;
            }
        }
        assert!(n.is_idle(), "network must drain");
    }

    #[test]
    fn heavy_response_traffic_drains() {
        let mut n = net(4, 4);
        let line = CacheLine::from_u64_words([7, 8, 9, 10, 11, 12, 13, 14]);
        for i in 0..16usize {
            for k in 0..4u64 {
                let dst = NodeId((i + 5) % 16);
                n.send(
                    NodeId(i),
                    dst,
                    PacketClass::Response,
                    Payload::Raw(line),
                    true,
                    k,
                );
            }
        }
        let mut delivered = 0;
        for _ in 0..20_000 {
            n.tick();
            for j in 0..16 {
                delivered += n.take_delivered(NodeId(j)).len();
            }
            if n.is_idle() {
                break;
            }
        }
        assert_eq!(delivered, 64);
        assert!(n.is_idle(), "network must drain");
        assert!(n.stats().sa_losses > 0, "contention must appear under load");
    }

    #[test]
    fn vct_requires_deep_buffers() {
        let config = NocConfig {
            flow_control: FlowControl::VirtualCutThrough,
            buffer_depth: 9,
            ..NocConfig::default()
        };
        let mut n = Network::new(Mesh::new(3, 3), config);
        let line = CacheLine::zeroed();
        n.send(
            NodeId(0),
            NodeId(8),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(8), 500);
        assert_eq!(got.len(), 1);
    }

    #[test]
    #[should_panic(expected = "whole packet")]
    fn vct_with_shallow_buffers_rejected() {
        let config = NocConfig {
            flow_control: FlowControl::VirtualCutThrough,
            buffer_depth: 4, // < 8-flit whole packets
            ..NocConfig::default()
        };
        let _ = Network::new(Mesh::new(2, 2), config);
    }

    #[test]
    fn saf_delivers_whole_packets() {
        let config = NocConfig {
            flow_control: FlowControl::StoreAndForward,
            buffer_depth: 12,
            ..NocConfig::default()
        };
        let mut n = Network::new(Mesh::new(3, 3), config);
        let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
        n.send(
            NodeId(0),
            NodeId(8),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(8), 1000);
        assert_eq!(got.len(), 1);
        match &got[0].payload {
            Payload::Raw(l) => assert_eq!(*l, line),
            other => panic!("expected raw payload, got {other:?}"),
        }
    }

    #[test]
    fn compressed_payload_uses_fewer_flits() {
        use disco_compress::{scheme::Compressor, Codec};
        let codec = Codec::delta();
        let line = CacheLine::from_u64_words([100, 101, 102, 103, 104, 105, 106, 107]);
        let enc = codec.compress(&line);
        let mut n = net(2, 2);
        n.send(
            NodeId(0),
            NodeId(3),
            PacketClass::Response,
            Payload::Compressed(enc.clone()),
            true,
            0,
        );
        let got = run_until_delivered(&mut n, NodeId(3), 200);
        assert_eq!(got[0].size_flits(), enc.size_bytes().div_ceil(8));
        assert!(got[0].size_flits() < 8);
    }

    #[test]
    fn reshape_resident_returns_credits_upstream() {
        // Manually stage a 8-flit response resident in a router's West input
        // and shrink it; the western neighbour must get its credits back.
        let mut n = net(2, 1);
        let line = CacheLine::zeroed();
        let id = n.store_mut().create(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
            0,
        );
        // Flits sit in node 1's West input port (arrived from node 0).
        let west = WEST.0;
        for f in flits_for(id, 8, 0) {
            n.router_mut(NodeId(1)).accept(west, 1, f);
        }
        // Simulate node 0 having spent 8 credits sending them.
        for _ in 0..8 {
            assert!(n.router_mut(NodeId(0)).try_take_credits(EAST, 1, 1));
        }
        assert_eq!(n.router(NodeId(0)).credit_in(EAST, 1), 0);
        assert!(n.reshape_resident(NodeId(1), west, 1, id, 2, true));
        assert_eq!(n.router(NodeId(0)).credit_in(EAST, 1), 6);
        assert_eq!(n.router(NodeId(1)).vc(west, 1).occupancy(), 2);
    }

    #[test]
    fn reshape_growth_requires_credits() {
        let mut n = net(2, 1);
        let id = n.store_mut().create(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(CacheLine::zeroed()),
            true,
            0,
            0,
        );
        let west = WEST.0;
        for f in flits_for(id, 2, 0) {
            n.router_mut(NodeId(1)).accept(west, 1, f);
        }
        // Upstream thinks 6 slots are free (8 - 2 in transit history is not
        // modelled here; fresh router has full credits). Take all credits.
        assert!(n.router_mut(NodeId(0)).try_take_credits(EAST, 1, 8));
        assert!(
            !n.reshape_resident(NodeId(1), west, 1, id, 8, true),
            "growth without upstream credit window must fail"
        );
        // Return credits; now growth succeeds.
        for _ in 0..8 {
            n.router_mut(NodeId(0)).return_credit(EAST, 1);
        }
        assert!(n.reshape_resident(NodeId(1), west, 1, id, 8, true));
        assert_eq!(n.router(NodeId(0)).credit_in(EAST, 1), 2);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

disco_snapshot::snap_fields!(InjectProgress {
    packet,
    sent,
    total,
});

impl Network {
    /// Writes the network's complete mutable state: every router's VC
    /// arenas and credits, the packet store, the NI injection queues,
    /// delivery queues, counters, and (when they are on) the trace ring
    /// and the fault-recovery ledger. The topology, config and compute
    /// arena are rebuilt from config on restore, and the busy-tile
    /// bitsets and per-tile injection counts from the queues.
    pub fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&(self.routers.len() as u64));
        for router in &self.routers {
            router.snap_state(w);
        }
        self.store.snap_state(w);
        w.put(&self.inject_q);
        w.put(&self.inject_progress);
        w.put(&self.inject_rr);
        w.put(&self.delivered);
        w.put(&self.stats);
        w.put(&self.now);
        w.put(&self.tracer);
        w.put(&self.faults.is_some());
        if let Some(ctx) = &self.faults {
            ctx.snap_state(w);
        }
    }

    /// Overlays state written by [`Network::snap_state`] onto a network
    /// freshly built over the same topology and config (including an
    /// armed fault plan when the snapshot carries fault state).
    pub fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        let n: u64 = r.take()?;
        if n as usize != self.routers.len() {
            return Err(disco_snapshot::malformed(format!(
                "{n} routers in snapshot, {} in rebuilt network (topology mismatch)",
                self.routers.len()
            )));
        }
        for router in &mut self.routers {
            router.restore_state(r)?;
        }
        self.store.restore_state(r)?;
        let inject_q: Vec<Vec<VecDeque<PacketId>>> = r.take()?;
        if inject_q.len() != self.inject_q.len() {
            return Err(disco_snapshot::malformed(format!(
                "{} injection queues in snapshot, {} rebuilt",
                inject_q.len(),
                self.inject_q.len()
            )));
        }
        self.inject_q = inject_q;
        self.inject_progress = r.take()?;
        self.inject_rr = r.take()?;
        self.delivered = r.take()?;
        let tiles = self.inject_q.len();
        if self.inject_rr.iter().any(|&vc| vc >= self.config.vcs) {
            return Err(disco_snapshot::malformed(format!(
                "NI round-robin pointer beyond the {} VCs",
                self.config.vcs
            )));
        }
        let lists = [
            self.inject_progress.len(),
            self.inject_rr.len(),
            self.delivered.len(),
        ];
        if lists.iter().any(|&len| len != tiles) {
            return Err(disco_snapshot::malformed(format!(
                "in-flight injection, NI pointer and delivery lists sized {lists:?} in \
                 snapshot, {tiles} tiles"
            )));
        }
        self.inject_busy = BitSet::new(tiles);
        self.delivery_busy = BitSet::new(tiles);
        for tile in 0..tiles {
            let pending = self.inject_q[tile].iter().map(VecDeque::len).sum::<usize>()
                + self.inject_progress[tile].iter().flatten().count();
            self.inject_pending[tile] = pending as u32;
            if pending > 0 {
                self.inject_busy.insert(tile);
            }
            if !self.delivered[tile].is_empty() {
                self.delivery_busy.insert(tile);
            }
        }
        self.stats = r.take()?;
        self.now = r.take()?;
        self.tracer = r.take()?;
        let has_faults: bool = r.take()?;
        match (&mut self.faults, has_faults) {
            (Some(ctx), true) => ctx.restore_state(r)?,
            (None, false) => {}
            (have, want) => {
                return Err(disco_snapshot::malformed(format!(
                    "snapshot fault state present={want}, rebuilt network armed={}",
                    have.is_some()
                )))
            }
        }
        Ok(())
    }
}
