//! The pure **compute** half of the cycle kernel.
//!
//! [`compute_router`] runs one router's RC, VA, and SA stages as a pure
//! function over an immutable snapshot of that router's state at the
//! start of the cycle, and writes the decisions as typed action lists
//! into a caller-provided [`RouterOutcome`]. It mutates no router state:
//! within-cycle dependencies (VA sees this cycle's RC, SA sees this
//! cycle's VA) are tracked in small overlays of the per-VC state and the
//! output allocation table, while buffers and credits are only read.
//!
//! The overlays and the SA candidate list live in a reusable
//! [`ComputeScratch`] arena, and the outcome's action lists are cleared
//! (not reallocated) on entry — so a steady-state cycle performs **zero
//! heap allocations**: every buffer reaches its high-water capacity once
//! and is reused for the rest of the run. `crates/noc/tests` pins this
//! with a counting global allocator.
//!
//! Because every router's outcome depends only on the cycle-start
//! snapshot, the compute phase may run for all routers in any order —
//! or in parallel (`NocConfig::compute_shards`) — and the result is
//! identical by construction. All mutation happens afterwards in the
//! commit pass ([`crate::commit`]), in fixed node order.

use crate::config::FlowControl;
use crate::packet::{Flit, PacketClass, PacketId, PacketStore, Payload};
use crate::router::{Router, VcState};
use crate::routing::{output_vc_range, route};
use crate::stats::NetworkStats;
use crate::topology::{PortId, Topology};

/// A flit leaving a router this cycle, to be applied by the commit pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Departure {
    pub flit: Flit,
    pub in_port: usize,
    pub in_vc: usize,
    pub out: PortId,
    pub out_vc: usize,
}

/// Everything one router decided in one cycle's compute phase: typed
/// action lists plus this router's stat delta. The commit pass applies
/// the lists in node order; nothing here aliases router state. Outcomes
/// are arena-owned and reused across cycles — [`RouterOutcome::reset`]
/// clears contents while keeping every allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterOutcome {
    /// RC results: `(in_port, in_vc, out_port)` — the VC becomes `Routed`.
    pub routes: Vec<(usize, usize, PortId)>,
    /// VA results: `(in_port, in_vc, out_port, out_vc)` — the VC becomes
    /// `Active` and acquires the output VC.
    pub grants: Vec<(usize, usize, PortId, usize)>,
    /// SA winners: one flit leaves per output port, with the credit
    /// decrement, link delivery or ejection applied at commit.
    pub departures: Vec<Departure>,
    /// Post-arbitration round-robin pointers, one per output port.
    pub rr_sa: Vec<usize>,
    /// This cycle's allocation losers (the DISCO compression candidates).
    pub sa_losers: Vec<(usize, usize)>,
    /// This router's contribution to the network counters this cycle.
    pub stats: NetworkStats,
    /// Trace events decided this cycle, in stage order. Carried out of
    /// the pure compute phase and cycle-stamped by the commit pass in
    /// node order, which keeps the trace shard-count invariant.
    /// Records only while the network is tracing, so it stays empty
    /// (and unallocated) otherwise.
    pub events: disco_trace::EventList,
    /// Output-port arbitration rounds forfeited to an injected port
    /// stall or flaky-link outage this cycle; folded into
    /// `FaultStats::port_stall_cycles` by the commit pass.
    pub fault_port_stalls: u64,
}

impl RouterOutcome {
    /// Clears per-cycle contents while retaining every allocation,
    /// seeds the round-robin pointers from the router snapshot, and
    /// switches event recording to match the network's tracer.
    fn reset(&mut self, rr_sa: &[usize], tracing: bool) {
        self.routes.clear();
        self.grants.clear();
        self.departures.clear();
        self.sa_losers.clear();
        self.rr_sa.clear();
        self.rr_sa.extend_from_slice(rr_sa);
        self.stats = NetworkStats::new();
        self.events.clear();
        self.events.set_tracing(tracing);
        self.fault_port_stalls = 0;
    }
}

/// Reusable per-shard working memory for [`compute_router`]: the RC/VA
/// overlays and the SA candidate list. One arena serves every router of
/// a shard in sequence; capacities grow to the high-water mark once and
/// then stay — no per-router, per-cycle allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ComputeScratch {
    /// VC-state overlay (VA sees this cycle's RC), `port * vcs + vc`.
    state: Vec<VcState>,
    /// Output-allocation overlay (SA sees this cycle's VA), same layout.
    alloc: Vec<Option<(usize, usize)>>,
    /// SA candidates for the output port under arbitration:
    /// `(port, vc, out_vc, prio)`.
    candidates: Vec<(usize, usize, usize, u8)>,
}

/// Priority class for switch allocation (§3.3-B): lower wins.
fn sa_priority(router: &Router, store: &PacketStore, packet: PacketId) -> u8 {
    let pkt = store.get(packet);
    let policy = router.config.scheduling;
    if policy.demote_uncompressed
        && pkt.compressible
        && !pkt.critical
        && matches!(pkt.payload, Payload::Raw(_))
    {
        return 2;
    }
    if policy.prioritize_critical && pkt.class == PacketClass::Coherence {
        return 1;
    }
    0
}

/// The virtual channels a packet class may use: the VC space is split
/// into one virtual network per class group to stay deadlock-free.
fn class_vcs(router: &Router, class: PacketClass) -> std::ops::Range<usize> {
    class.vc_range(router.config.vcs)
}

/// Runs RC + VA + SA for one router against its cycle-start snapshot and
/// writes the typed outcome into `out`. Pure with respect to the router:
/// `router` is only read; the only mutation targets are the caller's
/// arena (`scratch`) and outcome slot (`out`), which alias no router
/// state.
pub(crate) fn compute_router(
    router: &Router,
    now: u64,
    store: &PacketStore,
    topo: &Topology,
    gate: crate::faults::PhaseGate<'_>,
    scratch: &mut ComputeScratch,
    out: &mut RouterOutcome,
) {
    out.reset(&router.rr_sa, gate.tracing);
    // Idle fast path: with no buffered flit there is no RC candidate, no
    // VA-eligible VC with a front packet, no SA candidate, and no VA
    // loser — the stage loops below would decide nothing. On big meshes
    // most routers are idle most cycles; skip them outright.
    if router.total_buffered() == 0 {
        return;
    }
    let vcs = router.config.vcs;
    let ports = router.ports;
    let flat = |port: usize, v: usize| port * vcs + v;
    // Local overlays: VA must see this cycle's RC and SA must see this
    // cycle's VA, all without touching the router.
    let ComputeScratch {
        state,
        alloc,
        candidates,
    } = scratch;
    state.clear();
    alloc.clear();
    for i in 0..ports * vcs {
        state.push(router.inputs[i].state);
        alloc.push(router.out_alloc[i]);
    }

    // RC + VA, in the same (port, vc) order as the legacy in-place loop.
    for port in 0..ports {
        for v in 0..vcs {
            // RC: a fresh head flit gets its output port.
            if state[flat(port, v)] == VcState::Idle {
                let front = match router.inputs[flat(port, v)].buffer.front() {
                    Some(f) if f.kind.is_head() && f.ready_at <= now => *f,
                    _ => continue,
                };
                let pkt = store.get(front.packet);
                let group = class_vcs(router, pkt.class);
                let dir = route(
                    router.config.routing,
                    topo,
                    router.node,
                    pkt.dst,
                    front.packet.0,
                    |p| {
                        group
                            .clone()
                            .map(|vc| router.credits[flat(p.0, vc)])
                            .max()
                            .unwrap_or(0)
                    },
                );
                // Escape faulted links where a deadlock-free detour
                // exists; the identity when no fault plan is active.
                let dir = gate.adjust_route(topo, router.node, pkt.dst, dir);
                state[flat(port, v)] = VcState::Routed(dir);
                out.routes.push((port, v, dir));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::Route {
                        packet: front.packet.0,
                        node: router.node.0 as u16,
                        in_port: port as u8,
                        in_vc: v as u8,
                        out_dir: dir.0 as u8,
                    }
                );
            }
            // VA: acquire the class VC on the output port.
            if let VcState::Routed(dir) = state[flat(port, v)] {
                let packet = match router.inputs[flat(port, v)].front_packet() {
                    Some(p) => p,
                    None => continue,
                };
                let pkt = store.get(packet);
                // Acquire any free VC of the class group on the output
                // port, narrowed by the topology's dateline discipline
                // (identity on the mesh; low/high half-groups on the
                // wrap topologies). VCT/SAF additionally need
                // whole-packet credit (§3.3-A).
                let class_group = class_vcs(router, pkt.class);
                let out_vc =
                    output_vc_range(topo, router.node, dir, pkt.dst, class_group).find(|&cand| {
                        if alloc[flat(dir.0, cand)].is_some() {
                            return false;
                        }
                        match router.config.flow_control {
                            FlowControl::Wormhole => true,
                            _ => router.credits[flat(dir.0, cand)] >= pkt.size_flits(),
                        }
                    });
                let Some(out_vc) = out_vc else { continue };
                alloc[flat(dir.0, out_vc)] = Some((port, v));
                state[flat(port, v)] = VcState::Active { out: dir, out_vc };
                out.grants.push((port, v, dir, out_vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcAlloc {
                        packet: packet.0,
                        node: router.node.0 as u16,
                        in_port: port as u8,
                        in_vc: v as u8,
                        out_dir: dir.0 as u8,
                        out_vc: out_vc as u8,
                    }
                );
            }
        }
    }

    // SA + traversal decisions: one winner per output port. Credits are
    // read from the snapshot only — each output is arbitrated exactly
    // once per cycle and outputs never share a credit counter, so no
    // overlay is needed.
    for oi in 0..ports {
        let outdir = PortId(oi);
        // Gather candidates into the reusable arena: active VCs routed to
        // this output with a ready front flit and downstream credit.
        candidates.clear();
        for port in 0..ports {
            for v in 0..vcs {
                let (o, out_vc) = match state[flat(port, v)] {
                    VcState::Active { out: o, out_vc } => (o, out_vc),
                    _ => continue,
                };
                if o != outdir {
                    continue;
                }
                let vc = &router.inputs[flat(port, v)];
                let front = match vc.buffer.front() {
                    Some(f) if f.ready_at <= now => *f,
                    _ => continue,
                };
                if vc.locked {
                    // Committed de/compression: the shadow is invalid
                    // and must not be scheduled.
                    continue;
                }
                if router.credits[flat(oi, out_vc)] == 0 {
                    out.sa_losers.push((port, v));
                    disco_trace::emit!(
                        out.events,
                        disco_trace::Event::VcStall {
                            packet: front.packet.0,
                            node: router.node.0 as u16,
                            port: port as u8,
                            vc: v as u8,
                            reason: disco_trace::stall::NO_CREDIT,
                        }
                    );
                    continue;
                }
                if router.config.flow_control == FlowControl::StoreAndForward
                    && front.kind.is_head()
                    && !front.kind.is_tail()
                    && !vc.has_tail_of(front.packet)
                {
                    // SAF: the whole packet must be buffered before the
                    // head may leave.
                    continue;
                }
                let prio = sa_priority(router, store, front.packet);
                candidates.push((port, v, out_vc, prio));
            }
        }
        // An injected port stall (or flaky-link outage window) forfeits
        // this output's arbitration round outright: every candidate
        // idles — and, like any SA loser, becomes a DISCO compression
        // candidate.
        if !candidates.is_empty()
            && !router.is_local_port(outdir)
            && gate.output_blocked(now, router.node.0, oi)
        {
            out.fault_port_stalls += 1;
            for c in candidates.iter() {
                out.sa_losers.push((c.0, c.1));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcStall {
                        packet: router.inputs[flat(c.0, c.1)]
                            .buffer
                            .front()
                            .map_or(0, |f| f.packet.0),
                        node: router.node.0 as u16,
                        port: c.0 as u8,
                        vc: c.1 as u8,
                        reason: disco_trace::stall::FAULT_STALL,
                    }
                );
            }
            continue;
        }
        // Winner: highest priority class, round-robin within it. The
        // lexicographic key picks the best-priority candidate closest
        // after the round-robin pointer.
        let rr = out.rr_sa[oi];
        let Some(winner) = candidates
            .iter()
            .min_by_key(|c| {
                let flat_in = c.0 * vcs + c.1;
                (c.3, (flat_in + ports * vcs - rr) % (ports * vcs))
            })
            .copied()
        else {
            continue;
        };
        out.rr_sa[oi] = (winner.0 * vcs + winner.1 + 1) % (ports * vcs);
        // Everyone else idles: these are DISCO's compression candidates.
        for c in candidates.iter() {
            if (c.0, c.1) != (winner.0, winner.1) {
                out.sa_losers.push((c.0, c.1));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcStall {
                        packet: router.inputs[flat(c.0, c.1)]
                            .buffer
                            .front()
                            .map_or(0, |f| f.packet.0),
                        node: router.node.0 as u16,
                        port: c.0 as u8,
                        vc: c.1 as u8,
                        reason: disco_trace::stall::LOST_ARBITRATION,
                    }
                );
            }
        }
        let (port, v, out_vc, _) = winner;
        let flit = match router.inputs[flat(port, v)].buffer.front() {
            Some(f) => *f,
            None => {
                // A candidate was admitted above only with a ready front
                // flit; an empty buffer here is unreachable.
                debug_assert!(false, "SA winner lost its front flit");
                continue;
            }
        };
        if flit.kind.is_tail() {
            // Release the output VC and idle the input within this
            // cycle's overlay (matters for the VA-loser sweep below).
            alloc[flat(oi, out_vc)] = None;
            state[flat(port, v)] = VcState::Idle;
        }
        // Traverse events only for head and tail flits: the head marks
        // the hop's start, the tail its departure time (what the
        // provenance pass consumes); body flits would only add volume.
        if flit.kind.is_head() || flit.kind.is_tail() {
            disco_trace::emit!(
                out.events,
                disco_trace::Event::Traverse {
                    packet: flit.packet.0,
                    node: router.node.0 as u16,
                    out_dir: oi as u8,
                    head: flit.kind.is_head(),
                    tail: flit.kind.is_tail(),
                }
            );
        }
        out.departures.push(Departure {
            flit,
            in_port: port,
            in_vc: v,
            out: outdir,
            out_vc,
        });
    }

    // VA losers also idle and are therefore compression candidates
    // (§3.2 step 1 collects losers of both VC and switch allocation).
    for port in 0..ports {
        for v in 0..vcs {
            let vc = &router.inputs[flat(port, v)];
            if vc.locked {
                continue;
            }
            if let VcState::Routed(_) = state[flat(port, v)] {
                if matches!(vc.buffer.front(), Some(f) if f.ready_at <= now) {
                    out.sa_losers.push((port, v));
                    disco_trace::emit!(
                        out.events,
                        disco_trace::Event::VcStall {
                            packet: vc.buffer.front().map_or(0, |f| f.packet.0),
                            node: router.node.0 as u16,
                            port: port as u8,
                            vc: v as u8,
                            reason: disco_trace::stall::NO_FREE_VC,
                        }
                    );
                }
            }
        }
    }

    // Stat delta: everything the legacy loop counted inline, derived
    // purely from the decisions above.
    out.stats.sa_losses = out.sa_losers.len() as u64;
    if !out.departures.is_empty() {
        out.stats.arbitrations = 1;
    }
    for dep in &out.departures {
        out.stats.buffer_reads += 1;
        out.stats.crossbar_flits += 1;
        if router.is_local_port(dep.out) {
            if dep.flit.kind.is_tail() {
                let pkt = store.get(dep.flit.packet);
                out.stats.packets_delivered += 1;
                let latency = now - pkt.injected_at;
                out.stats.total_packet_latency += latency;
                out.stats.total_hops += topo.hops(pkt.src, pkt.dst) as u64;
                let ci = crate::stats::class_index(pkt.class);
                out.stats.delivered_by_class[ci] += 1;
                out.stats.latency_by_class[ci] += latency;
            }
        } else if topo.out_link(router.node, dep.out).is_some() {
            // Express traversals are priced separately (longer wire);
            // the buffer write at the far end costs the same either way.
            if topo.express_span() > 0
                && matches!(
                    dep.out,
                    crate::topology::EXPRESS_EAST | crate::topology::EXPRESS_WEST
                )
            {
                out.stats.express_link_flits += 1;
            } else {
                out.stats.link_flits += 1;
            }
            out.stats.buffer_writes += 1;
        } else {
            // The commit pass drops this flit (no link to corrupt);
            // the counter keeps the conservation bug visible in release
            // builds where the debug assertion is compiled out.
            out.stats.routing_violations += 1;
        }
    }
}
