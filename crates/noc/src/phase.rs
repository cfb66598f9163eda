//! The pure **compute** half of the cycle kernel.
//!
//! [`compute_router`] runs one router's RC, VA, and SA stages as a pure
//! function over an immutable snapshot of that router's state at the
//! start of the cycle, and writes the decisions as typed action lists
//! into a caller-provided [`RouterOutcome`]. It mutates no router state.
//!
//! One classification pass walks the non-empty input VCs in
//! `(port, vc)` order, found from the router's occupancy bitset, and
//! decides each from its one-line header (state, lock bit and a copy
//! of the front flit; see [`crate::router`]); only store-and-forward's
//! whole-packet test reads the flit ring. An `Idle` VC with a ready
//! head flit is routed (RC), a `Routed` VC bids for an output VC (VA),
//! and an `Active` VC with a ready, unlocked front flit is filed as a
//! switch request under its output port. Within-cycle dependencies need
//! no overlay of the router's state: VA sees this cycle's RC because
//! both happen in the same visit, an output VC granted earlier this
//! cycle is found in the outcome's own grant list, and a VC granted
//! here files its request in the same visit, so every per-output list
//! stays in `(port, vc)` order. SA then arbitrates each output over its
//! own requests, and the VA losers are the VCs the pass left `Routed`.
//! A router whose VCs hold only flits still in the link pipeline
//! records nothing and does no further work. The outcome carries no
//! counters: the commit pass derives the router's stat delta from it.
//!
//! The request lists live in a reusable [`ComputeScratch`] arena, and
//! the outcome's action lists are cleared (not reallocated) on entry —
//! so a steady-state cycle performs **zero heap allocations**: every
//! buffer reaches its high-water capacity once and is reused for the
//! rest of the run. `crates/noc/tests` pins this with a counting global
//! allocator.
//!
//! Because every router's outcome depends only on the cycle-start
//! snapshot, the compute phase may visit the routers in any order and
//! the result is identical by construction. All mutation happens
//! afterwards in the commit pass ([`crate::commit`]), in fixed node
//! order.

use crate::config::FlowControl;
use crate::packet::{Flit, Packet, PacketClass, PacketStore, Payload};
use crate::router::{Router, VcState};
use crate::routing::{output_vc_range, route};
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

/// Everything one router decided in one cycle's compute phase, as typed
/// action lists. The commit pass applies them in node order and derives
/// the router's stat delta from the departures and losers; nothing here
/// aliases router state. Outcomes are arena-owned and reused across
/// cycles — [`RouterOutcome::reset`] clears contents while keeping every
/// allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterOutcome {
    /// RC results: `(in_port, in_vc, out_port)` — the VC becomes `Routed`.
    pub routes: Vec<(usize, usize, PortId)>,
    /// VA results: `(in_port, in_vc, out_port, out_vc)` — the VC becomes
    /// `Active` and acquires the output VC.
    pub grants: Vec<(usize, usize, PortId, usize)>,
    /// SA winners: one flit leaves per output port, with the credit
    /// decrement, link delivery or ejection applied at commit. Each
    /// winner also advances its output's round-robin pointer past
    /// itself.
    pub departures: Vec<Departure>,
    /// This cycle's allocation losers (the DISCO compression candidates).
    pub sa_losers: Vec<(usize, usize)>,
    /// Trace events decided this cycle, in stage order. Carried out of
    /// the pure compute phase and cycle-stamped by the commit pass in
    /// node order, so the trace follows the commit order.
    /// Records only while the network is tracing, so it stays empty
    /// (and unallocated) otherwise.
    pub events: disco_trace::EventList,
    /// Output-port arbitration rounds forfeited to an injected port
    /// stall or flaky-link outage this cycle; folded into
    /// `FaultStats::port_stall_cycles` by the commit pass.
    pub fault_port_stalls: u64,
}

impl RouterOutcome {
    /// Clears per-cycle contents while retaining every allocation and
    /// switches event recording to match the network's tracer.
    fn reset(&mut self, tracing: bool) {
        self.routes.clear();
        self.grants.clear();
        self.departures.clear();
        self.sa_losers.clear();
        self.events.clear();
        self.events.set_tracing(tracing);
        self.fault_port_stalls = 0;
    }

    /// True when the router decided nothing this cycle: no route, grant,
    /// departure, loser, event or forfeited arbitration round. Its stat
    /// delta is then zero too, so committing it only clears the
    /// router's loser list, and an empty router's compute leaves such
    /// an outcome as it is.
    pub(crate) fn is_quiet(&self) -> bool {
        self.routes.is_empty()
            && self.grants.is_empty()
            && self.departures.is_empty()
            && self.sa_losers.is_empty()
            && self.events.is_empty()
            && self.fault_port_stalls == 0
    }
}

/// A switch request filed by the classification pass: an `Active` input
/// VC with a ready, unlocked front flit, bidding for its output port.
#[derive(Debug, Clone, Copy)]
struct Request {
    port: usize,
    vc: usize,
    out_vc: usize,
    /// The front flit that traverses if this request wins.
    flit: Flit,
    /// Priority class (lower wins), or `None` when the output VC has no
    /// downstream credit: the request then loses without arbitrating.
    prio: Option<u8>,
}

/// Reusable working memory for [`compute_router`]: the SA requests per
/// output port and the VA losers. One arena serves every router in
/// sequence; capacities grow to the high-water mark
/// once and then stay — no per-router, per-cycle allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct ComputeScratch {
    /// Switch requests, one list per output port, each in `(port, vc)`
    /// order.
    requests: Vec<Vec<Request>>,
    /// VCs left `Routed` with a ready, unlocked front flit (no output VC
    /// was free), in `(port, vc)` order.
    va_losers: Vec<(usize, usize)>,
}

/// Priority class for switch allocation (§3.3-B): lower wins.
fn sa_priority(router: &Router, pkt: &Packet) -> u8 {
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
    // Idle fast path: with no buffered flit there is nothing to classify.
    // On big meshes most routers are idle most cycles; skip them
    // outright, and leave an outcome that is already quiet untouched.
    if router.total_buffered() == 0 {
        if !out.is_quiet() {
            out.reset(gate.tracing);
        }
        return;
    }
    out.reset(gate.tracing);
    let vcs = router.config.vcs;
    let ports = router.ports;
    let flat = |port: usize, v: usize| port * vcs + v;
    let ComputeScratch {
        requests,
        va_losers,
    } = scratch;
    if requests.len() < ports {
        requests.resize_with(ports, Vec::new);
    }
    for list in &mut requests[..ports] {
        list.clear();
    }
    va_losers.clear();

    // Classification pass over the non-empty VCs, in (port, vc) order:
    // the occupancy bitset's set bits ascend in flat index. RC and VA
    // run in the visit that finds them eligible, and every VC that ends
    // the visit `Active` with a ready, unlocked front flit files a
    // switch request. A visit reads the VC's header, not its flits.
    for (word_index, &word) in router.occupied.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            let i = word_index * 64 + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let (port, v) = (i / vcs, i % vcs);
            let vc = &router.inputs[i];
            let front = vc.front;
            let ready = front.ready_at <= now;
            let mut state = vc.state;
            // The front packet, looked up at most once per visit.
            let mut packet: Option<&Packet> = None;
            // RC: a fresh head flit gets its output port.
            if state == VcState::Idle {
                if !(front.kind.is_head() && ready) {
                    continue;
                }
                let pkt = *packet.insert(store.get(front.packet));
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
                state = VcState::Routed(dir);
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
            if let VcState::Routed(dir) = state {
                let pkt = *packet.get_or_insert_with(|| store.get(front.packet));
                // Acquire any free VC of the class group on the output
                // port, narrowed by the topology's dateline discipline
                // (identity on the mesh; low/high half-groups on the
                // wrap topologies). An output VC is taken if the
                // snapshot or an earlier grant this cycle holds it.
                // VCT/SAF additionally need whole-packet credit (§3.3-A).
                let class_group = class_vcs(router, pkt.class);
                let out_vc =
                    output_vc_range(topo, router.node, dir, pkt.dst, class_group).find(|&cand| {
                        if router.out_alloc[flat(dir.0, cand)].is_some()
                            || out.grants.iter().any(|g| (g.2, g.3) == (dir, cand))
                        {
                            return false;
                        }
                        match router.config.flow_control {
                            FlowControl::Wormhole => true,
                            _ => router.credits[flat(dir.0, cand)] >= pkt.size_flits(),
                        }
                    });
                let Some(out_vc) = out_vc else {
                    // No free output VC: a VA loser, and therefore a
                    // compression candidate, once its flit is ready.
                    if ready && !vc.locked {
                        va_losers.push((port, v));
                    }
                    continue;
                };
                state = VcState::Active { out: dir, out_vc };
                out.grants.push((port, v, dir, out_vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcAlloc {
                        packet: front.packet.0,
                        node: router.node.0 as u16,
                        in_port: port as u8,
                        in_vc: v as u8,
                        out_dir: dir.0 as u8,
                        out_vc: out_vc as u8,
                    }
                );
            }
            // SA request: a ready front flit on an active VC. A locked
            // VC is under committed de/compression: its shadow is
            // invalid and must not be scheduled.
            let VcState::Active { out: o, out_vc } = state else {
                continue;
            };
            if !ready || vc.locked {
                continue;
            }
            let prio = if router.credits[flat(o.0, out_vc)] == 0 {
                None
            } else if router.config.flow_control == FlowControl::StoreAndForward
                && front.kind.is_head()
                && !front.kind.is_tail()
                && !router.vc_at(i).has_tail_of(front.packet)
            {
                // SAF: the whole packet must be buffered before the head
                // may leave; until then the VC neither bids nor loses.
                continue;
            } else {
                let pkt = packet.unwrap_or_else(|| store.get(front.packet));
                Some(sa_priority(router, pkt))
            };
            if let Some(list) = requests.get_mut(o.0) {
                list.push(Request {
                    port,
                    vc: v,
                    out_vc,
                    flit: front,
                    prio,
                });
            }
        }
    }

    // SA + traversal decisions: one winner per output port, over that
    // output's requests only. Credits are read from the snapshot — each
    // output is arbitrated exactly once per cycle and outputs never
    // share a credit counter.
    for (oi, reqs) in requests[..ports].iter().enumerate() {
        if reqs.is_empty() {
            continue;
        }
        let outdir = PortId(oi);
        for r in reqs.iter().filter(|r| r.prio.is_none()) {
            out.sa_losers.push((r.port, r.vc));
            disco_trace::emit!(
                out.events,
                disco_trace::Event::VcStall {
                    packet: r.flit.packet.0,
                    node: router.node.0 as u16,
                    port: r.port as u8,
                    vc: r.vc as u8,
                    reason: disco_trace::stall::NO_CREDIT,
                }
            );
        }
        let candidates = || reqs.iter().filter(|r| r.prio.is_some());
        if candidates().next().is_none() {
            continue;
        }
        // An injected port stall (or flaky-link outage window) forfeits
        // this output's arbitration round outright: every candidate
        // idles — and, like any SA loser, becomes a DISCO compression
        // candidate.
        if !router.is_local_port(outdir) && gate.output_blocked(now, router.node.0, oi) {
            out.fault_port_stalls += 1;
            for c in candidates() {
                out.sa_losers.push((c.port, c.vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcStall {
                        packet: c.flit.packet.0,
                        node: router.node.0 as u16,
                        port: c.port as u8,
                        vc: c.vc as u8,
                        reason: disco_trace::stall::FAULT_STALL,
                    }
                );
            }
            continue;
        }
        // Winner: highest priority class, round-robin within it. The
        // lexicographic key picks the best-priority candidate closest
        // after the round-robin pointer.
        let rr = router.rr_sa[oi];
        let Some(winner) = candidates().min_by_key(|c| {
            let flat_in = flat(c.port, c.vc);
            (c.prio, (flat_in + ports * vcs - rr) % (ports * vcs))
        }) else {
            continue;
        };
        // Everyone else idles: these are DISCO's compression candidates.
        for c in candidates() {
            if (c.port, c.vc) != (winner.port, winner.vc) {
                out.sa_losers.push((c.port, c.vc));
                disco_trace::emit!(
                    out.events,
                    disco_trace::Event::VcStall {
                        packet: c.flit.packet.0,
                        node: router.node.0 as u16,
                        port: c.port as u8,
                        vc: c.vc as u8,
                        reason: disco_trace::stall::LOST_ARBITRATION,
                    }
                );
            }
        }
        let flit = winner.flit;
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
            in_port: winner.port,
            in_vc: winner.vc,
            out: outdir,
            out_vc: winner.out_vc,
        });
    }

    // VA losers also idle and are therefore compression candidates
    // (§3.2 step 1 collects losers of both VC and switch allocation).
    for &(port, v) in va_losers.iter() {
        out.sa_losers.push((port, v));
        disco_trace::emit!(
            out.events,
            disco_trace::Event::VcStall {
                packet: router.inputs[flat(port, v)].front.packet.0,
                node: router.node.0 as u16,
                port: port as u8,
                vc: v as u8,
                reason: disco_trace::stall::NO_FREE_VC,
            }
        );
    }
}
