//! The pure **compute** half of the cycle kernel.
//!
//! [`compute_router`] runs one router's RC, VA, and SA stages as a pure
//! function of that router's cycle-start state, and writes the
//! decisions as typed action lists into a caller-provided
//! [`RouterOutcome`]. It mutates no router state.
//!
//! One classification pass walks the non-empty input VCs in
//! `(port, vc)` order, found from the router's occupancy bitset, and
//! decides each from its one-line header (state, lock bit and a copy
//! of the front flit; see [`crate::router`]); only store-and-forward's
//! whole-packet test reads the flit ring. An `Idle` VC with a ready
//! head flit is routed (RC), a `Routed` VC bids for an output VC (VA),
//! and an `Active` VC with a ready, unlocked front flit files a switch
//! request: one bit, at its flattened index `port * vcs + vc`, in its
//! output's request mask, or in the output's no-credit mask when the
//! output VC has no downstream credit. Within-cycle dependencies need
//! no overlay of the router's state: VA sees this cycle's RC because
//! both happen in the same visit, and an output VC granted earlier this
//! cycle is found in the outcome's own grant list.
//!
//! SA then takes each output in turn. Its no-credit requests lose, its
//! round-robin winner is the first request bit at or after the output's
//! pointer (wrapping), and the other requests lose, all pushed in
//! ascending bit order — `(port, vc)` order. The packet store is read
//! for priorities only when two or more credit-holding requests contend
//! under a scheduling policy with classes. The VA losers are the VCs
//! the pass left `Routed`. The outcome carries no counters: the commit
//! pass derives the router's stat delta from it.
//!
//! The request masks live in a reusable [`ComputeScratch`] arena, and
//! the outcome's action lists are cleared (not reallocated) on entry —
//! so a steady-state cycle performs **zero heap allocations**: every
//! buffer reaches its high-water capacity once and is reused for the
//! rest of the run. `crates/noc/tests` pins this with a counting global
//! allocator.
//!
//! [`crate::Network::tick`] runs this function for one router at a time
//! in node order and commits each outcome at once ([`crate::commit`]).
//! The commit defers the two effects that reach another router — flit
//! delivery downstream and the credit return upstream — until the last
//! router is done, so every router still decides from cycle-start
//! state.

use crate::bits::{next_set, set_bits};
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

/// Everything one router decided in one cycle, as typed action lists.
/// The commit pass applies them right after the router's compute and
/// derives the router's stat delta from the departures and losers;
/// nothing here aliases router state. One arena-owned outcome is reused
/// for every router and cycle — [`RouterOutcome::reset`] clears contents
/// while keeping every allocation.
#[derive(Debug, Clone, Default)]
pub(crate) struct RouterOutcome {
    /// RC results: `(in_port, in_vc, out_port)` — the VC becomes `Routed`.
    pub routes: Vec<(usize, usize, PortId)>,
    /// VA results: `(in_port, in_vc, out_port, out_vc)` — the VC becomes
    /// `Active` and acquires the output VC.
    pub grants: Vec<(usize, usize, PortId, usize)>,
    /// SA winners: one flit leaves per output port, with the credit
    /// decrement and ejection applied at commit and the link delivery
    /// deferred to the end of the router pass. Each
    /// winner also advances its output's round-robin pointer past
    /// itself.
    pub departures: Vec<Departure>,
    /// This cycle's allocation losers (the DISCO compression candidates).
    pub sa_losers: Vec<(usize, usize)>,
    /// Trace events decided this cycle, in stage order. Carried out of
    /// the pure compute phase and cycle-stamped by the commit pass, so
    /// the trace follows node order.
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
    /// router's loser list.
    pub(crate) fn is_quiet(&self) -> bool {
        self.routes.is_empty()
            && self.grants.is_empty()
            && self.departures.is_empty()
            && self.sa_losers.is_empty()
            && self.events.is_empty()
            && self.fault_port_stalls == 0
    }
}

/// Reusable working memory for [`compute_router`]: the switch requests
/// as per-output bitmasks over the flattened input VCs, and the VA
/// losers. One arena serves every router in sequence; capacities grow to
/// the high-water mark once and then stay — no per-router, per-cycle
/// allocation. Every mask is all-zero between calls.
#[derive(Debug, Clone, Default)]
pub(crate) struct ComputeScratch {
    /// Credit-holding switch requests: output `o`'s mask is the `words`
    /// words from `o * words`, bit `port * vcs + vc` set when that input
    /// VC bids for `o`.
    requests: Vec<u64>,
    /// Requests whose output VC has no downstream credit, laid out like
    /// `requests`: they lose without arbitrating.
    no_credit: Vec<u64>,
    /// The output VC each request was filed for, by flattened input VC;
    /// meaningful only where a mask bit is set.
    out_vcs: Vec<usize>,
    /// Bit `o` set when output `o` has a request of either kind.
    wanted: Vec<u64>,
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

/// Records an allocation loser and its stall event.
fn push_loser(router: &Router, out: &mut RouterOutcome, i: usize, reason: u8) {
    let (port, vc) = router.port_vc(i);
    out.sa_losers.push((port, vc));
    disco_trace::emit!(
        out.events,
        disco_trace::Event::VcStall {
            packet: router.inputs[i].front.packet.0,
            node: router.node.0 as u16,
            port: port as u8,
            vc: vc as u8,
            reason,
        }
    );
}

/// Zeroes a mask, writing only the words that are set.
#[inline]
fn clear(mask: &mut [u64]) {
    for w in mask.iter_mut().filter(|w| **w != 0) {
        *w = 0;
    }
}

/// True when `mask` holds two or more set bits.
#[inline]
fn contended(mask: &[u64]) -> bool {
    let mut seen = false;
    for &w in mask.iter().filter(|&&w| w != 0) {
        if seen || w & (w - 1) != 0 {
            return true;
        }
        seen = true;
    }
    false
}

/// One output's switch requests, as filed by the classification pass.
struct OutputMasks<'a> {
    /// Credit-holding requests.
    bids: &'a [u64],
    /// Requests whose output VC has no downstream credit.
    starved: &'a [u64],
    /// The output VC of each request, by flattened input VC.
    out_vcs: &'a [usize],
}

/// Switch allocation for one output: its no-credit requests lose, then
/// the round-robin winner among the highest-priority bids departs and
/// the other bids lose, all in ascending bit (`(port, vc)`) order.
fn arbitrate(
    router: &Router,
    now: u64,
    store: &PacketStore,
    gate: crate::faults::PhaseGate<'_>,
    outdir: PortId,
    masks: OutputMasks<'_>,
    out: &mut RouterOutcome,
) {
    let OutputMasks {
        bids,
        starved,
        out_vcs,
    } = masks;
    for i in set_bits(starved) {
        push_loser(router, out, i, disco_trace::stall::NO_CREDIT);
    }
    let oi = outdir.0;
    let rr = router.rr_sa[oi];
    // Winner: highest priority class, round-robin within it — the
    // best-priority candidate closest at or after the round-robin
    // pointer. Priorities are looked up only when they can differ:
    // a lone request, or a policy without classes, is plain
    // round-robin.
    let Some(first) = next_set(bids, rr).or_else(|| next_set(bids, 0)) else {
        return;
    };
    // An injected port stall (or flaky-link outage window) forfeits
    // this output's arbitration round outright: every candidate
    // idles — and, like any SA loser, becomes a DISCO compression
    // candidate.
    if !router.is_local_port(outdir) && gate.output_blocked(now, router.node.0, oi) {
        out.fault_port_stalls += 1;
        for i in set_bits(bids) {
            push_loser(router, out, i, disco_trace::stall::FAULT_STALL);
        }
        return;
    }
    let policy = router.config.scheduling;
    let winner = if (policy.demote_uncompressed || policy.prioritize_critical) && contended(bids) {
        let inputs = router.inputs.len();
        set_bits(bids)
            .min_by_key(|&i| {
                let prio = sa_priority(router, store.get(router.inputs[i].front.packet));
                let distance = if i >= rr { i - rr } else { i + inputs - rr };
                (prio, distance)
            })
            .unwrap_or(first)
    } else {
        first
    };
    // Everyone else idles: these are DISCO's compression candidates.
    for i in set_bits(bids).filter(|&i| i != winner) {
        push_loser(router, out, i, disco_trace::stall::LOST_ARBITRATION);
    }
    let flit = router.inputs[winner].front;
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
    let (in_port, in_vc) = router.port_vc(winner);
    out.departures.push(Departure {
        flit,
        in_port,
        in_vc,
        out: outdir,
        out_vc: out_vcs[winner],
    });
}

/// RC and VA for input VC `i`, whose cycle-start state is `state`
/// (`Idle` or `Routed`): routes a ready head flit, then bids for a free
/// output VC of the packet's class group. Returns the `(output, output
/// VC)` the VC holds once granted; `None` leaves it waiting, recorded
/// as a VA loser when its front flit is ready and unlocked.
#[allow(clippy::too_many_arguments)] // the compute phase's read-only inputs plus its two outputs
fn allocate(
    router: &Router,
    i: usize,
    mut state: VcState,
    ready: bool,
    store: &PacketStore,
    topo: &Topology,
    gate: crate::faults::PhaseGate<'_>,
    out: &mut RouterOutcome,
    va_losers: &mut Vec<(usize, usize)>,
) -> Option<(PortId, usize)> {
    let vc = &router.inputs[i];
    let front = vc.front;
    let (port, v) = router.port_vc(i);
    let vcs = router.config.vcs;
    let flat = |port: usize, v: usize| port * vcs + v;
    // The front packet, looked up at most once per visit.
    let mut packet: Option<&Packet> = None;
    // RC: a fresh head flit gets its output port.
    if state == VcState::Idle {
        if !(front.kind.is_head() && ready) {
            return None;
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
                    .map(|vc| router.outputs[flat(p.0, vc)].credits)
                    .max()
                    .unwrap_or(0)
            },
        );
        // Escape faulted links where a deadlock-free detour exists; the
        // identity when no fault plan is active.
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
    let VcState::Routed(dir) = state else {
        return None;
    };
    let pkt = *packet.get_or_insert_with(|| store.get(front.packet));
    // Acquire any free VC of the class group on the output port,
    // narrowed by the topology's dateline discipline (identity on the
    // mesh; low/high half-groups on the wrap topologies). An output VC
    // is taken if the cycle-start state or an earlier grant this cycle
    // holds it. VCT/SAF additionally need whole-packet credit (§3.3-A).
    let class_group = class_vcs(router, pkt.class);
    let out_vc = output_vc_range(topo, router.node, dir, pkt.dst, class_group).find(|&cand| {
        let output = &router.outputs[flat(dir.0, cand)];
        if !output.is_free() || out.grants.iter().any(|g| (g.2, g.3) == (dir, cand)) {
            return false;
        }
        match router.config.flow_control {
            FlowControl::Wormhole => true,
            _ => output.credits >= pkt.size_flits(),
        }
    });
    let Some(out_vc) = out_vc else {
        // No free output VC: a VA loser, and therefore a compression
        // candidate, once its flit is ready.
        if ready && !vc.locked {
            va_losers.push((port, v));
        }
        return None;
    };
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
    Some((dir, out_vc))
}

/// Runs RC + VA + SA for one router against its cycle-start state and
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
    out.reset(gate.tracing);
    let vcs = router.config.vcs;
    let ports = router.ports;
    let inputs = ports * vcs;
    let words = inputs.div_ceil(64);
    let flat = |port: usize, v: usize| port * vcs + v;
    let ComputeScratch {
        requests,
        no_credit,
        out_vcs,
        wanted,
        va_losers,
    } = scratch;
    if requests.len() < ports * words {
        requests.resize(ports * words, 0);
        no_credit.resize(ports * words, 0);
    }
    if out_vcs.len() < inputs {
        out_vcs.resize(inputs, 0);
    }
    if wanted.len() < ports.div_ceil(64) {
        wanted.resize(ports.div_ceil(64), 0);
    }
    va_losers.clear();

    // Classification pass over the non-empty VCs, in (port, vc) order:
    // the occupancy bitset's set bits ascend in flat index. RC and VA
    // run in the visit that finds them eligible, and every VC that ends
    // the visit `Active` with a ready, unlocked front flit files a
    // switch request as one bit of its output's mask. A visit reads the
    // VC's header, not its flits.
    for i in set_bits(&router.occupied) {
        let vc = &router.inputs[i];
        let ready = vc.front.ready_at <= now;
        let (o, out_vc) = match vc.state() {
            VcState::Active { out, out_vc } => (out, out_vc),
            // A VC still waiting for RC or VA gets them here, in this
            // visit; one that leaves it `Active` bids below.
            state => match allocate(router, i, state, ready, store, topo, gate, out, va_losers) {
                Some(active) => active,
                None => continue,
            },
        };
        // SA request: a ready front flit on an active VC. A locked
        // VC is under committed de/compression: its shadow is
        // invalid and must not be scheduled.
        if !ready || vc.locked {
            continue;
        }
        let front = vc.front;
        let mask = if router.outputs[flat(o.0, out_vc)].credits == 0 {
            &mut no_credit[o.0 * words..]
        } else if router.config.flow_control == FlowControl::StoreAndForward
            && front.kind.is_head()
            && !front.kind.is_tail()
            && !router.vc_at(i).has_tail_of(front.packet)
        {
            // SAF: the whole packet must be buffered before the head
            // may leave; until then the VC neither bids nor loses.
            continue;
        } else {
            &mut requests[o.0 * words..]
        };
        mask[i / 64] |= 1 << (i % 64);
        out_vcs[i] = out_vc;
        wanted[o.0 / 64] |= 1 << (o.0 % 64);
    }

    // SA + traversal decisions: one winner per output port that holds a
    // request, over that output's masks only; each output's masks are
    // zeroed once arbitrated, so the arena is clear for the next router.
    // Credits are read from the cycle-start state — each output is
    // arbitrated exactly once per cycle and outputs never share a credit
    // counter.
    for (wi, word) in wanted.iter_mut().enumerate() {
        let mut outputs = std::mem::take(word);
        while outputs != 0 {
            let oi = wi * 64 + outputs.trailing_zeros() as usize;
            outputs &= outputs - 1;
            let span = oi * words..(oi + 1) * words;
            let masks = OutputMasks {
                bids: &requests[span.clone()],
                starved: &no_credit[span.clone()],
                out_vcs,
            };
            arbitrate(router, now, store, gate, PortId(oi), masks, out);
            clear(&mut requests[span.clone()]);
            clear(&mut no_credit[span]);
        }
    }

    // VA losers also idle and are therefore compression candidates
    // (§3.2 step 1 collects losers of both VC and switch allocation).
    for &(port, v) in va_losers.iter() {
        push_loser(router, out, flat(port, v), disco_trace::stall::NO_FREE_VC);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::commit_router_local;
    use crate::config::NocConfig;
    use crate::packet::flits_for;
    use crate::topology::{ConcentratedMesh, NodeId, TopologySpec, EAST};

    /// A departure as `(in_port, in_vc, out, out_vc)`.
    type Decision = (usize, usize, PortId, usize);

    /// What the switch allocator must decide for one router-cycle, worked
    /// out one input VC at a time from the router's state and this
    /// cycle's routes and grants: every ready, unlocked VC active on an output
    /// bids there (or starves without credit); each output's winner is
    /// the best priority class, then the bidder closest at or after the
    /// output's round-robin pointer; the losers follow in ascending
    /// output, starved before outbid, each in `(port, vc)` order, then
    /// the VA losers.
    fn per_vc_rule(
        router: &Router,
        now: u64,
        store: &PacketStore,
        decided: &RouterOutcome,
    ) -> (Vec<Decision>, Vec<(usize, usize)>) {
        let vcs = router.config.vcs;
        let n = router.inputs.len();
        let mut bids = vec![Vec::new(); router.ports];
        let mut starved = vec![Vec::new(); router.ports];
        let mut va_losers = Vec::new();
        for i in 0..n {
            let header = &router.inputs[i];
            if header.len() == 0 || header.front.ready_at > now || header.locked {
                continue;
            }
            let (port, v) = (i / vcs, i % vcs);
            let granted = decided.grants.iter().find(|g| (g.0, g.1) == (port, v));
            let routed = decided.routes.iter().find(|r| (r.0, r.1) == (port, v));
            let state = match (granted, routed) {
                (Some(&(_, _, out, out_vc)), _) => VcState::Active { out, out_vc },
                (None, Some(&(_, _, out))) => VcState::Routed(out),
                (None, None) => header.state(),
            };
            match state {
                VcState::Active { out, out_vc } if router.credit_in(out, out_vc) == 0 => {
                    starved[out.0].push(i)
                }
                VcState::Active { out, out_vc } => bids[out.0].push((i, out_vc)),
                VcState::Routed(_) => va_losers.push((port, v)),
                VcState::Idle => {}
            }
        }
        let mut departures = Vec::new();
        let mut losers = Vec::new();
        for oi in 0..router.ports {
            losers.extend(starved[oi].iter().map(|&i| (i / vcs, i % vcs)));
            let rr = router.rr_sa[oi];
            let Some(&(winner, out_vc)) = bids[oi].iter().min_by_key(|&&(i, _)| {
                let prio = sa_priority(router, store.get(router.inputs[i].front.packet));
                (prio, (i + n - rr) % n)
            }) else {
                continue;
            };
            departures.push((winner / vcs, winner % vcs, PortId(oi), out_vc));
            losers.extend(
                bids[oi]
                    .iter()
                    .filter(|&&(i, _)| i != winner)
                    .map(|&(i, _)| (i / vcs, i % vcs)),
            );
        }
        losers.extend(va_losers);
        (departures, losers)
    }

    #[test]
    fn multi_word_masks_follow_the_per_vc_rule() {
        // A concentrated-mesh router: 8 ports x 9 VCs = 72 input VCs,
        // so every request mask spans two words and the round-robin
        // pointers cross the word boundary.
        let topo = ConcentratedMesh::new(2, 1, 4).build();
        let config = NocConfig {
            vcs: 9,
            ..NocConfig::default()
        };
        let mut router = Router::new(NodeId(0), config, topo.radix(), topo.link_ports());
        assert_eq!(router.inputs.len(), 72);
        let mut store = PacketStore::new();
        // Two packets in every input VC, all bound for a tile of the
        // router to the east. Classes alternate, so the requests split
        // over both VC groups (up to nine bidders for the east port) and
        // coherence packets lose priority to the others.
        let classes = [
            PacketClass::Request,
            PacketClass::Response,
            PacketClass::Coherence,
        ];
        for i in 0..router.inputs.len() {
            for k in 0..2 {
                let class = classes[(i + k) % classes.len()];
                let id = store.create(NodeId(0), NodeId(4), class, Payload::None, false, 0, 0);
                for flit in flits_for(id, 1 + (i + k) % 3, 0) {
                    router.accept(i / 9, i % 9, flit);
                }
            }
        }
        let gate = crate::faults::PhaseGate {
            plan: None,
            tracing: false,
        };
        let mut scratch = ComputeScratch::default();
        let mut out = RouterOutcome::default();
        let (mut departed, mut outbid, mut high_vc_won) = (0, 0, false);
        for now in 0..400 {
            if router.total_buffered() == 0 {
                break;
            }
            compute_router(&router, now, &store, &topo, gate, &mut scratch, &mut out);
            let (departures, losers) = per_vc_rule(&router, now, &store, &out);
            let decided: Vec<_> = out
                .departures
                .iter()
                .map(|d| (d.in_port, d.in_vc, d.out, d.out_vc))
                .collect();
            assert_eq!(decided, departures, "cycle {now}: winners");
            assert_eq!(out.sa_losers, losers, "cycle {now}: losers in order");
            outbid += losers.len();
            departed += decided.len();
            high_vc_won |= decided.iter().any(|d| d.0 * 9 + d.1 >= 64);
            commit_router_local(&mut router, &out);
            // The east neighbour frees its slots at once, except on output
            // VC 8, whose bidders therefore starve once its credits run out.
            for d in &out.departures {
                if d.out == EAST && d.out_vc != 8 {
                    router.return_credit(d.out, d.out_vc);
                }
            }
        }
        assert!(
            departed > 100 && outbid > departed,
            "{departed} departures, {outbid} losers"
        );
        assert!(high_vc_won, "a VC in the second mask word must win");
    }
}
