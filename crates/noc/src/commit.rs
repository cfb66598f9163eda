//! The **commit** half of the cycle kernel: the only place router state
//! is mutated during a tick.
//!
//! [`commit_router`] applies one router's [`RouterOutcome`] right after
//! [`crate::phase::compute_router`] decided it: local allocation state
//! first, then each departure's ejection or fault handling. The two
//! effects of a departure that reach another router — the flit's
//! delivery into the downstream input buffer and the credit returned
//! upstream for the slot it freed — are queued in [`LinkEffects`] and
//! applied by [`apply_link_effects`] after the last router, so every
//! router of the pass still decides from cycle-start state: no router
//! sees a flit or a credit that moved this cycle, whatever its place in
//! node order. The outcome carries no counters: the router's stat delta
//! is derived here from its loser list and departures, the same facts
//! the compute phase decided, each departure counted before the fault
//! hook may eat it, and a quiet router costs no stat work at all.
//!
//! The `disco-verify` commit-confinement lint pins this property down
//! statically: outside this module and `router.rs` itself, no code may
//! write a router's internal fields.

use crate::network::Network;
use crate::packet::Flit;
use crate::phase::{Departure, RouterOutcome};
use crate::router::{Router, VcState};
use crate::topology::{NodeId, PortId};

/// The cross-router effects of one cycle's departures, queued while the
/// router pass runs and applied after its last router. Both lists are
/// empty between ticks and keep their capacity from tick to tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct LinkEffects {
    /// Flits crossing a link, the pipeline delay stamped in:
    /// `(downstream router, input port, vc, flit)`.
    arrivals: Vec<(usize, usize, usize, Flit)>,
    /// Credits returned for freed input slots:
    /// `(upstream router, output port, vc)`.
    credits: Vec<(usize, PortId, usize)>,
}

/// Applies one router's own action lists: RC/VA state transitions, the
/// winners' buffer pops and credit decrements, the winners' round-robin
/// pointers (each moves just past its winner), and the loser list the
/// DISCO layer reads.
pub(crate) fn commit_router_local(router: &mut Router, outcome: &RouterOutcome) {
    let vcs = router.config.vcs;
    let flat = |port: usize, v: usize| port * vcs + v;
    for &(port, v, dir) in &outcome.routes {
        router.inputs[flat(port, v)].set_state(VcState::Routed(dir));
    }
    for &(port, v, dir, out_vc) in &outcome.grants {
        router.outputs[flat(dir.0, out_vc)].set_owner(Some(flat(port, v)));
        router.inputs[flat(port, v)].set_state(VcState::Active { out: dir, out_vc });
    }
    let inputs = router.ports * vcs;
    for dep in &outcome.departures {
        let next = flat(dep.in_port, dep.in_vc) + 1;
        router.rr_sa[dep.out.0] = if next == inputs { 0 } else { next };
        let popped = router.pop_front_flit(dep.in_port, dep.in_vc);
        assert!(
            popped.is_some_and(|f| f.packet == dep.flit.packet),
            "commit desynchronized from compute: departing flit is not the buffer front"
        );
        if dep.out.0 < router.link_ports {
            router.outputs[flat(dep.out.0, dep.out_vc)].credits -= 1;
        }
        if dep.flit.kind.is_tail() {
            router.outputs[flat(dep.out.0, dep.out_vc)].set_owner(None);
            router.inputs[flat(dep.in_port, dep.in_vc)].set_state(VcState::Idle);
        }
    }
    router.sa_losers.clear();
    router.sa_losers.extend_from_slice(&outcome.sa_losers);
}

/// Commits a router that holds no flit: it decided nothing, and only
/// last cycle's losers go stale.
pub(crate) fn commit_empty(router: &mut Router) {
    router.sa_losers.clear();
}

/// Adds one departure's share of its router's stat delta to the
/// network counters; `linked` tells whether a link leaves through its
/// output. Runs before the fault hook sees the departure: a delivered
/// packet's latency, hops and class are read from the store, which a
/// failed ejection check removes it from.
fn count_departure(net: &mut Network, dep: &Departure, linked: bool) {
    let Network {
        stats,
        store,
        topology,
        now,
        ..
    } = net;
    stats.buffer_reads += 1;
    stats.crossbar_flits += 1;
    if topology.is_local(dep.out) {
        if dep.flit.kind.is_tail() {
            let pkt = store.get(dep.flit.packet);
            stats.packets_delivered += 1;
            let latency = *now - pkt.injected_at;
            stats.total_packet_latency += latency;
            stats.total_hops += topology.hops(pkt.src, pkt.dst) as u64;
            let ci = crate::stats::class_index(pkt.class);
            stats.delivered_by_class[ci] += 1;
            stats.latency_by_class[ci] += latency;
        }
    } else if linked {
        // Express traversals are priced separately (longer wire); the
        // buffer write at the far end costs the same either way.
        if topology.express_span() > 0
            && matches!(
                dep.out,
                crate::topology::EXPRESS_EAST | crate::topology::EXPRESS_WEST
            )
        {
            stats.express_link_flits += 1;
        } else {
            stats.link_flits += 1;
        }
        stats.buffer_writes += 1;
    } else {
        // The departure loop drops this flit (no link to corrupt); the
        // counter keeps the conservation bug visible in release builds
        // where the debug assertion is compiled out.
        stats.routing_violations += 1;
    }
}

/// Applies router `i`'s outcome: local state, then each departure's
/// ejection, with the stat delta derived along the way. The credit
/// return upstream and the link delivery (the pipeline delay stamped
/// in) are queued in `links` for [`apply_link_effects`].
pub(crate) fn commit_router(
    net: &mut Network,
    i: usize,
    outcome: &RouterOutcome,
    links: &mut LinkEffects,
) {
    // A router that decided nothing has no state to change and a zero
    // stat delta; only last cycle's losers go stale.
    if outcome.is_quiet() {
        commit_empty(&mut net.routers[i]);
        return;
    }
    let now = net.now;
    net.stats.sa_losses += outcome.sa_losers.len() as u64;
    if !outcome.departures.is_empty() {
        net.stats.arbitrations += 1;
    }
    commit_router_local(&mut net.routers[i], outcome);
    // Cycle-stamp this router's compute-phase events here, in node
    // order, so the trace byte stream follows the commit order.
    if let Some(tracer) = &mut net.tracer {
        tracer.record_all(&outcome.events);
    }
    for dep in &outcome.departures {
        // Return a credit upstream for the freed slot: the topology's
        // input-source table names the upstream router and its output
        // port directly, for any radix and even unidirectional links.
        if dep.in_port < net.routers[i].link_ports {
            if let Some((up, up_out)) = net.topology.in_source(NodeId(i), PortId(dep.in_port)) {
                links.credits.push((up.0, up_out, dep.in_vc));
            }
        }
        let link = net.topology.out_link(NodeId(i), dep.out);
        count_departure(net, dep, link.is_some());
        // Fault hook: an injected drop (or a failed ejection-time
        // integrity check) eats the flit here — after the upstream
        // credit return, instead of link delivery or ejection.
        if crate::faults::intercept_departure(net, i, dep) {
            continue;
        }
        if net.topology.is_local(dep.out) {
            if dep.flit.kind.is_tail() {
                let tile = net
                    .topology
                    .tile_at(NodeId(i), dep.out)
                    .unwrap_or(NodeId(i));
                net.push_delivered(tile, dep.flit.packet);
                disco_trace::emit!(
                    net,
                    disco_trace::Event::Eject {
                        packet: dep.flit.packet.0,
                        node: tile.0 as u16,
                    }
                );
            }
        } else {
            let Some((next, next_in)) = link else {
                // All supported routing functions are minimal and stay
                // on live links; dropping the flit here beats
                // corrupting a router that isn't connected.
                // `count_departure` counted it in routing_violations.
                debug_assert!(false, "node {i} routed {:?} onto a dead port", dep.out);
                continue;
            };
            let mut flit = dep.flit;
            flit.ready_at = now + net.config.pipeline_stages;
            links.arrivals.push((next.0, next_in.0, dep.out_vc, flit));
        }
    }
    if let Some(ctx) = net.faults.as_mut() {
        ctx.stats.port_stall_cycles += outcome.fault_port_stalls;
    }
}

/// Applies the pass's queued cross-router effects, in the order their
/// departures were committed, and empties `links`.
pub(crate) fn apply_link_effects(net: &mut Network, links: &mut LinkEffects) {
    for (up, out, vc) in links.credits.drain(..) {
        net.routers[up].return_credit(out, vc);
    }
    for (next, port, vc, flit) in links.arrivals.drain(..) {
        net.routers[next].accept(port, vc, flit);
    }
}
