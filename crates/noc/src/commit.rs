//! The **commit** half of the cycle kernel: the only place router state
//! is mutated during a tick.
//!
//! [`commit_cycle`] applies every router's [`RouterOutcome`] in fixed
//! node order — local allocation state first, then the cross-router
//! effects of each departure (upstream credit return, link delivery,
//! ejection). The outcome carries no counters: the router's stat delta
//! is derived here from its loser list and departures, the same facts
//! the compute phase decided, each departure counted before the fault
//! hook may eat it, and a quiet router costs no stat work at all.
//! Because every outcome was computed from the cycle-start snapshot,
//! the order the compute phase visited routers in cannot change what
//! is committed; only this pass's node order does.
//!
//! The `disco-verify` commit-confinement lint pins this property down
//! statically: outside this module and `router.rs` itself, no code may
//! write a router's internal fields.

use crate::network::Network;
use crate::phase::{Departure, RouterOutcome};
use crate::router::{Router, VcState};
use crate::topology::{NodeId, PortId};

/// Applies one router's own action lists: RC/VA state transitions, the
/// winners' buffer pops and credit decrements, the winners' round-robin
/// pointers (each moves just past its winner), and the loser list the
/// DISCO layer reads.
pub(crate) fn commit_router_local(router: &mut Router, outcome: &RouterOutcome) {
    let vcs = router.config.vcs;
    let flat = |port: usize, v: usize| port * vcs + v;
    for &(port, v, dir) in &outcome.routes {
        router.inputs[flat(port, v)].state = VcState::Routed(dir);
    }
    for &(port, v, dir, out_vc) in &outcome.grants {
        router.out_alloc[flat(dir.0, out_vc)] = Some((port, v));
        router.inputs[flat(port, v)].state = VcState::Active { out: dir, out_vc };
    }
    let inputs = router.ports * vcs;
    for dep in &outcome.departures {
        router.rr_sa[dep.out.0] = (flat(dep.in_port, dep.in_vc) + 1) % inputs;
        let popped = router.pop_front_flit(dep.in_port, dep.in_vc);
        assert!(
            popped.is_some_and(|f| f.packet == dep.flit.packet),
            "commit desynchronized from compute: departing flit is not the buffer front"
        );
        if dep.out.0 < router.link_ports {
            router.credits[flat(dep.out.0, dep.out_vc)] -= 1;
        }
        if dep.flit.kind.is_tail() {
            router.out_alloc[flat(dep.out.0, dep.out_vc)] = None;
            router.inputs[flat(dep.in_port, dep.in_vc)].state = VcState::Idle;
        }
    }
    router.sa_losers.clear();
    router.sa_losers.extend_from_slice(&outcome.sa_losers);
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

/// Applies one node's outcome: local state, then the cross-router
/// effects of each departure (credit returns upstream, link deliveries
/// with the pipeline delay stamped in, ejections), with the stat delta
/// derived along the way.
fn commit_node(net: &mut Network, i: usize, outcome: &RouterOutcome) {
    // A router that decided nothing has no state to change and a zero
    // stat delta; only last cycle's losers go stale.
    if outcome.is_quiet() {
        net.routers[i].sa_losers.clear();
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
                net.routers[up.0].return_credit(up_out, dep.in_vc);
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
                net.delivered[tile.0].push(dep.flit.packet);
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
            net.routers[next.0].accept(next_in.0, dep.out_vc, flit);
        }
    }
    if let Some(ctx) = net.faults.as_mut() {
        ctx.stats.port_stall_cycles += outcome.fault_port_stalls;
    }
}

/// Applies every router's outcome in node order `0..n`.
pub(crate) fn commit_cycle(net: &mut Network, outcomes: &[RouterOutcome]) {
    debug_assert_eq!(outcomes.len(), net.routers.len(), "one outcome per router");
    for (node, outcome) in outcomes.iter().enumerate() {
        commit_node(net, node, outcome);
    }
}
