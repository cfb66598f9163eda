//! The **commit** half of the cycle kernel: the only place router state
//! is mutated during a tick.
//!
//! [`commit_cycle`] applies every router's [`RouterOutcome`] in fixed
//! node order — local allocation state first, then the cross-router
//! effects of each departure (upstream credit return, link delivery,
//! ejection) and the stat delta. Outcomes live in per-shard slots, but
//! shards own *contiguous* node ranges, so walking the slots in shard
//! order with a running node counter **is** node order `0..n`. Because
//! the outcomes were computed from the cycle-start snapshot, the
//! committed state is identical no matter how the compute phase was
//! scheduled, which is what keeps every shard count byte-exact.
//!
//! The `disco-verify` commit-confinement lint pins this property down
//! statically: outside this module and `router.rs` itself, no code may
//! write a router's internal fields.

use crate::network::{Network, ShardSlot};
use crate::phase::RouterOutcome;
use crate::router::{Router, VcState};
use crate::topology::{NodeId, PortId};
use std::sync::Mutex;

/// Applies one router's own action lists: RC/VA state transitions, the
/// winners' buffer pops and credit decrements, round-robin pointers,
/// and the loser list the DISCO layer reads.
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
    for dep in &outcome.departures {
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
    router.rr_sa.clone_from(&outcome.rr_sa);
    router.sa_losers.clear();
    router.sa_losers.extend_from_slice(&outcome.sa_losers);
}

/// Applies one node's outcome: local state, then the cross-router
/// effects (credit returns upstream, link deliveries with the pipeline
/// delay stamped in, ejections) and the stat merge.
fn commit_node(net: &mut Network, i: usize, outcome: &RouterOutcome) {
    let now = net.now;
    commit_router_local(&mut net.routers[i], outcome);
    // Cycle-stamp this router's compute-phase events here, in node
    // order: the trace byte-stream is then independent of how the
    // compute phase was scheduled across shards.
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
            let Some((next, next_in)) = net.topology.out_link(NodeId(i), dep.out) else {
                // All supported routing functions are minimal and stay
                // on live links; dropping the flit here beats
                // corrupting a router that isn't connected. The
                // compute phase counted it in routing_violations.
                debug_assert!(false, "node {i} routed {:?} onto a dead port", dep.out);
                continue;
            };
            let mut flit = dep.flit;
            flit.ready_at = now + net.config.pipeline_stages;
            net.routers[next.0].accept(next_in.0, dep.out_vc, flit);
        }
    }
    net.stats.accumulate(&outcome.stats);
    if let Some(ctx) = net.faults.as_mut() {
        ctx.stats.port_stall_cycles += outcome.fault_port_stalls;
    }
}

/// Applies every shard slot's outcomes in shard order. Shard `s` owns
/// the contiguous node range [`Network::shard_span`]`(s)`, so the
/// running counter visits nodes exactly in order `0..n` — the same
/// schedule the serial path produces.
pub(crate) fn commit_cycle(net: &mut Network, slots: &mut [Mutex<ShardSlot>]) {
    let mut node = 0;
    for slot in slots.iter_mut() {
        // The compute phase is over and we hold `&mut`: the lock cannot
        // be contended, and a poisoned slot only means a compute worker
        // panicked *after* the pool already re-raised the panic.
        let slot = match slot.get_mut() {
            Ok(s) => s,
            Err(poisoned) => poisoned.into_inner(),
        };
        for outcome in &slot.outcomes {
            commit_node(net, node, outcome);
            node += 1;
        }
    }
    debug_assert_eq!(
        node,
        net.routers.len(),
        "shard slots must tile the node range"
    );
}
