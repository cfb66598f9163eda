//! Pins the zero-allocation contract of the cycle kernel: once the
//! compute arena has reached its high-water capacity, a
//! steady-state [`Network::tick`] performs **no** heap allocation — no
//! per-router outcome vectors, no RC/VA/SA request or loser lists, no
//! per-flit `flits_for` buffers, also while packets contend for an
//! output. DISCO's in-place rewrite of a resident packet
//! ([`Network::reshape_resident`]) allocates nothing either.
//!
//! The measurement uses a counting global allocator gated by a
//! thread-local flag, so only allocations made *by this test's thread
//! inside the measurement window* count — the libtest harness runs on
//! other threads and must not pollute the counter. This file must stay
//! a single-`#[test]` binary for the same reason.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use disco_compress::CacheLine;
use disco_noc::packet::flits_for;
use disco_noc::{FlowControl, Mesh, Network, NocConfig, NodeId, PacketClass, Payload, Ring};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

std::thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct CountingAlloc;

// SAFETY: defers entirely to `System`; the only addition is a counter
// bump, which allocates nothing itself (`try_with` + const-initialized
// `Cell` avoid lazy TLS allocation and teardown re-entrancy).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(|c| c.get()).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.try_with(|c| c.get()).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Sends one burst of responses (`(src, dst)` tile pairs) at the current
/// cycle.
fn send_burst(net: &mut Network, burst: &[(usize, usize)], line: CacheLine) {
    for (tag, &(src, dst)) in burst.iter().enumerate() {
        net.send(
            NodeId(src),
            NodeId(dst),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            tag as u64,
        );
    }
}

/// Ticks until every packet of the burst has arrived; returns the
/// cycles to the first arrival and the arrived packets' payloads.
fn drain_burst(name: &str, net: &mut Network, burst: &[(usize, usize)]) -> (u32, Vec<Payload>) {
    let mut first_arrival = None;
    let mut got = Vec::new();
    for tick in 1..=2000u32 {
        net.tick();
        for &(_, dst) in burst {
            got.extend(
                net.take_delivered(NodeId(dst))
                    .into_iter()
                    .map(|p| p.payload),
            );
        }
        if !got.is_empty() {
            first_arrival.get_or_insert(tick);
        }
        if got.len() == burst.len() {
            break;
        }
    }
    assert_eq!(
        got.len(),
        burst.len(),
        "{name}: every burst packet must arrive"
    );
    assert!(net.is_idle(), "{name}: the burst must drain");
    (first_arrival.unwrap_or(0), got)
}

/// Drives the burst twice to warm up, so every router's outcome slot,
/// per-output request list, loser list and VC deque reaches capacity,
/// then measures a third identical burst mid-flight: ticks inside the
/// window must allocate exactly nothing. With `contended`, the window
/// must also see switch-allocation losers, so the loser and request
/// paths are the ones measured.
fn assert_steady_state_allocates_nothing(
    name: &str,
    net: &mut Network,
    burst: &[(usize, usize)],
    contended: bool,
) {
    let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);

    // Warm-up flights. Record the time to the first arrival so the
    // measurement window below can be sized to end strictly before the
    // measured burst's first delivery (the delivered-queue push is
    // bookkeeping outside the kernel contract).
    let mut first_arrival = u32::MAX;
    for _ in 0..2 {
        send_burst(net, burst, line);
        first_arrival = first_arrival.min(drain_burst(name, net, burst).0);
    }
    assert!(
        first_arrival > 8,
        "{name}: flight time too short to measure"
    );

    // The measured burst, same routes. `send` itself may allocate
    // (packet store insert); that's outside the window.
    send_burst(net, burst, line);
    net.tick();
    net.tick();

    let losses_before = net.stats().sa_losses;
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..first_arrival / 2 {
        net.tick();
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        after - before,
        0,
        "{name}: steady-state ticks must not touch the heap"
    );
    if contended {
        assert!(
            net.stats().sa_losses > losses_before,
            "{name}: the window must see allocation losers"
        );
    }

    // The measured packets still arrive intact.
    let (_, got) = drain_burst(name, net, burst);
    for payload in got {
        match payload {
            Payload::Raw(l) => assert_eq!(l, line, "{name}"),
            other => panic!("{name}: expected raw payload, got {other:?}"),
        }
    }
}

/// Stages three packets in one VC of a 4x4 mesh router — a request, a
/// 5-flit response, another request — after three requests have passed
/// through that VC, so the staged flits wrap around the end of the VC's
/// ring slots. Then shrinks the response to 2 flits and grows it to 6
/// (filling the buffer) inside the measurement window: both rewrites
/// move the packet queued behind it, and neither may touch the heap.
fn assert_reshape_allocates_nothing() {
    let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
    let (node, dst) = (NodeId(5), NodeId(15));
    let local = net.topology().local_port(node).0;
    let vc = PacketClass::Request.vc();
    for tag in 0..3 {
        net.send(node, dst, PacketClass::Request, Payload::None, false, tag);
    }
    while !net.is_idle() {
        net.tick();
        let _ = net.take_delivered(dst);
        assert!(net.now() < 1000, "reshape: warm-up traffic must drain");
    }
    let line = CacheLine::from_u64_words([1, 2, 3, 4, 5, 6, 7, 8]);
    let staged = [
        (PacketClass::Request, Payload::None, 1),
        (PacketClass::Response, Payload::Raw(line), 5),
        (PacketClass::Request, Payload::None, 1),
    ]
    .map(|(class, payload, size)| {
        let id = net
            .store_mut()
            .create(node, dst, class, payload, true, 0, 0);
        for flit in flits_for(id, size, 0) {
            net.router_mut(node).accept(local, vc, flit);
        }
        id
    });
    let target = staged[1];

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    let shrunk = net.reshape_resident(node, local, vc, target, 2, true);
    let grown = net.reshape_resident(node, local, vc, target, 6, true);
    let after = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(false));
    assert!(shrunk && grown, "reshape: both rewrites must apply");
    assert_eq!(
        after - before,
        0,
        "reshape: in-place rewrites must not touch the heap"
    );

    let view = net.router(node).vc(local, vc);
    assert_eq!(view.occupancy(), 8);
    assert_eq!(view.resident_packets(), staged.to_vec());
    assert_eq!(view.resident_of(target), 6);
    assert!(view.has_tail_of(target));
    net.check_invariants()
        .expect("reshape: router state stays legal");
}

/// A 16x1 mesh line and a 16-node ring (low-buffer router parameters)
/// each carry one uncontended packet: the zero-alloc contract is
/// topology-independent, so both substrates get the same mid-flight
/// window. On a 4x4 mesh, the four tiles of row 0 and two tiles of
/// column 0 then send to the far corner at once, so their packets
/// compete for the eastward and southward outputs and the ejection
/// port: the window runs the per-output SA request lists, arbitration
/// and credit losers and VA losers, under wormhole and under virtual
/// cut-through.
#[test]
fn steady_state_cycles_allocate_nothing() {
    assert_reshape_allocates_nothing();

    let mut mesh = Network::new(Mesh::new(16, 1), NocConfig::default());
    assert_steady_state_allocates_nothing("mesh 16x1", &mut mesh, &[(0, 15)], false);

    let mut ring = Network::new(Ring::new(16), NocConfig::low_buffer_ring());
    assert_steady_state_allocates_nothing("ring 16", &mut ring, &[(0, 8)], false);

    let contention = [(0, 15), (1, 15), (2, 15), (3, 15), (4, 15), (8, 15)];
    for (name, flow_control) in [
        ("mesh 4x4 contended", FlowControl::Wormhole),
        ("mesh 4x4 contended vct", FlowControl::VirtualCutThrough),
    ] {
        // Two VCs per class group: two packets can hold output VCs of
        // one port at once and then compete in SA, not only in VA.
        let config = NocConfig {
            vcs: 4,
            flow_control,
            ..NocConfig::default()
        };
        let mut net = Network::new(Mesh::new(4, 4), config);
        assert_steady_state_allocates_nothing(name, &mut net, &contention, true);
    }
}
