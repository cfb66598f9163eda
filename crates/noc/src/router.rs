//! The radix-parametric virtual-channel router (Fig. 2a, minus the
//! DISCO units, which `disco-core` layers on through the extension
//! API). The paper's mesh instantiates it at radix 5 (N/S/E/W/Local);
//! the ring kinds at radix 3; the concentrated mesh at 4 + c.
//!
//! Per cycle the router performs route computation (RC) for new head
//! flits, virtual-channel allocation (VA), and switch allocation (SA)
//! with per-class priorities — all three stages run as the pure
//! `phase::compute_router` function over this struct's cycle-start
//! state, and the resulting action lists are applied by the `commit`
//! code right after. Pipeline depth is modelled by delaying a flit's
//! readiness after each hop. Credit-based backpressure tracks the free
//! slots of each downstream virtual channel.
//!
//! **Storage.** All input buffers of a router share one flit ring of
//! `ports · vcs · depth` slots; VC `i` uses its own `depth` slots
//! circularly. Each VC has a half-cache-line header (`VcHeader`)
//! holding its ring offset and length, its allocation state, the DISCO
//! lock bit and a copy of its front flit; each output VC's credits and
//! owner sit together in an `OutVc`; and an occupancy bitset marks the
//! non-empty VCs. The compute phase therefore visits
//! only non-empty VCs and decides each from its header alone; the ring
//! is read only to pop, reshape, or scan a VC's whole contents.
//! [`Router::vc`] hands out a borrowed [`Vc`] view over one header and
//! its ring slots, and `Router`'s `Debug` text prints the buffers it
//! models, not the storage.

use crate::config::NocConfig;
use crate::packet::{Flit, FlitKind, PacketId};
use crate::topology::{NodeId, PortId};
use std::fmt;

/// Progress of one input virtual channel's front packet. The header
/// stores it in three bytes (see [`VcHeader::state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VcState {
    /// No packet being processed.
    Idle,
    /// Route computed; waiting for an output VC.
    Routed(PortId),
    /// Output VC acquired; flits stream through the switch.
    Active { out: PortId, out_vc: usize },
}

/// One input virtual channel's header: where its flits sit in the
/// router's flit ring, its allocation state, the DISCO lock bit, and a
/// copy of its front flit. Half a cache line, so the compute phase
/// decides a VC from one load instead of chasing the ring, and two
/// neighbouring VCs share a line.
#[derive(Clone, Copy)]
#[repr(C, align(32))]
pub(crate) struct VcHeader {
    /// Copy of the ring's front flit; meaningful only while `len > 0`.
    pub(crate) front: Flit,
    /// Ring offset of the front flit within this VC's `depth` slots.
    head: u16,
    /// Buffered flit count.
    len: u16,
    /// The [`VcState`]: tag (0 `Idle`, 1 `Routed`, 2 `Active`), output
    /// port, output VC.
    state: [u8; 3],
    /// DISCO shadow-invalid bit: a locked VC is under committed in-network
    /// de/compression and is excluded from switch allocation (§3.2 step 3).
    pub(crate) locked: bool,
}

const _: () = assert!(std::mem::size_of::<VcHeader>() == 32);

/// One output virtual channel: the downstream credits and the input VC
/// that holds it, side by side so VA and SA read both from one line.
#[derive(Clone, Copy)]
pub(crate) struct OutVc {
    /// Free slots in the downstream input buffer (unbounded on local
    /// ejection ports).
    pub(crate) credits: usize,
    /// Flattened index of the input VC that holds this output VC, or
    /// [`OutVc::FREE`].
    owner: u16,
}

impl OutVc {
    const FREE: u16 = u16::MAX;

    /// True while no input VC holds this output VC.
    #[inline]
    pub(crate) fn is_free(&self) -> bool {
        self.owner == Self::FREE
    }

    /// The flattened input VC holding this output VC.
    #[inline]
    pub(crate) fn owner(&self) -> Option<usize> {
        (!self.is_free()).then_some(self.owner as usize)
    }

    /// Hands this output VC to flattened input VC `input`, or frees it.
    #[inline]
    pub(crate) fn set_owner(&mut self, input: Option<usize>) {
        self.owner = input.map_or(Self::FREE, |i| i as u16);
    }
}

/// A flit that fills unused ring slots; never read as buffer content.
const EMPTY_SLOT: Flit = Flit {
    packet: PacketId(0),
    kind: FlitKind::Body,
    ready_at: 0,
};

impl VcHeader {
    const EMPTY: VcHeader = VcHeader {
        front: EMPTY_SLOT,
        head: 0,
        len: 0,
        state: [0; 3],
        locked: false,
    };

    /// Buffered flit count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// The front packet's progress through RC and VA.
    #[inline]
    pub(crate) fn state(&self) -> VcState {
        let [tag, out, out_vc] = self.state;
        match tag {
            1 => VcState::Routed(PortId(out as usize)),
            2 => VcState::Active {
                out: PortId(out as usize),
                out_vc: out_vc as usize,
            },
            _ => VcState::Idle,
        }
    }

    /// Records the front packet's progress. `Router::new` bounds port
    /// and VC indices to a byte each.
    #[inline]
    pub(crate) fn set_state(&mut self, state: VcState) {
        self.state = match state {
            VcState::Idle => [0; 3],
            VcState::Routed(out) => [1, out.0 as u8, 0],
            VcState::Active { out, out_vc } => [2, out.0 as u8, out_vc as u8],
        };
    }
}

/// A borrowed view of one input virtual channel: its header plus its
/// `depth` slots of the router's flit ring.
#[derive(Clone, Copy)]
pub struct Vc<'a> {
    header: &'a VcHeader,
    slots: &'a [Flit],
}

impl<'a> Vc<'a> {
    /// The buffered flits, front first: the run from the ring offset to
    /// the end of the VC's slots, then the run that wrapped to their
    /// start.
    pub(crate) fn flits(self) -> impl Iterator<Item = &'a Flit> {
        let head = self.header.head as usize;
        let end = (head + self.header.len()).min(self.slots.len());
        let wrapped = self.header.len() - (end - head);
        self.slots[head..end].iter().chain(&self.slots[..wrapped])
    }

    /// The front packet's progress through RC and VA.
    #[cfg(test)]
    pub(crate) fn state(self) -> VcState {
        self.header.state()
    }

    /// Packet at the front of the buffer, if any.
    pub fn front_packet(self) -> Option<PacketId> {
        (self.header.len > 0).then_some(self.header.front.packet)
    }

    /// Buffered flit count.
    pub fn occupancy(self) -> usize {
        self.header.len()
    }

    /// True if the DISCO shadow lock is set.
    pub fn is_locked(self) -> bool {
        self.header.locked
    }

    /// The output port this VC's front packet is routed toward, once RC
    /// has run.
    pub fn routed_port(self) -> Option<PortId> {
        match self.header.state() {
            VcState::Idle => None,
            VcState::Routed(p) => Some(p),
            VcState::Active { out, .. } => Some(out),
        }
    }

    /// True if the tail flit of `packet` is buffered here.
    pub fn has_tail_of(self, packet: PacketId) -> bool {
        self.flits().any(|f| f.packet == packet && f.kind.is_tail())
    }

    /// True if the front flit is the head of its packet (the packet has
    /// not started leaving — a precondition for in-network compression).
    pub fn front_is_head(self) -> bool {
        self.header.len > 0 && self.header.front.kind.is_head()
    }

    /// Buffered flit count belonging to `packet`.
    pub fn resident_of(self, packet: PacketId) -> usize {
        self.flits().filter(|f| f.packet == packet).count()
    }

    /// Distinct packets resident in this buffer, in queue order.
    pub fn resident_packets(self) -> Vec<PacketId> {
        self.resident_packets_iter().collect()
    }

    /// Iterator form of [`resident_packets`](Self::resident_packets) —
    /// the candidate-scan hot loop uses this to avoid a per-VC
    /// allocation.
    pub fn resident_packets_iter(self) -> impl Iterator<Item = PacketId> + 'a {
        let mut prev: Option<PacketId> = None;
        self.flits().filter_map(move |f| {
            if prev == Some(f.packet) {
                None
            } else {
                prev = Some(f.packet);
                Some(f.packet)
            }
        })
    }
}

/// Prints the VC as the buffer, state and lock it models.
impl fmt::Debug for Vc<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Buffer<'a>(Vc<'a>);
        impl fmt::Debug for Buffer<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list().entries(self.0.flits()).finish()
            }
        }
        f.debug_struct("Vc")
            .field("buffer", &Buffer(*self))
            .field("state", &self.header.state())
            .field("locked", &self.header.locked)
            .finish()
    }
}

/// A router of any topology. Fields are crate-visible so the pure
/// compute phase (`phase`) can read them and the commit code
/// (`commit`) can apply action lists; everything else goes through the
/// public accessors.
#[derive(Clone)]
pub struct Router {
    pub(crate) node: NodeId,
    pub(crate) config: NocConfig,
    /// Ports on this router (the topology's radix), local ports
    /// included.
    pub(crate) ports: usize,
    /// Ports `0..link_ports` face other routers; `link_ports..ports`
    /// are local NI ports with unbounded ejection credits.
    pub(crate) link_ports: usize,
    /// Input VC headers, flattened `port * vcs + vc`: half a cache line
    /// each, in one contiguous allocation.
    pub(crate) inputs: Vec<VcHeader>,
    /// Output VCs, flattened `out_port * vcs + out_vc`: credits and
    /// owner.
    pub(crate) outputs: Vec<OutVc>,
    /// Per-output round-robin pointer over flattened (port, vc) inputs.
    pub(crate) rr_sa: Vec<usize>,
    /// The router's flit ring: input VC `i` owns the `buffer_depth`
    /// slots starting at `i * buffer_depth`, used circularly from its
    /// header's `head`. Sized once at construction; never grows.
    pub(crate) flits: Vec<Flit>,
    /// Occupancy bitset over the flattened input VCs: bit `i` is set
    /// exactly when VC `i` holds a flit, so the compute phase visits
    /// only non-empty VCs, in `(port, vc)` order.
    pub(crate) occupied: Vec<u64>,
    /// Switch-allocation losers of the last cycle: the idling packets the
    /// DISCO arbitrator filters (§3.2 step 1).
    pub(crate) sa_losers: Vec<(usize, usize)>,
    /// Total flits buffered across all input VCs, maintained on every
    /// accept/pop/reshape. `0` lets the router pass skip the router
    /// outright — on large networks most routers are idle most cycles.
    pub(crate) buffered: usize,
}

/// Prints the router as the per-VC buffers it models: the ring, the
/// headers' ring positions and the occupancy bitset are storage detail
/// and never appear, and each output VC's owner prints as its
/// `(port, vc)`.
impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Inputs<'a>(&'a Router);
        impl fmt::Debug for Inputs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let r = self.0;
                f.debug_list()
                    .entries((0..r.inputs.len()).map(|i| r.vc_at(i)))
                    .finish()
            }
        }
        f.debug_struct("Router")
            .field("node", &self.node)
            .field("config", &ConfigText(&self.config))
            .field("ports", &self.ports)
            .field("link_ports", &self.link_ports)
            .field("inputs", &Inputs(self))
            .field("out_alloc", &self.out_alloc())
            .field("credits", &self.credit_list())
            .field("rr_sa", &self.rr_sa)
            .field("sa_losers", &self.sa_losers)
            .field("buffered", &self.buffered)
            .finish()
    }
}

/// The router's config in the text `NocConfig`'s derived `Debug` gave
/// while the config also carried a compute-phase shard count, which was
/// 0 in every recorded run. `tests/golden_kernel.txt` hashes this text
/// every cycle, so the retired field stays in it.
struct ConfigText<'a>(&'a NocConfig);

impl fmt::Debug for ConfigText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let NocConfig {
            vcs,
            buffer_depth,
            pipeline_stages,
            flow_control,
            routing,
            scheduling,
        } = self.0;
        f.debug_struct("NocConfig")
            .field("vcs", vcs)
            .field("buffer_depth", buffer_depth)
            .field("pipeline_stages", pipeline_stages)
            .field("flow_control", flow_control)
            .field("routing", routing)
            .field("scheduling", scheduling)
            .field("compute_shards", &0usize)
            .finish()
    }
}

/// The `(word, mask)` of input VC `idx` in the occupancy bitset.
#[inline]
fn occupancy_bit(idx: usize) -> (usize, u64) {
    (idx / 64, 1 << (idx % 64))
}

impl Router {
    pub(crate) fn new(node: NodeId, config: NocConfig, ports: usize, link_ports: usize) -> Self {
        let depth = config.buffer_depth;
        assert!(
            u16::try_from(depth).is_ok(),
            "buffer depth {depth} exceeds the VC header's ring offsets"
        );
        assert!(
            ports < 256 && config.vcs < 256,
            "{ports} ports x {} VCs exceed the VC header's byte-wide indices",
            config.vcs
        );
        let n = ports * config.vcs;
        // Local (ejection) outputs are modelled with unlimited credits;
        // inter-router outputs start with the full downstream buffer.
        let outputs = (0..n)
            .map(|i| OutVc {
                credits: if i / config.vcs < link_ports {
                    depth
                } else {
                    usize::MAX / 2
                },
                owner: OutVc::FREE,
            })
            .collect();
        Router {
            node,
            config,
            ports,
            link_ports,
            inputs: vec![VcHeader::EMPTY; n],
            outputs,
            rr_sa: vec![0; ports],
            flits: vec![EMPTY_SLOT; n * depth],
            occupied: vec![0; n.div_ceil(64)],
            sa_losers: Vec::with_capacity(n),
            buffered: 0,
        }
    }

    /// Flat index of `(port, vc)` into the SoA state arrays.
    #[inline]
    pub(crate) fn idx(&self, port: usize, vc: usize) -> usize {
        port * self.config.vcs + vc
    }

    /// The `(port, vc)` of flattened input VC `idx`.
    #[inline]
    pub(crate) fn port_vc(&self, idx: usize) -> (usize, usize) {
        let port = idx / self.config.vcs;
        (port, idx - port * self.config.vcs)
    }

    /// The view of input VC `idx` (flattened `port * vcs + vc`).
    #[inline]
    pub(crate) fn vc_at(&self, idx: usize) -> Vc<'_> {
        let depth = self.config.buffer_depth;
        Vc {
            header: &self.inputs[idx],
            slots: &self.flits[idx * depth..(idx + 1) * depth],
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Ports on this router (the topology's radix).
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Ports `0..link_ports()` face other routers.
    pub fn link_ports(&self) -> usize {
        self.link_ports
    }

    /// True for a local (NI) port of this router.
    pub fn is_local_port(&self, port: PortId) -> bool {
        port.0 >= self.link_ports
    }

    /// Immutable view of an input virtual channel.
    ///
    /// # Panics
    ///
    /// Panics if `port`/`vc` are out of range.
    pub fn vc(&self, port: usize, vc: usize) -> Vc<'_> {
        self.vc_at(self.idx(port, vc))
    }

    /// Free slots reported by the downstream router for `(out, vc)` — the
    /// `credit_in` signal of the confidence counter (Fig. 3).
    pub fn credit_in(&self, out: PortId, vc: usize) -> usize {
        self.outputs[self.idx(out.0, vc)].credits
    }

    /// Each output VC's owner as `(in_port, in_vc)`, flattened
    /// `out_port * vcs + out_vc`: the text and snapshot form.
    fn out_alloc(&self) -> Vec<Option<(usize, usize)>> {
        self.outputs
            .iter()
            .map(|o| o.owner().map(|i| self.port_vc(i)))
            .collect()
    }

    /// Each output VC's credits, flattened `out_port * vcs + out_vc`.
    fn credit_list(&self) -> Vec<usize> {
        self.outputs.iter().map(|o| o.credits).collect()
    }

    /// Occupied slots of a local input VC — the complement of the
    /// `credit_out` signal this router sends upstream.
    pub fn local_occupancy(&self, port: usize, vc: usize) -> usize {
        self.inputs[self.idx(port, vc)].len()
    }

    /// Switch-allocation losers of the last cycle (input port, vc).
    pub fn sa_losers(&self) -> &[(usize, usize)] {
        &self.sa_losers
    }

    /// Sets or clears the DISCO shadow lock on a VC.
    pub fn set_locked(&mut self, port: usize, vc: usize, locked: bool) {
        let idx = self.idx(port, vc);
        self.inputs[idx].locked = locked;
    }

    /// Accepts a flit arriving on an input port (from a link or the NI).
    /// Public for tests and harnesses that stage buffer contents
    /// directly; normal traffic goes through [`crate::Network::send`].
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — credits must prevent that; an
    /// overflow is a flow-control bug, not a runtime condition.
    pub fn accept(&mut self, port: usize, vc: usize, flit: Flit) {
        let idx = self.idx(port, vc);
        let depth = self.config.buffer_depth;
        let node = self.node;
        let header = &mut self.inputs[idx];
        let len = header.len();
        assert!(
            len < depth,
            "buffer overflow at {node} port {port} vc {vc}: flow control violated"
        );
        // The slot after the last flit, wrapped: `head < depth` and
        // `len < depth`, so one subtraction wraps it.
        let slot = header.head as usize + len;
        let slot = if slot >= depth { slot - depth } else { slot };
        self.flits[idx * depth + slot] = flit;
        if len == 0 {
            header.front = flit;
            let (word, mask) = occupancy_bit(idx);
            self.occupied[word] |= mask;
        }
        header.len += 1;
        self.buffered += 1;
    }

    /// Pops the front flit of an input VC, keeping the front copy, the
    /// occupancy bit and the occupancy counter in sync. The commit pass
    /// uses this for every departure.
    pub(crate) fn pop_front_flit(&mut self, port: usize, vc: usize) -> Option<Flit> {
        let idx = self.idx(port, vc);
        let depth = self.config.buffer_depth;
        let header = &mut self.inputs[idx];
        if header.len == 0 {
            return None;
        }
        let flit = header.front;
        header.head = if header.head as usize + 1 == depth {
            0
        } else {
            header.head + 1
        };
        header.len -= 1;
        if header.len == 0 {
            let (word, mask) = occupancy_bit(idx);
            self.occupied[word] &= !mask;
        } else {
            header.front = self.flits[idx * depth + header.head as usize];
        }
        self.buffered -= 1;
        Some(flit)
    }

    /// Returns a credit to an output VC (downstream freed a slot).
    /// Public for the in-network-processing extension layer and tests.
    pub fn return_credit(&mut self, out: PortId, vc: usize) {
        let idx = self.idx(out.0, vc);
        self.outputs[idx].credits += 1;
    }

    /// Consumes `n` credits of an output VC if available (used when an
    /// in-network decompression grows a downstream-bound... — growth
    /// happens in *this* router's input buffer, so this is called on the
    /// upstream router to account for the reduced free space).
    pub fn try_take_credits(&mut self, out: PortId, vc: usize, n: usize) -> bool {
        let idx = self.idx(out.0, vc);
        let c = &mut self.outputs[idx].credits;
        if *c >= n {
            *c -= n;
            true
        } else {
            false
        }
    }

    /// Free slots in a local input VC buffer.
    pub fn free_slots(&self, port: usize, vc: usize) -> usize {
        self.config.buffer_depth - self.inputs[self.idx(port, vc)].len()
    }

    /// Rebuilds one resident packet's flits in place (DISCO
    /// de/compression replacing shadow flits, §3.2 step 3). The packet may
    /// be the VC's front packet or one queued behind it; flits of other
    /// packets before and after its segment are preserved, the ones
    /// behind it shifted within the VC's ring slots. `finalize` marks the
    /// last rebuilt flit as the tail.
    ///
    /// Returns the change in occupancy (positive = grew).
    ///
    /// # Panics
    ///
    /// Panics if the packet is not resident, if its flits are not
    /// contiguous, or if the new total exceeds the buffer depth.
    pub(crate) fn reshape_packet(
        &mut self,
        port: usize,
        vc: usize,
        packet: PacketId,
        new_len: usize,
        finalize: bool,
        now: u64,
    ) -> isize {
        let depth = self.config.buffer_depth;
        let idx = self.idx(port, vc);
        let base = idx * depth;
        let header = &mut self.inputs[idx];
        let (head, len) = (header.head as usize, header.len());
        // Ring slot of the VC's `i`-th buffered flit.
        let at = |i: usize| base + (head + i) % depth;
        let flits = &mut self.flits;
        let Some(start) = (0..len).position(|i| flits[at(i)].packet == packet) else {
            panic!("reshape requires {packet} resident at port {port} vc {vc}");
        };
        let seg_len = (start..len)
            .take_while(|&i| flits[at(i)].packet == packet)
            .count();
        assert!(
            (start + seg_len..len).all(|i| flits[at(i)].packet != packet),
            "packet's flits must be contiguous"
        );
        let after = len - start - seg_len;
        assert!(
            new_len >= 1 && start + new_len + after <= depth,
            "reshape size out of range"
        );
        // Move the flits queued behind the packet to their new place:
        // front to back when the segment shrinks, back to front when it
        // grows, so no flit is overwritten before it moves.
        let (from, to) = (start + seg_len, start + new_len);
        if new_len < seg_len {
            for k in 0..after {
                flits[at(to + k)] = flits[at(from + k)];
            }
        } else if new_len > seg_len {
            for k in (0..after).rev() {
                flits[at(to + k)] = flits[at(from + k)];
            }
        }
        for i in 0..new_len {
            let kind = match (i, new_len, finalize) {
                (0, 1, true) => FlitKind::HeadTail,
                (0, _, _) => FlitKind::Head,
                (i, n, true) if i == n - 1 => FlitKind::Tail,
                _ => FlitKind::Body,
            };
            flits[at(start + i)] = Flit {
                packet,
                kind,
                ready_at: now,
            };
        }
        header.len = (start + new_len + after) as u16;
        header.front = flits[at(0)];
        let delta = new_len as isize - seg_len as isize;
        self.buffered = (self.buffered as isize + delta) as usize;
        delta
    }

    /// Total flits buffered across all input VCs (for drain checks).
    /// Maintained incrementally; `check_invariants` cross-checks it
    /// against the actual buffer contents.
    pub(crate) fn total_buffered(&self) -> usize {
        self.buffered
    }

    /// Checks this router's internal legality: buffer bounds, the VC
    /// headers' derived state (occupancy bit, front-flit copy, flit
    /// count), DISCO lock state, credit bounds, and the
    /// input-state/output-allocation bijection. Always compiled;
    /// [`crate::Network::tick`] calls it every cycle in debug builds, so
    /// the static CDG pass (`disco-verify`) and the simulator
    /// cross-check each other.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let depth = self.config.buffer_depth;
        let actual: usize = self.inputs.iter().map(VcHeader::len).sum();
        if actual != self.buffered {
            return Err(format!(
                "{}: occupancy counter {} desynchronized from buffers ({actual} flits)",
                self.node, self.buffered
            ));
        }
        let n = self.inputs.len();
        let stray = self.occupied.iter().enumerate().any(|(w, &word)| {
            let valid = n.saturating_sub(w * 64).min(64);
            valid < 64 && word >> valid != 0
        });
        if stray {
            return Err(format!(
                "{}: occupancy bit set beyond the {n} input VCs",
                self.node
            ));
        }
        for port in 0..self.ports {
            for v in 0..self.config.vcs {
                let idx = self.idx(port, v);
                let header = &self.inputs[idx];
                let vc = self.vc_at(idx);
                if header.len() > depth || header.head as usize >= depth.max(1) {
                    return Err(format!(
                        "{} port {port} vc {v}: occupancy {} at ring offset {} exceeds \
                         buffer depth {depth}",
                        self.node, header.len, header.head
                    ));
                }
                let (word, mask) = occupancy_bit(idx);
                if (self.occupied[word] & mask != 0) != (header.len > 0) {
                    return Err(format!(
                        "{} port {port} vc {v}: occupancy bit disagrees with {} buffered flits",
                        self.node, header.len
                    ));
                }
                if let Some(ring_front) = vc.flits().next() {
                    let copy = header.front;
                    if (copy.packet, copy.kind, copy.ready_at)
                        != (ring_front.packet, ring_front.kind, ring_front.ready_at)
                    {
                        return Err(format!(
                            "{} port {port} vc {v}: header front {copy:?} differs from \
                             ring front {ring_front:?}",
                            self.node
                        ));
                    }
                }
                if header.locked && vc.front_packet().is_none() {
                    return Err(format!(
                        "{} port {port} vc {v}: locked without a resident packet",
                        self.node
                    ));
                }
                if let VcState::Active { out, out_vc } = header.state() {
                    let owner = self.outputs[self.idx(out.0, out_vc)].owner();
                    if owner != Some(idx) {
                        return Err(format!(
                            "{} port {port} vc {v}: active on {out}/{out_vc}, but that \
                             output is allocated to {:?}",
                            self.node,
                            owner.map(|i| self.port_vc(i))
                        ));
                    }
                }
            }
        }
        for oi in 0..self.ports {
            let out = PortId(oi);
            for ov in 0..self.config.vcs {
                if let Some(owner) = self.outputs[self.idx(oi, ov)].owner() {
                    let (port, v) = self.port_vc(owner);
                    match self.inputs.get(owner).map(VcHeader::state) {
                        Some(VcState::Active { out: o, out_vc }) if o == out && out_vc == ov => {}
                        other => {
                            return Err(format!(
                                "{} output {out}/{ov}: allocated to port {port} vc {v}, \
                                 whose state is {other:?}",
                                self.node
                            ));
                        }
                    }
                }
                let credits = self.outputs[self.idx(oi, ov)].credits;
                if oi < self.link_ports && credits > depth {
                    return Err(format!(
                        "{} output {out}/{ov}: {credits} credits exceed buffer depth {depth}",
                        self.node
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

impl disco_snapshot::Snap for VcState {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        match self {
            VcState::Idle => w.put(&0u8),
            VcState::Routed(port) => {
                w.put(&1u8);
                w.put(port);
            }
            VcState::Active { out, out_vc } => {
                w.put(&2u8);
                w.put(out);
                w.put(out_vc);
            }
        }
    }
    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(match r.take::<u8>()? {
            0 => VcState::Idle,
            1 => VcState::Routed(r.take()?),
            2 => VcState::Active {
                out: r.take()?,
                out_vc: r.take()?,
            },
            tag => return Err(disco_snapshot::malformed(format!("VcState tag {tag}"))),
        })
    }
}

impl Router {
    /// Writes the router's mutable state. `node`, `config`, `ports`, and
    /// `link_ports` are rebuilt from the topology on restore. Each input
    /// VC is written as its buffered flits (a length-prefixed sequence,
    /// front first), its state and its lock bit — the ring's layout is
    /// not part of the format.
    pub(crate) fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&(self.inputs.len() as u64));
        for idx in 0..self.inputs.len() {
            let vc = self.vc_at(idx);
            w.put(&(vc.occupancy() as u64));
            for flit in vc.flits() {
                w.put(flit);
            }
            w.put(&vc.header.state());
            w.put(&vc.header.locked);
        }
        w.put(&self.out_alloc());
        w.put(&self.credit_list());
        w.put(&self.rr_sa);
        w.put(&self.sa_losers);
        w.put(&self.buffered);
    }

    /// Overlays state written by [`Router::snap_state`] onto a router
    /// freshly built over the same topology and config. Flits land at
    /// the start of each VC's ring slots, and the occupancy bitset and
    /// front copies are rebuilt from them.
    pub(crate) fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        let n: u64 = r.take()?;
        if n as usize != self.inputs.len() {
            return Err(disco_snapshot::malformed(format!(
                "router {} has {} input VCs in snapshot, {} rebuilt",
                self.node.0,
                n,
                self.inputs.len()
            )));
        }
        let depth = self.config.buffer_depth;
        self.occupied.fill(0);
        for idx in 0..self.inputs.len() {
            let len = r.take_len()?;
            if len > depth {
                return Err(disco_snapshot::malformed(format!(
                    "router {} input VC {idx} holds {len} flits, buffer depth {depth}",
                    self.node.0
                )));
            }
            for slot in &mut self.flits[idx * depth..idx * depth + len] {
                *slot = r.take()?;
            }
            let state: VcState = r.take()?;
            let in_range = match state {
                VcState::Idle => true,
                VcState::Routed(out) => out.0 < self.ports,
                VcState::Active { out, out_vc } => out.0 < self.ports && out_vc < self.config.vcs,
            };
            if !in_range {
                return Err(disco_snapshot::malformed(format!(
                    "router {} input VC {idx} state {state:?} names no output VC",
                    self.node.0
                )));
            }
            let header = &mut self.inputs[idx];
            header.head = 0;
            header.len = len as u16;
            header.front = if len > 0 {
                self.flits[idx * depth]
            } else {
                EMPTY_SLOT
            };
            header.set_state(state);
            header.locked = r.take()?;
            if len > 0 {
                let (word, mask) = occupancy_bit(idx);
                self.occupied[word] |= mask;
            }
        }
        let out_alloc: Vec<Option<(usize, usize)>> = r.take()?;
        let credits: Vec<usize> = r.take()?;
        let n = self.outputs.len();
        if out_alloc.len() != n || credits.len() != n {
            return Err(disco_snapshot::malformed(format!(
                "router {} output arrays sized {}/{} in snapshot, {n}/{n} rebuilt",
                self.node.0,
                out_alloc.len(),
                credits.len(),
            )));
        }
        for (out, (owner, credits)) in self
            .outputs
            .iter_mut()
            .zip(out_alloc.into_iter().zip(credits))
        {
            let owner = match owner {
                Some((port, v)) if port < self.ports && v < self.config.vcs => {
                    Some(port * self.config.vcs + v)
                }
                Some(other) => {
                    return Err(disco_snapshot::malformed(format!(
                        "router {} output VC owned by input {other:?}, which does not exist",
                        self.node.0
                    )))
                }
                None => None,
            };
            out.set_owner(owner);
            out.credits = credits;
        }
        let rr_sa: Vec<usize> = r.take()?;
        if rr_sa.len() != self.ports || rr_sa.iter().any(|&i| i >= self.inputs.len()) {
            return Err(disco_snapshot::malformed(format!(
                "router {} round-robin pointers {rr_sa:?} for {} ports of {} input VCs",
                self.node.0,
                self.ports,
                self.inputs.len()
            )));
        }
        self.rr_sa = rr_sa;
        self.sa_losers = r.take()?;
        self.buffered = r.take()?;
        let actual: usize = self.inputs.iter().map(VcHeader::len).sum();
        if actual != self.buffered {
            return Err(disco_snapshot::malformed(format!(
                "router {} buffers {} flits in snapshot, counter says {}",
                self.node.0, actual, self.buffered
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::commit_router_local;
    use crate::packet::{PacketClass, PacketStore, Payload};
    use crate::phase::{compute_router, ComputeScratch, Departure, RouterOutcome};
    use crate::topology::{Mesh, Topology, TopologySpec, EAST};

    /// The mesh local port index.
    const LOCAL: usize = 4;
    /// The mesh North port index.
    const NORTH_P: usize = 0;
    /// The mesh South port index.
    const SOUTH_P: usize = 1;

    fn mesh_router(node: NodeId, config: NocConfig) -> Router {
        Router::new(node, config, 5, 4)
    }

    /// Runs the pure compute with throwaway arenas (production code
    /// reuses them; tests don't care).
    fn compute(r: &Router, now: u64, store: &PacketStore, topo: &Topology) -> RouterOutcome {
        let mut scratch = ComputeScratch::default();
        let mut out = RouterOutcome::default();
        compute_router(
            r,
            now,
            store,
            topo,
            crate::faults::PhaseGate {
                plan: None,
                tracing: false,
            },
            &mut scratch,
            &mut out,
        );
        out
    }

    /// One router-local cycle: pure compute, then commit, as the network
    /// kernel does — minus the cross-router effects.
    fn step(r: &mut Router, now: u64, store: &PacketStore, topo: &Topology) -> Vec<Departure> {
        let outcome = compute(r, now, store, topo);
        commit_router_local(r, &outcome);
        outcome.departures
    }

    fn store_with_packet(dst: NodeId, class: PacketClass) -> (PacketStore, PacketId) {
        let mut store = PacketStore::new();
        let id = store.create(NodeId(0), dst, class, Payload::None, false, 0, 0);
        (store, id)
    }

    #[test]
    fn compute_assigns_route_and_vc() {
        let mesh = Mesh::new(4, 4).build();
        let config = NocConfig::default();
        let mut r = mesh_router(NodeId(0), config);
        let (store, id) = store_with_packet(NodeId(3), PacketClass::Request);
        r.accept(LOCAL, 0, crate::packet::flits_for(id, 1, 0)[0]);
        let outcome = compute(&r, 0, &store, &mesh);
        assert_eq!(outcome.routes, vec![(LOCAL, 0, EAST)]);
        assert_eq!(outcome.grants, vec![(LOCAL, 0, EAST, 0)]);
    }

    #[test]
    fn compute_is_pure_until_commit() {
        let mesh = Mesh::new(4, 4).build();
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let (store, id) = store_with_packet(NodeId(3), PacketClass::Request);
        r.accept(LOCAL, 0, crate::packet::flits_for(id, 1, 0)[0]);
        let before = format!("{r:?}");
        let outcome = compute(&r, 0, &store, &mesh);
        assert_eq!(format!("{r:?}"), before, "compute must not mutate");
        commit_router_local(&mut r, &outcome);
        assert_ne!(format!("{r:?}"), before, "commit applies the outcome");
    }

    #[test]
    fn sa_moves_single_flit_packet() {
        let mesh = Mesh::new(4, 4).build();
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let (store, id) = store_with_packet(NodeId(1), PacketClass::Request);
        r.accept(LOCAL, 0, crate::packet::flits_for(id, 1, 0)[0]);
        let deps = step(&mut r, 0, &store, &mesh);
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].out, EAST);
        // Tail departed: VC released.
        assert_eq!(r.vc(LOCAL, 0).state(), VcState::Idle);
        assert_eq!(r.credit_in(EAST, 0), NocConfig::default().buffer_depth - 1);
    }

    #[test]
    fn sa_records_losers() {
        let mesh = Mesh::new(4, 4).build();
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let mut store = PacketStore::new();
        // Two packets from different ports contending for East.
        let a = store.create(
            NodeId(0),
            NodeId(3),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            0,
        );
        let b = store.create(
            NodeId(0),
            NodeId(3),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            1,
        );
        r.accept(LOCAL, 0, crate::packet::flits_for(a, 1, 0)[0]);
        r.accept(NORTH_P, 0, crate::packet::flits_for(b, 1, 0)[0]);
        // Only one can own the East VC; the other stays Routed (VA loser).
        let deps = step(&mut r, 0, &store, &mesh);
        assert_eq!(deps.len(), 1);
        // Next cycle the VA loser acquires the VC and departs.
        let deps2 = step(&mut r, 1, &store, &mesh);
        assert_eq!(deps2.len(), 1);
        assert_ne!(deps[0].flit.packet, deps2[0].flit.packet);
    }

    #[test]
    fn coherence_yields_to_critical() {
        let mesh = Mesh::new(4, 4).build();
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let mut store = PacketStore::new();
        let coh = store.create(
            NodeId(0),
            NodeId(3),
            PacketClass::Coherence,
            Payload::None,
            false,
            0,
            0,
        );
        let req = store.create(
            NodeId(0),
            NodeId(3),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            1,
        );
        // Same class VC (0) in different ports, both to East.
        r.accept(NORTH_P, 0, crate::packet::flits_for(coh, 1, 0)[0]);
        r.accept(SOUTH_P, 0, crate::packet::flits_for(req, 1, 0)[0]);
        // Whichever got the out VC in VA wins; force the contest at SA by
        // checking that when both are active... only one can be Active on
        // out_vc 0, so the loser is a VA loser. The request should not be
        // starved across two cycles.
        let first = step(&mut r, 0, &store, &mesh);
        let second = step(&mut r, 1, &store, &mesh);
        let order: Vec<PacketId> = first
            .iter()
            .chain(second.iter())
            .map(|d| d.flit.packet)
            .collect();
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn locked_vc_is_skipped() {
        let mesh = Mesh::new(4, 4).build();
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let (store, id) = store_with_packet(NodeId(1), PacketClass::Request);
        r.accept(LOCAL, 0, crate::packet::flits_for(id, 1, 0)[0]);
        r.set_locked(LOCAL, 0, true);
        // RC/VA still run for a locked VC; only SA skips it.
        assert!(step(&mut r, 0, &store, &mesh).is_empty());
        r.set_locked(LOCAL, 0, false);
        assert_eq!(step(&mut r, 1, &store, &mesh).len(), 1);
    }

    #[test]
    fn credits_gate_departure() {
        let mesh = Mesh::new(4, 4).build();
        let config = NocConfig {
            buffer_depth: 1,
            ..NocConfig::default()
        };
        let mut r = mesh_router(NodeId(0), config);
        let mut store = PacketStore::new();
        let a = store.create(
            NodeId(0),
            NodeId(2),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            0,
        );
        let b = store.create(
            NodeId(0),
            NodeId(2),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            1,
        );
        r.accept(LOCAL, 0, crate::packet::flits_for(a, 1, 0)[0]);
        assert_eq!(step(&mut r, 0, &store, &mesh).len(), 1); // consumes the only credit
        r.accept(LOCAL, 0, crate::packet::flits_for(b, 1, 0)[0]);
        assert!(step(&mut r, 1, &store, &mesh).is_empty(), "no credit left");
        assert_eq!(r.sa_losers(), &[(LOCAL, 0)]);
        r.return_credit(EAST, 0);
        assert_eq!(step(&mut r, 2, &store, &mesh).len(), 1);
    }

    #[test]
    fn reshape_shrinks_and_reports_delta() {
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let mut store = PacketStore::new();
        let line = disco_compress::CacheLine::zeroed();
        let id = store.create(
            NodeId(0),
            NodeId(3),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
            0,
        );
        for f in crate::packet::flits_for(id, 8, 0) {
            r.accept(NORTH_P, 1, f);
        }
        let delta = r.reshape_packet(NORTH_P, 1, id, 2, true, 5);
        assert_eq!(delta, -6);
        let vc = r.vc(NORTH_P, 1);
        assert_eq!(vc.occupancy(), 2);
        assert!(vc.flits().last().unwrap().kind.is_tail());
        assert!(vc.front_is_head());
    }

    #[test]
    fn reshape_moves_neighbours_within_a_wrapped_ring() {
        use crate::packet::FlitKind::{Body, Head, HeadTail, Tail};
        use std::collections::VecDeque;
        let flit = |id: u64, kind| Flit {
            packet: PacketId(id),
            kind,
            ready_at: 0,
        };
        // Every ring offset: the staged flits start at `offset` and wrap.
        for offset in 0..NocConfig::default().buffer_depth {
            let mut r = mesh_router(NodeId(0), NocConfig::default());
            for k in 0..offset {
                r.accept(NORTH_P, 1, flit(100 + k as u64, HeadTail));
                assert!(r.pop_front_flit(NORTH_P, 1).is_some());
            }
            let mut model: VecDeque<(u64, FlitKind)> = VecDeque::new();
            for (id, kind) in [(1, HeadTail), (2, Head), (2, Body), (2, Body), (2, Tail)]
                .into_iter()
                .chain([(3, Head), (3, Tail)])
            {
                r.accept(NORTH_P, 1, flit(id, kind));
                model.push_back((id, kind));
            }
            let check = |r: &Router, model: &VecDeque<(u64, FlitKind)>| {
                let ring: Vec<_> = r
                    .vc(NORTH_P, 1)
                    .flits()
                    .map(|f| (f.packet.0, f.kind))
                    .collect();
                assert_eq!(
                    ring,
                    model.iter().copied().collect::<Vec<_>>(),
                    "offset {offset}"
                );
                r.check_invariants().expect("ring state stays legal");
            };
            // Shrink the middle packet to one flit, then grow it to five.
            assert_eq!(r.reshape_packet(NORTH_P, 1, PacketId(2), 1, true, 9), -3);
            model.retain(|f| f.0 != 2);
            model.insert(1, (2, HeadTail));
            check(&r, &model);
            assert_eq!(r.reshape_packet(NORTH_P, 1, PacketId(2), 5, false, 9), 4);
            model.retain(|f| f.0 != 2);
            for (i, kind) in [Head, Body, Body, Body, Body].into_iter().enumerate() {
                model.insert(1 + i, (2, kind));
            }
            check(&r, &model);
            // Reshaping the front packet refreshes the header's copy.
            assert_eq!(r.reshape_packet(NORTH_P, 1, PacketId(1), 1, false, 9), 0);
            model[0] = (1, Head);
            check(&r, &model);
            while let Some(f) = r.pop_front_flit(NORTH_P, 1) {
                assert_eq!(Some((f.packet.0, f.kind)), model.pop_front());
            }
            assert!(model.is_empty());
            check(&r, &model);
        }
    }

    #[test]
    fn restore_round_trips_and_rejects_inconsistent_buffers() {
        let mut r = mesh_router(NodeId(0), NocConfig::default());
        let (_store, id) = store_with_packet(NodeId(3), PacketClass::Request);
        for f in crate::packet::flits_for(id, 3, 0) {
            r.accept(0, 0, f);
        }
        assert!(r.pop_front_flit(0, 0).is_some());
        let mut w = disco_snapshot::Writer::new();
        r.snap_state(&mut w);
        let bytes = w.into_bytes();
        let restore = |bytes: &[u8]| {
            let mut fresh = mesh_router(NodeId(0), NocConfig::default());
            fresh
                .restore_state(&mut disco_snapshot::Reader::new(bytes))
                .map(|()| fresh)
        };
        let back = restore(&bytes).expect("own snapshot restores");
        assert_eq!(format!("{back:?}"), format!("{r:?}"));
        back.check_invariants().expect("restored ring is legal");
        // The first VC's length prefix follows the VC count: claim more
        // flits than the buffer holds.
        let mut deep = bytes.clone();
        deep[8..16].copy_from_slice(&9u64.to_le_bytes());
        assert!(restore(&deep).is_err(), "length beyond the buffer depth");
        // The occupancy counter is the last field.
        let mut miscounted = bytes.clone();
        let n = miscounted.len();
        miscounted[n - 8..].copy_from_slice(&7u64.to_le_bytes());
        assert!(
            restore(&miscounted).is_err(),
            "counter disagrees with buffers"
        );
    }

    #[test]
    fn occupancy_bitset_spans_words() {
        // 5 ports x 16 VCs = 80 input VCs: the bitset needs a second
        // word, and VC 79 is visited like any other.
        let mesh = Mesh::new(4, 4).build();
        let config = NocConfig {
            vcs: 16,
            ..NocConfig::default()
        };
        let mut r = mesh_router(NodeId(0), config);
        assert_eq!(r.occupied.len(), 2);
        let (store, id) = store_with_packet(NodeId(3), PacketClass::Request);
        r.accept(LOCAL, 15, crate::packet::flits_for(id, 1, 0)[0]);
        r.check_invariants().expect("second-word bit is tracked");
        let outcome = compute(&r, 0, &store, &mesh);
        assert_eq!(outcome.routes, vec![(LOCAL, 15, EAST)]);
        assert_eq!(outcome.departures.len(), 1);
        commit_router_local(&mut r, &outcome);
        assert_eq!(r.occupied, vec![0, 0]);
        r.check_invariants().expect("bit cleared on the last pop");
    }

    #[test]
    fn vc_groups_allocate_within_class() {
        // With 4 VCs, two concurrent response packets toward the same
        // output must take the two VCs of the response group (2 and 3),
        // never the control group.
        let mesh = Mesh::new(3, 1).build();
        let config = NocConfig {
            vcs: 4,
            ..NocConfig::default()
        };
        let mut r = mesh_router(NodeId(0), config);
        let mut store = PacketStore::new();
        let line = disco_compress::CacheLine::zeroed();
        let a = store.create(
            NodeId(0),
            NodeId(2),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
            0,
        );
        let b = store.create(
            NodeId(0),
            NodeId(2),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
            1,
        );
        // Two different input VCs of the response group hold the heads.
        r.accept(LOCAL, 2, crate::packet::flits_for(a, 8, 0)[0]);
        r.accept(NORTH_P, 3, crate::packet::flits_for(b, 8, 0)[0]);
        let _ = step(&mut r, 0, &store, &mesh);
        // The SA winner's head departed but neither packet is done, so
        // both VCs stay Active on their granted output VC.
        let states: Vec<_> = [(LOCAL, 2), (NORTH_P, 3)]
            .into_iter()
            .map(|(p, v)| r.vc(p, v).state())
            .collect();
        let mut out_vcs = Vec::new();
        for st in states {
            match st {
                VcState::Active { out, out_vc } => {
                    assert_eq!(out, EAST);
                    assert!(out_vc >= 2, "responses stay in the upper VC group");
                    out_vcs.push(out_vc);
                }
                other => panic!("expected Active, got {other:?}"),
            }
        }
        out_vcs.sort_unstable();
        assert_eq!(out_vcs, vec![2, 3], "both group VCs get used");
    }

    #[test]
    fn control_and_data_never_share_an_output_vc() {
        let mesh = Mesh::new(2, 1).build();
        let config = NocConfig {
            vcs: 4,
            ..NocConfig::default()
        };
        let mut r = mesh_router(NodeId(0), config);
        let mut store = PacketStore::new();
        let req = store.create(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            0,
        );
        let resp = store.create(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(disco_compress::CacheLine::zeroed()),
            true,
            0,
            1,
        );
        r.accept(LOCAL, 0, crate::packet::flits_for(req, 1, 0)[0]);
        r.accept(LOCAL, 2, crate::packet::flits_for(resp, 8, 0)[0]);
        let outcome = compute(&r, 0, &store, &mesh);
        let grant_of = |port: usize, v: usize| {
            outcome
                .grants
                .iter()
                .find(|g| g.0 == port && g.1 == v)
                .map(|g| g.3)
        };
        match grant_of(LOCAL, 0) {
            Some(out_vc) => assert!(out_vc < 2),
            None => panic!("request got no VC grant"),
        }
        match grant_of(LOCAL, 2) {
            Some(out_vc) => assert!(out_vc >= 2),
            None => panic!("response got no VC grant"),
        }
    }

    #[test]
    fn ring_router_has_three_ports() {
        let r = Router::new(NodeId(0), NocConfig::default(), 3, 2);
        assert_eq!(r.ports(), 3);
        assert_eq!(r.link_ports(), 2);
        assert!(r.is_local_port(PortId(2)));
        assert!(!r.is_local_port(PortId(1)));
        // Local ejection credits are unbounded; link credits start at
        // the downstream buffer depth.
        assert!(r.credit_in(PortId(2), 0) > NocConfig::default().buffer_depth);
        assert_eq!(r.credit_in(PortId(0), 0), NocConfig::default().buffer_depth);
        r.check_invariants().expect("fresh ring router is legal");
    }

    #[test]
    #[should_panic(expected = "flow control violated")]
    fn overflow_panics() {
        let config = NocConfig {
            buffer_depth: 2,
            ..NocConfig::default()
        };
        let mut r = mesh_router(NodeId(0), config);
        let mut store = PacketStore::new();
        let id = store.create(
            NodeId(0),
            NodeId(1),
            PacketClass::Request,
            Payload::None,
            false,
            0,
            0,
        );
        for _ in 0..3 {
            r.accept(0, 0, crate::packet::flits_for(id, 1, 0)[0]);
        }
    }
}
