//! The per-router DISCO compressor engine and the layer that drives one
//! engine per router each cycle (§3.2 steps 1–3).
//!
//! Every cycle, after the routers finish allocation, the layer:
//!
//! 1. collects each router's VC/switch-allocation **losers** (idling
//!    packets),
//! 2. runs the **arbitrator**'s confidence counter over them and picks at
//!    most one packet for the router's single engine,
//! 3. runs the engine: an initial latency window models the codec
//!    pipeline — during it the shadow packet remains schedulable
//!    (**non-blocking**, §3.2 step 3) and a switch grant aborts the
//!    operation; after commit the VC is locked, raw flits are consumed
//!    fragment-wise as they arrive (**separate-flit compression**,
//!    §3.3-A), shadow flits are replaced by compressed flits, and the
//!    freed buffer space is returned upstream as credits.
//!
//! Decompression targets packets whose payload must be raw at the
//! destination (core fills, DRAM writebacks) and is vetoed far from the
//! destination by the `β·RC_Hop` term.
//!
//! Every engine runs the same lifecycle whatever its `Mode`: one start
//! path (`DiscoLayer::commit_start`), one step that aborts when the
//! packet left (`Operation::in_place`), waits out the latency window
//! and applies the result (`DiscoLayer::advance`), and one finish path
//! (`DiscoLayer::finish`).

use crate::arbitrator::{DiscoParams, Pressure};
use crate::protocol::Msg;
use disco_compress::scheme::Compressor;
use disco_compress::Codec;
use disco_noc::routing::remaining_hops;
use disco_noc::{BitSet, Network, NodeId, PacketId, Payload, FLIT_BYTES};
use disco_trace::codec::{ABORTED, DONE, GROWTH_STALL, INCOMPRESSIBLE};

/// Flits the compressor datapath consumes per cycle once committed
/// (separate-flit compression rate, §3.3-A).
const FRAGMENT_RATE: usize = 2;

/// Flits of a raw (uncompressed) cache line.
const RAW_FLITS: usize = disco_compress::LINE_BYTES / FLIT_BYTES;

/// Counters for the DISCO layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiscoStats {
    /// Candidate packets that cleared the confidence threshold and
    /// entered an engine.
    pub started: u64,
    /// Completed in-network compressions.
    pub compressions: u64,
    /// Completed in-network decompressions.
    pub decompressions: u64,
    /// Operations aborted because the switch granted the shadow packet
    /// during the latency window (non-blocking mode working as intended).
    pub aborts: u64,
    /// Compression attempts on incompressible lines.
    pub incompressible: u64,
    /// Decompressions abandoned because the buffer could not absorb the
    /// growth.
    pub growth_stalls: u64,
    /// Candidates rejected by the confidence counter.
    pub low_confidence: u64,
    /// Flits removed from packets by in-network compression (traffic
    /// saved downstream of the compression point).
    pub flits_saved: u64,
    /// Compressions performed on packets still waiting in the NI
    /// injection queue (idle before even entering the router).
    pub queue_compressions: u64,
}

/// How a started engine operates on its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One-shot compression of a packet that is entirely resident (the
    /// common case; also covers packets queued *behind* the VC's front
    /// packet, which cannot be scheduled and thus compress risk-free).
    Whole,
    /// Separate-flit (streaming) compression of the front packet while
    /// its trailing flits are still arriving (§3.3-A). The shadow flits
    /// stay schedulable the whole time (locking a VC that waits for
    /// upstream flits could deadlock against another locked VC); a switch
    /// grant aborts the operation and the packet continues uncompressed.
    Stream,
    /// Whole-packet decompression near the destination.
    Decomp,
    /// Compression of a whole packet still waiting in the NI injection
    /// queue: no flits exist yet, so completion is a pure payload swap.
    Queued,
}

impl Mode {
    /// The trace operation code.
    fn trace_op(self) -> u8 {
        match self {
            Mode::Decomp => disco_trace::codec::DECOMPRESS,
            Mode::Whole | Mode::Stream | Mode::Queued => disco_trace::codec::COMPRESS,
        }
    }
}

/// One engine's operation in progress; an idle engine holds `None`.
#[derive(Debug, Clone)]
struct Operation {
    mode: Mode,
    packet: PacketId,
    /// The input port of the packet's VC; for [`Mode::Queued`], the tile
    /// whose NI queue holds the packet (distinct from the engine's
    /// router only on the concentrated mesh).
    port: usize,
    vc: usize,
    /// Cycles left in the latency window: the codec pipeline, plus the
    /// fragment transfer for the whole-packet compressions.
    cycles_left: u64,
    /// The payload the operation swaps in: the encoding of a
    /// compression, or the raw line of a decompression.
    result: Payload,
    /// The latency window is over and the result is being applied.
    committed: bool,
    /// Streaming only: raw flits consumed so far.
    consumed: usize,
    /// Streaming only: compressed flits rebuilt ahead of the raw ones.
    prefix_flits: usize,
    /// Streaming only: cycles since the last fragment was consumed
    /// (progress guard).
    idle_cycles: u64,
}

impl Operation {
    /// Whether the packet is still where the operation needs it: still
    /// in the NI backlog, still the front head flit of its VC
    /// (streaming), or still whole and resident in its VC.
    fn in_place(&self, net: &Network, node: NodeId) -> bool {
        match self.mode {
            Mode::Queued => net
                .inject_backlog(NodeId(self.port), self.vc)
                .contains(&self.packet),
            Mode::Stream => {
                let vc = net.router(node).vc(self.port, self.vc);
                vc.front_packet() == Some(self.packet) && vc.front_is_head()
            }
            Mode::Whole | Mode::Decomp => {
                let vc = net.router(node).vc(self.port, self.vc);
                // `try_get`: the fault layer may have retired the packet
                // outright (dropped or eaten at ejection), which also
                // reads as "no longer whole here".
                net.store().try_get(self.packet).is_some_and(|pkt| {
                    vc.resident_of(self.packet) == pkt.size_flits() && vc.has_tail_of(self.packet)
                })
            }
        }
    }
}

/// A de/compression start decided by the pure scan phase and applied by
/// [`DiscoLayer::commit_start`]. For [`Mode::Queued`], `port` carries
/// the tile index (the packet has no input port yet).
#[derive(Debug, Clone, Copy)]
struct StartAction {
    slot: usize,
    port: usize,
    vc: usize,
    packet: PacketId,
    mode: Mode,
}

/// Everything the scan phase decided for one node.
#[derive(Debug, Clone, Default)]
struct NodeScan {
    starts: Vec<StartAction>,
    /// Idle engine slots that saw candidates but rejected all of them.
    low_confidence: u64,
}

/// The reusable scan arena: the scan result of the node under scan plus
/// the busy-packet working list. Like the NoC's compute arena,
/// allocations reach their high-water mark once and are reused every
/// cycle.
#[derive(Debug, Default)]
struct ScanArena {
    /// The scan of the node under scan.
    scan: NodeScan,
    /// Packets already claimed by engines or earlier slots of the node
    /// under scan.
    busy: Vec<PacketId>,
}

/// The DISCO in-network compression layer: engines per router plus the
/// shared arbitrator parameters and codec.
#[derive(Debug)]
pub struct DiscoLayer {
    params: DiscoParams,
    codec: Codec,
    engines: Vec<Vec<Option<Operation>>>,
    /// Nodes with at least one live operation: the only engines a tick
    /// steps. Rebuilt from `engines` on restore.
    live: BitSet,
    stats: DiscoStats,
    /// Completed de/compressions per router, for locating where in the
    /// mesh the mechanism works (hotspot heatmaps).
    per_node_ops: Vec<u64>,
    /// Effective thresholds (equal to the configured ones unless
    /// `params.adaptive`).
    cc_eff: f64,
    cd_eff: f64,
    epoch_started: u64,
    epoch_stats: DiscoStats,
    cycle: u64,
    /// The scan arena, taken out of `self` during each tick's scan +
    /// commit.
    scan_arena: ScanArena,
}

impl DiscoLayer {
    /// Builds the layer for an `nodes`-router mesh.
    pub fn new(params: DiscoParams, codec: Codec, nodes: usize) -> Self {
        DiscoLayer {
            params,
            codec,
            engines: vec![vec![None; params.engines_per_router.max(1)]; nodes],
            live: BitSet::new(nodes),
            per_node_ops: vec![0; nodes],
            stats: DiscoStats::default(),
            cc_eff: params.cc_threshold,
            cd_eff: params.cd_threshold,
            epoch_started: 0,
            epoch_stats: DiscoStats::default(),
            cycle: 0,
            scan_arena: ScanArena::default(),
        }
    }

    /// The effective (possibly adapted) thresholds `(CC_th, CD_th)`.
    pub fn effective_thresholds(&self) -> (f64, f64) {
        (self.cc_eff, self.cd_eff)
    }

    /// One adaptation step: hasty decisions (high abort share) raise the
    /// thresholds; an idle engine raises nothing and congestion pressure
    /// lowers them back toward the configured base.
    fn adapt(&mut self) {
        let (cur, prev) = (self.stats, self.epoch_stats);
        let started = cur.started - prev.started;
        let aborts = cur.aborts - prev.aborts;
        let low_confidence = cur.low_confidence - prev.low_confidence;
        self.epoch_stats = self.stats;
        let base_cc = self.params.cc_threshold;
        let base_cd = self.params.cd_threshold;
        if started >= 8 && aborts * 2 > started {
            // Hasty: more than half the starts were scheduled away.
            self.cc_eff = (self.cc_eff + 0.5).min(base_cc + 4.0);
            self.cd_eff = (self.cd_eff + 0.5).min(base_cd + 4.0);
        } else if low_confidence > started * 4 {
            // Plenty of rejected candidates and few mistakes: loosen.
            self.cc_eff = (self.cc_eff - 0.25).max(base_cc - 1.0);
            self.cd_eff = (self.cd_eff - 0.25).max(base_cd - 1.0);
        } else {
            // Drift back to the trained baseline.
            self.cc_eff += (base_cc - self.cc_eff) * 0.25;
            self.cd_eff += (base_cd - self.cd_eff) * 0.25;
        }
    }

    /// True while some engine holds an operation.
    #[cfg(test)]
    pub(crate) fn is_busy(&self) -> bool {
        !self.live.is_empty()
    }

    /// Counters so far.
    pub fn stats(&self) -> &DiscoStats {
        &self.stats
    }

    /// The arbitrator parameters.
    pub fn params(&self) -> &DiscoParams {
        &self.params
    }

    /// Completed de/compressions per router (mesh heatmap).
    pub fn per_node_ops(&self) -> &[u64] {
        &self.per_node_ops
    }

    /// Runs every router's engine for one cycle. Call after
    /// [`Network::tick`] so the cycle's allocation losers are fresh.
    ///
    /// Engine *progress* (`step_engine`) runs first, in node order, on
    /// the nodes with a live operation only. Then each node in turn is
    /// *scanned* — a pure function of the network state — and its chosen
    /// starts are *committed* at once. A node's starts touch only its
    /// own engines and VC locks, which no other node's scan reads, so
    /// the result is the same as scanning every node before committing
    /// any. Only nodes that can start something are scanned: an idle
    /// engine slot, and fresh allocation losers or a response packet
    /// waiting at one of its NIs. A scan anywhere else would find no
    /// candidate, start nothing and count no low-confidence event.
    pub fn tick(&mut self, net: &mut Network) {
        self.cycle += 1;
        if self.params.adaptive && self.cycle - self.epoch_started >= self.params.epoch_cycles {
            self.epoch_started = self.cycle;
            self.adapt();
        }
        let mut next = self.live.next_from(0);
        while let Some(node) = next {
            next = self.live.next_from(node + 1);
            for slot in 0..self.engines[node].len() {
                self.step_engine(net, node, slot);
            }
            if self.engines[node].iter().all(Option::is_none) {
                self.live.remove(node);
            }
        }
        // Detach the arena so the scan can borrow `self` immutably and
        // the arena mutably at the same time (mirrors `Network::tick`).
        let mut arena = std::mem::take(&mut self.scan_arena);
        let ScanArena { scan, busy } = &mut arena;
        for node in 0..self.engines.len() {
            if !self.may_start(net, node) {
                continue;
            }
            self.scan_node_into(net, node, busy, scan);
            self.stats.low_confidence += scan.low_confidence;
            for &action in &scan.starts {
                self.commit_start(net, node, action);
            }
        }
        self.scan_arena = arena;
    }

    /// True when a scan of `node` could find a candidate: an engine slot
    /// is idle, and the router lost an allocation this cycle or one of
    /// its tiles has a response packet in its NI queue.
    fn may_start(&self, net: &Network, node: usize) -> bool {
        if self.engines[node].iter().all(Option::is_some) {
            return false;
        }
        if !net.router(NodeId(node)).sa_losers().is_empty() {
            return true;
        }
        let concentration = net.topology().concentration();
        let response_vc = Self::response_vc(net);
        (node * concentration..(node + 1) * concentration)
            .any(|tile| !net.inject_backlog(NodeId(tile), response_vc).is_empty())
    }

    /// The VC whose NI backlog holds the response packets the scan may
    /// compress before injection.
    fn response_vc(net: &Network) -> usize {
        disco_noc::PacketClass::Response
            .vc()
            .min(net.config().vcs - 1)
    }

    /// Pure per-node scan: decides which packets this node's idle engine
    /// slots would start on, without touching any state. Packets claimed
    /// by earlier slots in the same scan count as busy for later ones,
    /// exactly as the serial start loop saw them. `busy` and `scan` are
    /// reusable arenas; both are cleared here.
    fn scan_node_into(
        &self,
        net: &Network,
        node: usize,
        busy: &mut Vec<PacketId>,
        scan: &mut NodeScan,
    ) {
        scan.starts.clear();
        scan.low_confidence = 0;
        busy.clear();
        busy.extend(self.engines[node].iter().flatten().map(|op| op.packet));
        for slot in 0..self.engines[node].len() {
            if self.engines[node][slot].is_some() {
                continue;
            }
            let (best, saw_candidate) = self.pick_candidate(net, node, busy);
            match best {
                Some((port, vc, packet, mode)) => {
                    busy.push(packet);
                    scan.starts.push(StartAction {
                        slot,
                        port,
                        vc,
                        packet,
                        mode,
                    });
                }
                None if saw_candidate => scan.low_confidence += 1,
                None => {}
            }
        }
    }

    /// Progresses one engine by one cycle; an operation that ends goes
    /// through [`finish`](Self::finish).
    fn step_engine(&mut self, net: &mut Network, node: usize, slot: usize) {
        let Some(mut op) = self.engines[node][slot].take() else {
            return;
        };
        match self.advance(net, NodeId(node), &mut op) {
            Some(outcome) => self.finish(net, node, &op, outcome),
            None => self.engines[node][slot] = Some(op),
        }
    }

    /// One cycle of the §3.2 step-3 state machine: abort if the shadow
    /// packet moved, wait out the latency window, then apply the result.
    /// Returns the outcome once the operation ends.
    fn advance(&mut self, net: &mut Network, node: NodeId, op: &mut Operation) -> Option<u8> {
        if !op.in_place(net, node) {
            // The packet was scheduled away (or started injecting): a
            // non-blocking abort. The store payload is untouched, so the
            // packet continues in its old form (§3.2 step 3).
            return Some(ABORTED);
        }
        let committing = !op.committed;
        if committing {
            op.cycles_left = op.cycles_left.saturating_sub(1);
            if op.cycles_left > 0 {
                return None;
            }
            op.committed = true;
        }
        if let Payload::Compressed(enc) = &op.result {
            // The parallel compressor units found no fitting encoding,
            // or (fault hook at the commit decision, before any resident
            // flit is consumed) decompress-and-verify caught a corrupted
            // output: release the packet untouched and mark it so no
            // downstream engine wastes a slot on it again (a header
            // "attempted" bit).
            if committing
                && (!enc.is_compressed() || net.codec_output_faulted(node, op.packet, enc))
            {
                net.store_mut().get_mut(op.packet).compressible = false;
                return Some(INCOMPRESSIBLE);
            }
            if op.mode == Mode::Stream {
                // Consume resident raw flits fragment-wise. The VC is
                // deliberately NOT locked — waiting for upstream flits
                // while holding a lock could deadlock two engines against
                // each other.
                let vc = net.router(node).vc(op.port, op.vc);
                let (resident, tail_resident) =
                    (vc.resident_of(op.packet), vc.has_tail_of(op.packet));
                let raw_in_buffer = resident - op.prefix_flits;
                let k = raw_in_buffer.min(FRAGMENT_RATE);
                if k == 0 {
                    // No fragment arrived: give up after a while (the
                    // packet may have been truncated by an upstream abort
                    // and will never deliver 8 raw flits here).
                    op.idle_cycles += 1;
                    return (op.idle_cycles > 64).then_some(ABORTED);
                }
                op.idle_cycles = 0;
                op.consumed += k;
                if op.consumed != RAW_FLITS {
                    let partial_bytes = enc.size_bytes() * op.consumed / RAW_FLITS;
                    op.prefix_flits = partial_bytes.div_ceil(FLIT_BYTES).max(1);
                    // Mid-stream reshape: if the packet's tail has
                    // already arrived, the rebuilt segment must keep a
                    // tail flit — otherwise an abort would leave a packet
                    // that can never release its VC downstream.
                    let new_len = op.prefix_flits + (raw_in_buffer - k);
                    let ok = net.reshape_resident(
                        node,
                        op.port,
                        op.vc,
                        op.packet,
                        new_len,
                        tail_resident,
                    );
                    debug_assert!(ok, "mid-compression reshape only shrinks");
                    return None;
                }
                // Final fragment: swap in the compressed payload.
            }
        }
        Some(self.apply(net, node, op))
    }

    /// Swaps a finished operation's result into its packet. A packet in
    /// a VC is reshaped to the result's size first, which fails only
    /// when a decompression's growth does not fit; the packet then stays
    /// compressed and the NI at the destination decompresses instead.
    fn apply(&mut self, net: &mut Network, node: NodeId, op: &mut Operation) -> u8 {
        let new_flits = op.result.flits();
        let fits = op.mode == Mode::Queued
            || net.reshape_resident(node, op.port, op.vc, op.packet, new_flits, true);
        if !fits && op.mode == Mode::Decomp {
            return GROWTH_STALL;
        }
        debug_assert!(fits, "compression only shrinks");
        let pkt = net.store_mut().get_mut(op.packet);
        let old_flits = pkt.size_flits();
        pkt.payload = std::mem::replace(&mut op.result, Payload::None);
        match op.mode {
            // A packet decompressed for its destination must not be
            // picked up again by a downstream compressor.
            Mode::Decomp => pkt.compressible = false,
            Mode::Queued => {
                self.stats.queue_compressions += 1;
                self.stats.flits_saved += (old_flits - new_flits) as u64;
            }
            Mode::Whole | Mode::Stream => self.stats.flits_saved += (old_flits - new_flits) as u64,
        }
        DONE
    }

    /// Ends an operation: counts its outcome, releases a blocking
    /// decompression's VC lock, and traces the end.
    fn finish(&mut self, net: &mut Network, node: usize, op: &Operation, outcome: u8) {
        match outcome {
            ABORTED => self.stats.aborts += 1,
            INCOMPRESSIBLE => self.stats.incompressible += 1,
            GROWTH_STALL => self.stats.growth_stalls += 1,
            _ => {
                self.per_node_ops[node] += 1;
                match op.mode {
                    Mode::Decomp => self.stats.decompressions += 1,
                    Mode::Whole | Mode::Stream | Mode::Queued => self.stats.compressions += 1,
                }
            }
        }
        if self.locks(op.mode) {
            net.router_mut(NodeId(node))
                .set_locked(op.port, op.vc, false);
        }
        disco_trace::emit!(
            net,
            disco_trace::Event::CodecEnd {
                packet: op.packet.0,
                node: node as u16,
                op: op.mode.trace_op(),
                outcome,
            }
        );
    }

    /// Whether an operation in `mode` holds its VC locked throughout:
    /// decompression when the non-blocking mode is off.
    fn locks(&self, mode: Mode) -> bool {
        mode == Mode::Decomp && !self.params.non_blocking
    }

    /// Step 1 + 2: filter this cycle's losers and pick the best candidate
    /// for one engine slot, if any clears its threshold. Pure — reads the
    /// network, writes nothing. Returns the pick and whether any
    /// candidate was seen at all (for the low-confidence counter).
    ///
    /// Candidates are the compressible data packets resident in a losing
    /// VC's buffer: the front packet (streamed separate-flit if its tail
    /// is still arriving) and any packet queued behind it, which cannot
    /// be scheduled until the front leaves and therefore de/compresses
    /// risk-free — the compressor "copies the packets from input buffer"
    /// (§3.2 step 3), wherever they sit.
    #[allow(clippy::type_complexity)] // a one-shot (pick, saw_candidate) pair
    fn pick_candidate(
        &self,
        net: &Network,
        node: usize,
        busy: &[PacketId],
    ) -> (Option<(usize, usize, PacketId, Mode)>, bool) {
        let node_id = NodeId(node);
        let depth = net.config().buffer_depth;
        let mut best: Option<(f64, usize, usize, PacketId, Mode)> = None;
        let mut saw_candidate = false;
        for &(port, vc) in net.router(node_id).sa_losers() {
            let vc_ref = net.router(node_id).vc(port, vc);
            if vc_ref.is_locked() {
                continue;
            }
            for pid in vc_ref.resident_packets_iter() {
                if busy.contains(&pid) {
                    continue;
                }
                let pkt = net.store().get(pid);
                if !pkt.compressible {
                    continue;
                }
                // A packet whose tag is not a protocol message (a
                // foreign tag) is neither compressed nor decompressed.
                let Some(msg) = Msg::try_decode(pkt.tag) else {
                    continue;
                };
                let is_front = vc_ref.front_packet() == Some(pid) && vc_ref.front_is_head();
                let whole = vc_ref.resident_of(pid) == pkt.size_flits() && vc_ref.has_tail_of(pid);
                let remote = depth.saturating_sub(
                    net.downstream_credits(node_id, port, vc)
                        .unwrap_or(depth)
                        .min(depth),
                );
                let pressure = Pressure {
                    local_occupancy: vc_ref.occupancy(),
                    remote_occupancy: remote,
                    // A representative tile of this router: `hops` maps
                    // tiles to routers, so any of the router's tiles
                    // yields the same distance.
                    hops_remaining: remaining_hops(
                        net.topology(),
                        NodeId(node * net.topology().concentration()),
                        pkt.dst,
                    ),
                };
                let candidate = match &pkt.payload {
                    Payload::Raw(_) if whole => {
                        let conf = self.params.compression_confidence(&pressure);
                        Some((conf, conf > self.cc_eff, Mode::Whole))
                    }
                    Payload::Raw(_) if is_front && self.params.non_blocking => {
                        // Streaming waits for upstream fragments, which is
                        // unbounded; only the non-blocking (abortable) mode
                        // may use it.
                        let conf = self.params.compression_confidence(&pressure);
                        Some((conf, conf > self.cc_eff, Mode::Stream))
                    }
                    Payload::Compressed(_) if msg.op.wants_raw_at_destination() && whole => {
                        // Expanding to 8 raw flits must fit the buffer;
                        // skip hopeless candidates instead of stalling the
                        // engine on them.
                        let growth = (disco_compress::LINE_BYTES / FLIT_BYTES)
                            .saturating_sub(pkt.size_flits());
                        if net.router(node_id).free_slots(port, vc) < growth {
                            continue;
                        }
                        let conf = self.params.decompression_confidence(&pressure);
                        Some((conf, conf > self.cd_eff, Mode::Decomp))
                    }
                    _ => None,
                };
                let Some((conf, ok, mode)) = candidate else {
                    continue;
                };
                saw_candidate = true;
                if !ok {
                    continue;
                }
                if best.is_none_or(|(c, ..)| conf > c) {
                    best = Some((conf, port, vc, pid, mode));
                }
            }
        }
        // NI injection backlog: whole packets idling before they even
        // enter the router. Local pressure counts the queue ahead of the
        // packet; remote pressure reads the credits on the packet's first
        // hop (its RC output is known from the deterministic route). The
        // router serves one NI queue per attached tile (more than one
        // only on the concentrated mesh); for a queued pick the
        // StartAction's `port` field carries the tile index.
        let response_vc = Self::response_vc(net);
        let concentration = net.topology().concentration();
        for tile in node * concentration..(node + 1) * concentration {
            let tile_id = NodeId(tile);
            let backlog = net.inject_backlog(tile_id, response_vc).iter().copied();
            for (pos, pid) in backlog.take(4).enumerate() {
                if busy.contains(&pid) {
                    continue;
                }
                let pkt = net.store().get(pid);
                if !pkt.compressible
                    || !matches!(pkt.payload, Payload::Raw(_))
                    || Msg::try_decode(pkt.tag).is_none()
                {
                    continue;
                }
                let dir = disco_noc::routing::xy_route(net.topology(), node_id, pkt.dst);
                let remote = if net.topology().is_local(dir) {
                    0
                } else {
                    depth.saturating_sub(net.router(node_id).credit_in(dir, response_vc).min(depth))
                };
                let local_port = net.topology().local_port(tile_id).0;
                let pressure = Pressure {
                    local_occupancy: pos
                        + 1
                        + net.router(node_id).local_occupancy(local_port, response_vc),
                    remote_occupancy: remote,
                    hops_remaining: remaining_hops(net.topology(), tile_id, pkt.dst),
                };
                saw_candidate = true;
                if !self.params.should_compress(&pressure) {
                    continue;
                }
                let conf = self.params.compression_confidence(&pressure);
                if best.is_none_or(|(c, ..)| conf > c) {
                    best = Some((conf, tile, response_vc, pid, Mode::Queued));
                }
            }
        }
        let pick = best.map(|(_, port, vc, pid, mode)| (port, vc, pid, mode));
        (pick, saw_candidate)
    }

    /// Commit phase for one start: charge the codec, build the
    /// operation, and (for blocking decompression) take the VC lock. The
    /// only mutation site of the start path.
    fn commit_start(&mut self, net: &mut Network, node: usize, action: StartAction) {
        let StartAction {
            slot,
            port,
            vc,
            packet,
            mode,
        } = action;
        debug_assert!(
            self.engines[node][slot].is_none(),
            "scan only targets idle slots"
        );
        self.stats.started += 1;
        let (result, cycles_left) = match &net.store().get(packet).payload {
            Payload::Raw(line) => {
                // The whole-packet modes also move the packet through the
                // compressor datapath; streaming does so after commit.
                let transfer = if mode == Mode::Stream {
                    0
                } else {
                    RAW_FLITS.div_ceil(FRAGMENT_RATE) as u64
                };
                let latency = self.codec.compression_latency().max(1) + transfer;
                (Payload::Compressed(self.codec.compress(line)), latency)
            }
            Payload::Compressed(c) => match self.codec.decompress(c) {
                Ok(line) => (
                    Payload::Raw(line),
                    self.codec.decompression_latency(c).max(1),
                ),
                Err(e) => {
                    // An in-flight encoding that fails to decode means the
                    // payload was corrupted after compression; abort the
                    // operation instead of poisoning the engine.
                    debug_assert!(false, "in-flight encoding invalid: {e:?}");
                    self.stats.aborts += 1;
                    return;
                }
            },
            Payload::None => unreachable!("the scan picks data packets only"),
        };
        let blocking = self.locks(mode);
        if blocking {
            net.router_mut(NodeId(node)).set_locked(port, vc, true);
        }
        self.live.insert(node);
        self.engines[node][slot] = Some(Operation {
            mode,
            packet,
            port,
            vc,
            cycles_left,
            result,
            committed: false,
            consumed: 0,
            prefix_flits: 0,
            idle_cycles: 0,
        });
        disco_trace::emit!(
            net,
            disco_trace::Event::CodecStart {
                packet: packet.0,
                node: node as u16,
                op: mode.trace_op(),
                blocking,
            }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disco_compress::CacheLine;
    use disco_noc::packet::PacketClass;
    use disco_noc::topology::Mesh;
    use disco_noc::NocConfig;

    /// Two nodes in a row; a congested east link makes node 0's local VC a
    /// persistent SA loser so the engine can work on it.
    fn congested_net() -> Network {
        Network::new(Mesh::new(2, 1), NocConfig::default())
    }

    fn eager_params() -> DiscoParams {
        DiscoParams {
            cc_threshold: -10.0,
            cd_threshold: -100.0,
            beta: 0.0,
            ..DiscoParams::default()
        }
    }

    fn compressible_line() -> CacheLine {
        CacheLine::from_u64_words([10, 11, 12, 13, 14, 15, 16, 17])
    }

    #[test]
    fn compresses_idling_response() {
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(eager_params(), Codec::delta(), 2);
        // Block the east link by filling the downstream VC1 with a parked
        // packet: send one response and lock node 1's west input.
        let msg = Msg::new(crate::protocol::Op::Writeback, 0, 5).encode();
        let p1 = net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(compressible_line()),
            true,
            msg,
        );
        // A second response queues behind it.
        let msg2 = Msg::new(crate::protocol::Op::Writeback, 0, 6).encode();
        net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(compressible_line()),
            true,
            msg2,
        );
        // Park node-0's east output by exhausting its credits so the
        // responses idle in the local input VC.
        assert!(net
            .router_mut(NodeId(0))
            .try_take_credits(disco_noc::topology::EAST, 1, 8));
        for _ in 0..60 {
            net.tick();
            layer.tick(&mut net);
        }
        assert!(
            layer.stats().compressions >= 1,
            "stats: {:?}",
            layer.stats()
        );
        // The idling front packet must now be compressed in the store.
        assert!(net.store().get(p1).payload.is_compressed());
        // Release the credits and let everything drain.
        for _ in 0..8 {
            net.router_mut(NodeId(0))
                .return_credit(disco_noc::topology::EAST, 1);
        }
        let mut delivered = Vec::new();
        for _ in 0..200 {
            net.tick();
            layer.tick(&mut net);
            delivered.extend(net.take_delivered(NodeId(1)));
            if delivered.len() == 2 {
                break;
            }
        }
        assert_eq!(delivered.len(), 2, "both packets must still arrive");
        // Compressed payload must decode back to the original line.
        for p in &delivered {
            match &p.payload {
                Payload::Compressed(c) => {
                    let codec = Codec::delta();
                    assert_eq!(codec.decompress(c).unwrap(), compressible_line());
                }
                Payload::Raw(l) => assert_eq!(*l, compressible_line()),
                Payload::None => panic!("response lost its payload"),
            }
        }
    }

    #[test]
    fn decompresses_near_destination() {
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(eager_params(), Codec::delta(), 2);
        let codec = Codec::delta();
        let enc = codec.compress(&compressible_line());
        let msg = Msg::new(crate::protocol::Op::DataToCore, 1, 5).encode();
        let pid = net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Compressed(enc),
            true,
            msg,
        );
        // Stall it at node 0 (no credits east) so the engine sees it idle.
        assert!(net
            .router_mut(NodeId(0))
            .try_take_credits(disco_noc::topology::EAST, 1, 8));
        for _ in 0..40 {
            net.tick();
            layer.tick(&mut net);
        }
        assert_eq!(
            layer.stats().decompressions,
            1,
            "stats: {:?}",
            layer.stats()
        );
        match &net.store().get(pid).payload {
            Payload::Raw(l) => assert_eq!(*l, compressible_line()),
            other => panic!("expected decompressed payload, got {other:?}"),
        }
        assert_eq!(net.store().get(pid).size_flits(), 8);
    }

    #[test]
    fn low_confidence_blocks_hasty_compression() {
        // A single packet on an idle network: no backlog, no remote
        // pressure — the default thresholds must keep it raw.
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(DiscoParams::default(), Codec::delta(), 2);
        let msg = Msg::new(crate::protocol::Op::Writeback, 0, 5).encode();
        net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(compressible_line()),
            true,
            msg,
        );
        for _ in 0..100 {
            net.tick();
            layer.tick(&mut net);
            let _ = net.take_delivered(NodeId(1));
        }
        assert_eq!(layer.stats().compressions, 0);
        assert!(net.is_idle());
    }

    #[test]
    fn strict_thresholds_block_even_backlog() {
        let mut net = congested_net();
        let strict = DiscoParams {
            cc_threshold: 1_000.0,
            cd_threshold: 1_000.0,
            ..DiscoParams::default()
        };
        let mut layer = DiscoLayer::new(strict, Codec::delta(), 2);
        for k in 0..6u64 {
            let msg = Msg::new(crate::protocol::Op::Writeback, 0, k).encode();
            net.send(
                NodeId(0),
                NodeId(1),
                PacketClass::Response,
                Payload::Raw(compressible_line()),
                true,
                msg,
            );
        }
        assert!(net
            .router_mut(NodeId(0))
            .try_take_credits(disco_noc::topology::EAST, 1, 8));
        for _ in 0..80 {
            net.tick();
            layer.tick(&mut net);
        }
        assert_eq!(layer.stats().compressions, 0);
        assert!(
            layer.stats().low_confidence > 0,
            "candidates must be seen and rejected"
        );
    }

    #[test]
    fn queue_backlog_is_compressed_under_congestion() {
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(DiscoParams::default(), Codec::delta(), 2);
        // Six responses pile up behind a blocked east link: the ones still
        // in the NI queue are idle whole packets and compress in place.
        let mut ids = Vec::new();
        for k in 0..6u64 {
            let msg = Msg::new(crate::protocol::Op::Writeback, 0, k).encode();
            ids.push(net.send(
                NodeId(0),
                NodeId(1),
                PacketClass::Response,
                Payload::Raw(compressible_line()),
                true,
                msg,
            ));
        }
        assert!(net
            .router_mut(NodeId(0))
            .try_take_credits(disco_noc::topology::EAST, 1, 8));
        for _ in 0..80 {
            net.tick();
            layer.tick(&mut net);
        }
        assert!(
            layer.stats().queue_compressions > 0,
            "stats: {:?}",
            layer.stats()
        );
        let queued_compressed = ids
            .iter()
            .filter(|&&id| net.store().get(id).payload.is_compressed())
            .count();
        assert!(queued_compressed >= 2, "several queued packets must shrink");
    }

    #[test]
    fn adaptive_thresholds_stay_within_bounds() {
        let params = DiscoParams {
            adaptive: true,
            epoch_cycles: 8,
            ..DiscoParams::default()
        };
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(params, Codec::delta(), 2);
        for k in 0..8u64 {
            let msg = Msg::new(crate::protocol::Op::Writeback, 0, k).encode();
            net.send(
                NodeId(0),
                NodeId(1),
                PacketClass::Response,
                Payload::Raw(compressible_line()),
                true,
                msg,
            );
        }
        for _ in 0..600 {
            net.tick();
            layer.tick(&mut net);
            let _ = net.take_delivered(NodeId(1));
            let (cc, cd) = layer.effective_thresholds();
            assert!(cc >= params.cc_threshold - 1.0 && cc <= params.cc_threshold + 4.0);
            assert!(cd >= params.cd_threshold - 1.0 && cd <= params.cd_threshold + 4.0);
        }
    }

    #[test]
    fn streaming_compression_handles_fragmented_arrival() {
        // Force the §3.3-A separate-flit path: flits of one response
        // trickle into a stalled VC one per cycle (wormhole split), so
        // the engine starts with a partial packet and consumes fragments
        // as they arrive.
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(eager_params(), Codec::delta(), 2);
        let line = compressible_line();
        let tag = Msg::new(crate::protocol::Op::Writeback, 0, 3).encode();
        let pid = net.store_mut().create(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(line),
            true,
            0,
            tag,
        );
        // Stall the east output and hand-deliver flits into the west...
        // rather: the local input VC of node 0, head first.
        assert!(net
            .router_mut(NodeId(0))
            .try_take_credits(disco_noc::topology::EAST, 1, 8));
        let flits = disco_noc::packet::flits_for(pid, 8, 0);
        let local = net.topology().local_port(NodeId(0)).0;
        for (i, f) in flits.into_iter().enumerate() {
            net.router_mut(NodeId(0)).accept(local, 1, f);
            // Several engine cycles between fragment arrivals.
            for _ in 0..3 {
                net.tick();
                layer.tick(&mut net);
            }
            if i == 0 {
                // After the head arrives and idles, the engine must have
                // started (streaming mode, since the tail is absent).
                assert!(layer.stats().started >= 1, "{:?}", layer.stats());
            }
        }
        for _ in 0..30 {
            net.tick();
            layer.tick(&mut net);
        }
        assert_eq!(layer.stats().compressions, 1, "{:?}", layer.stats());
        assert!(net.store().get(pid).payload.is_compressed());
        // Buffer now holds the compressed flits only.
        let vc = net.router(NodeId(0)).vc(local, 1);
        assert_eq!(vc.occupancy(), net.store().get(pid).size_flits());
        assert!(vc.has_tail_of(pid));
    }

    #[test]
    fn static_thresholds_never_move() {
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(DiscoParams::default(), Codec::delta(), 2);
        let msg = Msg::new(crate::protocol::Op::Writeback, 0, 1).encode();
        net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(compressible_line()),
            true,
            msg,
        );
        for _ in 0..3_000 {
            net.tick();
            layer.tick(&mut net);
            let _ = net.take_delivered(NodeId(1));
        }
        let (cc, cd) = layer.effective_thresholds();
        assert_eq!(cc, DiscoParams::default().cc_threshold);
        assert_eq!(cd, DiscoParams::default().cd_threshold);
    }

    #[test]
    fn incompressible_attempt_counted() {
        let mut net = congested_net();
        let mut layer = DiscoLayer::new(eager_params(), Codec::delta(), 2);
        // xorshift noise: the delta codec cannot compress it.
        let mut bytes = [0u8; 64];
        let mut x = 0x9e3779b97f4a7c15u64;
        for b in bytes.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *b = (x >> 32) as u8;
        }
        let noise = CacheLine::from_bytes(bytes);
        let msg = Msg::new(crate::protocol::Op::Writeback, 0, 5).encode();
        net.send(
            NodeId(0),
            NodeId(1),
            PacketClass::Response,
            Payload::Raw(noise),
            true,
            msg,
        );
        assert!(net
            .router_mut(NodeId(0))
            .try_take_credits(disco_noc::topology::EAST, 1, 8));
        for _ in 0..30 {
            net.tick();
            layer.tick(&mut net);
        }
        assert!(
            layer.stats().incompressible >= 1,
            "stats: {:?}",
            layer.stats()
        );
        assert_eq!(layer.stats().compressions, 0);
    }
}

// ---------------------------------------------------------------------------
// Checkpointing (see crates/snapshot/manifest.txt)
// ---------------------------------------------------------------------------

disco_snapshot::snap_fields!(DiscoStats {
    started,
    compressions,
    decompressions,
    aborts,
    incompressible,
    growth_stalls,
    low_confidence,
    flits_saved,
    queue_compressions,
});

impl disco_snapshot::Snap for Mode {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        w.put(&(*self as u8));
    }

    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(match r.take::<u8>()? {
            0 => Mode::Whole,
            1 => Mode::Stream,
            2 => Mode::Decomp,
            3 => Mode::Queued,
            tag => return Err(disco_snapshot::malformed(format!("engine mode tag {tag}"))),
        })
    }
}

disco_snapshot::snap_fields!(Operation {
    mode,
    packet,
    port,
    vc,
    cycles_left,
    result,
    committed,
    consumed,
    prefix_flits,
    idle_cycles,
});

impl DiscoLayer {
    /// Writes the layer's mutable state: every engine, the arbitrator's
    /// effective thresholds, epoch bookkeeping, and counters. `params`,
    /// the codec, and the scan arena are rebuilt from config on restore,
    /// and the live-node set from the engines.
    pub fn snap_state(&self, w: &mut disco_snapshot::Writer) {
        w.put(&self.engines);
        w.put(&self.stats);
        w.put(&self.per_node_ops);
        w.put(&self.cc_eff);
        w.put(&self.cd_eff);
        w.put(&self.epoch_started);
        w.put(&self.epoch_stats);
        w.put(&self.cycle);
    }

    /// Overlays state written by [`DiscoLayer::snap_state`] onto a layer
    /// freshly built with the same parameters and node count.
    pub fn restore_state(
        &mut self,
        r: &mut disco_snapshot::Reader<'_>,
    ) -> Result<(), disco_snapshot::SnapError> {
        let engines: Vec<Vec<Option<Operation>>> = r.take()?;
        if engines.len() != self.engines.len() {
            return Err(disco_snapshot::malformed(format!(
                "{} engine routers in snapshot, {} rebuilt",
                engines.len(),
                self.engines.len()
            )));
        }
        self.engines = engines;
        self.live = BitSet::new(self.engines.len());
        for (node, slots) in self.engines.iter().enumerate() {
            if slots.iter().any(Option::is_some) {
                self.live.insert(node);
            }
        }
        self.stats = r.take()?;
        self.per_node_ops = r.take()?;
        self.cc_eff = r.take()?;
        self.cd_eff = r.take()?;
        self.epoch_started = r.take()?;
        self.epoch_stats = r.take()?;
        self.cycle = r.take()?;
        Ok(())
    }
}
