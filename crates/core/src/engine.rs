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

use crate::arbitrator::{DiscoParams, Pressure};
use crate::protocol::Msg;
use disco_compress::scheme::Compressor;
use disco_compress::{CacheLine, Codec, CompressedLine};
use disco_noc::routing::remaining_hops;
use disco_noc::{Network, NodeId, PacketId, Payload, FLIT_BYTES};

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

/// One router's engine.
#[derive(Debug, Clone)]
enum Engine {
    Idle,
    /// One-shot compression of a packet that is entirely resident (the
    /// common case; also covers packets queued *behind* the VC's front
    /// packet, which cannot be scheduled and thus compress risk-free).
    CompressingWhole {
        port: usize,
        vc: usize,
        packet: PacketId,
        cycles_left: u64,
        result: CompressedLine,
    },
    /// Separate-flit (streaming) compression of the front packet while
    /// its trailing flits are still arriving (§3.3-A). The shadow flits
    /// stay schedulable the whole time (locking a VC that waits for
    /// upstream flits could deadlock against another locked VC); a switch
    /// grant aborts the operation and the packet continues uncompressed.
    Compressing {
        port: usize,
        vc: usize,
        packet: PacketId,
        latency_left: u64,
        committed: bool,
        consumed: usize,
        prefix_flits: usize,
        /// Cycles since the last fragment was consumed (progress guard).
        idle_cycles: u64,
        result: CompressedLine,
    },
    /// Compression of a whole packet still waiting in the NI injection
    /// queue: no flits exist yet, so completion is a pure payload swap.
    CompressingQueued {
        /// The tile whose NI queue holds the packet (distinct from the
        /// engine's router only on the concentrated mesh).
        tile: usize,
        vc: usize,
        packet: PacketId,
        cycles_left: u64,
        result: CompressedLine,
    },
    Decompressing {
        port: usize,
        vc: usize,
        packet: PacketId,
        latency_left: u64,
        line: CacheLine,
    },
}

impl Engine {
    /// The packet an active engine is working on.
    fn target(&self) -> Option<PacketId> {
        match self {
            Engine::Idle => None,
            Engine::CompressingWhole { packet, .. }
            | Engine::Compressing { packet, .. }
            | Engine::CompressingQueued { packet, .. }
            | Engine::Decompressing { packet, .. } => Some(*packet),
        }
    }
}

/// How a started engine will operate on its packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// One-shot compression of a fully resident packet.
    Whole,
    /// Separate-flit streaming compression of the front packet.
    Stream,
    /// Whole-packet decompression near the destination.
    Decomp,
    /// Compression of a packet still in the NI injection queue.
    Queued,
}

/// A de/compression start decided by the pure scan phase and applied by
/// [`DiscoLayer::commit_start`]. `port` is `usize::MAX` for
/// [`Mode::Queued`] (the packet has no input port yet).
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

/// One shard's reusable scan arena: the per-node scan results for the
/// shard's contiguous node span plus the busy-packet working list. Like
/// the NoC's compute slots, allocations reach their high-water mark
/// once and are reused every cycle; the `Mutex` is uncontended (shards
/// are disjoint) and exists only to hand the slot to a pool worker
/// safely.
#[derive(Debug, Default)]
struct ScanSlot {
    /// One scan per node in this shard's span, in node order.
    scans: Vec<NodeScan>,
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
    engines: Vec<Vec<Engine>>,
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
    /// Per-shard scan arenas, sized lazily to the network's shard count
    /// and taken out of `self` during each tick's scan + commit.
    scan_slots: Vec<std::sync::Mutex<ScanSlot>>,
}

impl DiscoLayer {
    /// Builds the layer for an `nodes`-router mesh.
    pub fn new(params: DiscoParams, codec: Codec, nodes: usize) -> Self {
        DiscoLayer {
            params,
            codec,
            engines: vec![vec![Engine::Idle; params.engines_per_router.max(1)]; nodes],
            per_node_ops: vec![0; nodes],
            stats: DiscoStats::default(),
            cc_eff: params.cc_threshold,
            cd_eff: params.cd_threshold,
            epoch_started: 0,
            epoch_stats: DiscoStats::default(),
            cycle: 0,
            scan_slots: Vec::new(),
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
        let e = {
            let cur = self.stats;
            let prev = self.epoch_stats;
            DiscoStats {
                started: cur.started - prev.started,
                compressions: cur.compressions - prev.compressions,
                decompressions: cur.decompressions - prev.decompressions,
                aborts: cur.aborts - prev.aborts,
                incompressible: cur.incompressible - prev.incompressible,
                growth_stalls: cur.growth_stalls - prev.growth_stalls,
                low_confidence: cur.low_confidence - prev.low_confidence,
                flits_saved: cur.flits_saved - prev.flits_saved,
                queue_compressions: cur.queue_compressions - prev.queue_compressions,
            }
        };
        self.epoch_stats = self.stats;
        let base_cc = self.params.cc_threshold;
        let base_cd = self.params.cd_threshold;
        if e.started >= 8 && e.aborts * 2 > e.started {
            // Hasty: more than half the starts were scheduled away.
            self.cc_eff = (self.cc_eff + 0.5).min(base_cc + 4.0);
            self.cd_eff = (self.cd_eff + 0.5).min(base_cd + 4.0);
        } else if e.low_confidence > e.started * 4 {
            // Plenty of rejected candidates and few mistakes: loosen.
            self.cc_eff = (self.cc_eff - 0.25).max(base_cc - 1.0);
            self.cd_eff = (self.cd_eff - 0.25).max(base_cd - 1.0);
        } else {
            // Drift back to the trained baseline.
            self.cc_eff += (base_cc - self.cc_eff) * 0.25;
            self.cd_eff += (base_cd - self.cd_eff) * 0.25;
        }
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
    /// Mirrors the NoC's compute → commit split: engine *progress*
    /// ([`step_engine`](Self::step_engine)) mutates shared state and runs
    /// serially in node order; the candidate *scan* is a pure function of
    /// the resulting network state and parallelizes across nodes; the
    /// *commit* applies the chosen starts in node order. Results are
    /// therefore identical for any shard count.
    pub fn tick(&mut self, net: &mut Network) {
        self.cycle += 1;
        if self.params.adaptive && self.cycle - self.epoch_started >= self.params.epoch_cycles {
            self.epoch_started = self.cycle;
            self.adapt();
        }
        for node in 0..self.engines.len() {
            for slot in 0..self.engines[node].len() {
                self.step_engine(net, node, slot);
            }
        }
        // Detach the arenas so the scan can borrow `self` immutably and
        // the slots mutably at the same time (mirrors `Network::tick`).
        if self.scan_slots.len() != net.compute_shards() {
            self.scan_slots
                .resize_with(net.compute_shards(), Default::default);
        }
        let mut slots = std::mem::take(&mut self.scan_slots);
        self.compute_scans(net, &mut slots);
        // Commit in node order: shard slots hold contiguous node spans in
        // shard order, so a running counter walks nodes exactly `0..n`.
        let mut node = 0;
        for slot in slots.iter_mut() {
            let slot = match slot.get_mut() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            for scan in &slot.scans {
                self.stats.low_confidence += scan.low_confidence;
                for &action in &scan.starts {
                    self.commit_start(net, node, action);
                }
                node += 1;
            }
        }
        debug_assert_eq!(node, self.engines.len(), "scan slots must tile the nodes");
        self.scan_slots = slots;
    }

    /// Scan phase: fills one [`NodeScan`] per node into the shard slots,
    /// spans in node order within each slot.
    fn compute_scans(&self, net: &Network, slots: &mut [std::sync::Mutex<ScanSlot>]) {
        #[cfg(feature = "parallel")]
        if net.compute_shards() > 1 {
            self.compute_scans_sharded(net, slots);
            return;
        }
        let slot = match slots[0].get_mut() {
            Ok(slot) => slot,
            Err(poisoned) => poisoned.into_inner(),
        };
        slot.scans
            .resize_with(self.engines.len(), NodeScan::default);
        for node in 0..self.engines.len() {
            let ScanSlot { scans, busy } = &mut *slot;
            self.scan_node_into(net, node, busy, &mut scans[node]);
        }
    }

    /// Fans [`scan_node_into`](Self::scan_node_into) out over the
    /// network's persistent worker pool, shard `s` scanning the node
    /// span [`Network::shard_span`]`(s)` into slot `s` — the same
    /// decomposition and worker set as the NoC compute phase, so a
    /// shard's scan arena stays warm in the same worker's cache.
    #[cfg(feature = "parallel")]
    fn compute_scans_sharded(&self, net: &Network, slots: &mut [std::sync::Mutex<ScanSlot>]) {
        let slots: &[std::sync::Mutex<ScanSlot>] = slots;
        net.run_sharded(&|shard| {
            let span = net.shard_span(shard);
            // Uncontended: worker `shard` is the only thread touching
            // slot `shard` during a run.
            let mut slot = match slots[shard].lock() {
                Ok(slot) => slot,
                Err(poisoned) => poisoned.into_inner(),
            };
            let ScanSlot { scans, busy } = &mut *slot;
            scans.resize_with(span.len(), NodeScan::default);
            for (k, node) in span.enumerate() {
                self.scan_node_into(net, node, busy, &mut scans[k]);
            }
        });
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
        busy.extend(self.engines[node].iter().filter_map(Engine::target));
        for slot in 0..self.engines[node].len() {
            if !matches!(self.engines[node][slot], Engine::Idle) {
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

    /// Progress an active engine by one cycle.
    fn step_engine(&mut self, net: &mut Network, node: usize, slot: usize) {
        let node_id = NodeId(node);
        match std::mem::replace(&mut self.engines[node][slot], Engine::Idle) {
            Engine::Idle => {}
            Engine::CompressingWhole {
                port,
                vc,
                packet,
                mut cycles_left,
                result,
            } => {
                let vc_ref = net.router(node_id).vc(port, vc);
                // `try_get`: the fault layer may have retired the packet
                // outright (dropped or eaten at ejection), which also
                // reads as "no longer whole here".
                let whole = match net.store().try_get(packet) {
                    Some(pkt) => {
                        let size = pkt.size_flits();
                        vc_ref.resident_of(packet) == size && vc_ref.has_tail_of(packet)
                    }
                    None => false,
                };
                if !whole {
                    // The packet started moving (it reached the front and
                    // the switch granted it): non-blocking abort.
                    self.stats.aborts += 1;
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::COMPRESS,
                            outcome: disco_trace::codec::ABORTED,
                        }
                    );
                    return;
                }
                cycles_left -= 1;
                if cycles_left > 0 {
                    self.engines[node][slot] = Engine::CompressingWhole {
                        port,
                        vc,
                        packet,
                        cycles_left,
                        result,
                    };
                    return;
                }
                // Fault hook: a corrupted compressor output is caught by
                // decompress-and-verify here and the packet falls back to
                // uncompressed delivery (same downstream handling as an
                // incompressible line).
                if !result.is_compressed() || net.codec_output_faulted(node_id, packet, &result) {
                    net.store_mut().get_mut(packet).compressible = false;
                    self.stats.incompressible += 1;
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::COMPRESS,
                            outcome: disco_trace::codec::INCOMPRESSIBLE,
                        }
                    );
                    return;
                }
                let old_size = net.store().get(packet).size_flits();
                let final_flits = result.size_bytes().div_ceil(FLIT_BYTES).max(1);
                net.store_mut().get_mut(packet).payload = Payload::Compressed(result);
                let ok = net.reshape_resident(node_id, port, vc, packet, final_flits, true);
                debug_assert!(ok, "compression only shrinks");
                self.stats.compressions += 1;
                self.per_node_ops[node] += 1;
                self.stats.flits_saved += (old_size - final_flits) as u64;
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecEnd {
                        packet: packet.0,
                        node: node as u16,
                        op: disco_trace::codec::COMPRESS,
                        outcome: disco_trace::codec::DONE,
                    }
                );
            }
            Engine::Compressing {
                port,
                vc,
                packet,
                mut latency_left,
                mut committed,
                mut consumed,
                mut prefix_flits,
                mut idle_cycles,
                result,
            } => {
                let vc_ref = net.router(node_id).vc(port, vc);
                if vc_ref.front_packet() != Some(packet) || !vc_ref.front_is_head() {
                    // The shadow packet was scheduled away: the operation
                    // aborts; the store payload is still raw, so the
                    // packet continues uncompressed (§3.2 step 3).
                    self.stats.aborts += 1;
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::COMPRESS,
                            outcome: disco_trace::codec::ABORTED,
                        }
                    );
                    return;
                }
                if !committed {
                    latency_left = latency_left.saturating_sub(1);
                    if latency_left > 0 {
                        self.engines[node][slot] = Engine::Compressing {
                            port,
                            vc,
                            packet,
                            latency_left,
                            committed,
                            consumed,
                            prefix_flits,
                            idle_cycles,
                            result,
                        };
                        return;
                    }
                    // The parallel compressor units found no fitting
                    // encoding, or (fault hook at the commit decision,
                    // before any resident flit is consumed) its output
                    // failed verification: release the shadow packet
                    // untouched and mark it so no downstream engine wastes
                    // a slot on it again (a header "attempted" bit).
                    if !result.is_compressed() || net.codec_output_faulted(node_id, packet, &result)
                    {
                        net.store_mut().get_mut(packet).compressible = false;
                        self.stats.incompressible += 1;
                        disco_trace::emit!(
                            net,
                            disco_trace::Event::CodecEnd {
                                packet: packet.0,
                                node: node as u16,
                                op: disco_trace::codec::COMPRESS,
                                outcome: disco_trace::codec::INCOMPRESSIBLE,
                            }
                        );
                        return;
                    }
                    committed = true;
                }
                // Committed: consume resident raw flits fragment-wise. The
                // VC is deliberately NOT locked — waiting for upstream
                // flits while holding a lock could deadlock two engines
                // against each other.
                let (resident, tail_resident) = {
                    let vc_ref = net.router(node_id).vc(port, vc);
                    (vc_ref.resident_of(packet), vc_ref.has_tail_of(packet))
                };
                let raw_in_buffer = resident - prefix_flits;
                let k = raw_in_buffer.min(self.params.fragment_rate);
                if k > 0 {
                    idle_cycles = 0;
                    consumed += k;
                    let total_raw = disco_compress::LINE_BYTES / FLIT_BYTES;
                    let final_bytes = result.size_bytes();
                    let partial_bytes = final_bytes * consumed / total_raw;
                    prefix_flits = partial_bytes.div_ceil(FLIT_BYTES).max(1);
                    let new_len = prefix_flits + (raw_in_buffer - k);
                    if consumed == total_raw {
                        // Final fragment: swap in the compressed payload.
                        let old_size = net.store().get(packet).size_flits();
                        let final_flits = final_bytes.div_ceil(FLIT_BYTES).max(1);
                        net.store_mut().get_mut(packet).payload = Payload::Compressed(result);
                        let ok = net.reshape_resident(node_id, port, vc, packet, final_flits, true);
                        debug_assert!(ok, "compression only shrinks");
                        self.stats.compressions += 1;
                        self.per_node_ops[node] += 1;
                        self.stats.flits_saved += (old_size - final_flits) as u64;
                        disco_trace::emit!(
                            net,
                            disco_trace::Event::CodecEnd {
                                packet: packet.0,
                                node: node as u16,
                                op: disco_trace::codec::COMPRESS,
                                outcome: disco_trace::codec::DONE,
                            }
                        );
                        return;
                    }
                    // Mid-stream reshape: if the packet's tail has already
                    // arrived, the rebuilt segment must keep a tail flit —
                    // otherwise an abort would leave a packet that can
                    // never release its VC downstream.
                    let ok =
                        net.reshape_resident(node_id, port, vc, packet, new_len, tail_resident);
                    debug_assert!(ok, "mid-compression reshape only shrinks");
                } else {
                    // No fragment arrived: give up after a while (the
                    // packet may have been truncated by an upstream abort
                    // and will never deliver 8 raw flits here).
                    idle_cycles += 1;
                    if idle_cycles > 64 {
                        self.stats.aborts += 1;
                        disco_trace::emit!(
                            net,
                            disco_trace::Event::CodecEnd {
                                packet: packet.0,
                                node: node as u16,
                                op: disco_trace::codec::COMPRESS,
                                outcome: disco_trace::codec::ABORTED,
                            }
                        );
                        return;
                    }
                }
                self.engines[node][slot] = Engine::Compressing {
                    port,
                    vc,
                    packet,
                    latency_left,
                    committed,
                    consumed,
                    prefix_flits,
                    idle_cycles,
                    result,
                };
            }
            Engine::CompressingQueued {
                tile,
                vc,
                packet,
                mut cycles_left,
                result,
            } => {
                if !net.inject_backlog(NodeId(tile), vc).contains(&packet) {
                    // Injection started before compression finished.
                    self.stats.aborts += 1;
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::COMPRESS,
                            outcome: disco_trace::codec::ABORTED,
                        }
                    );
                    return;
                }
                cycles_left -= 1;
                if cycles_left > 0 {
                    self.engines[node][slot] = Engine::CompressingQueued {
                        tile,
                        vc,
                        packet,
                        cycles_left,
                        result,
                    };
                    return;
                }
                // Fault hook: see the compressing-whole case above.
                if !result.is_compressed() || net.codec_output_faulted(node_id, packet, &result) {
                    net.store_mut().get_mut(packet).compressible = false;
                    self.stats.incompressible += 1;
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::COMPRESS,
                            outcome: disco_trace::codec::INCOMPRESSIBLE,
                        }
                    );
                    return;
                }
                let old_size = net.store().get(packet).size_flits();
                let final_flits = result.size_bytes().div_ceil(FLIT_BYTES).max(1);
                net.store_mut().get_mut(packet).payload = Payload::Compressed(result);
                self.stats.compressions += 1;
                self.stats.queue_compressions += 1;
                self.per_node_ops[node] += 1;
                self.stats.flits_saved += (old_size - final_flits) as u64;
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecEnd {
                        packet: packet.0,
                        node: node as u16,
                        op: disco_trace::codec::COMPRESS,
                        outcome: disco_trace::codec::DONE,
                    }
                );
            }
            Engine::Decompressing {
                port,
                vc,
                packet,
                mut latency_left,
                line,
            } => {
                let vc_ref = net.router(node_id).vc(port, vc);
                // `try_get`: see the compressing-whole case above.
                let whole = match net.store().try_get(packet) {
                    Some(pkt) => {
                        let size = pkt.size_flits();
                        vc_ref.resident_of(packet) == size && vc_ref.has_tail_of(packet)
                    }
                    None => false,
                };
                if !whole {
                    self.stats.aborts += 1;
                    if !self.params.non_blocking {
                        net.router_mut(node_id).set_locked(port, vc, false);
                    }
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::DECOMPRESS,
                            outcome: disco_trace::codec::ABORTED,
                        }
                    );
                    return;
                }
                latency_left = latency_left.saturating_sub(1);
                if latency_left > 0 {
                    self.engines[node][slot] = Engine::Decompressing {
                        port,
                        vc,
                        packet,
                        latency_left,
                        line,
                    };
                    return;
                }
                let raw_flits = disco_compress::LINE_BYTES / FLIT_BYTES;
                if !net.reshape_resident(node_id, port, vc, packet, raw_flits, true) {
                    // No room to expand: leave the packet compressed; the
                    // NI at the destination will decompress instead.
                    self.stats.growth_stalls += 1;
                    if !self.params.non_blocking {
                        net.router_mut(node_id).set_locked(port, vc, false);
                    }
                    disco_trace::emit!(
                        net,
                        disco_trace::Event::CodecEnd {
                            packet: packet.0,
                            node: node as u16,
                            op: disco_trace::codec::DECOMPRESS,
                            outcome: disco_trace::codec::GROWTH_STALL,
                        }
                    );
                    return;
                }
                {
                    let pkt = net.store_mut().get_mut(packet);
                    pkt.payload = Payload::Raw(line);
                    // A packet decompressed for its destination must not
                    // be picked up again by a downstream compressor.
                    pkt.compressible = false;
                }
                if !self.params.non_blocking {
                    net.router_mut(node_id).set_locked(port, vc, false);
                }
                self.stats.decompressions += 1;
                self.per_node_ops[node] += 1;
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecEnd {
                        packet: packet.0,
                        node: node as u16,
                        op: disco_trace::codec::DECOMPRESS,
                        outcome: disco_trace::codec::DONE,
                    }
                );
            }
        }
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
                let msg = Msg::decode(pkt.tag);
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
        let response_vc = disco_noc::PacketClass::Response
            .vc()
            .min(net.config().vcs - 1);
        let concentration = net.topology().concentration();
        for tile in node * concentration..(node + 1) * concentration {
            let tile_id = NodeId(tile);
            let backlog = net.inject_backlog(tile_id, response_vc).iter().copied();
            for (pos, pid) in backlog.take(4).enumerate() {
                if busy.contains(&pid) {
                    continue;
                }
                let pkt = net.store().get(pid);
                if !pkt.compressible || !matches!(pkt.payload, Payload::Raw(_)) {
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

    /// Commit phase for one start: charge the codec, build the engine,
    /// and (for blocking decompression) take the VC lock. The only
    /// mutation site of the start path.
    fn commit_start(&mut self, net: &mut Network, node: usize, action: StartAction) {
        let StartAction {
            slot,
            port,
            vc,
            packet: pid,
            mode,
        } = action;
        let node_id = NodeId(node);
        debug_assert!(
            matches!(self.engines[node][slot], Engine::Idle),
            "scan only targets idle slots"
        );
        let pkt = net.store().get(pid);
        self.stats.started += 1;
        match mode {
            Mode::Decomp => {
                let Payload::Compressed(c) = &pkt.payload else {
                    unreachable!("checked above")
                };
                let line = match self.codec.decompress(c) {
                    Ok(line) => line,
                    Err(e) => {
                        // An in-flight encoding that fails to decode means
                        // the payload was corrupted after compression;
                        // abort the operation instead of poisoning the
                        // engine.
                        debug_assert!(false, "in-flight encoding invalid: {e:?}");
                        self.stats.aborts += 1;
                        return;
                    }
                };
                let latency = self.codec.decompression_latency(c).max(1);
                if !self.params.non_blocking {
                    net.router_mut(node_id).set_locked(port, vc, true);
                }
                self.engines[node][slot] = Engine::Decompressing {
                    port,
                    vc,
                    packet: pid,
                    latency_left: latency,
                    line,
                };
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecStart {
                        packet: pid.0,
                        node: node as u16,
                        op: disco_trace::codec::DECOMPRESS,
                        blocking: !self.params.non_blocking,
                    }
                );
            }
            Mode::Whole => {
                let Payload::Raw(line) = &pkt.payload else {
                    unreachable!("checked above")
                };
                let result = self.codec.compress(line);
                let total_raw = (disco_compress::LINE_BYTES / FLIT_BYTES) as u64;
                let cycles = self.codec.compression_latency().max(1)
                    + total_raw.div_ceil(self.params.fragment_rate.max(1) as u64);
                self.engines[node][slot] = Engine::CompressingWhole {
                    port,
                    vc,
                    packet: pid,
                    cycles_left: cycles,
                    result,
                };
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecStart {
                        packet: pid.0,
                        node: node as u16,
                        op: disco_trace::codec::COMPRESS,
                        blocking: false,
                    }
                );
            }
            Mode::Queued => {
                let Payload::Raw(line) = &pkt.payload else {
                    unreachable!("checked above")
                };
                let result = self.codec.compress(line);
                let total_raw = (disco_compress::LINE_BYTES / FLIT_BYTES) as u64;
                let cycles = self.codec.compression_latency().max(1)
                    + total_raw.div_ceil(self.params.fragment_rate.max(1) as u64);
                self.engines[node][slot] = Engine::CompressingQueued {
                    tile: port,
                    vc,
                    packet: pid,
                    cycles_left: cycles,
                    result,
                };
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecStart {
                        packet: pid.0,
                        node: node as u16,
                        op: disco_trace::codec::COMPRESS,
                        blocking: false,
                    }
                );
            }
            Mode::Stream => {
                let Payload::Raw(line) = &pkt.payload else {
                    unreachable!("checked above")
                };
                let result = self.codec.compress(line);
                let latency = self.codec.compression_latency().max(1);
                self.engines[node][slot] = Engine::Compressing {
                    port,
                    vc,
                    packet: pid,
                    latency_left: latency,
                    committed: false,
                    consumed: 0,
                    prefix_flits: 0,
                    idle_cycles: 0,
                    result,
                };
                disco_trace::emit!(
                    net,
                    disco_trace::Event::CodecStart {
                        packet: pid.0,
                        node: node as u16,
                        op: disco_trace::codec::COMPRESS,
                        blocking: false,
                    }
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

impl disco_snapshot::Snap for Engine {
    fn snap(&self, w: &mut disco_snapshot::Writer) {
        match self {
            Engine::Idle => w.put(&0u8),
            Engine::CompressingWhole {
                port,
                vc,
                packet,
                cycles_left,
                result,
            } => {
                w.put(&1u8);
                w.put(port);
                w.put(vc);
                w.put(packet);
                w.put(cycles_left);
                w.put(result);
            }
            Engine::Compressing {
                port,
                vc,
                packet,
                latency_left,
                committed,
                consumed,
                prefix_flits,
                idle_cycles,
                result,
            } => {
                w.put(&2u8);
                w.put(port);
                w.put(vc);
                w.put(packet);
                w.put(latency_left);
                w.put(committed);
                w.put(consumed);
                w.put(prefix_flits);
                w.put(idle_cycles);
                w.put(result);
            }
            Engine::CompressingQueued {
                tile,
                vc,
                packet,
                cycles_left,
                result,
            } => {
                w.put(&3u8);
                w.put(tile);
                w.put(vc);
                w.put(packet);
                w.put(cycles_left);
                w.put(result);
            }
            Engine::Decompressing {
                port,
                vc,
                packet,
                latency_left,
                line,
            } => {
                w.put(&4u8);
                w.put(port);
                w.put(vc);
                w.put(packet);
                w.put(latency_left);
                w.put(line);
            }
        }
    }

    fn restore(r: &mut disco_snapshot::Reader<'_>) -> Result<Self, disco_snapshot::SnapError> {
        Ok(match r.take::<u8>()? {
            0 => Engine::Idle,
            1 => Engine::CompressingWhole {
                port: r.take()?,
                vc: r.take()?,
                packet: r.take()?,
                cycles_left: r.take()?,
                result: r.take()?,
            },
            2 => Engine::Compressing {
                port: r.take()?,
                vc: r.take()?,
                packet: r.take()?,
                latency_left: r.take()?,
                committed: r.take()?,
                consumed: r.take()?,
                prefix_flits: r.take()?,
                idle_cycles: r.take()?,
                result: r.take()?,
            },
            3 => Engine::CompressingQueued {
                tile: r.take()?,
                vc: r.take()?,
                packet: r.take()?,
                cycles_left: r.take()?,
                result: r.take()?,
            },
            4 => Engine::Decompressing {
                port: r.take()?,
                vc: r.take()?,
                packet: r.take()?,
                latency_left: r.take()?,
                line: r.take()?,
            },
            tag => return Err(disco_snapshot::malformed(format!("Engine tag {tag}"))),
        })
    }
}

impl DiscoLayer {
    /// Writes the layer's mutable state: every engine, the arbitrator's
    /// effective thresholds, epoch bookkeeping, and counters. `params`,
    /// the codec, and the per-shard scan arenas are rebuilt from config
    /// on restore.
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
        let engines: Vec<Vec<Engine>> = r.take()?;
        if engines.len() != self.engines.len() {
            return Err(disco_snapshot::malformed(format!(
                "{} engine routers in snapshot, {} rebuilt",
                engines.len(),
                self.engines.len()
            )));
        }
        self.engines = engines;
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
