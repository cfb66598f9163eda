//! Protocol-exhaustiveness analysis: the MOESI directory transition table
//! and the [`Msg`] tag encoding.
//!
//! The directory in `disco-cache::coherence` is a protocol *engine*; its
//! transition function lives in Rust `match` arms rather than a table, so
//! nothing forces it to be total over the abstract state space. This
//! module recovers the table by driving a real [`Directory`] through one
//! representative concrete state per [`StateKind`] and one call per
//! [`DirEvent`], then checks the result for unhandled (state × event)
//! pairs and abstract states unreachable from `Uncached`. Tests inject
//! deliberately incomplete tables to prove the checker rejects them.

use disco_cache::addr::LineAddr;
use disco_cache::coherence::{Directory, StateKind};
use disco_core::protocol::{Msg, Op};
use disco_noc::topology::Topology;
use disco_noc::{NocConfig, PacketClass};

use crate::cdg::{analyze, class_vc_groups, CdgOptions};

/// The events the system layer can fire at a directory, mirroring the
/// public [`Directory`] API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DirEvent {
    /// A core reads the line.
    Read,
    /// A core requests ownership to write.
    Write,
    /// The owner writes the dirty line back.
    Writeback,
    /// A sharer silently drops its clean copy.
    DropSharer,
    /// The bank evicts the line and recalls every copy.
    Recall,
}

impl DirEvent {
    /// Every directory event.
    pub const ALL: [DirEvent; 5] = [
        DirEvent::Read,
        DirEvent::Write,
        DirEvent::Writeback,
        DirEvent::DropSharer,
        DirEvent::Recall,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            DirEvent::Read => "Read",
            DirEvent::Write => "Write",
            DirEvent::Writeback => "Writeback",
            DirEvent::DropSharer => "DropSharer",
            DirEvent::Recall => "Recall",
        }
    }
}

/// One abstract transition: in state `from`, event `event` leads to `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Abstract state before the event.
    pub from: StateKind,
    /// The event applied.
    pub event: DirEvent,
    /// Abstract state after the event.
    pub to: StateKind,
}

/// An abstract MOESI transition table.
#[derive(Debug, Clone, Default)]
pub struct TransitionTable {
    /// The transitions, at most one per (state, event) pair.
    pub transitions: Vec<Transition>,
}

impl TransitionTable {
    /// The successor state for `(from, event)`, if the table handles it.
    pub fn lookup(&self, from: StateKind, event: DirEvent) -> Option<StateKind> {
        self.transitions
            .iter()
            .find(|t| t.from == from && t.event == event)
            .map(|t| t.to)
    }
}

/// Extracts the abstract transition table from the real [`Directory`] by
/// constructing one representative concrete state per [`StateKind`] and
/// applying every [`DirEvent`] to it.
pub fn extract_directory_table() -> TransitionTable {
    let addr = LineAddr(0x40);
    let mut transitions = Vec::new();
    for from in StateKind::ALL {
        for event in DirEvent::ALL {
            let mut dir = directory_in(from, addr);
            apply(&mut dir, addr, event);
            transitions.push(Transition {
                from,
                event,
                to: dir.state(addr).kind(),
            });
        }
    }
    TransitionTable { transitions }
}

/// A directory holding `addr` in a representative concrete state of
/// `kind`: core 0 is the owner where one exists, core 1 a sharer.
fn directory_in(kind: StateKind, addr: LineAddr) -> Directory {
    let mut dir = Directory::new();
    match kind {
        StateKind::Uncached => {}
        StateKind::Shared => {
            let _ = dir.read(addr, 0);
            let _ = dir.read(addr, 1);
        }
        StateKind::Owned => {
            let _ = dir.write(addr, 0);
            let _ = dir.read(addr, 1);
        }
    }
    debug_assert_eq!(dir.state(addr).kind(), kind);
    dir
}

/// Applies one event to the representative state: reads and writes come
/// from a third core (2), writebacks from the owner (0), and drops from
/// the sharer (1).
fn apply(dir: &mut Directory, addr: LineAddr, event: DirEvent) {
    match event {
        DirEvent::Read => {
            let _ = dir.read(addr, 2);
        }
        DirEvent::Write => {
            let _ = dir.write(addr, 2);
        }
        DirEvent::Writeback => dir.writeback(addr, 0),
        DirEvent::DropSharer => dir.drop_sharer(addr, 1),
        DirEvent::Recall => {
            let _ = dir.recall(addr);
        }
    }
}

/// Findings of one protocol analysis.
#[derive(Debug, Clone, Default)]
pub struct ProtocolReport {
    /// (state, event) pairs the table does not handle.
    pub missing: Vec<(StateKind, DirEvent)>,
    /// Abstract states no event sequence from `Uncached` can reach.
    pub unreachable: Vec<StateKind>,
}

impl ProtocolReport {
    /// True when the table is total and every state is reachable.
    pub fn is_complete(&self) -> bool {
        self.missing.is_empty() && self.unreachable.is_empty()
    }
}

/// Checks a transition table for totality over (state × event) and for
/// reachability of every abstract state from `Uncached`.
pub fn check_table(table: &TransitionTable) -> ProtocolReport {
    let mut report = ProtocolReport::default();
    for from in StateKind::ALL {
        for event in DirEvent::ALL {
            if table.lookup(from, event).is_none() {
                report.missing.push((from, event));
            }
        }
    }
    let mut reached = vec![StateKind::Uncached];
    let mut frontier = vec![StateKind::Uncached];
    while let Some(state) = frontier.pop() {
        for event in DirEvent::ALL {
            if let Some(next) = table.lookup(state, event) {
                if !reached.contains(&next) {
                    reached.push(next);
                    frontier.push(next);
                }
            }
        }
    }
    for state in StateKind::ALL {
        if !reached.contains(&state) {
            report.unreachable.push(state);
        }
    }
    report
}

/// Checks the [`Msg`] tag encoding: every [`Op`] must survive an
/// encode/decode roundtrip, and tag codes beyond the enum must be
/// rejected by [`Msg::try_decode`]. Returns one message per violation.
pub fn check_ops() -> Vec<String> {
    let mut errors = Vec::new();
    for op in Op::ALL {
        let msg = Msg::new(op, 5, 0x1234);
        match Msg::try_decode(msg.encode()) {
            Some(decoded) if decoded == msg => {}
            other => errors.push(format!(
                "{op:?} fails the encode/decode roundtrip: {other:?}"
            )),
        }
    }
    for code in Op::ALL.len() as u64..16 {
        if Msg::try_decode(code).is_some() {
            errors.push(format!("tag code {code} decodes but names no Op"));
        }
    }
    errors
}

// ---------------------------------------------------------------------------
// Message-class composition: op → class stability, VC group layout, and
// the message-dependency argument composed with the CDG results.
// ---------------------------------------------------------------------------

/// The pinned op → virtual-network class table. [`check_message_classes`]
/// compares the live [`Op::class`] against this, so a silent remap of a
/// protocol message onto a different virtual network fails `cargo xtask
/// verify` instead of shipping.
pub fn expected_class(op: Op) -> PacketClass {
    match op {
        Op::ReadReq | Op::WriteReq | Op::MemRead => PacketClass::Request,
        Op::DataToCore | Op::Writeback | Op::MemFill | Op::MemWriteback => PacketClass::Response,
        Op::Invalidate | Op::InvalAck | Op::FwdRead | Op::FwdWrite => PacketClass::Coherence,
    }
}

/// The messages an endpoint may emit as a direct consequence of
/// consuming `op` — the message-dependency edges of the protocol,
/// extracted by inspection of the `handle_message`/`BankRequest`/
/// `BankStore` handlers in `crates/core/src/system.rs`. The `match` is
/// total over [`Op`], so adding a message forces this table (and the
/// deadlock argument below) to be revisited.
pub fn op_triggers(op: Op) -> &'static [Op] {
    match op {
        // Bank request path: hit → data, dirty owner → forward, miss →
        // DRAM; a write additionally invalidates sharers.
        Op::ReadReq => &[Op::DataToCore, Op::FwdRead, Op::MemRead],
        Op::WriteReq => &[Op::DataToCore, Op::FwdWrite, Op::Invalidate, Op::MemRead],
        // A fill that was poisoned by an in-flight invalidation hands
        // its dirty data straight back to the home bank.
        Op::DataToCore => &[Op::Writeback],
        // Storing into the inclusive LLC can evict another line: its
        // cached copies are recalled and a dirty victim goes to DRAM.
        Op::Writeback => &[Op::Invalidate, Op::MemWriteback],
        // A dirty copy acks with the data (as a writeback); clean acks
        // are empty.
        Op::Invalidate => &[Op::Writeback, Op::InvalAck],
        Op::InvalAck => &[],
        // The owner supplies the line cache-to-cache.
        Op::FwdRead => &[Op::DataToCore],
        Op::FwdWrite => &[Op::DataToCore],
        Op::MemRead => &[Op::MemFill],
        // The fill wakes the bank's waiters and can itself evict.
        Op::MemFill => &[Op::DataToCore, Op::Invalidate, Op::MemWriteback],
        Op::MemWriteback => &[],
    }
}

/// The op-level dependency cycles the argument below accepts, as sorted
/// op-name lists. Exactly one exists today: an LLC store evicting a line
/// recalls its copies (`Invalidate`), and a recalled dirty copy answers
/// with a `Writeback`, whose store can evict again. The chain is benign
/// because every edge is *endpoint-consumed*: a delivered packet is
/// drained unconditionally into the event queue (consumption never waits
/// on the ability to inject), so the cycle never manifests as an
/// in-network circular wait — and it terminates because each lap evicts
/// a strictly older LLC resident. A new undocumented cycle fails
/// [`check_message_classes`] until it is argued here.
const DOCUMENTED_CYCLES: &[&[&str]] = &[&["Invalidate", "Writeback"]];

/// Checks the op → class mapping, the VC group layout, and the
/// message-dependency structure, composed with the CDG deadlock results.
/// Returns one message per violation; empty means the composition
/// argument holds:
///
/// 1. [`Op::class`] matches the pinned [`expected_class`] table.
/// 2. Data carriers (`wants_raw_at_destination`) and latency-critical
///    ops ride the Response network, so compression and priority rules
///    see every packet they govern.
/// 3. For the configured VC count (and the standard 2/4/8 sweeps), the
///    per-class [`PacketClass::vc_range`] groups are exactly the CDG's
///    [`class_vc_groups`] partition: Request and Coherence share the
///    lower group, Response owns the upper, nothing overlaps, and the
///    union covers every VC.
/// 4. The op-level message-dependency graph ([`op_triggers`]) contains
///    no cycle beyond `DOCUMENTED_CYCLES`.
/// 5. The CDG analysis itself reports the topology deadlock-free under
///    the config's routing and VC count — together with (3) and (4) this
///    is the full argument: each packet stays inside its class's VC
///    group for its whole route (in-network dependencies cannot cross
///    groups), the CDG proves each group's routing relation acyclic
///    (with the dateline narrowing on wrapped topologies), and every
///    cross-message dependency passes through an endpoint that consumes
///    unconditionally.
pub fn check_message_classes(config: &NocConfig, topo: &Topology) -> Vec<String> {
    let mut errors = Vec::new();

    // 1. Pinned class table.
    for op in Op::ALL {
        if op.class() != expected_class(op) {
            errors.push(format!(
                "{op:?} rides {:?} but the pinned table says {:?}; update expected_class() \
                 and re-derive the deadlock argument if the remap is intended",
                op.class(),
                expected_class(op)
            ));
        }
    }

    // 2. Data carriers and critical ops are Response-class.
    for op in Op::ALL {
        if op.wants_raw_at_destination() && op.class() != PacketClass::Response {
            errors.push(format!(
                "{op:?} carries data but rides {:?}; compression only sees the Response network",
                op.class()
            ));
        }
        if op.is_critical() && op.class() != PacketClass::Response {
            errors.push(format!(
                "{op:?} is latency-critical but rides {:?}; priority rules only govern \
                 the Response network",
                op.class()
            ));
        }
    }

    // 3. VC group layout, for the configured count and the sweep values.
    let mut vc_counts = vec![config.vcs, 2, 4, 8];
    vc_counts.sort_unstable();
    vc_counts.dedup();
    for vcs in vc_counts {
        errors.extend(check_vc_groups(vcs));
    }

    // 4. Only documented op-level dependency cycles.
    for cycle in undocumented_cycles(op_triggers) {
        errors.push(format!(
            "undocumented message-dependency cycle {cycle:?}; either remove the edge or \
             extend DOCUMENTED_CYCLES with an endpoint-consumption argument"
        ));
    }

    // 5. The in-network half of the argument.
    let report = analyze(topo, &CdgOptions::from_config(config));
    if !report.is_deadlock_free() {
        let trace = report.cycle_trace().unwrap_or_default();
        errors.push(format!(
            "CDG reports a routing cycle on {}; the class composition argument needs \
             deadlock-free per-group routing: {trace}",
            topo.name()
        ));
    }

    errors
}

/// Checks that the per-class `vc_range`s form the `class_vc_groups`
/// partition at one VC count.
fn check_vc_groups(vcs: usize) -> Vec<String> {
    let mut errors = Vec::new();
    let groups = class_vc_groups(vcs);
    let req = PacketClass::Request.vc_range(vcs);
    let coh = PacketClass::Coherence.vc_range(vcs);
    let resp = PacketClass::Response.vc_range(vcs);
    if req != coh {
        errors.push(format!(
            "vcs={vcs}: Request ({req:?}) and Coherence ({coh:?}) must share one VC group"
        ));
    }
    for (class, range) in [("Request", &req), ("Response", &resp)] {
        if range.is_empty() {
            errors.push(format!("vcs={vcs}: {class} VC range {range:?} is empty"));
        }
        if !groups.iter().any(|g| g == range) {
            errors.push(format!(
                "vcs={vcs}: {class} range {range:?} is not one of the CDG groups {groups:?}"
            ));
        }
    }
    if vcs > 1 && req.end != resp.start {
        errors.push(format!(
            "vcs={vcs}: Request/Coherence group {req:?} and Response group {resp:?} \
             must tile 0..{vcs} without overlap"
        ));
    }
    if resp.end != vcs || req.start != 0 {
        errors.push(format!(
            "vcs={vcs}: groups {req:?} + {resp:?} do not cover 0..{vcs}"
        ));
    }
    errors
}

/// Non-trivial strongly connected components (and self-loops) of the
/// trigger graph that are not in `DOCUMENTED_CYCLES`, as sorted op-name
/// lists. Exposed with an injectable trigger function so the mutation
/// suite can prove a new cycle is caught.
pub fn undocumented_cycles(triggers: fn(Op) -> &'static [Op]) -> Vec<Vec<String>> {
    let n = Op::ALL.len();
    // Floyd–Warshall reachability over the 11-op graph.
    let mut reach = vec![[false; 16]; n];
    for (i, &op) in Op::ALL.iter().enumerate() {
        for &succ in triggers(op) {
            let j = Op::ALL.iter().position(|&o| o == succ).expect("op in ALL");
            reach[i][j] = true;
        }
    }
    for k in 0..n {
        let via = reach[k];
        for row in reach.iter_mut() {
            if row[k] {
                for (cell, &reachable) in row.iter_mut().zip(via.iter()) {
                    *cell |= reachable;
                }
            }
        }
    }
    // An op is on a cycle iff it reaches itself; ops that reach each
    // other form one SCC.
    let mut cycles: Vec<Vec<String>> = Vec::new();
    let mut claimed = [false; 16];
    for i in 0..n {
        if !reach[i][i] || claimed[i] {
            continue;
        }
        let mut scc = Vec::new();
        for j in 0..n {
            if reach[i][j] && reach[j][i] {
                claimed[j] = true;
                scc.push(format!("{:?}", Op::ALL[j]));
            }
        }
        scc.sort();
        cycles.push(scc);
    }
    cycles.retain(|scc| {
        !DOCUMENTED_CYCLES
            .iter()
            .any(|doc| doc.len() == scc.len() && doc.iter().zip(scc).all(|(a, b)| a == b))
    });
    cycles.sort();
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracted_table_is_total_and_reachable() {
        let table = extract_directory_table();
        assert_eq!(
            table.transitions.len(),
            StateKind::ALL.len() * DirEvent::ALL.len()
        );
        let report = check_table(&table);
        assert!(
            report.is_complete(),
            "missing {:?}, unreachable {:?}",
            report.missing,
            report.unreachable
        );
    }

    #[test]
    fn extracted_transitions_match_moesi() {
        let table = extract_directory_table();
        assert_eq!(
            table.lookup(StateKind::Uncached, DirEvent::Read),
            Some(StateKind::Shared)
        );
        assert_eq!(
            table.lookup(StateKind::Uncached, DirEvent::Write),
            Some(StateKind::Owned)
        );
        assert_eq!(
            table.lookup(StateKind::Shared, DirEvent::Write),
            Some(StateKind::Owned)
        );
        assert_eq!(
            table.lookup(StateKind::Owned, DirEvent::Writeback),
            Some(StateKind::Shared)
        );
        assert_eq!(
            table.lookup(StateKind::Owned, DirEvent::Recall),
            Some(StateKind::Uncached)
        );
    }

    #[test]
    fn incomplete_table_is_rejected() {
        let mut table = extract_directory_table();
        table
            .transitions
            .retain(|t| !(t.from == StateKind::Shared && t.event == DirEvent::Write));
        let report = check_table(&table);
        assert_eq!(report.missing, vec![(StateKind::Shared, DirEvent::Write)]);
        assert!(!report.is_complete());
    }

    #[test]
    fn unreachable_state_is_rejected() {
        // Redirect every transition into Owned elsewhere: Owned becomes
        // unreachable from Uncached even though the table stays total.
        let mut table = extract_directory_table();
        for t in &mut table.transitions {
            if t.to == StateKind::Owned {
                t.to = StateKind::Shared;
            }
        }
        let report = check_table(&table);
        assert!(report.missing.is_empty());
        assert_eq!(report.unreachable, vec![StateKind::Owned]);
    }

    #[test]
    fn op_encoding_is_exhaustive() {
        assert_eq!(check_ops(), Vec::<String>::new());
    }

    #[test]
    fn message_class_composition_holds_on_every_topology() {
        use disco_noc::topology::TopologyChoice;
        for choice in TopologyChoice::ALL {
            let topo = choice.build(4, 4);
            let config = NocConfig {
                vcs: topo.min_vcs().max(NocConfig::default().vcs),
                ..NocConfig::default()
            };
            let errors = check_message_classes(&config, &topo);
            assert_eq!(errors, Vec::<String>::new(), "{choice}");
        }
    }

    #[test]
    fn only_the_recall_cycle_exists() {
        assert_eq!(undocumented_cycles(op_triggers), Vec::<Vec<String>>::new());
    }

    #[test]
    fn new_dependency_cycle_is_caught() {
        // A hypothetical protocol change where a DRAM fill could trigger
        // a fresh read request closes Request → … → Response → Request.
        fn defective(op: Op) -> &'static [Op] {
            match op {
                Op::MemFill => &[
                    Op::DataToCore,
                    Op::Invalidate,
                    Op::MemWriteback,
                    Op::ReadReq,
                ],
                other => op_triggers(other),
            }
        }
        let cycles = undocumented_cycles(defective);
        assert_eq!(cycles.len(), 1, "one new SCC, got {cycles:?}");
        assert!(
            cycles[0].contains(&"MemFill".to_string())
                && cycles[0].contains(&"ReadReq".to_string()),
            "the injected cycle runs through MemFill and ReadReq: {cycles:?}"
        );
    }

    #[test]
    fn vc_groups_partition_at_every_sweep_width() {
        for vcs in [2, 4, 6, 8] {
            assert_eq!(check_vc_groups(vcs), Vec::<String>::new(), "vcs={vcs}");
        }
    }
}
