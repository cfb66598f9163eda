//! Bounded model checking of the coherence protocol over a reordering
//! message substrate.
//!
//! The model composes three actors around one cache line:
//!
//! - the **home directory**, executed by driving the *live*
//!   [`disco_cache::Directory`] — every model transition replays the
//!   abstract directory state onto a real `Directory` and runs the real
//!   `read`/`write`/`writeback`/`recall` code, so the checker verifies
//!   the shipped protocol engine, not a re-implementation;
//! - **N L1 controllers** running small scripted load/store sequences
//!   with MSHR-style pending-miss tracking and the live inval/fill
//!   poisoning rule;
//! - a **reordering substrate**: every in-flight message is deliverable
//!   at any time, so the explorer's interleavings cover all reorderings
//!   the multi-VC NoC could produce.
//!
//! [`crate::explorer::explore`] walks every interleaving up to a bound and
//! checks, in each reachable state: the single-writer invariant, copy
//! accounting, bank freshness (outside the explicitly tracked
//! stale-writeback window), value-domain soundness (no fabricated data),
//! codec roundtrip of every value in flight (through the live
//! [`disco_compress::Codec`]s), and stuck-freedom.
//!
//! Exploring the default configuration flagged two protocol races that
//! were then fixed in the shipped code (see ARCHITECTURE.md "Model
//! checking & symbolic analyses"): the directory dropped the copy of an
//! owner whose re-read overtook its own writeback, and a forwarded
//! write failed to poison the target's in-flight fill.
//!
//! Two places where the model is *stricter* than the shipped simulator
//! (documented in ARCHITECTURE.md): the simulator resolves the
//! forward/own-store race and silent clean-line write hits through its
//! workload value oracle; the model instead defers a forward while its
//! target has a store outstanding and upgrades clean-line writes through
//! a `WriteReq`, so that data values flow only through protocol
//! messages and the invariants above are provable without an oracle.

use crate::explorer::TransitionSystem;
use disco_cache::addr::LineAddr;
use disco_cache::{CohAction, DirState, Directory};
use disco_compress::scheme::Compressor;
use disco_compress::{CacheLine, Codec};
use std::collections::HashMap;
use std::sync::Mutex;

/// The single line the model tracks (any address works; the protocol is
/// per-line).
const ADDR: LineAddr = LineAddr(0x44);

/// Abstract directory state with canonical (sorted) sharer lists.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum MDir {
    /// No core holds the line.
    Uncached,
    /// Clean copies at the listed cores (sorted).
    Shared(Vec<u8>),
    /// A dirty owner plus clean sharers (sorted, owner excluded).
    Owned {
        /// Core with the dirty copy.
        owner: u8,
        /// Other cores with clean copies.
        sharers: Vec<u8>,
    },
}

impl MDir {
    /// The dirty owner, if the directory records one.
    fn owner(&self) -> Option<u8> {
        match self {
            MDir::Owned { owner, .. } => Some(*owner),
            _ => None,
        }
    }

    /// True if the directory accounts `core` as owner or sharer.
    fn accounts(&self, core: u8) -> bool {
        match self {
            MDir::Uncached => false,
            MDir::Shared(s) => s.contains(&core),
            MDir::Owned { owner, sharers } => *owner == core || sharers.contains(&core),
        }
    }

    /// Canonical byte encoding.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MDir::Uncached => out.push(0),
            MDir::Shared(s) => {
                out.push(1);
                out.push(s.len() as u8);
                out.extend_from_slice(s);
            }
            MDir::Owned { owner, sharers } => {
                out.push(2);
                out.push(*owner);
                out.push(sharers.len() as u8);
                out.extend_from_slice(sharers);
            }
        }
    }

    fn from_live(state: &DirState) -> MDir {
        match state {
            DirState::Uncached => MDir::Uncached,
            DirState::Shared(s) => {
                let mut v: Vec<u8> = s.iter().map(|&c| c as u8).collect();
                v.sort_unstable();
                MDir::Shared(v)
            }
            DirState::Owned { owner, sharers } => {
                let mut v: Vec<u8> = sharers.iter().map(|&c| c as u8).collect();
                v.sort_unstable();
                MDir::Owned {
                    owner: *owner as u8,
                    sharers: v,
                }
            }
        }
    }
}

/// A directory action, abstracted from [`CohAction`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MAct {
    /// The bank supplies data to `to`.
    Data {
        /// Requesting core.
        to: u8,
    },
    /// Forward the request to the dirty owner.
    Fwd {
        /// Current owner.
        owner: u8,
        /// Requesting core.
        to: u8,
    },
    /// Invalidate the copy at `core`.
    Inval {
        /// Core losing its copy.
        core: u8,
    },
}

/// The directory protocol engine the model runs against. The production
/// implementation is [`LiveDir`] (the shipped `Directory`); the mutation
/// suite substitutes defective engines to prove the checker has teeth.
pub trait DirEngine: Sync {
    /// A core reads the line.
    fn read(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>);
    /// A core requests ownership to write.
    fn write(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>);
    /// The owner writes the line back.
    fn writeback(&self, dir: &MDir, core: u8) -> MDir;
    /// The bank evicts the line; all copies are recalled.
    fn recall(&self, dir: &MDir) -> (MDir, Vec<MAct>);
}

/// Executes directory transitions on the live [`Directory`]: the
/// abstract state is replayed onto a fresh directory through its public
/// API, the real transition runs, and the resulting state and actions
/// are abstracted back. Memoized — the (state, op) domain is tiny.
#[derive(Default)]
pub struct LiveDir {
    memo: Mutex<HashMap<Vec<u8>, Transition>>,
}

/// A memoized directory transition: next state plus emitted actions.
type Transition = (MDir, Vec<MAct>);

/// Replays `dir` onto a fresh live `Directory` using only public API
/// calls (writes build ownership, reads attach sharers).
fn rebuild(dir: &MDir) -> Directory {
    let mut live = Directory::new();
    match dir {
        MDir::Uncached => {}
        MDir::Shared(sharers) => {
            for &s in sharers {
                live.read(ADDR, s as usize);
            }
        }
        MDir::Owned { owner, sharers } => {
            live.write(ADDR, *owner as usize);
            for &s in sharers {
                live.read(ADDR, s as usize);
            }
        }
    }
    live
}

impl LiveDir {
    /// Runs `op` against the live directory from abstract state `dir`.
    fn step(&self, dir: &MDir, op: u8, core: u8) -> (MDir, Vec<MAct>) {
        let mut key = vec![op, core];
        dir.encode(&mut key);
        if let Ok(memo) = self.memo.lock() {
            if let Some(hit) = memo.get(&key) {
                return hit.clone();
            }
        }
        let mut live = rebuild(dir);
        debug_assert_eq!(&MDir::from_live(&live.state(ADDR)), dir, "replay mismatch");
        let actions = match op {
            0 => live.read(ADDR, core as usize),
            1 => live.write(ADDR, core as usize),
            2 => {
                live.writeback(ADDR, core as usize);
                Vec::new()
            }
            _ => live.recall(ADDR),
        };
        let out_state = MDir::from_live(&live.state(ADDR));
        let out_acts = actions
            .into_iter()
            .map(|a| match a {
                CohAction::DataFromBank { to } => MAct::Data { to: to as u8 },
                CohAction::ForwardToOwner { owner, to } => MAct::Fwd {
                    owner: owner as u8,
                    to: to as u8,
                },
                CohAction::Invalidate { core } => MAct::Inval { core: core as u8 },
            })
            .collect::<Vec<_>>();
        if let Ok(mut memo) = self.memo.lock() {
            memo.insert(key, (out_state.clone(), out_acts.clone()));
        }
        (out_state, out_acts)
    }
}

impl DirEngine for LiveDir {
    fn read(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>) {
        self.step(dir, 0, core)
    }

    fn write(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>) {
        self.step(dir, 1, core)
    }

    fn writeback(&self, dir: &MDir, core: u8) -> MDir {
        self.step(dir, 2, core).0
    }

    fn recall(&self, dir: &MDir) -> (MDir, Vec<MAct>) {
        self.step(dir, 3, 0)
    }
}

/// An in-flight protocol message. `Ord` gives the canonical multiset
/// order the substrate keeps messages in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Mmsg {
    /// Core → directory: read request.
    ReadReq {
        /// Requesting core.
        core: u8,
    },
    /// Core → directory: ownership (write) request.
    WriteReq {
        /// Requesting core.
        core: u8,
    },
    /// Bank/owner → core: the data grant.
    Data {
        /// Destination core.
        to: u8,
        /// Carried line value.
        val: u8,
        /// True for an exclusive (write) grant.
        excl: bool,
    },
    /// Directory → owner: forward the request (FwdRead / FwdWrite).
    Fwd {
        /// The core the directory believes owns the line.
        owner: u8,
        /// The requester awaiting data.
        to: u8,
        /// True for FwdWrite (owner surrenders the line).
        write: bool,
    },
    /// Directory → core: invalidate.
    Inval {
        /// Core losing its copy.
        core: u8,
    },
    /// Core → directory: clean invalidation ack (InvalAck).
    Ack {
        /// Acknowledging core.
        core: u8,
    },
    /// Core → directory: dirty invalidation ack — travels as a
    /// `Writeback` in the live system, data attached.
    AckData {
        /// Acknowledging (former owner) core.
        core: u8,
        /// The dirty value going home.
        val: u8,
    },
    /// Core → directory: dirty L1 eviction writeback.
    Wb {
        /// Evicting core.
        core: u8,
        /// The dirty value going home.
        val: u8,
    },
}

impl Mmsg {
    /// True if this message carries a dirty value travelling home.
    fn dirty_home(&self) -> Option<u8> {
        match self {
            Mmsg::AckData { val, .. } | Mmsg::Wb { val, .. } => Some(*val),
            _ => None,
        }
    }

    /// The data value carried, if any.
    fn value(&self) -> Option<u8> {
        match self {
            Mmsg::Data { val, .. } | Mmsg::AckData { val, .. } | Mmsg::Wb { val, .. } => Some(*val),
            _ => None,
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            Mmsg::ReadReq { core } => out.extend_from_slice(&[0, core, 0, 0]),
            Mmsg::WriteReq { core } => out.extend_from_slice(&[1, core, 0, 0]),
            Mmsg::Data { to, val, excl } => out.extend_from_slice(&[2, to, val, excl as u8]),
            Mmsg::Fwd { owner, to, write } => out.extend_from_slice(&[3, owner, to, write as u8]),
            Mmsg::Inval { core } => out.extend_from_slice(&[4, core, 0, 0]),
            Mmsg::Ack { core } => out.extend_from_slice(&[5, core, 0, 0]),
            Mmsg::AckData { core, val } => out.extend_from_slice(&[6, core, val, 0]),
            Mmsg::Wb { core, val } => out.extend_from_slice(&[7, core, val, 0]),
        }
    }

    fn label(&self) -> String {
        match *self {
            Mmsg::ReadReq { core } => format!("deliver ReadReq(core={core}) -> dir"),
            Mmsg::WriteReq { core } => format!("deliver WriteReq(core={core}) -> dir"),
            Mmsg::Data { to, val, excl } => {
                let kind = if excl { "excl" } else { "shared" };
                format!("deliver Data(val={val}, {kind}) -> core{to}")
            }
            Mmsg::Fwd { owner, to, write } => {
                let kind = if write { "FwdWrite" } else { "FwdRead" };
                format!("deliver {kind}(for core{to}) -> core{owner}")
            }
            Mmsg::Inval { core } => format!("deliver Inval -> core{core}"),
            Mmsg::Ack { core } => format!("deliver InvalAck(core={core}) -> dir"),
            Mmsg::AckData { core, val } => {
                format!("deliver dirty InvalAck(core={core}, val={val}) -> dir")
            }
            Mmsg::Wb { core, val } => format!("deliver Writeback(core={core}, val={val}) -> dir"),
        }
    }
}

/// One L1 line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Line {
    /// Invalid.
    I,
    /// Clean copy with value.
    C(u8),
    /// Dirty copy with value.
    D(u8),
}

/// An outstanding miss (MSHR entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    /// True for a store miss.
    write: bool,
    /// The value the store will commit (0 for loads).
    val: u8,
    /// Set when an invalidation raced the miss: the fill completes the
    /// access but must not be cached (the live poisoning rule).
    poisoned: bool,
}

/// One core's model state.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CoreSt {
    line: Line,
    pending: Option<Pending>,
    /// Next script op index.
    cursor: u8,
}

/// The full model state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MState {
    cores: Vec<CoreSt>,
    dir: MDir,
    /// The home bank's copy of the line.
    bank_val: u8,
    /// Set while the bank holds a value older than one it already held:
    /// the stale-writeback window (a late writeback from a deposed owner
    /// clobbering a newer one). Freshness is proven outside this window.
    bank_stale: bool,
    /// Every committed store value, in commit order. The last entry is
    /// the globally newest value; values are unique by construction.
    committed: Vec<u8>,
    /// In-flight messages, kept sorted (canonical multiset).
    msgs: Vec<Mmsg>,
    /// Remaining dirty-eviction / clean-drop / bank-recall env actions.
    wb_budget: u8,
    drop_budget: u8,
    recall_budget: u8,
}

impl MState {
    fn committed_val(&self) -> u8 {
        self.committed.last().copied().unwrap_or(0)
    }

    /// Commit-order epoch of a value: position in `committed`, or 0 for
    /// the initial value.
    fn epoch(&self, val: u8) -> usize {
        self.committed
            .iter()
            .position(|&v| v == val)
            .map(|p| p + 1)
            .unwrap_or(0)
    }

    fn push_msg(&mut self, m: Mmsg) {
        self.msgs.push(m);
        self.msgs.sort_unstable();
    }

    /// A dirty value (in an L1 or a homeward message) still outruns the
    /// bank, or the obligation to produce one is in transit: a core with
    /// a pending write always ends up either Dirty or (when poisoned)
    /// sending its store home, so freshness cannot be demanded until
    /// that write resolves. Cache-to-cache `FwdWrite` surrenders rely on
    /// this arm — the old owner's value rides a `Data` message to the
    /// next writer, dirty without being spelled `Wb`.
    fn dirty_outstanding(&self) -> bool {
        self.cores
            .iter()
            .any(|c| matches!(c.line, Line::D(_)) || c.pending.is_some_and(|p| p.write))
            || self.msgs.iter().any(|m| m.dirty_home().is_some())
    }

    /// Delivers a dirty value home: live `Op::Writeback` handling — the
    /// (stale-guarded) directory demotion happens at the caller; the bank
    /// insert is unconditional, which is what opens the stale window.
    fn bank_accept(&mut self, val: u8) {
        let incoming = self.epoch(val);
        let current = self.epoch(self.bank_val);
        self.bank_stale = incoming < current;
        self.bank_val = val;
    }
}

/// One scripted memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Load the line.
    Read,
    /// Store to the line.
    Write,
}

/// A protocol action (the resolution of one `enabled` label).
#[derive(Debug, Clone)]
enum Action {
    Issue { core: u8 },
    Deliver { idx: usize },
    EvictDirty { core: u8 },
    DropClean { core: u8 },
    Recall,
}

/// The protocol model: directory engine + per-core scripts + env-action
/// budgets. See the module docs for semantics.
pub struct ProtocolModel<E: DirEngine> {
    engine: E,
    scripts: Vec<Vec<ScriptOp>>,
    wb_budget: u8,
    drop_budget: u8,
    recall_budget: u8,
    /// Memoized codec-roundtrip verdicts per value.
    codec_memo: Mutex<HashMap<u8, Option<String>>>,
}

impl<E: DirEngine> ProtocolModel<E> {
    /// A model over `engine` with the given per-core scripts.
    pub fn new(engine: E, scripts: Vec<Vec<ScriptOp>>) -> Self {
        Self {
            engine,
            scripts,
            wb_budget: 1,
            drop_budget: 1,
            recall_budget: 1,
            codec_memo: Mutex::new(HashMap::new()),
        }
    }

    /// The default checking configuration: three cores — two writers
    /// that then read back, one two-time reader — with one dirty
    /// eviction, one clean drop, and one bank recall available to the
    /// environment. This is the configuration `cargo xtask verify`
    /// explores exhaustively.
    pub fn default_config(engine: E) -> Self {
        Self::new(
            engine,
            vec![
                vec![ScriptOp::Write, ScriptOp::Read],
                vec![ScriptOp::Write, ScriptOp::Read],
                vec![ScriptOp::Read, ScriptOp::Read],
            ],
        )
    }

    fn cores(&self) -> u8 {
        self.scripts.len() as u8
    }

    /// The unique value core `core`'s script op `cursor` would store.
    fn store_value(core: u8, cursor: u8) -> u8 {
        16 * core + cursor + 1
    }

    /// The enabled actions of `s` with their labels, in canonical order:
    /// script issues by core, deliveries by message order, env actions.
    fn actions(&self, s: &MState) -> Vec<(Action, String)> {
        let mut out = Vec::new();
        for (i, core) in s.cores.iter().enumerate() {
            let c = i as u8;
            if core.pending.is_some() {
                continue;
            }
            if let Some(op) = self.scripts[i].get(core.cursor as usize) {
                let label = match op {
                    ScriptOp::Read => format!("core{c}: issue read"),
                    ScriptOp::Write => {
                        format!(
                            "core{c}: issue write(val={})",
                            Self::store_value(c, core.cursor)
                        )
                    }
                };
                out.push((Action::Issue { core: c }, label));
            }
        }
        for (idx, m) in s.msgs.iter().enumerate() {
            // A forward is deferred while its target's own store is
            // outstanding (see module docs).
            if let Mmsg::Fwd { owner, .. } = m {
                let target = &s.cores[*owner as usize];
                if target.pending.is_some_and(|p| p.write) {
                    continue;
                }
            }
            out.push((Action::Deliver { idx }, m.label()));
        }
        for (i, core) in s.cores.iter().enumerate() {
            let c = i as u8;
            match core.line {
                Line::D(_) if s.wb_budget > 0 => {
                    out.push((
                        Action::EvictDirty { core: c },
                        format!("core{c}: evict dirty"),
                    ));
                }
                Line::C(_) if s.drop_budget > 0 => {
                    out.push((
                        Action::DropClean { core: c },
                        format!("core{c}: drop clean"),
                    ));
                }
                _ => {}
            }
        }
        if s.recall_budget > 0 && s.dir != MDir::Uncached {
            out.push((Action::Recall, "bank: recall line".to_string()));
        }
        out
    }

    /// Emits the messages for a batch of directory actions produced by a
    /// request from `requester` (`write` = ownership request).
    fn emit(&self, s: &mut MState, acts: &[MAct], write: bool) {
        for a in acts {
            match *a {
                MAct::Data { to } => s.push_msg(Mmsg::Data {
                    to,
                    val: s.bank_val,
                    excl: write,
                }),
                MAct::Fwd { owner, to } => s.push_msg(Mmsg::Fwd { owner, to, write }),
                MAct::Inval { core } => s.push_msg(Mmsg::Inval { core }),
            }
        }
    }

    fn do_issue(&self, s: &mut MState, c: u8) {
        let cursor = s.cores[c as usize].cursor;
        let op = self.scripts[c as usize][cursor as usize];
        s.cores[c as usize].cursor += 1;
        match (op, s.cores[c as usize].line) {
            (ScriptOp::Read, Line::C(_) | Line::D(_)) => {
                // Load hit: no traffic.
            }
            (ScriptOp::Read, Line::I) => {
                s.cores[c as usize].pending = Some(Pending {
                    write: false,
                    val: 0,
                    poisoned: false,
                });
                s.push_msg(Mmsg::ReadReq { core: c });
            }
            (ScriptOp::Write, Line::D(_)) => {
                // Store hit on an exclusive dirty line: commits locally,
                // no traffic (the owner already holds write permission).
                let val = Self::store_value(c, cursor);
                s.committed.push(val);
                s.cores[c as usize].line = Line::D(val);
            }
            (ScriptOp::Write, Line::C(_) | Line::I) => {
                // Store miss or upgrade: request ownership. (The shipped
                // L1 writes clean hits in place; the model upgrades so
                // sharers are invalidated through the protocol.)
                s.cores[c as usize].pending = Some(Pending {
                    write: true,
                    val: Self::store_value(c, cursor),
                    poisoned: false,
                });
                s.push_msg(Mmsg::WriteReq { core: c });
            }
        }
    }

    fn do_deliver(&self, s: &mut MState, idx: usize) {
        let m = s.msgs.remove(idx);
        match m {
            Mmsg::ReadReq { core } => {
                let (dir, acts) = self.engine.read(&s.dir, core);
                s.dir = dir;
                self.emit(s, &acts, false);
            }
            Mmsg::WriteReq { core } => {
                let (dir, acts) = self.engine.write(&s.dir, core);
                s.dir = dir;
                self.emit(s, &acts, true);
            }
            Mmsg::Data { to, val, excl } => {
                let Some(p) = s.cores[to as usize].pending.take() else {
                    // No outstanding miss for this grant: an engine bug;
                    // cache it anyway so value-domain checks can see it.
                    s.cores[to as usize].line = Line::C(val);
                    return;
                };
                if p.write {
                    debug_assert!(excl, "store miss granted a shared copy");
                    s.committed.push(p.val);
                    if p.poisoned {
                        // Invalidated while the miss was in flight: the
                        // store still completes (the core consumes the
                        // fill once) but the line is not cached — the
                        // dirty data goes straight home.
                        s.cores[to as usize].line = Line::I;
                        s.push_msg(Mmsg::Wb {
                            core: to,
                            val: p.val,
                        });
                    } else {
                        s.cores[to as usize].line = Line::D(p.val);
                    }
                } else if p.poisoned {
                    s.cores[to as usize].line = Line::I;
                } else {
                    s.cores[to as usize].line = Line::C(val);
                }
            }
            Mmsg::Fwd { owner, to, write } => {
                // A write-forward revokes the old owner's copy — also a
                // copy still in flight to it: poison its pending read so
                // the fill is consumed but not cached (deliveries are
                // deferred only while the target's own *store* is
                // outstanding). Mirrors the live FwdWrite handler.
                if write {
                    if let Some(p) = s.cores[owner as usize].pending.as_mut() {
                        p.poisoned = true;
                    }
                }
                let val = match s.cores[owner as usize].line {
                    Line::D(v) => {
                        if write {
                            s.cores[owner as usize].line = Line::I;
                        }
                        v
                    }
                    // The owner's copy raced away (writeback/inval in
                    // flight): serve the newest committed value, as the
                    // live system's fallback does.
                    Line::C(v) => {
                        if write {
                            s.cores[owner as usize].line = Line::I;
                        }
                        v
                    }
                    Line::I => s.committed_val(),
                };
                s.push_msg(Mmsg::Data {
                    to,
                    val,
                    excl: write,
                });
            }
            Mmsg::Inval { core } => {
                let c = &mut s.cores[core as usize];
                if let Some(p) = c.pending.as_mut() {
                    p.poisoned = true;
                }
                match c.line {
                    Line::D(v) => {
                        c.line = Line::I;
                        s.push_msg(Mmsg::AckData { core, val: v });
                    }
                    Line::C(_) | Line::I => {
                        c.line = Line::I;
                        s.push_msg(Mmsg::Ack { core });
                    }
                }
            }
            Mmsg::Ack { .. } => {
                // The protocol is ack-free: the directory transitioned
                // when it sent the invalidation; the clean ack is sunk.
            }
            Mmsg::AckData { core, val } | Mmsg::Wb { core, val } => {
                s.dir = self.engine.writeback(&s.dir, core);
                s.bank_accept(val);
            }
        }
    }

    fn do_env(&self, s: &mut MState, action: &Action) {
        match action {
            Action::EvictDirty { core } => {
                let Line::D(v) = s.cores[*core as usize].line else {
                    return;
                };
                s.cores[*core as usize].line = Line::I;
                s.wb_budget -= 1;
                s.push_msg(Mmsg::Wb {
                    core: *core,
                    val: v,
                });
            }
            Action::DropClean { core } => {
                // The live system drops clean lines silently (it never
                // calls drop_sharer), so neither does the model.
                s.cores[*core as usize].line = Line::I;
                s.drop_budget -= 1;
            }
            Action::Recall => {
                let (dir, acts) = self.engine.recall(&s.dir);
                s.dir = dir;
                s.recall_budget -= 1;
                self.emit(s, &acts, false);
            }
            _ => {}
        }
    }

    /// The codec-roundtrip invariant: every value the protocol moves
    /// must survive compress/decompress through the live codecs (the
    /// model's abstraction of DISCO's in-network compression of Response
    /// packets). Memoized per value.
    fn codec_roundtrip(&self, val: u8) -> Option<String> {
        if let Ok(memo) = self.codec_memo.lock() {
            if let Some(hit) = memo.get(&val) {
                return hit.clone();
            }
        }
        let line = line_pattern(val);
        let mut verdict = None;
        for codec in [Codec::delta(), Codec::fpc(), Codec::bdi()] {
            let enc = codec.compress(&line);
            match codec.decompress(&enc) {
                Ok(back) if back == line => {}
                Ok(_) => {
                    verdict = Some(format!("codec roundtrip corrupted value {val}"));
                    break;
                }
                Err(e) => {
                    verdict = Some(format!("codec failed to decompress value {val}: {e:?}"));
                    break;
                }
            }
        }
        if let Ok(mut memo) = self.codec_memo.lock() {
            memo.insert(val, verdict.clone());
        }
        verdict
    }
}

/// A deterministic 64 B line whose words are derived from the model
/// value — exercises the delta/FPC/BDI encoders on non-trivial content.
fn line_pattern(val: u8) -> CacheLine {
    let v = val as u64;
    let mut words = [0u64; 8];
    for (i, w) in words.iter_mut().enumerate() {
        *w = v.wrapping_mul(0x0101).wrapping_add((i as u64) * 4);
    }
    CacheLine::from_u64_words(words)
}

impl<E: DirEngine> TransitionSystem for ProtocolModel<E> {
    type State = MState;

    fn initial(&self) -> Vec<MState> {
        vec![MState {
            cores: (0..self.cores())
                .map(|_| CoreSt {
                    line: Line::I,
                    pending: None,
                    cursor: 0,
                })
                .collect(),
            dir: MDir::Uncached,
            bank_val: 0,
            bank_stale: false,
            committed: Vec::new(),
            msgs: Vec::new(),
            wb_budget: self.wb_budget,
            drop_budget: self.drop_budget,
            recall_budget: self.recall_budget,
        }]
    }

    fn enabled(&self, s: &MState) -> Vec<String> {
        self.actions(s).into_iter().map(|(_, l)| l).collect()
    }

    fn apply(&self, s: &MState, i: usize) -> MState {
        let mut next = s.clone();
        let (action, _) = self.actions(s).swap_remove(i);
        match action {
            Action::Issue { core } => self.do_issue(&mut next, core),
            Action::Deliver { idx } => self.do_deliver(&mut next, idx),
            env => self.do_env(&mut next, &env),
        }
        next
    }

    fn check(&self, s: &MState) -> Vec<String> {
        let mut violations = Vec::new();
        // I1a: single writer — at most one *live* dirty copy. A dirty
        // core targeted by an in-flight invalidation is a zombie owner:
        // a bank recall already revoked it (the protocol is ack-free, so
        // the old owner learns late) and the directory may re-grant the
        // line before the revocation lands. Its copy is a pending
        // writeback, not a writer.
        let dirty: Vec<u8> = s
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| matches!(c.line, Line::D(_)))
            .map(|(i, _)| i as u8)
            .collect();
        let live_dirty: Vec<u8> = dirty
            .iter()
            .copied()
            .filter(|&d| {
                !s.msgs
                    .iter()
                    .any(|m| matches!(m, Mmsg::Inval { core } if *core == d))
            })
            .collect();
        if live_dirty.len() > 1 {
            violations.push(format!(
                "single-writer violated: cores {live_dirty:?} hold live dirty copies \
                 simultaneously (no invalidation in flight for either)"
            ));
        }
        // I1b: a dirty copy is known to the directory as the owner, or a
        // forward/invalidation that will resolve it is still in flight.
        for &d in &dirty {
            let resolving = s.msgs.iter().any(|m| {
                matches!(m, Mmsg::Fwd { owner, .. } if *owner == d)
                    || matches!(m, Mmsg::Inval { core } if *core == d)
            });
            if s.dir.owner() != Some(d) && !resolving {
                violations.push(format!(
                    "dirty copy at core{d} unknown to the directory (owner: {:?}) \
                     with nothing in flight to resolve it",
                    s.dir.owner()
                ));
            }
        }
        // I5: copy accounting — every cached copy is directory-accounted
        // or an invalidation/forward for it is in flight.
        for (i, core) in s.cores.iter().enumerate() {
            let c = i as u8;
            if matches!(core.line, Line::I) {
                continue;
            }
            let covered = s.dir.accounts(c)
                || s.msgs.iter().any(|m| {
                    matches!(m, Mmsg::Inval { core } if *core == c)
                        || matches!(m, Mmsg::Fwd { owner, .. } if *owner == c)
                });
            if !covered {
                violations.push(format!(
                    "core{c} holds a copy the directory does not account for"
                ));
            }
        }
        // Value-domain soundness: every value in a cache, the bank, or a
        // message was actually committed by some store (or is initial).
        let in_domain = |v: u8| v == 0 || s.committed.contains(&v);
        for (i, core) in s.cores.iter().enumerate() {
            if let Line::C(v) | Line::D(v) = core.line {
                if !in_domain(v) {
                    violations.push(format!("core{i} caches fabricated value {v}"));
                }
            }
        }
        if !in_domain(s.bank_val) {
            violations.push(format!("bank holds fabricated value {}", s.bank_val));
        }
        for m in &s.msgs {
            if let Some(v) = m.value() {
                if !in_domain(v) {
                    violations.push(format!("in-flight message carries fabricated value {v}"));
                }
            }
        }
        // Freshness: once no dirty value is outstanding, the bank holds
        // the newest committed value — except inside the explicitly
        // tracked stale-writeback window.
        if !s.dirty_outstanding() && !s.bank_stale && s.bank_val != s.committed_val() {
            violations.push(format!(
                "bank is stale: holds {} but newest committed value is {} \
                 with no dirty data outstanding",
                s.bank_val,
                s.committed_val()
            ));
        }
        // Codec transparency for every live value.
        let mut vals: Vec<u8> = s
            .cores
            .iter()
            .filter_map(|c| match c.line {
                Line::C(v) | Line::D(v) => Some(v),
                Line::I => None,
            })
            .chain(s.msgs.iter().filter_map(Mmsg::value))
            .chain([s.bank_val])
            .collect();
        vals.sort_unstable();
        vals.dedup();
        for v in vals {
            if let Some(msg) = self.codec_roundtrip(v) {
                violations.push(msg);
            }
        }
        violations
    }

    fn quiescent(&self, s: &MState) -> bool {
        s.msgs.is_empty() && s.cores.iter().all(|c| c.pending.is_none())
    }

    fn encode(&self, s: &MState) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        for core in &s.cores {
            match core.line {
                Line::I => out.extend_from_slice(&[0, 0]),
                Line::C(v) => out.extend_from_slice(&[1, v]),
                Line::D(v) => out.extend_from_slice(&[2, v]),
            }
            match core.pending {
                None => out.extend_from_slice(&[0, 0, 0]),
                Some(p) => out.extend_from_slice(&[1 + p.write as u8, p.val, p.poisoned as u8]),
            }
            out.push(core.cursor);
        }
        s.dir.encode(&mut out);
        out.push(s.bank_val);
        out.push(s.bank_stale as u8);
        out.push(s.committed.len() as u8);
        out.extend_from_slice(&s.committed);
        out.push(s.msgs.len() as u8);
        for m in &s.msgs {
            m.encode(&mut out);
        }
        out.extend_from_slice(&[s.wb_budget, s.drop_budget, s.recall_budget]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, ExploreOptions};

    #[test]
    fn live_dir_roundtrips_states() {
        let e = LiveDir::default();
        let (d, acts) = e.read(&MDir::Uncached, 1);
        assert_eq!(d, MDir::Shared(vec![1]));
        assert_eq!(acts, vec![MAct::Data { to: 1 }]);
        let (d, acts) = e.write(&d, 2);
        assert_eq!(
            d,
            MDir::Owned {
                owner: 2,
                sharers: vec![]
            }
        );
        assert_eq!(acts, vec![MAct::Inval { core: 1 }, MAct::Data { to: 2 }]);
        let (d, acts) = e.read(&d, 0);
        assert_eq!(
            d,
            MDir::Owned {
                owner: 2,
                sharers: vec![0]
            }
        );
        assert_eq!(acts, vec![MAct::Fwd { owner: 2, to: 0 }]);
        let d = e.writeback(&d, 2);
        assert_eq!(d, MDir::Shared(vec![0]));
    }

    #[test]
    fn small_model_is_clean_and_quiescable() {
        // Two cores, one writer: every interleaving settles coherently.
        let model = ProtocolModel::new(
            LiveDir::default(),
            vec![vec![ScriptOp::Write], vec![ScriptOp::Read]],
        );
        let report = explore(&model, &ExploreOptions::default());
        assert!(report.clean(), "{:?}", report.violations);
        assert!(!report.truncated);
        assert!(report.states > 50, "space too small: {}", report.states);
    }

    #[test]
    fn default_config_reaches_multiple_sharers() {
        // The default configuration must exercise ≥ 2 simultaneous
        // sharers (the acceptance bound): after both writers finish,
        // their read-backs plus the reader can overlap as sharers.
        let model = ProtocolModel::default_config(LiveDir::default());
        let s0 = &model.initial()[0];
        // Drive a concrete schedule: writer 0 completes, then all three
        // cores read.
        let mut s = s0.clone();
        let step = |model: &ProtocolModel<LiveDir>, s: &MState, label: &str| -> MState {
            let labels = model.enabled(s);
            let i = labels
                .iter()
                .position(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("no action starting with {label}: {labels:?}"));
            model.apply(s, i)
        };
        s = step(&model, &s, "core0: issue write");
        s = step(&model, &s, "deliver WriteReq(core=0)");
        s = step(&model, &s, "deliver Data(val=0, excl) -> core0");
        s = step(&model, &s, "core0: evict dirty");
        s = step(&model, &s, "deliver Writeback(core=0");
        s = step(&model, &s, "core0: issue read");
        s = step(&model, &s, "core2: issue read");
        s = step(&model, &s, "deliver ReadReq(core=0)");
        s = step(&model, &s, "deliver ReadReq(core=2)");
        assert_eq!(s.dir, MDir::Shared(vec![0, 2]), "two sharers reached");
    }

    /// A defective engine that "forgets" to invalidate sharers on a
    /// write — the illegal-MOESI-edge mutation the checker must catch.
    struct NoInvalOnWrite(LiveDir);

    impl DirEngine for NoInvalOnWrite {
        fn read(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>) {
            self.0.read(dir, core)
        }

        fn write(&self, dir: &MDir, core: u8) -> (MDir, Vec<MAct>) {
            let (d, acts) = self.0.write(dir, core);
            (
                d,
                acts.into_iter()
                    .filter(|a| !matches!(a, MAct::Inval { .. }))
                    .collect(),
            )
        }

        fn writeback(&self, dir: &MDir, core: u8) -> MDir {
            self.0.writeback(dir, core)
        }

        fn recall(&self, dir: &MDir) -> (MDir, Vec<MAct>) {
            self.0.recall(dir)
        }
    }

    #[test]
    fn missing_invalidation_is_caught_with_schedule() {
        let model = ProtocolModel::default_config(NoInvalOnWrite(LiveDir::default()));
        let report = explore(&model, &ExploreOptions::default());
        assert!(
            !report.clean(),
            "a write that skips invalidations must break an invariant"
        );
        let v = &report.violations[0];
        assert!(!v.schedule.is_empty(), "counterexample is replayable");
    }
}

#[cfg(test)]
mod probe {
    use super::*;
    use crate::explorer::{explore, ExploreOptions};

    #[test]
    #[ignore = "state-count probe; run with --release -- --ignored --nocapture"]
    fn probe_default_state_count() {
        let model = ProtocolModel::default_config(LiveDir::default());
        let opts = ExploreOptions {
            workers: 4,
            ..ExploreOptions::default()
        };
        let report = explore(&model, &opts);
        println!(
            "default_config: {} states, {} transitions, depth {}, truncated={}, violations={}",
            report.states,
            report.transitions,
            report.max_depth_reached,
            report.truncated,
            report.violations.len()
        );
        println!("{}", report.render("model"));
    }
}
