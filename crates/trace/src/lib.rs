#![warn(missing_docs)]

//! Deterministic event tracing and latency provenance for the DISCO
//! simulator.
//!
//! Three layers, each usable on its own:
//!
//! 1. **Events** ([`Event`], [`Record`]): typed, all-integer descriptions
//!    of packet lifecycle milestones (inject/eject), per-hop router
//!    pipeline actions (RC/VA/SA/ST), VC stalls with a reason code,
//!    codec engine start/finish, and L2/DRAM access boundaries. Every
//!    record is stamped with the *simulated* cycle — never wall-clock —
//!    so a trace is a pure function of the simulation seed.
//! 2. **Collection** ([`Tracer`], [`emit!`]): a fixed-capacity
//!    drop-oldest ring buffer. Emission sites go through the [`emit!`]
//!    macro, which builds an event only when its sink is tracing — with
//!    tracing off an emission site is one branch, and the simulation is
//!    byte-identical to a traced run.
//! 3. **Analysis** ([`provenance::ProvenanceAnalyzer`], [`export`]):
//!    a provenance pass decomposing each packet's end-to-end latency
//!    into {serialization, link, queuing, codec, protocol} cycles that
//!    sum *exactly* to the measured latency, plus the paper's
//!    hidden-latency coverage (codec cycles overlapped with queuing),
//!    and exporters to JSONL and Chrome/Perfetto `trace.json`.
//!
//! Determinism contract: events must be recorded from node-ordered code
//! (the commit phase of the cycle kernel), and every field is an
//! integer derived from simulation state. Under that contract the
//! exported JSONL is byte-identical across runs and hosts.

pub mod event;
pub mod export;
pub mod provenance;
pub mod ring;

pub use event::{codec, site, stall, Event, Record};
pub use provenance::{PacketProvenance, ProvenanceAnalyzer, ProvenanceReport, ProvenanceTotals};
pub use ring::{Tracer, DEFAULT_CAPACITY};

/// Records an event into `$sink` — only when the sink is tracing.
///
/// `$sink` is any value with `is_tracing()` and `trace_record(Event)`
/// methods (a [`Tracer`], an [`EventList`], or a wrapper forwarding to
/// one, such as the NoC's `Network`). The event expression is evaluated
/// only after `is_tracing()` returned true, so a sink that is not
/// tracing costs one branch and never builds the event.
#[macro_export]
macro_rules! emit {
    ($sink:expr, $ev:expr) => {{
        if $sink.is_tracing() {
            $sink.trace_record($ev);
        }
    }};
}

/// An ordered, growable list of events with the same `trace_record`
/// surface as [`Tracer`], for carrying events out of the pure compute
/// phase (e.g. on `RouterOutcome`) to be cycle-stamped at commit time.
///
/// A list records only while tracing is switched on
/// ([`EventList::set_tracing`]); it starts off, so an untraced list
/// stays empty and never allocates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventList {
    events: Vec<Event>,
    tracing: bool,
}

impl EventList {
    /// Switches recording on or off. Buffered events are kept.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// True while [`emit!`] records into this list.
    pub fn is_tracing(&self) -> bool {
        self.tracing
    }

    /// Appends one event (sink surface used by [`emit!`]).
    pub fn trace_record(&mut self, event: Event) {
        self.events.push(event);
    }

    /// The buffered events, in record order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drops the buffered events, keeping the allocation.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Takes the buffered events, leaving the list empty.
    pub fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}
