//! Fixed-capacity, drop-oldest ring buffer of cycle-stamped records.
//!
//! Overflow policy: when full, the **oldest** record is discarded and
//! counted in [`Tracer::dropped`]. Keeping the newest records favours
//! the steady-state window of a run over its warm-up, and keeps the
//! hot-path cost O(1) with no allocation after warm-up. Harnesses that
//! need a lossless stream (the provenance pass, the determinism tests)
//! drain the buffer every cycle, so the capacity never binds there;
//! drops only occur when a raw [`Tracer`] is left to accumulate.

use crate::event::{Event, Record};
use crate::EventList;
use std::collections::VecDeque;

/// Ring capacity (records) of a full-system trace capture, and the most
/// a new tracer reserves up front. Power of two, ≈64 K records.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// Cycle-stamped ring-buffer event collector.
///
/// The current cycle is set once per simulated cycle via
/// [`Tracer::set_cycle`] (from the serial commit path); every record
/// emitted until the next call is stamped with that cycle. The tracer
/// never consults the host clock.
#[derive(Debug, Clone)]
pub struct Tracer {
    buf: VecDeque<Record>,
    capacity: usize,
    cycle: u64,
    emitted: u64,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` records (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            buf: VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY)),
            capacity,
            cycle: 0,
            emitted: 0,
            dropped: 0,
        }
    }

    /// Sets the cycle stamp for subsequently recorded events.
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Always true: a tracer that exists records (sink surface used by
    /// [`crate::emit!`]).
    pub fn is_tracing(&self) -> bool {
        true
    }

    /// Records one event at the current cycle, dropping the oldest
    /// record if the ring is full.
    pub fn trace_record(&mut self, event: Event) {
        self.emitted += 1;
        if self.buf.len() >= self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Record {
            cycle: self.cycle,
            event,
        });
    }

    /// Records a batch of events (e.g. an [`EventList`] carried out of
    /// the compute phase) in order, at the current cycle.
    pub fn record_all(&mut self, events: &EventList) {
        for &ev in events.events() {
            self.trace_record(ev);
        }
    }

    /// Takes all buffered records, preserving the lifetime counters.
    pub fn drain(&mut self) -> Vec<Record> {
        self.buf.drain(..).collect()
    }

    /// Changes the capacity in place, dropping oldest records if the
    /// buffer already exceeds the new bound.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.buf.len() > self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no records are buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including later-dropped ones).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Events discarded by the drop-oldest overflow policy.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(packet: u64) -> Event {
        Event::Eject { packet, node: 0 }
    }

    #[test]
    fn stamps_with_the_set_cycle() {
        let mut t = Tracer::with_capacity(8);
        t.set_cycle(41);
        t.trace_record(ev(1));
        t.set_cycle(42);
        t.trace_record(ev(2));
        let recs = t.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cycle, 41);
        assert_eq!(recs[1].cycle, 42);
        assert!(t.is_empty());
        assert_eq!(t.emitted(), 2);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        let mut t = Tracer::with_capacity(4);
        for p in 0..10 {
            t.trace_record(ev(p));
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.emitted(), 10);
        assert_eq!(t.dropped(), 6);
        let recs = t.drain();
        let kept: Vec<u64> = recs
            .iter()
            .map(|r| match r.event {
                Event::Eject { packet, .. } => packet,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn shrinking_capacity_truncates_from_the_front() {
        let mut t = Tracer::with_capacity(8);
        for p in 0..8 {
            t.trace_record(ev(p));
        }
        t.set_capacity(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 6);
        assert_eq!(t.capacity(), 2);
    }

    #[test]
    fn record_all_preserves_order() {
        let mut t = Tracer::with_capacity(8);
        let mut list = EventList::default();
        list.trace_record(ev(5));
        list.trace_record(ev(6));
        t.record_all(&list);
        let recs = t.drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].event, ev(5));
        assert_eq!(recs[1].event, ev(6));
    }

    #[test]
    fn capacity_is_at_least_one() {
        let mut t = Tracer::with_capacity(0);
        t.trace_record(ev(1));
        assert_eq!(t.len(), 1);
    }
}

disco_snapshot::snap_fields!(Tracer {
    buf,
    capacity,
    cycle,
    emitted,
    dropped,
});
