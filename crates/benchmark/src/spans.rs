//! In-memory spans around the benchmark's calls into each layer, and
//! the self-time computation over them.
//!
//! Spans are recorded from outside the simulator: each one wraps a call
//! the benchmark makes into a public function of a workspace crate. A
//! traced trial is one root span whose children are those calls; the
//! root's self time is the benchmark's own glue between them.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, named `module.call` (e.g. `noc.tick`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one trial.
    pub run: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans for traced trials; does nothing (and reads no clock)
/// when disabled.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    root: Option<usize>,
    run: u32,
}

/// Name of the root span of a trial.
pub const TRIAL: &str = "trial";

impl Recorder {
    /// A recorder; `enabled = false` makes every call a plain pass-through.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            root: None,
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens the root span of trial `run`.
    pub fn begin_trial(&mut self, run: u32) {
        if !self.enabled {
            return;
        }
        let start = self.now_ns();
        self.run = run;
        self.root = Some(self.spans.len());
        self.spans.push(Span {
            name: TRIAL,
            start_ns: start,
            end_ns: start,
            parent: None,
            run,
        });
    }

    /// Closes the root span opened by [`begin_trial`](Self::begin_trial).
    pub fn end_trial(&mut self) {
        if let Some(root) = self.root.take() {
            self.spans[root].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`, a child of the open trial.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: self.root,
            run: self.run,
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in nanoseconds: its duration minus the part
/// of its interval that its children cover. Children may nest further
/// and may overlap each other (spans from parallel workers); overlapped
/// time is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns() - covered_ns(kids, s.start_ns, s.end_ns).min(s.dur_ns()))
        .collect()
}

/// Self time per span name, summed, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}
