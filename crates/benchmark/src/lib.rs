//! `disco-benchmark`: end-to-end and per-layer performance of the DISCO
//! simulator on four workloads — the paper's full-system runs
//! (`paper-4x4`), a checkpointed long job (`serve-8x8`), the NoC kernel
//! with DISCO engines (`noc-16x16`) and a design-space exploration
//! (`dse-4x4`).
//!
//! The benchmark measures each layer from outside: it times its own
//! calls into the public functions of the workspace crates and reads the
//! work counters their reports expose. See `README.md` for the metrics,
//! the workloads and why each was chosen.

#![warn(missing_docs)]

pub mod host;
pub mod metrics;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;

pub use run::{run, RunConfig, RunResult};
pub use workloads::{Sizes, Workload};
