#![warn(missing_docs)]

//! # DISCO — a DIStributed in-network data COmpressor
//!
//! Facade crate for the DISCO reproduction (Wang et al., DAC 2016). DISCO
//! merges a cache-line compressor into the routers of a mesh Network-on-Chip
//! and uses the *queuing* time of stalled packets to hide compression and
//! decompression latency, unifying cache compression and NoC compression for
//! NUCA chip multi-processors.
//!
//! This crate re-exports the workspace members:
//!
//! - [`compress`] — bit-level cache-line codecs (delta, FPC, SFPC, BDI, SC²,
//!   C-Pack) with latency/area models.
//! - [`noc`] — a cycle-stepped mesh NoC simulator (3-stage routers, virtual
//!   channels, credit-based wormhole/VCT/SAF flow control).
//! - [`cache`] — L1 caches, a banked NUCA L2 with compressed segmented
//!   storage, MOESI directory coherence, and a DRAM model.
//! - [`workloads`] — synthetic PARSEC-2.1-like trace generators.
//! - [`energy`] — 45 nm event-based energy and area models.
//! - [`core`] — the DISCO router/arbitrator, the CC/CNC/Ideal baselines, and
//!   the full-system simulator.
//!
//! # Quickstart
//!
//! ```
//! use disco::core::{SimBuilder, CompressionPlacement};
//! use disco::workloads::Benchmark;
//!
//! # fn main() -> Result<(), disco::core::SimError> {
//! let report = SimBuilder::new()
//!     .mesh(4, 4)
//!     .placement(CompressionPlacement::Disco)
//!     .benchmark(Benchmark::Blackscholes)
//!     .trace_len(20_000)
//!     .seed(42)
//!     .run()?;
//! println!("avg access latency: {:.1} cycles", report.avg_access_latency());
//! # Ok(())
//! # }
//! ```

pub use disco_cache as cache;
pub use disco_compress as compress;
pub use disco_core as core;
pub use disco_energy as energy;
/// Deterministic fault plans, integrity checksums, and fault accounting
/// (armed at run time with `SimBuilder::faults`).
pub use disco_faults as faults;
pub use disco_noc as noc;
/// Versioned binary checkpoint encoding (the `Snap` trait, writer /
/// reader, snapshot header) behind [`core::System::snapshot`].
pub use disco_snapshot as snapshot;
/// Deterministic event tracing + latency provenance (switched on at run
/// time with `SimBuilder::capture_trace`).
pub use disco_trace as trace;
pub use disco_workloads as workloads;
