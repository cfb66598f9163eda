#![warn(missing_docs)]

//! DISCO: a DIStributed in-network data COmpressor for energy-efficient
//! chip multi-processors — the paper's primary contribution (Wang et al.,
//! DAC 2016), plus the baselines it is evaluated against and the
//! full-system simulator tying every substrate together.
//!
//! # What DISCO is
//!
//! Cache compression adds de/compression latency to the cache access
//! path; NoC compression adds it at the network interfaces. DISCO merges
//! one compressor into each NoC router and uses the *queuing time* of
//! packets that lose virtual-channel or switch allocation to hide that
//! latency (§3.2):
//!
//! - [`arbitrator::DiscoParams`] — the confidence counter (Fig. 3,
//!   Eqs. 1–2) that picks which idling packet to de/compress from the
//!   credit signals and the remaining hop count.
//! - [`engine::DiscoLayer`] — one compressor engine per router: shadow
//!   packets, non-blocking abort, fragment-wise separate-flit compression
//!   (§3.3-A), credit-correct buffer reshaping.
//! - [`placement::CompressionPlacement`] — DISCO and its §4.1
//!   comparisons: Baseline, Ideal, CC (cache-only), CNC (cache + NI).
//! - [`system::SimBuilder`] / [`system::System`] — the trace-driven CMP:
//!   cores + L1s + MSHRs, NUCA banks + MOESI directories, corner memory
//!   controllers, all over the `disco-noc` mesh.
//!
//! # Quickstart
//!
//! ```
//! use disco_core::{CompressionPlacement, SimBuilder};
//! use disco_workloads::Benchmark;
//!
//! # fn main() -> Result<(), disco_core::SimError> {
//! let disco = SimBuilder::new()
//!     .mesh(2, 2)
//!     .placement(CompressionPlacement::Disco)
//!     .benchmark(Benchmark::Swaptions)
//!     .trace_len(200)
//!     .run()?;
//! println!("DISCO: {:.1} cycles/miss", disco.avg_access_latency());
//! # Ok(())
//! # }
//! ```

pub mod arbitrator;
pub mod engine;
pub mod histogram;
pub mod placement;
pub mod protocol;
pub mod report;
pub mod system;
pub mod training;

pub use arbitrator::{DiscoParams, Pressure};
pub use engine::{DiscoLayer, DiscoStats};
pub use histogram::LatencyHistogram;
pub use placement::CompressionPlacement;
pub use report::{SimReport, TraceCapture};
pub use system::{SimBuilder, SimError, System};
