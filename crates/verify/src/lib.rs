#![warn(missing_docs)]

//! Static analyses for the DISCO reproduction, run via `cargo xtask
//! verify` (and re-run by CI).
//!
//! Six passes, each usable as a library:
//!
//! - [`cdg`] — Dally–Seitz channel-dependency-graph deadlock analysis
//!   over any [`disco_noc::Topology`], its routing relation (with the
//!   wrapped shapes' dateline VC narrowing), and DISCO's VC-locking
//!   rule.
//! - [`protocol`] — MOESI transition-table extraction from the live
//!   directory engine plus totality/reachability checking, the `Msg`
//!   tag-encoding roundtrip check, and the op → virtual-network class
//!   mapping composed with the CDG results.
//! - [`model`] + [`explorer`] — bounded model checking: every delivery
//!   interleaving of the coherence protocol (driving the live
//!   `Directory`) explored to a depth bound, with counterexamples as
//!   replayable message schedules.
//! - [`credits`] — symbolic credit/buffer conservation proof over the
//!   router pipeline's operation set, plus a live-network conformance
//!   check.
//! - [`ast`] — a Rust lexer/token-tree layer giving AST-grade lints
//!   (mutation through helper methods, `#[cfg]`-hidden branches,
//!   aliased `&mut`) on top of —
//! - [`lints`] — the lint pass: panic-API-free per-cycle hot paths,
//!   commit confinement, wall-clock freedom, compute-phase purity,
//!   fault-kind coverage and the snapshot manifest.
//!
//! ```
//! use disco_noc::topology::{Torus, TopologySpec};
//! use disco_verify::cdg::{analyze, CdgOptions};
//!
//! let config = disco_noc::NocConfig { vcs: 4, ..disco_noc::NocConfig::default() };
//! let opts = CdgOptions::from_config(&config);
//! assert!(analyze(&Torus::new(4, 4).build(), &opts).is_deadlock_free());
//! ```

pub mod ast;
pub mod cdg;
pub mod credits;
pub mod explorer;
pub mod lints;
pub mod model;
pub mod protocol;
