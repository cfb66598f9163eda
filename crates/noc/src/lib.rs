#![warn(missing_docs)]

//! Cycle-stepped Network-on-Chip simulator for the DISCO reproduction.
//!
//! Models the substrate the paper evaluates on (Booksim-class fidelity,
//! Table 2 parameters): virtual-channel routers with a configurable
//! pipeline, per-class virtual networks, credit-based backpressure,
//! and wormhole / virtual cut-through / store-and-forward flow control
//! (§3.3-A). Topology is **data, not code**: a [`Topology`] value of
//! per-router port tables describes the graph, and the paper's `k×k`
//! mesh of 5-port routers is just one [`topology::TopologySpec`] among
//! [`topology::Ring`], [`topology::HierarchicalRing`],
//! [`topology::Torus`], and [`topology::ConcentratedMesh`].
//!
//! The DISCO router extensions (compressor engine, arbitrator, shadow
//! packets) live in `disco-core` and drive this crate through a dedicated
//! extension API: [`Router`] exposes SA losers, credit counters, and
//! VC locking; [`Network::reshape_resident`] swaps shadow flits for
//! de/compressed ones with credit-correct buffer accounting.
//!
//! # Example
//!
//! ```
//! use disco_noc::{Network, NocConfig};
//! use disco_noc::packet::{PacketClass, Payload};
//! use disco_noc::topology::{Mesh, NodeId};
//!
//! let mut net = Network::new(Mesh::new(4, 4), NocConfig::default());
//! net.send(NodeId(0), NodeId(15), PacketClass::Request, Payload::None, false, 0);
//! for _ in 0..100 {
//!     net.tick();
//! }
//! assert_eq!(net.take_delivered(NodeId(15)).len(), 1);
//! ```

mod commit;
pub mod config;
pub(crate) mod faults;
pub mod health;
pub mod network;
pub mod packet;
mod phase;
pub mod router;
pub mod routing;
pub mod stats;
pub mod topology;
pub mod traffic;

pub use config::{FlowControl, NocConfig, SchedulingPolicy};
pub use disco_faults::{FaultKind, FaultPlan, FaultStats};
pub use health::{StallInfo, StallReason};
pub use network::{Network, MAX_PACKET_FLITS};
pub use packet::{Flit, FlitKind, Packet, PacketClass, PacketId, PacketStore, Payload, FLIT_BYTES};
pub use router::{Router, Vc};
pub use routing::RoutingAlgorithm;
pub use stats::NetworkStats;
pub use topology::{
    ConcentratedMesh, HierarchicalRing, Mesh, NodeId, PortId, Ring, Topology, TopologyChoice,
    TopologyKind, TopologySpec, Torus,
};
pub use traffic::{TrafficDriver, TrafficPattern};
