//! Wide-area network substrate for the FUSE reproduction.
//!
//! The paper's evaluation runs over a Mercator-derived router topology
//! (102,639 routers; 97% OC3 links at 10–40 ms, 3% T3 links at 300–500 ms;
//! median RTT ≈ 130 ms with a heavy tail; routes of 2–43 hops, median 15)
//! emulated by ModelNet, with all messages carried over TCP (§7.1, §7.6).
//! That measured topology is unavailable, so [`topology`] generates a
//! synthetic hierarchical AS/router graph *tuned to those published
//! distributions* — every property FUSE can observe (latency, hop count,
//! loss composition, tail) is matched; see DESIGN.md §5.
//!
//! The crate provides:
//!
//! * [`topology`] — AS/router graph generation with OC3/T3 link classes,
//!   including the [`TopologyConfig::mercator_scale`] preset that reaches
//!   the paper's ~100k routers,
//! * [`routes`] — lexicographic `(hops, latency)` shortest paths behind the
//!   attachment-indexed [`RouteOracle`] (one Dijkstra per source
//!   attachment, rows of bit-packed words over the attachment columns)
//!   plus the preserved eager [`RouteTable`],
//! * [`tcp`] — an analytic TCP model (connection cache, retransmission
//!   backoff, connection breakage under loss),
//! * [`fault`] — scriptable failures: crashes, disconnects, intransitive
//!   blackholes, partitions,
//! * [`network`] — the [`fuse_sim::Medium`] implementation combining them,
//!   with `Simulator` and `Cluster` (ModelNet-like) emulation profiles.
//!
//! # Example: generate a topology, attach processes, query a route
//!
//! ```
//! use fuse_net::{RouteOracle, Topology, TopologyConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let topo = Topology::generate(&TopologyConfig::default(), &mut rng);
//!
//! // Four processes on random access routers: one column per distinct
//! // router. Rows appear on a source's first query, one Dijkstra each.
//! let attach = topo.sample_attachments(4, &mut rng);
//! let oracle = RouteOracle::new(&topo, &attach);
//! let route = oracle.route(&topo, 0, 1);
//! assert!(route.hops >= 1);
//! assert!(route.delivery_prob(0.0) == 1.0);
//!
//! // The same query again is a hit on the filled row, identical answer.
//! assert_eq!(route, oracle.route(&topo, 0, 1));
//! let stats = oracle.stats();
//! assert_eq!((stats.hits, stats.misses), (1, 1));
//! // Route memory is filled rows × columns × 8 bytes.
//! assert_eq!(stats.resident_bytes, oracle.columns() * 8);
//! ```
//!
//! For full-stack use, [`Network::generate`] wires a topology, random
//! attachment points and the oracle into a [`fuse_sim::Medium`]; the
//! harness crate's experiments run the paper's figures on top of it.

#![deny(missing_docs)]

pub mod fault;
pub mod network;
pub mod routes;
pub mod tcp;
pub mod topology;

pub use fault::FaultPlane;
pub use network::{EmulationProfile, NetConfig, Network};
pub use routes::{OracleStats, RouteInfo, RouteOracle, RouteTable};
pub use topology::{LinkClass, RouterId, Topology, TopologyConfig, SAME_ROUTER_LATENCY};
