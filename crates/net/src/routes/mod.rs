//! Routes between attached processes.
//!
//! Routing in the emulated Internet is static (ModelNet precomputes routes
//! the same way). [`RouteOracle`] is an **attachment-indexed route
//! matrix**: one column per distinct attachment router, one row per source
//! column, each row filled by a single lexicographic shortest-path
//! computation the first time a process attached there sends. The pre-PR-4
//! eager all-destinations table survives as [`eager::RouteTable`] and is
//! held bit-identical to the oracle by equivalence tests over random
//! topologies (`tests/route_oracle.rs`).
//!
//! Paths minimize **hop count** (ties broken by latency), like the policy
//! routing of the real Internet — crucially, paths do *not* detour around
//! slow T3 links, which is what produces the heavy RTT tail of Figure 6.
//! Each route records total one-way latency and hop count; per-route loss
//! under a uniform per-link loss rate `p` is `1 − (1−p)^hops`, exactly the
//! composition behind Figure 11's per-route loss CDFs.

pub mod eager;

pub use eager::RouteTable;

use std::cell::{Cell, OnceCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fuse_sim::{ProcId, SimDuration};
use fuse_util::DetHashMap;

use crate::topology::{RouterId, Topology, SAME_ROUTER_LATENCY};

/// Latency/hop summary of one route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteInfo {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Number of links traversed.
    pub hops: u32,
}

impl RouteInfo {
    /// Per-route one-way delivery probability given a uniform per-link loss
    /// rate.
    pub fn delivery_prob(&self, per_link_loss: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&per_link_loss));
        (1.0 - per_link_loss).powi(self.hops as i32)
    }

    /// Per-route one-way loss rate given a uniform per-link loss rate.
    pub fn loss_rate(&self, per_link_loss: f64) -> f64 {
        1.0 - self.delivery_prob(per_link_loss)
    }
}

/// Shortest-path row from `src`: `(hops, latency_ns)` for every destination
/// router, `(u32::MAX, u64::MAX)` when unreachable.
///
/// Lexicographic Dijkstra on `(hops, latency)`: minimum hop count, ties
/// broken by total latency. Deterministic for a fixed topology — both the
/// eager table and the oracle call this one function, which is what makes
/// their equivalence structural rather than coincidental.
pub(crate) fn dijkstra(topo: &Topology, src: RouterId) -> Vec<(u32, u64)> {
    let n = topo.n_routers();
    let mut best: Vec<(u32, u64)> = vec![(u32::MAX, u64::MAX); n];
    let mut heap = BinaryHeap::new();
    best[src as usize] = (0, 0);
    heap.push(Reverse((0u32, 0u64, src)));
    while let Some(Reverse((hops, lat, r))) = heap.pop() {
        if (hops, lat) > best[r as usize] {
            continue;
        }
        for &(next, link) in &topo.adj[r as usize] {
            let w = topo.links[link as usize].latency.nanos();
            let cand = (hops + 1, lat + w);
            if cand < best[next as usize] {
                best[next as usize] = cand;
                heap.push(Reverse((cand.0, cand.1, next)));
            }
        }
    }
    best
}

// ---------------------------------------------------------------------------
// Packed route words.

/// Bits of the packed word holding the hop count (top of the word).
const HOP_BITS: u32 = 10;
/// Shift of the hop field: the low 54 bits hold the latency.
const HOP_SHIFT: u32 = 64 - HOP_BITS;
/// Mask of the latency field (2^54 ns ≈ 208 simulated days per route —
/// five orders of magnitude above the topology generator's worst case).
const LAT_MASK: u64 = (1 << HOP_SHIFT) - 1;
/// Sentinel for an unreachable destination.
const UNREACHABLE: u64 = u64::MAX;
/// Longest route, in hops, a packed word can hold (the all-ones hop field
/// is reserved for [`UNREACHABLE`]). Hop-indexed tables sized
/// `MAX_ROUTE_HOPS + 1` cover every route the oracle can return.
pub(crate) const MAX_ROUTE_HOPS: u32 = (1 << HOP_BITS) - 2;

/// Packs one Dijkstra entry into a single word: hops in the top 10 bits,
/// latency nanoseconds in the low 54. Halves a resident row relative to the
/// eager table's `(u32, u64)` (16 bytes with padding).
fn pack(lat: u64, hops: u32) -> u64 {
    if lat == u64::MAX {
        return UNREACHABLE;
    }
    assert!(
        lat <= LAT_MASK && hops <= MAX_ROUTE_HOPS,
        "route exceeds packed capacity: {lat} ns, {hops} hops"
    );
    (u64::from(hops) << HOP_SHIFT) | lat
}

/// Inverse of [`pack`] for reachable entries.
fn unpack(w: u64) -> (u64, u32) {
    (w & LAT_MASK, (w >> HOP_SHIFT) as u32)
}

// ---------------------------------------------------------------------------
// The attachment-indexed route matrix.

/// Counters and occupancy of a [`RouteOracle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Queries served from a filled row.
    pub hits: u64,
    /// Queries that filled their source's row, i.e. Dijkstra runs.
    pub misses: u64,
    /// Rows filled so far (at most one per column).
    pub resident_rows: usize,
    /// Bytes held by the filled rows: `resident_rows × columns × 8`.
    pub resident_bytes: usize,
}

/// Route matrix over a network's attached processes.
///
/// Built from the attachment list (`attach[p]` is process `p`'s router):
/// every distinct attachment router becomes one dense **column**, and
/// co-located processes share it. A source column's **row** — one packed
/// `(hops, latency)` word per column — is filled on the first query out of
/// it by one Dijkstra over the router graph, projected onto the columns,
/// and never evicted. A query is then two column lookups and one row load:
/// no hashing and no allocation.
///
/// Resident memory is `filled rows × columns × 8` bytes, at most
/// `columns² × 8`: 1.28 MB at 400 attachments, 8 MB at 1,000 — what the
/// matrix is sized for. It does not depend on the router count, so the
/// ~100k-router Mercator preset (§7.1) costs the same per row as the
/// default topology; only a Dijkstra gets slower.
///
/// The oracle does not own the topology: callers pass `&Topology` to
/// [`route`](RouteOracle::route), so one topology can back the network, the
/// experiments and ad-hoc queries without reference cycles. Rows are only
/// valid for the topology the columns were drawn from — the oracle records
/// its [`Topology::fingerprint`] and panics if a query passes a different
/// graph (even one with coincidentally equal counts), rather than silently
/// serving stale routes. Interior mutability (`OnceCell` rows, `Cell`
/// counters) keeps the query API `&self`, matching the eager table; the
/// simulation is single-threaded by design.
///
/// Which rows are filled depends only on the query order, so for a fixed
/// topology and query sequence the oracle is fully deterministic —
/// including its [`stats`](RouteOracle::stats).
pub struct RouteOracle {
    /// Process → column.
    col_of: Vec<u32>,
    /// Column → attachment router.
    routers: Vec<RouterId>,
    /// Row per source column: a packed word per destination column.
    rows: Vec<OnceCell<Box<[u64]>>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// `(n_routers, fingerprint)` of the topology the columns were drawn
    /// from; the structural fingerprint catches even same-sized graphs
    /// from different seeds.
    fp: (usize, u64),
}

impl RouteOracle {
    /// Creates an empty matrix over `attach`, where process `p` is attached
    /// to router `attach[p]`. No route is computed here.
    ///
    /// # Panics
    ///
    /// Panics if an attachment router is out of range for `topo`.
    pub fn new(topo: &Topology, attach: &[RouterId]) -> Self {
        let mut index: DetHashMap<RouterId, u32> = DetHashMap::default();
        let mut routers = Vec::new();
        let col_of = attach
            .iter()
            .map(|&r| {
                assert!((r as usize) < topo.n_routers(), "router id out of range");
                *index.entry(r).or_insert_with(|| {
                    routers.push(r);
                    (routers.len() - 1) as u32
                })
            })
            .collect();
        RouteOracle {
            col_of,
            rows: (0..routers.len()).map(|_| OnceCell::new()).collect(),
            routers,
            hits: Cell::new(0),
            misses: Cell::new(0),
            fp: (topo.n_routers(), topo.fingerprint()),
        }
    }

    /// Number of columns: distinct attachment routers.
    pub fn columns(&self) -> usize {
        self.routers.len()
    }

    /// Route summary from process `a` to process `b`, filling `a`'s row on
    /// its first query.
    ///
    /// Co-located processes (same column) get a LAN hop of
    /// [`SAME_ROUTER_LATENCY`] without touching the matrix. A first query
    /// out of a column runs one Dijkstra, whose scratch vectors allocate;
    /// every later query out of it is allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if either process is out of range for the attachment list,
    /// if `b` is unreachable from `a` (the topology generator produces
    /// connected graphs), or if `topo` is not the topology the columns
    /// were drawn from (checked via [`Topology::fingerprint`], so even a
    /// same-sized graph from a different seed is refused rather than
    /// served stale rows). All three checks apply to co-located queries
    /// too.
    pub fn route(&self, topo: &Topology, a: ProcId, b: ProcId) -> RouteInfo {
        assert_eq!(
            (topo.n_routers(), topo.fingerprint()),
            self.fp,
            "RouteOracle queried with a different topology than its columns were drawn from"
        );
        let col = |p: ProcId| {
            *self
                .col_of
                .get(p as usize)
                .expect("process id out of range")
        };
        let (src, dst) = (col(a), col(b));
        if src == dst {
            // Same attachment router: a LAN hop, not a wide-area route.
            return RouteInfo {
                latency: SAME_ROUTER_LATENCY,
                hops: 0,
            };
        }
        let cell = &self.rows[src as usize];
        let row = match cell.get() {
            Some(row) => {
                self.hits.set(self.hits.get() + 1);
                row
            }
            None => {
                self.misses.set(self.misses.get() + 1);
                cell.get_or_init(|| self.project(topo, src))
            }
        };
        let w = row[dst as usize];
        assert_ne!(w, UNREACHABLE, "destination unreachable");
        let (lat, hops) = unpack(w);
        RouteInfo {
            latency: SimDuration(lat),
            hops,
        }
    }

    /// One Dijkstra from column `src`'s router, projected onto the columns.
    fn project(&self, topo: &Topology, src: u32) -> Box<[u64]> {
        let dist = dijkstra(topo, self.routers[src as usize]);
        self.routers
            .iter()
            .map(|&r| {
                let (hops, lat) = dist[r as usize];
                pack(lat, hops)
            })
            .collect()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> OracleStats {
        let resident_rows = self.rows.iter().filter(|r| r.get().is_some()).count();
        OracleStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            resident_rows,
            resident_bytes: resident_rows * self.columns() * std::mem::size_of::<u64>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_topo() -> Topology {
        let cfg = TopologyConfig {
            n_as: 8,
            core_per_as: 4,
            chains_per_as: 1,
            chain_len: (2, 4),
            ..TopologyConfig::default()
        };
        Topology::generate(&cfg, &mut StdRng::seed_from_u64(11))
    }

    /// An oracle whose process `p` sits on router `p`: every router is its
    /// own column.
    fn every_router(topo: &Topology) -> RouteOracle {
        let all: Vec<RouterId> = (0..topo.n_routers() as RouterId).collect();
        RouteOracle::new(topo, &all)
    }

    #[test]
    fn pack_roundtrips_and_flags_unreachable() {
        for &(lat, hops) in &[
            (0u64, 0u32),
            (1, 1),
            (123_456_789_000, 43),
            (LAT_MASK, MAX_ROUTE_HOPS),
        ] {
            assert_eq!(unpack(pack(lat, hops)), (lat, hops));
        }
        assert_eq!(pack(u64::MAX, u32::MAX), UNREACHABLE);
    }

    #[test]
    #[should_panic(expected = "packed capacity")]
    fn pack_rejects_oversized_latency() {
        pack(LAT_MASK + 1, 3);
    }

    #[test]
    fn same_router_is_lan_latency() {
        let topo = small_topo();
        let oracle = every_router(&topo);
        let r = oracle.route(&topo, 7, 7);
        assert_eq!(r.hops, 0);
        assert_eq!(r.latency, SAME_ROUTER_LATENCY);
        // Served without filling any row.
        assert_eq!(oracle.stats().resident_rows, 0);
    }

    #[test]
    fn routes_are_symmetric_in_latency() {
        let topo = small_topo();
        let oracle = every_router(&topo);
        for a in [0u32, 5, 13, 21] {
            for b in [3u32, 9, 30] {
                if a == b {
                    continue;
                }
                let f = oracle.route(&topo, a, b);
                let r = oracle.route(&topo, b, a);
                assert_eq!(f.latency, r.latency);
                assert_eq!(f.hops, r.hops);
            }
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let topo = small_topo();
        let oracle = every_router(&topo);
        oracle.route(&topo, 0, 1);
        oracle.route(&topo, 0, 2);
        oracle.route(&topo, 1, 2);
        let s = oracle.stats();
        assert_eq!(s.misses, 2, "two distinct sources");
        assert_eq!(s.hits, 1, "second query from source 0");
        assert_eq!(s.resident_rows, 2);
    }

    #[test]
    fn capacity_bounds_resident_rows() {
        // Ten processes over three routers: three columns, so at most
        // three rows however many processes send, each `columns` words.
        let topo = small_topo();
        let attach: Vec<RouterId> = (0..10).map(|p| [4, 9, 17][p % 3]).collect();
        let oracle = RouteOracle::new(&topo, &attach);
        assert_eq!(oracle.columns(), 3);
        for a in 0..10 {
            for b in 0..10 {
                oracle.route(&topo, a, b);
            }
        }
        let s = oracle.stats();
        assert_eq!(s.resident_rows, 3);
        assert_eq!(s.misses, 3, "one Dijkstra per column");
        assert_eq!(s.resident_bytes, 3 * 3 * std::mem::size_of::<u64>());
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn reuse_across_topologies_panics_instead_of_serving_stale_rows() {
        let topo_a = small_topo();
        let topo_b = Topology::generate(
            &TopologyConfig {
                n_as: 4,
                core_per_as: 3,
                chains_per_as: 1,
                chain_len: (2, 4),
                ..TopologyConfig::default()
            },
            &mut StdRng::seed_from_u64(5),
        );
        let oracle = RouteOracle::new(&topo_a, &[0, 9]);
        oracle.route(&topo_a, 0, 1);
        oracle.route(&topo_b, 0, 1);
    }

    #[test]
    #[should_panic(expected = "different topology")]
    fn same_config_different_seed_is_still_a_different_topology() {
        // Same TopologyConfig, different seed: counts can coincide, but
        // the structural fingerprint must still refuse the filled rows.
        let cfg = TopologyConfig {
            n_as: 8,
            core_per_as: 4,
            chains_per_as: 1,
            chain_len: (3, 3), // fixed chain length: identical router count
            ..TopologyConfig::default()
        };
        let topo_a = Topology::generate(&cfg, &mut StdRng::seed_from_u64(1));
        let topo_b = Topology::generate(&cfg, &mut StdRng::seed_from_u64(2));
        assert_eq!(topo_a.n_routers(), topo_b.n_routers());
        let oracle = RouteOracle::new(&topo_a, &[0, 9]);
        oracle.route(&topo_a, 0, 1);
        oracle.route(&topo_b, 0, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn same_router_query_still_checks_id_range() {
        let topo = small_topo();
        let oracle = RouteOracle::new(&topo, &[3, 3]);
        oracle.route(&topo, 50_000, 50_000);
    }
}
