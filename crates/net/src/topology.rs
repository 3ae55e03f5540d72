//! Synthetic hierarchical AS/router topology.
//!
//! Substitution for the paper's Mercator-measured topology (§7.1). The
//! generated graph has three tiers, mirroring how the Internet actually
//! produces the paper's published route shape:
//!
//! * an **inter-AS mesh** — a connected random graph over ASes whose links
//!   are 97% OC3 (10–40 ms one-way) and 3% T3 (300–500 ms), exactly the
//!   paper's link classes; its density sets how many wide-area crossings a
//!   route makes (two to three at the default), which pins the median RTT
//!   near the paper's 130 ms,
//! * a per-AS **core ring** of routers where inter-AS links attach,
//! * per-AS **access chains** of LAN-class routers (≈0.3–1 ms per hop)
//!   hanging off the core; overlay nodes attach only at access routers, so
//!   every route must climb its access chain, transit cores, and descend —
//!   this is what gives routes the paper's ~15 median link hops (the number
//!   that drives per-route loss composition in Figures 11–12) without
//!   inflating latency.
//!
//! Routing (in [`crate::routes`]) minimizes hop count, not latency, like
//! policy routing in the real Internet — so routes cross T3 links rather
//! than detouring, producing Figure 6's heavy RTT tail. A test in this
//! module asserts the whole tuning.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use fuse_sim::SimDuration;

/// One-way latency between two overlay nodes attached to the *same* access
/// router.
///
/// The paper's testbed multiplexes ten virtual FUSE nodes per physical
/// machine (§7.1), so co-located nodes talk over the machine-room LAN
/// rather than a ModelNet-emulated wide-area route. 100 µs is a
/// conservative one-way delay for the switched 100 Mb Ethernet of that era
/// — below the per-hop latency of every generated LAN link
/// ([`TopologyConfig::lan_latency_us`] defaults to 300–1000 µs) but not
/// zero, so events between co-located nodes still order realistically.
/// Both the [`crate::RouteOracle`] (for co-located processes) and the
/// preserved eager [`crate::RouteTable`] return it for same-router queries.
pub const SAME_ROUTER_LATENCY: SimDuration = SimDuration::from_micros(100);

/// Index of a router in the topology.
pub type RouterId = u32;

/// Index of a link in the topology.
pub type LinkId = u32;

/// Link technology class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkClass {
    /// Intra-AS LAN/metro link.
    Lan,
    /// Inter-AS OC3: 10–40 ms latency (paper: 97% of inter-AS links).
    Oc3,
    /// Inter-AS T3: 300–500 ms latency (paper: 3% of inter-AS links).
    T3,
}

/// An undirected router-to-router link.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: RouterId,
    /// Other endpoint.
    pub b: RouterId,
    /// Technology class.
    pub class: LinkClass,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

/// Topology generation parameters.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    /// Number of autonomous systems.
    pub n_as: usize,
    /// Core-ring routers per AS (inter-AS links attach here).
    pub core_per_as: usize,
    /// Access chains per AS.
    pub chains_per_as: usize,
    /// Access chain length range (inclusive).
    pub chain_len: (usize, usize),
    /// Extra inter-AS links beyond the AS-level ring, as a multiple of
    /// `n_as` (controls AS-graph degree, hence wide-area crossings per
    /// route).
    pub inter_as_extra_factor: f64,
    /// Fraction of inter-AS links assigned the T3 class (paper: 0.03).
    pub t3_fraction: f64,
    /// LAN (intra-AS) one-way latency range in microseconds.
    pub lan_latency_us: (u64, u64),
    /// OC3 one-way latency range in milliseconds (paper: 10–40).
    pub oc3_latency_ms: (u64, u64),
    /// T3 one-way latency range in milliseconds (paper: 300–500).
    pub t3_latency_ms: (u64, u64),
}

impl Default for TopologyConfig {
    fn default() -> Self {
        // Tuned (see `default_topology_matches_paper_route_shape`) to give
        // median ~15 link hops and median RTT ~130 ms between random
        // attachment points, as the paper reports for its Mercator slice.
        TopologyConfig {
            n_as: 160,
            core_per_as: 6,
            chains_per_as: 2,
            chain_len: (4, 11),
            inter_as_extra_factor: 10.0,
            t3_fraction: 0.03,
            lan_latency_us: (300, 1000),
            oc3_latency_ms: (10, 40),
            t3_latency_ms: (300, 500),
        }
    }
}

impl TopologyConfig {
    /// A Mercator-slice-shaped topology at the paper's published scale:
    /// ~100k routers (the measured slice has 102,639), reached by scaling
    /// the AS count up from the default while keeping the per-AS shape
    /// (core ring + access chains) that produces the paper's route
    /// distributions. The AS-graph degree is raised alongside so routes
    /// still make two-to-four wide-area crossings and the median RTT stays
    /// near the published ~130 ms instead of growing with the AS-graph
    /// diameter.
    ///
    /// Building the eager all-destinations table here costs ~1.6 MB *per
    /// source* (100k routers × 16 bytes); the attachment-indexed
    /// [`crate::RouteOracle`] is how this preset is meant to be routed —
    /// see the `#[ignore]`d Mercator smoke test in `tests/route_oracle.rs`
    /// and the `route_oracle.mercator` bench section.
    pub fn mercator_scale() -> Self {
        TopologyConfig {
            n_as: 4800,
            inter_as_extra_factor: 15.0,
            ..TopologyConfig::default()
        }
    }

    /// Expected router count for this configuration (exact core count plus
    /// the mean of the random chain lengths).
    pub fn expected_routers(&self) -> usize {
        let avg_chain = (self.chain_len.0 + self.chain_len.1) as f64 / 2.0;
        (self.n_as as f64 * (self.core_per_as as f64 + self.chains_per_as as f64 * avg_chain))
            .round() as usize
    }
}

/// The generated router graph.
#[derive(Clone)]
pub struct Topology {
    /// All links.
    pub links: Vec<Link>,
    /// Adjacency: for each router, `(neighbor, link)` pairs.
    pub adj: Vec<Vec<(RouterId, LinkId)>>,
    /// AS id of each router.
    pub as_of: Vec<u32>,
    /// Access routers — valid attachment points for overlay nodes.
    pub attachable: Vec<RouterId>,
    /// Structural checksum over every link's endpoints and latency,
    /// computed once at the end of generation (see
    /// [`Topology::fingerprint`]).
    fingerprint: u64,
    /// Smallest one-way link latency in the graph, precomputed at
    /// generation (see [`Topology::min_link_latency`]).
    min_link_latency: SimDuration,
}

impl Topology {
    /// Generates a topology from `cfg` using `rng`.
    pub fn generate(cfg: &TopologyConfig, rng: &mut StdRng) -> Self {
        assert!(cfg.n_as >= 2, "need at least two ASes");
        assert!(cfg.core_per_as >= 1);
        assert!(cfg.chain_len.0 >= 1 && cfg.chain_len.0 <= cfg.chain_len.1);
        let mut topo = Topology {
            links: Vec::new(),
            adj: Vec::new(),
            as_of: Vec::new(),
            attachable: Vec::new(),
            fingerprint: 0,
            min_link_latency: SimDuration(u64::MAX),
        };

        // Per-AS core rings and access chains.
        let mut core_routers: Vec<Vec<RouterId>> = Vec::with_capacity(cfg.n_as);
        for asn in 0..cfg.n_as {
            let core: Vec<RouterId> = (0..cfg.core_per_as)
                .map(|_| topo.new_router(asn as u32))
                .collect();
            if core.len() >= 2 {
                for i in 0..core.len() {
                    let a = core[i];
                    let b = core[(i + 1) % core.len()];
                    if !topo.has_link(a, b) {
                        topo.add_lan(a, b, rng, cfg);
                    }
                }
            }
            for _ in 0..cfg.chains_per_as {
                let len = rng.gen_range(cfg.chain_len.0..=cfg.chain_len.1);
                let mut prev = core[rng.gen_range(0..core.len())];
                for _ in 0..len {
                    let r = topo.new_router(asn as u32);
                    topo.add_lan(prev, r, rng, cfg);
                    topo.attachable.push(r);
                    prev = r;
                }
            }
            core_routers.push(core);
        }

        // Inter-AS: a ring over a shuffled AS order guarantees connectivity;
        // chords set the AS-graph degree.
        let mut inter_links: Vec<LinkId> = Vec::new();
        let mut order: Vec<usize> = (0..cfg.n_as).collect();
        order.shuffle(rng);
        let pick = |rng: &mut StdRng, core: &Vec<RouterId>| -> RouterId {
            core[rng.gen_range(0..core.len())]
        };
        for w in 0..cfg.n_as {
            let x = order[w];
            let y = order[(w + 1) % cfg.n_as];
            let rx = pick(rng, &core_routers[x]);
            let ry = pick(rng, &core_routers[y]);
            inter_links.push(topo.add_oc3(rx, ry, rng, cfg));
        }
        let extra = (cfg.n_as as f64 * cfg.inter_as_extra_factor) as usize;
        for _ in 0..extra {
            let x = rng.gen_range(0..cfg.n_as);
            let y = rng.gen_range(0..cfg.n_as);
            if x != y {
                let rx = pick(rng, &core_routers[x]);
                let ry = pick(rng, &core_routers[y]);
                if rx != ry && !topo.has_link(rx, ry) {
                    inter_links.push(topo.add_oc3(rx, ry, rng, cfg));
                }
            }
        }

        // Reassign a random t3_fraction of the inter-AS links to T3.
        let n_t3 = ((inter_links.len() as f64) * cfg.t3_fraction).round() as usize;
        inter_links.shuffle(rng);
        for &li in inter_links.iter().take(n_t3) {
            let ms = rng.gen_range(cfg.t3_latency_ms.0..=cfg.t3_latency_ms.1);
            topo.links[li as usize].class = LinkClass::T3;
            topo.links[li as usize].latency = SimDuration::from_millis(ms);
        }

        // Derived minima and the fingerprint last, so both cover the T3
        // latency reassignments. The fingerprint is an FNV-1a-style fold
        // over every link's endpoints and latency, then over the derived
        // minimum (the lookahead input of the sharded kernel), so any graph
        // change that could alter a lookahead bound changes the checksum.
        topo.min_link_latency = topo
            .links
            .iter()
            .map(|l| l.latency)
            .min()
            .unwrap_or(SimDuration::ZERO);
        let fold = |fp: u64, key: u64| (fp ^ key).wrapping_mul(0x1_0000_0000_01b3);
        topo.fingerprint = topo.links.iter().fold(0xcbf2_9ce4_8422_2325u64, |fp, l| {
            let key = (u64::from(l.a) << 40) ^ (u64::from(l.b) << 20) ^ l.latency.nanos();
            fold(fp, key)
        });
        topo.fingerprint = fold(topo.fingerprint, topo.min_link_latency.nanos());

        topo
    }

    fn new_router(&mut self, asn: u32) -> RouterId {
        let id = self.adj.len() as RouterId;
        self.adj.push(Vec::new());
        self.as_of.push(asn);
        id
    }

    fn add_lan(&mut self, a: RouterId, b: RouterId, rng: &mut StdRng, cfg: &TopologyConfig) {
        let us = rng.gen_range(cfg.lan_latency_us.0..=cfg.lan_latency_us.1);
        self.push_link(a, b, LinkClass::Lan, SimDuration::from_micros(us));
    }

    fn add_oc3(
        &mut self,
        a: RouterId,
        b: RouterId,
        rng: &mut StdRng,
        cfg: &TopologyConfig,
    ) -> LinkId {
        let ms = rng.gen_range(cfg.oc3_latency_ms.0..=cfg.oc3_latency_ms.1);
        self.push_link(a, b, LinkClass::Oc3, SimDuration::from_millis(ms))
    }

    fn push_link(
        &mut self,
        a: RouterId,
        b: RouterId,
        class: LinkClass,
        latency: SimDuration,
    ) -> LinkId {
        debug_assert_ne!(a, b);
        let id = self.links.len() as LinkId;
        self.links.push(Link {
            a,
            b,
            class,
            latency,
        });
        self.adj[a as usize].push((b, id));
        self.adj[b as usize].push((a, id));
        id
    }

    fn has_link(&self, a: RouterId, b: RouterId) -> bool {
        self.adj[a as usize].iter().any(|&(n, _)| n == b)
    }

    /// Structural checksum of the generated graph (endpoints and latency
    /// of every link). Two topologies that could give any query a
    /// different answer have different fingerprints with overwhelming
    /// probability — even when router and link counts coincide (e.g. the
    /// same config generated from a different seed). O(1) to read: the
    /// [`crate::RouteOracle`] compares it on every query to refuse serving
    /// filled rows for the wrong graph.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Smallest one-way link latency in the graph — a universal lower
    /// bound on the latency of any route between *distinct* routers, and
    /// therefore a valid (if loose) conservative-lookahead bound.
    /// Precomputed at generation so shards never run a route query to
    /// derive lookahead.
    pub fn min_link_latency(&self) -> SimDuration {
        self.min_link_latency
    }

    /// Latency-only multi-source shortest-path distances (in nanoseconds)
    /// from the router set `sources` to every router; `u64::MAX` marks
    /// unreachable. Unlike the hop-minimizing production routes, this is a
    /// true metric, so the result lower-bounds every route latency — the
    /// per-shard-pair lookahead input of the sharded kernel.
    pub fn latency_distances_from(&self, sources: &[RouterId]) -> Vec<u64> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![u64::MAX; self.n_routers()];
        let mut heap: BinaryHeap<(Reverse<u64>, RouterId)> = BinaryHeap::new();
        for &s in sources {
            if dist[s as usize] != 0 {
                dist[s as usize] = 0;
                heap.push((Reverse(0), s));
            }
        }
        while let Some((Reverse(d), r)) = heap.pop() {
            if d > dist[r as usize] {
                continue;
            }
            for &(n, li) in &self.adj[r as usize] {
                let nd = d + self.links[li as usize].latency.nanos();
                if nd < dist[n as usize] {
                    dist[n as usize] = nd;
                    heap.push((Reverse(nd), n));
                }
            }
        }
        dist
    }

    /// Number of routers.
    pub fn n_routers(&self) -> usize {
        self.adj.len()
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Fraction of *inter-AS* links in the T3 class (the paper's 3%).
    pub fn t3_share_of_inter_as(&self) -> f64 {
        let mut inter = 0usize;
        let mut t3 = 0usize;
        for l in &self.links {
            match l.class {
                LinkClass::Lan => {}
                LinkClass::Oc3 => inter += 1,
                LinkClass::T3 => {
                    inter += 1;
                    t3 += 1;
                }
            }
        }
        if inter == 0 {
            0.0
        } else {
            t3 as f64 / inter as f64
        }
    }

    /// Samples `n` attachment routers uniformly from the access routers
    /// (without replacement when possible; round-robin reuse otherwise —
    /// several overlay nodes on one access router is the analogue of the
    /// paper's ten virtual nodes per physical machine).
    pub fn sample_attachments(&self, n: usize, rng: &mut StdRng) -> Vec<RouterId> {
        assert!(
            !self.attachable.is_empty(),
            "topology has no access routers"
        );
        let mut all = self.attachable.clone();
        all.shuffle(rng);
        if n <= all.len() {
            all.truncate(n);
            all
        } else {
            (0..n).map(|i| all[i % all.len()]).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::RouteTable;
    use fuse_obs::Reservoir;
    use rand::SeedableRng;

    #[test]
    fn generation_is_connected_and_deterministic() {
        let cfg = TopologyConfig::default();
        let t1 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(9));
        let t2 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(9));
        assert_eq!(t1.n_links(), t2.n_links());
        // BFS connectivity.
        let mut seen = vec![false; t1.n_routers()];
        let mut q = vec![0u32];
        seen[0] = true;
        while let Some(r) = q.pop() {
            for &(n, _) in &t1.adj[r as usize] {
                if !seen[n as usize] {
                    seen[n as usize] = true;
                    q.push(n);
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "topology must be connected");
    }

    #[test]
    fn t3_share_close_to_configured() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(5));
        let share = t.t3_share_of_inter_as();
        assert!((share - 0.03).abs() < 0.01, "t3 share {share}");
    }

    #[test]
    fn default_topology_matches_paper_route_shape() {
        // The paper: routes of 2..43 hops, median 15; median RTT ~130 ms
        // with a heavy tail.
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TopologyConfig::default();
        let topo = Topology::generate(&cfg, &mut rng);
        let attach = topo.sample_attachments(200, &mut rng);
        let table = RouteTable::build(&topo, &attach);
        let mut hops = Reservoir::new();
        let mut rtt_ms = Reservoir::new();
        for i in 0..50usize {
            for j in 0..attach.len() {
                if attach[i] == attach[j] {
                    continue;
                }
                let r = table.route(attach[i], attach[j]);
                hops.add(r.hops as f64);
                rtt_ms.add(2.0 * r.latency.as_millis_f64());
            }
        }
        let med_hops = hops.median().unwrap();
        let med_rtt = rtt_ms.median().unwrap();
        let max_hops = hops.max().unwrap();
        assert!(
            (12.0..=18.0).contains(&med_hops),
            "median hops {med_hops} outside paper-like band"
        );
        assert!(
            (100.0..=170.0).contains(&med_rtt),
            "median rtt {med_rtt} ms outside paper-like band"
        );
        assert!(max_hops <= 60.0, "max hops {max_hops} unreasonable");
        // Heavy tail: 99th percentile RTT far above the median (T3 paths).
        let p99 = rtt_ms.quantile(0.99).unwrap();
        assert!(
            p99 > 3.0 * med_rtt,
            "no heavy tail: p99 {p99} med {med_rtt}"
        );
    }

    #[test]
    fn expected_routers_predicts_generated_count() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(4));
        let expected = cfg.expected_routers() as f64;
        let actual = t.n_routers() as f64;
        // Chain lengths are the only randomness in the count; the mean
        // estimate lands within a few percent at the default AS count.
        assert!(
            (actual - expected).abs() / expected < 0.05,
            "expected ~{expected} routers, generated {actual}"
        );
    }

    #[test]
    fn mercator_preset_reaches_paper_scale_on_paper() {
        // The full 100k-router generation runs in the `#[ignore]`d smoke
        // test (tests/route_oracle.rs); here only the arithmetic that the
        // preset targets the paper's 102,639-router slice.
        let cfg = TopologyConfig::mercator_scale();
        let expected = cfg.expected_routers();
        assert!(
            (95_000..=110_000).contains(&expected),
            "preset expects {expected} routers, not Mercator scale"
        );
    }

    #[test]
    fn fingerprint_distinguishes_seeds_and_reproduces() {
        let cfg = TopologyConfig::default();
        let a1 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(9));
        let a2 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(9));
        let b = Topology::generate(&cfg, &mut StdRng::seed_from_u64(10));
        assert_eq!(a1.fingerprint(), a2.fingerprint(), "same seed, same graph");
        assert_ne!(
            a1.fingerprint(),
            b.fingerprint(),
            "different seed must change the fingerprint even if counts collide"
        );
    }

    #[test]
    fn min_link_latency_matches_links_and_is_fingerprinted() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(11));
        let expect = t.links.iter().map(|l| l.latency).min().unwrap();
        assert_eq!(t.min_link_latency(), expect);
        assert!(t.min_link_latency() > SimDuration::ZERO);
        // Generated LAN links bound it from both sides.
        assert!(t.min_link_latency() >= SimDuration::from_micros(cfg.lan_latency_us.0));
        assert!(t.min_link_latency() <= SimDuration::from_micros(cfg.lan_latency_us.1));
        // Fingerprint coverage: the checksum folds the derived minimum, so
        // equal fingerprints imply equal lookahead inputs.
        let t2 = Topology::generate(&cfg, &mut StdRng::seed_from_u64(11));
        assert_eq!(t.fingerprint(), t2.fingerprint());
        assert_eq!(t.min_link_latency(), t2.min_link_latency());
    }

    #[test]
    fn latency_distances_lower_bound_hop_routes() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = TopologyConfig {
            n_as: 12,
            ..TopologyConfig::default()
        };
        let topo = Topology::generate(&cfg, &mut rng);
        let attach = topo.sample_attachments(24, &mut rng);
        let table = RouteTable::build(&topo, &attach);
        let (srcs, dsts) = attach.split_at(12);
        let dist = topo.latency_distances_from(srcs);
        for &d in dsts {
            let best_route = srcs
                .iter()
                .filter(|&&s| s != d)
                .map(|&s| table.route(s, d).latency.nanos())
                .min()
                .unwrap();
            assert!(
                dist[d as usize] <= best_route,
                "latency metric must lower-bound hop-minimizing routes"
            );
            assert!(
                dist[d as usize] >= topo.min_link_latency().nanos() || srcs.contains(&d),
                "distinct-router distance below a single link"
            );
        }
    }

    #[test]
    fn same_router_latency_is_below_generated_lan_links() {
        let cfg = TopologyConfig::default();
        assert!(SAME_ROUTER_LATENCY.nanos() < cfg.lan_latency_us.0 * 1_000);
    }

    #[test]
    fn attachments_are_access_routers() {
        let cfg = TopologyConfig::default();
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let a = t.sample_attachments(400, &mut rng);
        let set: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(set.len(), 400, "unique when enough access routers exist");
        let attachable: std::collections::BTreeSet<_> = t.attachable.iter().collect();
        assert!(a.iter().all(|r| attachable.contains(r)));
    }

    #[test]
    fn oversubscribed_attachments_reuse_routers() {
        let cfg = TopologyConfig {
            n_as: 4,
            ..TopologyConfig::default()
        };
        let t = Topology::generate(&cfg, &mut StdRng::seed_from_u64(2));
        let mut rng = StdRng::seed_from_u64(3);
        let n = t.attachable.len() * 3;
        let a = t.sample_attachments(n, &mut rng);
        assert_eq!(a.len(), n);
        assert!(a.iter().all(|&r| (r as usize) < t.n_routers()));
    }
}
