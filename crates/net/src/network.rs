//! The complete messaging layer: topology + routes + TCP + faults.
//!
//! [`Network`] implements [`fuse_sim::Medium`]. Two emulation profiles
//! correspond to the paper's two evaluation vehicles (§7.1–7.2):
//!
//! * [`EmulationProfile::Simulator`] — pure propagation latency, no
//!   per-message overhead, connections always warm. The paper's discrete
//!   event simulator "used the same latency values, but did not model
//!   bandwidth constraints".
//! * [`EmulationProfile::Cluster`] — adds the measured ModelNet-cluster
//!   costs the paper reports: 2.8 ms per message send (XML serialization)
//!   plus 1.1 ms virtual-node multiplexing overhead, and a TCP
//!   connection-establishment round trip on first contact (connections are
//!   cached thereafter, which is why the paper's "2nd Cluster RPC" tracks
//!   the simulator curve in Figure 6).

use rand::rngs::StdRng;
use rand::Rng;

use fuse_obs::{Aggregates, Event, ObsSink, Recorder};
use fuse_sim::{Medium, ProcBitSet, ProcId, SimDuration, SimTime, Verdict};
use fuse_util::DetHashSet;

use crate::fault::FaultPlane;
use crate::routes::{OracleStats, RouteInfo, RouteOracle, MAX_ROUTE_HOPS};
use crate::tcp::{TcpConfig, TcpModel, TcpOutcome};
use crate::topology::{RouterId, Topology};

/// Which evaluation vehicle to emulate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EmulationProfile {
    /// The paper's discrete-event simulator: latency only.
    Simulator,
    /// The paper's 40-machine ModelNet cluster with 10 virtual nodes per
    /// machine.
    Cluster {
        /// Per-message serialization cost (paper micro-benchmark: 2.8 ms).
        serialization: SimDuration,
        /// Per-message virtual-node multiplexing cost (paper: 1.1 ms).
        virtualization: SimDuration,
    },
}

impl EmulationProfile {
    /// Cluster profile with the paper's measured constants.
    pub fn cluster_default() -> Self {
        EmulationProfile::Cluster {
            serialization: SimDuration::from_millis_f64(2.8),
            virtualization: SimDuration::from_millis_f64(1.1),
        }
    }

    fn per_message_overhead(&self) -> SimDuration {
        match *self {
            EmulationProfile::Simulator => SimDuration::ZERO,
            EmulationProfile::Cluster {
                serialization,
                virtualization,
            } => serialization + virtualization,
        }
    }

    fn models_connection_setup(&self) -> bool {
        matches!(self, EmulationProfile::Cluster { .. })
    }
}

/// Network configuration.
///
/// Routing has no knob: the [`RouteOracle`] holds one row per sending
/// attachment router, `filled rows × attachments × 8` bytes (DESIGN.md
/// §5.4).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Emulation profile (simulator vs cluster).
    pub profile: EmulationProfile,
    /// Uniform per-link Bernoulli loss rate (Figures 11–12); 0 disables.
    pub per_link_loss: f64,
    /// TCP policy.
    pub tcp: TcpConfig,
    /// Uniform jitter added to each delivery, for tie spreading.
    pub max_jitter: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            profile: EmulationProfile::Simulator,
            per_link_loss: 0.0,
            tcp: TcpConfig::default(),
            max_jitter: SimDuration::from_micros(500),
        }
    }
}

impl NetConfig {
    /// Simulator profile, no loss.
    pub fn simulator() -> Self {
        NetConfig::default()
    }

    /// Cluster profile with the paper's constants, no loss.
    pub fn cluster() -> Self {
        NetConfig {
            profile: EmulationProfile::cluster_default(),
            ..NetConfig::default()
        }
    }
}

/// The wide-area messaging layer (a [`Medium`] implementation).
pub struct Network {
    topo: Topology,
    routes: RouteOracle,
    attach: Vec<RouterId>,
    cfg: NetConfig,
    tcp: TcpModel,
    fault: FaultPlane,
    /// Process liveness as told by the kernel (checked on every send:
    /// a dense bitset keeps the lookup branchless and cache-resident).
    down: ProcBitSet,
    /// Warm TCP connections, normalized `(low, high)` pairs.
    conns: DetHashSet<(ProcId, ProcId)>,
    /// The observation recorder: break counts, content drops and byte
    /// accounting (offered and delivered, total and per message class) all
    /// live in its aggregates; the counter accessors below are views.
    obs: Recorder,
    /// Round-trip (data + ACK) delivery probability of a route, indexed by
    /// its hop count, at the current per-link loss rate.
    rt_success: Vec<f64>,
}

impl Network {
    /// Builds a network over `topo` with process `i` attached to
    /// `attach[i]`. No route is computed here: the [`RouteOracle`] fills a
    /// source attachment's row on its first send.
    pub fn new(topo: Topology, attach: Vec<RouterId>, cfg: NetConfig) -> Self {
        let routes = RouteOracle::new(&topo, &attach);
        let tcp = TcpModel::new(cfg.tcp.clone());
        let rt_success = round_trip_success(cfg.per_link_loss);
        Network {
            topo,
            routes,
            attach,
            cfg,
            tcp,
            fault: FaultPlane::new(),
            down: ProcBitSet::default(),
            conns: DetHashSet::default(),
            obs: Recorder::new(),
            rt_success,
        }
    }

    /// Convenience: generate a topology and attach `n_procs` random routers.
    pub fn generate(
        topo_cfg: &crate::topology::TopologyConfig,
        n_procs: usize,
        cfg: NetConfig,
        rng: &mut StdRng,
    ) -> Self {
        let topo = Topology::generate(topo_cfg, rng);
        let attach = topo.sample_attachments(n_procs, rng);
        Network::new(topo, attach, cfg)
    }

    /// The fault plane, for scripted failure injection.
    pub fn fault_mut(&mut self) -> &mut FaultPlane {
        &mut self.fault
    }

    /// Read-only fault plane.
    pub fn fault(&self) -> &FaultPlane {
        &self.fault
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of attached processes.
    pub fn n_procs(&self) -> usize {
        self.attach.len()
    }

    /// Route summary between two processes (filling `a`'s row of the route
    /// matrix on its first query).
    pub fn route_info(&self, a: ProcId, b: ProcId) -> RouteInfo {
        self.routes.route(&self.topo, a, b)
    }

    /// Hit/miss counters and occupancy of the route oracle.
    pub fn route_oracle_stats(&self) -> OracleStats {
        self.routes.stats()
    }

    /// Round-trip time between two processes (propagation only).
    pub fn rtt(&self, a: ProcId, b: ProcId) -> SimDuration {
        self.route_info(a, b).latency.saturating_mul(2)
    }

    /// Changes the uniform per-link loss rate mid-run (Figure 12 enables
    /// loss after group creation) and recomputes the hop-indexed
    /// round-trip success table.
    pub fn set_per_link_loss(&mut self, p: f64) {
        assert!((0.0..1.0).contains(&p), "loss rate must be in [0,1)");
        self.cfg.per_link_loss = p;
        self.rt_success = round_trip_success(p);
    }

    /// Current per-link loss rate.
    pub fn per_link_loss(&self) -> f64 {
        self.cfg.per_link_loss
    }

    /// Count of connection-break events so far.
    pub fn break_count(&self) -> u64 {
        self.obs.aggregates().breaks
    }

    /// Count of messages silently eaten by the §3.5 content adversary.
    pub fn content_drop_count(&self) -> u64 {
        self.obs.aggregates().content_drops
    }

    /// Total wire bytes offered to the network (every `unicast`, whatever
    /// its verdict). Sizes come from the codec's exact single-pass hints,
    /// so this is real encoded-bytes load, not an estimate.
    pub fn bytes_offered(&self) -> u64 {
        self.obs.aggregates().bytes_offered
    }

    /// Total wire bytes of messages the network accepted for delivery
    /// (the verdict was `Deliver`). Counted at send time: like a real
    /// in-flight packet, a message to a receiver that crashes before the
    /// arrival instant is still network load, even though the kernel drops
    /// it on arrival.
    pub fn bytes_delivered(&self) -> u64 {
        self.obs.aggregates().bytes_delivered
    }

    /// The full observation aggregates: totals above plus per-class byte
    /// and drop breakdowns, ready to merge into a run-level recorder.
    pub fn obs(&self) -> &Aggregates {
        self.obs.aggregates()
    }

    /// Whether a warm TCP connection exists between `a` and `b`.
    pub fn connection_warm(&self, a: ProcId, b: ProcId) -> bool {
        self.conns.contains(&normalize(a, b))
    }

    fn drop_conn(&mut self, a: ProcId, b: ProcId) {
        self.conns.remove(&normalize(a, b));
    }

    fn drop_all_conns_of(&mut self, n: ProcId) {
        self.conns.retain(|&(a, b)| a != n && b != n);
    }
}

impl fuse_sim::ShardMedium for Network {
    fn replicate(&self, shards: usize) -> Vec<Self> {
        // The Cluster profile's warm-connection cache changes delivery
        // latency based on per-replica send history, which diverges across
        // shard counts; only the Simulator profile's verdicts are a pure
        // function of (fault state, sender RNG) and therefore replicable.
        assert!(
            matches!(self.cfg.profile, EmulationProfile::Simulator),
            "sharded runs require the Simulator profile: Cluster \
             connection-setup state is per-replica send history"
        );
        (0..shards)
            .map(|_| Network {
                topo: self.topo.clone(),
                routes: RouteOracle::new(&self.topo, &self.attach),
                attach: self.attach.clone(),
                cfg: self.cfg.clone(),
                tcp: TcpModel::new(self.cfg.tcp.clone()),
                fault: self.fault.clone(),
                down: self.down.clone(),
                conns: self.conns.clone(),
                // Replicas start with FRESH recorders: each shard observes
                // only the sends it arbitrates, so summing per-shard
                // aggregates reproduces the single-shard totals exactly.
                // Copying the pre-split counts would double-count them.
                obs: Recorder::new(),
                rt_success: self.rt_success.clone(),
            })
            .collect()
    }

    fn shard_lookahead(&self, map: &fuse_sim::ShardMap) -> Vec<SimDuration> {
        use crate::topology::SAME_ROUTER_LATENCY;
        let min_link = self.topo.min_link_latency();
        assert!(
            min_link > SimDuration::ZERO,
            "sharded runs need positive link latencies for lookahead"
        );
        let k = map.shards();
        let mut sets: Vec<Vec<RouterId>> = vec![Vec::new(); k];
        for (p, &r) in self.attach.iter().enumerate() {
            sets[map.shard_of(p as ProcId)].push(r);
        }
        // Conservative floor for any pair that can share an attachment
        // router: co-located nodes talk at SAME_ROUTER_LATENCY, and two
        // distinct routers are at least one link apart.
        let floor = SAME_ROUTER_LATENCY.min(min_link);
        let mut in_src = vec![false; self.topo.n_routers()];
        let mut out = vec![SimDuration(u64::MAX); k * k];
        for i in 0..k {
            if sets[i].is_empty() {
                continue; // No senders: the u64::MAX bound saturates away.
            }
            let dist = self.topo.latency_distances_from(&sets[i]);
            for &r in &sets[i] {
                in_src[r as usize] = true;
            }
            for j in 0..k {
                if i == j {
                    continue;
                }
                let mut b = u64::MAX;
                for &rb in &sets[j] {
                    let d = if in_src[rb as usize] {
                        floor.nanos()
                    } else {
                        dist[rb as usize]
                    };
                    b = b.min(d);
                }
                out[i * k + j] = SimDuration(b);
            }
            for &r in &sets[i] {
                in_src[r as usize] = false;
            }
        }
        out
    }
}

/// Round-trip delivery probability per hop count, `0..=MAX_ROUTE_HOPS`:
/// data over the forward route and the ACK over the reverse route
/// (symmetric latencies, identical hop count), each surviving with the
/// route's one-way [`RouteInfo::delivery_prob`].
fn round_trip_success(per_link_loss: f64) -> Vec<f64> {
    (0..=MAX_ROUTE_HOPS)
        .map(|hops| {
            let route = RouteInfo {
                latency: SimDuration::ZERO,
                hops,
            };
            let p_one_way = route.delivery_prob(per_link_loss);
            p_one_way * p_one_way
        })
        .collect()
}

fn normalize(a: ProcId, b: ProcId) -> (ProcId, ProcId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl Medium for Network {
    fn unicast(
        &mut self,
        now: SimTime,
        rng: &mut StdRng,
        from: ProcId,
        to: ProcId,
        size: usize,
        class: &'static str,
    ) -> Verdict {
        assert!(
            (from as usize) < self.attach.len() && (to as usize) < self.attach.len(),
            "process not attached to the network"
        );
        self.obs.record(Event::BytesOffered {
            class,
            bytes: size as u64,
        });
        let route = self.routes.route(&self.topo, from, to);
        let rtt = route.latency.saturating_mul(2);

        // Administrative blocks and dead peers: TCP retransmits into the
        // void, then the sender sees a broken connection.
        if self.fault.blocked(from, to) || self.down.contains(to) {
            self.obs.record(Event::ConnectionBroken);
            self.drop_conn(from, to);
            return Verdict::Break {
                sender_notice: now + self.tcp.give_up_after(rtt),
            };
        }

        // The §3.5 content-based adversary: a matching message vanishes
        // *silently* — no retransmission, no broken-connection notice — so
        // only FUSE's own liveness machinery can notice. (An adversary that
        // dropped every TCP segment would eventually break the connection;
        // one that drops the message exactly once per attempt and lets
        // keepalives through is strictly harder to detect, and that is the
        // case modeled here.)
        if self.fault.content_blocked(from, to, class) {
            self.obs.record(Event::ContentDropped { class });
            return Verdict::Drop;
        }

        // Injected per-pair loss (chaos loss ramps) composes with the
        // route's own loss: data crosses `from -> to`, the ACK crosses
        // `to -> from`, each surviving its direction's injected rate.
        let mut p_success = self.rt_success[route.hops as usize];
        if self.fault.has_link_loss() {
            p_success *=
                (1.0 - self.fault.link_loss(from, to)) * (1.0 - self.fault.link_loss(to, from));
        }

        match self.tcp.attempt(rng, rtt, p_success) {
            TcpOutcome::Delivered { extra_delay } => {
                let mut latency = route.latency + extra_delay;
                latency = latency + self.cfg.profile.per_message_overhead();
                if self.cfg.profile.models_connection_setup()
                    && !self.conns.contains(&normalize(from, to))
                {
                    // SYN + SYN-ACK before the data segment.
                    latency = latency + rtt;
                }
                self.conns.insert(normalize(from, to));
                if self.cfg.max_jitter > SimDuration::ZERO {
                    latency = latency + SimDuration(rng.gen_range(0..=self.cfg.max_jitter.nanos()));
                }
                self.obs.record(Event::BytesDelivered {
                    class,
                    bytes: size as u64,
                });
                Verdict::Deliver { at: now + latency }
            }
            TcpOutcome::Broken { give_up_after } => {
                self.obs.record(Event::ConnectionBroken);
                self.drop_conn(from, to);
                Verdict::Break {
                    sender_notice: now + give_up_after,
                }
            }
        }
    }

    fn node_up(&mut self, id: ProcId) {
        self.down.remove(id);
    }

    fn node_down(&mut self, id: ProcId) {
        self.down.insert(id);
        self.drop_all_conns_of(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{TopologyConfig, SAME_ROUTER_LATENCY};
    use rand::SeedableRng;

    fn small_net(cfg: NetConfig) -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(123);
        let topo_cfg = TopologyConfig {
            n_as: 16,
            core_per_as: 4,
            chains_per_as: 2,
            chain_len: (2, 4),
            ..TopologyConfig::default()
        };
        let net = Network::generate(&topo_cfg, 20, cfg, &mut rng);
        (net, rng)
    }

    #[test]
    fn simulator_delivery_latency_is_propagation_plus_jitter() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        let info = net.route_info(0, 1);
        match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 100, "msg") {
            Verdict::Deliver { at } => {
                assert!(at.nanos() >= info.latency.nanos());
                assert!(at.nanos() <= info.latency.nanos() + 500_000);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn cluster_first_message_pays_connection_setup() {
        let (mut net, mut rng) = small_net(NetConfig::cluster());
        let info = net.route_info(0, 1);
        let rtt = info.latency.saturating_mul(2);
        let overhead = SimDuration::from_millis_f64(3.9);
        let first = match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 100, "msg") {
            Verdict::Deliver { at } => at,
            other => panic!("{other:?}"),
        };
        assert!(
            first.nanos() >= (info.latency + rtt + overhead).nanos(),
            "first message must include SYN round trip"
        );
        assert!(net.connection_warm(0, 1));
        let second = match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 100, "msg") {
            Verdict::Deliver { at } => at,
            other => panic!("{other:?}"),
        };
        assert!(
            second.nanos() < first.nanos(),
            "cached connection must be faster"
        );
        assert!(second.nanos() >= (info.latency + overhead).nanos());
    }

    #[test]
    fn blocked_pair_breaks_connection() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().add_blackhole(2, 3);
        match net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg") {
            Verdict::Break { sender_notice } => {
                // Default TCP gives up after 63 s for rtt << min_rto.
                assert_eq!(sender_notice, SimTime::ZERO + SimDuration::from_secs(63));
            }
            other => panic!("{other:?}"),
        }
        // Reverse direction unaffected.
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 3, 2, 64, "msg"),
            Verdict::Deliver { .. }
        ));
        assert_eq!(net.break_count(), 1);
    }

    #[test]
    fn dead_peer_breaks_and_conn_cache_resets() {
        let (mut net, mut rng) = small_net(NetConfig::cluster());
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Deliver { .. }
        ));
        assert!(net.connection_warm(4, 5));
        net.node_down(5);
        assert!(!net.connection_warm(4, 5), "crash drops cached connections");
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.node_up(5);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn heavy_loss_inflates_latency_and_sometimes_breaks() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.set_per_link_loss(0.05);
        let mut delayed = 0;
        let mut broken = 0;
        for _ in 0..2000 {
            match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg") {
                Verdict::Deliver { at } => {
                    if at.nanos() > SimDuration::from_secs(1).nanos() {
                        delayed += 1;
                    }
                }
                Verdict::Break { .. } => broken += 1,
                Verdict::Drop => {}
            }
        }
        assert!(delayed > 0, "retransmission delays must appear");
        assert!(broken > 0, "connections must break under heavy loss");
    }

    #[test]
    fn byte_accounting_tracks_offered_and_delivered() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        assert_eq!(net.bytes_offered(), 0);
        for _ in 0..10 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 33, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.bytes_offered(), 330);
        assert_eq!(net.bytes_delivered(), 330);
        // A blackholed pair counts as offered but never delivered.
        net.fault_mut().add_blackhole(0, 1);
        let _ = net.unicast(SimTime::ZERO, &mut rng, 0, 1, 7, "msg");
        assert_eq!(net.bytes_offered(), 337);
        assert_eq!(net.bytes_delivered(), 330);
    }

    #[test]
    fn zero_loss_never_breaks() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        for _ in 0..500 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.break_count(), 0);
    }

    #[test]
    fn route_cache_tracks_loss_rate_changes() {
        // The hop-indexed success table must follow the loss rate: prime it
        // at zero loss, crank loss to near-certain failure, then drop back
        // to zero — each regime must show its own behavior.
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        // Longest route between any two routers of the topology.
        let all: Vec<RouterId> = (0..net.topology().n_routers() as RouterId).collect();
        let eager = crate::routes::RouteTable::build(net.topology(), &all);
        let longest = all
            .iter()
            .flat_map(|&a| all.iter().map(move |&b| (a, b)))
            .map(|(a, b)| eager.route(a, b).hops)
            .max()
            .unwrap();
        assert!(longest >= 2, "degenerate topology");
        // Bit for bit the one-way delivery probability squared (data +
        // ACK): any other rounding would change every lossy trace.
        let check_table = |net: &Network, p: f64| {
            for hops in 0..=longest {
                let one_way = RouteInfo {
                    latency: SimDuration::ZERO,
                    hops,
                }
                .delivery_prob(p);
                assert_eq!(
                    net.rt_success[hops as usize].to_bits(),
                    (one_way * one_way).to_bits(),
                    "success table stale at {hops} hops, loss {p}"
                );
            }
        };
        check_table(&net, 0.0);
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        // Fig. 12's path: loss switched on mid-run, at several rates. Each
        // send must draw its TCP fate with its own route's success: replay
        // the TCP model and the jitter from a copy of the same RNG stream.
        let tcp = TcpModel::new(TcpConfig::default());
        for p in [0.004, 0.016, 0.1, 0.9] {
            net.set_per_link_loss(p);
            check_table(&net, p);
            let info = net.route_info(2, 3);
            let one_way = info.delivery_prob(p);
            for seed in 0..100 {
                let mut replay = StdRng::seed_from_u64(seed);
                let want = match tcp.attempt(
                    &mut replay,
                    info.latency.saturating_mul(2),
                    one_way * one_way,
                ) {
                    TcpOutcome::Delivered { extra_delay } => {
                        let jitter = replay.gen_range(0..=net.cfg.max_jitter.nanos());
                        Verdict::Deliver {
                            at: SimTime::ZERO + info.latency + extra_delay + SimDuration(jitter),
                        }
                    }
                    TcpOutcome::Broken { give_up_after } => Verdict::Break {
                        sender_notice: SimTime::ZERO + give_up_after,
                    },
                };
                let mut rng = StdRng::seed_from_u64(seed);
                assert_eq!(
                    net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg"),
                    want,
                    "loss {p}, seed {seed}"
                );
            }
        }
        let broken = (0..50)
            .filter(|_| {
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                    Verdict::Break { .. }
                )
            })
            .count();
        assert!(broken > 0, "stale table: extreme loss produced no breaks");
        net.set_per_link_loss(0.0);
        check_table(&net, 0.0);
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
    }

    /// A network with more processes than the small topology has access
    /// routers, so attachments wrap and repeat.
    fn oversubscribed_net() -> (Network, StdRng) {
        let mut rng = StdRng::seed_from_u64(7);
        let topo_cfg = TopologyConfig {
            n_as: 16,
            core_per_as: 4,
            chains_per_as: 2,
            chain_len: (2, 4),
            ..TopologyConfig::default()
        };
        let topo = Topology::generate(&topo_cfg, &mut rng);
        let n = topo.attachable.len() + 24;
        let attach = topo.sample_attachments(n, &mut rng);
        (Network::new(topo, attach, NetConfig::simulator()), rng)
    }

    /// Distinct attachment routers among processes `0..n`.
    fn distinct_routers(net: &Network, n: usize) -> usize {
        net.attach[..n].iter().collect::<DetHashSet<_>>().len()
    }

    #[test]
    fn one_dijkstra_per_distinct_source_attachment() {
        let (mut net, mut rng) = oversubscribed_net();
        let n = net.n_procs() as ProcId;
        let columns = distinct_routers(&net, n as usize);
        assert!(columns < n as usize, "processes must share routers");
        assert_eq!(
            net.route_oracle_stats().resident_rows,
            0,
            "construction must not compute routes"
        );
        // Every ordered pair, three times over: the first send out of each
        // attachment runs the only Dijkstra it will ever need.
        for _ in 0..3 {
            for a in 0..n {
                for b in 0..n {
                    if a != b {
                        let _ = net.unicast(SimTime::ZERO, &mut rng, a, b, 64, "msg");
                    }
                }
            }
        }
        let s = net.route_oracle_stats();
        assert_eq!(s.misses, columns as u64, "one miss per source attachment");
        assert_eq!(s.resident_rows, columns);
        let wide_area = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| net.attach[a as usize] != net.attach[b as usize])
            .count() as u64;
        assert_eq!(s.hits + s.misses, 3 * wide_area);
    }

    #[test]
    fn resident_bytes_are_filled_rows_times_columns() {
        let (net, _) = oversubscribed_net();
        let columns = distinct_routers(&net, net.n_procs());
        // Only the first 10 processes send: their attachments' rows fill,
        // the rest stay empty and cost nothing.
        let last = net.n_procs() as ProcId - 1;
        for a in 0..10 {
            for b in [0, last / 2, last] {
                net.route_info(a, b);
            }
        }
        let s = net.route_oracle_stats();
        assert_eq!(s.resident_rows, distinct_routers(&net, 10));
        assert_eq!(s.resident_bytes, s.resident_rows * columns * 8);
        assert!(s.resident_rows < columns);
    }

    #[test]
    fn co_located_processes_share_a_column() {
        let (net, _) = oversubscribed_net();
        let n = net.n_procs() as ProcId;
        let (a, b) = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| net.attach[a as usize] == net.attach[b as usize])
            .expect("oversubscribed attachments repeat");
        let lan = net.route_info(a, b);
        assert_eq!(lan.latency, SAME_ROUTER_LATENCY);
        assert_eq!(lan.hops, 0);
        assert_eq!(net.route_info(b, a), lan);
        assert_eq!(net.route_oracle_stats().misses, 0, "LAN hops need no row");
        // One row serves both: identical routes everywhere, one Dijkstra.
        for c in 0..n {
            assert_eq!(net.route_info(a, c), net.route_info(b, c));
        }
        assert_eq!(net.route_oracle_stats().misses, 1);
    }

    /// Heal-path regressions: every fault-plane *clear* operation must
    /// actually restore end-to-end delivery, not just mutate the rule set
    /// (the injection paths above assert the block; these assert the heal).
    #[test]
    fn reconnect_restores_end_to_end_delivery() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().disconnect(4);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().reconnect(4);
        for _ in 0..20 {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 4, 5, 64, "msg"),
                    Verdict::Deliver { .. }
                ),
                "delivery must resume after reconnect"
            );
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 5, 4, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
    }

    #[test]
    fn clear_blackhole_restores_end_to_end_delivery() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().add_blackhole(2, 3);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().clear_blackhole(2, 3);
        for _ in 0..20 {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 2, 3, 64, "msg"),
                    Verdict::Deliver { .. }
                ),
                "delivery must resume after clear_blackhole"
            );
        }
    }

    #[test]
    fn heal_partitions_restores_cross_cell_delivery() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().set_partition(1, 1);
        net.fault_mut().set_partition(2, 2);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 1, 2, 64, "msg"),
            Verdict::Break { .. }
        ));
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 1, 0, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().heal_partitions();
        for (a, b) in [(1, 2), (2, 1), (1, 0), (0, 2)] {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, a, b, 64, "msg"),
                    Verdict::Deliver { .. }
                ),
                "{a}->{b} must deliver after heal_partitions"
            );
        }
    }

    #[test]
    fn partitioned_node_returned_to_default_cell_reaches_unpartitioned_nodes() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().set_partition(6, 3);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
            Verdict::Break { .. }
        ));
        // Back into the default cell — NOT via heal_partitions — must reach
        // nodes that were never partitioned, in both directions.
        net.fault_mut().set_partition(6, 0);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
            Verdict::Deliver { .. }
        ));
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 7, 6, 64, "msg"),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn content_adversary_eats_matching_class_silently() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().drop_class("overlay.ping");
        for _ in 0..10 {
            assert!(
                matches!(
                    net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "overlay.ping"),
                    Verdict::Drop
                ),
                "matching class must vanish silently (no Break)"
            );
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "fuse.hard"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.content_drop_count(), 10);
        assert_eq!(net.break_count(), 0, "content drops are not breaks");
        // The adversary walking away restores delivery.
        net.fault_mut().clear_class_drops();
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "overlay.ping"),
            Verdict::Deliver { .. }
        ));
    }

    #[test]
    fn injected_pair_loss_behaves_like_link_loss() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        // Near-certain loss on one directed pair: sends there must suffer
        // (retransmission delays or breaks); an untouched pair must not.
        net.fault_mut().set_link_loss(0, 1, 0.95);
        let mut impaired = 0;
        for _ in 0..200 {
            match net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg") {
                Verdict::Deliver { at } => {
                    if at.nanos() > SimDuration::from_secs(1).nanos() {
                        impaired += 1;
                    }
                }
                Verdict::Break { .. } => impaired += 1,
                Verdict::Drop => {}
            }
        }
        assert!(impaired > 0, "95% injected loss must impair the pair");
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 6, 7, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        // Clearing the injected loss restores clean delivery.
        net.fault_mut().clear_link_loss();
        let breaks_before = net.break_count();
        for _ in 0..50 {
            assert!(matches!(
                net.unicast(SimTime::ZERO, &mut rng, 0, 1, 64, "msg"),
                Verdict::Deliver { .. }
            ));
        }
        assert_eq!(net.break_count(), breaks_before);
    }

    #[test]
    fn shard_lookahead_bounds_actual_deliveries() {
        use fuse_sim::{ShardMap, ShardMedium};
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        let map = ShardMap::new(4);
        let la = net.shard_lookahead(&map);
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    assert!(la[i * 4 + j] > SimDuration::ZERO, "bound {i}->{j}");
                }
            }
        }
        for from in 0..20u32 {
            for to in 0..20u32 {
                let (si, sj) = (map.shard_of(from), map.shard_of(to));
                if from == to || si == sj {
                    continue;
                }
                if let Verdict::Deliver { at } =
                    net.unicast(SimTime::ZERO, &mut rng, from, to, 64, "msg")
                {
                    assert!(
                        at.nanos() >= la[si * 4 + sj].nanos(),
                        "delivery {from}->{to} beat the conservative bound"
                    );
                }
            }
        }
    }

    #[test]
    fn replicas_agree_on_verdicts_given_equal_rng() {
        use fuse_sim::ShardMedium;
        let (net, _) = small_net(NetConfig::simulator());
        let mut reps = net.replicate(3);
        for m in &mut reps {
            m.fault_mut().set_link_loss(2, 3, 0.4);
            m.node_down(7);
        }
        for (a, b) in [(0u32, 1u32), (2, 3), (5, 9), (4, 7)] {
            let verdicts: Vec<Verdict> = reps
                .iter_mut()
                .map(|m| {
                    let mut rng = StdRng::seed_from_u64(42);
                    m.unicast(SimTime::ZERO, &mut rng, a, b, 64, "msg")
                })
                .collect();
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "replica verdicts diverged for {a}->{b}: {verdicts:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "Simulator profile")]
    fn cluster_profile_refuses_replication() {
        use fuse_sim::ShardMedium;
        let (net, _) = small_net(NetConfig::cluster());
        let _ = net.replicate(2);
    }

    #[test]
    fn disconnect_isolates_node_both_ways() {
        let (mut net, mut rng) = small_net(NetConfig::simulator());
        net.fault_mut().disconnect(8);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 8, 9, 64, "msg"),
            Verdict::Break { .. }
        ));
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 9, 8, 64, "msg"),
            Verdict::Break { .. }
        ));
        net.fault_mut().reconnect(8);
        assert!(matches!(
            net.unicast(SimTime::ZERO, &mut rng, 9, 8, 64, "msg"),
            Verdict::Deliver { .. }
        ));
    }
}
