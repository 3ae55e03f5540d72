//! The simulated world every sim workload drives, built from public parts:
//! `fuse_net::Network`, oracle overlay tables, `fuse_simdriver::NodeStack`
//! processes and the harness's `MsgTrace` sink, run by the sim kernel.
//!
//! The world is generic over [`Layers`]: [`Plain`] instantiates the plain
//! boundary types, [`Traced`] wraps each in [`Timed`]. Outside the kernel
//! block below only methods both kernels have are called (`add_process`,
//! `run_for`, `with_proc`, `proc`, `crash`, `now`, `events_executed`), so a
//! kernel swap edits that block alone.

use std::time::Instant;

use fuse_core::{
    CreateError, CreateTicket, FuseConfig, FuseId, GroupHandle, Notification, StackMsg,
};
use fuse_harness::world::ChaosObservable;
use fuse_harness::{MsgTrace, RecorderApp};
use fuse_net::{NetConfig, Network, OracleStats, TopologyConfig};
use fuse_obs::Aggregates;
use fuse_overlay::{build_oracle_tables, NodeInfo, NodeName, OverlayConfig};
use fuse_sim::{Medium, ProcId, Process, SimDuration, SimTime, TraceSink};
use fuse_simdriver::NodeStack;
use fuse_util::TimerKey;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::{charge, Layer, Timed};

/// The node process every workload runs.
pub type Node = NodeStack<RecorderApp>;

// ---- Kernel block: the only lines that name the concrete kernel. ----

/// The simulation kernel the benchmark runs on.
pub type Kernel<L> = fuse_sim::Sim<<L as Layers>::Proc, <L as Layers>::Net, <L as Layers>::Sink>;

fn new_kernel<L: Layers>(seed: u64, net: L::Net, sink: L::Sink) -> Kernel<L> {
    fuse_sim::Sim::with_trace(seed, net, sink)
}

fn network_of<L: Layers>(k: &Kernel<L>) -> &Network {
    L::network(k.medium())
}

fn msg_trace_of<L: Layers>(k: &Kernel<L>) -> &MsgTrace {
    L::msg_trace(k.trace())
}

// ---- End of kernel block. ----

/// The boundary types one run instantiates.
pub trait Layers {
    /// Whether the benchmark's own calls are timed too.
    const TRACED: bool;
    /// The node process.
    type Proc: Process<Msg = StackMsg, Timer = TimerKey>;
    /// The network medium.
    type Net: Medium;
    /// The trace sink.
    type Sink: TraceSink<StackMsg>;
    /// Wraps a node.
    fn proc(n: Node) -> Self::Proc;
    /// The node inside a process.
    fn node(p: &Self::Proc) -> &Node;
    /// The node inside a process, mutably.
    fn node_mut(p: &mut Self::Proc) -> &mut Node;
    /// Wraps the network.
    fn net(n: Network) -> Self::Net;
    /// The network inside the medium.
    fn network(m: &Self::Net) -> &Network;
    /// Wraps the message recorder.
    fn sink(s: MsgTrace) -> Self::Sink;
    /// The message recorder inside the sink.
    fn msg_trace(s: &Self::Sink) -> &MsgTrace;
}

/// The plain types: what the end-to-end run measures.
pub struct Plain;

impl Layers for Plain {
    const TRACED: bool = false;
    type Proc = Node;
    type Net = Network;
    type Sink = MsgTrace;
    fn proc(n: Node) -> Node {
        n
    }
    fn node(p: &Node) -> &Node {
        p
    }
    fn node_mut(p: &mut Node) -> &mut Node {
        p
    }
    fn net(n: Network) -> Network {
        n
    }
    fn network(m: &Network) -> &Network {
        m
    }
    fn sink(s: MsgTrace) -> MsgTrace {
        s
    }
    fn msg_trace(s: &MsgTrace) -> &MsgTrace {
        s
    }
}

/// Every boundary wrapped in a timing adapter: the per-layer run.
pub struct Traced;

impl Layers for Traced {
    const TRACED: bool = true;
    type Proc = Timed<Node>;
    type Net = Timed<Network>;
    type Sink = Timed<MsgTrace>;
    fn proc(n: Node) -> Timed<Node> {
        Timed(n)
    }
    fn node(p: &Timed<Node>) -> &Node {
        &p.0
    }
    fn node_mut(p: &mut Timed<Node>) -> &mut Node {
        &mut p.0
    }
    fn net(n: Network) -> Timed<Network> {
        Timed(n)
    }
    fn network(m: &Timed<Network>) -> &Network {
        &m.0
    }
    fn sink(s: MsgTrace) -> Timed<MsgTrace> {
        Timed(s)
    }
    fn msg_trace(s: &Timed<MsgTrace>) -> &MsgTrace {
        &s.0
    }
}

/// Runs `f`, charging its host time to `layer` in the traced run only
/// (`L::TRACED` is a constant, so the plain run compiles to a bare call).
pub fn span<L: Layers, R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if L::TRACED {
        let t = Instant::now();
        let r = f();
        charge(layer, t);
        r
    } else {
        f()
    }
}

/// Seed of the emulated network. The network is the testbed, fixed like
/// the paper's single ModelNet topology; the workload seed draws groups,
/// faults and the kernel's RNG stream.
const TOPOLOGY_SEED: u64 = 0x7e57_0f05;

/// World shape.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Overlay size.
    pub n: usize,
    /// Seed of the kernel's RNG (jitter, transport loss draws).
    pub seed: u64,
    /// FUSE configuration.
    pub fuse: FuseConfig,
}

/// Host seconds of each world-building step.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// `Network::generate`: topology and attachments.
    pub topology_s: f64,
    /// `build_oracle_tables` plus node construction and boot.
    pub tables_s: f64,
}

/// A built world.
pub struct World<L: Layers> {
    sim: Kernel<L>,
    infos: Vec<NodeInfo>,
}

impl<L: Layers> World<L> {
    /// Builds `spec.n` oracle-bootstrapped nodes over the cluster network
    /// profile.
    pub fn build(spec: &WorldSpec) -> (World<L>, BuildTimes) {
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(TOPOLOGY_SEED);
        let net = Network::generate(
            &TopologyConfig::default(),
            spec.n,
            NetConfig::cluster(),
            &mut rng,
        );
        let topology_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let infos: Vec<NodeInfo> = (0..spec.n)
            .map(|i| NodeInfo::new(i as ProcId, NodeName::numbered(i)))
            .collect();
        let ov = OverlayConfig::default();
        let tables = build_oracle_tables(&infos, &ov);
        let mut sim = new_kernel::<L>(spec.seed, L::net(net), L::sink(MsgTrace::new()));
        for (info, (cw, ccw, rt)) in infos.iter().zip(tables) {
            let mut node = NodeStack::new(
                info.clone(),
                None,
                ov.clone(),
                spec.fuse.clone(),
                RecorderApp::new(),
            );
            node.overlay.preload_tables(cw, ccw, rt);
            sim.add_process(L::proc(node));
        }
        let tables_s = t.elapsed().as_secs_f64();
        (
            World { sim, infos },
            BuildTimes {
                topology_s,
                tables_s,
            },
        )
    }

    /// Overlay size.
    pub fn n(&self) -> usize {
        self.infos.len()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Runs `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        self.sim.run_for(d);
    }

    /// Live node `p`, if up.
    pub fn node(&self, p: ProcId) -> Option<&Node> {
        self.sim.proc(p).map(L::node)
    }

    /// Starts a group creation at `root` over `members`.
    pub fn start_create(&mut self, root: ProcId, members: &[ProcId]) -> CreateTicket {
        let others: Vec<NodeInfo> = members
            .iter()
            .map(|&m| self.infos[m as usize].clone())
            .collect();
        span::<L, _>(Layer::Core, || {
            self.sim.with_proc(root, |p, ctx| {
                L::node_mut(p).with_api(ctx, |api, _| api.create_group(others))
            })
        })
        .expect("root is up")
    }

    /// Signals failure of group `id` from `node`.
    pub fn signal(&mut self, node: ProcId, id: FuseId) {
        span::<L, _>(Layer::Core, || {
            self.sim.with_proc(node, |p, ctx| {
                L::node_mut(p).with_api(ctx, |api, _| api.signal_failure(id))
            })
        });
    }

    /// Crash-stops `p` silently.
    pub fn crash(&mut self, p: ProcId) {
        self.sim.crash(p);
    }

    /// The `Created` outcome of `ticket` at `root` and when it arrived.
    pub fn created(
        &self,
        root: ProcId,
        ticket: CreateTicket,
    ) -> Option<(Result<GroupHandle, CreateError>, SimTime)> {
        let app = &self.node(root)?.app;
        Some((app.created_result(ticket)?, app.created_at(ticket)?))
    }

    /// Messages and bytes the trace sink has counted so far.
    pub fn traffic(&self) -> (u64, u64) {
        let t = msg_trace_of::<L>(&self.sim);
        (t.total_msgs(), t.total_bytes())
    }

    /// Messages counted so far, per class label.
    pub fn class_msgs(&self) -> Vec<(&'static str, u64)> {
        msg_trace_of::<L>(&self.sim).counts.iter().collect()
    }

    /// Route-oracle counters of the network.
    pub fn route_stats(&self) -> OracleStats {
        network_of::<L>(&self.sim).route_oracle_stats()
    }

    /// Kernel events executed so far.
    pub fn events(&self) -> u64 {
        self.sim.events_executed()
    }
}

impl<L: Layers> ChaosObservable for World<L> {
    fn n_nodes(&self) -> usize {
        self.n()
    }

    fn is_up(&self, p: ProcId) -> bool {
        self.node(p).is_some()
    }

    fn failures(&self, p: ProcId, id: FuseId) -> Vec<SimTime> {
        self.node(p).map(|s| s.app.failures(id)).unwrap_or_default()
    }

    fn notifications(&self, p: ProcId, id: FuseId) -> Vec<(SimTime, Notification)> {
        self.node(p)
            .map(|s| s.app.notifications(id))
            .unwrap_or_default()
    }

    fn knows_group(&self, p: ProcId, id: FuseId) -> bool {
        self.node(p).is_some_and(|s| s.fuse.knows_group(id))
    }

    fn events_executed(&self) -> u64 {
        self.events()
    }

    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn obs_aggregates(&self) -> Aggregates {
        let mut a = Aggregates::new();
        for node in (0..self.n() as ProcId).filter_map(|p| self.node(p)) {
            a.merge_from(node.fuse.obs());
        }
        a.merge_from(network_of::<L>(&self.sim).obs());
        a
    }
}
