//! The three simulated workloads: `steady`, `shared` and `lifecycle`.
//!
//! Each repetition builds a fresh world from the seed, so every repetition
//! of one seed replays the identical simulation; only host time differs.
//! Completion is checked at coarse simulated intervals and latencies are
//! read from the timestamps the nodes recorded, so the checks neither
//! alter the simulated run nor show up as per-event kernel time.

use std::time::Instant;

use fuse_core::{FuseConfig, FuseId};
use fuse_harness::chaos::{standard_invariants, RunContext};
use fuse_harness::world::ChaosObservable;
use fuse_sim::{ProcId, SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::fork;
use crate::layers::{self, Clock, Layer};
use crate::stats::{Fingerprint, Latencies};
use crate::world::{span, Layers, World, WorldSpec};

/// The paper's detection budget (§7.4; the chaos runner's default).
const BUDGET: SimDuration = SimDuration::from_secs(480);
/// How long burned groups get to clear their state before the orphan check.
const ORPHAN_GRACE: SimDuration = SimDuration::from_secs(240);

/// Group size (root plus nine members).
const GROUP_SIZE: usize = 10;
/// Warm-up before populating: one ping period, so per-neighbour pings
/// reach cadence.
const STEADY_WARMUP: SimDuration = SimDuration::from_secs(90);
/// Settling time after the groups exist, so install traffic drains.
const STEADY_SETTLE: SimDuration = SimDuration::from_secs(120);
/// Simulated time of the crash wave inside the timed phase: detection,
/// overlay repair and the first FUSE repairs. Fixed, so every seed times
/// the same span; the wave's work grows unevenly after it (repair traffic
/// keeps rising past the last notification, differently per seed). The
/// wave then runs on, untimed, until every survivor is notified or the
/// budget is spent; latencies cover the whole wave.
const WAVE_TIMED: SimDuration = SimDuration::from_secs(120);
/// The timed phase is split into chunks of fixed work, each timed on its
/// own, so repetitions can be compared chunk by chunk (see
/// [`SimRep::chunks`]): chunks of simulated time in `steady`/`shared`...
const CHUNK: SimDuration = SimDuration::from_secs(10);
/// ...and of lifecycles in `lifecycle`.
const CHUNK_LIFECYCLES: usize = 10;
/// Draws the crash wave's victims. The wave is fixed like the topology: the
/// victims set most of the wave's work (events in its timed part vary by
/// ±20 % over seeds with seeded victims, ±2 % with fixed ones), which would
/// swamp any change to the code it runs. The seed still draws membership,
/// so which groups a victim belongs to, and the kernel's random stream.
const CRASH_PLAN_SEED: u64 = 0x5eed_c4a5;
/// Completion-check interval of the untimed rest of the wave and of the
/// orphan grace.
const WAVE_STEP: SimDuration = SimDuration::from_secs(5);
/// Creation-check interval while populating.
const POPULATE_STEP: SimDuration = SimDuration::from_secs(1);
/// Warm-up before the first lifecycle.
const LIFECYCLE_WARMUP: SimDuration = SimDuration::from_secs(10);
/// Completion-check interval of the lifecycle loop.
const LIFECYCLE_STEP: SimDuration = SimDuration::from_millis(10);
/// Longest a lifecycle create or notification may take before it counts
/// as failed.
const LIFECYCLE_TIMEOUT: SimDuration = SimDuration::from_secs(60);

/// Size of a sim workload.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Overlay size; `steady` and `shared` populate as many groups.
    pub nodes: usize,
    /// Lifecycles `lifecycle` runs in its measured phase.
    pub lifecycles: usize,
    /// The quiet window that opens the `steady`/`shared` phase.
    pub quiet: SimDuration,
}

impl Scale {
    /// The benchmark's scale: §7.5's 400 nodes and 400 groups of ten.
    pub const FULL: Scale = Scale {
        nodes: 400,
        lifecycles: 500,
        quiet: SimDuration::from_secs(600),
    };

    /// Nodes the crash wave stops: 5 %.
    fn crash_nodes(&self) -> usize {
        self.nodes / 20
    }
}

/// Which sim workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// §7.5 quiet state plus a crash wave, per-(group, link) liveness.
    Steady,
    /// The same on the shared liveness plane.
    Shared,
    /// Closed-loop create → signal → notified, one group in flight.
    Lifecycle,
}

impl SimKind {
    fn fuse_config(self) -> FuseConfig {
        let mut c = FuseConfig::default();
        c.shared_plane = self == SimKind::Shared;
        c
    }

    /// Creations attempted and the nominal notification sample count that
    /// fixes the notify tail.
    fn nominal_samples(self, scale: &Scale) -> (usize, usize) {
        match self {
            // A 5 % crash wave hits ~40 % of ten-member groups, leaving
            // ~3.8 (group, survivor) samples per group; 2.5 is a floor.
            SimKind::Steady | SimKind::Shared => (scale.nodes, scale.nodes * 5 / 2),
            SimKind::Lifecycle => (scale.lifecycles, scale.lifecycles * (GROUP_SIZE - 1)),
        }
    }
}

/// Host seconds of each set-up step of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Topology and attachments.
    pub topology_s: f64,
    /// Overlay tables and node construction.
    pub tables_s: f64,
    /// Warm-up simulation.
    pub warmup_s: f64,
    /// Group population and settling.
    pub populate_s: f64,
}

impl SetupTimes {
    /// Start to first measured event.
    pub fn total(&self) -> f64 {
        self.topology_s + self.tables_s + self.warmup_s + self.populate_s
    }
}

/// Counters read from the FUSE layers and the network, as phase deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Digests recomputed.
    pub hashes_computed: u64,
    /// Repair rounds started.
    pub repairs_started: u64,
    /// Hard notifications sent.
    pub hard_sent: u64,
    /// Shared-plane suspicions.
    pub suspects: u64,
    /// Shared-plane refutations.
    pub refutations: u64,
    /// Route-oracle queries.
    pub route_queries: u64,
    /// Route-oracle misses.
    pub route_misses: u64,
    /// Notifications delivered to applications.
    pub notifications: u64,
}

/// One repetition's results.
pub struct SimRep {
    /// Set-up host times.
    pub setup: SetupTimes,
    /// Host seconds of the measured phase.
    pub phase_s: f64,
    /// Host seconds of each fixed-work chunk of the phase, in order; they
    /// sum to `phase_s`.
    pub chunks: Vec<f64>,
    /// Kernel events in the phase.
    pub events: u64,
    /// Per-node traffic rates `(msgs/s, bytes/s)` of the §7.5 table: over
    /// the quiet window in `steady`/`shared` (the crash wave's repair
    /// traffic varies by seed far more than the quiet state does), over
    /// the whole phase in `lifecycle`.
    pub rates: (f64, f64),
    /// Messages sent in the phase per class label, most first.
    pub classes: Vec<(&'static str, u64)>,
    /// Messages and bytes sent in the phase.
    pub msgs: u64,
    /// See `msgs`.
    pub bytes: u64,
    /// Create latencies (simulated ms).
    pub create: Latencies,
    /// Notification latencies (simulated ms).
    pub notify: Latencies,
    /// Operations attempted: creations plus expected notifications.
    pub attempted: u64,
    /// Failed operations, one per violation.
    pub violations: Vec<String>,
    /// Groups that burned though no participant crashed (FUSE may notify
    /// spuriously; reported, not failed).
    pub spurious_groups: usize,
    /// Digest of the simulated statistics.
    pub fingerprint: u64,
    /// Digest of the timed phase alone (see [`phase_fingerprint`]).
    pub phase_fingerprint: u64,
    /// The measured phase replayed on forked copies of the set-up world.
    pub replays: Vec<Replay>,
    /// Per-layer host time in the phase (all zero untraced).
    pub clock: Clock,
    /// Layer counters in the phase.
    pub counts: LayerCounts,
}

/// What a forked replay of the measured phase reports back.
pub struct Replay {
    /// Digest of its phase; must equal the repetition's
    /// [`SimRep::phase_fingerprint`].
    pub fingerprint: u64,
    /// Host seconds of each chunk of its phase.
    pub chunks: Vec<f64>,
}

impl SimRep {
    /// Chunk times of every run of the phase: the repetition's own, then
    /// its replays'.
    pub fn phase_runs(&self) -> impl Iterator<Item = &[f64]> {
        std::iter::once(&self.chunks[..]).chain(self.replays.iter().map(|r| &r.chunks[..]))
    }
}

/// Host times of the phase's chunks.
struct Chunks {
    last: Instant,
    times: Vec<f64>,
}

impl Chunks {
    /// Starts timing now.
    fn start() -> Chunks {
        Chunks {
            last: Instant::now(),
            times: Vec::new(),
        }
    }

    /// Ends the current chunk.
    fn cut(&mut self) {
        let now = Instant::now();
        self.times.push(now.duration_since(self.last).as_secs_f64());
        self.last = now;
    }

    /// Runs `d` of simulated time in [`CHUNK`]s.
    fn run<L: Layers>(&mut self, w: &mut World<L>, d: SimDuration) {
        let end = w.now() + d;
        while w.now() < end {
            w.run_for(CHUNK.min(end.since(w.now())));
            self.cut();
        }
    }
}

/// A group under test.
#[derive(Clone)]
struct Group {
    id: FuseId,
    /// Root first, then members.
    participants: Vec<ProcId>,
}

/// Snapshot of the counters a phase reports as deltas.
struct Marks {
    sim: SimTime,
    events: u64,
    traffic: (u64, u64),
    classes: Vec<(&'static str, u64)>,
    clock: Clock,
    counts: LayerCounts,
}

impl Marks {
    /// Reads every counter; FUSE counters are summed over the nodes that
    /// stay up (a crashed node takes its counters with it).
    fn take<L: Layers>(w: &World<L>, crashed: &[ProcId]) -> Marks {
        let mut c = LayerCounts::default();
        for p in (0..w.n() as ProcId).filter(|p| !crashed.contains(p)) {
            let Some(node) = w.node(p) else { continue };
            let f = node.fuse.stats();
            c.hashes_computed += f.hashes_computed;
            c.repairs_started += f.repairs_started;
            c.hard_sent += f.hard_sent;
            c.suspects += f.suspects;
            c.refutations += f.refutations;
            c.notifications += f.notifications;
        }
        let r = w.route_stats();
        c.route_queries = r.hits + r.misses;
        c.route_misses = r.misses;
        Marks {
            sim: w.now(),
            events: w.events(),
            traffic: w.traffic(),
            classes: w.class_msgs(),
            clock: layers::read(),
            counts: c,
        }
    }
}

/// A world set up for the measured phase, with what set-up recorded.
struct Prepared<L: Layers> {
    w: World<L>,
    setup: SetupTimes,
    create: Latencies,
    violations: Vec<String>,
    /// The workload's own random stream, as set-up left it.
    wrng: StdRng,
    /// The `steady`/`shared` groups (none in `lifecycle`).
    groups: Vec<Group>,
}

/// Builds and warms the world and, in `steady`/`shared`, populates it.
fn prepare<L: Layers>(kind: SimKind, scale: &Scale, seed: u64) -> Prepared<L> {
    let spec = WorldSpec {
        n: scale.nodes,
        seed,
        fuse: kind.fuse_config(),
    };
    let (mut w, built) = World::<L>::build(&spec);
    let mut setup = SetupTimes {
        topology_s: built.topology_s,
        tables_s: built.tables_s,
        ..SetupTimes::default()
    };
    let mut create = Latencies::for_count(kind.nominal_samples(scale).0, 1.0);
    let mut violations = Vec::new();
    let mut wrng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xbe7c);

    let warmup = match kind {
        SimKind::Lifecycle => LIFECYCLE_WARMUP,
        _ => STEADY_WARMUP,
    };
    let t = Instant::now();
    w.run_for(warmup);
    setup.warmup_s = t.elapsed().as_secs_f64();
    let mut groups = Vec::new();
    if kind != SimKind::Lifecycle {
        let t = Instant::now();
        groups = populate(&mut w, &mut wrng, &mut create, &mut violations);
        w.run_for(STEADY_SETTLE);
        setup.populate_s = t.elapsed().as_secs_f64();
    }
    Prepared {
        w,
        setup,
        create,
        violations,
        wrng,
        groups,
    }
}

/// Digest of the timed phase's simulated statistics: events, traffic and
/// messages per class.
fn phase_fingerprint(start: &Marks, end: &Marks) -> u64 {
    let mut fp = Fingerprint::default();
    fp.word(end.events - start.events);
    fp.word(end.traffic.0 - start.traffic.0);
    fp.word(end.traffic.1 - start.traffic.1);
    for &(class, n) in &end.classes {
        let before = start
            .classes
            .iter()
            .find(|c| c.0 == class)
            .map_or(0, |c| c.1);
        fp.word(n - before);
    }
    fp.value()
}

/// Runs one repetition of `kind` for `seed`: sets the world up once, runs
/// the measured phase on `replays` forked copies of the set-up world (see
/// [`crate::fork`]), then once more in this process.
pub fn run<L: Layers>(kind: SimKind, scale: &Scale, seed: u64, replays: usize) -> SimRep {
    let mut p = prepare::<L>(kind, scale, seed);
    let mut copies = Vec::new();
    let mut failed = Vec::new();
    for _ in 0..replays {
        let words = fork::in_child(|| {
            let r = measure(kind, scale, &mut p, true);
            let mut words = vec![r.phase_fingerprint];
            words.extend(r.chunks.iter().map(|c| c.to_bits()));
            words
        });
        match words {
            Ok(w) if !w.is_empty() => copies.push(Replay {
                fingerprint: w[0],
                chunks: w[1..].iter().map(|&b| f64::from_bits(b)).collect(),
            }),
            Ok(_) => failed.push("forked replay sent nothing".to_string()),
            Err(e) => failed.push(format!("forked replay failed: {e}")),
        }
    }
    let mut rep = measure(kind, scale, &mut p, false);
    rep.violations.extend(failed);
    rep.replays = copies;
    rep
}

/// The measured phase and the correctness checks after it, on a prepared
/// world.
///
/// A `replay` stops after the timed phase: its result carries the phase's
/// chunk times and fingerprint, and nothing else.
fn measure<L: Layers>(kind: SimKind, scale: &Scale, p: &mut Prepared<L>, replay: bool) -> SimRep {
    let w = &mut p.w;
    let setup = p.setup;
    let (nc, nn) = kind.nominal_samples(scale);
    let mut create = p.create.clone();
    let mut notify = Latencies::for_count(nn, 1.0);
    let mut violations = p.violations.clone();
    let mut wrng = p.wrng.clone();

    // Each entry: a group that burned and the instant of its fault.
    let mut faults: Vec<(Group, SimTime)> = Vec::new();
    // The groups the crash wave hit and its instant, once the timed part
    // is over.
    let mut wave = None;
    let mut crashed: Vec<ProcId> = Vec::new();
    let (start, end, mut chunks);
    let mut rate_window = None;
    // Groups no crash touched, with the crash instant.
    let mut unaffected: Vec<(Group, SimTime)> = Vec::new();
    match kind {
        SimKind::Steady | SimKind::Shared => {
            let groups = p.groups.clone();
            let mut all: Vec<ProcId> = (0..scale.nodes as ProcId).collect();
            all.shuffle(&mut StdRng::seed_from_u64(CRASH_PLAN_SEED));
            crashed = all[..scale.crash_nodes()].to_vec();
            start = Marks::take(w, &crashed);
            chunks = Chunks::start();
            chunks.run(w, scale.quiet);
            rate_window = Some((w.traffic(), scale.quiet.as_secs_f64()));
            let t_crash = w.now();
            for &p in &crashed {
                w.crash(p);
            }
            let (hit, miss): (Vec<Group>, Vec<Group>) = groups
                .into_iter()
                .partition(|g| g.participants.iter().any(|p| crashed.contains(p)));
            unaffected = miss.into_iter().map(|g| (g, t_crash)).collect();
            chunks.run(w, WAVE_TIMED);
            end = Marks::take(w, &crashed);
            wave = Some((hit, t_crash));
        }
        SimKind::Lifecycle => {
            start = Marks::take(w, &crashed);
            chunks = Chunks::start();
            for i in 0..scale.lifecycles {
                if i > 0 && i % CHUNK_LIFECYCLES == 0 {
                    chunks.cut();
                }
                let participants = pick_group(&mut wrng, scale.nodes);
                let root = participants[0];
                let t0 = w.now();
                let ticket = w.start_create(root, &participants[1..]);
                let deadline = t0 + LIFECYCLE_TIMEOUT;
                let outcome = loop {
                    if let Some(o) = span::<L, _>(Layer::Check, || w.created(root, ticket)) {
                        break Some(o);
                    }
                    if w.now() >= deadline {
                        break None;
                    }
                    w.run_for(LIFECYCLE_STEP);
                };
                let id = match outcome {
                    Some((Ok(h), at)) => {
                        create.add(at.since(t0).as_millis_f64());
                        h.id
                    }
                    Some((Err(e), _)) => {
                        violations.push(format!("create at node {root} failed: {e:?}"));
                        continue;
                    }
                    None => {
                        violations.push(format!("create at node {root} never completed"));
                        continue;
                    }
                };
                let t1 = w.now();
                w.signal(root, id);
                let g = Group { id, participants };
                let deadline = t1 + LIFECYCLE_TIMEOUT;
                while w.now() < deadline
                    && !span::<L, _>(Layer::Check, || {
                        all_notified(w, std::slice::from_ref(&g), &[])
                    })
                {
                    w.run_for(LIFECYCLE_STEP);
                }
                faults.push((g, t1));
            }
            chunks.cut();
            end = Marks::take(w, &crashed);
        }
    }

    let phase_fingerprint = phase_fingerprint(&start, &end);
    if let (false, Some((hit, t_crash))) = (replay, wave) {
        let deadline = t_crash + BUDGET;
        while w.now() < deadline && !span::<L, _>(Layer::Check, || all_notified(w, &hit, &crashed))
        {
            w.run_for(WAVE_STEP);
        }
        faults = hit.into_iter().map(|g| (g, t_crash)).collect();
    }
    if replay {
        // Nothing after the timed phase is looked at.
        faults.clear();
        unaffected.clear();
    }

    // Latencies from recorded timestamps: every surviving participant
    // except an explicit signaller, which hears its own signal at once
    // (Fig. 8 leaves it out too).
    let signaller = |g: &Group| (kind == SimKind::Lifecycle).then_some(g.participants[0]);
    for (g, t0) in &faults {
        for &p in &g.participants {
            if crashed.contains(&p) || signaller(g) == Some(p) {
                continue;
            }
            for t in w.failures(p, g.id) {
                if t >= *t0 {
                    notify.add(t.since(*t0).as_millis_f64());
                }
            }
        }
    }

    // Correctness after the phase: burned groups get the orphan grace, then
    // every group is held to the chaos suite's invariants.
    let spurious: Vec<(Group, SimTime)> = unaffected
        .into_iter()
        .filter(|(g, _)| {
            g.participants
                .iter()
                .any(|&p| !w.failures(p, g.id).is_empty())
        })
        .collect();
    let spurious_groups = spurious.len();
    let grace_end = w.now() + ORPHAN_GRACE;
    let burned: Vec<FuseId> = faults.iter().chain(&spurious).map(|(g, _)| g.id).collect();
    while w.now() < grace_end && any_state(w, &burned) {
        w.run_for(WAVE_STEP);
    }
    let invariants = standard_invariants();
    let mut attempted = nc as u64;
    for (g, t0) in faults.iter().chain(&spurious) {
        let ever_crashed: Vec<ProcId> = g
            .participants
            .iter()
            .copied()
            .filter(|p| crashed.contains(p))
            .collect();
        attempted += (g.participants.len() - ever_crashed.len()) as u64;
        let ctx = RunContext {
            id: g.id,
            participants: g.participants.clone(),
            ever_crashed,
            burned: true,
            benign: false,
            deadline: *t0 + BUDGET,
        };
        for inv in &invariants {
            for v in inv.check(&*w, &ctx) {
                violations.push(v.to_string());
            }
        }
    }

    let phase_s = chunks.times.iter().sum();
    let phase_sim_s = end.sim.since(start.sim).as_secs_f64();
    let events = end.events - start.events;
    let msgs = end.traffic.0 - start.traffic.0;
    let bytes = end.traffic.1 - start.traffic.1;
    let mut fp = Fingerprint::default();
    for word in [
        events,
        msgs,
        bytes,
        violations.len() as u64,
        spurious_groups as u64,
    ] {
        fp.word(word);
    }
    fp.multiset(create.samples());
    fp.multiset(notify.samples());
    let mut classes: Vec<(&'static str, u64)> = end
        .classes
        .iter()
        .map(|&(c, n)| {
            let before = start
                .classes
                .iter()
                .find(|(b, _)| *b == c)
                .map_or(0, |b| b.1);
            (c, n - before)
        })
        .filter(|&(_, n)| n > 0)
        .collect();
    classes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    let (s, e) = (start.counts, end.counts);
    SimRep {
        setup,
        phase_s,
        chunks: chunks.times,
        rates: {
            let (traffic, sim_s) = rate_window.unwrap_or((end.traffic, phase_sim_s));
            let node_s = scale.nodes as f64 * sim_s;
            (
                (traffic.0 - start.traffic.0) as f64 / node_s,
                (traffic.1 - start.traffic.1) as f64 / node_s,
            )
        },
        events,
        classes,
        msgs,
        bytes,
        create,
        notify,
        attempted,
        violations,
        spurious_groups,
        fingerprint: fp.value(),
        phase_fingerprint,
        replays: Vec::new(),
        clock: end.clock.since(&start.clock),
        counts: LayerCounts {
            hashes_computed: e.hashes_computed - s.hashes_computed,
            repairs_started: e.repairs_started - s.repairs_started,
            hard_sent: e.hard_sent - s.hard_sent,
            suspects: e.suspects - s.suspects,
            refutations: e.refutations - s.refutations,
            route_queries: e.route_queries - s.route_queries,
            route_misses: e.route_misses - s.route_misses,
            notifications: e.notifications - s.notifications,
        },
    }
}

/// A random root followed by nine distinct random members.
fn pick_group(rng: &mut StdRng, nodes: usize) -> Vec<ProcId> {
    let mut all: Vec<ProcId> = (0..nodes as ProcId).collect();
    all.shuffle(rng);
    all.truncate(GROUP_SIZE);
    all
}

/// One group rooted at every node, and every node a member of nine other
/// groups, with roots and memberships drawn at random. The balance keeps
/// the crash wave's work steady across seeds: any 5 % of nodes are the
/// roots of exactly 5 % of the groups and hold exactly 5 % of the
/// memberships (uniform draws vary both by ±20 %).
fn balanced_groups(rng: &mut StdRng, n: usize) -> Vec<Vec<ProcId>> {
    let mut roots: Vec<ProcId> = (0..n as ProcId).collect();
    roots.shuffle(rng);
    let mut groups: Vec<Vec<ProcId>> = roots.into_iter().map(|r| vec![r]).collect();
    for _ in 1..GROUP_SIZE {
        let mut perm: Vec<ProcId> = (0..n as ProcId).collect();
        perm.shuffle(rng);
        // A node drawn into a group it is already in swaps places with one
        // whose two placements are both legal.
        for i in 0..n {
            if groups[i].contains(&perm[i]) {
                let j = (1..n)
                    .map(|k| (i + k) % n)
                    .find(|&j| !groups[i].contains(&perm[j]) && !groups[j].contains(&perm[i]))
                    .expect("a legal swap exists while groups are far smaller than the overlay");
                perm.swap(i, j);
            }
        }
        for (g, m) in groups.iter_mut().zip(perm) {
            g.push(m);
        }
    }
    groups
}

/// Starts every `steady`/`shared` creation at once and steps until all
/// have completed.
fn populate<L: Layers>(
    w: &mut World<L>,
    rng: &mut StdRng,
    create: &mut Latencies,
    violations: &mut Vec<String>,
) -> Vec<Group> {
    let t0 = w.now();
    let pending: Vec<_> = balanced_groups(rng, w.n())
        .into_iter()
        .map(|participants| {
            let ticket = w.start_create(participants[0], &participants[1..]);
            (participants, ticket)
        })
        .collect();
    let deadline = t0 + LIFECYCLE_TIMEOUT;
    while w.now() < deadline
        && pending
            .iter()
            .any(|(p, ticket)| w.created(p[0], *ticket).is_none())
    {
        w.run_for(POPULATE_STEP);
    }
    let mut groups = Vec::new();
    for (participants, ticket) in pending {
        let root = participants[0];
        match w.created(root, ticket) {
            Some((Ok(h), at)) => {
                create.add(at.since(t0).as_millis_f64());
                groups.push(Group {
                    id: h.id,
                    participants,
                });
            }
            Some((Err(e), _)) => violations.push(format!("create at node {root} failed: {e:?}")),
            None => violations.push(format!("create at node {root} never completed")),
        }
    }
    groups
}

/// Whether every surviving participant of every group has been notified.
fn all_notified<L: Layers>(w: &World<L>, groups: &[Group], crashed: &[ProcId]) -> bool {
    groups.iter().all(|g| {
        g.participants
            .iter()
            .all(|&p| crashed.contains(&p) || !w.failures(p, g.id).is_empty())
    })
}

/// Whether any live node still holds state for one of `groups`.
fn any_state<L: Layers>(w: &World<L>, ids: &[FuseId]) -> bool {
    (0..w.n() as ProcId).any(|p| ids.iter().any(|&id| w.knows_group(p, id)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Plain, Traced};

    /// A world small enough for a unit test.
    const TINY: Scale = Scale {
        nodes: 40,
        lifecycles: 30,
        quiet: SimDuration::from_secs(60),
    };

    const KINDS: [SimKind; 3] = [SimKind::Steady, SimKind::Shared, SimKind::Lifecycle];

    #[test]
    fn layer_shares_and_kernel_self_time_sum_to_the_traced_phase() {
        for kind in KINDS {
            let r = run::<Traced>(kind, &TINY, 7, 0);
            let phase_ns = (r.phase_s * 1e9) as u64;
            let charged = r.clock.charged_ns();
            // The wrapped calls are disjoint intervals inside the phase, so
            // kernel self-time (the rest) is never negative.
            assert!(
                charged <= phase_ns,
                "{kind:?}: {charged} ns charged in a {phase_ns} ns phase"
            );
            let shares: f64 = r
                .clock
                .acc
                .iter()
                .map(|a| a.ns as f64 / phase_ns as f64)
                .sum();
            let self_share = (phase_ns - charged) as f64 / phase_ns as f64;
            assert!((shares + self_share - 1.0).abs() < 1e-9, "{kind:?}");
            for l in [Layer::Net, Layer::Overlay, Layer::Core, Layer::Trace] {
                assert!(
                    r.clock.get(l).calls > 0,
                    "{kind:?}: no calls charged to {l:?}"
                );
            }
            let liveness = r.clock.get(Layer::Liveness).calls;
            assert_eq!(
                liveness > 0,
                kind == SimKind::Shared,
                "{kind:?}: {liveness} probe calls"
            );
        }
    }

    #[test]
    fn plain_run_charges_nothing() {
        let r = run::<Plain>(SimKind::Lifecycle, &TINY, 7, 0);
        assert_eq!(r.clock, Clock::default());
    }

    #[test]
    fn traced_plain_and_forked_repetitions_of_a_seed_agree() {
        for kind in KINDS {
            let plain = run::<Plain>(kind, &TINY, 3, 1);
            let traced = run::<Traced>(kind, &TINY, 3, 1);
            assert_eq!(plain.fingerprint, traced.fingerprint, "{kind:?}");
            for r in plain.replays.iter().chain(&traced.replays) {
                assert_eq!(
                    r.fingerprint, plain.phase_fingerprint,
                    "{kind:?}: forked replay"
                );
                assert_eq!(r.chunks.len(), plain.chunks.len(), "{kind:?}");
            }
            assert_eq!(plain.replays.len() + traced.replays.len(), 2);
            assert_eq!(plain.events, traced.events, "{kind:?}");
            assert_ne!(
                run::<Plain>(kind, &TINY, 4, 0).fingerprint,
                plain.fingerprint,
                "{kind:?}: the seed must change the run"
            );
        }
    }

    #[test]
    fn balanced_groups_root_once_and_join_nine_times() {
        let n = 40;
        let groups = balanced_groups(&mut StdRng::seed_from_u64(9), n);
        assert_eq!(groups.len(), n);
        let mut roots = vec![0; n];
        let mut joins = vec![0; n];
        for g in &groups {
            assert_eq!(g.len(), GROUP_SIZE);
            let mut distinct = g.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(distinct.len(), GROUP_SIZE, "a node twice in {g:?}");
            roots[g[0] as usize] += 1;
            for &m in &g[1..] {
                joins[m as usize] += 1;
            }
        }
        assert!(roots.iter().all(|&r| r == 1));
        assert!(joins.iter().all(|&j| j == GROUP_SIZE - 1));
    }

    #[test]
    fn tiny_workloads_are_correct() {
        for kind in KINDS {
            let r = run::<Plain>(kind, &TINY, 5, 0);
            assert!(r.violations.is_empty(), "{kind:?}: {:?}", r.violations);
            assert!(r.notify.len() > 0, "{kind:?}: no notifications sampled");
            assert_eq!(
                r.create.len(),
                if kind == SimKind::Lifecycle { 30 } else { 40 }
            );
            assert!(r.attempted > r.create.len() as u64);
        }
    }
}
