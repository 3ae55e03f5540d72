//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <steady|shared|lifecycle|live> --seed <n>
//!           --seconds <s> --trace <0|1> [--node-bin <path>]
//! ```
//!
//! Repeats the workload's fixed work while another repetition fits in
//! `--seconds` (at least [`MIN_REPS`] times), checks every repetition's
//! outputs, and prints a human-readable summary followed by one JSON
//! result line. `--trace 0` reports the end-to-end metrics of plain runs;
//! `--trace 1` alternates plain and timed runs and reports the per-layer
//! split. See `README.md`.

mod fork;
mod layers;
mod live;
mod procfs;
mod report;
mod simload;
mod stats;
mod world;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::{Clock, Layer};
use report::{Outcome, END_TO_END, PER_LAYER};
use simload::{Scale, SimKind, SimRep};
use stats::{chunkwise_least, least, tail_label, Latencies};
use world::{Plain, Traced};

/// Fewest repetitions a run makes, whatever `--seconds` says: enough for
/// set-up to be timed several times and for repetitions of one seed to be
/// compared.
pub const MIN_REPS: usize = 2;

/// Forked replays of the measured phase per sim repetition (see
/// [`fork`]): each set-up then yields `1 + REPLAYS` timed phases.
const REPLAYS: usize = 2;

/// Whether a run that started at `t0` and made `reps` repetitions, the
/// last ending now, has time for another within `budget`.
pub fn another_rep(t0: Instant, reps: usize, budget: Duration) -> bool {
    let spent = t0.elapsed();
    reps < MIN_REPS || (reps > 0 && spent + spent / reps as u32 <= budget)
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time.
    pub seconds: Duration,
    /// Per-layer run instead of end-to-end.
    pub trace: bool,
    /// The `fuse-node` executable (`live` only).
    pub node_bin: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut node_bin) =
        (None, None, None, None, None);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s: f64 = val()?.parse().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--node-bin" => node_bin = Some(val()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        node_bin,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    let kind = match args.workload.as_str() {
        "steady" => Some(SimKind::Steady),
        "shared" => Some(SimKind::Shared),
        "lifecycle" => Some(SimKind::Lifecycle),
        "live" => None,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            return ExitCode::from(2);
        }
    };
    let outcome = match kind {
        Some(k) => sim_workload(k, &args),
        None => match live::run(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: live: {e}");
                return ExitCode::from(1);
            }
        },
    };
    let mut outcome = outcome;
    outcome.conform(if args.trace { &PER_LAYER } else { &END_TO_END });
    print!("{}", outcome.table());
    println!(
        "  correct={} attempted={} failed={} fail_frac={}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", outcome.json());
    ExitCode::SUCCESS
}

/// Repeats a sim workload and folds the repetitions into one outcome.
fn sim_workload(kind: SimKind, args: &Args) -> Outcome {
    let t0 = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    while another_rep(t0, plain.len() + traced.len(), args.seconds) {
        // The traced run alternates, so both kinds see the same host state.
        let timed = args.trace && plain.len() > traced.len();
        let rep = if timed {
            simload::run::<Traced>(kind, &Scale::FULL, args.seed, REPLAYS)
        } else {
            simload::run::<Plain>(kind, &Scale::FULL, args.seed, REPLAYS)
        };
        let phases: Vec<String> = rep
            .phase_runs()
            .map(|c| format!("{:.4}", c.iter().sum::<f64>()))
            .collect();
        println!(
            "  rep {:>2} {:<6} setup {:.4} s  phase {} s  events {}  fingerprint {:016x}",
            plain.len() + traced.len() + 1,
            if timed { "traced" } else { "plain" },
            rep.setup.total(),
            phases.join(" / "),
            rep.events,
            rep.fingerprint
        );
        if timed {
            traced.push(rep);
        } else {
            plain.push(rep);
        }
    }
    let first = &plain[0];
    let mut correct = true;
    // Determinism guard: every repetition of one seed, plain or traced,
    // replays the identical simulation.
    // Forked replays of the phase must match it too.
    let prints = plain.iter().chain(&traced).flat_map(|r| {
        let replays = r
            .replays
            .iter()
            .map(|p| (p.fingerprint, first.phase_fingerprint));
        std::iter::once((r.fingerprint, first.fingerprint)).chain(replays)
    });
    for (fp, want) in prints {
        if fp != want {
            println!("  DETERMINISM VIOLATION: fingerprint {fp:016x} != {want:016x}");
            correct = false;
        }
    }
    // Every repetition's violations count (a failed replay shows only in
    // the repetition that forked it); the first's are the workload's own.
    let violations: Vec<&String> = plain
        .iter()
        .chain(&traced)
        .flat_map(|r| &r.violations)
        .collect();
    for v in &violations {
        println!("  VIOLATION: {v}");
    }
    println!(
        "  fingerprint {:016x}: {} events, {} msgs, {} bytes, {} create and {} notify samples, \
         {} spurious groups",
        first.fingerprint,
        first.events,
        first.msgs,
        first.bytes,
        first.create.len(),
        first.notify.len(),
        first.spurious_groups
    );
    let classes: Vec<String> = first
        .classes
        .iter()
        .map(|(c, n)| format!("{c} {n}"))
        .collect();
    println!("  phase messages by class: {}", classes.join(", "));
    let failed = violations.len() as u64;
    let mut out = Outcome {
        attempted: first.attempted,
        failed,
        correct: correct && failed == 0,
        ..Outcome::default()
    };
    if args.trace {
        per_layer(&mut out, &plain, &traced);
    } else {
        end_to_end(&mut out, kind, &plain);
    }
    out
}

fn end_to_end(out: &mut Outcome, kind: SimKind, reps: &[SimRep]) {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup.total()).collect();
    let mut r = (reps[0].create.clone(), reps[0].notify.clone());
    // Paper references for the sim-time metrics (informational, not gated).
    let [create_ref, create_tail_ref, notify_ref, notify_tail_ref, msgs_ref, bytes_ref] = match kind
    {
        SimKind::Steady | SimKind::Shared => [
            "unvalidated: the paper times no 400 concurrent creates",
            "unvalidated",
            "paper Fig. 9: ping and repair timeouts dominate",
            "paper Fig. 9: all within ~4 min; budget 480 s",
            "quiet window; paper §7.5: 338 msg/s over 400 nodes = 0.845",
            "quiet window; unvalidated: the paper adds 20 B per ping",
        ],
        SimKind::Lifecycle => [
            "paper Fig. 7 (cluster): ~300 ms at size 2 to 2-3 s at size 32",
            "unvalidated",
            "paper Fig. 8 (cluster): ~100-400 ms band",
            "paper Fig. 8: max observed 1165 ms",
            "unvalidated: no paper value for this mix",
            "unvalidated: no paper value for this mix",
        ],
    };
    let tail_note = |l: &Latencies, reference: &str| {
        format!(
            "{} of {} samples; {reference}",
            tail_label(l.tail()),
            l.len()
        )
    };
    out.put("setup_s", least(&setup), "s");
    out.put(
        "phase_s",
        chunkwise_least(reps.iter().flat_map(SimRep::phase_runs)),
        "s",
    );
    out.put("peak_rss_mb", procfs::self_peak_rss_mb(), "MB");
    out.note("create_p50_ms", r.0.p50(), "ms", create_ref.into());
    out.note(
        "create_tail_ms",
        r.0.tail_value(),
        "ms",
        tail_note(&r.0, create_tail_ref),
    );
    out.note("notify_p50_ms", r.1.p50(), "ms", notify_ref.into());
    out.note(
        "notify_tail_ms",
        r.1.tail_value(),
        "ms",
        tail_note(&r.1, notify_tail_ref),
    );
    out.note("msgs_per_node_s", reps[0].rates.0, "1/s", msgs_ref.into());
    out.note("bytes_per_node_s", reps[0].rates.1, "B/s", bytes_ref.into());
    for (name, l) in [("create", &r.0), ("notify", &r.1)] {
        if !l.tail_supported() {
            println!(
                "  NOTE: {name} tail {} has fewer than ten samples beyond it ({} samples)",
                tail_label(l.tail()),
                l.len()
            );
        }
    }
}

/// Per-layer metrics of the traced repetitions (host times summed over
/// them), plus the tracing overhead against the plain ones.
fn per_layer(out: &mut Outcome, plain: &[SimRep], traced: &[SimRep]) {
    let mut clock = Clock::default();
    let mut phase_ns = 0u64;
    for r in traced {
        for (a, b) in clock.acc.iter_mut().zip(r.clock.acc.iter()) {
            a.calls += b.calls;
            a.ns += b.ns;
        }
        phase_ns += (r.phase_s * 1e9) as u64;
    }
    let r = &traced[0];
    let events = r.events as f64 * traced.len() as f64;
    let self_ns = phase_ns.saturating_sub(clock.charged_ns()) as f64;
    let share = |l: Layer| clock.get(l).ns as f64 / phase_ns as f64;
    let per_call = |l: Layer| {
        let a = clock.get(l);
        a.ns as f64 / a.calls.max(1) as f64
    };
    let calls = |l: Layer| clock.get(l).calls as f64 / traced.len() as f64;
    out.put("sim.events", r.events as f64, "count");
    out.put("sim.self_ns_per_event", self_ns / events, "ns");
    out.put("sim.self_share", self_ns / phase_ns as f64, "frac");
    out.put("net.unicast_calls", calls(Layer::Net), "count");
    out.put("net.unicast_ns", per_call(Layer::Net), "ns");
    out.put("net.share", share(Layer::Net), "frac");
    out.put("net.route_misses", r.counts.route_misses as f64, "count");
    out.put(
        "net.route_miss_frac",
        r.counts.route_misses as f64 / r.counts.route_queries.max(1) as f64,
        "frac",
    );
    out.put("net.breaks", r.clock.breaks as f64, "count");
    out.put("net.drops", r.clock.drops as f64, "count");
    for (l, calls_n, ns_n, share_n) in [
        (
            Layer::Overlay,
            "overlay.calls",
            "overlay.ns_per_call",
            "overlay.share",
        ),
        (Layer::Core, "core.calls", "core.ns_per_call", "core.share"),
        (
            Layer::Liveness,
            "liveness.calls",
            "liveness.ns_per_call",
            "liveness.share",
        ),
    ] {
        out.put(calls_n, calls(l), "count");
        out.put(ns_n, per_call(l), "ns");
        out.put(share_n, share(l), "frac");
    }
    out.put(
        "core.hashes_computed",
        r.counts.hashes_computed as f64,
        "count",
    );
    out.put(
        "core.repairs_started",
        r.counts.repairs_started as f64,
        "count",
    );
    out.put("core.hard_sent", r.counts.hard_sent as f64, "count");
    out.put(
        "core.msgs_per_notification",
        fuse_msgs(r) as f64 / r.counts.notifications.max(1) as f64,
        "msgs",
    );
    out.put("liveness.suspects", r.counts.suspects as f64, "count");
    out.put("liveness.refutations", r.counts.refutations as f64, "count");
    out.put("harness.trace_share", share(Layer::Trace), "frac");
    out.put("harness.check_share", share(Layer::Check), "frac");
    out.put(
        "wire.bytes_per_msg",
        r.bytes as f64 / r.msgs.max(1) as f64,
        "B",
    );
    let setup = |f: fn(&SimRep) -> f64| least(&traced.iter().map(f).collect::<Vec<_>>());
    out.put("setup.topology_s", setup(|r| r.setup.topology_s), "s");
    out.put("setup.tables_s", setup(|r| r.setup.tables_s), "s");
    out.put("setup.populate_s", setup(|r| r.setup.populate_s), "s");
    out.put("setup.warmup_s", setup(|r| r.setup.warmup_s), "s");
    let phase = |reps: &[SimRep]| chunkwise_least(reps.iter().flat_map(SimRep::phase_runs));
    out.put(
        "trace.overhead_frac",
        phase(traced) / phase(plain) - 1.0,
        "frac",
    );
}

/// `fuse.*` messages a repetition sent in its phase.
fn fuse_msgs(r: &SimRep) -> u64 {
    r.classes
        .iter()
        .filter(|(c, _)| c.starts_with("fuse."))
        .map(|(_, n)| n)
        .sum()
}
