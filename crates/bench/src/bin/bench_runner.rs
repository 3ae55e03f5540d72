//! Bench runner: measures the repository's staked hot paths and emits one
//! machine-readable JSON document.
//!
//! Sections:
//!
//! * `sim_event_throughput` — kernel events/s, timing-wheel vs the
//!   preserved single-heap baseline;
//! * `wire_hot_path` — SHA-1 bytes/s (auto/portable/reference at
//!   64 B / 1 KiB / 16 KiB) and ns + allocs per single-pass encoded
//!   message (ping, 16-link reconcile, routed envelope);
//! * `churn` — fig10-style scripted crash/restart load on the wheel kernel
//!   (stakes the unboxed scripted-call path);
//! * `route_oracle` — the attachment-indexed route oracle: build time,
//!   hit/first-touch-miss latency (MAD-filtered medians) and resident route
//!   memory, at
//!   a fixed default-size topology (gated) and, at paper scale, the
//!   ~100k-router Mercator preset (reported);
//! * `sharded_kernel` — `ShardedSim` scaling at 1/2/4/8 shards on a
//!   million-process ping workload (50k at quick scale): measured and
//!   critical-path-projected events/s, cross-shard send ratio, and the
//!   gated 4-shard projected speedup (see `fuse_bench::shard_bench` for
//!   the single-core-host methodology);
//! * `liveness` — the shared failure-detector plane: subscription-registry
//!   cost at 1M (peer, group) edges (100k at quick scale), SWIM probe-round
//!   ns/allocs under a manual-clock host, the measured group-invariance of
//!   probe traffic, and the per-group-vs-shared rate arithmetic.
//!
//! ```text
//! cargo run --release -p fuse_bench --bin bench_runner            # paper scale
//! FUSE_BENCH_SCALE=quick cargo run -p fuse_bench --bin bench_runner  # CI smoke
//! BENCH_OUT=path.json      # output path (default BENCH_CI.json, gitignored)
//! BENCH_REPS=5             # wall-clock repetitions (best is reported)
//! ```
//!
//! Committed `BENCH_PR*.json` files are immutable trajectory stakes; the CI
//! `bench gate` (`bench_check`) compares a fresh emit against the latest
//! stake with a tolerance band.

use fuse_bench::kernel_bench::{self, KernelBenchConfig};
use fuse_bench::liveness_bench::{self, LivenessParams};
use fuse_bench::shard_bench::{self, ShardBenchConfig};
use fuse_bench::{banner, footer, route_bench, scale, wire_bench, Scale};

#[global_allocator]
static ALLOC: fuse_bench::alloc_count::CountingAlloc = fuse_bench::alloc_count::CountingAlloc;

fn main() {
    let start = banner("fuse hot paths (kernel, wire codec, SHA-1, churn, route oracle, liveness)");
    let quick = scale() == Scale::Quick;
    let cfg = if quick {
        KernelBenchConfig::quick()
    } else {
        KernelBenchConfig::paper()
    };
    let reps: u32 = std::env::var("BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5)
        .max(1);

    println!(
        "config: {} processes, {} ping period, {} sim time, seed {}, {} reps",
        cfg.processes, cfg.ping_period, cfg.sim_time, cfg.seed, reps
    );

    // --- Kernel throughput -------------------------------------------------
    let print_kernel = |name: &str, m: &kernel_bench::KernelMeasurement| {
        println!(
            "{name:<9} {:>10} events  {:>8.3} Mev/s  {:>7.1} ns/event  allocs/event: {}",
            m.events,
            m.events_per_sec / 1e6,
            m.ns_per_event,
            m.allocs_per_event
                .map(|a| format!("{a:.3}"))
                .unwrap_or_else(|| "n/a".into()),
        );
    };
    let wheel = kernel_bench::measure(reps, || kernel_bench::run_wheel(&cfg));
    print_kernel("wheel:", &wheel);
    let baseline = kernel_bench::measure(reps, || kernel_bench::run_baseline(&cfg));
    print_kernel("baseline:", &baseline);
    assert_eq!(
        wheel.events, baseline.events,
        "kernels disagreed on executed events — not comparable"
    );
    println!(
        "speedup (ns/event): {:.2}x",
        baseline.ns_per_event / wheel.ns_per_event
    );

    // --- Wire hot path -----------------------------------------------------
    let sha1 = wire_bench::sha1_suite(reps, quick);
    for p in &sha1 {
        println!(
            "sha1/{:>6}B  auto {:>7.3} GiB/s  portable {:>7.3} GiB/s  reference {:>7.3} GiB/s  ({:.2}x / {:.2}x)",
            p.size,
            p.auto_gib_s,
            p.portable_gib_s,
            p.reference_gib_s,
            p.auto_gib_s / p.reference_gib_s,
            p.portable_gib_s / p.reference_gib_s,
        );
    }
    let encode = wire_bench::encode_suite(reps, quick);
    for p in &encode {
        println!(
            "encode/{:<12} {:>4} B  {:>7.1} ns/msg  allocs/msg: {}",
            p.name,
            p.bytes,
            p.ns_per_msg,
            p.allocs_per_msg
                .map(|a| format!("{a:.4}"))
                .unwrap_or_else(|| "n/a".into()),
        );
    }

    // --- Churn (scripted crash/restart) ------------------------------------
    let churn = kernel_bench::measure(reps, || kernel_bench::run_wheel_churn(&cfg));
    print_kernel("churn:", &churn);

    // --- Route oracle ------------------------------------------------------
    let routes = route_bench::suite(reps, quick);
    for p in &routes {
        println!(
            "route/{:<9} {:>7} routers  build {:>9.1} ms  hit {:>7.1} ns  miss {:>11.1} ns  resident {:>6.1} MiB (eager would be {:>8.1} MiB)",
            p.name,
            p.routers,
            p.build_ms,
            p.hit_ns,
            p.miss_ns,
            p.resident_bytes as f64 / (1024.0 * 1024.0),
            p.eager_equiv_bytes as f64 / (1024.0 * 1024.0),
        );
    }

    // --- Sharded kernel scaling --------------------------------------------
    let shard_cfg = if quick {
        ShardBenchConfig::quick()
    } else {
        ShardBenchConfig::paper()
    };
    // The sweep runs every shard count; one warm-up-free repetition per
    // count keeps the paper-scale (4 × 1M-process) sweep affordable while
    // the gated speedup stays a within-run ratio.
    let shard_points = shard_bench::suite(&shard_cfg, reps.min(2));
    for p in &shard_points {
        println!(
            "shards={}  {:>10} events  measured {:>7.3} Mev/s  projected {:>7.3} Mev/s  cross {:>5.1}%  ({} rounds)",
            p.shards,
            p.events,
            p.measured_events_per_sec / 1e6,
            p.projected_events_per_sec / 1e6,
            p.cross_shard_ratio * 100.0,
            p.rounds,
        );
    }
    if let Some(s4) = shard_bench::projected_speedup(&shard_points, 4) {
        println!("projected speedup at 4 shards: {s4:.2}x");
    }

    // --- Shared liveness plane ---------------------------------------------
    let live_params = if quick {
        LivenessParams::quick()
    } else {
        LivenessParams::paper()
    };
    let live = liveness_bench::suite(&live_params, reps);
    println!(
        "liveness: {} edges / {} peers  subscribe {:>6.1} ns/edge (allocs/edge: {})  fanout {:>5.1} ns/group over {} groups",
        live.edges,
        live.peers,
        live.subscribe_ns_per_edge,
        live.subscribe_allocs_per_edge
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
        live.fanout_ns_per_group,
        live.fanout_groups,
    );
    println!(
        "liveness: {} probe rounds  {:>7.1} ns/round  allocs/round: {}  group-scaling ratio {:.3} ({} -> {} probes at 10x groups)",
        live.rounds,
        live.round_ns,
        live.round_allocs
            .map(|a| format!("{a:.3}"))
            .unwrap_or_else(|| "n/a".into()),
        live.group_scaling_ratio,
        live.probes_at_groups,
        live.probes_at_10x_groups,
    );
    println!(
        "liveness: per-group {:>9.1} pings/s ({:>12.1} B/s)  shared {:>6.3} probes/s ({:>7.1} B/s)  amortization {:.0}x",
        live.pergroup_pings_per_sec,
        live.pergroup_bytes_per_sec,
        live.shared_probes_per_sec,
        live.shared_bytes_per_sec,
        live.amortization_ratio,
    );

    // --- Emit --------------------------------------------------------------
    let doc = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"fuse_hot_paths\",\n",
            "  \"pr\": 7,\n",
            "  \"description\": \"Staked hot paths: kernel event throughput (wheel vs heap), ",
            "single-pass wire codec (ns/allocs per encoded message), SHA-1 piggyback digest ",
            "(GiB/s, three implementations), fig10-style scripted churn, the ",
            "attachment-indexed route oracle (hit/first-touch miss latency, resident route memory), ",
            "the sharded kernel's scaling sweep (measured + critical-path-projected ",
            "events/s at 1/2/4/8 shards), and the shared liveness plane (registry ",
            "subscribe/fanout cost, SWIM probe rounds, group-invariant probe traffic)\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"config\": {},\n",
            "  \"sim_event_throughput\": {},\n",
            "  \"wire_hot_path\": {},\n",
            "  \"churn\": {},\n",
            "  \"route_oracle\": {},\n",
            "  \"sharded_kernel\": {},\n",
            "  \"liveness\": {}\n",
            "}}\n"
        ),
        if quick { "quick" } else { "paper" },
        kernel_bench::render_config(&cfg, reps),
        kernel_bench::render_throughput_section(&wheel, &baseline),
        wire_bench::render_json(&sha1, &encode),
        kernel_bench::render_churn_section(&churn),
        route_bench::render_json(&routes),
        shard_bench::render_json(&shard_points),
        liveness_bench::render_json(&live),
    );
    // The emit must stay readable by the gate's own parser.
    if let Err(e) = fuse_bench::json::parse(&doc) {
        eprintln!("error: emitted JSON does not parse: {e}");
        std::process::exit(1);
    }
    let out = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_CI.json".to_string());
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("error: cannot write bench JSON to {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
    footer(start);
}
