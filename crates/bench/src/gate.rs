//! The CI perf-regression gate: compares a freshly measured `BENCH_CI.json`
//! against a committed trajectory stake (`BENCH_PR4.json`) with a relative
//! tolerance band, plus machine-independent absolute floors (allocations
//! per encoded message, SHA-1 speedup over the in-run rolled reference).
//!
//! Relative comparisons absorb machine-to-machine variance only up to the
//! band, so the strongest gates are the ratio and allocation metrics that
//! are measured *within* one run; the absolute throughput comparisons catch
//! the large (>tolerance) regressions the ISSUE asks CI to block.

use crate::json::Value;

/// Which direction of movement counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Metric must not rise more than the band above the stake (latencies,
    /// allocation counts).
    HigherIsWorse,
    /// Metric must not fall more than the band below the stake
    /// (throughputs, speedups).
    LowerIsWorse,
}

/// One gated metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dot path into both JSON documents.
    pub path: &'static str,
    /// Regression direction.
    pub direction: Direction,
    /// Extra absolute slack added on top of the relative band — lets
    /// near-zero stakes (e.g. 0.01 allocs/event) absorb counting noise
    /// without widening the relative band for everything else.
    pub abs_slack: f64,
    /// First stake PR whose document carries this metric. When the stake's
    /// top-level `"pr"` predates it, the metric is skipped instead of
    /// erroring — new sections can land without rewriting history, while a
    /// metric missing from a stake that *should* have it still fails.
    pub since_pr: u64,
    /// Absolute floor a `LowerIsWorse` metric must clear regardless of the
    /// stake (`f64::NEG_INFINITY` = none). Encodes hard acceptance bars —
    /// e.g. the 4-shard projected speedup must stay ≥ 1.6 even if a future
    /// stake drifts — that the relative band alone cannot express.
    pub floor: f64,
}

const fn m(path: &'static str, direction: Direction, abs_slack: f64) -> Metric {
    Metric {
        path,
        direction,
        abs_slack,
        since_pr: 0,
        floor: f64::NEG_INFINITY,
    }
}

/// A metric introduced by the PR-6 sharded-kernel stake, with an optional
/// hard floor.
const fn m6(path: &'static str, direction: Direction, floor: f64) -> Metric {
    Metric {
        path,
        direction,
        abs_slack: 0.0,
        since_pr: 6,
        floor,
    }
}

/// A metric introduced by the PR-7 shared-liveness stake.
const fn m7(path: &'static str, direction: Direction, abs_slack: f64) -> Metric {
    Metric {
        path,
        direction,
        abs_slack,
        since_pr: 7,
        floor: f64::NEG_INFINITY,
    }
}

/// A metric introduced by the PR-9 live load-harness stake.
const fn m9(path: &'static str, direction: Direction, abs_slack: f64, floor: f64) -> Metric {
    Metric {
        path,
        direction,
        abs_slack,
        since_pr: 9,
        floor,
    }
}

/// A metric introduced by the PR-10 chaos-SLO stake.
const fn m10(path: &'static str, direction: Direction, abs_slack: f64, floor: f64) -> Metric {
    Metric {
        path,
        direction,
        abs_slack,
        since_pr: 10,
        floor,
    }
}

/// The gated metric set. Scale-dependent numbers are deliberately absent:
/// totals (event counts, wall time), the wheel-vs-heap speedup (the heap
/// baseline is only slow at paper-scale queue depths), and churn
/// allocs/event (setup allocations amortize over far fewer events at quick
/// scale) are reported in the JSON but not gated. Per-unit costs carry a
/// small absolute slack where quick-scale runs amortize less setup.
pub const GATED: &[Metric] = &[
    // Kernel hot path. The absolute slack covers the quick scale's thinner
    // setup amortization and shared-runner noise; a 2x slowdown still
    // overshoots the bound by ~50%.
    m(
        "sim_event_throughput.wheel.ns_per_event",
        Direction::HigherIsWorse,
        20.0,
    ),
    // SHA-1 wire bytes/s, absolute and as in-run ratio.
    m(
        "wire_hot_path.sha1.16384B.auto_gib_s",
        Direction::LowerIsWorse,
        0.0,
    ),
    m(
        "wire_hot_path.sha1.1024B.auto_gib_s",
        Direction::LowerIsWorse,
        0.0,
    ),
    // The in-run ratio is gated on the *portable* path: the scalar-unroll
    // speedup is machine-independent, whereas the auto ratio collapses to
    // it on CPUs without the SHA extensions and would fail there with no
    // code change.
    m(
        "wire_hot_path.sha1.16384B.speedup_portable_vs_reference",
        Direction::LowerIsWorse,
        0.0,
    ),
    // Single-pass encode: latency and the zero-allocation property.
    m(
        "wire_hot_path.encode.ping.ns_per_msg",
        Direction::HigherIsWorse,
        0.0,
    ),
    m(
        "wire_hot_path.encode.reconcile16.ns_per_msg",
        Direction::HigherIsWorse,
        0.0,
    ),
    m(
        "wire_hot_path.encode.ping.allocs_per_msg",
        Direction::HigherIsWorse,
        0.01,
    ),
    m(
        "wire_hot_path.encode.reconcile16.allocs_per_msg",
        Direction::HigherIsWorse,
        0.01,
    ),
    // Scripted churn: the unboxed call path must stay fast. (Allocs/event
    // is reported but not gated — at quick scale the fixed setup
    // allocations dominate the much smaller event count.)
    m("churn.ns_per_event", Direction::HigherIsWorse, 40.0),
    // Route oracle, measured on the *fixed* default-size topology at both
    // scales (the `mercator` subsection is paper-scale-only and therefore
    // reported, not gated). Hit is two column lookups and a row load
    // (gated with a small absolute slack for shared-runner jitter on a
    // ~25 ns metric); miss is a first touch: a full Dijkstra over ~3.4k
    // routers plus the projection onto the columns. Both are
    // MAD-filtered medians, so a lone preempted sample cannot trip the
    // gate. The zero-allocation hit path gets the same absolute-slack
    // treatment as the encode metrics.
    m("route_oracle.fixed.hit_ns", Direction::HigherIsWorse, 30.0),
    m(
        "route_oracle.fixed.miss_ns",
        Direction::HigherIsWorse,
        50_000.0,
    ),
    m(
        "route_oracle.fixed.hit_allocs",
        Direction::HigherIsWorse,
        0.01,
    ),
    // Sharded kernel (PR 6). The speedup is a within-run ratio of projected
    // throughputs, so it is machine-independent — but not *scale*-
    // independent: the quick CI world (50k processes) projects less
    // parallelism than the paper-scale stake (1M), so the relative band is
    // disabled (infinite slack) and only the absolute floor binds — 1.6 is
    // the acceptance bar for 4 shards at any scale. Single-shard projected
    // throughput is held to the band so the sharded kernel's serial
    // overhead (availability fixpoint, merge) cannot silently grow.
    Metric {
        path: "sharded_kernel.speedup_4x_projected",
        direction: Direction::LowerIsWorse,
        abs_slack: f64::INFINITY,
        since_pr: 6,
        floor: 1.6,
    },
    m6(
        "sharded_kernel.shards_1.projected_events_per_sec",
        Direction::LowerIsWorse,
        f64::NEG_INFINITY,
    ),
    // Shared liveness plane (PR 7). Registry subscribe and Dead-verdict
    // fanout are per-unit costs with small absolute slack for quick-scale
    // amortization and hash noise; the probe-round cost includes the bench
    // harness's own timer queue, so it gets a wider absolute allowance.
    m7(
        "liveness.registry.subscribe_ns_per_edge",
        Direction::HigherIsWorse,
        100.0,
    ),
    m7(
        "liveness.registry.fanout_ns_per_group",
        Direction::HigherIsWorse,
        20.0,
    ),
    m7(
        "liveness.detector.round_ns",
        Direction::HigherIsWorse,
        2000.0,
    ),
    // Quick-scale runs amortize the detector's setup allocations over a
    // quarter of the paper-scale rounds; the slack covers that.
    m7(
        "liveness.detector.round_allocs",
        Direction::HigherIsWorse,
        0.25,
    ),
    // The plane's load-bearing claim: probe traffic must not move when the
    // group count does. Measured within one run, so no absolute slack.
    m7(
        "liveness.scaling.group_scaling_ratio",
        Direction::HigherIsWorse,
        0.0,
    ),
    // groups/peers. Scale-dependent (31250 at paper scale, 3125 quick), so
    // the relative band is disabled and only the floor binds: the stake
    // must always show at least three orders of magnitude of amortization.
    Metric {
        path: "liveness.rates.amortization_ratio",
        direction: Direction::LowerIsWorse,
        abs_slack: f64::INFINITY,
        since_pr: 7,
        floor: 1000.0,
    },
    // Live load harness (PR 9): kill → last-member-notified over real TCP.
    // Only the `kill` class is gated — it is the class the CI smoke run
    // measures, and its EOF-driven detection path is the latency claim the
    // harness exists to hold. Wall-clock latencies on a shared runner are
    // noisy, so the band gets a generous absolute slack (seconds); the
    // number being bounded at all is the point — the paper's budget is
    // 480 000 ms.
    m9(
        "node_load.kill.p50_ms",
        Direction::HigherIsWorse,
        5_000.0,
        f64::NEG_INFINITY,
    ),
    m9(
        "node_load.kill.p99_ms",
        Direction::HigherIsWorse,
        10_000.0,
        f64::NEG_INFINITY,
    ),
    // 1.0 = every group notified every survivor within the detection
    // budget. The relative band is meaningless for a boolean; the floor
    // is the whole gate.
    Metric {
        path: "node_load.kill.within_budget",
        direction: Direction::LowerIsWorse,
        abs_slack: f64::INFINITY,
        since_pr: 9,
        floor: 1.0,
    },
    // Chaos SLO (PR 10): simulated kill → notification latency over the
    // pinned chaos smoke scripts, from the unified observation plane's
    // per-phase reservoirs. The runs are deterministic (no runner noise),
    // but the script mix shifts when the generator or protocol timers do,
    // so the p99 carries a half-budget absolute allowance — the hard bar
    // is the within_budget floor below, which any sample past 480 s trips.
    m10(
        "chaos_slo.kill_p99_s",
        Direction::HigherIsWorse,
        240.0,
        f64::NEG_INFINITY,
    ),
    // The shared detector's refuted-suspicion fraction across all runs.
    // The band is relative to a small stake, so the absolute slack does
    // the real work: +0.25 of false-positive rate is the acceptance bar.
    m10(
        "chaos_slo.false_positive_rate",
        Direction::HigherIsWorse,
        0.25,
        f64::NEG_INFINITY,
    ),
    // 1.0 = every kill-provoked notification landed within the detection
    // budget. The relative band is meaningless for a boolean; the floor
    // is the whole gate.
    Metric {
        path: "chaos_slo.within_budget",
        direction: Direction::LowerIsWorse,
        abs_slack: f64::INFINITY,
        since_pr: 10,
        floor: 1.0,
    },
];

/// One metric's verdict.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The metric path.
    pub path: &'static str,
    /// Freshly measured value.
    pub current: f64,
    /// Committed stake value.
    pub stake: f64,
    /// The bound `current` was held to.
    pub bound: f64,
    /// Whether the metric is within the band.
    pub pass: bool,
}

/// Compares `current` against `stake` over [`GATED`] with relative
/// tolerance `tol` (0.25 = 25% band). A metric missing from either
/// document is an error — schema drift must fail loudly, not silently
/// un-gate — except for metrics whose `since_pr` postdates the stake's
/// top-level `"pr"` field, which are skipped (a new bench section cannot
/// be compared against a stake emitted before it existed).
pub fn compare(current: &Value, stake: &Value, tol: f64) -> Result<Vec<Verdict>, String> {
    let stake_pr = stake.get("pr").and_then(Value::as_f64).unwrap_or(0.0) as u64;
    let mut out = Vec::with_capacity(GATED.len());
    for metric in GATED {
        if metric.since_pr > stake_pr {
            continue;
        }
        let cur = lookup(current, metric.path, "current")?;
        let stk = lookup(stake, metric.path, "stake")?;
        let (bound, pass) = match metric.direction {
            Direction::HigherIsWorse => {
                let bound = stk * (1.0 + tol) + metric.abs_slack;
                (bound, cur <= bound)
            }
            Direction::LowerIsWorse => {
                let bound = (stk * (1.0 - tol) - metric.abs_slack).max(metric.floor);
                (bound, cur >= bound)
            }
        };
        out.push(Verdict {
            path: metric.path,
            current: cur,
            stake: stk,
            bound,
            pass,
        });
    }
    Ok(out)
}

fn lookup(doc: &Value, path: &str, which: &str) -> Result<f64, String> {
    doc.get(path)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{which} document has no numeric metric at '{path}'"))
}

/// Renders one verdict as a report line.
pub fn render_verdict(v: &Verdict) -> String {
    format!(
        "{}  {:<55} current {:>10.3}  stake {:>10.3}  bound {:>10.3}",
        if v.pass { "PASS" } else { "FAIL" },
        v.path,
        v.current,
        v.stake,
        v.bound,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn doc(wheel_ns: f64, sha_gib: f64, ping_allocs: f64) -> Value {
        parse(&format!(
            r#"{{
              "sim_event_throughput": {{
                "wheel": {{"ns_per_event": {wheel_ns}}},
                "speedup_ns_per_event": 2.1
              }},
              "wire_hot_path": {{
                "sha1": {{
                  "1024B": {{"auto_gib_s": {sha_gib}}},
                  "16384B": {{"auto_gib_s": {sha_gib}, "speedup_portable_vs_reference": 2.0}}
                }},
                "encode": {{
                  "ping": {{"ns_per_msg": 12.0, "allocs_per_msg": {ping_allocs}}},
                  "reconcile16": {{"ns_per_msg": 60.0, "allocs_per_msg": 0.0}}
                }}
              }},
              "churn": {{"ns_per_event": 100.0, "allocs_per_event": 0.02}},
              "route_oracle": {{
                "fixed": {{"hit_ns": 25.0, "miss_ns": 90000.0, "hit_allocs": {ping_allocs}}}
              }}
            }}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_documents_pass() {
        let d = doc(90.0, 1.3, 0.0);
        let verdicts = compare(&d, &d, 0.25).unwrap();
        assert!(verdicts.iter().all(|v| v.pass), "{verdicts:?}");
    }

    #[test]
    fn small_drift_within_band_passes() {
        let stake = doc(90.0, 1.3, 0.0);
        let current = doc(100.0, 1.1, 0.005);
        assert!(compare(&current, &stake, 0.25)
            .unwrap()
            .iter()
            .all(|v| v.pass));
    }

    #[test]
    fn injected_2x_slowdown_fails_ns_per_event() {
        let stake = doc(90.0, 1.3, 0.0);
        let current = doc(180.0, 1.3, 0.0);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        let failing: Vec<_> = verdicts.iter().filter(|v| !v.pass).collect();
        assert_eq!(failing.len(), 1);
        assert_eq!(failing[0].path, "sim_event_throughput.wheel.ns_per_event");
    }

    #[test]
    fn halved_sha1_throughput_fails() {
        let stake = doc(90.0, 1.3, 0.0);
        let current = doc(90.0, 0.6, 0.0);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        assert!(verdicts
            .iter()
            .any(|v| !v.pass && v.path.contains("auto_gib_s")));
    }

    #[test]
    fn new_allocations_on_the_ping_path_fail() {
        let stake = doc(90.0, 1.3, 0.0);
        let current = doc(90.0, 1.3, 1.0);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        assert!(verdicts
            .iter()
            .any(|v| !v.pass && v.path == "wire_hot_path.encode.ping.allocs_per_msg"));
    }

    #[test]
    fn missing_metric_is_an_error_not_a_silent_pass() {
        let stake = doc(90.0, 1.3, 0.0);
        let broken = parse(r#"{"sim_event_throughput": {}}"#).unwrap();
        assert!(compare(&broken, &stake, 0.25).is_err());
    }

    /// `doc(...)` plus the PR-6 `sharded_kernel` section and a `"pr"` tag.
    fn doc6(speedup: f64, shard1_eps: f64) -> Value {
        let base = doc(90.0, 1.3, 0.0);
        let extra = parse(&format!(
            r#"{{
              "pr": 6,
              "sharded_kernel": {{
                "shards_1": {{"projected_events_per_sec": {shard1_eps}}},
                "speedup_4x_projected": {speedup}
              }}
            }}"#
        ))
        .unwrap();
        // Splice: rebuild one object containing both documents' keys.
        let (Value::Obj(mut b), Value::Obj(e)) = (base, extra) else {
            unreachable!()
        };
        b.extend(e);
        Value::Obj(b)
    }

    #[test]
    fn pr6_metrics_are_skipped_against_a_pre_pr6_stake() {
        let stake = doc(90.0, 1.3, 0.0); // no "pr", no sharded_kernel
        let current = doc6(3.5, 5e6);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        assert!(verdicts.iter().all(|v| !v.path.contains("sharded_kernel")));
        assert!(verdicts.iter().all(|v| v.pass));
    }

    #[test]
    fn pr6_stake_gates_sharded_metrics() {
        let stake = doc6(3.5, 5e6);
        let good = compare(&doc6(3.4, 4.9e6), &stake, 0.25).unwrap();
        assert!(good.iter().any(|v| v.path.contains("speedup_4x")));
        assert!(good.iter().all(|v| v.pass), "{good:?}");
        let slow = compare(&doc6(3.5, 2e6), &stake, 0.25).unwrap();
        assert!(slow
            .iter()
            .any(|v| !v.pass && v.path.contains("shards_1.projected_events_per_sec")));
        // The speedup ratio shrinks with world size, so a quick-scale run
        // far below the paper-scale stake must still pass while it clears
        // the absolute floor.
        let cross_scale = compare(&doc6(1.7, 4.9e6), &stake, 0.25).unwrap();
        assert!(cross_scale.iter().all(|v| v.pass), "{cross_scale:?}");
    }

    /// `doc6(...)` plus the PR-7 `liveness` section, with the `"pr"` tag
    /// bumped to 7.
    fn doc7(scaling_ratio: f64, amortization: f64, round_allocs: f64) -> Value {
        let base = doc6(3.5, 5e6);
        let extra = parse(&format!(
            r#"{{
              "pr": 7,
              "liveness": {{
                "registry": {{"subscribe_ns_per_edge": 120.0, "fanout_ns_per_group": 15.0}},
                "detector": {{"round_ns": 900.0, "round_allocs": {round_allocs}}},
                "scaling": {{"group_scaling_ratio": {scaling_ratio}}},
                "rates": {{"amortization_ratio": {amortization}}}
              }}
            }}"#
        ))
        .unwrap();
        let (Value::Obj(b), Value::Obj(e)) = (base, extra) else {
            unreachable!()
        };
        // Drop doc6's "pr" first — duplicate keys resolve to the earliest
        // entry, which would pin the document at 6.
        let mut b: Vec<_> = b.into_iter().filter(|(k, _)| k != "pr").collect();
        b.extend(e);
        Value::Obj(b)
    }

    #[test]
    fn pr7_metrics_are_skipped_against_a_pre_pr7_stake() {
        let stake = doc6(3.5, 5e6); // "pr": 6, no liveness section
        let current = doc7(1.0, 31250.0, 0.05);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        assert!(verdicts.iter().all(|v| !v.path.contains("liveness")));
        assert!(verdicts.iter().all(|v| v.pass), "{verdicts:?}");
    }

    #[test]
    fn pr7_stake_gates_the_liveness_metrics() {
        let stake = doc7(1.0, 31250.0, 0.05);
        let good = compare(&doc7(1.0, 3125.0, 0.06), &stake, 0.25).unwrap();
        assert!(good.iter().any(|v| v.path.contains("liveness")));
        assert!(good.iter().all(|v| v.pass), "{good:?}");
        // A detector whose probe traffic grows with the group count is the
        // regression the plane exists to prevent.
        let coupled = compare(&doc7(9.8, 31250.0, 0.05), &stake, 0.25).unwrap();
        assert!(coupled
            .iter()
            .any(|v| !v.pass && v.path.contains("group_scaling_ratio")));
        // New allocations on the probe round trip the alloc gate.
        let leaky = compare(&doc7(1.0, 31250.0, 2.0), &stake, 0.25).unwrap();
        assert!(leaky
            .iter()
            .any(|v| !v.pass && v.path.contains("round_allocs")));
    }

    #[test]
    fn amortization_floor_binds_regardless_of_the_stake() {
        // Both documents agree at 500x — the relative band is satisfied,
        // but the 1000x acceptance floor is not.
        let stake = doc7(1.0, 500.0, 0.05);
        let verdicts = compare(&doc7(1.0, 500.0, 0.05), &stake, 0.25).unwrap();
        let v = verdicts
            .iter()
            .find(|v| v.path.contains("amortization_ratio"))
            .unwrap();
        assert!(!v.pass, "floor must bind: {v:?}");
        assert_eq!(v.bound, 1000.0);
    }

    /// `doc7(...)` plus the PR-9 `node_load` section, `"pr"` bumped to 9.
    fn doc9(p50: f64, p99: f64, within_budget: f64) -> Value {
        let base = doc7(1.0, 31250.0, 0.05);
        let extra = parse(&format!(
            r#"{{
              "pr": 9,
              "node_load": {{
                "nodes": 10,
                "kill": {{"p50_ms": {p50}, "p99_ms": {p99}, "within_budget": {within_budget}}}
              }}
            }}"#
        ))
        .unwrap();
        let (Value::Obj(b), Value::Obj(e)) = (base, extra) else {
            unreachable!()
        };
        let mut b: Vec<_> = b.into_iter().filter(|(k, _)| k != "pr").collect();
        b.extend(e);
        Value::Obj(b)
    }

    #[test]
    fn pr9_metrics_are_skipped_against_a_pre_pr9_stake() {
        let stake = doc7(1.0, 31250.0, 0.05); // "pr": 7, no node_load
        let current = doc9(40.0, 120.0, 1.0);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        assert!(verdicts.iter().all(|v| !v.path.contains("node_load")));
        assert!(verdicts.iter().all(|v| v.pass), "{verdicts:?}");
    }

    #[test]
    fn pr9_stake_gates_the_live_kill_latency() {
        let stake = doc9(40.0, 120.0, 1.0);
        // Jitter well inside the absolute slack passes.
        let good = compare(&doc9(900.0, 2_000.0, 1.0), &stake, 0.25).unwrap();
        assert!(good.iter().any(|v| v.path.contains("node_load")));
        assert!(good.iter().all(|v| v.pass), "{good:?}");
        // A kill path that degraded past band + slack fails.
        let slow = compare(&doc9(40.0, 30_000.0, 1.0), &stake, 0.25).unwrap();
        assert!(slow
            .iter()
            .any(|v| !v.pass && v.path == "node_load.kill.p99_ms"));
    }

    #[test]
    fn missed_detection_budget_fails_regardless_of_latency() {
        let stake = doc9(40.0, 120.0, 1.0);
        // Even with both documents agreeing, within_budget < 1 trips the
        // floor — a missed 480 s budget is never acceptable drift.
        let missed = compare(&doc9(40.0, 120.0, 0.0), &stake, 0.25).unwrap();
        let v = missed
            .iter()
            .find(|v| v.path == "node_load.kill.within_budget")
            .unwrap();
        assert!(!v.pass, "floor must bind: {v:?}");
        assert_eq!(v.bound, 1.0);
    }

    /// `doc9(...)` plus the PR-10 `chaos_slo` section, `"pr"` bumped to 10.
    fn doc10(kill_p99: f64, fp_rate: f64, within_budget: f64) -> Value {
        let base = doc9(40.0, 120.0, 1.0);
        let extra = parse(&format!(
            r#"{{
              "pr": 10,
              "chaos_slo": {{
                "scripts": 12,
                "kill_p99_s": {kill_p99},
                "false_positive_rate": {fp_rate},
                "within_budget": {within_budget}
              }}
            }}"#
        ))
        .unwrap();
        let (Value::Obj(b), Value::Obj(e)) = (base, extra) else {
            unreachable!()
        };
        let mut b: Vec<_> = b.into_iter().filter(|(k, _)| k != "pr").collect();
        b.extend(e);
        Value::Obj(b)
    }

    #[test]
    fn pr10_metrics_are_skipped_against_a_pre_pr10_stake() {
        let stake = doc9(40.0, 120.0, 1.0); // "pr": 9, no chaos_slo
        let current = doc10(210.0, 0.01, 1.0);
        let verdicts = compare(&current, &stake, 0.25).unwrap();
        assert!(verdicts.iter().all(|v| !v.path.contains("chaos_slo")));
        assert!(verdicts.iter().all(|v| v.pass), "{verdicts:?}");
    }

    #[test]
    fn pr10_stake_gates_the_chaos_slo() {
        let stake = doc10(210.0, 0.01, 1.0);
        // Deterministic drift inside band + slack passes.
        let good = compare(&doc10(350.0, 0.1, 1.0), &stake, 0.25).unwrap();
        assert!(good.iter().any(|v| v.path.contains("chaos_slo")));
        assert!(good.iter().all(|v| v.pass), "{good:?}");
        // A detection path that degraded past band + half-budget slack fails.
        let slow = compare(&doc10(600.0, 0.01, 1.0), &stake, 0.25).unwrap();
        assert!(slow
            .iter()
            .any(|v| !v.pass && v.path == "chaos_slo.kill_p99_s"));
        // A detector drowning in refuted suspicions fails.
        let noisy = compare(&doc10(210.0, 0.5, 1.0), &stake, 0.25).unwrap();
        assert!(noisy
            .iter()
            .any(|v| !v.pass && v.path == "chaos_slo.false_positive_rate"));
    }

    #[test]
    fn missed_chaos_budget_fails_regardless_of_percentiles() {
        let stake = doc10(210.0, 0.01, 1.0);
        // Even with both documents agreeing, within_budget < 1 trips the
        // floor — one notification past 480 s is never acceptable drift.
        let missed = compare(&doc10(210.0, 0.01, 0.0), &stake, 0.25).unwrap();
        let v = missed
            .iter()
            .find(|v| v.path == "chaos_slo.within_budget")
            .unwrap();
        assert!(!v.pass, "floor must bind: {v:?}");
        assert_eq!(v.bound, 1.0);
    }

    #[test]
    fn speedup_floor_holds_even_when_the_stake_drifts_low() {
        // Stake and current agree at 1.5x — within any relative band, but
        // below the 1.6 acceptance floor.
        let stake = doc6(1.5, 5e6);
        let verdicts = compare(&doc6(1.5, 5e6), &stake, 0.25).unwrap();
        let v = verdicts
            .iter()
            .find(|v| v.path.contains("speedup_4x"))
            .unwrap();
        assert!(!v.pass, "floor must bind: {v:?}");
        assert_eq!(v.bound, 1.6);
    }
}
