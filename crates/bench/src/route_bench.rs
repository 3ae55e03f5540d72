//! Route-oracle benchmarks: build time, resident route memory, and
//! hit/miss query latency of the attachment-indexed `RouteOracle` that
//! replaced the eager all-destinations table.
//!
//! Two measurement sets feed the `route_oracle` section of the
//! `BENCH_*.json` stakes:
//!
//! * `fixed` — the default-size topology at **both** scales, so the CI
//!   quick run stays comparable to the committed paper-scale stake; these
//!   are the gated metrics.
//! * `mercator` — the ~100k-router [`TopologyConfig::mercator_scale`]
//!   preset, paper scale only (reported, not gated): the headline numbers
//!   showing route memory set by the attachments, not the router count,
//!   where the eager table would hold gigabytes.
//!
//! Query latencies are medians after the vendored criterion stub's
//! median-absolute-deviation outlier rejection ([`criterion::mad_filter`])
//! — a single preempted sample on a shared CI runner must not push a gated
//! metric across the regression band.

use criterion::mad_filter;
use fuse_net::{RouteOracle, Topology, TopologyConfig};
use fuse_sim::ProcId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::json_f64;

/// One topology's oracle measurements.
#[derive(Debug, Clone)]
pub struct RoutePoint {
    /// Stake label (`fixed` or `mercator`).
    pub name: &'static str,
    /// Routers in the generated topology.
    pub routers: usize,
    /// Links in the generated topology.
    pub links: usize,
    /// Topology generation, attachment sampling and oracle construction,
    /// milliseconds (the eager design paid one Dijkstra per attachment
    /// here; the oracle pays none).
    pub build_ms: f64,
    /// MAD-filtered median nanoseconds per hit (a query out of a filled
    /// row).
    pub hit_ns: f64,
    /// Allocator calls per hit query (`None` without the counting
    /// allocator); 0 is the acceptance bar.
    pub hit_allocs: Option<f64>,
    /// MAD-filtered median nanoseconds per first-touch miss (Dijkstra plus
    /// projection onto the columns, on a fresh oracle).
    pub miss_ns: f64,
    /// Bytes resident in the oracle once every source has sent
    /// (`sources² × 8`).
    pub resident_bytes: usize,
    /// What the eager table would hold for the same source set
    /// (`sources × routers × 16` bytes).
    pub eager_equiv_bytes: usize,
    /// Distinct attachment routers: the oracle's columns.
    pub sources: usize,
}

/// Queries per hit-latency sample.
const HITS_PER_SAMPLE: usize = 4 * 1024;
/// Samples per repetition (the MAD filter needs a population).
const SAMPLES_PER_REP: usize = 11;

/// Measures one topology with `n_procs` attached processes.
fn measure(
    name: &'static str,
    cfg: &TopologyConfig,
    n_procs: usize,
    reps: u32,
    misses_per_sample: usize,
) -> RoutePoint {
    let mut rng = StdRng::seed_from_u64(0xF0D0);
    let t0 = std::time::Instant::now();
    let topo = Topology::generate(cfg, &mut rng);
    let attach = topo.sample_attachments(n_procs, &mut rng);
    let oracle = RouteOracle::new(&topo, &attach);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let procs = attach.len() as ProcId;

    // --- Hit latency: two filled rows, alternating sources.
    let (s0, s1, dst) = (0, 1, 2);
    oracle.route(&topo, s0, dst);
    oracle.route(&topo, s1, dst);
    let mut hit_samples = Vec::with_capacity(SAMPLES_PER_REP * reps as usize);
    let mut hit_allocs = None;
    for _ in 0..reps {
        // Per-thread delta, so concurrent shards cannot pollute the gate.
        let allocs_before = crate::alloc_count::thread_snapshot();
        for _ in 0..SAMPLES_PER_REP {
            let t0 = std::time::Instant::now();
            let mut acc = 0u64;
            for i in 0..HITS_PER_SAMPLE {
                let src = if i & 1 == 0 { s0 } else { s1 };
                acc ^= oracle.route(&topo, src, dst).latency.nanos();
            }
            std::hint::black_box(acc);
            hit_samples.push(t0.elapsed().as_nanos() as f64 / HITS_PER_SAMPLE as f64);
        }
        let allocs = crate::alloc_count::thread_snapshot() - allocs_before;
        if crate::alloc_count::installed() {
            let per = allocs as f64 / (SAMPLES_PER_REP * HITS_PER_SAMPLE) as f64;
            hit_allocs = Some(hit_allocs.map_or(per, |b: f64| b.min(per)));
        }
    }
    mad_filter(&mut hit_samples);
    let hit_ns = hit_samples[hit_samples.len() / 2];

    // --- Miss latency: first touches on a fresh oracle per sample, from
    // distinct sources not co-located with the destination (a co-located
    // query is a LAN hop that fills no row).
    let miss_dst = procs - 1;
    let sources: Vec<ProcId> = (0..procs - 1)
        .filter(|&p| attach[p as usize] != attach[miss_dst as usize])
        .take(misses_per_sample)
        .collect();
    assert_eq!(sources.len(), misses_per_sample, "not enough sources");
    let mut miss_samples = Vec::with_capacity(SAMPLES_PER_REP * reps as usize);
    for _ in 0..reps {
        for _ in 0..SAMPLES_PER_REP {
            let fresh = RouteOracle::new(&topo, &attach);
            let t0 = std::time::Instant::now();
            let mut acc = 0u64;
            for &src in &sources {
                acc ^= fresh.route(&topo, src, miss_dst).latency.nanos();
            }
            std::hint::black_box(acc);
            miss_samples.push(t0.elapsed().as_nanos() as f64 / misses_per_sample as f64);
            debug_assert_eq!(fresh.stats().misses, misses_per_sample as u64);
        }
    }
    mad_filter(&mut miss_samples);
    let miss_ns = miss_samples[miss_samples.len() / 2];

    // --- Occupancy: every process sends once, filling every row.
    for src in 0..procs {
        oracle.route(&topo, src, (src + 1) % procs);
    }
    let stats = oracle.stats();

    RoutePoint {
        name,
        routers: topo.n_routers(),
        links: topo.n_links(),
        build_ms,
        hit_ns,
        hit_allocs,
        miss_ns,
        resident_bytes: stats.resident_bytes,
        eager_equiv_bytes: oracle.columns() * topo.n_routers() * 16,
        sources: oracle.columns(),
    }
}

/// Runs the suite: the gateable fixed-size point always, the Mercator
/// point only at paper scale.
pub fn suite(reps: u32, quick: bool) -> Vec<RoutePoint> {
    let mut out = vec![measure("fixed", &TopologyConfig::default(), 400, reps, 8)];
    if !quick {
        out.push(measure(
            "mercator",
            &TopologyConfig::mercator_scale(),
            500,
            reps.min(2),
            2,
        ));
    }
    out
}

/// Renders the `route_oracle` JSON object body.
pub fn render_json(points: &[RoutePoint]) -> String {
    let mut out = String::from("{\n");
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 == points.len() { "" } else { "," };
        out.push_str(&format!(
            concat!(
                "    \"{}\": {{\n",
                "      \"routers\": {},\n",
                "      \"links\": {},\n",
                "      \"sources\": {},\n",
                "      \"build_ms\": {},\n",
                "      \"hit_ns\": {},\n",
                "      \"hit_allocs\": {},\n",
                "      \"miss_ns\": {},\n",
                "      \"resident_bytes\": {},\n",
                "      \"eager_equiv_bytes\": {}\n",
                "    }}{}\n"
            ),
            p.name,
            p.routers,
            p.links,
            p.sources,
            json_f64(p.build_ms),
            json_f64(p.hit_ns),
            p.hit_allocs
                .map(json_f64)
                .unwrap_or_else(|| "null".to_string()),
            json_f64(p.miss_ns),
            p.resident_bytes,
            p.eager_equiv_bytes,
            sep,
        ));
    }
    out.push_str("  }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_point_measures_and_bounds_memory() {
        let p = measure(
            "fixed",
            &TopologyConfig {
                n_as: 8,
                core_per_as: 2,
                chains_per_as: 1,
                chain_len: (2, 3),
                ..TopologyConfig::default()
            },
            16,
            1,
            2,
        );
        assert!(p.hit_ns > 0.0 && p.miss_ns > 0.0);
        assert!(
            p.miss_ns > 10.0 * p.hit_ns,
            "a miss runs a full Dijkstra, a hit does not — anything closer \
             than an order of magnitude means the rotation is not actually \
             missing: {p:?}"
        );
        assert_eq!(
            p.resident_bytes,
            p.sources * p.sources * 8,
            "every row filled, one word per column: {p:?}"
        );
        assert!(p.eager_equiv_bytes >= 16 * p.routers * 16 / 2);
    }

    #[test]
    fn render_produces_parseable_json_with_gated_paths() {
        let p = RoutePoint {
            name: "fixed",
            routers: 3000,
            links: 5000,
            sources: 400,
            build_ms: 12.0,
            hit_ns: 25.0,
            hit_allocs: Some(0.0),
            miss_ns: 90_000.0,
            resident_bytes: 400 * 400 * 8,
            eager_equiv_bytes: 400 * 3000 * 16,
        };
        let doc = format!("{{\n  \"route_oracle\": {}\n}}", render_json(&[p]));
        let v = crate::json::parse(&doc).expect("well-formed");
        for path in [
            "route_oracle.fixed.hit_ns",
            "route_oracle.fixed.hit_allocs",
            "route_oracle.fixed.miss_ns",
            "route_oracle.fixed.resident_bytes",
        ] {
            assert!(v.get(path).is_some(), "missing {path}");
        }
    }
}
