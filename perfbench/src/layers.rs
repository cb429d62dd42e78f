//! Traced-run support: the per-layer metric names, benchmark-side span names,
//! and span self-time aggregation over `psi_obs` ring buffers.

use crate::report::Report;
use psi_obs::trace::{self, SpanRecord};
use std::collections::BTreeMap;

/// Spans the engine records (`psi_obs::span!` sites in the crates).
pub const ENGINE_SPANS: &[&str] = &[
    "planarity.embed",
    "index.build",
    "cover.build",
    "cover.shard",
    "dp.batch",
    "dp.separating",
    "query.decide",
    "query.find_one",
    "query.vertex_connectivity",
    "mutate.insert",
    "mutate.delete",
    "flush",
    "freeze",
    "snapshot",
    "snapshot.decide",
    "snapshot.find_one",
    "snapshot.vertex_connectivity",
];

/// Spans the benchmark records around each call into a layer's entry point.
pub const BENCH_SPANS: &[&str] = &[
    "bench.planarity.embed",
    "bench.planarity.check",
    "bench.cover.pass",
    "bench.treedecomp.decompose",
    "bench.face_vertex.build",
    "bench.index.build",
    "bench.index.to_bytes",
    "bench.index.from_bytes",
    "bench.dynamic.thaw",
    "bench.serve.hit",
    "bench.serve.scan",
    "bench.serve.st",
    "bench.dynamic.edit",
    "bench.dynamic.reject",
    "bench.dynamic.flush",
    "bench.snapshot.publish",
    "bench.vconn.decide",
];

/// Per-layer metrics every traced run reports (0 where the workload does not
/// exercise the layer), followed by `span.<name>.self_s` / `.count` for every
/// span in [`ENGINE_SPANS`] and [`BENCH_SPANS`].
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("planarity.embed_s", "s"),
    ("planarity.check_ms", "ms"),
    ("cover.pass_s", "s"),
    ("cover.batches", "count"),
    ("treedecomp.decompose_s", "s"),
    ("treedecomp.layered_share", "ratio"),
    ("treedecomp.max_width", "count"),
    ("face_vertex.build_s", "s"),
    ("index.build_s", "s"),
    ("index.decomp_mb", "MB"),
    ("index.from_bytes_s", "s"),
    ("index.scan_us_per_batch", "us"),
    ("index.dp_fallbacks", "count"),
    ("connectivity.st_capped_share", "ratio"),
    ("dynamic.insert_us", "us"),
    ("dynamic.delete_us", "us"),
    ("dynamic.affected_clusters", "count"),
    ("dynamic.flush_ms", "ms"),
    ("dynamic.batches_rebuilt", "count"),
    ("dynamic.decomp_cache_hit_share", "ratio"),
    ("dynamic.thaw_s", "s"),
    ("snapshot.create_ms", "ms"),
    ("separating.states", "count"),
    ("separating.arena_hit_share", "ratio"),
    ("separating.orbit_merges", "count"),
    ("separating.dominated", "count"),
    ("rayon.steals", "count"),
    ("rayon.idle_spins", "count"),
    ("obs.overhead_share", "ratio"),
    ("obs.dropped_spans", "count"),
];

/// Every per-layer metric name, in report order.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = LAYER_METRICS.iter().map(|(n, _)| n.to_string()).collect();
    for span in ENGINE_SPANS.iter().chain(BENCH_SPANS) {
        names.push(format!("span.{span}.self_s"));
        names.push(format!("span.{span}.count"));
    }
    names
}

/// Fills every per-layer metric the workload did not measure with 0.
pub fn zero_fill(report: &mut Report) {
    for (name, unit) in LAYER_METRICS {
        if report.metric_value(name).is_none() {
            report.metric(name, 0.0, unit);
        }
    }
}

/// Span totals accumulated across ring-buffer drains.
#[derive(Debug, Default)]
pub struct SpanTotals {
    /// Name → (self time in seconds, span count).
    by_name: BTreeMap<&'static str, (f64, u64)>,
    dropped: u64,
    /// `dp.batch` spans nested inside a query span (DP fallbacks of queries).
    query_dp_batches: u64,
}

const QUERY_SPANS: &[&str] = &[
    "query.decide",
    "query.find_one",
    "snapshot.decide",
    "snapshot.find_one",
];

impl SpanTotals {
    /// Folds the spans recorded since the last drain into the totals and
    /// empties the ring buffers.
    pub fn drain(&mut self) {
        self.dropped += trace::dropped_spans();
        let spans = trace::snapshot_spans();
        trace::clear();
        self.absorb(&spans);
    }

    fn absorb(&mut self, spans: &[SpanRecord]) {
        let (self_us, in_query) = self_times(spans);
        for (i, s) in spans.iter().enumerate() {
            let e = self.by_name.entry(s.name).or_default();
            e.0 += self_us[i] as f64 / 1e6;
            e.1 += 1;
            if s.name == "dp.batch" && in_query[i] {
                self.query_dp_batches += 1;
            }
        }
    }

    pub fn query_dp_batches(&self) -> u64 {
        self.query_dp_batches
    }

    /// Reports `span.<name>.self_s` / `.count` for every listed span, plus
    /// the dropped-span count; names outside the lists go to the context.
    pub fn report(&self, report: &mut Report) {
        for &name in ENGINE_SPANS.iter().chain(BENCH_SPANS) {
            let (self_s, count) = self.by_name.get(name).copied().unwrap_or_default();
            report.metric(&format!("span.{name}.self_s"), self_s, "s");
            report.metric(&format!("span.{name}.count"), count as f64, "count");
        }
        for (name, (self_s, count)) in &self.by_name {
            if !ENGINE_SPANS.contains(name) && !BENCH_SPANS.contains(name) {
                report.note(
                    &format!("span.{name}"),
                    format!("{count} spans, {self_s} s self"),
                );
            }
        }
        report.metric("obs.dropped_spans", self.dropped as f64, "count");
    }
}

/// Per-span self time (duration minus the direct children on the same
/// thread) and whether a query span encloses it. `spans` must be ordered by
/// `(tid, start, depth)`, as [`trace::snapshot_spans`] returns them.
fn self_times(spans: &[SpanRecord]) -> (Vec<u64>, Vec<bool>) {
    let mut self_us: Vec<u64> = spans.iter().map(|s| s.dur_us).collect();
    let mut in_query = vec![false; spans.len()];
    // open ancestors on the current thread: (index, depth)
    let mut stack: Vec<(usize, u32)> = Vec::new();
    let mut tid = None;
    for (i, s) in spans.iter().enumerate() {
        if tid != Some(s.tid) {
            stack.clear();
            tid = Some(s.tid);
        }
        if s.instant {
            continue;
        }
        while stack.last().is_some_and(|&(_, d)| d >= s.depth) {
            stack.pop();
        }
        if let Some(&(parent, d)) = stack.last() {
            if d + 1 == s.depth {
                self_us[parent] = self_us[parent].saturating_sub(s.dur_us);
            }
            in_query[i] = in_query[parent] || QUERY_SPANS.contains(&spans[parent].name);
        }
        stack.push((i, s.depth));
    }
    (self_us, in_query)
}

/// Work-stealing counters between two reads of `rayon::pool_stats()`.
pub fn report_pool_delta(report: &mut Report, before: rayon::PoolStats) {
    let after = rayon::pool_stats();
    report.metric(
        "rayon.steals",
        (after.steals - before.steals) as f64,
        "count",
    );
    report.metric(
        "rayon.idle_spins",
        (after.idle_spins - before.idle_spins) as f64,
        "count",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        psi_obs::set_tracing(true);
        {
            let _outer = psi_obs::span!("bench.serve.scan");
            std::thread::sleep(std::time::Duration::from_millis(4));
            {
                let _q = psi_obs::span!("query.decide");
                let _dp = psi_obs::span!("dp.batch");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        psi_obs::set_tracing(false);
        let spans: Vec<SpanRecord> = trace::snapshot_spans()
            .into_iter()
            .filter(|s| matches!(s.name, "bench.serve.scan" | "query.decide" | "dp.batch"))
            .collect();
        let (self_us, in_query) = self_times(&spans);
        let at = |name| spans.iter().position(|s| s.name == name).unwrap();
        let (outer, q, dp) = (at("bench.serve.scan"), at("query.decide"), at("dp.batch"));
        assert_eq!(self_us[outer], spans[outer].dur_us - spans[q].dur_us);
        assert_eq!(self_us[q], spans[q].dur_us - spans[dp].dur_us);
        assert!(self_us[outer] >= 3_000 && self_us[dp] >= 3_000);
        assert!(in_query[dp] && !in_query[q] && !in_query[outer]);
    }

    #[test]
    fn per_layer_names_are_unique_and_bounded() {
        let names = per_layer_names();
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
    }
}
