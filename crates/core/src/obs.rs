//! Core-side wiring into the [`psi_obs`] observability layer.
//!
//! Two patterns keep instrumentation off the serving path's critical costs:
//!
//! * **Cached handles** ([`metrics`]): every named instrument is resolved from
//!   the process-global [`psi_obs::MetricsRegistry`] exactly once; after that a
//!   hot-path update is one relaxed atomic op, never a registry lock.
//! * **Absorbed layer totals**: statistics the layers already aggregate per run
//!   (cover passes, parallel-DP runs, separating searches) are absorbed into
//!   the accumulators here when a run completes — milliseconds of work per
//!   absorb — and surfaced through an export-time *source*, so the registry
//!   reports every layer without double counting and without touching the
//!   per-state inner loops.
//!
//! The work-stealing pool's counters ([`rayon::pool_stats`]) are sampled the
//! same way: the vendored pool owns its statics (no dependency edge back into
//! this crate) and a source reads them at export time.

use crate::cover::CoverStats;
use crate::dp_parallel::ParallelDpStats;
use crate::separating::SepStats;
use psi_obs::{Counter, Histogram, Sample};
use std::sync::{Arc, Mutex, OnceLock};

/// Cached instrument handles (see the module docs). One instance per process,
/// shared by every engine: each engine adds its own events to the same
/// counters and histograms, and no instrument mirrors per-engine state.
pub(crate) struct CoreMetrics {
    // --- query serving ---
    pub queries_total: Arc<Counter>,
    pub query_decide_ns: Arc<Histogram>,
    pub query_find_one_ns: Arc<Histogram>,
    pub query_connectivity_ns: Arc<Histogram>,
    pub query_connectivity_batch_ns: Arc<Histogram>,
    pub query_fallback_batches_total: Arc<Counter>,
    // --- vertex connectivity ---
    pub connectivity_candidates_total: Arc<Counter>,
    pub connectivity_dp_fallbacks_total: Arc<Counter>,
    // --- mutation / flush / epochs ---
    pub mutations_insert_total: Arc<Counter>,
    pub mutations_delete_total: Arc<Counter>,
    pub mutations_rejected_total: Arc<Counter>,
    pub mutations_refused_local_total: Arc<Counter>,
    pub mutations_whole_target_total: Arc<Counter>,
    pub mutation_ns: Arc<Histogram>,
    pub flushes_total: Arc<Counter>,
    pub flush_ns: Arc<Histogram>,
    pub flush_batches_rebuilt_total: Arc<Counter>,
    pub epoch_advances_total: Arc<Counter>,
    pub snapshots_total: Arc<Counter>,
    // --- build ---
    pub index_builds_total: Arc<Counter>,
    pub index_build_ns: Arc<Histogram>,
}

/// Per-run layer statistics absorbed as runs complete and exported as gauges.
#[derive(Default)]
struct LayerTotals {
    cover_passes: u64,
    cover: CoverStats,
    dp_runs: u64,
    dp: ParallelDpStats,
    sep_runs: u64,
    sep: SepStats,
}

fn layer_totals() -> &'static Mutex<LayerTotals> {
    static TOTALS: OnceLock<Mutex<LayerTotals>> = OnceLock::new();
    TOTALS.get_or_init(|| Mutex::new(LayerTotals::default()))
}

/// The cached handles, resolving (and registering the export-time sources) on
/// first use.
pub(crate) fn metrics() -> &'static CoreMetrics {
    static METRICS: OnceLock<CoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = psi_obs::registry();
        reg.register_source("psi_pool", |out| {
            let s = rayon::pool_stats();
            out.push(Sample::new("psi_pool_steals_total", s.steals as f64));
            out.push(Sample::new(
                "psi_pool_injector_pops_total",
                s.injector_pops as f64,
            ));
            out.push(Sample::new(
                "psi_pool_idle_spins_total",
                s.idle_spins as f64,
            ));
        });
        reg.register_source("psi_layers", |out| {
            let t = layer_totals().lock().unwrap();
            out.push(Sample::new("psi_cover_passes_total", t.cover_passes as f64));
            out.push(Sample::new("psi_cover_pieces_total", t.cover.pieces as f64));
            out.push(Sample::new(
                "psi_cover_batches_total",
                t.cover.batches as f64,
            ));
            out.push(Sample::new(
                "psi_cover_skipped_small_total",
                t.cover.skipped_small as f64,
            ));
            out.push(Sample::new("psi_dp_parallel_runs_total", t.dp_runs as f64));
            out.push(Sample::new(
                "psi_dp_parallel_layers_total",
                t.dp.num_layers as f64,
            ));
            out.push(Sample::new(
                "psi_dp_parallel_paths_total",
                t.dp.num_paths as f64,
            ));
            out.push(Sample::new(
                "psi_dp_parallel_max_rounds_per_path",
                t.dp.max_rounds_per_path as f64,
            ));
            out.push(Sample::new(
                "psi_arena_states_interned_total",
                t.dp.arena
                    .states_interned
                    .saturating_add(t.sep.arena.states_interned) as f64,
            ));
            out.push(Sample::new(
                "psi_arena_hits_total",
                t.dp.arena.hits.saturating_add(t.sep.arena.hits) as f64,
            ));
            out.push(Sample::new(
                "psi_arena_misses_total",
                t.dp.arena.misses.saturating_add(t.sep.arena.misses) as f64,
            ));
            out.push(Sample::new("psi_sep_runs_total", t.sep_runs as f64));
            out.push(Sample::new("psi_sep_states_total", t.sep.sep_states as f64));
            out.push(Sample::new(
                "psi_sep_dominated_dropped_total",
                t.sep.dominated_dropped as f64,
            ));
            out.push(Sample::new(
                "psi_sep_flips_canonicalised_total",
                t.sep.flips_canonicalised as f64,
            ));
            out.push(Sample::new(
                "psi_sep_orbit_merges_total",
                t.sep.orbit_merges as f64,
            ));
        });
        CoreMetrics {
            queries_total: reg.counter("psi_queries_total"),
            query_decide_ns: reg.histogram("psi_query_decide_ns"),
            query_find_one_ns: reg.histogram("psi_query_find_one_ns"),
            query_connectivity_ns: reg.histogram("psi_query_connectivity_ns"),
            query_connectivity_batch_ns: reg.histogram("psi_query_connectivity_batch_ns"),
            query_fallback_batches_total: reg.counter("psi_query_fallback_batches_total"),
            connectivity_candidates_total: reg.counter("psi_connectivity_candidates_total"),
            connectivity_dp_fallbacks_total: reg.counter("psi_connectivity_dp_fallbacks_total"),
            mutations_insert_total: reg.counter("psi_mutations_insert_total"),
            mutations_delete_total: reg.counter("psi_mutations_delete_total"),
            mutations_rejected_total: reg.counter("psi_mutations_rejected_total"),
            mutations_refused_local_total: reg.counter("psi_mutations_refused_local_total"),
            mutations_whole_target_total: reg.counter("psi_mutations_whole_target_total"),
            mutation_ns: reg.histogram("psi_mutation_ns"),
            flushes_total: reg.counter("psi_flushes_total"),
            flush_ns: reg.histogram("psi_flush_ns"),
            flush_batches_rebuilt_total: reg.counter("psi_flush_batches_rebuilt_total"),
            epoch_advances_total: reg.counter("psi_epoch_advances_total"),
            snapshots_total: reg.counter("psi_snapshots_total"),
            index_builds_total: reg.counter("psi_index_builds_total"),
            index_build_ns: reg.histogram("psi_index_build_ns"),
        }
    })
}

/// Absorbs one completed cover pass into the layer totals.
pub(crate) fn record_cover_pass(stats: &CoverStats) {
    let mut t = layer_totals().lock().unwrap();
    t.cover_passes = t.cover_passes.saturating_add(1);
    t.cover.absorb(stats);
}

/// Absorbs one completed parallel-DP run into the layer totals.
pub(crate) fn record_parallel_dp(stats: &ParallelDpStats) {
    let mut t = layer_totals().lock().unwrap();
    t.dp_runs = t.dp_runs.saturating_add(1);
    t.dp.absorb(stats);
}

/// Absorbs one completed separating-DP search into the layer totals.
pub(crate) fn record_sep_run(stats: &SepStats) {
    let mut t = layer_totals().lock().unwrap();
    t.sep_runs = t.sep_runs.saturating_add(1);
    t.sep.absorb(stats);
}
