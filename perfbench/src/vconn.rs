//! `vconn`: the paper's application — deciding the vertex connectivity of a
//! seeded suite of small planar graphs with known connectivity 2 to 5.

use crate::gen::{self, SuiteGraph};
use crate::layers::{self, SpanTotals};
use crate::report::Report;
use crate::stats::{Budget, Samples};
use planar_subiso::connectivity::{is_vertex_cut, vertex_connectivity_with_fv};
use planar_subiso::{ConnectivityMode, ConnectivityResult, Psi, SepStats};
use psi_baselines::maxflow::flow_vertex_connectivity;
use psi_planar::{face_vertex_graph, planar_embedding};
use std::time::{Duration, Instant};

/// Exact whole-graph mode up to this many vertices, cover mode beyond (the
/// rule of `examples/arbitrary_graph.rs`).
const WHOLE_GRAPH_MAX_N: usize = 50;
const COVER_REPETITIONS: usize = 24;

/// Suite and repetition floor of one vconn phase.
#[derive(Clone, Copy, Debug)]
pub struct VconnCfg {
    /// Prefix of the phase's context lines.
    pub label: &'static str,
    /// Whether the suite includes its expensive members.
    pub full: bool,
    /// Suite passes made even if the budget runs out.
    pub min_passes: usize,
}

/// The full-size phase: the whole suite.
pub const FULL: VconnCfg = VconnCfg {
    label: "vconn",
    full: true,
    min_passes: 1,
};

/// The probe every other workload runs so it reports `vc_total_s` too.
pub const PROBE: VconnCfg = VconnCfg {
    label: "probe.vconn",
    full: false,
    min_passes: 3,
};

fn mode(n: usize) -> ConnectivityMode {
    if n <= WHOLE_GRAPH_MAX_N {
        ConnectivityMode::WholeGraph
    } else {
        ConnectivityMode::Cover {
            repetitions: COVER_REPETITIONS,
        }
    }
}

/// Checks one answer against the known value, max-flow, and its cut witness.
fn check(g: &SuiteGraph, r: &ConnectivityResult, with_flow: bool, report: &mut Report) {
    let mut ok = r.connectivity == g.connectivity;
    if with_flow {
        ok &= flow_vertex_connectivity(&g.graph, 6) == g.connectivity;
    }
    if !r.cut.is_empty() {
        ok &= r.cut.len() == r.connectivity && is_vertex_cut(&g.graph, &r.cut);
    }
    report.check(ok, || {
        format!(
            "{}: κ = {} (cut {:?}), expected {}",
            g.name, r.connectivity, r.cut, g.connectivity
        )
    });
}

/// Decides one suite graph through `Psi::vertex_connectivity_of`, checked;
/// returns its time in seconds.
fn decide(g: &SuiteGraph, seed: u64, with_flow: bool, report: &mut Report) -> f64 {
    let t = Instant::now();
    let r = Psi::vertex_connectivity_of(&g.graph, mode(g.graph.num_vertices()), seed);
    let dt = t.elapsed().as_secs_f64();
    match r {
        Ok(r) => check(g, &r, with_flow, report),
        Err(e) => report.fail(format!("{}: {e}", g.name)),
    }
    dt
}

fn describe(suite: &[SuiteGraph]) -> String {
    suite
        .iter()
        .map(|g| {
            format!(
                "{} (n = {}, κ = {})",
                g.name,
                g.graph.num_vertices(),
                g.connectivity
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// The untraced vconn phase: suite passes, decided graph by graph in slices
/// between the other phases of the run.
pub struct Vconn {
    cfg: VconnCfg,
    seed: u64,
    suite: Vec<SuiteGraph>,
    /// Next graph to decide, and the passes completed so far.
    next: usize,
    passes: usize,
    budget: Budget,
    /// Decide times of each suite graph, in suite order.
    times: Vec<Samples>,
}

impl Vconn {
    pub fn new(cfg: VconnCfg, seed: u64, report: &mut Report) -> Vconn {
        let label = cfg.label;
        let suite = gen::vconn_suite(cfg.full);
        report.note(
            &format!("{label}.input"),
            format!(
                "{} graphs: {}; engine threads = {} (default pool)",
                suite.len(),
                describe(&suite),
                rayon::current_num_threads()
            ),
        );
        let times = vec![Samples::default(); suite.len()];
        Vconn {
            cfg,
            seed,
            suite,
            next: 0,
            passes: 0,
            budget: Budget::default(),
            times,
        }
    }

    /// Decides suite graphs in order while the slice worth `share` has time
    /// left.
    pub fn slice(&mut self, share: Duration, report: &mut Report) {
        let start = self.budget.open(share);
        while self.budget.left(start) {
            let g = &self.suite[self.next];
            let dt = decide(g, self.seed, self.passes == 0, report);
            self.times[self.next].push(dt);
            self.next += 1;
            if self.next == self.suite.len() {
                self.passes += 1;
                self.next = 0;
            }
        }
        self.budget.close(start);
    }

    /// Whether the pass floor is met.
    pub fn done(&self) -> bool {
        self.passes >= self.cfg.min_passes
    }

    /// Reports `vc_total_s` as the sum over the suite of each graph's median
    /// decide time: every decision of the run counts, including those of a
    /// pass the budget cut short.
    pub fn finish(self, report: &mut Report) {
        let named: Vec<String> = self
            .suite
            .iter()
            .zip(&self.times)
            .map(|(g, t)| format!("{} {:.4} ({} runs)", g.name, t.median(), t.len()))
            .collect();
        report.note(
            &format!("{}.median_decide_s", self.cfg.label),
            named.join(", "),
        );
        report.note(&format!("samples.{}.passes", self.cfg.label), self.passes);
        let total: f64 = self.times.iter().map(Samples::median).sum();
        report.metric("vc_total_s", total, "s");
    }
}

/// The traced vconn run: one untraced pass, then a traced pass split into
/// embedding, face–vertex construction and the separating-cycle DP.
pub fn traced(cfg: VconnCfg, seed: u64, report: &mut Report) {
    let suite = gen::vconn_suite(cfg.full);
    report.note(
        "vconn.input",
        format!(
            "{}; engine threads = {} (default pool)",
            describe(&suite),
            rayon::current_num_threads()
        ),
    );
    let pool_before = rayon::pool_stats();
    let mut spans = SpanTotals::default();
    psi_obs::set_tracing(false);
    let untraced: f64 = suite.iter().map(|g| decide(g, seed, true, report)).sum();
    psi_obs::set_tracing(true);
    spans.drain();

    let (mut embed_s, mut fv_s, mut traced) = (0.0, 0.0, 0.0);
    let mut stats = SepStats::default();
    let mut states = Samples::default();
    for g in &suite {
        let t = Instant::now();
        let embedding = {
            let _s = psi_obs::span!("bench.planarity.embed");
            planar_embedding(&g.graph).expect("suite graphs are planar")
        };
        embed_s += t.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let fv = {
            let _s = psi_obs::span!("bench.face_vertex.build");
            face_vertex_graph(&embedding)
        };
        fv_s += t2.elapsed().as_secs_f64();
        let r = {
            let _s = psi_obs::span!("bench.vconn.decide");
            vertex_connectivity_with_fv(&g.graph, &fv, mode(g.graph.num_vertices()), seed)
        };
        traced += t.elapsed().as_secs_f64();
        check(g, &r, false, report);
        stats.absorb(&r.stats);
        states.push(r.states_explored as f64);
        spans.drain();
    }
    psi_obs::set_tracing(false);
    report.note(
        "trace.vc_total_s",
        format!("untraced {untraced} / traced {traced}"),
    );
    report.metric(
        "obs.overhead_share",
        (traced - untraced) / untraced,
        "ratio",
    );
    report.metric("planarity.embed_s", embed_s, "s");
    report.metric("face_vertex.build_s", fv_s, "s");
    report.metric("separating.states", stats.sep_states as f64, "count");
    let arena = stats.arena;
    report.metric(
        "separating.arena_hit_share",
        arena.hits as f64 / (arena.hits + arena.misses).max(1) as f64,
        "ratio",
    );
    report.metric(
        "separating.orbit_merges",
        stats.orbit_merges as f64,
        "count",
    );
    report.metric(
        "separating.dominated",
        stats.dominated_dropped as f64,
        "count",
    );
    report.note("vconn.states_explored", format!("{:?}", states.values()));
    report.metric(
        "index.dp_fallbacks",
        spans.query_dp_batches() as f64,
        "count",
    );
    layers::report_pool_delta(report, pool_before);
    spans.report(report);
}
