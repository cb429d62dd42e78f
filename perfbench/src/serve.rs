//! `serve`: build once, serve many. A triangulated grid behind the default
//! index, queried in a closed loop by one client on the engine's default pool.

use crate::gen::{self, Rng};
use crate::layers::{self, SpanTotals};
use crate::report::Report;
use crate::stats::{Budget, Samples};
use planar_subiso::cover::map_cover_batches;
use planar_subiso::{verify_occurrence, IndexParams, Pattern, Psi, PsiIndex, CONNECTIVITY_CAP};
use psi_baselines::maxflow::local_vertex_connectivity;
use psi_graph::{generators as gg, CsrGraph, Vertex};
use psi_planar::{face_vertex_graph, planar_embedding};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sizes and sample floors of one serve phase.
#[derive(Clone, Copy, Debug)]
pub struct ServeCfg {
    /// Prefix of the phase's context lines.
    pub label: &'static str,
    /// Side of the triangulated grid.
    pub side: usize,
    /// Timed opens; the median is the reported set-up time.
    pub setups: usize,
    /// Floor on the closed loop's K4 scans (met even if the budget runs out).
    pub min_scans: usize,
    /// Whether the workload seed is also the index seed (else the default).
    pub seeded_index: bool,
}

/// The full-size phase: 250 × 250 (62,500 vertices).
pub const FULL: ServeCfg = ServeCfg {
    label: "serve",
    side: 250,
    setups: 3,
    min_scans: 6,
    seeded_index: true,
};

/// The probe every other workload runs so it reports the serve metrics too.
pub const PROBE: ServeCfg = ServeCfg {
    label: "probe.serve",
    side: 40,
    setups: 5,
    min_scans: 10,
    seeded_index: false,
};

/// Floor on the s–t calls: enough for `st_p95_ms` to have ten samples above it.
const MIN_ST: usize = 200;

/// Every `ST_CHECK_EVERY`-th s–t answer is re-checked against max-flow (untimed).
const ST_CHECK_EVERY: usize = 16;

/// Hits per s–t call in the closed-loop mix; one K4 scan per `ST_PER_SCAN` calls.
const HITS_PER_ST: usize = 250;
const ST_PER_SCAN: usize = 30;

fn params(cfg: ServeCfg, seed: u64) -> IndexParams {
    let default = IndexParams::default();
    IndexParams {
        seed: if cfg.seeded_index { seed } else { default.seed },
        ..default
    }
}

fn open(g: &CsrGraph, params: IndexParams) -> Psi {
    Psi::builder()
        .seed(params.seed)
        .open(g)
        .expect("a triangulated grid is planar")
}

/// One hit query (alternating `decide` / `find_one`), checked.
fn hit(
    psi: &mut Psi,
    g: &CsrGraph,
    i: usize,
    pats: &[(&str, Pattern)],
    report: &mut Report,
) -> f64 {
    let (name, p) = &pats[i % pats.len()];
    let t = Instant::now();
    if (i / pats.len()).is_multiple_of(2) {
        let r = black_box(psi.decide(p));
        let dt = t.elapsed().as_secs_f64();
        report.check(matches!(r, Ok(true)), || {
            format!("decide({name}) = {r:?}, expected true")
        });
        dt
    } else {
        let r = black_box(psi.find_one(p));
        let dt = t.elapsed().as_secs_f64();
        let ok = matches!(&r, Ok(Some(w)) if verify_occurrence(p, g, w));
        report.check(ok, || format!("find_one({name}) = {r:?} does not verify"));
        dt
    }
}

/// One exhaustive K4 scan (absent from a triangulated grid), checked.
fn scan(psi: &mut Psi, i: usize, k4: &Pattern, report: &mut Report) -> f64 {
    let t = Instant::now();
    let ok = if i.is_multiple_of(2) {
        matches!(black_box(psi.decide(k4)), Ok(false))
    } else {
        matches!(black_box(psi.find_one(k4)), Ok(None))
    };
    let dt = t.elapsed().as_secs_f64();
    report.check(ok, || {
        "K4 reported present in a triangulated grid".to_string()
    });
    dt
}

/// One single-pair s–t call, its answer compared with max-flow when `check`
/// (else only against the planar cap). Returns (seconds, answer).
fn st(
    psi: &Psi,
    g: &CsrGraph,
    (s, t): (Vertex, Vertex),
    check: bool,
    report: &mut Report,
) -> (f64, usize) {
    let start = Instant::now();
    let r = black_box(psi.connectivity_batch(&[(s, t)]));
    let dt = start.elapsed().as_secs_f64();
    let k = match r.first() {
        Some(Ok(k)) => *k,
        other => {
            report.fail(format!("connectivity_batch({s}, {t}) = {other:?}"));
            return (dt, 0);
        }
    };
    if check {
        let want = local_vertex_connectivity(g, s, t, CONNECTIVITY_CAP);
        report.check(k == want, || {
            format!("κ({s}, {t}) = {k}, max-flow says {want}")
        });
    } else {
        report.check(k <= CONNECTIVITY_CAP, || {
            format!("κ({s}, {t}) = {k} above the cap")
        });
    }
    (dt, k)
}

/// The untraced serve phase: an engine, its artifact bytes and its sample
/// sets, measured in slices between the other phases of the run.
pub struct Serve {
    cfg: ServeCfg,
    g: CsrGraph,
    psi: Psi,
    bytes: Vec<u8>,
    pats: Vec<(&'static str, Pattern)>,
    k4: Pattern,
    rng: Rng,
    calls: usize,
    budget: Budget,
    hits: Samples,
    scans: Samples,
    sts: Samples,
    reloads: Samples,
}

impl Serve {
    /// Opens the engine `cfg.setups` times (the median is the set-up time)
    /// and freezes its artifact.
    pub fn open(cfg: ServeCfg, seed: u64, report: &mut Report) -> Serve {
        let label = cfg.label;
        let g = gg::triangulated_grid(cfg.side, cfg.side);
        report.note(
            &format!("{label}.input"),
            format!(
                "triangulated grid {0}x{0}, n = {1}, m = {2}; {3:?}; engine threads = {4} (default pool)",
                cfg.side,
                g.num_vertices(),
                g.num_edges(),
                params(cfg, seed),
                rayon::current_num_threads()
            ),
        );
        let mut psi = report.set_up(label, cfg.setups, || open(&g, params(cfg, seed)));
        let bytes = psi.freeze().to_bytes();
        report.metric("artifact_mb", bytes.len() as f64 / 1e6, "MB");
        Serve {
            cfg,
            g,
            psi,
            bytes,
            pats: gen::hit_patterns(),
            k4: Pattern::clique(4),
            rng: Rng::new(seed ^ 0x5717),
            calls: 0,
            budget: Budget::default(),
            hits: Samples::default(),
            scans: Samples::default(),
            sts: Samples::default(),
            reloads: Samples::default(),
        }
    }

    /// One reload from the artifact bytes (the first also checks that the
    /// reloaded engine re-serialises to the same bytes).
    fn reload(&mut self, report: &mut Report) {
        let t = Instant::now();
        let thawed = PsiIndex::from_bytes(&self.bytes).map(|idx| Psi::builder().thaw(idx));
        self.reloads.push(t.elapsed().as_secs_f64());
        match thawed {
            Ok(Ok(mut engine)) if self.reloads.len() == 1 => {
                let same = engine.freeze().to_bytes() == self.bytes;
                report.check(same, || {
                    "reloaded artifact re-serialises differently".into()
                });
            }
            Ok(Ok(_)) => report.ok(),
            other => report.fail(format!("reload failed: {:?}", other.err())),
        }
    }

    /// A reload, then the closed loop while the slice worth `share` has time
    /// left: HITS_PER_ST hits per s–t call, one K4 scan per ST_PER_SCAN calls.
    pub fn slice(&mut self, share: Duration, report: &mut Report) {
        let start = self.budget.open(share);
        if !self.budget.left(start) {
            self.budget.close(start);
            return;
        }
        self.reload(report);
        while self.budget.left(start) {
            for _ in 0..HITS_PER_ST {
                let dt = hit(&mut self.psi, &self.g, self.hits.len(), &self.pats, report);
                self.hits.push(dt);
            }
            let pair = gen::non_adjacent_pair(&self.g, &mut self.rng);
            let check = self.calls.is_multiple_of(ST_CHECK_EVERY);
            self.sts.push(st(&self.psi, &self.g, pair, check, report).0);
            self.calls += 1;
            if self.calls.is_multiple_of(ST_PER_SCAN)
                || (self.sts.len() >= MIN_ST && self.scans.len() < self.cfg.min_scans)
            {
                let dt = scan(&mut self.psi, self.scans.len(), &self.k4, report);
                self.scans.push(dt);
            }
        }
        self.budget.close(start);
    }

    /// Whether every sample floor is met.
    pub fn done(&self) -> bool {
        self.scans.len() >= self.cfg.min_scans && self.sts.len() >= MIN_ST
    }

    pub fn finish(self, report: &mut Report) {
        report.metric("reload_s", self.reloads.median(), "s");
        report.note("samples.reload", self.reloads.len());
        report.latency("hit", &self.hits, &[99], 1e6, "us");
        report.latency("scan", &self.scans, &[], 1e3, "ms");
        report.latency("st", &self.sts, &[95], 1e3, "ms");
    }
}

/// What the traced replay of set-up built, for the query part to serve from.
pub struct Replayed {
    pub graph: CsrGraph,
    pub psi: Psi,
    pub batches: usize,
}

/// Mirrors `IndexParams`' per-round clustering seed, so the replayed cover
/// passes see the rounds the index stores (checked by batch counts).
fn round_seed(params: IndexParams, round: u32) -> u64 {
    params
        .seed
        .wrapping_add(u64::from(round))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Replays `open` layer by layer on `g` with one benchmark span around each
/// layer's entry point, reporting each layer's time. `threads` selects a
/// dedicated pool for the thawed engine.
pub fn replay_setup(
    g: CsrGraph,
    params: IndexParams,
    threads: Option<usize>,
    report: &mut Report,
) -> Replayed {
    let t = Instant::now();
    let embedding = {
        let _s = psi_obs::span!("bench.planarity.embed");
        planar_embedding(&g).expect("benchmark inputs are planar")
    };
    report.metric("planarity.embed_s", t.elapsed().as_secs_f64(), "s");

    let (mut pass_s, mut replayed_batches) = (0.0, Vec::new());
    for r in 0..params.rounds {
        let t = Instant::now();
        let _s = psi_obs::span!("bench.cover.pass", round = r);
        let (batches, _) = map_cover_batches(
            &embedding.graph,
            params.k as usize,
            params.d as usize,
            round_seed(params, r),
            1,
            params.batch_budget as usize,
            |b| b.num_windows(),
        );
        pass_s += t.elapsed().as_secs_f64();
        replayed_batches.push(batches.len());
    }
    report.metric("cover.pass_s", pass_s, "s");

    let t = Instant::now();
    let index = {
        let _s = psi_obs::span!("bench.index.build");
        PsiIndex::build(&embedding, params)
    };
    report.metric("index.build_s", t.elapsed().as_secs_f64(), "s");
    let stored: Vec<usize> = index.rounds().iter().map(|r| r.len()).collect();
    report.check(stored == replayed_batches, || {
        format!(
            "replayed cover passes emit {replayed_batches:?} batches, the index stores {stored:?}"
        )
    });
    let batches: usize = stored.iter().sum();
    report.metric("cover.batches", batches as f64, "count");

    let (mut busy, mut segments, mut layered, mut width, mut decomp_bytes) = (0.0, 0, 0, 0, 0);
    for ib in index.rounds().iter().flat_map(|r| r.iter()) {
        let t = Instant::now();
        let (btd, adopted) = {
            let _s = psi_obs::span!("bench.treedecomp.decompose");
            ib.batch.decomposition_described()
        };
        busy += t.elapsed().as_secs_f64();
        segments += ib.batch.num_windows();
        layered += adopted;
        width = width.max(btd.width());
        let d = &ib.decomp;
        decomp_bytes += 16 + 4 * (d.bag_offsets.len() + d.bag_data.len() + d.children.len());
    }
    report.metric("treedecomp.decompose_s", busy, "s");
    report.metric(
        "treedecomp.layered_share",
        layered as f64 / segments.max(1) as f64,
        "ratio",
    );
    report.metric("treedecomp.max_width", width as f64, "count");
    report.metric("index.decomp_mb", decomp_bytes as f64 / 1e6, "MB");
    report.note("replay.segments", format!("{segments} ({layered} layered)"));

    let t = Instant::now();
    {
        let _s = psi_obs::span!("bench.face_vertex.build");
        black_box(face_vertex_graph(&embedding));
    }
    report.metric("face_vertex.build_s", t.elapsed().as_secs_f64(), "s");

    let bytes = {
        let _s = psi_obs::span!("bench.index.to_bytes");
        index.to_bytes()
    };
    drop(index);
    let t = Instant::now();
    let loaded = {
        let _s = psi_obs::span!("bench.index.from_bytes");
        PsiIndex::from_bytes(&bytes).expect("a fresh artifact loads")
    };
    report.metric("index.from_bytes_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let psi = {
        let _s = psi_obs::span!("bench.dynamic.thaw");
        let builder = Psi::builder();
        let builder = match threads {
            Some(n) => builder.threads(n),
            None => builder,
        };
        builder.thaw(loaded).expect("thaw of a loaded artifact")
    };
    report.metric("dynamic.thaw_s", t.elapsed().as_secs_f64(), "s");
    Replayed {
        graph: g,
        psi,
        batches,
    }
}

/// Hits timed per call in blocks, alternately untraced and traced; returns
/// the two medians in seconds.
fn overhead_blocks(
    psi: &mut Psi,
    g: &CsrGraph,
    report: &mut Report,
    spans: &mut SpanTotals,
) -> (f64, f64) {
    const BLOCK: usize = 12_000;
    let pats = gen::hit_patterns();
    let (mut off, mut on) = (Samples::default(), Samples::default());
    for block in 0..4 {
        let traced = block % 2 == 1;
        psi_obs::set_tracing(traced);
        for i in 0..BLOCK {
            let dt = if traced {
                let _s = psi_obs::span!("bench.serve.hit");
                hit(psi, g, i, &pats, report)
            } else {
                hit(psi, g, i, &pats, report)
            };
            if traced { &mut on } else { &mut off }.push(dt);
        }
        psi_obs::set_tracing(true);
        spans.drain();
    }
    (off.median(), on.median())
}

/// The traced serve run: set-up replay, then traced queries.
pub fn traced(cfg: ServeCfg, seed: u64, report: &mut Report) {
    let pool_before = rayon::pool_stats();
    let mut spans = SpanTotals::default();
    psi_obs::set_tracing(true);
    spans.drain();
    let g = gg::triangulated_grid(cfg.side, cfg.side);
    report.note(
        "serve.input",
        format!(
            "triangulated grid {0}x{0}, n = {1}; {2:?}; engine threads = {3} (default pool)",
            cfg.side,
            g.num_vertices(),
            params(cfg, seed),
            rayon::current_num_threads()
        ),
    );
    let Replayed {
        graph: g,
        mut psi,
        batches,
    } = replay_setup(g, params(cfg, seed), None, report);
    spans.drain();

    let (off, on) = overhead_blocks(&mut psi, &g, report, &mut spans);
    report.metric("obs.overhead_share", (on - off) / off, "ratio");
    report.note(
        "trace.hit_p50_us",
        format!("untraced {} / traced {}", off * 1e6, on * 1e6),
    );

    let k4 = Pattern::clique(4);
    let mut scan_s = Samples::default();
    for i in 0..4 {
        let _s = psi_obs::span!("bench.serve.scan");
        scan_s.push(scan(&mut psi, i, &k4, report));
    }
    report.metric(
        "index.scan_us_per_batch",
        scan_s.median() * 1e6 / batches.max(1) as f64,
        "us",
    );
    let mut rng = Rng::new(seed ^ 0x5717);
    let (mut capped, pairs) = (0usize, 60usize);
    for i in 0..pairs {
        let pair = gen::non_adjacent_pair(&g, &mut rng);
        let _s = psi_obs::span!("bench.serve.st");
        let (_, k) = st(&psi, &g, pair, i % 10 == 0, report);
        capped += usize::from(k == CONNECTIVITY_CAP);
    }
    report.metric(
        "connectivity.st_capped_share",
        capped as f64 / pairs as f64,
        "ratio",
    );
    spans.drain();
    psi_obs::set_tracing(false);
    report.metric(
        "index.dp_fallbacks",
        spans.query_dp_batches() as f64,
        "count",
    );
    layers::report_pool_delta(report, pool_before);
    spans.report(report);
}
