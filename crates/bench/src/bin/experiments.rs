//! Prints the paper-style experiment tables recorded in `EXPERIMENTS.md`.
//!
//! Each section corresponds to one experiment of the index in `DESIGN.md` (T1,
//! F1–F11); the `bench_*` sections write the machine-readable `BENCH_*.json`
//! baselines. The table sections are deliberately text-only: run them with
//! `cargo run -p psi_bench --release --bin experiments [section ...]` and paste
//! the relevant rows into `EXPERIMENTS.md`.

use planar_subiso::{
    build_cover, build_cover_with_stats, find_separating_occurrence_with_stats, run_parallel,
    search_cover, vertex_connectivity, ConnectivityMode, DynamicPsiIndex, IndexParams,
    ParallelDpConfig, Pattern, Psi, PsiIndex, PsiSnapshot, SeparatingInstance, SubgraphIsomorphism,
    DEFAULT_BATCH_BUDGET,
};
use psi_baselines::{eppstein_sequential_decide, flow_vertex_connectivity, ullmann_decide};
use psi_bench::{size_sweep, table1_patterns, target_with_n};
use psi_cluster::cluster;
use psi_graph::generators;
use psi_obs::BenchReport;
use psi_planar::generators as pg;
use psi_treedecomp::{
    min_degree_decomposition, path_layers::RootedTree, tree_into_paths, BinaryTreeDecomposition,
};
use std::time::Instant;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1000.0)
}

fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

/// Writes a rendered [`BenchReport`] and validates it parses as JSON before it
/// can become the committed baseline.
fn write_report(path: &str, report: &BenchReport) {
    let text = report.render();
    psi_obs::json::parse(&text).expect("bench report must be valid JSON");
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// The in-run tracing-overhead gate: `traced` must stay within 10% of its
/// untraced twin (plus 10 ms of absolute slack for timer noise on fast cases).
/// Returns `true` when the gate fails.
fn traced_overhead_gate(name: &str, untraced_ms: f64, traced_ms: f64) -> bool {
    let ratio = traced_ms / untraced_ms;
    let bad = ratio > 1.10 && traced_ms > untraced_ms + 10.0;
    let verdict = if bad { "OVERHEAD REGRESSED" } else { "ok" };
    println!(
        "--check: {name:<26} untraced {untraced_ms:>9.2} ms, traced {traced_ms:>9.2} ms, \
         overhead {:>5.1}%  {verdict}",
        (ratio - 1.0) * 100.0
    );
    bad
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(name));

    if want("t1") {
        t1_decision();
    }
    if want("f1") {
        f1_cover();
    }
    if want("f2") {
        f2_cluster();
    }
    if want("f3") {
        f3_scaling_n();
    }
    if want("f4") {
        f4_scaling_k();
    }
    if want("f5") {
        f5_listing();
    }
    if want("f6") {
        f6_disconnected();
    }
    if want("f7") {
        f7_connectivity();
    }
    if want("f8") {
        f8_threads();
    }
    if want("f9") {
        f9_shortcuts();
    }
    if want("f10") {
        f10_path_layers();
    }
    if want("f11") {
        f11_planarity();
    }
    if want("bench_dp") {
        let check = args.iter().any(|a| a == "--check");
        bench_dp(check);
    }
    if want("bench_cover") {
        let check = args.iter().any(|a| a == "--check");
        bench_cover(check);
    }
    if want("bench_planarity") {
        let check = args.iter().any(|a| a == "--check");
        bench_planarity(check);
    }
    if want("bench_serve") {
        let check = args.iter().any(|a| a == "--check");
        bench_serve(check);
    }
    if want("bench_dynamic") {
        let check = args.iter().any(|a| a == "--check");
        bench_dynamic(check);
    }
}

/// One machine-readable measurement of the planarity engine.
struct PlanarityBenchCase {
    name: &'static str,
    n: usize,
    all_ms: Vec<f64>,
    faces: usize,
    blocks: usize,
    witness_edges: usize,
}

/// Median of the samples (even sample counts average the central pair); run
/// counts here are odd anyway.
fn median_of(all_ms: &[f64]) -> f64 {
    let mut sorted = all_ms.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn stddev_of(all_ms: &[f64]) -> f64 {
    if all_ms.len() < 2 {
        return 0.0;
    }
    let mean = all_ms.iter().sum::<f64>() / all_ms.len() as f64;
    (all_ms.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (all_ms.len() - 1) as f64).sqrt()
}

/// A triangulated grid with a `K5` wired between five spread-out vertices — the
/// witness-extraction workload (the obstruction hides inside one big block).
fn grid_with_hidden_k5(side: usize) -> psi_graph::CsrGraph {
    let g = generators::triangulated_grid(side, side);
    let mut b = psi_graph::GraphBuilder::with_capacity(g.num_vertices(), g.num_edges() + 10);
    b.extend_edges(g.edges());
    let at = |r: usize, c: usize| (r * side + c) as u32;
    let picks = [
        at(0, 0),
        at(0, side - 1),
        at(side - 1, 0),
        at(side - 1, side - 1),
        at(side / 2, side / 2),
    ];
    for i in 0..picks.len() {
        for j in (i + 1)..picks.len() {
            if !g.has_edge(picks[i], picks[j]) {
                b.add_edge(picks[i], picks[j]);
            }
        }
    }
    b.build()
}

/// bench_planarity — machine-readable planarity-engine baselines
/// (`BENCH_planarity.json`).
///
/// Covers the embed cost across sizes up to the paper's million-vertex headline
/// instance (embedding-stripped triangulated grids plus a maximal planar stacked
/// triangulation), the rejection path (witness extraction for a `K5` hidden in a
/// large planar block), and the end-to-end arbitrary-graph front door
/// (`Psi::decide_in(C4)`, i.e. the LR planarity gate + cover pipeline). With `--check`,
/// fresh medians are gated at 2x against the committed `BENCH_planarity.json` —
/// the same nightly CI contract as `bench_cover`.
fn bench_planarity(check: bool) {
    println!("\n== bench_planarity: planarity-engine baselines -> BENCH_planarity.json ==");
    let baseline = std::fs::read_to_string("BENCH_planarity.json").ok();
    let mut cases: Vec<PlanarityBenchCase> = Vec::new();

    // Embedding-stripped planar inputs: the engine recomputes what the generators
    // used to carry natively.
    let embed_cases: Vec<(&'static str, psi_graph::CsrGraph, usize)> = vec![
        ("embed_grid_65k", generators::triangulated_grid(256, 256), 5),
        (
            "embed_grid_262k",
            generators::triangulated_grid(512, 512),
            3,
        ),
        (
            "embed_grid_1m",
            generators::triangulated_grid(1024, 1024),
            3,
        ),
        (
            "embed_stacked_262k",
            generators::random_stacked_triangulation(262_144, 7),
            3,
        ),
    ];
    for (name, g, runs) in embed_cases {
        let mut all_ms = Vec::new();
        let mut faces = 0;
        let mut blocks = 0;
        for _ in 0..runs {
            let start = Instant::now();
            let (res, stats) = psi_planar::planar_embedding_with_stats(&g);
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            let e = res.expect("planar input rejected");
            faces = e.num_faces();
            blocks = stats.blocks;
        }
        cases.push(PlanarityBenchCase {
            name,
            n: g.num_vertices(),
            all_ms,
            faces,
            blocks,
            witness_edges: 0,
        });
    }

    // Rejection path: LR failure plus chunked witness minimisation inside a 10k-vertex
    // block.
    {
        let g = grid_with_hidden_k5(100);
        let mut all_ms = Vec::new();
        let mut witness_edges = 0;
        for _ in 0..3 {
            let start = Instant::now();
            let w = psi_planar::planar_embedding(&g).expect_err("hidden K5 accepted");
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            assert!(w.verify(&g), "witness failed verification");
            witness_edges = w.num_edges();
        }
        cases.push(PlanarityBenchCase {
            name: "reject_hidden_k5_10k",
            n: g.num_vertices(),
            all_ms,
            faces: 0,
            blocks: 0,
            witness_edges,
        });
    }

    // End-to-end front door: planarity gate + decide(C4) on a bare graph.
    {
        let g = generators::triangulated_grid(512, 512);
        let c4 = Pattern::cycle(4);
        let mut all_ms = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            assert!(Psi::decide_in(&c4, &g).expect("grid rejected"));
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        cases.push(PlanarityBenchCase {
            name: "auto_decide_c4_262k",
            n: g.num_vertices(),
            all_ms,
            faces: 0,
            blocks: 0,
            witness_edges: 0,
        });
    }

    let mut report = BenchReport::new("bench_planarity/v1", host_threads());
    for c in &cases {
        report.push(
            report
                .case(c.name)
                .u64("n", c.n as u64)
                .f64("median_ms", median_of(&c.all_ms), 2)
                .f64("stddev_ms", stddev_of(&c.all_ms), 2)
                .f64_list("all_ms", &c.all_ms, 2)
                .u64("faces", c.faces as u64)
                .u64("blocks", c.blocks as u64)
                .u64("witness_edges", c.witness_edges as u64),
        );
        println!(
            "{:<22} n {:>8}   median {:>9.2} ms  σ {:>7.2} ms   faces {:>8}   blocks {:>3}   witness {:>3}",
            c.name,
            c.n,
            median_of(&c.all_ms),
            stddev_of(&c.all_ms),
            c.faces,
            c.blocks,
            c.witness_edges
        );
    }
    write_report("BENCH_planarity.json", &report);

    if check {
        let Some(baseline) = baseline else {
            println!("--check: no committed BENCH_planarity.json baseline; skipping gate");
            return;
        };
        let mut regressed = false;
        for c in &cases {
            let Some(old) = extract_case_median(&baseline, c.name) else {
                println!("--check: case {} absent from baseline; skipping", c.name);
                continue;
            };
            let fresh = median_of(&c.all_ms);
            let ratio = fresh / old;
            let verdict = if ratio > 2.0 { "REGRESSED" } else { "ok" };
            println!(
                "--check: {:<22} baseline {:>9.2} ms, fresh {:>9.2} ms, ratio {:>5.2}x  {}",
                c.name, old, fresh, ratio, verdict
            );
            if ratio > 2.0 {
                regressed = true;
            }
        }
        if regressed {
            eprintln!("bench_planarity regression gate failed (>2x against committed baseline)");
            std::process::exit(1);
        }
    }
}

/// One machine-readable measurement of the sharded cover pipeline.
struct CoverBenchCase {
    name: &'static str,
    n: usize,
    all_ms: Vec<f64>,
    pieces: usize,
    skipped_small: usize,
    batches: usize,
    scratch_bytes: usize,
}

impl CoverBenchCase {
    fn median_ms(&self) -> f64 {
        median_of(&self.all_ms)
    }
}

/// bench_cover — machine-readable cover-pipeline baselines (`BENCH_cover.json`).
///
/// Covers the three cost centres of the million-vertex workload: eager cover
/// construction across sizes up to `n = 10^6`, the streamed batch scan (construction
/// plus disjoint-union packing, no DP), and the end-to-end `decide(C4)` at one
/// million vertices. With `--check`, the fresh medians are compared against the
/// committed `BENCH_cover.json` and the process exits non-zero when any case
/// regressed by more than 2x — the nightly CI gate.
fn bench_cover(check: bool) {
    println!("\n== bench_cover: sharded cover-pipeline baselines -> BENCH_cover.json ==");
    let baseline = std::fs::read_to_string("BENCH_cover.json").ok();
    let mut cases: Vec<CoverBenchCase> = Vec::new();

    // Odd run counts everywhere: an odd sample has a true middle element, so the
    // regression gate compares one real run, not an average of two.
    for (name, n, runs) in [
        ("cover_build_65k", 65_536usize, 3usize),
        ("cover_build_262k", 262_144, 3),
        ("cover_build_1m", 1_000_000, 3),
    ] {
        let g = target_with_n(n);
        let mut all_ms = Vec::new();
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let (cover, stats) = build_cover_with_stats(&g, 4, 1, 7);
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            last = Some(stats);
            drop(cover);
        }
        let stats = last.unwrap();
        cases.push(CoverBenchCase {
            name,
            n: g.num_vertices(),
            all_ms,
            pieces: stats.pieces,
            skipped_small: stats.skipped_small,
            batches: stats.batches,
            scratch_bytes: stats.scratch_bytes,
        });
    }

    // Streamed scan: windows below k are skipped before construction, survivors are
    // packed into DEFAULT_BATCH_BUDGET-vertex unions; no DP runs, so this isolates
    // the pipeline cost that `decide` pays per cover round.
    {
        let g = target_with_n(262_144);
        let mut all_ms = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let start = Instant::now();
            let (none, stats) =
                search_cover::<(), _>(&g, 4, 1, 7, 4, DEFAULT_BATCH_BUDGET, |_| None);
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            assert!(none.is_none());
            last = Some(stats);
        }
        let stats = last.unwrap();
        cases.push(CoverBenchCase {
            name: "cover_scan_262k",
            n: g.num_vertices(),
            all_ms,
            pieces: stats.pieces,
            skipped_small: stats.skipped_small,
            batches: stats.batches,
            scratch_bytes: stats.scratch_bytes,
        });
    }

    // End-to-end decision at the headline size (hit in the first cover round; the
    // cost is clustering + streaming up to the first batch with a C4).
    {
        let g = target_with_n(1_000_000);
        let query = SubgraphIsomorphism::new(Pattern::cycle(4));
        let mut all_ms = Vec::new();
        for _ in 0..3 {
            let start = Instant::now();
            assert!(query.decide(&g));
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        }
        cases.push(CoverBenchCase {
            name: "decide_c4_1m",
            n: g.num_vertices(),
            all_ms,
            pieces: 0,
            skipped_small: 0,
            batches: 0,
            scratch_bytes: 0,
        });
    }

    // Tracing-overhead twin of cover_build_1m: the identical build with the
    // span gate open and every cover.build / cover.shard span recorded. The
    // --check gate holds the traced median within 10% of the untraced one; the
    // untraced median itself (the disabled path: one relaxed load per span
    // site) is bounded by the standing 2x baseline gate above.
    {
        let g = target_with_n(1_000_000);
        psi_obs::set_tracing(true);
        let mut all_ms = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            psi_obs::trace::clear();
            let start = Instant::now();
            let (cover, stats) = build_cover_with_stats(&g, 4, 1, 7);
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            last = Some(stats);
            drop(cover);
        }
        psi_obs::set_tracing(false);
        psi_obs::trace::clear();
        let stats = last.unwrap();
        cases.push(CoverBenchCase {
            name: "cover_build_1m_traced",
            n: g.num_vertices(),
            all_ms,
            pieces: stats.pieces,
            skipped_small: stats.skipped_small,
            batches: stats.batches,
            scratch_bytes: stats.scratch_bytes,
        });
    }

    let mut report = BenchReport::new("bench_cover/v2", host_threads());
    // Measured impact of replacing the BTreeMap round merge in `cluster_parallel`
    // with the sort-based merge (identical clusterings, same container, 1 core):
    // cover_build_262k 130.1 -> 89.5 ms, cover_build_1m 507.6 -> 338.8 ms,
    // cover_scan_262k 101.7 -> 68.5 ms, decide_c4_1m 390.1 -> 200.8 ms.
    report.notes(
        "sort-based clustering round merge (PR 5): cover_build_262k \
         130.1->89.5ms, cover_build_1m 507.6->338.8ms, cover_scan_262k 101.7->68.5ms, \
         decide_c4_1m 390.1->200.8ms vs the BTreeMap merge on the same 1-core host; \
         cover_build_1m_traced is the same build with psi_obs tracing enabled \
         (gated at <=10% overhead in --check)",
    );
    for c in &cases {
        report.push(
            report
                .case(c.name)
                .u64("n", c.n as u64)
                .f64("median_ms", c.median_ms(), 2)
                .f64_list("all_ms", &c.all_ms, 2)
                .u64("pieces", c.pieces as u64)
                .u64("skipped_small", c.skipped_small as u64)
                .u64("batches", c.batches as u64)
                .u64("scratch_bytes", c.scratch_bytes as u64),
        );
        println!(
            "{:<18} n {:>8}   median {:>9.2} ms   pieces {:>7}   skipped {:>7}   batches {:>6}   scratch {:>8} B",
            c.name, c.n, c.median_ms(), c.pieces, c.skipped_small, c.batches, c.scratch_bytes
        );
    }
    write_report("BENCH_cover.json", &report);

    if check {
        let Some(baseline) = baseline else {
            println!("--check: no committed BENCH_cover.json baseline; skipping gate");
            return;
        };
        let mut regressed = false;
        for c in &cases {
            let Some(old) = extract_case_median(&baseline, c.name) else {
                println!("--check: case {} absent from baseline; skipping", c.name);
                continue;
            };
            let fresh = c.median_ms();
            let ratio = fresh / old;
            let verdict = if ratio > 2.0 { "REGRESSED" } else { "ok" };
            println!(
                "--check: {:<18} baseline {:>9.2} ms, fresh {:>9.2} ms, ratio {:>5.2}x  {}",
                c.name, old, fresh, ratio, verdict
            );
            if ratio > 2.0 {
                regressed = true;
            }
        }
        // In-run tracing overhead: traced vs untraced medians of the same run,
        // so the gate is immune to host drift between baseline and fresh runs.
        let untraced = cases.iter().find(|c| c.name == "cover_build_1m");
        let traced = cases.iter().find(|c| c.name == "cover_build_1m_traced");
        if let (Some(u), Some(t)) = (untraced, traced) {
            if traced_overhead_gate("cover_build_1m_traced", u.median_ms(), t.median_ms()) {
                regressed = true;
            }
        }
        if regressed {
            eprintln!(
                "bench_cover regression gate failed (>2x against committed baseline, \
                 or >10% tracing overhead)"
            );
            std::process::exit(1);
        }
    }
}

/// One machine-readable measurement of the build-once / serve-many index engine.
struct ServeBenchCase {
    name: &'static str,
    n: usize,
    all_ms: Vec<f64>,
    /// Queries amortised over one timed call (1 for the build/save/load cases).
    queries: usize,
    /// Serialized artifact size where applicable (0 otherwise).
    bytes: u64,
}

impl ServeBenchCase {
    fn median_ms(&self) -> f64 {
        median_of(&self.all_ms)
    }
}

/// bench_serve — machine-readable index-artifact baselines (`BENCH_serve.json`).
///
/// Measures the build-once / serve-many split at the headline `n = 10^6` size: index
/// construction, artifact save and (validating) load, and the sustained query side —
/// positive `decide(C4)` amortised over a 256-query batch (the headline number: the
/// classic path pays a full cover rebuild, ~200 ms, *per* decide), the exhaustive
/// negative scan (`K4`), and an s–t connectivity batch. With `--check`, fresh
/// medians gate >2x regressions against the committed `BENCH_serve.json` exactly
/// like `bench_cover`.
fn bench_serve(check: bool) {
    println!("\n== bench_serve: index build/load/serve baselines -> BENCH_serve.json ==");
    let baseline = std::fs::read_to_string("BENCH_serve.json").ok();
    let mut cases: Vec<ServeBenchCase> = Vec::new();

    let side = 1000usize;
    let embedding = pg::triangulated_grid_embedded(side, side);
    let n = embedding.graph.num_vertices();
    let params = IndexParams::default();

    // Build: `rounds` cover passes + per-batch decompositions + face–vertex graph.
    let mut all_ms = Vec::new();
    let mut index = None;
    for _ in 0..3 {
        let (built, ms) = timed(|| PsiIndex::build(&embedding, params));
        all_ms.push(ms);
        index = Some(built);
    }
    let index = index.unwrap();
    cases.push(ServeBenchCase {
        name: "index_build_1m",
        n,
        all_ms,
        queries: 1,
        bytes: 0,
    });
    drop(embedding);

    // Save / load round trip through a real file (load re-validates everything).
    let path = std::env::temp_dir().join("psi_bench_serve.psi");
    let mut save_ms = Vec::new();
    for _ in 0..3 {
        let (res, ms) = timed(|| index.save(&path));
        res.expect("write index artifact");
        save_ms.push(ms);
    }
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    cases.push(ServeBenchCase {
        name: "index_save_1m",
        n,
        all_ms: save_ms,
        queries: 1,
        bytes,
    });
    let mut load_ms = Vec::new();
    for _ in 0..3 {
        let (loaded, ms) = timed(|| PsiIndex::load(&path).expect("load index artifact"));
        load_ms.push(ms);
        assert_eq!(loaded.target().num_vertices(), n);
    }
    std::fs::remove_file(&path).ok();
    cases.push(ServeBenchCase {
        name: "index_load_1m",
        n,
        all_ms: load_ms,
        queries: 1,
        bytes,
    });

    let engine = PsiSnapshot::from(index);

    // Sustained positive queries: 256 decide(C4) per timed call. The classic path
    // rebuilds the cover per query (~200 ms, see BENCH_cover decide_c4_1m); served
    // from the prebuilt index the amortised per-query cost must stay single-digit ms.
    {
        let queries = 256usize;
        let patterns = vec![Pattern::cycle(4); queries];
        let mut all_ms = Vec::new();
        for _ in 0..3 {
            let (verdicts, ms) = timed(|| engine.decide_batch(&patterns));
            assert!(verdicts.iter().all(|v| matches!(v, Ok(true))));
            all_ms.push(ms);
        }
        let per_query = median_of(&all_ms) / queries as f64;
        println!("  (serve_decide_c4_1m amortised: {per_query:.6} ms/query)");
        cases.push(ServeBenchCase {
            name: "serve_decide_c4_1m",
            n,
            all_ms,
            queries,
            bytes: 0,
        });
    }

    // Negative pattern: K4 is absent from a triangulated grid, so every query scans
    // all stored batches of all rounds — the worst case the index can be asked.
    // Viable at n = 1M only because of the per-batch backtracking fast path: the
    // exhaustive DP scan costs ~25 ms per batch (minutes per query); the fast path
    // settles each ~256-vertex batch exactly in microseconds.
    {
        let queries = 2usize;
        let patterns = vec![Pattern::clique(4); queries];
        let mut all_ms = Vec::new();
        for _ in 0..3 {
            let (verdicts, ms) = timed(|| engine.decide_batch(&patterns));
            assert!(verdicts.iter().all(|v| matches!(v, Ok(false))));
            all_ms.push(ms);
        }
        cases.push(ServeBenchCase {
            name: "serve_decide_k4_neg_1m",
            n,
            all_ms,
            queries,
            bytes: 0,
        });
    }

    // s–t connectivity batch against the shared target (capped unit-capacity flow).
    {
        let queries = 64usize;
        let pairs: Vec<(u32, u32)> = (0..queries as u32)
            .map(|i| (i * 997 % n as u32, (i * 7919 + n as u32 / 2) % n as u32))
            .filter(|(s, t)| s != t)
            .collect();
        let mut all_ms = Vec::new();
        for _ in 0..3 {
            let (answers, ms) = timed(|| engine.connectivity_batch(&pairs));
            assert!(answers.iter().all(|a| a.is_ok()));
            all_ms.push(ms);
        }
        cases.push(ServeBenchCase {
            name: "serve_connectivity_1m",
            n,
            all_ms,
            queries: pairs.len(),
            bytes: 0,
        });
    }

    let mut report = BenchReport::new("bench_serve/v1", host_threads());
    report.notes(
        "build-once / serve-many index artifact (PR 6): per-query cost \
         is median_ms / queries; the classic path pays a full cover rebuild per \
         decide (BENCH_cover decide_c4_1m) where the served path reuses the frozen \
         rounds",
    );
    for c in &cases {
        report.push(
            report
                .case(c.name)
                .u64("n", c.n as u64)
                .f64("median_ms", c.median_ms(), 3)
                .f64_list("all_ms", &c.all_ms, 2)
                .u64("queries", c.queries as u64)
                .f64("per_query_ms", c.median_ms() / c.queries as f64, 6)
                .u64("bytes", c.bytes),
        );
        println!(
            "{:<22} n {:>8}   median {:>9.2} ms   queries {:>4}   per-query {:>10.6} ms   bytes {:>11}",
            c.name,
            c.n,
            c.median_ms(),
            c.queries,
            c.median_ms() / c.queries as f64,
            c.bytes
        );
    }
    write_report("BENCH_serve.json", &report);

    if check {
        let Some(baseline) = baseline else {
            println!("--check: no committed BENCH_serve.json baseline; skipping gate");
            return;
        };
        let mut regressed = false;
        for c in &cases {
            let Some(old) = extract_case_median(&baseline, c.name) else {
                println!("--check: case {} absent from baseline; skipping", c.name);
                continue;
            };
            let fresh = c.median_ms();
            let ratio = fresh / old;
            // Sub-10 ms medians (the fast-path serving cases) sit at timer-noise
            // scale where a 2x ratio is meaningless; gate on absolute slack there.
            let bad = ratio > 2.0 && fresh > old + 10.0;
            let verdict = if bad { "REGRESSED" } else { "ok" };
            println!(
                "--check: {:<22} baseline {:>9.2} ms, fresh {:>9.2} ms, ratio {:>5.2}x  {}",
                c.name, old, fresh, ratio, verdict
            );
            if bad {
                regressed = true;
            }
        }
        if regressed {
            eprintln!("bench_serve regression gate failed (>2x against committed baseline)");
            std::process::exit(1);
        }
    }
}

/// bench_dynamic — machine-readable incremental-mutation baselines
/// (`BENCH_dynamic.json`).
///
/// Measures the dynamic index at the headline `n = 10^6` size (a plain embedded
/// grid, so cell-diagonal inserts stay planar and co-facial): opening the live
/// engine, amortised single-edge insert and delete (256 spread-out cell diagonals
/// per timed call — the paper-scale contrast is a full from-scratch rebuild per
/// mutation, i.e. the `index_build_1m` cost in `BENCH_serve.json`), a mixed churn
/// loop interleaving mutations with `decide(C4)` queries, and the freeze back to
/// the immutable artifact. With `--check`, fresh medians gate >2x regressions
/// against the committed `BENCH_dynamic.json` with the same absolute-slack rule
/// as `bench_serve`.
fn bench_dynamic(check: bool) {
    println!("\n== bench_dynamic: incremental-mutation baselines -> BENCH_dynamic.json ==");
    let baseline = std::fs::read_to_string("BENCH_dynamic.json").ok();
    let mut cases: Vec<ServeBenchCase> = Vec::new();

    let (w, h) = (1000usize, 1000usize);
    let embedding = pg::grid_embedded(w, h);
    let n = embedding.graph.num_vertices();
    let params = IndexParams::default();

    // Open: thaw the scratch build into the live mutable engine.
    let mut all_ms = Vec::new();
    let mut dynamic = None;
    for _ in 0..3 {
        let (built, ms) = timed(|| DynamicPsiIndex::build(&embedding, params));
        all_ms.push(ms);
        dynamic = Some(built);
    }
    let mut dynamic = dynamic.unwrap();
    cases.push(ServeBenchCase {
        name: "dynamic_open_1m",
        n,
        all_ms,
        queries: 1,
        bytes: 0,
    });
    drop(embedding);

    // One round's worth of spread-out cell diagonals: distinct rows (37 and 331
    // are units mod 998), so the cells — and the inserted edges — are distinct.
    let mutations = 256usize;
    let diagonals = |round: usize| -> Vec<(u32, u32)> {
        (0..mutations)
            .map(|i| {
                let r = (37 * i + 331 * round) % (h - 2);
                let c = (53 * i + 577 * round + 11) % (w - 2);
                ((r * w + c) as u32, ((r + 1) * w + c + 1) as u32)
            })
            .collect()
    };

    // Amortised insert / delete: each round inserts 256 diagonals in one timed
    // call, then deletes the same 256 in another, restoring the plain grid.
    // Mutations are local repairs (clustering + face surgery + dirty marks);
    // the deferred batch rebuild is timed as its own case (`dynamic_flush_1m`,
    // the flush of one 256-insert backlog), so the split between mutation
    // latency and maintenance throughput is explicit, not hidden.
    let mut insert_ms = Vec::new();
    let mut flush_ms = Vec::new();
    let mut delete_ms = Vec::new();
    let mut flush_restore_ms = Vec::new();
    for round in 0..3 {
        let edges = diagonals(round);
        let (_, ms) = timed(|| {
            for &(u, v) in &edges {
                dynamic.insert_edge(u, v).expect("planar diagonal rejected");
            }
        });
        insert_ms.push(ms);
        let (_, ms) = timed(|| dynamic.flush());
        flush_ms.push(ms);
        let (_, ms) = timed(|| {
            for &(u, v) in &edges {
                dynamic
                    .delete_edge(u, v)
                    .expect("inserted diagonal missing");
            }
        });
        delete_ms.push(ms);
        // Restoring flush: the deletes return every touched cluster to content
        // the engine decomposed before, so the content-hash decomposition cache
        // should serve most of the rebuild.
        let (_, ms) = timed(|| dynamic.flush());
        flush_restore_ms.push(ms);
    }
    println!(
        "  (dynamic_insert_1m amortised: {:.4} ms/mutation latency + {:.4} ms/mutation \
         deferred flush; rebuild-per-mutation would cost the full dynamic_open_1m median)",
        median_of(&insert_ms) / mutations as f64,
        median_of(&flush_ms) / mutations as f64
    );
    cases.push(ServeBenchCase {
        name: "dynamic_insert_1m",
        n,
        all_ms: insert_ms,
        queries: mutations,
        bytes: 0,
    });
    cases.push(ServeBenchCase {
        name: "dynamic_flush_1m",
        n,
        all_ms: flush_ms,
        queries: mutations,
        bytes: 0,
    });
    cases.push(ServeBenchCase {
        name: "dynamic_delete_1m",
        n,
        all_ms: delete_ms,
        queries: mutations,
        bytes: 0,
    });
    cases.push(ServeBenchCase {
        name: "dynamic_flush_restore_1m",
        n,
        all_ms: flush_restore_ms,
        queries: mutations,
        bytes: 0,
    });

    // Mixed churn: insert-delete pairs with a decide(C4) interleaved every 8
    // pairs — the serve-while-mutating workload.
    {
        let c4 = Pattern::cycle(4);
        let mut all_ms = Vec::new();
        for round in 3..6 {
            let edges = diagonals(round);
            let (_, ms) = timed(|| {
                for (i, &(u, v)) in edges.iter().take(128).enumerate() {
                    dynamic.insert_edge(u, v).expect("planar diagonal rejected");
                    dynamic
                        .delete_edge(u, v)
                        .expect("inserted diagonal missing");
                    if i % 8 == 7 {
                        assert!(dynamic.decide(&c4).expect("C4 query rejected"));
                    }
                }
            });
            all_ms.push(ms);
        }
        cases.push(ServeBenchCase {
            name: "dynamic_churn_mixed_1m",
            n,
            all_ms,
            queries: 256,
            bytes: 0,
        });
    }

    // Freeze: canonicalise the live state back into the immutable artifact
    // (bit-identical to a from-scratch build of the current graph).
    {
        let mut all_ms = Vec::new();
        let mut bytes = 0u64;
        for _ in 0..3 {
            let (frozen, ms) = timed(|| dynamic.freeze());
            all_ms.push(ms);
            bytes = frozen.to_bytes().len() as u64;
        }
        cases.push(ServeBenchCase {
            name: "dynamic_freeze_1m",
            n,
            all_ms,
            queries: 1,
            bytes,
        });
    }

    // Snapshot creation: publish an epoch (O(rounds) Arc bumps; the first
    // publication of an epoch also derives the lazily cached face walks). Each
    // rep dirties the engine first so the publication is genuinely fresh.
    {
        let mut all_ms = Vec::new();
        for _ in 0..3 {
            dynamic
                .insert_edge(0, w as u32 + 1)
                .expect("chord rejected");
            dynamic
                .delete_edge(0, w as u32 + 1)
                .expect("inserted chord missing");
            dynamic.flush(); // keep the flush out of the snapshot timing
            let (_, ms) = timed(|| dynamic.snapshot());
            all_ms.push(ms);
        }
        cases.push(ServeBenchCase {
            name: "snapshot_create_1m",
            n,
            all_ms,
            queries: 1,
            bytes: 0,
        });
    }

    // Reads racing a flush: pin a snapshot, queue a 256-insert backlog, then
    // serve decide_batch from the snapshot while the writer's flush() rebuilds
    // and republishes — the read latency must not absorb the flush.
    {
        let queries = 64usize;
        let patterns: Vec<Pattern> = (0..queries)
            .map(|i| match i % 3 {
                0 => Pattern::cycle(4),
                1 => Pattern::path(3),
                _ => Pattern::star(3),
            })
            .collect();
        let mut all_ms = Vec::new();
        for round in 6..9 {
            let snap = dynamic.snapshot();
            let expected = snap.decide_batch(&patterns); // warm, untimed
            let edges = diagonals(round);
            for &(u, v) in &edges {
                dynamic.insert_edge(u, v).expect("planar diagonal rejected");
            }
            let dynamic_ref = &mut dynamic;
            let read_ms = std::thread::scope(|s| {
                let writer = s.spawn(move || dynamic_ref.flush());
                let (answers, ms) = timed(|| snap.decide_batch(&patterns));
                assert_eq!(answers, expected, "snapshot answers drifted mid-flush");
                writer.join().expect("flush panicked");
                ms
            });
            all_ms.push(read_ms);
            for &(u, v) in &edges {
                dynamic
                    .delete_edge(u, v)
                    .expect("inserted diagonal missing");
            }
            dynamic.flush(); // restore a clean engine
        }
        cases.push(ServeBenchCase {
            name: "dynamic_snapshot_read_during_flush_1m",
            n,
            all_ms,
            queries,
            bytes: 0,
        });
    }

    // Tracing-overhead twin of dynamic_flush_1m: the same 256-insert backlog
    // flushed with the span gate open (flush span + per-round flush.publish
    // events + dp spans inside the rebuild). Inserts and the restoring deletes
    // stay untraced so the case isolates the flush path.
    {
        let mut all_ms = Vec::new();
        for round in 9..12 {
            let edges = diagonals(round);
            for &(u, v) in &edges {
                dynamic.insert_edge(u, v).expect("planar diagonal rejected");
            }
            psi_obs::trace::clear();
            psi_obs::set_tracing(true);
            let (_, ms) = timed(|| dynamic.flush());
            psi_obs::set_tracing(false);
            all_ms.push(ms);
            for &(u, v) in &edges {
                dynamic
                    .delete_edge(u, v)
                    .expect("inserted diagonal missing");
            }
            dynamic.flush(); // restore a clean engine, untraced
        }
        psi_obs::trace::clear();
        cases.push(ServeBenchCase {
            name: "dynamic_flush_1m_traced",
            n,
            all_ms,
            queries: mutations,
            bytes: 0,
        });
    }

    let cache = dynamic.decomp_cache_metrics();
    let mut report = BenchReport::new("bench_dynamic/v3", host_threads());
    report.notes(&format!(
        "incremental index mutation (PR 7) + epoch snapshots (PR 9): \
         per-mutation cost is median_ms / queries; insert/delete are mutation \
         latency (local repair + dirty marks), dynamic_flush_1m is the deferred \
         batch rebuild of one 256-insert backlog, dynamic_flush_restore_1m the \
         rebuild after the matching deletes (content-hash decomposition cache \
         hits; pre-cache v1 flush baseline was 4824.09 ms = 18.84 ms/mutation); \
         this run: {} decomp cache hits / {} misses / {} evictions (cap {}); \
         snapshot_create_1m publishes an epoch, \
         dynamic_snapshot_read_during_flush_1m is pinned-snapshot decide_batch \
         latency while a 256-insert flush republishes concurrently; \
         dynamic_flush_1m_traced is the same backlog flushed with psi_obs \
         tracing enabled (gated at <=10% overhead in --check)",
        cache.hits, cache.misses, cache.evictions, cache.cap,
    ));
    for c in &cases {
        report.push(
            report
                .case(c.name)
                .u64("n", c.n as u64)
                .f64("median_ms", c.median_ms(), 3)
                .f64_list("all_ms", &c.all_ms, 2)
                .u64("queries", c.queries as u64)
                .f64("per_query_ms", c.median_ms() / c.queries as f64, 6)
                .u64("bytes", c.bytes),
        );
        println!(
            "{:<22} n {:>8}   median {:>9.2} ms   queries {:>4}   per-query {:>10.6} ms   bytes {:>11}",
            c.name,
            c.n,
            c.median_ms(),
            c.queries,
            c.median_ms() / c.queries as f64,
            c.bytes
        );
    }
    write_report("BENCH_dynamic.json", &report);

    if check {
        let Some(baseline) = baseline else {
            println!("--check: no committed BENCH_dynamic.json baseline; skipping gate");
            return;
        };
        let mut regressed = false;
        for c in &cases {
            let Some(old) = extract_case_median(&baseline, c.name) else {
                println!("--check: case {} absent from baseline; skipping", c.name);
                continue;
            };
            let fresh = c.median_ms();
            let ratio = fresh / old;
            let bad = ratio > 2.0 && fresh > old + 10.0;
            let verdict = if bad { "REGRESSED" } else { "ok" };
            println!(
                "--check: {:<22} baseline {:>9.2} ms, fresh {:>9.2} ms, ratio {:>5.2}x  {}",
                c.name, old, fresh, ratio, verdict
            );
            if bad {
                regressed = true;
            }
        }
        // In-run tracing overhead, same contract as bench_cover's gate.
        let untraced = cases.iter().find(|c| c.name == "dynamic_flush_1m");
        let traced = cases.iter().find(|c| c.name == "dynamic_flush_1m_traced");
        if let (Some(u), Some(t)) = (untraced, traced) {
            if traced_overhead_gate("dynamic_flush_1m_traced", u.median_ms(), t.median_ms()) {
                regressed = true;
            }
        }
        if regressed {
            eprintln!(
                "bench_dynamic regression gate failed (>2x against committed baseline, \
                 or >10% tracing overhead)"
            );
            std::process::exit(1);
        }
    }
}

/// Pulls `median_ms` of the named case out of a committed `BENCH_cover.json` without
/// a JSON dependency (the format is written by this binary, one case per line).
fn extract_case_median(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let idx = line.find("\"median_ms\": ")?;
    let rest = &line[idx + "\"median_ms\": ".len()..];
    let end = rest.find(',').unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Extracts an integer-valued field of a named case row from a committed
/// baseline JSON (same line-oriented format the bench writers emit).
fn extract_case_field(json: &str, name: &str, field: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let key = format!("\"{field}\": ");
    let idx = line.find(&key)?;
    let rest = &line[idx + key.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// One machine-readable measurement of the DP state engine.
struct DpBenchCase {
    name: &'static str,
    all_ms: Vec<f64>,
    states: usize,
    peak_states: usize,
    interned_bytes: usize,
    hits: u64,
    misses: u64,
    /// Rows rewritten to their Inside/Outside mirror (flip canonicalisation).
    flips: usize,
    /// Insertions dropped by flag-dominance pruning.
    dominated: usize,
    /// Match-state interns redirected to another automorphism-orbit representative.
    orbit_merges: usize,
}

impl DpBenchCase {
    fn median_ms(&self) -> f64 {
        median_of(&self.all_ms)
    }
}

/// bench_dp — machine-readable DP state-engine baselines (`BENCH_dp.json`).
///
/// Each case reports the median wall-clock of several runs plus the interned-state
/// accounting of the last run (states and bytes are deterministic per case, so one
/// sample suffices for them), including the separating-DP pruning counters (flips
/// canonicalised, rows dominated, orbit merges). The JSON is the perf trajectory
/// future PRs diff against; CI's nightly job uploads it as an artifact. With
/// `--check`, fresh results are gated against the committed baseline: a >2x
/// wall-time regression, a >1.5x interned-state regression, or pruning counters
/// collapsing to zero on a case where the baseline had them all exit non-zero.
fn bench_dp(check: bool) {
    println!("\n== bench_dp: DP state-engine baselines -> BENCH_dp.json ==");
    let baseline = std::fs::read_to_string("BENCH_dp.json").ok();
    let mut cases: Vec<DpBenchCase> = Vec::new();

    // Plain + parallel DP: decision tables on a mid-size triangulated grid.
    for (name, side, pattern) in [
        ("dp_parallel_c4_grid24", 24usize, Pattern::cycle(4)),
        ("dp_parallel_c6_grid12", 12usize, Pattern::cycle(6)),
    ] {
        let g = generators::triangulated_grid(side, side);
        let td = min_degree_decomposition(&g);
        let btd = BinaryTreeDecomposition::from_decomposition(&td);
        let mut all_ms = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let (res, stats) = {
                let start = Instant::now();
                let out = run_parallel(&g, &pattern, &btd, ParallelDpConfig::default());
                all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
                out
            };
            last = Some((res, stats));
        }
        let (res, stats) = last.unwrap();
        cases.push(DpBenchCase {
            name,
            all_ms,
            states: res.total_states,
            peak_states: res.tables.iter().map(|t| t.len()).max().unwrap_or(0),
            interned_bytes: stats.arena.bytes,
            hits: stats.arena.hits,
            misses: stats.arena.misses,
            flips: 0,
            dominated: 0,
            orbit_merges: 0,
        });
    }

    // Separating DP: an adversarial no-instance C6 search (S = adjacent pair, can never
    // be separated, so every table is materialised in full) and the C8 grid search.
    {
        let g = generators::triangulated_grid(5, 5);
        let n = g.num_vertices();
        let mut in_s = vec![false; n];
        in_s[0] = true;
        in_s[1] = true;
        let allowed = vec![true; n];
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &allowed,
        };
        cases.push(bench_sep_case("sep_c6_adversarial_g5", &inst, 6, 3));
    }
    {
        let g = generators::grid(4, 4);
        let n = g.num_vertices();
        let in_s = vec![true; n];
        let allowed = vec![true; n];
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &allowed,
        };
        cases.push(bench_sep_case("sep_c8_grid4", &inst, 8, 3));
    }

    // Connectivity: the full pipeline on the 4-connected octahedron (two exhaustive
    // no-instance searches before the separating C8 is found), the 5-connected
    // icosahedron (three exhaustive searches — the worst case of Section 5.2), and a
    // 3-connected stacked triangulation whose verdict comes from the C6 search (one
    // exhaustive C4 pass, then a C6 witness — the `k = 6` family of the ROADMAP).
    for (name, e, runs) in [
        ("conn_octahedron", pg::octahedron(), 3usize),
        ("conn_icosahedron", pg::icosahedron(), 3),
        (
            "conn_stacked64_c6",
            pg::stacked_triangulation_embedded(64, 3),
            3,
        ),
    ] {
        let mut all_ms = Vec::new();
        let mut last = None;
        for _ in 0..runs {
            let start = Instant::now();
            let result = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
            all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
            last = Some(result);
        }
        let result = last.unwrap();
        let stats = result.stats;
        cases.push(DpBenchCase {
            name,
            all_ms,
            states: result.states_explored,
            peak_states: stats.peak_node_states,
            interned_bytes: stats.arena.bytes,
            hits: stats.arena.hits,
            misses: stats.arena.misses,
            flips: stats.flips_canonicalised,
            dominated: stats.dominated_dropped,
            orbit_merges: stats.orbit_merges,
        });
    }

    let mut report = BenchReport::new("bench_dp/v2", host_threads());
    for c in &cases {
        report.push(
            report
                .case(c.name)
                .f64("median_ms", c.median_ms(), 2)
                .f64_list("all_ms", &c.all_ms, 2)
                .u64("states", c.states as u64)
                .u64("peak_states", c.peak_states as u64)
                .u64("interned_bytes", c.interned_bytes as u64)
                .u64("hits", c.hits)
                .u64("misses", c.misses)
                .u64("flips", c.flips as u64)
                .u64("dominated", c.dominated as u64)
                .u64("orbit_merges", c.orbit_merges as u64),
        );
        println!(
            "{:<26} median {:>10.2} ms   states {:>9}   peak {:>8}   pruned {:>9}",
            c.name,
            c.median_ms(),
            c.states,
            c.peak_states,
            c.flips + c.dominated + c.orbit_merges
        );
    }
    write_report("BENCH_dp.json", &report);

    if check {
        let Some(baseline) = baseline else {
            println!("--check: no committed BENCH_dp.json baseline; skipping gate");
            return;
        };
        let mut regressed = false;
        for c in &cases {
            let Some(old_ms) = extract_case_median(&baseline, c.name) else {
                println!("--check: case {} absent from baseline; skipping", c.name);
                continue;
            };
            let fresh_ms = c.median_ms();
            let ratio = fresh_ms / old_ms;
            let mut verdicts: Vec<&str> = Vec::new();
            if ratio > 2.0 {
                verdicts.push("TIME REGRESSED");
            }
            // State-space gate: the interned-state count is deterministic per case,
            // so any real growth is a pruning regression, not noise. 1.5x of slack
            // tolerates intentional case re-shaping without masking a lost lever.
            if let Some(old_states) = extract_case_field(&baseline, c.name, "states") {
                if old_states > 0.0 && c.states as f64 > old_states * 1.5 {
                    verdicts.push("STATES REGRESSED");
                }
            }
            // Counter gate: a case whose baseline shows the pruning levers firing
            // must keep firing them — all three collapsing to zero means a lever
            // got disconnected even if wall time happens to stay flat.
            let old_pruned: f64 = ["flips", "dominated", "orbit_merges"]
                .iter()
                .filter_map(|f| extract_case_field(&baseline, c.name, f))
                .sum();
            if old_pruned > 0.0 && c.flips + c.dominated + c.orbit_merges == 0 {
                verdicts.push("PRUNING COUNTERS COLLAPSED");
            }
            let verdict = if verdicts.is_empty() {
                "ok".to_string()
            } else {
                verdicts.join(" + ")
            };
            println!(
                "--check: {:<26} baseline {:>9.2} ms, fresh {:>9.2} ms, ratio {:>5.2}x, \
                 states {:>9}  {}",
                c.name, old_ms, fresh_ms, ratio, c.states, verdict
            );
            if !verdicts.is_empty() {
                regressed = true;
            }
        }
        if regressed {
            eprintln!(
                "bench_dp regression gate failed (wall time >2x, states >1.5x, or \
                 pruning counters collapsed against committed baseline)"
            );
            std::process::exit(1);
        }
    }
}

fn bench_sep_case(
    name: &'static str,
    inst: &SeparatingInstance<'_>,
    cycle: usize,
    runs: usize,
) -> DpBenchCase {
    let pattern = Pattern::cycle(cycle);
    let mut all_ms = Vec::new();
    let mut last = None;
    for _ in 0..runs {
        let start = Instant::now();
        let out = find_separating_occurrence_with_stats(inst, &pattern);
        all_ms.push(start.elapsed().as_secs_f64() * 1000.0);
        last = Some(out.1);
    }
    let stats = last.unwrap();
    DpBenchCase {
        name,
        all_ms,
        states: stats.sep_states,
        peak_states: stats.peak_node_states,
        interned_bytes: stats.arena.bytes,
        hits: stats.arena.hits,
        misses: stats.arena.misses,
        flips: stats.flips_canonicalised,
        dominated: stats.dominated_dropped,
        orbit_merges: stats.orbit_merges,
    }
}

/// T1 — Table 1 analogue: decision time of this paper's pipeline vs. the baselines.
fn t1_decision() {
    println!("\n== T1: decision time [ms], this paper vs. baselines ==");
    println!(
        "{:<10} {:>8} {:>12} {:>14} {:>12}",
        "pattern", "n", "this paper", "eppstein-seq", "ullmann"
    );
    for n in [4096usize, 16384] {
        let g = target_with_n(n);
        for (name, p) in table1_patterns() {
            let query = SubgraphIsomorphism::new(p.clone());
            let (_, ours) = timed(|| query.decide(&g));
            let (_, epp) = timed(|| eppstein_sequential_decide(&p, &g));
            let (_, ull) = timed(|| ullmann_decide(&p, &g));
            println!(
                "{:<10} {:>8} {:>12.2} {:>14.2} {:>12.2}",
                name,
                g.num_vertices(),
                ours,
                epp,
                ull
            );
        }
    }
}

/// F1 — Theorem 2.4: cover quality (width, multiplicity, retention).
fn f1_cover() {
    println!("\n== F1: k-d cover quality (Theorem 2.4) ==");
    println!(
        "{:>8} {:>4} {:>4} {:>12} {:>14} {:>12}",
        "n", "k", "d", "max width", "max per-vertex", "retention"
    );
    for side in [64usize, 128] {
        let (k, d) = (6usize, 3usize);
        let (g, planted) = generators::grid_with_planted_cycle(side, side, k);
        let trials = 20;
        let mut retained = 0;
        let mut max_width = 0usize;
        let mut max_mult = 0usize;
        for s in 0..trials {
            let cover = build_cover(&g, k, d, s);
            if cover.some_piece_contains(&planted) {
                retained += 1;
            }
            max_mult = max_mult.max(cover.max_pieces_per_vertex(g.num_vertices()));
            if s == 0 {
                for piece in &cover.pieces {
                    if piece.num_vertices() > 2 {
                        max_width = max_width.max(min_degree_decomposition(&piece.graph).width());
                    }
                }
            }
        }
        println!(
            "{:>8} {:>4} {:>4} {:>12} {:>14} {:>11.2}",
            g.num_vertices(),
            k,
            d,
            format!("{} (<= {})", max_width, 3 * (d + 1)),
            format!("{} (<= {})", max_mult, d + 1),
            retained as f64 / trials as f64
        );
    }
}

/// F2 — Lemma 2.3: clustering edge-cut probability and diameter.
fn f2_cluster() {
    println!("\n== F2: exponential start time clustering (Lemma 2.3) ==");
    println!(
        "{:>8} {:>6} {:>16} {:>10} {:>16}",
        "n", "beta", "crossing frac", "1/beta", "max radius"
    );
    let g = generators::triangulated_grid(96, 96);
    for beta in [2.0f64, 4.0, 8.0, 16.0] {
        let trials = 10;
        let mut frac = 0.0;
        let mut radius = 0;
        for s in 0..trials {
            let c = cluster(&g, beta, s);
            frac += c.crossing_fraction(&g);
            radius = radius.max(c.max_cluster_radius(&g));
        }
        println!(
            "{:>8} {:>6.1} {:>16.4} {:>10.4} {:>16}",
            g.num_vertices(),
            beta,
            frac / trials as f64,
            1.0 / beta,
            radius
        );
    }
}

/// F3 — Theorem 2.1: near-linear scaling in n, up to the paper's million-vertex
/// headline size (the sharded cover pipeline opened the top end of the sweep).
fn f3_scaling_n() {
    println!("\n== F3: scaling in n (Theorem 2.1), pattern = C4 ==");
    println!(
        "{:>8} {:>12} {:>22}",
        "n", "time [ms]", "time / (n log n) [us]"
    );
    let p = Pattern::cycle(4);
    for n in size_sweep(psi_bench::MILLION) {
        let g = target_with_n(n);
        let query = SubgraphIsomorphism::new(p.clone());
        let (_, ms) = timed(|| query.decide(&g));
        let nlogn = g.num_vertices() as f64 * (g.num_vertices() as f64).log2();
        println!(
            "{:>8} {:>12.2} {:>22.4}",
            g.num_vertices(),
            ms,
            ms * 1000.0 / nlogn
        );
    }
}

/// F4 — Corollary 2.2: dependence on pattern size k.
fn f4_scaling_k() {
    println!("\n== F4: scaling in pattern size k (cycles C3..C8), n ~ 16k ==");
    println!("{:>4} {:>12}", "k", "time [ms]");
    let g = target_with_n(16_384);
    for k in 3..=8usize {
        let query = SubgraphIsomorphism::new(Pattern::cycle(k));
        let (_, ms) = timed(|| query.decide(&g));
        println!("{:>4} {:>12.2}", k, ms);
    }
}

/// F5 — Theorem 4.2: listing work grows with the number of occurrences.
fn f5_listing() {
    println!("\n== F5: listing all occurrences (Theorem 4.2), pattern = triangle ==");
    println!(
        "{:>8} {:>12} {:>12} {:>12}",
        "n", "mappings", "images", "time [ms]"
    );
    for side in [8usize, 16, 24] {
        let g = generators::triangulated_grid(side, side);
        let query = SubgraphIsomorphism::new(Pattern::triangle());
        let (occs, ms) = timed(|| query.list_all(&g));
        println!(
            "{:>8} {:>12} {:>12} {:>12.2}",
            g.num_vertices(),
            occs.len(),
            planar_subiso::count_distinct_images(&occs),
            ms
        );
    }
}

/// F6 — Lemma 4.1: disconnected pattern overhead.
fn f6_disconnected() {
    println!("\n== F6: disconnected patterns (Lemma 4.1) ==");
    println!("{:<24} {:>12}", "pattern", "time [ms]");
    let g = generators::triangulated_grid(48, 48);
    let patterns: Vec<(&str, Pattern)> = vec![
        ("triangle (1 comp)", Pattern::triangle()),
        (
            "2 disjoint edges",
            Pattern::from_edges(4, &[(0, 1), (2, 3)]),
        ),
        (
            "triangle + edge",
            Pattern::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]),
        ),
        (
            "3 disjoint edges",
            Pattern::from_edges(6, &[(0, 1), (2, 3), (4, 5)]),
        ),
    ];
    for (name, p) in patterns {
        let query = SubgraphIsomorphism::new(p);
        let (found, ms) = timed(|| query.find_one(&g).is_some());
        println!("{:<24} {:>12.2}   found={found}", name, ms);
    }
}

/// F7 — Lemma 5.2: vertex connectivity, correctness and timing vs. the flow baseline.
fn f7_connectivity() {
    println!("\n== F7: planar vertex connectivity (Lemma 5.2) ==");
    println!(
        "{:<28} {:>6} {:>6} {:>6} {:>12} {:>12}",
        "graph", "n", "ours", "flow", "ours [ms]", "flow [ms]"
    );
    let cases: Vec<(&str, psi_planar::Embedding)> = vec![
        ("cycle C32", pg::cycle_embedded(32)),
        ("wheel W24", pg::wheel_embedded(24)),
        ("double wheel (rim 8)", pg::double_wheel(8)),
        ("octahedron", pg::octahedron()),
        ("icosahedron", pg::icosahedron()),
        (
            "triangulated grid 10x10",
            pg::triangulated_grid_embedded(10, 10),
        ),
        (
            "stacked triangulation 30",
            pg::stacked_triangulation_embedded(30, 7),
        ),
    ];
    for (name, e) in cases {
        let (ours, t_ours) =
            timed(|| vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1).connectivity);
        let (flow, t_flow) = timed(|| flow_vertex_connectivity(&e.graph, 6));
        println!(
            "{:<28} {:>6} {:>6} {:>6} {:>12.2} {:>12.2}",
            name,
            e.graph.num_vertices(),
            ours,
            flow,
            t_ours,
            t_flow
        );
    }
}

/// F8 — depth proxy: strong scaling over rayon threads.
///
/// Each configuration is measured several times and reported as the median: `decide`
/// exits early through `find_map_any`, so a single cold measurement mostly reflects
/// which cover piece happened to contain the first hit, not pool throughput.
fn f8_threads() {
    println!("\n== F8: strong scaling (depth proxy), decide C4 on n ~ 65k ==");
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    println!("host cores: {cores} (speedup above the core count is not expected)");
    println!(
        "{:>8} {:>16} {:>10}",
        "threads", "median [ms] /5", "speedup"
    );
    let g = target_with_n(65_536);
    let p = Pattern::cycle(4);
    let mut base = None;
    for threads in psi_bench::f8_thread_sweep() {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let query = SubgraphIsomorphism::new(p.clone());
        let mut samples: Vec<f64> = (0..5)
            .map(|_| timed(|| pool.install(|| query.decide(&g))).1)
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let ms = samples[samples.len() / 2];
        let speedup = base.map(|b: f64| b / ms).unwrap_or(1.0);
        if base.is_none() {
            base = Some(ms);
        }
        println!("{:>8} {:>16.2} {:>10.2}", threads, ms, speedup);
    }
}

/// F9 — Lemma 3.3: rounds with and without shortcuts.
fn f9_shortcuts() {
    println!("\n== F9: shortcut ablation (Lemma 3.3), path target, pattern = P4 ==");
    println!(
        "{:>8} {:>18} {:>18}",
        "n", "rounds (shortcut)", "rounds (naive)"
    );
    for n in [256usize, 1024, 4096] {
        let g = generators::path(n);
        let p = Pattern::path(4);
        let td = min_degree_decomposition(&g);
        let btd = BinaryTreeDecomposition::from_decomposition(&td);
        let (_, fast) = planar_subiso::run_parallel(
            &g,
            &p,
            &btd,
            planar_subiso::ParallelDpConfig {
                use_shortcuts: true,
            },
        );
        let (_, slow) = planar_subiso::run_parallel(
            &g,
            &p,
            &btd,
            planar_subiso::ParallelDpConfig {
                use_shortcuts: false,
            },
        );
        println!(
            "{:>8} {:>18} {:>18}",
            n, fast.max_rounds_per_path, slow.max_rounds_per_path
        );
    }
}

/// F10 — Lemma 3.2: number of path layers vs. log2 n.
fn f10_path_layers() {
    println!("\n== F10: tree-into-paths layers (Lemma 3.2) ==");
    println!(
        "{:<24} {:>8} {:>8} {:>10}",
        "tree", "nodes", "layers", "log2(n)+1"
    );
    let shapes: Vec<(&str, Vec<usize>)> = vec![
        ("path(4095)", {
            let mut parent = vec![usize::MAX];
            for v in 1..4095 {
                parent.push(v - 1);
            }
            parent
        }),
        ("balanced(4095)", {
            let mut parent = vec![usize::MAX];
            for v in 1..4095 {
                parent.push((v - 1) / 2);
            }
            parent
        }),
        ("random(4095)", {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
            let mut parent = vec![usize::MAX];
            for v in 1..4095usize {
                parent.push(rng.gen_range(0..v));
            }
            parent
        }),
    ];
    for (name, parent) in shapes {
        let n = parent.len();
        let tree = RootedTree::from_parents(parent);
        let pd = tree_into_paths(&tree);
        println!(
            "{:<24} {:>8} {:>8} {:>10}",
            name,
            n,
            pd.num_layers(),
            (n as f64).log2().floor() as usize + 1
        );
    }
}

/// F11 — planarity engine: embed cost on embedding-stripped planar inputs,
/// the rotation system alone, and the rejection path with witness
/// extraction. Ten timed samples per case; prints min / median / max.
fn f11_planarity() {
    use psi_planar::{planar_embedding, rotation_system};
    fn case(name: &str, n: usize, mut run: impl FnMut() -> usize) {
        let mut all_ms: Vec<f64> = (0..10)
            .map(|_| timed(|| std::hint::black_box(run())).1)
            .collect();
        all_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
        println!(
            "{:<28} {:>8} {:>10.3} {:>12.3} {:>10.3}",
            name,
            n,
            all_ms[0],
            median_of(&all_ms),
            all_ms[all_ms.len() - 1]
        );
    }
    println!("\n== F11: LR planarity engine, 10 samples per case ==");
    println!(
        "{:<28} {:>8} {:>10} {:>12} {:>10}",
        "case", "n", "min [ms]", "median [ms]", "max [ms]"
    );
    for side in [64usize, 128] {
        let g = generators::triangulated_grid(side, side);
        let n = g.num_vertices();
        case(&format!("embed_grid/{n}"), n, || {
            planar_embedding(&g).expect("grid is planar").num_faces()
        });
        case(&format!("rotation_only/{n}"), n, || {
            rotation_system(&g).expect("grid is planar").num_vertices()
        });
    }
    let wheel = generators::wheel(4096);
    case("embed_wheel_4096", wheel.num_vertices(), || {
        planar_embedding(&wheel)
            .expect("wheel is planar")
            .num_faces()
    });
    let k6 = generators::complete(6);
    case("reject_k6_with_witness", k6.num_vertices(), || {
        planar_embedding(&k6)
            .expect_err("K6 is not planar")
            .num_edges()
    });
}
