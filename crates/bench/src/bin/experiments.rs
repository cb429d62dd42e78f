//! Prints the paper-style experiment tables recorded in `EXPERIMENTS.md`: T1
//! (this paper's pipeline and the default engine against Eppstein's sequential
//! algorithm and Ullmann) and F1–F11 (one table per lemma or theorem of the
//! paper). The query tables time the paper's DP on every cover batch
//! (`DpStrategy::Sequential`); only T1's "engine" column times the default. The
//! sections are text-only: run them with
//! `cargo run -p psi_bench --release --bin experiments [section ...]` (no
//! arguments runs every section) and paste the relevant rows into
//! `EXPERIMENTS.md`. An unknown section name exits with status 2. The engine's
//! seeded end-to-end benchmark is `perfbench/`, not this binary.

use planar_subiso::{
    map_cover_batches, separating_cycle_connectivity, vertex_connectivity, ConnectivityMode,
    DpStrategy, Pattern, QueryConfig, SubgraphIsomorphism,
};
use psi_baselines::{eppstein_sequential_decide, flow_vertex_connectivity, ullmann_decide};
use psi_bench::{size_sweep, table1_patterns, target_with_n};
use psi_cluster::cluster;
use psi_graph::generators;
use psi_planar::face_vertex_graph;
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

/// The paper's query: the bounded-treewidth DP on every cover batch.
fn paper_query(p: Pattern) -> SubgraphIsomorphism {
    let config = QueryConfig {
        strategy: DpStrategy::Sequential,
        ..QueryConfig::default()
    };
    SubgraphIsomorphism::with_config(p, config)
}

/// Every section, in the order a bare run prints them.
const SECTIONS: [(&str, fn()); 12] = [
    ("t1", t1_decision),
    ("f1", f1_cover),
    ("f2", f2_cluster),
    ("f3", f3_scaling_n),
    ("f4", f4_scaling_k),
    ("f5", f5_listing),
    ("f6", f6_disconnected),
    ("f7", f7_connectivity),
    ("f8", f8_threads),
    ("f9", f9_shortcuts),
    ("f10", f10_path_layers),
    ("f11", f11_planarity),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |arg: &str| {
        SECTIONS
            .iter()
            .any(|(name, _)| arg.eq_ignore_ascii_case(name))
    };
    if let Some(bad) = args.iter().find(|a| !known(a)) {
        let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown section {bad:?}; valid sections: {}",
            names.join(" ")
        );
        std::process::exit(2);
    }
    for (name, run) in SECTIONS {
        if args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(name)) {
            run();
        }
    }
}

/// Median of the samples (even sample counts average the central pair).
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

/// T1 — Table 1 analogue: decision time of this paper's pipeline (the DP on
/// every batch) vs. the baselines, with the default engine (the fast-path
/// kernel, the DP only on budget misses) beside them.
fn t1_decision() {
    println!("\n== T1: decision time [ms], this paper vs. baselines ==");
    println!(
        "{:<10} {:>8} {:>12} {:>12} {:>14} {:>12}",
        "pattern", "n", "this paper", "engine", "eppstein-seq", "ullmann"
    );
    for n in [4096usize, 16384] {
        let g = target_with_n(n);
        for (name, p) in table1_patterns() {
            let (_, ours) = timed(|| paper_query(p.clone()).decide(&g));
            let (_, engine) = timed(|| SubgraphIsomorphism::new(p.clone()).decide(&g));
            let (_, epp) = timed(|| eppstein_sequential_decide(&p, &g));
            let (_, ull) = timed(|| ullmann_decide(&p, &g));
            println!(
                "{:<10} {:>8} {:>12.2} {:>12.2} {:>14.2} {:>12.2}",
                name,
                g.num_vertices(),
                ours,
                engine,
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
            // Batch budget 0: every batch is one cover piece.
            let (pieces, _) = map_cover_batches(&g, k, d, s, 1, 0, |piece| {
                let wide = s == 0 && piece.graph.num_vertices() > 2;
                let width = wide.then(|| min_degree_decomposition(&piece.graph).width());
                (piece.local_to_global, width)
            });
            if pieces
                .iter()
                .any(|(verts, _)| planted.iter().all(|v| verts.contains(v)))
            {
                retained += 1;
            }
            let mut count = vec![0usize; g.num_vertices()];
            for (verts, width) in &pieces {
                for &v in verts {
                    count[v as usize] += 1;
                }
                max_width = max_width.max(width.unwrap_or(0));
            }
            max_mult = max_mult.max(count.into_iter().max().unwrap_or(0));
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
        let query = paper_query(p.clone());
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
        let query = paper_query(Pattern::cycle(k));
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
        let query = paper_query(p);
        let (found, ms) = timed(|| query.find_one(&g).is_some());
        println!("{:<24} {:>12.2}   found={found}", name, ms);
    }
}

/// F7 — Lemma 5.2: vertex connectivity on the default path and through the paper's
/// separating DP, each timed and checked against the flow baseline.
fn f7_connectivity() {
    println!("\n== F7: planar vertex connectivity (Lemma 5.2) ==");
    println!(
        "ours: `vertex_connectivity` (degenerate checks, the min-degree bound, separating-cycle"
    );
    println!("      enumeration with the DP as fallback), with the candidates it tested;");
    println!("DP:   `separating_cycle_connectivity`, the paper's whole-graph separating DP for C4, C6, C8");
    println!("      (\"—\": not run, it takes minutes; over ten on the 10x10 grid); flow: Dinic max-flow. Times in ms.");
    println!(
        "{:<28} {:>5} {:>5} {:>5} {:>5} {:>10} {:>10} {:>10} {:>10}",
        "graph", "n", "ours", "DP", "flow", "cands", "ours", "DP", "flow"
    );
    // (name, embedding, whether the DP loop runs)
    let cases: Vec<(&str, psi_planar::Embedding, bool)> = vec![
        ("cycle C32", pg::cycle_embedded(32), true),
        ("wheel W24", pg::wheel_embedded(24), true),
        ("double wheel (rim 8)", pg::double_wheel(8), true),
        ("double wheel (rim 300)", pg::double_wheel(300), false),
        ("octahedron", pg::octahedron(), true),
        ("icosahedron", pg::icosahedron(), true),
        ("geodesic sphere n=42", pg::geodesic_sphere(1), false),
        ("geodesic sphere n=162", pg::geodesic_sphere(2), false),
        ("geodesic sphere n=642", pg::geodesic_sphere(3), false),
        (
            "triangulated grid 10x10",
            pg::triangulated_grid_embedded(10, 10),
            false,
        ),
        (
            "stacked triangulation 30",
            pg::stacked_triangulation_embedded(30, 7),
            true,
        ),
    ];
    for (name, e, run_dp) in cases {
        let (ours, t_ours) = timed(|| vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1));
        let (dp, t_dp) = if run_dp {
            let fv = face_vertex_graph(&e);
            let (dp, t) = timed(|| {
                separating_cycle_connectivity(&e.graph, &fv, ConnectivityMode::WholeGraph, 1)
                    .connectivity
            });
            (dp.to_string(), format!("{t:.2}"))
        } else {
            ("—".to_string(), "—".to_string())
        };
        let (flow, t_flow) = timed(|| flow_vertex_connectivity(&e.graph, 6));
        println!(
            "{:<28} {:>5} {:>5} {:>5} {:>5} {:>10} {:>10.3} {:>10} {:>10.2}",
            name,
            e.graph.num_vertices(),
            ours.connectivity,
            dp,
            flow,
            ours.candidates,
            t_ours,
            t_dp,
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
        let query = paper_query(p.clone());
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
