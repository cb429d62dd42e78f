//! Stress test: the real work-stealing pool must not introduce nondeterminism.
//!
//! The sequential shim made this property trivially true; with genuine work splitting
//! it is a theorem about the code, resting on three pillars this test exercises
//! end-to-end:
//!
//! * the shim's parallel `collect` merges chunk results in source order,
//! * `parallel_bfs` sorts each frontier and derives parents deterministically, and
//! * the clustering round merge uses an ordered map with explicit tie-breaking.
//!
//! Every run below happens inside an explicit 4-thread pool so the parallel code paths
//! are exercised even when `PSI_THREADS=1` (the CI matrix runs both settings) and even
//! on a single-core host — scheduling is then maximally adversarial (workers get
//! preempted mid-chunk constantly), which is exactly what we want to survive.

use planar_subiso::{
    batch_budget_for, map_cover_batches, run_parallel, run_sequential, search_cover,
    ParallelDpConfig, Pattern, SubgraphIsomorphism,
};
use psi_graph::generators;
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};

const RUNS: usize = 10;

fn pool4() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
}

/// `run_parallel` on a fixed decomposition: verdict, state count, and the full state
/// tables must be identical on every run, and match the sequential DP.
#[test]
fn run_parallel_is_deterministic_under_real_pool() {
    let pool = pool4();
    let g = generators::random_stacked_triangulation(160, 0xD5EED);
    let td = min_degree_decomposition(&g);
    let btd = BinaryTreeDecomposition::from_decomposition(&td);
    for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::clique(4)] {
        let seq = run_sequential(&g, &pattern, &btd, false);
        let mut reference: Option<(bool, usize)> = None;
        for run in 0..RUNS {
            let (par, _stats) =
                pool.install(|| run_parallel(&g, &pattern, &btd, ParallelDpConfig::default()));
            let got = (par.found(), par.total_states);
            match &reference {
                None => {
                    assert_eq!(
                        par.found(),
                        seq.found(),
                        "parallel verdict diverged from sequential, k={}",
                        pattern.k()
                    );
                    assert_eq!(
                        par.total_states,
                        seq.total_states,
                        "parallel state count diverged from sequential, k={}",
                        pattern.k()
                    );
                    reference = Some(got);
                }
                Some(expected) => {
                    assert_eq!(
                        &got,
                        expected,
                        "run {run} diverged for pattern k={}",
                        pattern.k()
                    );
                }
            }
        }
    }
}

/// The full pipeline (clustering → cover → per-piece DP via `find_map_any`): the
/// verdict must be identical on every run. (`find_map_any` may return different
/// witnesses — "any" semantics — but never a different yes/no answer.)
#[test]
fn pipeline_verdicts_are_deterministic_under_real_pool() {
    let pool = pool4();
    let g = generators::random_stacked_triangulation(120, 0xC0FFEE);
    // No-instance verdicts exhaust every cover round, so the negative case runs on a
    // small target to keep the 10× repetition affordable on one core.
    let g_small = generators::random_stacked_triangulation(24, 0xC0FFEE);
    for (pattern, target, expected) in [
        (Pattern::triangle(), &g, true),
        (Pattern::clique(4), &g, true),
        (Pattern::cycle(6), &g, true),
        (Pattern::clique(5), &g_small, false), // planar targets have no K5
    ] {
        let query = SubgraphIsomorphism::new(pattern.clone());
        for run in 0..RUNS {
            let verdict = pool.install(|| query.decide(target));
            assert_eq!(
                verdict,
                expected,
                "pipeline verdict flipped on run {run}, k={}",
                pattern.k()
            );
        }
    }
}

/// Witnesses found under the pool must always verify against the target, and the
/// cover construction itself (clustering + BFS windows) must reproduce bit-identical
/// piece shapes across runs — the strongest observable of the determinism audit.
#[test]
fn cover_construction_is_bit_identical_across_runs() {
    let pool = pool4();
    let g = generators::random_stacked_triangulation(140, 42);
    // Batch budget 0: every batch is one window.
    let pieces = || {
        let (pieces, _) = map_cover_batches(&g, 4, 3, 7, 1, 0, |b| {
            let (cluster, level_start, _) = b.windows[0];
            (cluster, level_start, b.local_to_global)
        });
        pieces
    };
    let reference = pool.install(pieces);
    assert!(!reference.is_empty());
    for run in 0..RUNS {
        let again = pool.install(pieces);
        assert_eq!(again, reference, "cover pieces diverged on run {run}");
    }
}

/// Section 3.3's path-parallel DP, run on every batch of as many cover rounds as
/// the default query draws, must agree with the default query's verdicts.
#[test]
fn path_parallel_verdicts_agree_with_sequential() {
    let pool = pool4();
    let g = generators::triangulated_grid(12, 12);
    let g_neg = generators::grid(10, 10); // bipartite: no odd cycles, no triangles
    for (target, pattern) in [
        (&g, Pattern::triangle()),
        (&g, Pattern::cycle(4)),
        (&g, Pattern::path(6)),
        (&g_neg, Pattern::triangle()),
        (&g_neg, Pattern::cycle(5)),
    ] {
        let (k, d) = (pattern.k(), pattern.diameter());
        let rounds = 4 * (target.num_vertices() as f64).log2().ceil() as u64 + 1;
        let path_parallel = || {
            (0..rounds).any(|seed| {
                let (hit, _) = search_cover(target, k, d, seed, k, batch_budget_for(k), |batch| {
                    let btd = batch.decomposition();
                    let (run, _) =
                        run_parallel(&batch.graph, &pattern, &btd, ParallelDpConfig::default());
                    run.found().then_some(())
                });
                hit.is_some()
            })
        };
        let query = SubgraphIsomorphism::new(pattern.clone());
        for run in 0..3 {
            let default = pool.install(|| query.decide(target));
            assert_eq!(
                default,
                pool.install(path_parallel),
                "strategy verdicts diverged on run {run}, k={k}"
            );
        }
    }
}

/// A found occurrence, whichever worker finds it, is always a valid embedding.
#[test]
fn witnesses_under_real_pool_always_verify() {
    let pool = pool4();
    let g = generators::triangulated_grid(12, 10);
    for pattern in [Pattern::triangle(), Pattern::cycle(4), Pattern::cycle(5)] {
        for _ in 0..3 {
            let occ = pool.install(|| planar_subiso::find_one(&pattern, &g));
            let occ = occ.expect("pattern must exist in a triangulated grid");
            assert!(planar_subiso::verify_occurrence(&pattern, &g, &occ));
        }
    }
}
