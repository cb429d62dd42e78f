//! The paper's headline workload size: covers and decisions on an `n ≈ 10^6`-vertex
//! planar target.
//!
//! The nightly (`--ignored`) case pins the sharded cover pipeline's wall-clock and
//! `O(n)`-scratch guarantees at one million vertices on the 1-core container; the
//! non-ignored case checks the same code paths at a size the regular suite can afford.

use planar_subiso::{
    map_cover_batches, run_parallel, search_cover, ParallelDpConfig, Pattern, SubgraphIsomorphism,
    DEFAULT_BATCH_BUDGET,
};
use psi_graph::generators;
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Build the cover of a 1,000,000-vertex triangulated grid and decide C4 end-to-end,
/// with wall-clock and peak-interned-bytes bounds. Exercised by CI's nightly
/// `expensive` job (`cargo test --release -- --ignored`).
#[test]
#[ignore = "million-vertex instance: ~10 s cover build + decide; run nightly via --ignored"]
fn million_vertex_cover_and_decide_c4() {
    let side = 1000usize;
    let build_g = Instant::now();
    let g = generators::triangulated_grid(side, side);
    let n = g.num_vertices();
    assert_eq!(n, 1_000_000);
    println!("generator: {:.2} s", build_g.elapsed().as_secs_f64());

    // One cover pass, one window per batch (budget 0): single-digit seconds on the
    // 1-core container; the bound below leaves ~3x headroom for slow CI runners.
    let t = Instant::now();
    let (pieces, stats) = map_cover_batches(&g, 4, 1, 7, 1, 0, |batch| batch);
    let build_s = t.elapsed().as_secs_f64();
    println!(
        "cover pass: {build_s:.2} s, {} pieces, {} clusters, {} shards, scratch {} KiB",
        stats.pieces,
        stats.clusters,
        stats.shards,
        stats.scratch_bytes / 1024
    );
    assert!(!pieces.is_empty());
    assert!(
        build_s < 30.0,
        "million-vertex cover build took {build_s:.1} s (single-digit seconds expected)"
    );
    // Peak scratch is O(n): 12 bytes per member vertex across all shards, regardless
    // of the cluster count (the pre-shard implementation allocated O(n) per cluster).
    assert!(
        stats.scratch_bytes <= 12 * n + 12 * 4096,
        "scratch {} bytes exceeds the O(n) bound",
        stats.scratch_bytes
    );
    drop(pieces);

    // Streamed pass with DP per batch, tracking the peak interned bytes of any single
    // batch: the arena footprint must stay bounded by the batch budget, not by n.
    let pattern = Pattern::cycle(4);
    let peak_interned = AtomicUsize::new(0);
    let t = Instant::now();
    let (hit, scan_stats) = search_cover(&g, 4, 1, 7, 4, DEFAULT_BATCH_BUDGET, |batch| {
        let td = min_degree_decomposition(&batch.graph);
        let btd = BinaryTreeDecomposition::from_decomposition(&td);
        let (result, dp_stats) =
            run_parallel(&batch.graph, &pattern, &btd, ParallelDpConfig::default());
        peak_interned.fetch_max(dp_stats.arena.bytes, Ordering::Relaxed);
        result.found().then_some(())
    });
    println!(
        "streamed scan to first hit: {:.2} s, {} batches emitted, peak arena {} KiB",
        t.elapsed().as_secs_f64(),
        scan_stats.batches,
        peak_interned.load(Ordering::Relaxed) / 1024
    );
    assert!(hit.is_some(), "a triangulated grid is full of C4s");
    // A batch holds ~DEFAULT_BATCH_BUDGET vertices (plus one window of overshoot) and
    // interns ~4 KiB of DP state per vertex on this workload (~1.2 MiB measured); the
    // bound asserts the footprint scales with the batch, not the graph — at n-scale
    // the same constant would be ~4 GiB.
    assert!(
        peak_interned.load(Ordering::Relaxed) < 4 << 20,
        "per-batch interned bytes not O(batch)"
    );

    // End-to-end decision through the public API.
    let t = Instant::now();
    let query = SubgraphIsomorphism::new(Pattern::cycle(4));
    assert!(query.decide(&g), "C4 must occur");
    let decide_s = t.elapsed().as_secs_f64();
    println!("decide(C4): {decide_s:.2} s");
    assert!(
        decide_s < 60.0,
        "million-vertex decide took {decide_s:.1} s"
    );
}

/// The same pipeline at a suite-affordable size, so the regular (non-ignored) run
/// still exercises the sharded scratch accounting and the end-to-end decision.
#[test]
fn hundred_k_cover_and_decide_c4() {
    let g = generators::triangulated_grid(320, 320);
    let n = g.num_vertices();
    let (pieces, stats) = map_cover_batches(&g, 4, 1, 7, 1, 0, |batch| batch.num_windows());
    assert!(!pieces.is_empty());
    assert!(stats.scratch_bytes <= 12 * n + 12 * 4096);
    assert_eq!(stats.pieces, pieces.len());
    assert!(
        pieces.iter().all(|&w| w == 1),
        "budget 0: one window per batch"
    );
    assert_eq!(
        stats.skipped_small, 0,
        "min_vertices = 1 keeps every window"
    );
    let query = SubgraphIsomorphism::new(Pattern::cycle(4));
    assert!(query.decide(&g));
}
