//! Integration tests for the planarity engine front door: arbitrary (embedding-less)
//! graphs through the full pipeline, thread-count determinism, and the PR's
//! acceptance case — an embedding-stripped n ≈ 262k triangulated grid
//! planarity-tested, embedded, and run through `decide(C4)` end to end.

use planar_subiso::{vertex_connectivity, ConnectivityMode, Pattern, Psi, PsiError};
use psi_graph::{generators as gg, io};
use psi_planar::{generators as pg, planar_embedding, rotation_system};
use std::time::Instant;

/// The acceptance case: a 512 × 512 triangulated grid (n = 262 144) with no native
/// embedding anywhere — the engine must test + embed it fast and the pipeline must
/// answer through the bare-`CsrGraph` entry point. The release-build budget is 5 s
/// (measured ~0.3 s; the test prints the number) — the assert allows
/// the test-profile and CI-runner slack on top.
#[test]
fn acceptance_262k_grid_embeds_and_decides() {
    let g = gg::triangulated_grid(512, 512);
    assert_eq!(g.num_vertices(), 262_144);

    let start = Instant::now();
    let embedding = planar_embedding(&g).expect("triangulated grid rejected");
    let embed_s = start.elapsed().as_secs_f64();
    println!("262k embed: {embed_s:.2} s");
    assert!(
        embed_s < 20.0,
        "embedding step took {embed_s:.1} s (budget 5 s release / 20 s test profile)"
    );
    assert!(embedding.is_planar());
    embedding.validate().expect("engine embedding validates");
    // 2 triangles per grid cell plus the outer face
    assert_eq!(embedding.num_faces(), 2 * 511 * 511 + 1);

    let start = Instant::now();
    assert!(Psi::decide_in(&Pattern::cycle(4), &g).expect("planarity re-check failed"));
    println!(
        "262k Psi::decide_in(C4): {:.2} s",
        start.elapsed().as_secs_f64()
    );
}

#[test]
fn engine_rotation_is_thread_count_independent() {
    // The per-block LR runs happen on the pool; verdict, rotation system, and faces
    // must be bit-identical between a 1-thread and a 4-thread pool.
    let g = gg::disjoint_union(&[
        &gg::triangulated_grid(40, 40),
        &pg::stacked_triangulation_embedded(300, 9).graph,
        &gg::random_tree(200, 4),
    ]);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(|| rotation_system(&g).unwrap());
    let four = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap()
        .install(|| rotation_system(&g).unwrap());
    assert_eq!(one, four);
    assert_eq!(one.faces(&g), four.faces(&g));
}

#[test]
fn io_file_to_pipeline_round_trip() {
    // A user-style flow: serialise a planar graph to an edge-list file, read it back,
    // and run both front-door queries on the loaded graph.
    let g = gg::triangulated_grid(20, 20);
    let path = std::env::temp_dir().join("psi_planarity_pipeline_roundtrip.txt");
    std::fs::write(&path, io::write_edge_list(&g)).unwrap();
    let loaded = io::read_graph_file(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded, g);

    let occ = Psi::find_one_in(&Pattern::cycle(4), &loaded)
        .expect("planar file rejected")
        .expect("grid has C4s");
    assert!(planar_subiso::verify_occurrence(
        &Pattern::cycle(4),
        &loaded,
        &occ
    ));

    // Connectivity through a loaded file as well — on a wheel, which keeps the
    // whole-graph separating DP small (the grid's face–vertex graph has far too much
    // treewidth for WholeGraph mode; that is what Cover mode is for).
    let wheel_path = std::env::temp_dir().join("psi_planarity_pipeline_wheel.txt");
    std::fs::write(&wheel_path, io::write_edge_list(&gg::wheel(12))).unwrap();
    let wheel = io::read_graph_file(&wheel_path).unwrap();
    let _ = std::fs::remove_file(&wheel_path);
    let conn = Psi::vertex_connectivity_of(&wheel, ConnectivityMode::WholeGraph, 1)
        .expect("planar file rejected");
    assert_eq!(conn.connectivity, 3);
}

#[test]
fn engine_embedding_matches_native_connectivity_verdicts() {
    // Lemma 5.1's verdict is embedding-independent: the engine's embedding and the
    // generator-native one must produce identical connectivity on the control zoo.
    let cases = [
        pg::wheel_embedded(10),
        pg::double_wheel(7),
        pg::octahedron(),
        pg::cube(),
        pg::triangulated_grid_embedded(6, 6),
        pg::stacked_triangulation_embedded(24, 5),
    ];
    for native in cases {
        let expected = vertex_connectivity(&native, ConnectivityMode::WholeGraph, 1).connectivity;
        let auto = Psi::vertex_connectivity_of(&native.graph, ConnectivityMode::WholeGraph, 1)
            .expect("planar control rejected")
            .connectivity;
        assert_eq!(auto, expected, "n = {}", native.graph.num_vertices());
    }
}

#[test]
fn front_door_rejects_with_verified_certificates() {
    for g in [
        gg::complete(5),
        gg::complete_bipartite(3, 3),
        gg::torus_grid(5, 5),
    ] {
        let e = Psi::decide_in(&Pattern::triangle(), &g).expect_err("non-planar target accepted");
        let PsiError::NonPlanar(w) = e else {
            panic!("expected a NonPlanar rejection, got {e:?}");
        };
        assert!(w.verify(&g));
        let e = Psi::vertex_connectivity_of(&g, ConnectivityMode::WholeGraph, 1)
            .expect_err("non-planar target accepted");
        let PsiError::NonPlanar(w) = e else {
            panic!("expected a NonPlanar rejection, got {e:?}");
        };
        assert!(w.verify(&g));
    }
}
