//! Integration tests for planar vertex connectivity: the default path (minimum-degree
//! bound, separating-cycle enumeration, DP fallback) and the paper's separating DP
//! loop, against the max-flow and brute-force baselines over a seeded corpus.

use planar_subiso::connectivity::is_vertex_cut;
use planar_subiso::{
    separating_cycle_connectivity, vertex_connectivity, ConnectivityMode, ConnectivityResult,
};
use psi_baselines::{brute_force_vertex_connectivity, flow_vertex_connectivity};
use psi_graph::{CsrGraph, GraphBuilder, Vertex};
use psi_planar::generators as pg;
use psi_planar::{face_vertex_graph, planar_embedding, Embedding};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Decides `e` on the default path and checks the answer against max-flow (and
/// brute force up to 20 vertices) and its cut with `is_vertex_cut`; every
/// non-complete graph must come with a cut of size κ.
fn check(name: &str, e: &Embedding) -> ConnectivityResult {
    e.validate()
        .unwrap_or_else(|err| panic!("{name}: invalid embedding: {err}"));
    let result = vertex_connectivity(e, ConnectivityMode::WholeGraph, 1);
    let ours = result.connectivity;
    let flow = flow_vertex_connectivity(&e.graph, 6);
    assert_eq!(ours, flow, "{name}: separating-cycle {ours} vs flow {flow}");
    let n = e.graph.num_vertices();
    if n <= 20 {
        assert_eq!(
            ours,
            brute_force_vertex_connectivity(&e.graph),
            "{name} vs brute force"
        );
    }
    if e.graph.num_edges() < n * (n - 1) / 2 {
        assert_eq!(result.cut.len(), ours, "{name}: cut {:?}", result.cut);
        assert!(
            is_vertex_cut(&e.graph, &result.cut),
            "{name}: {:?} is not a cut",
            result.cut
        );
    }
    result
}

/// [`check`] on the generator's embedding and on the LR engine's embedding of the
/// same graph; the enumeration must not fall back to the DP on either.
fn check_both_embeddings(name: &str, e: &Embedding) {
    for (how, e) in [
        ("generator", e.clone()),
        ("engine", planar_embedding(&e.graph).expect("planar")),
    ] {
        let result = check(&format!("{name} ({how} embedding)"), &e);
        assert!(!result.dp_ran, "{name} ({how}): fell back to the DP");
    }
}

/// Two triangulations glued along a face each (face 0 of `a`, face 0 of `b` with
/// its corners renamed to `a`'s): the shared triangle is a separating triangle.
fn glued(a: &Embedding, b: &Embedding) -> Embedding {
    let (shared, theirs) = (&a.faces[0], &b.faces[0]);
    let na = a.graph.num_vertices();
    let mut next = na as Vertex;
    let map: Vec<Vertex> = (0..b.graph.num_vertices() as Vertex)
        .map(|v| match theirs.iter().position(|&x| x == v) {
            Some(i) => shared[i],
            None => {
                next += 1;
                next - 1
            }
        })
        .collect();
    let mut faces: Vec<Vec<Vertex>> = a.faces[1..].to_vec();
    faces.extend(
        b.faces[1..]
            .iter()
            .map(|f| f.iter().map(|&v| map[v as usize]).collect::<Vec<_>>()),
    );
    let mut builder = GraphBuilder::new(next as usize);
    for f in &faces {
        for i in 0..f.len() {
            builder.add_edge(f[i], f[(i + 1) % f.len()]);
        }
    }
    Embedding::new(builder.build(), faces)
}

/// A seeded random subgraph of `g`: each edge is dropped with probability `p`,
/// but only while both its ends keep more than `min_degree` edges.
fn thinned(g: &CsrGraph, p: f64, min_degree: usize, seed: u64) -> CsrGraph {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut degree: Vec<usize> = (0..g.num_vertices() as Vertex)
        .map(|v| g.degree(v))
        .collect();
    let mut kept = GraphBuilder::new(g.num_vertices());
    for (u, v) in g.edges() {
        let (du, dv) = (degree[u as usize], degree[v as usize]);
        if du > min_degree && dv > min_degree && rng.gen_bool(p) {
            degree[u as usize] -= 1;
            degree[v as usize] -= 1;
        } else {
            kept.add_edge(u, v);
        }
    }
    kept.build()
}

#[test]
fn connectivity_zoo_matches_baselines() {
    check("cycle C9", &pg::cycle_embedded(9));
    check("wheel W9", &pg::wheel_embedded(9));
    check("tetrahedron", &pg::tetrahedron());
    check("cube", &pg::cube());
    check("octahedron", &pg::octahedron());
    check("grid 5x4", &pg::grid_embedded(5, 4));
    check(
        "triangulated grid 4x4",
        &pg::triangulated_grid_embedded(4, 4),
    );
}

#[test]
fn connectivity_on_random_triangulations_matches_flow() {
    for seed in 0..3u64 {
        let e = pg::stacked_triangulation_embedded(16, seed);
        check(&format!("stacked triangulation seed {seed}"), &e);
    }
}

/// The cases that took the separating DP minutes (the 4-connected double wheel,
/// the 5-connected icosahedron, larger triangulations); the enumeration settles
/// them in milliseconds.
#[test]
fn connectivity_zoo_expensive_cases() {
    check("double wheel rim 6", &pg::double_wheel(6));
    check("icosahedron", &pg::icosahedron());
    check(
        "stacked triangulation 40",
        &pg::stacked_triangulation_embedded(40, 0),
    );
}

/// The seeded differential corpus: every family the default path decides
/// differently (δ bound, a cut found at each size, exhaustion at κ = 3, 4, 5, hubs),
/// on both the generators' embeddings and the LR engine's.
#[test]
fn seeded_corpus_matches_flow_and_brute_force() {
    // κ = 3 from the exhausted C4 search (δ = 3)
    for (n, seed) in [(8, 0u64), (12, 1), (20, 2), (40, 3), (80, 4), (160, 5)] {
        let e = pg::stacked_triangulation_embedded(n, seed);
        check_both_embeddings(&format!("stacked triangulation {n}/{seed}"), &e);
    }
    // sparse 2-connected subgraphs of triangulated grids: the degree bound (δ = 2)
    // and the degenerate checks decide these
    let mut two_connected = 0;
    for seed in 0..24u64 {
        let (w, h) = (4 + (seed % 3) as usize, 4 + (seed % 2) as usize);
        let g = thinned(
            &psi_graph::generators::triangulated_grid(w, h),
            0.4,
            2,
            seed,
        );
        if !psi_graph::is_connected(&g) || !psi_graph::articulation_points(&g).is_empty() {
            continue;
        }
        two_connected += 1;
        let e = planar_embedding(&g).expect("subgraphs of planar graphs are planar");
        check(&format!("thinned triangulated grid {w}x{h}/{seed}"), &e);
    }
    assert!(
        two_connected >= 8,
        "only {two_connected} 2-connected samples"
    );
    // subgraphs that keep δ ≥ 3: cuts of size 2 and 3 found by the enumeration
    let mut found_small_cut = false;
    for seed in 0..24u64 {
        let base = pg::stacked_triangulation_embedded(14 + seed as usize, seed);
        let g = thinned(&base.graph, 0.5, 3, seed);
        let e = planar_embedding(&g).expect("subgraphs of planar graphs are planar");
        let r = check(&format!("thinned stacked triangulation/{seed}"), &e);
        found_small_cut |= r.candidates > 0 && r.connectivity < g.min_degree();
    }
    assert!(found_small_cut, "the corpus must exercise a found cut");
    // a separating triangle below δ = 5
    let ico = pg::icosahedron();
    for (name, e) in [
        ("icosahedra glued across a face", glued(&ico, &ico)),
        (
            "sphere(1) glued to an icosahedron",
            glued(&pg::geodesic_sphere(1), &ico),
        ),
    ] {
        assert_eq!(e.graph.min_degree(), 5, "{name}");
        let r = check(name, &e);
        assert_eq!(r.connectivity, 3, "{name}");
        check_both_embeddings(name, &e);
    }
    // κ = 4
    check_both_embeddings("octahedron", &pg::octahedron());
    for rim in [5, 6, 9, 12, 30] {
        check_both_embeddings(&format!("double wheel rim {rim}"), &pg::double_wheel(rim));
    }
    // κ = 5
    for level in 0..=2 {
        let e = pg::geodesic_sphere(level);
        check_both_embeddings(&format!("geodesic sphere level {level}"), &e);
        assert_eq!(check("sphere", &e).connectivity, 5);
    }
    // the 642-vertex sphere, checked without the baselines (max-flow takes seconds)
    let sphere = pg::geodesic_sphere(3);
    let r = vertex_connectivity(&sphere, ConnectivityMode::WholeGraph, 1);
    assert_eq!((r.connectivity, r.dp_ran, r.cut.len()), (5, false, 5));
    assert!(is_vertex_cut(&sphere.graph, &r.cut));
    // hubs: long rims
    for n in [50, 200, 400] {
        check_both_embeddings(&format!("wheel W{n}"), &pg::wheel_embedded(n));
    }
    check_both_embeddings("double wheel rim 200", &pg::double_wheel(200));
}

#[test]
fn witness_cuts_disconnect_the_graph() {
    for e in [pg::cycle_embedded(10), pg::wheel_embedded(8), pg::cube()] {
        let result = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 2);
        if !result.cut.is_empty() {
            assert_eq!(result.cut.len(), result.connectivity);
            assert!(planar_subiso::connectivity::is_vertex_cut(
                &e.graph,
                &result.cut
            ));
        }
    }
}

/// The paper's DP loop in both modes: the cover's Monte Carlo search reaches the
/// whole-graph verdict (and the default path's).
#[test]
fn cover_mode_monte_carlo_agrees_on_small_zoo() {
    for (name, e) in [
        ("cycle C12", pg::cycle_embedded(12)),
        ("wheel W8", pg::wheel_embedded(8)),
    ] {
        let fv = face_vertex_graph(&e);
        let whole = separating_cycle_connectivity(&e.graph, &fv, ConnectivityMode::WholeGraph, 5)
            .connectivity;
        let cover = separating_cycle_connectivity(
            &e.graph,
            &fv,
            ConnectivityMode::Cover { repetitions: 16 },
            5,
        )
        .connectivity;
        assert_eq!(whole, cover, "{name}");
        assert_eq!(
            whole,
            vertex_connectivity(&e, ConnectivityMode::WholeGraph, 5).connectivity,
            "{name}"
        );
    }
}
