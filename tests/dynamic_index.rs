//! Integration suite for dynamic index mutation and the `Psi` facade.
//!
//! The contract under test: after **any** accepted sequence of `insert_edge` /
//! `delete_edge` calls, the live engine freezes to an artifact that is
//! bit-for-bit identical to a from-scratch `PsiIndex::build` of the current
//! graph — covers, batches, decompositions, faces, and the serialised bytes —
//! and identical under every thread configuration (CI runs this file under the
//! `PSI_THREADS = {1, 4}` matrix; the dedicated-pool test pins 1-vs-4 inside a
//! single process as well). Rejected mutations must leave the engine untouched.

use planar_subiso::{
    DynamicPsiIndex, IndexParams, MutationError, Pattern, Psi, PsiError, PsiIndex,
};
use proptest::prelude::*;
use psi_graph::{generators as gg, CsrGraph, GraphBuilder, Vertex};
use psi_planar::{
    check_insertion_locally, check_planarity, planar_embedding, Embedding, LocalVerdict,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn params() -> IndexParams {
    IndexParams::default()
}

/// The from-scratch reference for the current graph of a live engine: LR-embed
/// the target and build the immutable artifact over it.
fn scratch_of(target: &CsrGraph) -> PsiIndex {
    let embedding = planar_embedding(target).expect("live target must stay planar");
    PsiIndex::build(&embedding, params())
}

/// Structural and byte-level identity between the frozen live state and a
/// from-scratch rebuild.
fn assert_bit_identical(dynamic: &mut DynamicPsiIndex) {
    let frozen = dynamic.freeze();
    let scratch = scratch_of(dynamic.target_csr());
    assert_eq!(
        frozen, scratch,
        "frozen artifact diverged from scratch build"
    );
    assert_eq!(
        frozen.to_bytes(),
        scratch.to_bytes(),
        "serialised artifact diverged from scratch build"
    );
}

/// A deterministic mutation script on a plain grid: cell diagonals (face
/// splits), their deletions (face merges), and a boundary chord.
fn grid_script(w: usize) -> Vec<(Vertex, Vertex)> {
    let idx = |r: usize, c: usize| (r * w + c) as Vertex;
    vec![
        (idx(0, 0), idx(1, 1)),
        (idx(2, 3), idx(3, 4)),
        (idx(4, 1), idx(5, 2)),
        (idx(0, 2), idx(1, 3)),
        (idx(0, 0), idx(0, 2)), // boundary chord through the outer face
    ]
}

#[test]
fn incremental_equals_rebuild_bitwise_after_every_mutation() {
    // The script runs on a built engine and again on one thawed from the built
    // engine's saved artifact, whose first mutation clusters its rounds.
    let e = psi_planar::generators::grid_embedded(7, 7);
    let mut built = DynamicPsiIndex::build(&e, params());
    let saved = built.freeze().to_bytes();
    let loaded = DynamicPsiIndex::thaw(PsiIndex::from_bytes(&saved).unwrap());
    for mut dynamic in [built, loaded] {
        for &(u, v) in &grid_script(7) {
            dynamic.insert_edge(u, v).expect("planar insert rejected");
            assert_bit_identical(&mut dynamic);
        }
        for &(u, v) in grid_script(7).iter().rev() {
            dynamic.delete_edge(u, v).expect("inserted edge missing");
            assert_bit_identical(&mut dynamic);
        }
        // The full round trip lands exactly on the canonical artifact of the
        // original graph (freeze canonicalises faces through the LR embedding,
        // so the reference is the LR scratch build, not the generator-native
        // faces).
        let round_trip = dynamic.freeze().to_bytes();
        assert_eq!(round_trip, scratch_of(dynamic.target_csr()).to_bytes());
    }
}

#[test]
fn dedicated_pools_produce_identical_mutated_artifacts() {
    // The same mutation script through a 1-thread and a 4-thread facade: every
    // intermediate query and the final frozen bytes must agree exactly.
    let g = psi_planar::generators::grid_embedded(8, 6);
    let mut single = Psi::builder().threads(1).open_embedded(&g).unwrap();
    let mut wide = Psi::builder().threads(4).open_embedded(&g).unwrap();
    let patterns = [Pattern::triangle(), Pattern::cycle(4), Pattern::path(3)];
    for &(u, v) in &grid_script(8) {
        let s = single.insert_edge(u, v).expect("planar insert rejected");
        let w = wide.insert_edge(u, v).expect("planar insert rejected");
        assert_eq!(s, w, "update stats diverged across pools");
        assert_eq!(single.decide_batch(&patterns), wide.decide_batch(&patterns));
        assert_eq!(
            single.find_one_batch(&patterns),
            wide.find_one_batch(&patterns)
        );
    }
    // A refusal's witness is the same from either pool.
    let refuse = |psi: &mut Psi| match psi.insert_edge(9, 27) {
        Err(PsiError::Mutation(MutationError::NonPlanar(w))) => w.edges,
        other => panic!("interior chord not refused: {other:?}"),
    };
    assert_eq!(refuse(&mut single), refuse(&mut wide));
    assert_eq!(single.freeze().to_bytes(), wide.freeze().to_bytes());
}

#[test]
fn block_merge_insert_reembeds_and_matches_scratch() {
    // Square + chord + pendant tucked inside an inner triangle: vertices 3 and 4
    // share no face of the stored embedding, but G + {3, 4} is planar via a
    // different embedding — the regression case for the full re-embed fallback.
    let graph =
        psi_graph::GraphBuilder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 4)]);
    let faces = vec![vec![0, 1, 4, 1, 2], vec![0, 2, 3], vec![0, 3, 2, 1]];
    let e = Embedding::new(graph, faces);
    e.validate().expect("hand-built embedding is valid");
    let mut psi = Psi::builder().open_embedded(&e).unwrap();
    let stats = psi.insert_edge(3, 4).expect("planar block merge rejected");
    assert!(stats.reembedded, "no-common-face insert must re-embed");
    assert_bit_identical(psi.dynamic_mut());
    assert!(psi.decide(&Pattern::triangle()).unwrap());
}

#[test]
fn rejected_mutations_leave_the_engine_byte_identical() {
    // A triangulated grid is maximal planar: every absent edge is non-planar to
    // insert, and the witness must verify against the post-insert graph.
    let g = psi_graph::generators::triangulated_grid(5, 5);
    let mut psi = Psi::open(&g).unwrap();
    let before = psi.freeze().to_bytes();

    let err = psi
        .insert_edge(0, 12)
        .expect_err("maximal planar accepted an insert");
    match &err {
        PsiError::Mutation(MutationError::NonPlanar(_)) => {}
        other => panic!("expected a NonPlanar mutation rejection, got {other:?}"),
    }
    // source() chains down to the Kuratowski witness.
    let mut chain = 0;
    let mut src: &dyn std::error::Error = &err;
    while let Some(next) = src.source() {
        chain += 1;
        src = next;
    }
    assert!(
        chain >= 2,
        "PsiError -> MutationError -> witness chain missing"
    );

    // Malformed mutations: structured errors, no state change, no panics.
    assert!(matches!(
        psi.insert_edge(0, 0),
        Err(PsiError::Mutation(MutationError::SelfLoop { .. }))
    ));
    assert!(matches!(
        psi.insert_edge(0, 1_000_000),
        Err(PsiError::Mutation(MutationError::VertexOutOfRange { .. }))
    ));
    assert!(matches!(
        psi.insert_edge(0, 1),
        Err(PsiError::Mutation(MutationError::DuplicateEdge { .. }))
    ));
    assert!(matches!(
        psi.delete_edge(0, 12),
        Err(PsiError::Mutation(MutationError::MissingEdge { .. }))
    ));

    assert_eq!(
        psi.freeze().to_bytes(),
        before,
        "rejected mutations must not perturb the artifact"
    );
    assert!(psi.decide(&Pattern::triangle()).unwrap());
}

#[test]
fn facade_matches_frozen_engine_after_churn() {
    // After churn, the live engine and its frozen artifact served as a snapshot
    // must give identical verdicts and witnesses.
    let e = psi_planar::generators::grid_embedded(6, 6);
    let mut psi = Psi::builder().open_embedded(&e).unwrap();
    for &(u, v) in &grid_script(6) {
        psi.insert_edge(u, v).expect("planar insert rejected");
    }
    psi.delete_edge(0, 7).expect("inserted diagonal missing");
    let engine = planar_subiso::PsiSnapshot::from(psi.freeze());
    for p in [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::clique(4),
        Pattern::star(3),
        Pattern::path(3),
    ] {
        assert_eq!(
            psi.decide(&p).ok(),
            engine.decide(&p).ok(),
            "verdict: {p:?}"
        );
        assert_eq!(
            psi.find_one(&p).ok(),
            engine.find_one(&p).ok(),
            "witness: {p:?}"
        );
    }
}

/// `g` plus the edge `{u, v}`: the would-be graph a refusal's witness certifies.
fn with_edge(g: &CsrGraph, u: Vertex, v: Vertex) -> CsrGraph {
    let mut b = GraphBuilder::new(g.num_vertices());
    b.extend_edges(g.edges());
    b.add_edge(u, v);
    b.build()
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
fn near_chords_are_refused_from_a_ball_around_the_edge() {
    // A 60×60 grid with seeded cell diagonals is a subdivision of a 3-connected
    // graph whose faces are its cells, so two interior vertices at Chebyshev
    // distance 2 to 8 share no face and the chord between them is non-planar.
    let w = 60usize;
    let id = |r: usize, c: usize| (r * w + c) as Vertex;
    let mut rng = SmallRng::seed_from_u64(21);
    let mut psi = Psi::builder().open(&gg::grid(w, w)).unwrap();
    for _ in 0..400 {
        let (r, c) = (rng.gen_range(0..w - 1), rng.gen_range(0..w - 1));
        let (main, anti) = ((id(r, c), id(r + 1, c + 1)), (id(r, c + 1), id(r + 1, c)));
        let (a, b) = if rng.gen_bool(0.5) { main } else { anti };
        if !psi.has_edge(main.0, main.1) && !psi.has_edge(anti.0, anti.1) {
            psi.insert_edge(a, b).expect("cell diagonal rejected");
        }
    }
    let before = psi.freeze().to_bytes();
    let target = psi.dynamic().target_csr().clone();
    for i in 0..28usize {
        let span = 2 + i % 7;
        let (r, c) = (
            rng.gen_range(1..w - 1 - span),
            rng.gen_range(1..w - 1 - span),
        );
        let (dr, dc) = match i % 3 {
            0 => (span, rng.gen_range(0..=span)),
            1 => (rng.gen_range(0..=span), span),
            _ => (span, span),
        };
        let (u, v) = (id(r, c), id(r + dr, c + dc));
        let witness = match psi.insert_edge(u, v) {
            Err(PsiError::Mutation(MutationError::NonPlanar(w))) => w,
            other => panic!("chord ({u}, {v}) not refused: {other:?}"),
        };
        assert!(
            witness.verify(&with_edge(&target, u, v)),
            "({u}, {v}): {witness}"
        );
        assert!(!psi.has_edge(u, v));
        // The engine's refusal is the local test's, and its witness lies
        // within the refusing radius of an endpoint.
        let local = check_insertion_locally(&target, u, v);
        let LocalVerdict::NonPlanar(local_witness) = &local.verdict else {
            panic!("chord ({u}, {v}) not refused locally: {local:?}");
        };
        assert_eq!(witness.edges, local_witness.edges);
        let (du, dv) = (psi_graph::bfs(&target, u), psi_graph::bfs(&target, v));
        for &(a, b) in &witness.edges {
            for x in [a, b] {
                let d = du.dist[x as usize].min(dv.dist[x as usize]);
                assert!(d <= local.radius, "({u}, {v}): witness vertex {x} at {d}");
            }
        }
    }
    assert_eq!(
        psi.freeze().to_bytes(),
        before,
        "refused chords must not perturb the artifact"
    );
}

/// K3,3 on branch vertices 0, 1, 2 | 3, 4, 5 with every edge but {0, 3}
/// subdivided into a path of `len` edges.
fn subdivided_k33_minus_a_path(len: usize) -> CsrGraph {
    let mut b = GraphBuilder::new(6 + 8 * (len - 1));
    let mut next = 6 as Vertex;
    for a in 0..3 as Vertex {
        for t in 3..6 as Vertex {
            if (a, t) == (0, 3) {
                continue;
            }
            let mut prev = a;
            for _ in 1..len {
                b.add_edge(prev, next);
                prev = next;
                next += 1;
            }
            b.add_edge(prev, t);
        }
    }
    b.build()
}

#[test]
fn far_obstructions_are_refused_by_the_whole_target_pass() {
    // Closing the missing path with the edge {0, 3} completes a subdivided
    // K3,3 that spans the whole graph: no ball within the local test's cap
    // holds a witness, so the whole-target LR pass must refuse it.
    let g = subdivided_k33_minus_a_path(64);
    let local = check_insertion_locally(&g, 0, 3);
    assert!(
        matches!(local.verdict, LocalVerdict::Inconclusive),
        "{local:?}"
    );
    let mut dynamic = DynamicPsiIndex::build(&planar_embedding(&g).unwrap(), params());
    let before = dynamic.freeze().to_bytes();
    match dynamic.insert_edge(0, 3) {
        Err(MutationError::NonPlanar(w)) => {
            assert!(w.verify(&with_edge(&g, 0, 3)), "{w}");
            assert_eq!(
                w.num_edges(),
                g.num_edges() + 1,
                "the witness is the whole graph"
            );
        }
        other => panic!("far obstruction not refused: {other:?}"),
    }
    assert!(!dynamic.has_edge(0, 3));
    assert_eq!(dynamic.freeze().to_bytes(), before);
}

#[test]
fn insert_verdicts_match_a_whole_graph_planarity_check() {
    // Whichever path decides an insert (face chord, local balls, bridge
    // merge, whole-target pass), it is accepted exactly when G + uv is planar.
    let mut inputs = Vec::new();
    for seed in 0..3u64 {
        inputs.push(thinned(&gg::triangulated_grid(12, 12), 0.35, 2, seed));
        inputs.push(thinned(
            &gg::random_stacked_triangulation(120, seed),
            0.3,
            2,
            seed,
        ));
    }
    inputs.push(gg::disjoint_union(&[
        &thinned(&gg::triangulated_grid(6, 6), 0.35, 2, 5),
        &gg::random_stacked_triangulation(30, 5),
        &CsrGraph::empty(3),
    ]));
    inputs.push(gg::random_stacked_triangulation(80, 7));
    for (i, g) in inputs.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(100 + i as u64);
        let mut dynamic = DynamicPsiIndex::build(&planar_embedding(g).unwrap(), params());
        let n = g.num_vertices() as Vertex;
        let (mut accepted, mut refused) = (0, 0);
        for _ in 0..40 {
            let u = rng.gen_range(0..n);
            // Half the partners are a short random walk away, half anywhere.
            let v = if rng.gen_bool(0.5) {
                let mut x = u;
                for _ in 0..rng.gen_range(2..5) {
                    let row = dynamic.target_csr().neighbors(x);
                    if !row.is_empty() {
                        x = row[rng.gen_range(0..row.len())];
                    }
                }
                x
            } else {
                rng.gen_range(0..n)
            };
            if u == v || dynamic.has_edge(u, v) {
                continue;
            }
            let would_be = with_edge(dynamic.target_csr(), u, v);
            let planar = check_planarity(&would_be).is_ok();
            match dynamic.insert_edge(u, v) {
                Ok(_) => {
                    assert!(planar, "input {i}: non-planar ({u}, {v}) accepted");
                    accepted += 1;
                }
                Err(MutationError::NonPlanar(w)) => {
                    assert!(!planar, "input {i}: planar ({u}, {v}) refused");
                    assert!(w.verify(&would_be), "input {i}: ({u}, {v}): {w}");
                    assert!(!dynamic.has_edge(u, v));
                    refused += 1;
                }
                Err(other) => panic!("input {i}: ({u}, {v}): unexpected {other}"),
            }
        }
        assert!(refused > 0, "input {i}: no insert was refused");
        assert!(
            accepted > 0 || i == inputs.len() - 1,
            "input {i}: no insert was accepted"
        );
        assert_bit_identical(&mut dynamic);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random churn on a plain grid: every accepted mutation keeps the engine
    /// bit-identical to a from-scratch rebuild; every rejected insert (planarity)
    /// leaves the edge count unchanged.
    #[test]
    fn random_churn_matches_scratch(flips in proptest::collection::vec((0u32..36, 0u32..36), 1..14)) {
        let e = psi_planar::generators::grid_embedded(6, 6);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        for (u, v) in flips {
            if u == v {
                continue;
            }
            if dynamic.has_edge(u, v) {
                dynamic.delete_edge(u, v).expect("listed edge failed to delete");
            } else {
                let edges = dynamic.num_edges();
                match dynamic.insert_edge(u, v) {
                    Ok(_) => {}
                    Err(MutationError::NonPlanar(w)) => {
                        // The witness certifies G + {u, v}; the engine must hold G.
                        prop_assert_eq!(dynamic.num_edges(), edges);
                        prop_assert!(!w.edges.is_empty());
                    }
                    Err(other) => prop_assert!(false, "unexpected {}", other),
                }
            }
            let frozen = dynamic.freeze();
            let scratch = scratch_of(dynamic.target_csr());
            prop_assert_eq!(frozen.to_bytes(), scratch.to_bytes());
        }
    }
}
