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
use psi_graph::{CsrGraph, Vertex};
use psi_planar::{planar_embedding, Embedding};

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
