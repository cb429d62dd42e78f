//! Tests of auto-embedding: every arbitrary-graph entry point of [`crate::Psi`]
//! (the one-shot `decide_in` / `find_one_in` / `list_all_in` /
//! `vertex_connectivity_of` and the serve-many `open`) runs the LR planarity
//! engine itself, answers on planar targets as the native-embedding paths do,
//! and refuses non-planar targets with a checkable Kuratowski certificate.

#[cfg(test)]
mod tests {
    use crate::connectivity::{vertex_connectivity, ConnectivityMode};
    use crate::pattern::{verify_occurrence, Pattern};
    use crate::psi::{Psi, PsiError};
    use crate::snapshot::PsiSnapshot;
    use psi_graph::generators as gg;
    use psi_planar::generators as pg;

    #[test]
    fn auto_decide_on_planar_targets() {
        let g = gg::triangulated_grid(12, 12);
        assert!(Psi::decide_in(&Pattern::cycle(4), &g).unwrap());
        assert!(!Psi::decide_in(&Pattern::clique(5), &g).unwrap());
        let occ = Psi::find_one_in(&Pattern::triangle(), &g).unwrap().unwrap();
        assert!(verify_occurrence(&Pattern::triangle(), &g, &occ));
    }

    #[test]
    fn auto_rejects_non_planar_targets_with_certificate() {
        let (k5, k33) = (gg::complete(5), gg::complete_bipartite(3, 3));
        let whole = ConnectivityMode::WholeGraph;
        for (err, g) in [
            (Psi::decide_in(&Pattern::triangle(), &k5).unwrap_err(), &k5),
            (
                Psi::list_all_in(&Pattern::triangle(), &k33).unwrap_err(),
                &k33,
            ),
            (Psi::vertex_connectivity_of(&k5, whole, 1).unwrap_err(), &k5),
        ] {
            match err {
                PsiError::NonPlanar(w) => assert!(w.verify(g), "certificate must verify"),
                other => panic!("expected NonPlanar, got {other:?}"),
            }
        }
    }

    #[test]
    fn auto_connectivity_matches_native_embeddings() {
        // The engine's embedding differs from the generator-native one, but the
        // connectivity verdict (Lemma 5.1) is embedding-independent.
        for (embedded, expected) in [
            (pg::wheel_embedded(8), 3),
            (pg::octahedron(), 4),
            (pg::grid_embedded(4, 4), 2),
            (pg::cycle_embedded(9), 2),
        ] {
            let whole = ConnectivityMode::WholeGraph;
            let native = vertex_connectivity(&embedded, whole, 1);
            let auto = Psi::vertex_connectivity_of(&embedded.graph, whole, 1)
                .expect("planar graph rejected");
            assert_eq!(native.connectivity, expected);
            assert_eq!(auto.connectivity, expected);
        }
    }

    #[test]
    fn auto_connectivity_handles_low_connectivity_inputs() {
        // Disconnected and 1-connected bare graphs (no native embedding needed).
        let two = gg::disjoint_union(&[&gg::cycle(3), &gg::cycle(3)]);
        for (g, expected) in [(two, 0), (gg::path(5), 1)] {
            let r = Psi::vertex_connectivity_of(&g, ConnectivityMode::WholeGraph, 1).unwrap();
            assert_eq!(r.connectivity, expected);
        }
    }

    #[test]
    fn list_all_auto_gates_on_planarity_and_reports_completeness() {
        let g = gg::triangulated_grid(5, 5);
        let outcome = Psi::list_all_in(&Pattern::triangle(), &g).unwrap();
        assert!(!outcome.occurrences.is_empty());
        assert!(
            outcome.complete,
            "small instance must enumerate exhaustively"
        );
        assert!(outcome.iterations > 0);
        assert!(Psi::list_all_in(&Pattern::triangle(), &gg::complete_bipartite(3, 3)).is_err());
    }

    #[test]
    fn build_index_auto_gates_on_planarity() {
        let g = gg::triangulated_grid(8, 8);
        let index = Psi::open(&g).unwrap().freeze();
        assert!(PsiSnapshot::from(index).decide(&Pattern::cycle(4)).unwrap());
        assert!(Psi::open(&gg::complete(5)).is_err());
    }
}
