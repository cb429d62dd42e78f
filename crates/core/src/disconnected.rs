//! Disconnected patterns via random colouring (Section 4.1, Lemma 4.1).
//!
//! A pattern with `l` connected components is reduced to `l` connected searches: colour
//! every target vertex uniformly at random with one of `l` colours and look for the
//! `i`-th component inside the subgraph induced by colour `i`. A fixed occurrence
//! survives a colouring with probability `l^{-k}`, so `O(l^k log n)` repetitions decide
//! with high probability; the same reduction works for any underlying connected-pattern
//! algorithm.

use crate::isomorphism::{QueryConfig, SubgraphIsomorphism};
use crate::pattern::{verify_occurrence, Pattern};
use psi_graph::{induced_subgraph, CsrGraph, Vertex};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;

/// Number of colouring repetitions used for a pattern with `l` components and `k`
/// vertices on an `n`-vertex target (capped so adversarial parameters cannot stall).
pub fn default_repetitions(l: usize, k: usize, n: usize) -> usize {
    let base = (l as f64).powi(k as i32) * (n.max(2) as f64).log2();
    (base.ceil() as usize).clamp(1, 20_000)
}

/// Finds one occurrence of a (possibly disconnected) pattern by colour coding.
pub fn find_one_disconnected(
    pattern: &Pattern,
    target: &CsrGraph,
    config: &QueryConfig,
) -> Option<Vec<Vertex>> {
    let components: Vec<(Pattern, Vec<Vertex>)> = (0..pattern.components().len())
        .map(|i| pattern.component_pattern(i))
        .collect();
    let l = components.len();
    if l <= 1 {
        // connected (or empty) pattern: defer to the main pipeline
        return SubgraphIsomorphism::with_config(pattern.clone(), *config).find_one(target);
    }
    let n = target.num_vertices();
    let reps = default_repetitions(l, pattern.k(), n);
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0xD15C0);
    for _ in 0..reps {
        let colors: Vec<usize> = (0..n).map(|_| rng.gen_range(0..l)).collect();
        // search every component inside its colour class, in parallel
        let seed_base: u64 = rng.gen();
        let found: Vec<Option<Vec<(Vertex, Vertex)>>> = components
            .par_iter()
            .enumerate()
            .map(|(i, (comp, comp_map))| {
                let verts: Vec<Vertex> = (0..n as Vertex)
                    .filter(|&v| colors[v as usize] == i)
                    .collect();
                if verts.len() < comp.k() {
                    return None;
                }
                let sub = induced_subgraph(target, &verts);
                let mut sub_config = *config;
                sub_config.seed = seed_base.wrapping_add(i as u64);
                // A failed component search only wastes one colouring repetition, so a
                // handful of cover rounds per component is enough; the outer loop
                // supplies the high-probability guarantee.
                sub_config.repetitions = Some(3);
                let query = SubgraphIsomorphism::with_config(comp.clone(), sub_config);
                query.find_one(&sub.graph).map(|occ| {
                    occ.into_iter()
                        .enumerate()
                        .map(|(local_pattern_v, local_target)| {
                            (comp_map[local_pattern_v], sub.to_global(local_target))
                        })
                        .collect()
                })
            })
            .collect();
        if found.iter().all(|f| f.is_some()) {
            let mut mapping = vec![u32::MAX; pattern.k()];
            for part in found.into_iter().flatten() {
                for (pv, tv) in part {
                    mapping[pv as usize] = tv;
                }
            }
            debug_assert!(verify_occurrence(pattern, target, &mapping));
            return Some(mapping);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::generators;

    #[test]
    fn two_disjoint_edges() {
        let g = generators::grid(5, 5);
        let pattern = Pattern::from_edges(4, &[(0, 1), (2, 3)]);
        let config = QueryConfig::default();
        let occ = find_one_disconnected(&pattern, &g, &config).expect("two disjoint edges exist");
        assert!(verify_occurrence(&pattern, &g, &occ));
    }

    #[test]
    fn triangle_plus_edge_in_triangulation() {
        let g = generators::random_stacked_triangulation(60, 1);
        // triangle component + single edge component
        let pattern = Pattern::from_edges(5, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let occ = find_one_disconnected(&pattern, &g, &QueryConfig::default()).expect("found");
        assert!(verify_occurrence(&pattern, &g, &occ));
    }

    #[test]
    fn impossible_disconnected_pattern() {
        // two disjoint triangles cannot fit in a graph with a single triangle
        let g = generators::wheel(4); // K4: only 4 vertices
        let pattern = Pattern::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(find_one_disconnected(&pattern, &g, &QueryConfig::default()).is_none());
    }

    #[test]
    fn isolated_vertices_pattern() {
        // three isolated vertices: occurs iff the target has >= 3 vertices
        let pattern = Pattern::new(CsrGraph::empty(3));
        let g = generators::path(3);
        let occ = find_one_disconnected(&pattern, &g, &QueryConfig::default()).expect("found");
        assert!(verify_occurrence(&pattern, &g, &occ));
        let tiny = generators::path(2);
        assert!(find_one_disconnected(&pattern, &tiny, &QueryConfig::default()).is_none());
    }

    #[test]
    fn repetition_budget_formula() {
        assert_eq!(default_repetitions(1, 3, 100), 7);
        assert!(default_repetitions(2, 4, 100) >= 16);
        assert!(default_repetitions(3, 10, 1_000_000) <= 20_000);
    }
}
