//! Listing all occurrences (Section 4.2, Theorem 4.2).
//!
//! Every cover run finds any fixed occurrence with probability at least 1/2, so the
//! listing loop repeatedly generates occurrences, deduplicates them by hashing, and
//! stops once `⌈log2 j⌉ + Θ(log n)` consecutive iterations produce nothing new after
//! `j` iterations (Observation 2 turns that into a high-probability guarantee that
//! nothing was missed).

use crate::cover::{batch_budget_for, map_cover_batches, round_seed};
use crate::dp::{recover_occurrences, run_sequential};
use crate::isomorphism::QueryConfig;
use crate::pattern::{verify_occurrence, Pattern};
use psi_graph::{CsrGraph, Vertex};
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};
use std::collections::HashSet;

/// Hard cap on listing iterations: adversarial configurations (e.g. covers that keep
/// revealing occurrences one at a time) must not spin forever. Hitting the cap is
/// surfaced through [`ListingOutcome::complete`] instead of silently truncating.
pub const MAX_LISTING_ITERATIONS: usize = 10_000;

/// Result of a listing run: the occurrences plus an explicit completeness verdict.
#[derive(Clone, Debug)]
pub struct ListingOutcome {
    /// The deduplicated occurrences, sorted.
    pub occurrences: Vec<Vec<Vertex>>,
    /// `true` when the coin-flip stopping rule concluded (the high-probability
    /// completeness guarantee of Theorem 4.2 applies); `false` when the
    /// [`MAX_LISTING_ITERATIONS`] safety cap fired first and the listing may miss
    /// occurrences.
    pub complete: bool,
    /// Cover iterations performed.
    pub iterations: usize,
}

/// Lists all occurrences of a connected pattern, with high probability.
///
/// Occurrences are full mappings (pattern vertex `i` ↦ `mapping[i]`); two mappings onto
/// the same vertex set but with different correspondences count as different
/// occurrences, matching the subgraph-isomorphism definition. Truncation by the
/// iteration safety cap is invisible here — use [`list_all_outcome`] to observe it.
pub fn list_all(pattern: &Pattern, target: &CsrGraph, config: &QueryConfig) -> Vec<Vec<Vertex>> {
    list_all_outcome(pattern, target, config).occurrences
}

/// [`list_all`] with an explicit [`ListingOutcome`] (completeness + iteration count).
pub fn list_all_outcome(
    pattern: &Pattern,
    target: &CsrGraph,
    config: &QueryConfig,
) -> ListingOutcome {
    let k = pattern.k();
    if k == 0 {
        return ListingOutcome {
            occurrences: vec![Vec::new()],
            complete: true,
            iterations: 0,
        };
    }
    if k > target.num_vertices() {
        return ListingOutcome {
            occurrences: Vec::new(),
            complete: true,
            iterations: 0,
        };
    }
    assert!(
        pattern.is_connected(),
        "listing is defined for connected patterns; split disconnected patterns per component"
    );
    let n = target.num_vertices();
    let d = pattern.diameter();
    let log_n = (n.max(2) as f64).log2().ceil() as usize;

    let mut found: HashSet<Vec<Vertex>> = HashSet::new();
    let mut iterations = 0usize;
    let mut barren_streak = 0usize;
    let mut complete = true;
    loop {
        iterations += 1;
        let seed = round_seed(config.seed.wrapping_add(0xA5A5_0000), iterations as u64);
        let new_this_round: Vec<Vec<Vertex>> = if config.whole_graph {
            list_piece(pattern, target, None)
        } else {
            // Stream the cover in size-bucketed batches: windows below k cost
            // nothing, small windows share one DP over the segment-chained
            // decomposition of their disjoint union.
            let (per_batch, _stats) =
                map_cover_batches(target, k, d, seed, k, batch_budget_for(k), |batch| {
                    list_decomposed(
                        pattern,
                        &batch.graph,
                        &batch.decomposition(),
                        Some(&batch.local_to_global),
                    )
                });
            per_batch.into_iter().flatten().collect()
        };
        let mut any_new = false;
        for occ in new_this_round {
            debug_assert!(verify_occurrence(pattern, target, &occ));
            if found.insert(occ) {
                any_new = true;
            }
        }
        if any_new {
            barren_streak = 0;
        } else {
            barren_streak += 1;
        }
        // stop after ⌈log2 j⌉ + Θ(log n) barren iterations in a row
        let threshold = (iterations.max(2) as f64).log2().ceil() as usize + 2 * log_n + 1;
        if barren_streak >= threshold || config.whole_graph {
            break;
        }
        // safety cap against adversarial configurations; surfaced, never silent
        if iterations >= MAX_LISTING_ITERATIONS {
            complete = false;
            break;
        }
    }
    let mut occurrences: Vec<Vec<Vertex>> = found.into_iter().collect();
    occurrences.sort_unstable();
    ListingOutcome {
        occurrences,
        complete,
        iterations,
    }
}

fn list_piece(pattern: &Pattern, graph: &CsrGraph, map: Option<&[Vertex]>) -> Vec<Vec<Vertex>> {
    let td = min_degree_decomposition(graph);
    let btd = BinaryTreeDecomposition::from_decomposition(&td);
    list_decomposed(pattern, graph, &btd, map)
}

fn list_decomposed(
    pattern: &Pattern,
    graph: &CsrGraph,
    btd: &BinaryTreeDecomposition,
    map: Option<&[Vertex]>,
) -> Vec<Vec<Vertex>> {
    // Derivation tracking disables the lifted-side dedup (every (left, right) pair is
    // kept so listing stays exact), but states themselves live in the per-node arenas
    // and recovery walks borrowed arena slices — only assignments are materialised.
    let result = run_sequential(graph, pattern, btd, true);
    if !result.found() {
        return Vec::new();
    }
    recover_occurrences(&result, btd, usize::MAX)
        .into_iter()
        .map(|occ| match map {
            Some(map) => occ.into_iter().map(|local| map[local as usize]).collect(),
            None => occ,
        })
        .collect()
}

/// Counts the occurrences as unordered vertex sets (images) rather than mappings.
pub fn count_distinct_images(occurrences: &[Vec<Vertex>]) -> usize {
    let mut images: Vec<Vec<Vertex>> = occurrences
        .iter()
        .map(|occ| {
            let mut img = occ.clone();
            img.sort_unstable();
            img
        })
        .collect();
    images.sort_unstable();
    images.dedup();
    images.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_graph::generators;

    fn config() -> QueryConfig {
        QueryConfig::default()
    }

    #[test]
    fn lists_all_triangles_in_small_triangulation() {
        // A triangulated 3x3 grid has exactly 8 triangle faces (2 per unit square), and
        // no other triangles; each triangle image admits 6 mappings.
        let g = generators::triangulated_grid(3, 3);
        let occs = list_all(&Pattern::triangle(), &g, &config());
        assert_eq!(count_distinct_images(&occs), 8);
        assert_eq!(occs.len(), 48);
        for occ in &occs {
            assert!(verify_occurrence(&Pattern::triangle(), &g, occ));
        }
    }

    #[test]
    fn listing_matches_whole_graph_reference() {
        let g = generators::random_stacked_triangulation(28, 6);
        let pattern = Pattern::triangle();
        let via_cover = list_all(&pattern, &g, &config());
        let whole = list_all(
            &pattern,
            &g,
            &QueryConfig {
                whole_graph: true,
                ..QueryConfig::default()
            },
        );
        assert_eq!(via_cover, whole);
    }

    #[test]
    fn four_cycles_in_plain_grid() {
        // 4-cycles of a w x h grid = unit squares; each image has 8 mappings.
        let g = generators::grid(4, 3);
        let occs = list_all(&Pattern::cycle(4), &g, &config());
        assert_eq!(count_distinct_images(&occs), 3 * 2);
        assert_eq!(occs.len(), 3 * 2 * 8);
    }

    #[test]
    fn no_occurrences_is_empty() {
        let g = generators::grid(5, 5);
        assert!(list_all(&Pattern::triangle(), &g, &config()).is_empty());
    }

    #[test]
    fn outcome_reports_completion() {
        let g = generators::triangulated_grid(4, 4);
        let out = list_all_outcome(&Pattern::triangle(), &g, &config());
        assert!(out.complete, "stopping rule must conclude on small inputs");
        assert!(out.iterations >= 1);
        assert_eq!(
            out.occurrences,
            list_all(&Pattern::triangle(), &g, &config())
        );
        // trivial cases report complete without iterating
        let empty = list_all_outcome(&Pattern::empty(), &g, &config());
        assert!(empty.complete);
        assert_eq!(empty.iterations, 0);
    }

    #[test]
    fn single_vertex_listing() {
        let g = generators::path(4);
        let occs = list_all(&Pattern::single_vertex(), &g, &config());
        assert_eq!(occs.len(), 4);
    }
}
