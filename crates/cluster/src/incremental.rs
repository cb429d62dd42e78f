//! Incremental maintenance of the exponential start time clustering under edge flips.
//!
//! The clustering is the fixpoint of a shifted multi-source Dijkstra: every vertex `v`
//! carries the lexicographically smallest `(arrival, centre)` pair over its own start
//! candidate `(start_v, v)` and the relayed candidates `(arrival_u + 1.0, centre_u)` of
//! its neighbours. Because the exponential shifts depend only on `(n, β, seed)` — not
//! on the edge set — an edge flip perturbs the fixpoint only locally, and the paper's
//! locality is exactly what makes a < 5 ms single-edge index update possible at
//! n = 10⁶ where a from-scratch re-clustering costs hundreds of milliseconds.
//!
//! * **Insertion** only ever *lowers* values: a strict-improvement Dijkstra seeded
//!   with the two relayed candidates across the new edge settles exactly the vertices
//!   whose value changes, in nondecreasing `(arrival, vertex, centre)` order.
//! * **Deletion** only ever *raises* values: the *suspect closure* — vertices whose
//!   achieving chain crossed the deleted edge, found by walking `arrival_w ==
//!   arrival_x + 1.0` links forward from the endpoints — is re-solved exactly by a
//!   Dijkstra seeded with every suspect's own start candidate plus the relayed
//!   candidates of its non-suspect neighbours (whose values are provably unchanged).
//!
//! Both repairs reproduce the from-scratch [`cluster`](crate::cluster) /
//! [`cluster_parallel`] fixpoint *bit for bit*: arrivals
//! accumulate by repeated `+ 1.0` from the same start value along the same chains, so
//! the floating-point results are identical, not merely close. (The one theoretical
//! exception is a rounding collapse where a strictly smaller arrival becomes equal
//! after the same number of `+ 1.0` steps *and* the tie-breaking centre differs — this
//! needs two independent exponential draws within an accumulating ulp, probability
//! ≈ 10⁻¹⁴ per comparison, and is pinned by the incremental-vs-rebuild test suite.)

use crate::clustering::{cluster_parallel, Clustering};
use crate::shifts::exponential_shifts;
use psi_graph::{CsrGraph, NeighborSource, Vertex};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// Mutable clustering state: per vertex the winning centre, its shifted arrival time,
/// and the (edge-independent) start time. Memberships are not materialised — clusters
/// are connected, so members are enumerable by a BFS from the centre through the
/// `centre_of` oracle, which is how the dynamic cover rebuild consumes this type.
#[derive(Clone, Debug)]
pub struct DynamicClustering {
    center: Vec<Vertex>,
    arrival: Vec<f64>,
    start: Vec<f64>,
}

#[derive(PartialEq)]
struct Candidate {
    arrival: f64,
    vertex: Vertex,
    center: Vertex,
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inverted to pop the smallest (arrival, vertex, centre) first —
        // the same deterministic order as the sequential reference in `clustering`.
        other
            .arrival
            .partial_cmp(&self.arrival)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
            .then_with(|| other.center.cmp(&self.center))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[inline]
fn lex_less(a: f64, c: Vertex, a2: f64, c2: Vertex) -> bool {
    a < a2 || (a == a2 && c < c2)
}

impl DynamicClustering {
    /// Clusters `graph` from scratch (via [`cluster_parallel`], so the result is
    /// identical across thread counts) and retains the mutable per-vertex state.
    pub fn from_graph(graph: &CsrGraph, beta: f64, seed: u64) -> DynamicClustering {
        let clustering = cluster_parallel(graph, beta, seed);
        Self::from_clustering(&clustering, graph.num_vertices(), beta, seed)
    }

    /// Adopts an existing clustering produced with the same `(beta, seed)`,
    /// re-deriving the start times from the shifts (they are a pure function of
    /// `(n, beta, seed)`).
    pub fn from_clustering(
        clustering: &Clustering,
        n: usize,
        beta: f64,
        seed: u64,
    ) -> DynamicClustering {
        assert_eq!(clustering.center.len(), n);
        let shifts = exponential_shifts(n, beta, seed);
        let delta_max = shifts.iter().cloned().fold(0.0f64, f64::max);
        DynamicClustering {
            center: clustering.center.clone(),
            arrival: clustering.arrival.clone(),
            start: shifts.iter().map(|&d| delta_max - d).collect(),
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.center.len()
    }

    /// The centre vertex of `v`'s cluster.
    #[inline]
    pub fn center_of(&self, v: Vertex) -> Vertex {
        self.center[v as usize]
    }

    /// Whether `v` currently heads its own cluster (i.e. is a live centre).
    #[inline]
    pub fn is_center(&self, v: Vertex) -> bool {
        self.center[v as usize] == v
    }

    /// Repairs the clustering after inserting the edge `{u, v}`. `graph` must
    /// **already contain** the edge (improvements can relay back across it).
    ///
    /// Returns the centre vertices of every cluster whose membership changed (the old
    /// and new centres of each re-valued vertex), sorted and deduplicated. A returned
    /// centre `c` with `center_of(c) != c` identifies a cluster that ceased to exist.
    pub fn insert_edge<G: NeighborSource>(
        &mut self,
        graph: &G,
        u: Vertex,
        v: Vertex,
    ) -> Vec<Vertex> {
        let mut heap = BinaryHeap::new();
        for (from, to) in [(u, v), (v, u)] {
            let a = self.arrival[from as usize] + 1.0;
            let c = self.center[from as usize];
            if lex_less(a, c, self.arrival[to as usize], self.center[to as usize]) {
                heap.push(Candidate {
                    arrival: a,
                    vertex: to,
                    center: c,
                });
            }
        }
        // (vertex, old centre) — each vertex improves at most once: candidates pop in
        // nondecreasing (arrival, vertex, centre) order and relaying adds +1.0, so the
        // first improving pop of a vertex already carries its final value.
        let mut changed: Vec<(Vertex, Vertex)> = Vec::new();
        while let Some(cand) = heap.pop() {
            let x = cand.vertex as usize;
            if !lex_less(cand.arrival, cand.center, self.arrival[x], self.center[x]) {
                continue;
            }
            changed.push((cand.vertex, self.center[x]));
            self.arrival[x] = cand.arrival;
            self.center[x] = cand.center;
            let relayed = cand.arrival + 1.0;
            for &w in graph.neighbors_of(cand.vertex) {
                if lex_less(
                    relayed,
                    cand.center,
                    self.arrival[w as usize],
                    self.center[w as usize],
                ) {
                    heap.push(Candidate {
                        arrival: relayed,
                        vertex: w,
                        center: cand.center,
                    });
                }
            }
        }
        self.affected_centers(&changed)
    }

    /// Repairs the clustering after deleting the edge `{u, v}`. `graph` must
    /// **no longer contain** the edge.
    ///
    /// Returns the affected cluster centres exactly as [`DynamicClustering::insert_edge`]
    /// does.
    pub fn delete_edge<G: NeighborSource>(
        &mut self,
        graph: &G,
        u: Vertex,
        v: Vertex,
    ) -> Vec<Vertex> {
        // Seed suspects: an endpoint whose value was relayed across the deleted edge.
        let mut suspects: Vec<Vertex> = Vec::new();
        let mut is_suspect: HashSet<Vertex> = HashSet::new();
        if self.center[u as usize] == self.center[v as usize] {
            if self.arrival[v as usize] == self.arrival[u as usize] + 1.0 {
                suspects.push(v);
                is_suspect.insert(v);
            }
            if self.arrival[u as usize] == self.arrival[v as usize] + 1.0 {
                suspects.push(u);
                is_suspect.insert(u);
            }
        }
        // Forward closure over the old achieving DAG: anything whose chain may have
        // passed through a suspect is itself suspect (conservative — vertices with an
        // alternative equal-value chain re-solve to their old value and report no
        // change).
        let mut i = 0;
        while i < suspects.len() {
            let x = suspects[i];
            i += 1;
            let (ax, cx) = (self.arrival[x as usize], self.center[x as usize]);
            for &w in graph.neighbors_of(x) {
                if self.center[w as usize] == cx
                    && self.arrival[w as usize] == ax + 1.0
                    && is_suspect.insert(w)
                {
                    suspects.push(w);
                }
            }
        }
        if suspects.is_empty() {
            return Vec::new();
        }
        // Exact re-solve over the static suspect set: Dijkstra seeded with every
        // suspect's own start candidate plus the relayed candidates of its non-suspect
        // neighbours (whose values deletion cannot have changed).
        let old: Vec<(Vertex, f64, Vertex)> = suspects
            .iter()
            .map(|&x| (x, self.arrival[x as usize], self.center[x as usize]))
            .collect();
        let mut heap = BinaryHeap::new();
        for &x in &suspects {
            heap.push(Candidate {
                arrival: self.start[x as usize],
                vertex: x,
                center: x,
            });
            for &y in graph.neighbors_of(x) {
                if !is_suspect.contains(&y) {
                    heap.push(Candidate {
                        arrival: self.arrival[y as usize] + 1.0,
                        vertex: x,
                        center: self.center[y as usize],
                    });
                }
            }
        }
        let mut settled: HashSet<Vertex> = HashSet::new();
        while let Some(cand) = heap.pop() {
            if !settled.insert(cand.vertex) {
                continue;
            }
            let x = cand.vertex as usize;
            self.arrival[x] = cand.arrival;
            self.center[x] = cand.center;
            let relayed = cand.arrival + 1.0;
            for &w in graph.neighbors_of(cand.vertex) {
                if is_suspect.contains(&w) && !settled.contains(&w) {
                    heap.push(Candidate {
                        arrival: relayed,
                        vertex: w,
                        center: cand.center,
                    });
                }
            }
        }
        debug_assert_eq!(settled.len(), suspects.len(), "every suspect must settle");
        let changed: Vec<(Vertex, Vertex)> = old
            .into_iter()
            .filter(|&(x, a, c)| self.arrival[x as usize] != a || self.center[x as usize] != c)
            .map(|(x, _, c)| (x, c))
            .collect();
        self.affected_centers(&changed)
    }

    /// The old and new centres of each vertex whose **centre** changed, sorted and
    /// deduplicated. Re-valued vertices that kept their centre (arrival-only
    /// improvements) are excluded on purpose: cluster membership is what the cover
    /// batches are a function of, and arrival-only repairs leave every batch
    /// byte-identical — reporting them would only trigger spurious rebuilds.
    fn affected_centers(&self, changed: &[(Vertex, Vertex)]) -> Vec<Vertex> {
        let mut affected: Vec<Vertex> = changed
            .iter()
            .filter(|&&(x, old_center)| self.center[x as usize] != old_center)
            .flat_map(|&(x, old_center)| [old_center, self.center[x as usize]])
            .collect();
        affected.sort_unstable();
        affected.dedup();
        affected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::cluster;
    use psi_graph::{generators, AdjacencyList};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Asserts the dynamic state equals a from-scratch sequential re-clustering of
    /// `graph`, field by field and bit for bit.
    fn assert_matches_scratch(dyn_c: &DynamicClustering, graph: &CsrGraph, beta: f64, seed: u64) {
        let fresh = cluster(graph, beta, seed);
        assert_eq!(dyn_c.center, fresh.center, "centres diverged from scratch");
        for v in 0..dyn_c.num_vertices() {
            assert!(
                dyn_c.arrival[v] == fresh.arrival[v],
                "arrival diverged at {v}: {} vs {}",
                dyn_c.arrival[v],
                fresh.arrival[v],
            );
        }
    }

    fn churn(mut graph: AdjacencyList, beta: f64, seed: u64, flips: usize, rng_seed: u64) {
        let n = graph.num_vertices();
        let mut dyn_c = DynamicClustering::from_graph(&graph.to_csr(), beta, seed);
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        for _ in 0..flips {
            let u = rng.gen_range(0..n) as Vertex;
            let v = rng.gen_range(0..n) as Vertex;
            if u == v {
                continue;
            }
            if graph.has_edge(u, v) {
                graph.delete_edge(u, v);
                dyn_c.delete_edge(&graph, u, v);
            } else {
                graph.insert_edge(u, v);
                dyn_c.insert_edge(&graph, u, v);
            }
            assert_matches_scratch(&dyn_c, &graph.to_csr(), beta, seed);
        }
    }

    #[test]
    fn random_flips_on_a_grid_match_scratch() {
        let g = generators::grid(8, 8);
        churn(AdjacencyList::from_csr(&g), 8.0, 0xC0FFEE, 120, 1);
    }

    #[test]
    fn random_flips_on_a_sparse_random_graph_match_scratch() {
        let g = generators::erdos_renyi(120, 0.03, 7);
        churn(AdjacencyList::from_csr(&g), 6.0, 42, 150, 2);
    }

    #[test]
    fn churn_from_edgeless_matches_scratch() {
        // Starts with every vertex its own cluster; inserts create and merge
        // clusters, deletions split them back apart.
        churn(AdjacencyList::new(40), 4.0, 3, 200, 3);
    }

    #[test]
    fn bridge_deletion_reseeds_an_orphaned_region() {
        // Two 10-paths joined by a bridge; the far side clusters through the bridge
        // for some seeds. Deleting it must re-centre the orphaned side exactly.
        let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
        for i in 0..9u32 {
            edges.push((i, i + 1));
            edges.push((10 + i, 10 + i + 1));
        }
        edges.push((9, 10));
        let g = psi_graph::GraphBuilder::from_edges(20, &edges);
        for seed in 0..20u64 {
            let mut adj = AdjacencyList::from_csr(&g);
            let mut dyn_c = DynamicClustering::from_graph(&g, 4.0, seed);
            adj.delete_edge(9, 10);
            dyn_c.delete_edge(&adj, 9, 10);
            assert_matches_scratch(&dyn_c, &adj.to_csr(), 4.0, seed);
        }
    }

    #[test]
    fn affected_centers_are_sound() {
        // Every vertex whose centre changed must have both its old and new centre in
        // the affected list (the contract the cover rebuild relies on).
        let g = generators::grid(9, 9);
        let mut adj = AdjacencyList::from_csr(&g);
        let mut dyn_c = DynamicClustering::from_graph(&g, 8.0, 5);
        let before = dyn_c.center.clone();
        adj.insert_edge(0, 80);
        let affected = dyn_c.insert_edge(&adj, 0, 80);
        for (v, &old_c) in before.iter().enumerate() {
            let new_c = dyn_c.center_of(v as Vertex);
            if old_c != new_c {
                assert!(affected.contains(&old_c), "old centre {old_c} missing");
                assert!(affected.contains(&new_c), "new centre {new_c} missing");
            }
        }
        assert!(affected.windows(2).all(|w| w[0] < w[1]), "sorted + deduped");
    }
}
