//! Seeded input generators. The same seed gives the same inputs; the engine
//! only ever sees the generated graphs, patterns, pairs and edits.

use planar_subiso::Pattern;
use psi_graph::{generators as gg, CsrGraph, GraphBuilder, Vertex};
use psi_planar::generators as pg;
use std::collections::HashMap;

/// SplitMix64: tiny, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BA5E_D00D_F00D)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<Vertex> {
    let mut p: Vec<Vertex> = (0..n as Vertex).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// `g` with vertex `v` renamed to `perm[v]`.
pub fn relabel(g: &CsrGraph, perm: &[Vertex]) -> CsrGraph {
    let edges: Vec<(Vertex, Vertex)> = g
        .edges()
        .map(|(u, v)| (perm[u as usize], perm[v as usize]))
        .collect();
    GraphBuilder::from_edges(g.num_vertices(), &edges)
}

/// `g` plus the edge `{u, v}`.
pub fn with_edge(g: &CsrGraph, u: Vertex, v: Vertex) -> CsrGraph {
    let mut edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    edges.push((u, v));
    GraphBuilder::from_edges(g.num_vertices(), &edges)
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

/// The patterns that occur in a triangulated grid, with their names.
pub fn hit_patterns() -> Vec<(&'static str, Pattern)> {
    let paw = Pattern::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
    let diamond = Pattern::from_edges(4, &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]);
    vec![
        ("triangle", Pattern::triangle()),
        ("P3", Pattern::path(3)),
        ("C4", Pattern::cycle(4)),
        ("K1,3", Pattern::star(4)),
        ("paw", paw),
        ("diamond", diamond),
    ]
}

/// A seeded vertex pair `s ≠ t` that is not an edge of `g`.
pub fn non_adjacent_pair(g: &CsrGraph, rng: &mut Rng) -> (Vertex, Vertex) {
    let n = g.num_vertices();
    loop {
        let s = rng.below(n) as Vertex;
        let t = rng.below(n) as Vertex;
        if s != t && !g.has_edge(s, t) {
            return (s, t);
        }
    }
}

// ---------------------------------------------------------------------------
// churn
// ---------------------------------------------------------------------------

/// One writer operation on the churned grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Add a cell diagonal (splits the cell's square face).
    Insert(Vertex, Vertex),
    /// Remove a cell diagonal (merges the two triangles back).
    Delete(Vertex, Vertex),
    /// An interior chord between two vertices that share no face: must be
    /// refused as non-planar.
    Chord(Vertex, Vertex),
}

/// Cell side of the hot region most toggles land in.
const HOT_CELLS: usize = 12;

/// Seeded cell-diagonal toggles on a `side × side` grid (vertex `(r, c)` is
/// `r * side + c`). Half of the toggles hit a small hot region at the centre,
/// so cells flip back and forth and later batches recreate earlier batch
/// content.
#[derive(Clone, Debug)]
pub struct Toggler {
    side: usize,
    rng: Rng,
    hot: (usize, usize),
    /// Cells that carry a diagonal: `true` for `(r,c)–(r+1,c+1)`.
    diagonal: HashMap<(usize, usize), bool>,
}

impl Toggler {
    pub fn new(side: usize, seed: u64) -> Toggler {
        assert!(side > HOT_CELLS + 6, "grid too small for the hot region");
        let centre = (side - 1 - HOT_CELLS) / 2;
        Toggler {
            side,
            rng: Rng::new(seed),
            hot: (centre, centre),
            diagonal: HashMap::new(),
        }
    }

    fn id(&self, r: usize, c: usize) -> Vertex {
        (r * self.side + c) as Vertex
    }

    /// The next toggle: delete the cell's diagonal if it has one, else insert
    /// one of the two diagonals.
    pub fn toggle(&mut self) -> Edit {
        let cells = self.side - 1;
        let (r, c) = if self.rng.below(2) == 0 {
            (
                self.hot.0 + self.rng.below(HOT_CELLS),
                self.hot.1 + self.rng.below(HOT_CELLS),
            )
        } else {
            (self.rng.below(cells), self.rng.below(cells))
        };
        let main = match self.diagonal.remove(&(r, c)) {
            Some(main) => {
                let (u, v) = self.diagonal_ends(r, c, main);
                return Edit::Delete(u, v);
            }
            None => self.rng.below(2) == 0,
        };
        self.diagonal.insert((r, c), main);
        let (u, v) = self.diagonal_ends(r, c, main);
        Edit::Insert(u, v)
    }

    fn diagonal_ends(&self, r: usize, c: usize, main: bool) -> (Vertex, Vertex) {
        if main {
            (self.id(r, c), self.id(r + 1, c + 1))
        } else {
            (self.id(r, c + 1), self.id(r + 1, c))
        }
    }

    /// A short chord: two interior vertices at Chebyshev distance 2. They
    /// share no face of the (essentially 3-connected) grid, so the insert must
    /// be refused. (A long chord would make the Kuratowski witness span the
    /// grid, and its extraction superlinear.)
    pub fn chord(&mut self) -> Edit {
        let (r, c) = (
            2 + self.rng.below(self.side - 6),
            2 + self.rng.below(self.side - 6),
        );
        let (dr, dc) = match self.rng.below(5) {
            0 => (2, 0),
            1 => (0, 2),
            2 => (2, 1),
            3 => (1, 2),
            _ => (2, 2),
        };
        Edit::Chord(self.id(r, c), self.id(r + dr, c + dc))
    }
}

/// Patterns that occur in every churned grid (diagonals come and go; the grid
/// edges stay).
pub fn read_patterns() -> Vec<(&'static str, Pattern)> {
    vec![
        ("P3", Pattern::path(3)),
        ("C4", Pattern::cycle(4)),
        ("K1,3", Pattern::star(4)),
    ]
}

// ---------------------------------------------------------------------------
// vconn
// ---------------------------------------------------------------------------

/// One suite graph with its known vertex connectivity.
#[derive(Clone, Debug)]
pub struct SuiteGraph {
    pub name: &'static str,
    pub graph: CsrGraph,
    pub connectivity: usize,
}

/// Named graph families with known connectivity, as `(name, graph, κ)`.
fn families(full: bool) -> Vec<(&'static str, CsrGraph, usize)> {
    let mut out = vec![
        ("wheel(6)", gg::wheel(6), 3),
        ("grid(4x4)", gg::grid(4, 4), 2),
        ("tri_grid(4x4)", gg::triangulated_grid(4, 4), 2),
    ];
    if full {
        out.extend([
            ("icosahedron", pg::icosahedron().graph, 5),
            ("octahedron", pg::octahedron().graph, 4),
            ("double_wheel(5)", pg::double_wheel(5).graph, 4),
            ("cube", pg::cube().graph, 3),
            ("stacked(16)", gg::random_stacked_triangulation(16, 7), 3),
            ("tri_grid(5x5)", gg::triangulated_grid(5, 5), 2),
            // beyond 50 vertices: decided in cover mode
            ("tri_grid(8x8)", gg::triangulated_grid(8, 8), 2),
            ("grid(8x8)", gg::grid(8, 8), 2),
        ]);
    }
    out
}

/// Seeds the one vertex-id permutation of the suite.
///
/// The separating DP's cost depends on vertex ids (they break ties in the
/// elimination order): across permutations the icosahedron alone took
/// 4.1–7.4 s. So the suite is permuted once, by this fixed seed, and the run
/// seed drives only the cover-mode coin flips; runs then differ by the host,
/// not by the input.
const SUITE_PERMUTATION_SEED: u64 = 0x5EED;

/// The connectivity suite, vertex ids permuted away from the generators'
/// order. `full` adds the expensive members (the icosahedron, the
/// 4-connected graphs, the cover-mode graphs beyond 50 vertices).
pub fn vconn_suite(full: bool) -> Vec<SuiteGraph> {
    let mut rng = Rng::new(SUITE_PERMUTATION_SEED);
    families(full)
        .into_iter()
        .map(|(name, g, connectivity)| {
            let perm = permutation(g.num_vertices(), &mut rng);
            SuiteGraph {
                name,
                graph: relabel(&g, &perm),
                connectivity,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_baselines::brute_force::brute_force_vertex_connectivity;
    use psi_baselines::maxflow::flow_vertex_connectivity;
    use psi_planar::check_planarity;

    fn edges(g: &CsrGraph) -> Vec<(Vertex, Vertex)> {
        g.edges().collect()
    }

    #[test]
    fn suite_is_planar_permuted_and_correctly_labelled() {
        let suite = vconn_suite(true);
        let probe = vconn_suite(false);
        assert_eq!(edges(&probe[0].graph), edges(&suite[0].graph));
        for (x, (_, original, _)) in suite.iter().zip(families(true)) {
            assert!(check_planarity(&x.graph).is_ok(), "{} not planar", x.name);
            // brute force is limited to 24 vertices; max-flow checks the rest
            let known = if x.graph.num_vertices() <= 24 {
                brute_force_vertex_connectivity(&x.graph)
            } else {
                flow_vertex_connectivity(&x.graph, usize::MAX)
            };
            assert_eq!(known, x.connectivity, "{}", x.name);
            assert_eq!(x.graph.num_edges(), original.num_edges());
        }
        let spread: Vec<_> = suite.iter().map(|s| s.connectivity).collect();
        assert!((2..=5).all(|k| spread.contains(&k)), "suite spans 2..=5");
        let ico = suite.iter().find(|s| s.name == "icosahedron").unwrap();
        assert_ne!(
            edges(&ico.graph),
            edges(&pg::icosahedron().graph),
            "vertex ids are permuted"
        );
    }

    #[test]
    fn toggles_are_deterministic_and_stay_planar() {
        let side = 24;
        let run = |seed| {
            let mut t = Toggler::new(side, seed);
            (0..400).map(|_| t.toggle()).collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
        let mut present: Vec<(Vertex, Vertex)> = edges(&gg::grid(side, side));
        for e in run(5) {
            match e {
                Edit::Insert(u, v) => {
                    assert!(!present.contains(&(u.min(v), u.max(v))), "double insert");
                    present.push((u.min(v), u.max(v)));
                }
                Edit::Delete(u, v) => {
                    let at = present.iter().position(|&x| x == (u.min(v), u.max(v)));
                    present.swap_remove(at.expect("deletes an edge that exists"));
                }
                Edit::Chord(..) => unreachable!("toggle never yields a chord"),
            }
        }
        let g = GraphBuilder::from_edges(side * side, &present);
        assert!(check_planarity(&g).is_ok());
        let mut t = Toggler::new(side, 5);
        for _ in 0..20 {
            let Edit::Chord(u, v) = t.chord() else {
                unreachable!()
            };
            assert!(check_planarity(&with_edge(&g, u, v)).is_err());
        }
    }

    #[test]
    fn pairs_and_permutations_are_seeded() {
        let g = gg::triangulated_grid(20, 20);
        let pairs = |seed| {
            let mut rng = Rng::new(seed);
            (0..50)
                .map(|_| non_adjacent_pair(&g, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(pairs(3), pairs(3));
        assert_ne!(pairs(3), pairs(4));
        assert!(pairs(3).iter().all(|&(s, t)| s != t && !g.has_edge(s, t)));
        let mut p = permutation(100, &mut Rng::new(9));
        p.sort_unstable();
        assert_eq!(p, (0..100).collect::<Vec<_>>());
        assert!(check_planarity(&gg::triangulated_grid(30, 30)).is_ok());
        assert!(check_planarity(&gg::grid(30, 30)).is_ok());
    }
}
