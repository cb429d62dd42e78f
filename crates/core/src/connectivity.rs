//! Planar vertex connectivity (Section 5, Lemmas 5.1–5.2).
//!
//! Nishizeki's observation (Lemma 5.1): if an embedded planar graph `G` is
//! 2-connected and the shortest cycle of its face–vertex graph `G'` that separates
//! original vertices has length `2c`, then `κ(G) = c`. [`vertex_connectivity`]
//! decides a graph in this order:
//!
//! 1. **Degenerate cases**, on the substrate: a disconnected graph or `K1` has
//!    `κ = 0`; `K2` and graphs with an articulation point have `κ = 1`.
//! 2. **The minimum-degree bound.** `κ ≤ δ`, and the neighbourhood of a
//!    minimum-degree vertex is a cut whenever `n > δ + 1`; planar graphs have
//!    `δ ≤ 5`. So only cut sizes `c < min(δ, 5)` need a search, and when none of
//!    them has a cut the answer is `κ = min(δ, 5, n − 1)` with that neighbourhood
//!    as its cut.
//! 3. **Enumeration.** For each such `c`, smallest first, the `2c`-cycles
//!    `v₁f₁…v_cf_c` of `G'` (distinct vertices, distinct faces) are enumerated,
//!    each once: rooted at its vertex of highest degree (ties by id) and oriented
//!    so that `f₁ < f_c`. Each candidate is a Jordan curve through
//!    `{v₁…v_c}`, which is a cut exactly when both sides of the curve hold a
//!    vertex. The rotation-arc test reads that off locally: at each `vᵢ` the two
//!    cycle faces split `vᵢ`'s rotation into two arcs, one per side, and a side
//!    holds a vertex exactly when some `vᵢ` has an edge to an off-cycle vertex in
//!    that side's arc. An arc holds at most `c − 1` edges to cycle vertices, so
//!    the test costs `O(c²)`. The first candidate that passes is the answer.
//! 4. **DP fallback.** The enumeration runs on a node budget that grows with
//!    `|E(G')|`; inputs of bounded degree and face length need a constant number
//!    of nodes per edge and never exhaust it. If it runs out at some `c`, or the
//!    facial walks cannot be read as an oriented planar rotation system, the
//!    paper's separating DP decides that `c` and the larger
//!    ones: [`separating_cycle_connectivity`]'s loop, on the whole face–vertex graph
//!    or through the randomised separating k-d cover as [`ConnectivityMode`]
//!    selects. Called directly, that loop is the paper's pipeline for every cut
//!    size, which is what the F7 experiment and the pinned DP tests measure.
//!
//! The enumeration is sequential and deterministic, so the returned cut does not
//! depend on the thread count.

use crate::cover::{round_seed, search_separating_cover};
use crate::index::QueryError;
use crate::pattern::Pattern;
use crate::separating::{
    find_separating_occurrence_in, find_separating_occurrence_with_stats, SepConfig, SepStats,
    SeparatingInstance,
};
use psi_graph::{CsrGraph, Vertex, INVALID_VERTEX};
use psi_planar::{face_vertex_graph, Embedding, FaceVertexGraph};
use psi_treedecomp::BinaryTreeDecomposition;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How the separating DP runs when it runs: always in
/// [`separating_cycle_connectivity`], and in [`vertex_connectivity`] only as the
/// enumeration's fallback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConnectivityMode {
    /// Run the separating DP on the whole face–vertex graph (deterministic; intended for
    /// small and medium inputs and for cross-checking).
    WholeGraph,
    /// Use the randomised separating k-d cover with the given number of repetitions per
    /// cycle length (the paper's near-linear-work pipeline; Monte Carlo).
    Cover { repetitions: usize },
}

/// Result of a vertex-connectivity computation.
#[derive(Clone, Debug)]
pub struct ConnectivityResult {
    /// The vertex connectivity `c`.
    pub connectivity: usize,
    /// A vertex cut of size `c`, sorted: removing it disconnects the graph
    /// ([`is_vertex_cut`] confirms it). Empty when the graph is already
    /// disconnected, when it has no vertex cut at all (complete graphs, `K2`), and
    /// when the separating DP decided the answer but the original vertices of its
    /// cycle do not form a cut (see [`separating_cycle_connectivity`]).
    pub cut: Vec<Vertex>,
    /// Total separating-DP states interned across every cycle search performed (the
    /// dominant cost of the DP; a regression canary for the state engine). In
    /// `Cover` mode the count covers the pieces searched before the first hit. 0
    /// when the DP did not run: the degenerate checks, the minimum-degree bound or
    /// the enumeration decided the graph.
    pub states_explored: usize,
    /// Full state-engine accounting aggregated over the cycle searches: interning
    /// (arena hits/misses/bytes, peak table) and the state-space reduction counters
    /// (flips, dominated rows, orbit merges). In `Cover` mode only `sep_states` is
    /// populated (the per-piece searches report a bare state count).
    pub stats: SepStats,
    /// Candidate `2c`-cycles of the face–vertex graph that the enumeration tested,
    /// over every cut size it searched.
    pub candidates: usize,
    /// Whether the separating DP ran: always in [`separating_cycle_connectivity`];
    /// in [`vertex_connectivity`] only when the enumeration fell back to it.
    pub dp_ran: bool,
}

impl ConnectivityResult {
    fn decided(connectivity: usize, cut: Vec<Vertex>) -> ConnectivityResult {
        ConnectivityResult {
            connectivity,
            cut,
            states_explored: 0,
            stats: SepStats::default(),
            candidates: 0,
            dp_ran: false,
        }
    }
}

/// Enumeration nodes (face-walk slots scanned and closing faces tried) allowed per
/// edge of the face–vertex graph, and the budget's floor. Bounded-degree inputs cost
/// a constant number of nodes per edge: the geodesic spheres, which search every
/// cut size up to 4, need 120 (n = 12) to 155 (n = 642). Large faces cost more —
/// every pair of vertices on a face is a step — so a wheel needs about `0.65 · rim`
/// per edge and exhausts the budget from a rim of about 1,600; the separating DP
/// takes over there.
const ENUMERATION_NODES_PER_EDGE: usize = 1024;
const ENUMERATION_NODE_FLOOR: usize = 1 << 20;

/// The enumeration's node budget for a face–vertex graph.
fn enumeration_budget(fv: &FaceVertexGraph) -> usize {
    ENUMERATION_NODE_FLOOR.max(ENUMERATION_NODES_PER_EDGE.saturating_mul(fv.graph.num_edges()))
}

/// Computes the vertex connectivity of an embedded planar graph, with a cut (see
/// the module docs for the order of decision). `mode` and `seed` matter only if
/// the enumeration falls back to the separating DP.
pub fn vertex_connectivity(
    embedding: &Embedding,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    if let Some(early) = degenerate_connectivity(&embedding.graph) {
        return early;
    }
    // G is 2-connected from here on; Lemma 5.1 applies.
    let fv = face_vertex_graph(embedding);
    two_connected_connectivity(&embedding.graph, &fv, mode, seed, enumeration_budget(&fv))
}

/// [`vertex_connectivity`] against a **prebuilt** face–vertex graph.
///
/// The face–vertex construction is pure preprocessing — it depends only on the
/// embedding, not on the query — so the index read path ([`crate::snapshot`])
/// derives it once per served epoch and answers every connectivity query of
/// that epoch without re-deriving it. `fv` must be the face–vertex graph of an embedding of
/// `graph` (`fv.num_original == graph.num_vertices()`).
pub fn vertex_connectivity_with_fv(
    graph: &CsrGraph,
    fv: &FaceVertexGraph,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    assert_eq!(
        fv.num_original,
        graph.num_vertices(),
        "face–vertex graph does not belong to this target"
    );
    if let Some(early) = degenerate_connectivity(graph) {
        return early;
    }
    two_connected_connectivity(graph, fv, mode, seed, enumeration_budget(fv))
}

/// Degenerate and tiny cases decided on the substrate (the definition requires at
/// least `c + 1` vertices): disconnected (`c = 0`), `K2`, and articulation points
/// (`c = 1`).
fn degenerate_connectivity(g: &CsrGraph) -> Option<ConnectivityResult> {
    let n = g.num_vertices();
    if n <= 1 || !psi_graph::is_connected(g) {
        return Some(ConnectivityResult::decided(0, Vec::new()));
    }
    if n == 2 {
        return Some(ConnectivityResult::decided(1, Vec::new()));
    }
    let aps = psi_graph::articulation_points(g);
    aps.first()
        .map(|&a| ConnectivityResult::decided(1, vec![a]))
}

/// Steps 2–4 of the module docs on a 2-connected `g`, with an enumeration budget of
/// `budget` nodes.
fn two_connected_connectivity(
    g: &CsrGraph,
    fv: &FaceVertexGraph,
    mode: ConnectivityMode,
    seed: u64,
    budget: usize,
) -> ConnectivityResult {
    let n = g.num_vertices();
    let v_min = (0..n as Vertex)
        .min_by_key(|&v| g.degree(v))
        .expect("a 2-connected graph has vertices");
    let delta = g.degree(v_min);
    // κ ≤ δ ≤ n − 1, and planarity gives δ ≤ 5: only smaller cuts need a search.
    let bound = delta.min(5);
    let min_degree_cut = if n > delta + 1 {
        g.neighbors(v_min).to_vec()
    } else {
        Vec::new()
    };
    let mut result = ConnectivityResult::decided(bound, min_degree_cut);
    let metrics = crate::obs::metrics();
    // The first cut size the enumeration could not decide (`bound` if none).
    let dp_from = match Rotation::new(g, fv) {
        None => 2,
        Some(rotation) => {
            let mut search = CycleSearch::new(g, fv, &rotation, budget);
            let mut undecided = bound;
            for c in 2..bound {
                let mut span = psi_obs::span!("connectivity.enumerate", c = c);
                let before = search.candidates;
                let outcome = search.run(c, &mut |_, _, separates| separates);
                if span.is_recording() {
                    span.field("candidates", (search.candidates - before) as u64);
                }
                match outcome {
                    Enumeration::Stopped(cut) => {
                        result.connectivity = c;
                        result.cut = cut;
                        break;
                    }
                    Enumeration::Complete => {}
                    Enumeration::OutOfBudget => {
                        undecided = c;
                        break;
                    }
                }
            }
            result.candidates = search.candidates;
            metrics
                .connectivity_candidates_total
                .add(search.candidates as u64);
            undecided
        }
    };
    if dp_from < bound {
        metrics.connectivity_dp_fallbacks_total.add(1);
        let run = separating_dp(g, fv, mode, seed, dp_from..bound);
        if let Some((c, cut)) = run.found {
            result.connectivity = c;
            result.cut = cut;
        }
        result.states_explored = run.states_explored;
        result.stats = run.stats;
        result.dp_ran = true;
    }
    result
}

/// The rotation system of a 2-connected plane graph, read off its facial walks.
///
/// Angle `j` of vertex `v` is the corner of face `face[s + j]` between the
/// neighbours `nbr[s + j]` and `nbr[s + j + 1]` (cyclically), where `s` is `v`'s
/// CSR offset in `G`; the rotation runs the same way round at every vertex.
struct Rotation {
    nbr: Vec<Vertex>,
    face: Vec<u32>,
    /// For every slot `p` of [`FaceVertexGraph::walks`], the angle index at
    /// `walks[p]` of the face that slot belongs to.
    slot_angle: Vec<u32>,
}

impl Rotation {
    /// Reads the rotation system off `fv`'s facial walks. Walks may be written in
    /// either direction (the generators do not orient their faces); they are
    /// oriented here so that every edge is traversed once each way. `None` unless
    /// the walks are the faces of a plane embedding of `g` whose every face is a
    /// simple cycle, which holds for every planar embedding of a 2-connected graph.
    fn new(g: &CsrGraph, fv: &FaceVertexGraph) -> Option<Rotation> {
        let (n, m, faces) = (g.num_vertices(), g.num_edges(), fv.num_faces());
        // Euler's formula for a connected plane graph, and two sides per edge.
        if faces == 0 || n + faces != m + 2 || fv.walks.len() != 2 * m {
            return None;
        }
        let offsets = g.csr_offsets();
        let dart = |u: Vertex, v: Vertex| -> Option<usize> {
            let i = g.neighbors(u).binary_search(&v).ok()?;
            Some(offsets[u as usize] + i)
        };
        // Each undirected edge (its dart from the smaller end) records the faces on
        // its two sides and whether each walks it from the smaller end.
        const NONE: u32 = u32::MAX;
        let mut sides: Vec<[(u32, bool); 2]> = vec![[(NONE, false); 2]; 2 * m];
        let mut seen = vec![NONE; n];
        for f in 0..faces {
            let walk = fv.walk(f);
            if walk.len() < 3 {
                return None;
            }
            for (i, &u) in walk.iter().enumerate() {
                // A vertex twice on one walk would make the face a pinched cycle.
                if std::mem::replace(&mut seen[u as usize], f as u32) == f as u32 {
                    return None;
                }
                let v = walk[(i + 1) % walk.len()];
                let e = dart(u.min(v), u.max(v))?;
                let side = if sides[e][0].0 == NONE { 0 } else { 1 };
                if sides[e][side].0 != NONE {
                    return None;
                }
                sides[e][side] = (f as u32, u < v);
            }
        }
        // Orient the faces by a search over the dual: two faces sharing an edge
        // walk it in opposite directions.
        let mut flip: Vec<Option<bool>> = vec![None; faces];
        let mut stack = vec![0usize];
        flip[0] = Some(false);
        let mut oriented = 1;
        while let Some(f) = stack.pop() {
            let walk = fv.walk(f);
            for (i, &u) in walk.iter().enumerate() {
                let v = walk[(i + 1) % walk.len()];
                let [a, b] = sides[dart(u.min(v), u.max(v))?];
                let (mine, other) = if a.0 == f as u32 { (a, b) } else { (b, a) };
                if other.0 == NONE || other.0 == f as u32 {
                    return None;
                }
                let want = mine.1 ^ flip[f]? ^ other.1 ^ true;
                match flip[other.0 as usize] {
                    None => {
                        flip[other.0 as usize] = Some(want);
                        oriented += 1;
                        stack.push(other.0 as usize);
                    }
                    Some(have) if have != want => return None,
                    Some(_) => {}
                }
            }
        }
        if oriented != faces {
            return None;
        }
        // σ_v(pred) = succ along every oriented walk through v is v's rotation.
        let mut angle_of_pred = vec![NONE; 2 * m];
        let mut slot_succ = vec![0 as Vertex; 2 * m];
        let mut slot_pred = vec![0 as Vertex; 2 * m];
        let mut slot_face = vec![0u32; 2 * m];
        for (f, &flipped) in flip.iter().enumerate() {
            let (lo, walk) = (fv.walk_offsets[f], fv.walk(f));
            let len = walk.len();
            for i in 0..len {
                let (mut pred, mut succ) = (walk[(i + len - 1) % len], walk[(i + 1) % len]);
                if flipped == Some(true) {
                    std::mem::swap(&mut pred, &mut succ);
                }
                let p = lo + i;
                let d = dart(walk[i], pred)?;
                if angle_of_pred[d] != NONE {
                    return None;
                }
                angle_of_pred[d] = p as u32;
                (slot_pred[p], slot_succ[p], slot_face[p]) = (pred, succ, f as u32);
            }
        }
        let mut nbr = vec![0 as Vertex; 2 * m];
        let mut face = vec![0u32; 2 * m];
        let mut slot_angle = vec![0u32; 2 * m];
        for v in 0..n as Vertex {
            let (s, deg) = (offsets[v as usize], g.degree(v));
            let first = angle_of_pred[s];
            let mut p = first as usize;
            for j in 0..deg {
                if j > 0 && p == first as usize {
                    // The angles at v close up before covering every edge.
                    return None;
                }
                (nbr[s + j], face[s + j], slot_angle[p]) = (slot_pred[p], slot_face[p], j as u32);
                p = angle_of_pred[dart(v, slot_succ[p])?] as usize;
            }
            if p != first as usize {
                return None;
            }
        }
        Some(Rotation {
            nbr,
            face,
            slot_angle,
        })
    }
}

/// How one cut size's enumeration ended.
#[derive(Debug, PartialEq, Eq)]
enum Enumeration {
    /// The visitor stopped at this candidate (its sorted vertex set).
    Stopped(Vec<Vertex>),
    /// Every candidate was visited.
    Complete,
    /// The node budget ran out first.
    OutOfBudget,
}

/// A face of the current root, seen from one vertex on it: the closing step of a
/// cycle from that vertex back to the root.
#[derive(Clone, Copy)]
struct Closing {
    face: u32,
    /// Angle index of `face` at the root, and at the vertex.
    root_angle: u32,
    angle: u32,
    /// Next closing of the same vertex, or `u32::MAX`.
    next: u32,
}

/// The cycle being extended: `verts[i]` is `vᵢ₊₁`, `faces[i]` the face from it to
/// the next cycle vertex, and `in_angle[i]` / `out_angle[i]` the angles at
/// `verts[i]` of the faces the cycle arrives through and leaves through.
#[derive(Default)]
struct Path {
    verts: [Vertex; 4],
    faces: [u32; 4],
    in_angle: [u32; 4],
    out_angle: [u32; 4],
}

/// Called on every candidate cycle with its vertices, faces and rotation-arc
/// verdict; returning `true` stops the enumeration there.
type Visitor<'v> = dyn FnMut(&[Vertex], &[u32], bool) -> bool + 'v;

/// The budgeted enumeration of the `2c`-cycles of `G'` (step 3 of the module docs).
struct CycleSearch<'a> {
    g: &'a CsrGraph,
    fv: &'a FaceVertexGraph,
    rot: &'a Rotation,
    /// Position of each vertex in (degree descending, id ascending) order. A cycle
    /// is rooted at its lowest-ranked vertex and the search steps only to
    /// higher-ranked ones, so a hub's faces are walked from cycles rooted at the
    /// hub (or at a vertex of higher degree), never from each of its neighbours.
    rank: Vec<u32>,
    /// Nodes left.
    budget: usize,
    /// Candidates tested so far, over every cut size.
    candidates: usize,
    on_cycle: Vec<bool>,
    /// The current root's closings, chained per vertex from `closing_head`, valid
    /// where `closing_stamp` holds the current `stamp` (one per indexed root).
    closings: Vec<Closing>,
    closing_head: Vec<u32>,
    closing_stamp: Vec<u32>,
    stamp: u32,
}

impl<'a> CycleSearch<'a> {
    fn new(g: &'a CsrGraph, fv: &'a FaceVertexGraph, rot: &'a Rotation, budget: usize) -> Self {
        let n = g.num_vertices();
        let mut order: Vec<Vertex> = (0..n as Vertex).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(g.degree(v)), v));
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v as usize] = r as u32;
        }
        CycleSearch {
            g,
            fv,
            rot,
            rank,
            budget,
            candidates: 0,
            on_cycle: vec![false; n],
            closings: Vec::new(),
            closing_head: vec![u32::MAX; n],
            closing_stamp: vec![0; n],
            stamp: 0,
        }
    }

    /// Takes one node from the budget; `false` once it is spent.
    #[inline]
    fn spend(&mut self) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        true
    }

    /// Visits every `2c`-cycle once, calling `visit(vertices, faces, separates)`
    /// with the cycle's original vertices and faces (`faces[i]` joins `vertices[i]`
    /// to the next) and the rotation-arc verdict, until `visit` returns `true`.
    fn run(&mut self, c: usize, visit: &mut Visitor<'_>) -> Enumeration {
        debug_assert!((2..=4).contains(&c));
        let mut path = Path::default();
        for root in 0..self.g.num_vertices() as Vertex {
            if !self.index_root(root) {
                return Enumeration::OutOfBudget;
            }
            path.verts[0] = root;
            self.on_cycle[root as usize] = true;
            let outcome = self.extend(c, 1, &mut path, visit);
            self.on_cycle[root as usize] = false;
            if let Some(outcome) = outcome {
                return outcome;
            }
        }
        Enumeration::Complete
    }

    /// Chains, for every higher-ranked vertex on a face of `root`, the ways to
    /// close a cycle back to `root` from it; `false` if the budget ran out.
    fn index_root(&mut self, root: Vertex) -> bool {
        let (s, deg) = (self.g.csr_offsets()[root as usize], self.g.degree(root));
        self.closings.clear();
        self.stamp += 1;
        for j in 0..deg {
            let f = self.rot.face[s + j];
            let lo = self.fv.walk_offsets[f as usize];
            for (i, &w) in self.fv.walk(f as usize).iter().enumerate() {
                if !self.spend() {
                    return false;
                }
                if self.rank[w as usize] <= self.rank[root as usize] {
                    continue;
                }
                if self.closing_stamp[w as usize] != self.stamp {
                    self.closing_stamp[w as usize] = self.stamp;
                    self.closing_head[w as usize] = u32::MAX;
                }
                self.closings.push(Closing {
                    face: f,
                    root_angle: j as u32,
                    angle: self.rot.slot_angle[lo + i],
                    next: self.closing_head[w as usize],
                });
                self.closing_head[w as usize] = (self.closings.len() - 1) as u32;
            }
        }
        true
    }

    /// Extends a path of `depth` cycle vertices by one face and one vertex, closing
    /// the cycle once it has `c` vertices. `None` means "keep enumerating".
    fn extend(
        &mut self,
        c: usize,
        depth: usize,
        path: &mut Path,
        visit: &mut Visitor<'_>,
    ) -> Option<Enumeration> {
        let (v, root) = (path.verts[depth - 1], path.verts[0]);
        let (s, deg) = (self.g.csr_offsets()[v as usize], self.g.degree(v));
        for j in 0..deg {
            // The face the path arrived through is among the used ones.
            let f = self.rot.face[s + j];
            if path.faces[..depth - 1].contains(&f) {
                continue;
            }
            path.faces[depth - 1] = f;
            path.out_angle[depth - 1] = j as u32;
            let lo = self.fv.walk_offsets[f as usize];
            for (i, &w) in self.fv.walk(f as usize).iter().enumerate() {
                if !self.spend() {
                    return Some(Enumeration::OutOfBudget);
                }
                if self.rank[w as usize] <= self.rank[root as usize] || self.on_cycle[w as usize] {
                    continue;
                }
                path.verts[depth] = w;
                path.in_angle[depth] = self.rot.slot_angle[lo + i];
                self.on_cycle[w as usize] = true;
                let outcome = if depth + 1 == c {
                    self.close(c, path, visit)
                } else {
                    self.extend(c, depth + 1, path, visit)
                };
                self.on_cycle[w as usize] = false;
                if outcome.is_some() {
                    return outcome;
                }
            }
        }
        None
    }

    /// Closes the path's last vertex back to the root through every face they
    /// share that the cycle has not used, with `f₁ < f_c` as the orientation.
    fn close(&mut self, c: usize, path: &mut Path, visit: &mut Visitor<'_>) -> Option<Enumeration> {
        let last = path.verts[c - 1];
        if self.closing_stamp[last as usize] != self.stamp {
            return None;
        }
        let mut k = self.closing_head[last as usize];
        while k != u32::MAX {
            if !self.spend() {
                return Some(Enumeration::OutOfBudget);
            }
            let closing = self.closings[k as usize];
            k = closing.next;
            if closing.face <= path.faces[0] || path.faces[1..c - 1].contains(&closing.face) {
                continue;
            }
            path.faces[c - 1] = closing.face;
            path.out_angle[c - 1] = closing.angle;
            path.in_angle[0] = closing.root_angle;
            self.candidates += 1;
            let separates = self.separates(c, path);
            if visit(&path.verts[..c], &path.faces[..c], separates) {
                let mut cut = path.verts[..c].to_vec();
                cut.sort_unstable();
                return Some(Enumeration::Stopped(cut));
            }
        }
        None
    }

    /// The rotation-arc test: whether both sides of the closed cycle hold a vertex.
    /// The side on the right of the cycle's direction meets each `vᵢ` in the arc
    /// from its arriving face to its leaving face, the left side in the other arc;
    /// `G` is connected, so a side holds a vertex exactly when one of its arcs has
    /// an edge to a vertex off the cycle.
    fn separates(&self, c: usize, path: &Path) -> bool {
        let (mut right, mut left) = (false, false);
        for i in 0..c {
            let v = path.verts[i] as usize;
            let (s, deg) = (self.g.csr_offsets()[v], self.g.degree(path.verts[i]));
            let arc = &self.rot.nbr[s..s + deg];
            let (a, b) = (path.in_angle[i] as usize, path.out_angle[i] as usize);
            right = right || self.arc_leaves_cycle(arc, a, b);
            left = left || self.arc_leaves_cycle(arc, b, a);
            if right && left {
                return true;
            }
        }
        false
    }

    /// Whether a neighbour between angles `from` and `to` (going forward round the
    /// rotation `arc`) is off the cycle. Neighbours are distinct, so at most `c − 1`
    /// of them are cycle vertices and the scan stops within `c` steps.
    fn arc_leaves_cycle(&self, arc: &[Vertex], from: usize, to: usize) -> bool {
        let mut k = from;
        loop {
            k = if k + 1 == arc.len() { 0 } else { k + 1 };
            if !self.on_cycle[arc[k] as usize] {
                return true;
            }
            if k == to {
                return false;
            }
        }
    }
}

/// Min-degree width above which [`best_whole_graph_decomposition`] also tries the
/// guaranteed-width layered construction. The DP cost is exponential in the width,
/// so below this threshold the heuristic is already fine and the embedding work
/// would be pure overhead.
const LAYERED_ATTEMPT_WIDTH: usize = 6;

/// The decomposition the whole-graph cycle searches share: min-degree, upgraded to
/// the guaranteed-width layered construction when the heuristic comes out wide and
/// the Baker/Eppstein bound beats it (the face–vertex graph is planar, so the
/// embedding step only fails on inputs the heuristic must serve anyway).
fn best_whole_graph_decomposition(g: &CsrGraph) -> BinaryTreeDecomposition {
    let mut td = psi_treedecomp::min_degree_decomposition(g);
    if td.width() > LAYERED_ATTEMPT_WIDTH {
        if let Ok(embedding) = psi_planar::planar_embedding(g) {
            if let Some(layered) = psi_treedecomp::layered_decomposition_auto(g, &embedding.faces) {
                if layered.width() < td.width() {
                    td = layered;
                }
            }
        }
    }
    BinaryTreeDecomposition::from_decomposition(&td)
}

/// The paper's separating-cycle loop of Lemma 5.1 on a 2-connected `g` with its
/// face–vertex graph: the separating DP for `C4`, `C6` and `C8` in turn (cut sizes
/// 2, 3 and 4, those below `n`), run as `mode` selects, answering with the first
/// cycle found and `min(5, n − 1)` when there is none.
///
/// [`vertex_connectivity`] answers the same question faster and reaches this DP only
/// as its fallback; the loop stays callable on its own as the pipeline the F7
/// experiment times and the state-count tests pin. `g` must be 2-connected (the
/// degenerate cases of [`vertex_connectivity`] are not repeated here). The cut is
/// the original vertices of the cycle found, reported only when they verify as a
/// cut: a `C4` through two adjacent vertices of a plain cycle graph isolates face
/// vertices of `G'` without cutting `G`, and the answer on a complete graph
/// (`K3`, `K4`) comes without one.
pub fn separating_cycle_connectivity(
    g: &CsrGraph,
    fv: &FaceVertexGraph,
    mode: ConnectivityMode,
    seed: u64,
) -> ConnectivityResult {
    let n = g.num_vertices();
    let run = separating_dp(g, fv, mode, seed, 2..n.min(5));
    let (connectivity, cut) = run
        .found
        .unwrap_or((5.min(n.saturating_sub(1)), Vec::new()));
    ConnectivityResult {
        connectivity,
        cut,
        states_explored: run.states_explored,
        stats: run.stats,
        candidates: 0,
        dp_ran: true,
    }
}

/// What the separating DP found over a range of cut sizes.
struct DpRun {
    /// The smallest cut size with a separating cycle, and the cycle's original
    /// vertices if they verify as a cut (empty otherwise).
    found: Option<(usize, Vec<Vertex>)>,
    states_explored: usize,
    stats: SepStats,
}

/// Runs the separating DP for the cycles `C2c`, `c` in `sizes`, smallest first,
/// stopping at the first hit.
fn separating_dp(
    g: &CsrGraph,
    fv: &FaceVertexGraph,
    mode: ConnectivityMode,
    seed: u64,
    sizes: Range<usize>,
) -> DpRun {
    let n_prime = fv.graph.num_vertices();
    let in_s: Vec<bool> = (0..n_prime).map(|v| fv.is_original(v as Vertex)).collect();
    let allowed = vec![true; n_prime];

    let mut states_explored = 0usize;
    let mut agg = SepStats::default();
    // The whole-graph searches all run on one decomposition of G' (the instance graph
    // is the same for every cycle length), computed lazily on first use.
    let mut shared_btd: Option<BinaryTreeDecomposition> = None;
    for c in sizes {
        let cycle = Pattern::cycle(2 * c);
        let witness = match mode {
            ConnectivityMode::WholeGraph => {
                let inst = SeparatingInstance {
                    graph: &fv.graph,
                    in_s: &in_s,
                    allowed: &allowed,
                };
                let btd =
                    shared_btd.get_or_insert_with(|| best_whole_graph_decomposition(&fv.graph));
                let (occ, stats) =
                    find_separating_occurrence_in(&inst, &cycle, SepConfig::default(), btd);
                states_explored += stats.sep_states;
                agg.absorb(&stats);
                occ.map(|occ| fv.original_vertices_of(&occ))
            }
            ConnectivityMode::Cover { repetitions } => {
                let counter = AtomicUsize::new(0);
                let hit = search_with_cover(&fv.graph, &in_s, &cycle, repetitions, seed, &counter)
                    .map(|occ| fv.original_vertices_of(&occ));
                let piece_states = counter.into_inner();
                states_explored += piece_states;
                agg.sep_states += piece_states;
                hit
            }
        };
        if let Some(cut) = witness {
            debug_assert_eq!(cut.len(), c);
            let cut = if is_vertex_cut(g, &cut) {
                cut
            } else {
                Vec::new()
            };
            return DpRun {
                found: Some((c, cut)),
                states_explored,
                stats: agg,
            };
        }
    }
    DpRun {
        found: None,
        states_explored,
        stats: agg,
    }
}

/// Runs the separating-cycle search through the randomised separating cover.
///
/// `states` accumulates the interned-state counts of every piece search that ran
/// (best-effort under `find_map_any` early exit: pieces still in flight when a witness
/// is found may or may not be counted).
fn search_with_cover(
    g_prime: &CsrGraph,
    in_s: &[bool],
    cycle: &Pattern,
    repetitions: usize,
    seed: u64,
    states: &AtomicUsize,
) -> Option<Vec<Vertex>> {
    let k = cycle.k();
    let d = cycle.diameter();
    for round in 0..repetitions.max(1) {
        let cover_seed = round_seed(seed, round as u64);
        // Minors are searched as they are cut from their cluster — the round never
        // materialises the full piece list, and a hit stops every shard.
        let hit = search_separating_cover(g_prime, k, d, in_s, cover_seed, k, |piece| {
            let inst = SeparatingInstance {
                graph: &piece.graph,
                in_s: &piece.in_s,
                allowed: &piece.allowed,
            };
            let (occ, stats) = find_separating_occurrence_with_stats(&inst, cycle);
            states.fetch_add(stats.sep_states, Ordering::Relaxed);
            occ.map(|occ| {
                occ.into_iter()
                    .map(|v| piece.original_of[v as usize])
                    .collect::<Vec<Vertex>>()
            })
        });
        if let Some(occ) = hit {
            debug_assert!(occ.iter().all(|&v| v != INVALID_VERTEX));
            return Some(occ);
        }
    }
    None
}

/// Maximum number of pairwise internally-vertex-disjoint `s`–`t` paths, capped at
/// `cap` — by Menger's theorem, for non-adjacent pairs this is the minimum `s`–`t`
/// vertex cut size. Planar callers pass `cap = 5` (Euler's formula bounds planar
/// connectivity by 5), making the cost `O(cap · (n + m))`: unit-capacity augmenting
/// paths on the vertex-split flow network, stopped at `cap`.
///
/// Adjacent pairs are fine: the direct edge counts as one (internally-vertex-
/// disjoint) path, so the result is still well-defined — it just no longer equals a
/// cut size, since no vertex cut separates adjacent vertices.
///
/// The function is read-only on `graph` (per-query scratch only), so batches of
/// pairs run concurrently against one shared target — the
/// [`crate::PsiSnapshot::connectivity_batch`] front end does exactly that.
///
/// An endpoint outside the graph fails with [`QueryError::VertexOutOfRange`]
/// (`s` checked first) and `s == t` with [`QueryError::IdenticalEndpoints`].
pub fn st_connectivity_capped(
    graph: &CsrGraph,
    s: Vertex,
    t: Vertex,
    cap: usize,
) -> Result<usize, QueryError> {
    let n = graph.num_vertices();
    for x in [s, t] {
        if x as usize >= n {
            return Err(QueryError::VertexOutOfRange { vertex: x, n });
        }
    }
    if s == t {
        return Err(QueryError::IdenticalEndpoints { vertex: s });
    }
    if cap == 0 {
        return Ok(0);
    }
    // Vertex-split network: node 2v = v_in, 2v + 1 = v_out; split arcs carry
    // capacity 1, edge arcs u_out → v_in capacity 1 (unit edge caps make the direct
    // s–t edge count once, matching path semantics). Flow goes s_out → t_in.
    let num_nodes = 2 * n;
    let arc_pairs = n + graph.num_edges() * 2;
    let mut to: Vec<u32> = Vec::with_capacity(arc_pairs * 2);
    let mut res_cap: Vec<u8> = Vec::with_capacity(arc_pairs * 2);
    let mut deg = vec![0u32; num_nodes];
    let push_arc =
        |to: &mut Vec<u32>, res_cap: &mut Vec<u8>, deg: &mut Vec<u32>, a: usize, b: usize| {
            // forward arc 2i, reverse arc 2i + 1
            to.push(b as u32);
            res_cap.push(1);
            to.push(a as u32);
            res_cap.push(0);
            deg[a] += 1;
            deg[b] += 1;
        };
    for v in 0..n {
        push_arc(&mut to, &mut res_cap, &mut deg, 2 * v, 2 * v + 1);
    }
    for (u, v) in graph.edges() {
        let (u, v) = (u as usize, v as usize);
        push_arc(&mut to, &mut res_cap, &mut deg, 2 * u + 1, 2 * v);
        push_arc(&mut to, &mut res_cap, &mut deg, 2 * v + 1, 2 * u);
    }
    // CSR over arc ids (each arc id appears in its tail's list; reverse arcs too, so
    // residual traversal is uniform).
    let mut start = vec![0usize; num_nodes + 1];
    for v in 0..num_nodes {
        start[v + 1] = start[v] + deg[v] as usize;
    }
    let mut fill = start.clone();
    let mut arc_ids = vec![0u32; to.len()];
    for (arc, &head) in to.iter().enumerate() {
        // the tail of arc `arc` is the head of its partner `arc ^ 1`
        let tail = to[arc ^ 1] as usize;
        let _ = head;
        arc_ids[fill[tail]] = arc as u32;
        fill[tail] += 1;
    }

    let source = 2 * s as usize + 1;
    let sink = 2 * t as usize;
    let mut flow = 0usize;
    let mut parent_arc: Vec<u32> = vec![u32::MAX; num_nodes];
    let mut queue: Vec<u32> = Vec::with_capacity(num_nodes);
    while flow < cap {
        // BFS for an augmenting path in the residual network.
        parent_arc.iter_mut().for_each(|p| *p = u32::MAX);
        queue.clear();
        queue.push(source as u32);
        parent_arc[source] = u32::MAX - 1; // visited marker for the source
        let mut head = 0;
        let mut reached = false;
        'bfs: while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            for &arc in &arc_ids[start[v]..start[v + 1]] {
                let arc = arc as usize;
                if res_cap[arc] == 0 {
                    continue;
                }
                let w = to[arc] as usize;
                if parent_arc[w] != u32::MAX {
                    continue;
                }
                parent_arc[w] = arc as u32;
                if w == sink {
                    reached = true;
                    break 'bfs;
                }
                queue.push(w as u32);
            }
        }
        if !reached {
            break;
        }
        // Augment one unit along the parent chain.
        let mut v = sink;
        while v != source {
            let arc = parent_arc[v] as usize;
            res_cap[arc] -= 1;
            res_cap[arc ^ 1] += 1;
            v = to[arc ^ 1] as usize;
        }
        flow += 1;
    }
    Ok(flow)
}

/// Whether removing `cut` disconnects the graph (used to verify witnesses).
pub fn is_vertex_cut(graph: &CsrGraph, cut: &[Vertex]) -> bool {
    let n = graph.num_vertices();
    if cut.len() >= n {
        return false;
    }
    let removed: std::collections::HashSet<Vertex> = cut.iter().copied().collect();
    let mask: Vec<bool> = (0..n as Vertex).map(|v| !removed.contains(&v)).collect();
    let comps = psi_graph::connectivity::connected_components_masked(graph, Some(&mask));
    comps.num_components >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_planar::generators as pg;
    use std::collections::HashSet;

    fn conn(e: &Embedding) -> usize {
        vertex_connectivity(e, ConnectivityMode::WholeGraph, 1).connectivity
    }

    /// The default path's answer, checked: its cut is a cut of the right size
    /// unless the graph is complete.
    fn conn_with_cut(e: &Embedding) -> ConnectivityResult {
        let result = vertex_connectivity(e, ConnectivityMode::WholeGraph, 1);
        let n = e.graph.num_vertices();
        if e.graph.num_edges() < n * (n - 1) / 2 {
            assert_eq!(result.cut.len(), result.connectivity, "{:?}", result.cut);
            assert!(is_vertex_cut(&e.graph, &result.cut), "{:?}", result.cut);
        }
        result
    }

    /// Every `2c`-cycle of `G'` through distinct vertices and faces, counted by
    /// brute force: closed walks from their smallest original vertex, halved for
    /// the two directions.
    fn brute_force_cycle_count(fv: &FaceVertexGraph, c: usize) -> usize {
        fn walk(
            g: &CsrGraph,
            fv: &FaceVertexGraph,
            start: Vertex,
            at: Vertex,
            len: usize,
            target: usize,
            used: &mut Vec<bool>,
        ) -> usize {
            let mut count = 0;
            for &w in g.neighbors(at) {
                if len + 1 == target {
                    count += usize::from(w == start);
                } else if !used[w as usize] && (!fv.is_original(w) || w > start) {
                    used[w as usize] = true;
                    count += walk(g, fv, start, w, len + 1, target, used);
                    used[w as usize] = false;
                }
            }
            count
        }
        let g = &fv.graph;
        let mut used = vec![false; g.num_vertices()];
        let mut total = 0;
        for s in 0..fv.num_original as Vertex {
            used[s as usize] = true;
            total += walk(g, fv, s, s, 0, 2 * c, &mut used);
            used[s as usize] = false;
        }
        total / 2
    }

    #[test]
    fn low_connectivity_cases() {
        // disconnected
        let two_triangles = psi_graph::generators::disjoint_union(&[
            &psi_graph::generators::cycle(3),
            &psi_graph::generators::cycle(3),
        ]);
        let walk: Vec<Vertex> = vec![0, 1, 2];
        let walk2: Vec<Vertex> = vec![3, 4, 5];
        let e = Embedding::new(
            two_triangles,
            vec![walk.clone(), walk, walk2.clone(), walk2],
        );
        assert_eq!(conn(&e), 0);

        // a path has an articulation point
        let p = psi_graph::generators::path(4);
        let e = Embedding::new(p, vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]]);
        assert_eq!(conn(&e), 1);

        // a single edge
        let p2 = psi_graph::generators::path(2);
        let e = Embedding::new(p2, vec![vec![0, 1], vec![1, 0]]);
        assert_eq!(conn(&e), 1);
    }

    #[test]
    fn cycle_is_two_connected() {
        let result = conn_with_cut(&pg::cycle_embedded(8));
        assert_eq!(result.connectivity, 2);
        // δ = 2 settles it: no cycle of G' is enumerated
        assert_eq!((result.candidates, result.dp_ran), (0, false));
    }

    #[test]
    fn wheel_is_three_connected() {
        assert_eq!(conn_with_cut(&pg::wheel_embedded(8)).connectivity, 3);
    }

    #[test]
    fn platonic_connectivities() {
        assert_eq!(conn(&pg::tetrahedron()), 3); // K4: n - 1
        assert!(conn_with_cut(&pg::tetrahedron()).cut.is_empty());
        assert_eq!(conn_with_cut(&pg::cube()).connectivity, 3);
        assert_eq!(conn_with_cut(&pg::octahedron()).connectivity, 4);
    }

    /// The 4-vs-5 distinction on the icosahedron: every `2c`-cycle for `c ≤ 4`
    /// is enumerated and none separates.
    #[test]
    fn icosahedron_is_five_connected() {
        let result = conn_with_cut(&pg::icosahedron());
        assert_eq!(result.connectivity, 5);
        assert!(!result.dp_ran && result.candidates > 0);
        assert_eq!(result.states_explored, 0);
    }

    #[test]
    fn double_wheel_is_four_connected() {
        assert_eq!(conn_with_cut(&pg::double_wheel(6)).connectivity, 4);
    }

    #[test]
    fn grid_and_triangulated_grid() {
        // grid corners have degree 2 -> connectivity 2
        assert_eq!(conn_with_cut(&pg::grid_embedded(4, 4)).connectivity, 2);
        // triangulated grid corner (w-1, 0) has degree 2 as well
        assert_eq!(
            conn_with_cut(&pg::triangulated_grid_embedded(4, 4)).connectivity,
            2
        );
    }

    #[test]
    fn stacked_triangulation_is_three_connected() {
        let e = pg::stacked_triangulation_embedded(18, 5);
        assert_eq!(conn_with_cut(&e).connectivity, 3);
    }

    /// Whether the Jordan curve through `verts[i]` and `faces[i]` (face `i` joins
    /// `verts[i]` to the next) has original vertices on both sides, computed from
    /// the faces alone: union-find over the pieces of the plane minus the curve —
    /// off-cycle vertices, faces off the cycle, and the two halves the curve cuts
    /// each cycle face into — joined at vertex corners and across edges.
    fn curve_separates(fv: &FaceVertexGraph, verts: &[Vertex], faces: &[u32]) -> bool {
        fn find(parent: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while parent[r] != r {
                r = parent[r];
            }
            parent[x] = r;
            r
        }
        let (n, f) = (fv.num_original, fv.num_faces());
        // Nodes: vertices, then faces, then the second half of each cycle face.
        let mut parent: Vec<usize> = (0..n + 2 * f).collect();
        let mut unite = |a: usize, b: usize| {
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            parent[ra] = rb;
        };
        // The piece of face `face` beside the walk step starting at position `p`.
        let piece = |face: usize, p: usize| -> usize {
            let Some(i) = faces.iter().position(|&g| g as usize == face) else {
                return n + face;
            };
            let walk = fv.walk(face);
            let at = |v: Vertex| walk.iter().position(|&w| w == v).unwrap();
            let (a, b) = (at(verts[i]), at(verts[(i + 1) % verts.len()]));
            let len = walk.len();
            // Steps a, a+1, …, b−1 (cyclically) lie on one side of the chord.
            if (p + len - a) % len < (b + len - a) % len {
                n + face
            } else {
                n + f + face
            }
        };
        let mut sides: std::collections::HashMap<(Vertex, Vertex), usize> = Default::default();
        for face in 0..f {
            let walk = fv.walk(face);
            for (p, &u) in walk.iter().enumerate() {
                let w = walk[(p + 1) % walk.len()];
                let here = piece(face, p);
                if !verts.contains(&u) {
                    unite(u as usize, here);
                }
                // Across the edge, the piece on its other side.
                match sides.entry((u.min(w), u.max(w))) {
                    std::collections::hash_map::Entry::Occupied(other) => unite(here, *other.get()),
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(here);
                    }
                }
            }
        }
        let mut classes: Vec<usize> = (0..n as Vertex)
            .filter(|v| !verts.contains(v))
            .map(|v| find(&mut parent, v as usize))
            .collect();
        classes.sort_unstable();
        classes.dedup();
        classes.len() >= 2
    }

    /// The rotation-arc test on every candidate the enumeration visits, for every
    /// cut size, on generator embeddings (faces written in either direction) and
    /// on the LR engine's: it equals the global side computation above, and a
    /// separating candidate's vertices are a cut. (The converse is per vertex set,
    /// not per cycle: on the 4×3 grid, {4, 5, 9} is a cut, and the cycle through
    /// the outer face isolates vertex 8, but the one through the squares 0-1-5-4,
    /// 4-5-9-8 and 5-6-10-9 encloses no vertex.) Each `2c`-cycle of `G'` is visited
    /// exactly once.
    #[test]
    fn arc_test_matches_the_curve_on_every_candidate() {
        let mut cases = vec![
            pg::wheel_embedded(7),
            pg::cube(),
            pg::octahedron(),
            pg::icosahedron(),
            pg::double_wheel(6),
            pg::grid_embedded(4, 3),
            pg::triangulated_grid_embedded(4, 4),
            pg::stacked_triangulation_embedded(14, 2),
            pg::cycle_embedded(6),
        ];
        let relaid: Vec<Embedding> = cases
            .iter()
            .map(|e| psi_planar::planar_embedding(&e.graph).unwrap())
            .collect();
        cases.extend(relaid);
        let (mut separating, mut enclosing_nothing) = (0, 0);
        for e in &cases {
            let fv = face_vertex_graph(e);
            let rot = Rotation::new(&e.graph, &fv).expect("a planar 2-connected embedding");
            let mut search = CycleSearch::new(&e.graph, &fv, &rot, usize::MAX);
            for c in 2..=4 {
                let before = search.candidates;
                let mut cycles = HashSet::new();
                let outcome = search.run(c, &mut |verts, faces, separates| {
                    assert_eq!(
                        separates,
                        curve_separates(&fv, verts, faces),
                        "{verts:?} {faces:?}"
                    );
                    if separates {
                        assert!(is_vertex_cut(&e.graph, verts), "{verts:?}");
                        separating += 1;
                    } else if is_vertex_cut(&e.graph, verts) {
                        enclosing_nothing += 1;
                    }
                    let mut key: Vec<(Vertex, u32)> =
                        verts.iter().copied().zip(faces.iter().copied()).collect();
                    key.sort_unstable();
                    assert!(cycles.insert(key), "cycle visited twice");
                    false
                });
                assert_eq!(outcome, Enumeration::Complete);
                assert_eq!(search.candidates - before, brute_force_cycle_count(&fv, c));
            }
        }
        assert!(
            separating > 0 && enclosing_nothing > 0,
            "the corpus has both kinds"
        );
    }

    #[test]
    fn rotation_needs_a_plane_embedding() {
        let torus = pg::torus_grid_embedded(4, 4);
        assert!(Rotation::new(&torus.graph, &face_vertex_graph(&torus)).is_none());
        let wheel = pg::wheel_embedded(6);
        let mut faces = wheel.faces.clone();
        faces.swap(0, 1);
        faces[0].reverse();
        let fv = face_vertex_graph(&Embedding::new(wheel.graph.clone(), faces));
        assert!(
            Rotation::new(&wheel.graph, &fv).is_some(),
            "face order and direction are free"
        );
        let mut faces = wheel.faces.clone();
        faces.last_mut().unwrap().swap(0, 1); // the rim walk, with a non-edge
        let fv = face_vertex_graph(&Embedding::new(wheel.graph.clone(), faces));
        assert!(Rotation::new(&wheel.graph, &fv).is_none());
    }

    /// With no enumeration budget, every searched cut size falls to the separating
    /// DP, which must reach the same answer.
    #[test]
    fn zero_budget_falls_back_to_the_dp() {
        for e in [
            pg::wheel_embedded(8),
            pg::octahedron(),
            pg::cube(),
            pg::double_wheel(5),
            pg::stacked_triangulation_embedded(12, 3),
            pg::cycle_embedded(7),
        ] {
            let fv = face_vertex_graph(&e);
            let fast = two_connected_connectivity(
                &e.graph,
                &fv,
                ConnectivityMode::WholeGraph,
                1,
                enumeration_budget(&fv),
            );
            let dp = two_connected_connectivity(&e.graph, &fv, ConnectivityMode::WholeGraph, 1, 0);
            assert_eq!(fast.connectivity, dp.connectivity);
            assert!(!fast.dp_ran && fast.states_explored == 0);
            // δ = 2 leaves nothing to search, so the DP only runs above it
            assert_eq!(dp.dp_ran, e.graph.min_degree() > 2);
            assert_eq!(dp.dp_ran, dp.states_explored > 0);
            if !dp.cut.is_empty() {
                assert!(is_vertex_cut(&e.graph, &dp.cut));
            }
        }
    }

    #[test]
    fn st_connectivity_known_values() {
        // path: one internal path
        let p = psi_graph::generators::path(5);
        assert_eq!(st_connectivity_capped(&p, 0, 4, 5), Ok(1));
        // cycle: two disjoint arcs
        let c = psi_graph::generators::cycle(6);
        assert_eq!(st_connectivity_capped(&c, 0, 3, 5), Ok(2));
        // cap is honoured
        assert_eq!(st_connectivity_capped(&c, 0, 3, 1), Ok(1));
        assert_eq!(st_connectivity_capped(&c, 0, 3, 0), Ok(0));
        // K4 (adjacent pair): direct edge + two length-2 detours
        let k4 = psi_graph::generators::complete(4);
        assert_eq!(st_connectivity_capped(&k4, 0, 1, 5), Ok(3));
        // octahedron: antipodal vertices are non-adjacent with 4 disjoint paths
        let oct = pg::octahedron().graph;
        let (s, t) = (
            0u32,
            (0..6u32).find(|&v| v != 0 && !oct.has_edge(0, v)).unwrap(),
        );
        assert_eq!(st_connectivity_capped(&oct, s, t, 5), Ok(4));
        // disconnected pair
        let two = psi_graph::generators::disjoint_union(&[
            &psi_graph::generators::cycle(3),
            &psi_graph::generators::cycle(3),
        ]);
        assert_eq!(st_connectivity_capped(&two, 0, 3, 5), Ok(0));
    }

    #[test]
    fn st_connectivity_rejects_bad_endpoints_with_typed_errors() {
        let c = psi_graph::generators::cycle(6);
        assert_eq!(
            st_connectivity_capped(&c, 6, 9, 5),
            Err(QueryError::VertexOutOfRange { vertex: 6, n: 6 })
        );
        assert_eq!(
            st_connectivity_capped(&c, 0, 7, 5),
            Err(QueryError::VertexOutOfRange { vertex: 7, n: 6 })
        );
        assert_eq!(
            st_connectivity_capped(&c, 2, 2, 5),
            Err(QueryError::IdenticalEndpoints { vertex: 2 })
        );
    }

    #[test]
    fn st_connectivity_matches_flow_baseline() {
        let g = psi_graph::generators::random_stacked_triangulation(60, 11);
        let n = g.num_vertices() as Vertex;
        let mut checked = 0;
        for s in 0..n {
            for t in (s + 1)..n {
                if g.has_edge(s, t) {
                    continue; // the baseline saturates adjacent pairs by convention
                }
                let ours = st_connectivity_capped(&g, s, t, 5);
                let baseline = psi_baselines::maxflow::local_vertex_connectivity(&g, s, t, 5);
                assert_eq!(ours, Ok(baseline), "pair ({s}, {t})");
                checked += 1;
                if checked >= 200 {
                    return;
                }
            }
        }
    }

    #[test]
    fn prebuilt_fv_matches_fresh_connectivity() {
        for e in [
            pg::wheel_embedded(8),
            pg::octahedron(),
            pg::grid_embedded(4, 4),
            pg::cycle_embedded(9),
            pg::stacked_triangulation_embedded(18, 5),
        ] {
            let fresh = vertex_connectivity(&e, ConnectivityMode::WholeGraph, 1);
            let fv = face_vertex_graph(&e);
            let reused =
                vertex_connectivity_with_fv(&e.graph, &fv, ConnectivityMode::WholeGraph, 1);
            assert_eq!(fresh.connectivity, reused.connectivity);
            assert_eq!(fresh.cut, reused.cut);
            assert_eq!(fresh.states_explored, reused.states_explored);
            assert_eq!(fresh.candidates, reused.candidates);
        }
    }

    /// The paper's DP loop in both modes: the cover's Monte Carlo search must
    /// reach the whole-graph verdict.
    #[test]
    fn cover_mode_agrees_with_whole_graph_mode() {
        for e in [pg::cycle_embedded(10), pg::wheel_embedded(7)] {
            let fv = face_vertex_graph(&e);
            let dp = |mode| separating_cycle_connectivity(&e.graph, &fv, mode, 3).connectivity;
            let whole = dp(ConnectivityMode::WholeGraph);
            let cover = dp(ConnectivityMode::Cover { repetitions: 12 });
            assert_eq!(whole, cover);
            assert_eq!(whole, conn(&e));
        }
    }
}
