//! S-separating subgraph isomorphism (Section 5.2, Lemma 5.3).
//!
//! Decides whether a connected pattern `H` occurs in the target graph such that removing
//! the occurrence leaves at least two connected components each containing a vertex of a
//! marked set `S`. The dynamic program of Section 3 is extended with a per-bag-vertex
//! side label:
//!
//! * `Image` — the vertex is (or will be, before it leaves the bags) used by the
//!   occurrence; only *allowed* vertices may carry it, and a vertex may only be
//!   forgotten with this label if a pattern vertex is actually mapped to it,
//! * `Inside` / `Outside` — the side of the separation the vertex ends up on; an edge of
//!   the target never connects an `Inside` vertex to an `Outside` vertex (checked in the
//!   bag containing the edge), which is exactly the condition that the occurrence
//!   separates the two sides,
//!
//! plus two booleans recording whether some `S`-vertex has already been committed to the
//! inside respectively outside (the paper's `ix` / `ox`). A complete root state with
//! both booleans set certifies an S-separating occurrence.
//!
//! ## State representation
//!
//! The separating DP is the state-explosion hot spot of the connectivity pipeline (the
//! C6/C8 no-instance searches materialise `match-state × 3^bag × ix/ox` states per
//! node). States are therefore fully interned: the match-state component of every
//! separating state is stored once in a **per-run shared [`StateArena`]** (states
//! recur heavily across nodes and labelings), and each node's separating states are
//! rows `[base id, ix/ox flags, side labels…]` in a per-node arena. Tables, the
//! lift/join dedup sets, and the derivation map are all keyed by dense ids — no state
//! is ever cloned, hashed as an owned key, or stored twice, and witness reconstruction
//! walks borrowed arena rows.

use crate::arena::{ArenaStats, StateArena, StateId};
use crate::pattern::Pattern;
use crate::state::{
    words_apply_perm, words_mapped_pairs, words_num_unmatched, ST_IN_CHILD, ST_UNMATCHED,
};
use psi_graph::{CsrGraph, Vertex};
use psi_treedecomp::{min_degree_decomposition, BinaryTreeDecomposition};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Side label of a bag vertex.
pub const LABEL_IMAGE: u32 = 0;
/// Side label: the vertex ends up in the "inside" part of the separation.
pub const LABEL_INSIDE: u32 = 1;
/// Side label: the vertex ends up in the "outside" part of the separation.
pub const LABEL_OUTSIDE: u32 = 2;

/// Label value of a bag vertex whose side has not been decided yet (scratch rows only).
const LABEL_UNDECIDED: u32 = u32::MAX;

/// `ix` flag bit: some `S` vertex was committed (forgotten) on the inside.
const FLAG_IX: u32 = 1;
/// `ox` flag bit: some `S` vertex was committed (forgotten) on the outside.
const FLAG_OX: u32 = 2;

/// Row layout of a separating state: `[base id, flags, label per bag vertex…]`.
const ROW_BASE: usize = 0;
const ROW_FLAGS: usize = 1;
const ROW_LABELS: usize = 2;

/// The problem instance: which target vertices are in `S` and which may be used by the
/// pattern image.
#[derive(Clone, Debug)]
pub struct SeparatingInstance<'a> {
    /// The target graph (possibly a minor produced by the separating cover).
    pub graph: &'a CsrGraph,
    /// `S` membership per target vertex.
    pub in_s: &'a [bool],
    /// Whether each target vertex may be used by the occurrence.
    pub allowed: &'a [bool],
}

/// State-engine accounting of one separating-DP run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SepStats {
    /// Total separating states interned over all decomposition nodes.
    pub sep_states: usize,
    /// Distinct match-states in the shared per-run base arena.
    pub base_states: usize,
    /// Largest single node table.
    pub peak_node_states: usize,
    /// Rows rewritten to their Inside/Outside mirror at insertion (flip symmetry).
    pub flips_canonicalised: usize,
    /// Insertions dropped because an existing row at equal (match-state, labels)
    /// strictly dominated their ix/ox flags.
    pub dominated_dropped: usize,
    /// Match-state interns rewritten to a different `Aut(H)`-orbit representative.
    pub orbit_merges: usize,
    /// Aggregated arena statistics (base arena + every node table).
    pub arena: ArenaStats,
}

impl SepStats {
    /// Accumulates another run's accounting (counters add saturating, peaks max,
    /// arenas absorb) — used by the connectivity pipeline to aggregate its
    /// per-cycle-length searches. Commutative and associative, so aggregated
    /// totals are independent of merge order (and thread count).
    pub fn absorb(&mut self, other: &SepStats) {
        self.sep_states = self.sep_states.saturating_add(other.sep_states);
        self.base_states = self.base_states.saturating_add(other.base_states);
        self.peak_node_states = self.peak_node_states.max(other.peak_node_states);
        self.flips_canonicalised = self
            .flips_canonicalised
            .saturating_add(other.flips_canonicalised);
        self.dominated_dropped = self
            .dominated_dropped
            .saturating_add(other.dominated_dropped);
        self.orbit_merges = self.orbit_merges.saturating_add(other.orbit_merges);
        self.arena.absorb(&other.arena);
    }
}

/// Per-lever toggles of the separating-state space reduction. All levers are on by
/// default; disabling them individually exists for A/B testing and the
/// pruned-vs-unpruned agreement suite.
#[derive(Clone, Copy, Debug)]
pub struct SepConfig {
    /// Canonicalise every interned row to the lexicographically smaller of itself and
    /// its Inside/Outside mirror (separating states come in side-swapped pairs; one
    /// representative per pair suffices for the verdict and the witness).
    pub flip: bool,
    /// Drop insertions whose ix/ox flags are strictly dominated by an already-interned
    /// row at equal (match-state, labels): flags only ever accumulate and acceptance is
    /// monotone in them, so the dominated row cannot reach any verdict the dominating
    /// one misses.
    pub dominance: bool,
    /// Intern match-states modulo the pattern's automorphism group (joins probe the
    /// partner side under every group translation, so one orbit representative stands
    /// in for all `|Aut(H)|` equivalent match-states). Witnesses are recovered by an
    /// automorphism-free rerun of the accepting search, as positional reconstruction
    /// does not survive the quotient.
    pub automorphism: bool,
}

impl Default for SepConfig {
    fn default() -> Self {
        SepConfig {
            flip: true,
            dominance: true,
            automorphism: true,
        }
    }
}

/// Decides whether an S-separating occurrence of `pattern` exists in the instance, and
/// returns a witness mapping if one does.
///
/// # Panics
/// Panics if the instance graph's tree decomposition produces a bag wider than 64
/// vertices: the per-bag label state is tracked in 64-bit position masks, and a
/// `3^65`-labeling search could never finish anyway. Planar cover pieces (width
/// ≤ `3(d+1)`) and the face–vertex graphs of the connectivity pipeline are far below
/// the limit.
pub fn find_separating_occurrence(
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
) -> Option<Vec<Vertex>> {
    find_separating_occurrence_with_stats(instance, pattern).0
}

/// As [`find_separating_occurrence`], additionally reporting the interned-state
/// accounting of the run (used by the connectivity pipeline and the regression tests).
///
/// The search runs on a single tree decomposition of the instance graph; callers that
/// need the near-linear-work pipeline combine it with
/// [`crate::cover::search_separating_cover`]. Panics on decomposition bags wider than
/// 64 vertices (see [`find_separating_occurrence`]).
pub fn find_separating_occurrence_with_stats(
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
) -> (Option<Vec<Vertex>>, SepStats) {
    find_separating_occurrence_with_config(instance, pattern, SepConfig::default())
}

/// As [`find_separating_occurrence_with_stats`], with explicit control over the
/// state-space reduction levers of [`SepConfig`].
pub fn find_separating_occurrence_with_config(
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    cfg: SepConfig,
) -> (Option<Vec<Vertex>>, SepStats) {
    let graph = instance.graph;
    let k = pattern.k();
    if k == 0 || k > graph.num_vertices() {
        return (None, SepStats::default());
    }
    let td = min_degree_decomposition(graph);
    let btd = BinaryTreeDecomposition::from_decomposition(&td);
    find_separating_occurrence_in(instance, pattern, cfg, &btd)
}

/// Runs the separating search on a caller-supplied binary tree decomposition of the
/// instance graph. The connectivity pipeline uses this to compute one (possibly
/// guaranteed-width) decomposition and share it across its per-cycle-length searches.
/// The decomposition's bags must be sorted and at most 64 vertices wide.
pub fn find_separating_occurrence_in(
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    cfg: SepConfig,
    btd: &BinaryTreeDecomposition,
) -> (Option<Vec<Vertex>>, SepStats) {
    let mut span = psi_obs::span!(
        "dp.separating",
        n = instance.graph.num_vertices(),
        k = pattern.k(),
    );
    let (occ, stats) = find_separating_occurrence_in_untraced(instance, pattern, cfg, btd);
    if span.is_recording() {
        span.field("sep_states", stats.sep_states as u64);
        span.field("base_states", stats.base_states as u64);
        span.field("dominated_dropped", stats.dominated_dropped as u64);
        span.field("orbit_merges", stats.orbit_merges as u64);
        span.field("arena_misses", stats.arena.misses);
    }
    crate::obs::record_sep_run(&stats);
    (occ, stats)
}

fn find_separating_occurrence_in_untraced(
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    cfg: SepConfig,
    btd: &BinaryTreeDecomposition,
) -> (Option<Vec<Vertex>>, SepStats) {
    let k = pattern.k();
    if k == 0 || k > instance.graph.num_vertices() {
        return (None, SepStats::default());
    }
    let run = run_separating(instance, pattern, btd, cfg);
    let Some(accept) = run.accept else {
        return (None, run.stats);
    };
    if cfg.automorphism && pattern.has_nontrivial_automorphisms() {
        // The accepting run interned match-states modulo `Aut(H)`, so the positional
        // derivation walk would splice together incompatibly-translated fragments.
        // Rerun the (known-accepting) search without the quotient purely for
        // reconstruction — flip and dominance are reconstruction-safe and stay on —
        // and report the reduced run's statistics. Only yes-instances pay for this;
        // the no-instance searches that dominate the connectivity pipeline never do.
        let rerun = run_separating(
            instance,
            pattern,
            btd,
            SepConfig {
                automorphism: false,
                ..cfg
            },
        );
        let occ = rerun
            .accept
            .and_then(|a| reconstruct_witness(&rerun, btd, k, a));
        return (occ, run.stats);
    }
    (reconstruct_witness(&run, btd, k, accept), run.stats)
}

/// The complete result of one separating-DP run over a fixed decomposition: the
/// per-node tables, the derivation map, the shared base arena, the first accepting
/// root row (if any), and the state accounting.
struct SepRun {
    tables: Vec<StateArena>,
    parents: Vec<Vec<[u32; 2]>>,
    base_arena: StateArena,
    accept: Option<u32>,
    stats: SepStats,
}

fn run_separating(
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    btd: &BinaryTreeDecomposition,
    cfg: SepConfig,
) -> SepRun {
    let graph = instance.graph;
    let k = pattern.k();
    let use_aut = cfg.automorphism && pattern.has_nontrivial_automorphisms();
    let num_aut = if use_aut {
        pattern.automorphisms().len()
    } else {
        1
    };
    let num_nodes = btd.num_nodes();

    // The shared per-run arena of match-state words: every separating state points into
    // it by id, so a base state reused across nodes/labelings is stored once.
    let mut base_arena = StateArena::new(k);
    // Per-node tables of separating-state rows, plus the derivation map: for every row,
    // the (left, right) child row ids it was first derived from (`u32::MAX` at leaves).
    let mut tables: Vec<StateArena> = (0..num_nodes).map(|_| StateArena::new(0)).collect();
    let mut parents: Vec<Vec<[u32; 2]>> = vec![Vec::new(); num_nodes];

    let mut scratch = Scratch::default();
    let (mut flips, mut dominated, mut orbit_merges) = (0usize, 0usize, 0usize);
    let mut sink_buf: Vec<u32> = Vec::new();
    for node in btd.postorder() {
        let bag = &btd.bags[node];
        let width = ROW_LABELS + bag.len();
        let bag_adj = bag_adjacency(bag, graph);
        let mut table = StateArena::new(width);
        let mut derivation: Vec<[u32; 2]> = Vec::new();
        // Per-node Pareto fronts of the dominance lever: for every (match-state,
        // labels) pair, the bit mask of ix/ox flag values already interned there.
        let mut fronts: HashMap<(u32, u128), u8> = HashMap::new();
        match btd.children[node] {
            None => {
                // Leaf: extend the all-unmatched base with every label completion.
                let base = vec![ST_UNMATCHED; k];
                let undecided = vec![LABEL_UNDECIDED; bag.len()];
                extend(
                    &base,
                    &undecided,
                    0,
                    bag,
                    &bag_adj,
                    instance,
                    pattern,
                    use_aut,
                    &mut base_arena,
                    &mut scratch,
                    &mut orbit_merges,
                    &mut |row| {
                        sink_row(
                            row,
                            [u32::MAX, u32::MAX],
                            cfg,
                            &mut table,
                            &mut derivation,
                            &mut fronts,
                            &mut flips,
                            &mut dominated,
                            &mut sink_buf,
                        );
                    },
                );
            }
            Some([l, r]) => {
                // Only a witness is needed, so child states that lift to the same
                // parent-bag state are interchangeable: deduplicate the lifted sets
                // (keeping one representative original row each) and also skip joined
                // states that were already extended — both prune the quadratic pairing
                // substantially. The dedup sets are arenas themselves: membership is an
                // intern on borrowed rows, never a clone.
                let lifted_left = lift_side(
                    &tables[l],
                    &btd.bags[l],
                    bag,
                    instance,
                    pattern,
                    use_aut,
                    cfg.flip,
                    &mut base_arena,
                    &mut scratch,
                    &mut orbit_merges,
                );
                let lifted_right = lift_side(
                    &tables[r],
                    &btd.bags[r],
                    bag,
                    instance,
                    pattern,
                    use_aut,
                    cfg.flip,
                    &mut base_arena,
                    &mut scratch,
                    &mut orbit_merges,
                );
                let index = SepJoinIndex::build(&lifted_right, width, bag.len(), &base_arena, k);
                let mut joined_seen = StateArena::new(width);
                let mut joined_base = Vec::with_capacity(k);
                let mut joined_row = vec![0u32; width];
                let mut left_base = Vec::with_capacity(k);
                // Flat buffer of the distinct `Aut(H)` translations of the current
                // left base (stride `k`).
                let mut translations: Vec<u32> = Vec::new();
                let mut probe_row = vec![0u32; width];
                let mut cand: Vec<u64> = Vec::new();
                for li in 0..lifted_left.child.len() {
                    let ls = &lifted_left.rows[li * width..(li + 1) * width];
                    let lorig = lifted_left.child[li];
                    left_base.clear();
                    left_base.extend_from_slice(base_arena.get(StateId(ls[ROW_BASE])));
                    // Both sides store one representative per Aut(H) orbit, so join
                    // completeness needs every translated probe of the left base: for
                    // any pair of true states (a∘ρ, b∘σ), join(a∘ρ, b∘σ) equals
                    // join(a∘ρσ⁻¹, b)∘σ, and the trailing σ is erased when the joined
                    // base is canonicalised below. States with large stabilisers
                    // collapse to few distinct translations.
                    translations.clear();
                    for ai in 0..num_aut {
                        let start = translations.len();
                        translations.resize(start + k, 0);
                        if ai == 0 {
                            translations[start..].copy_from_slice(&left_base);
                        } else {
                            let (_, dst) = translations.split_at_mut(start);
                            words_apply_perm(&left_base, &pattern.automorphisms()[ai], dst);
                        }
                        let dup = {
                            let (prev, cur) = translations.split_at(start);
                            prev.chunks_exact(k).any(|p| p == cur)
                        };
                        if dup {
                            translations.truncate(start);
                        }
                    }
                    for probe_base in translations.chunks_exact(k) {
                        // Probe with the row and (flip lever on) its Inside/Outside
                        // mirror: tables keep one representative per flip pair, and
                        // join(F(a), b) is flip-equivalent to join(a, F(b)), so the two
                        // probes together cover all four side combinations.
                        for fi in 0..if cfg.flip { 2 } else { 1 } {
                            let probe: &[u32] = if fi == 0 {
                                ls
                            } else {
                                probe_row[ROW_BASE] = ls[ROW_BASE];
                                probe_row[ROW_FLAGS] = flip_flags(ls[ROW_FLAGS]);
                                for (dst, &src) in
                                    probe_row[ROW_LABELS..].iter_mut().zip(&ls[ROW_LABELS..])
                                {
                                    *dst = flip_label(src);
                                }
                                if probe_row[..] == *ls {
                                    continue; // the row is its own mirror
                                }
                                &probe_row
                            };
                            index.candidates(probe, probe_base, &mut cand);
                            crate::dp::for_each_candidate(&cand, |ri| {
                                let rs = &lifted_right.rows[ri * width..(ri + 1) * width];
                                let rorig = lifted_right.child[ri];
                                if !join_rows(
                                    probe_base,
                                    probe,
                                    rs,
                                    instance,
                                    pattern,
                                    &base_arena,
                                    &mut joined_base,
                                    &mut joined_row,
                                ) {
                                    return;
                                }
                                if use_aut && pattern.canonicalize_words(&mut joined_base) {
                                    orbit_merges += 1;
                                }
                                let (bid, _) = base_arena.intern(&joined_base);
                                joined_row[ROW_BASE] = bid.0;
                                if cfg.flip {
                                    // Extending only the canonical side of the joined
                                    // row is complete: extension commutes with the
                                    // flip, and the sink canonicalises anyway.
                                    flip_canonicalize_row(&mut joined_row);
                                }
                                if !joined_seen.intern(&joined_row).1 {
                                    return;
                                }
                                extend(
                                    &joined_base,
                                    &joined_row[ROW_LABELS..],
                                    joined_row[ROW_FLAGS],
                                    bag,
                                    &bag_adj,
                                    instance,
                                    pattern,
                                    use_aut,
                                    &mut base_arena,
                                    &mut scratch,
                                    &mut orbit_merges,
                                    &mut |row| {
                                        sink_row(
                                            row,
                                            [lorig, rorig],
                                            cfg,
                                            &mut table,
                                            &mut derivation,
                                            &mut fronts,
                                            &mut flips,
                                            &mut dominated,
                                            &mut sink_buf,
                                        );
                                    },
                                );
                            });
                        }
                    }
                }
            }
        }
        tables[node] = table;
        parents[node] = derivation;
    }

    let mut stats = SepStats {
        sep_states: tables.iter().map(StateArena::len).sum(),
        base_states: base_arena.len(),
        peak_node_states: tables.iter().map(StateArena::len).max().unwrap_or(0),
        flips_canonicalised: flips,
        dominated_dropped: dominated,
        orbit_merges,
        arena: base_arena.stats(),
    };
    for t in &tables {
        stats.arena.absorb(&t.stats());
    }

    // Root acceptance: complete base, and both sides hold an S vertex (counting the
    // root-bag vertices that were never forgotten). Rows are read off the arena slab.
    // Acceptance is flip-symmetric (both flags must be set) and monotone in the flags,
    // so testing only the canonical, undominated representatives is exact.
    let root = btd.root;
    let root_bag = &btd.bags[root];
    let accept = (0..tables[root].len() as u32).find(|&idx| {
        let row = tables[root].get(StateId(idx));
        let base = base_arena.get(StateId(row[ROW_BASE]));
        if base.contains(&ST_UNMATCHED) {
            return false;
        }
        let mut ix = row[ROW_FLAGS] & FLAG_IX != 0;
        let mut ox = row[ROW_FLAGS] & FLAG_OX != 0;
        for (pos, &v) in root_bag.iter().enumerate() {
            if instance.in_s[v as usize] {
                match row[ROW_LABELS + pos] {
                    LABEL_INSIDE => ix = true,
                    LABEL_OUTSIDE => ox = true,
                    _ => {}
                }
            }
        }
        // every Image-labelled root vertex must actually be used
        for (pos, &v) in root_bag.iter().enumerate() {
            if row[ROW_LABELS + pos] == LABEL_IMAGE
                && !words_mapped_pairs(base).any(|(_, t)| t == v)
            {
                return false;
            }
        }
        ix && ox
    });

    SepRun {
        tables,
        parents,
        base_arena,
        accept,
        stats,
    }
}

/// Walks the derivation chain of an accepting root row, merging the mapped targets of
/// every contributing match-state (all states read as borrowed arena rows). Only valid
/// for runs whose match-states were interned positionally (no automorphism quotient).
fn reconstruct_witness(
    run: &SepRun,
    btd: &BinaryTreeDecomposition,
    k: usize,
    accept: u32,
) -> Option<Vec<Vertex>> {
    let mut mapping = vec![u32::MAX; k];
    let mut stack: Vec<(usize, u32)> = vec![(btd.root, accept)];
    let mut guard = 0usize;
    while let Some((node, idx)) = stack.pop() {
        guard += 1;
        if guard > 4 * btd.num_nodes() * (k + 2) {
            break;
        }
        let row = run.tables[node].get(StateId(idx));
        for (pv, t) in words_mapped_pairs(run.base_arena.get(StateId(row[ROW_BASE]))) {
            mapping[pv] = t;
        }
        let [l, r] = run.parents[node][idx as usize];
        if let Some([lc, rc]) = btd.children[node] {
            if l != u32::MAX {
                stack.push((lc, l));
            }
            if r != u32::MAX {
                stack.push((rc, r));
            }
        }
    }
    if mapping.contains(&u32::MAX) {
        // The derivation chain lost a mapping (should not happen); report no witness
        // rather than a bogus one.
        return None;
    }
    Some(mapping)
}

/// `ix`/`ox` under the Inside/Outside mirror: the two flag bits swap.
#[inline]
fn flip_flags(f: u32) -> u32 {
    ((f & FLAG_IX) << 1) | ((f & FLAG_OX) >> 1)
}

/// A side label under the Inside/Outside mirror (`Image` and `Undecided` are fixed).
#[inline]
fn flip_label(l: u32) -> u32 {
    match l {
        LABEL_INSIDE => LABEL_OUTSIDE,
        LABEL_OUTSIDE => LABEL_INSIDE,
        other => other,
    }
}

/// Rewrites `row` in place to the lexicographically smaller of itself and its
/// Inside/Outside mirror over the `[flags, labels…]` plane (the match-state component
/// is flip-invariant). Returns whether the row changed.
fn flip_canonicalize_row(row: &mut [u32]) -> bool {
    use std::cmp::Ordering;
    let mut ord = flip_flags(row[ROW_FLAGS]).cmp(&row[ROW_FLAGS]);
    for &l in &row[ROW_LABELS..] {
        if ord != Ordering::Equal {
            break;
        }
        ord = flip_label(l).cmp(&l);
    }
    if ord != Ordering::Less {
        return false;
    }
    row[ROW_FLAGS] = flip_flags(row[ROW_FLAGS]);
    for l in &mut row[ROW_LABELS..] {
        *l = flip_label(*l);
    }
    true
}

/// Per flag value `f`, the mask of flag values that are **strict** supersets of `f`
/// (bit `v` set iff `v ⊋ f`): a row is dominated only by a row whose flags carry
/// strictly more information at the same match-state and labels.
const STRICT_SUPERSETS: [u8; 4] = [0b1110, 0b1000, 0b1000, 0b0000];

/// Packs a fully-decided label vector into two bits per position (labels are 0/1/2 and
/// bags hold at most 64 vertices, so the digest is exact, not a hash).
fn labels_digest(labels: &[u32]) -> u128 {
    let mut d = 0u128;
    for &l in labels {
        d = (d << 2) | l as u128;
    }
    d
}

/// Insertion funnel of a node table: flip-canonicalises the emitted row, drops it if
/// an already-interned row at the same (match-state, labels) strictly dominates its
/// flags, and interns survivors, recording their derivation. Equal flags fall through
/// to the arena (whose hit accounting the stats tests rely on).
#[allow(clippy::too_many_arguments)]
fn sink_row(
    row: &[u32],
    derived_from: [u32; 2],
    cfg: SepConfig,
    table: &mut StateArena,
    derivation: &mut Vec<[u32; 2]>,
    fronts: &mut HashMap<(u32, u128), u8>,
    flips: &mut usize,
    dominated: &mut usize,
    buf: &mut Vec<u32>,
) {
    buf.clear();
    buf.extend_from_slice(row);
    if cfg.flip && flip_canonicalize_row(buf) {
        *flips += 1;
    }
    if cfg.dominance {
        let key = (buf[ROW_BASE], labels_digest(&buf[ROW_LABELS..]));
        let f = buf[ROW_FLAGS] as usize;
        match fronts.entry(key) {
            Entry::Occupied(mut e) => {
                if *e.get() & STRICT_SUPERSETS[f] != 0 {
                    *dominated += 1;
                    return;
                }
                *e.get_mut() |= 1 << f;
            }
            Entry::Vacant(e) => {
                e.insert(1 << f);
            }
        }
    }
    if table.intern(buf).1 {
        derivation.push(derived_from);
    }
}

/// Reusable scratch buffers of one separating-DP run.
#[derive(Default)]
struct Scratch {
    base: Vec<u32>,
    row: Vec<u32>,
    labels: Vec<u32>,
    allowed_targets: Vec<Vertex>,
    undecided: Vec<usize>,
    ext_ids: Vec<u32>,
    canon: Vec<u32>,
}

/// The lifted rows of one child (stride = parent row width) plus the child row id each
/// lifted row represents.
struct LiftedRows {
    rows: Vec<u32>,
    child: Vec<u32>,
}

/// Join-candidate index over one lifted side of the separating DP: the plain-DP
/// [`crate::dp::MatchIndex`] over the decoded base words, AND per-bag-position label
/// bitsets (a decided label joins only with `Undecided` or itself). Like the base
/// index this over-approximates — surviving candidates still run [`join_rows`] — but
/// it turns the quadratic pairing into a few bitset ANDs per probe.
struct SepJoinIndex {
    base: crate::dp::MatchIndex,
    stride: usize,
    /// Per bag position: bitset of rows whose label there is still undecided.
    undecided: Vec<Vec<u64>>,
    /// Per bag position, per label value (`Image`/`Inside`/`Outside`): row bitset.
    label: Vec<[Vec<u64>; 3]>,
}

impl SepJoinIndex {
    fn build(
        side: &LiftedRows,
        width: usize,
        bag_len: usize,
        base_arena: &StateArena,
        k: usize,
    ) -> SepJoinIndex {
        let num_rows = side.child.len();
        let stride = num_rows.div_ceil(64);
        // Decode the base words of every row once; the plain-DP index is built over
        // the decoded flat buffer.
        let mut decoded = vec![0u32; num_rows * k];
        for r in 0..num_rows {
            decoded[r * k..(r + 1) * k]
                .copy_from_slice(base_arena.get(StateId(side.rows[r * width + ROW_BASE])));
        }
        let base = crate::dp::MatchIndex::build(&decoded, num_rows, k, k);
        let mut undecided = vec![vec![0u64; stride]; bag_len];
        let mut label = vec![[vec![0u64; stride], vec![0u64; stride], vec![0u64; stride]]; bag_len];
        for r in 0..num_rows {
            let row = &side.rows[r * width..(r + 1) * width];
            for pos in 0..bag_len {
                let l = row[ROW_LABELS + pos];
                let set = if l == LABEL_UNDECIDED {
                    &mut undecided[pos]
                } else {
                    &mut label[pos][l as usize]
                };
                set[r / 64] |= 1 << (r % 64);
            }
        }
        SepJoinIndex {
            base,
            stride,
            undecided,
            label,
        }
    }

    /// Fills `result` with the candidate rows for the probe `(row, base words)`.
    fn candidates(&self, probe_row: &[u32], probe_base: &[u32], result: &mut Vec<u64>) {
        self.base.candidates(probe_base, result);
        for (pos, (und, lab)) in self.undecided.iter().zip(&self.label).enumerate() {
            let l = probe_row[ROW_LABELS + pos];
            if l == LABEL_UNDECIDED {
                continue; // an undecided probe label joins with anything
            }
            let bucket = &lab[l as usize];
            for w in 0..self.stride {
                result[w] &= und[w] | bucket[w];
            }
        }
    }
}

/// Lifts every row of `child_table` to the parent bag, deduplicated.
#[allow(clippy::too_many_arguments)]
fn lift_side(
    child_table: &StateArena,
    child_bag: &[Vertex],
    parent_bag: &[Vertex],
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    use_aut: bool,
    flip: bool,
    base_arena: &mut StateArena,
    scratch: &mut Scratch,
    orbit_merges: &mut usize,
) -> LiftedRows {
    let width = ROW_LABELS + parent_bag.len();
    let mut out = LiftedRows {
        rows: Vec::new(),
        child: Vec::new(),
    };
    let mut seen = StateArena::new(width);
    for idx in 0..child_table.len() as u32 {
        if !lift_row(
            child_table.get(StateId(idx)),
            child_bag,
            parent_bag,
            instance,
            pattern,
            use_aut,
            base_arena,
            scratch,
            orbit_merges,
        ) {
            continue;
        }
        if flip {
            // Lifting can flip-decanonicalise a row (forgotten S vertices move flag
            // bits); re-canonicalise so flip-equivalent lifts collapse in the dedup.
            flip_canonicalize_row(&mut scratch.row);
        }
        if !seen.intern(&scratch.row).1 {
            continue;
        }
        out.rows.extend_from_slice(&scratch.row);
        out.child.push(idx);
    }
    out
}

/// Lifts one child row to the parent bag, writing the parent-format row into
/// `scratch.row`. Forgotten bag vertices must be "finished": `Image` vertices must
/// actually be mapped (their pattern vertex becomes `C`, with the same forget-safety
/// rule as the plain DP), and `Inside`/`Outside` vertices in `S` set the corresponding
/// flag. Returns `false` if the lift is illegal.
#[allow(clippy::too_many_arguments)]
fn lift_row(
    row: &[u32],
    child_bag: &[Vertex],
    parent_bag: &[Vertex],
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    use_aut: bool,
    base_arena: &mut StateArena,
    scratch: &mut Scratch,
    orbit_merges: &mut usize,
) -> bool {
    let mut flags = row[ROW_FLAGS];
    {
        let base = base_arena.get(StateId(row[ROW_BASE]));
        // Handle leaving bag vertices.
        for (pos, &v) in child_bag.iter().enumerate() {
            if parent_bag.binary_search(&v).is_ok() {
                continue;
            }
            match row[ROW_LABELS + pos] {
                LABEL_IMAGE => {
                    if !words_mapped_pairs(base).any(|(_, t)| t == v) {
                        return false; // promised to be used by the occurrence but never was
                    }
                }
                LABEL_INSIDE => {
                    if instance.in_s[v as usize] {
                        flags |= FLAG_IX;
                    }
                }
                LABEL_OUTSIDE => {
                    if instance.in_s[v as usize] {
                        flags |= FLAG_OX;
                    }
                }
                _ => return false,
            }
        }
        // Lift the base state with forget-safety.
        scratch.base.clear();
        for (i, &w) in base.iter().enumerate() {
            match w {
                ST_UNMATCHED | ST_IN_CHILD => scratch.base.push(w),
                t => {
                    if parent_bag.binary_search(&t).is_ok() {
                        scratch.base.push(t);
                    } else {
                        if pattern
                            .neighbors(i)
                            .iter()
                            .any(|&b| base[b as usize] == ST_UNMATCHED)
                        {
                            return false;
                        }
                        scratch.base.push(ST_IN_CHILD);
                    }
                }
            }
        }
    }
    if use_aut && pattern.canonicalize_words(&mut scratch.base) {
        // Forgetting can move a match-state off its orbit representative (the
        // automorphism action permutes pattern positions, and forget-safety is
        // equivariant under it); re-canonicalise before interning.
        *orbit_merges += 1;
    }
    let (bid, _) = base_arena.intern(&scratch.base);
    // Labels of the parent bag: keep labels of shared vertices, leave new vertices
    // undecided for the parent's extension step to fill in.
    scratch.row.clear();
    scratch.row.push(bid.0);
    scratch.row.push(flags);
    for &v in parent_bag {
        scratch.row.push(match child_bag.binary_search(&v) {
            Ok(pos) => row[ROW_LABELS + pos],
            Err(_) => LABEL_UNDECIDED,
        });
    }
    true
}

/// Joins two lifted rows at a common bag, writing the joined base words into
/// `joined_base` and the joined row (base id left unset) into `joined_row`. The left
/// base is passed explicitly because the join loop probes with translated/mirrored
/// variants of the stored row; the right base is read off the arena.
#[allow(clippy::too_many_arguments)]
fn join_rows(
    a_base: &[u32],
    a: &[u32],
    b: &[u32],
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    base_arena: &StateArena,
    joined_base: &mut Vec<u32>,
    joined_row: &mut [u32],
) -> bool {
    if !crate::dp::join_words(
        a_base,
        base_arena.get(StateId(b[ROW_BASE])),
        pattern,
        instance.graph,
        joined_base,
    ) {
        return false;
    }
    joined_row[ROW_FLAGS] = a[ROW_FLAGS] | b[ROW_FLAGS];
    for pos in ROW_LABELS..a.len() {
        let (la, lb) = (a[pos], b[pos]);
        let combined = match (la, lb) {
            (LABEL_UNDECIDED, l) | (l, LABEL_UNDECIDED) => l,
            (x, y) if x == y => x,
            _ => return false,
        };
        joined_row[pos] = combined;
    }
    true
}

/// Bag-local adjacency as bit masks: bit `j` of entry `i` is set iff the target graph
/// has the edge `{bag[i], bag[j]}`. Computed once per node, it turns every edge probe
/// of the `3^bag` label enumeration into one AND instead of a CSR binary search.
fn bag_adjacency(bag: &[Vertex], graph: &CsrGraph) -> Vec<u64> {
    assert!(
        bag.len() <= 64,
        "bags wider than 64 are far beyond the label enumeration's reach"
    );
    let mut adj = vec![0u64; bag.len()];
    for i in 0..bag.len() {
        for j in (i + 1)..bag.len() {
            if graph.has_edge(bag[i], bag[j]) {
                adj[i] |= 1 << j;
                adj[j] |= 1 << i;
            }
        }
    }
    adj
}

/// Completes a joined state: assigns labels to still-undecided bag vertices and newly
/// maps unmatched pattern vertices into `Image`-labelled, allowed, unused bag vertices,
/// enforcing the separation edge constraint and the pattern adjacency constraints.
/// Every completed row is emitted through `out` (borrowed — the caller interns).
///
/// The enumeration is factored to keep the `3^bag` label space cheap: the `Image`
/// subset is chosen first and the match-state extensions into it are computed and
/// interned **once**, then the `2^rest` Inside/Outside completions (maintained
/// incrementally as position bit masks against `bag_adj`, so the separation constraint
/// costs one AND per choice) each emit one row per precomputed extension id. The
/// emitted set is exactly the unfactored enumeration's.
#[allow(clippy::too_many_arguments)]
fn extend<F: FnMut(&[u32])>(
    joined_base: &[u32],
    joined_labels: &[u32],
    flags: u32,
    bag: &[Vertex],
    bag_adj: &[u64],
    instance: &SeparatingInstance<'_>,
    pattern: &Pattern,
    use_aut: bool,
    base_arena: &mut StateArena,
    scratch: &mut Scratch,
    orbit_merges: &mut usize,
    out: &mut F,
) {
    // Mapped targets force LABEL_IMAGE (every mapped target of a state is in the bag).
    scratch.labels.clear();
    scratch.labels.extend_from_slice(joined_labels);
    for (_, t) in words_mapped_pairs(joined_base) {
        if let Ok(pos) = bag.binary_search(&t) {
            if scratch.labels[pos] != LABEL_UNDECIDED && scratch.labels[pos] != LABEL_IMAGE {
                return;
            }
            scratch.labels[pos] = LABEL_IMAGE;
        }
    }
    // A decided Image label on a disallowed vertex can never be backed by a mapping.
    for (pos, &v) in bag.iter().enumerate() {
        if scratch.labels[pos] == LABEL_IMAGE && !instance.allowed[v as usize] {
            return;
        }
    }
    // Masks of the already-decided sides; labels fixed by the children were never
    // cross-checked at join time, so reject decided-decided violations here once.
    let mut inside_mask = 0u64;
    let mut outside_mask = 0u64;
    for (pos, &l) in scratch.labels.iter().enumerate() {
        match l {
            LABEL_INSIDE => inside_mask |= 1 << pos,
            LABEL_OUTSIDE => outside_mask |= 1 << pos,
            _ => {}
        }
    }
    let mut m = inside_mask;
    while m != 0 {
        let pos = m.trailing_zeros() as usize;
        if bag_adj[pos] & outside_mask != 0 {
            return;
        }
        m &= m - 1;
    }
    // Every Image label that is not already backed by a mapped pattern vertex is a
    // promise that one of the still-unmatched pattern vertices will map there, so the
    // number of such labels is bounded by the number of unmatched pattern vertices.
    let image_budget = words_num_unmatched(joined_base);
    scratch.undecided.clear();
    scratch
        .undecided
        .extend((0..bag.len()).filter(|&p| scratch.labels[p] == LABEL_UNDECIDED));
    let mut labels = std::mem::take(&mut scratch.labels);
    let mut row_buf = std::mem::take(&mut scratch.row);
    let mut allowed_targets = std::mem::take(&mut scratch.allowed_targets);
    let mut ext_ids = std::mem::take(&mut scratch.ext_ids);
    let mut canon = std::mem::take(&mut scratch.canon);
    let undecided = std::mem::take(&mut scratch.undecided);
    let mut cx = ExtendCx {
        joined_base,
        flags,
        bag,
        bag_adj,
        instance,
        pattern,
        use_aut,
        undecided: &undecided,
        labels: &mut labels,
        allowed_targets: &mut allowed_targets,
        ext_ids: &mut ext_ids,
        canon: &mut canon,
        orbit_merges,
        row_buf: &mut row_buf,
    };
    enum_image_subsets(
        &mut cx,
        0,
        image_budget,
        inside_mask,
        outside_mask,
        base_arena,
        out,
    );
    scratch.labels = labels;
    scratch.row = row_buf;
    scratch.allowed_targets = allowed_targets;
    scratch.ext_ids = ext_ids;
    scratch.canon = canon;
    scratch.undecided = undecided;
}

/// Shared context of the factored label/extension enumeration.
struct ExtendCx<'a> {
    joined_base: &'a [u32],
    flags: u32,
    bag: &'a [Vertex],
    bag_adj: &'a [u64],
    instance: &'a SeparatingInstance<'a>,
    pattern: &'a Pattern,
    use_aut: bool,
    /// Bag positions whose labels are still undecided (fixed for the whole call).
    undecided: &'a [usize],
    labels: &'a mut Vec<u32>,
    allowed_targets: &'a mut Vec<Vertex>,
    ext_ids: &'a mut Vec<u32>,
    canon: &'a mut Vec<u32>,
    orbit_merges: &'a mut usize,
    row_buf: &'a mut Vec<u32>,
}

/// Chooses which undecided positions become `Image` (bounded by `budget`), then hands
/// over to the per-subset extension computation + side enumeration.
fn enum_image_subsets<F: FnMut(&[u32])>(
    cx: &mut ExtendCx<'_>,
    idx: usize,
    budget: usize,
    inside_mask: u64,
    outside_mask: u64,
    base_arena: &mut StateArena,
    out: &mut F,
) {
    if idx == cx.undecided.len() {
        // The Image set is fixed: compute the match-state extensions into it once and
        // intern them, then enumerate the Inside/Outside completions of the rest.
        cx.allowed_targets.clear();
        for (pos, &v) in cx.bag.iter().enumerate() {
            if cx.labels[pos] == LABEL_IMAGE {
                cx.allowed_targets.push(v);
            }
        }
        cx.ext_ids.clear();
        {
            let (ext_ids, joined_base, allowed_targets, pattern, graph, use_aut, canon) = (
                &mut *cx.ext_ids,
                cx.joined_base,
                &*cx.allowed_targets,
                cx.pattern,
                cx.instance.graph,
                cx.use_aut,
                &mut *cx.canon,
            );
            let orbit_merges = &mut *cx.orbit_merges;
            crate::dp::extend_all_words(joined_base, allowed_targets, pattern, graph, &mut |w| {
                if use_aut {
                    canon.clear();
                    canon.extend_from_slice(w);
                    if pattern.canonicalize_words(canon) {
                        *orbit_merges += 1;
                    }
                    let id = base_arena.intern(canon).0 .0;
                    // Distinct extensions can share an orbit; dedup the representative
                    // ids so each emits one row per label completion.
                    if !ext_ids.contains(&id) {
                        ext_ids.push(id);
                    }
                } else {
                    ext_ids.push(base_arena.intern(w).0 .0);
                }
            });
        }
        enum_sides(cx, 0, inside_mask, outside_mask, out);
        return;
    }
    let pos = cx.undecided[idx];
    // Choice 1: not Image — the position stays open for the side enumeration.
    enum_image_subsets(
        cx,
        idx + 1,
        budget,
        inside_mask,
        outside_mask,
        base_arena,
        out,
    );
    // Choice 2: Image (only allowed vertices, within budget).
    if budget > 0 && cx.instance.allowed[cx.bag[pos] as usize] {
        cx.labels[pos] = LABEL_IMAGE;
        enum_image_subsets(
            cx,
            idx + 1,
            budget - 1,
            inside_mask,
            outside_mask,
            base_arena,
            out,
        );
        cx.labels[pos] = LABEL_UNDECIDED;
    }
}

/// Assigns Inside/Outside to the positions the Image subset left open; at every full
/// assignment one row per precomputed extension id is emitted.
fn enum_sides<F: FnMut(&[u32])>(
    cx: &mut ExtendCx<'_>,
    idx: usize,
    inside_mask: u64,
    outside_mask: u64,
    out: &mut F,
) {
    // Skip positions the image-subset recursion decided.
    let mut idx = idx;
    while idx < cx.undecided.len() && cx.labels[cx.undecided[idx]] != LABEL_UNDECIDED {
        idx += 1;
    }
    if idx == cx.undecided.len() {
        for &ext in cx.ext_ids.iter() {
            cx.row_buf.clear();
            cx.row_buf.push(ext);
            cx.row_buf.push(cx.flags);
            cx.row_buf.extend_from_slice(cx.labels);
            out(cx.row_buf);
        }
        return;
    }
    let pos = cx.undecided[idx];
    let bit = 1u64 << pos;
    // Incremental separation constraint: an Inside/Outside choice must not be adjacent
    // to any vertex already committed to the other side.
    if cx.bag_adj[pos] & outside_mask == 0 {
        cx.labels[pos] = LABEL_INSIDE;
        enum_sides(cx, idx + 1, inside_mask | bit, outside_mask, out);
        cx.labels[pos] = LABEL_UNDECIDED;
    }
    if cx.bag_adj[pos] & inside_mask == 0 {
        cx.labels[pos] = LABEL_OUTSIDE;
        enum_sides(cx, idx + 1, inside_mask, outside_mask | bit, out);
        cx.labels[pos] = LABEL_UNDECIDED;
    }
}

/// Checks that removing `occurrence` from the graph separates `S`: at least two
/// connected components of the remainder contain `S` vertices. Used to verify witnesses
/// and as a brute-force reference in tests.
pub fn is_separating(graph: &CsrGraph, in_s: &[bool], occurrence: &[Vertex]) -> bool {
    let removed: HashSet<Vertex> = occurrence.iter().copied().collect();
    let mask: Vec<bool> = (0..graph.num_vertices() as Vertex)
        .map(|v| !removed.contains(&v))
        .collect();
    let comps = psi_graph::connectivity::connected_components_masked(graph, Some(&mask));
    let mut with_s = HashSet::new();
    for v in 0..graph.num_vertices() {
        if mask[v] && in_s[v] && comps.label[v] != u32::MAX {
            with_s.insert(comps.label[v]);
        }
    }
    with_s.len() >= 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::verify_occurrence;
    use psi_graph::generators;

    fn all_true(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn separating_cycle_in_a_cycle_with_chord_free_graph() {
        // In C6 itself, removing any occurrence of C6 removes everything: not separating.
        let g = generators::cycle(6);
        let in_s = all_true(6);
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &all_true(6),
        };
        assert!(find_separating_occurrence(&inst, &Pattern::cycle(6)).is_none());
    }

    #[test]
    fn separating_square_in_grid() {
        // In a 4x4 grid, a unit square (C4) does not separate the grid, but the 8-cycle
        // around an interior vertex does (it isolates that vertex).
        let g = generators::grid(4, 4);
        let n = g.num_vertices();
        let in_s = all_true(n);
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &all_true(n),
        };
        // C4 (a unit square) never separates a 4x4 grid
        assert!(find_separating_occurrence(&inst, &Pattern::cycle(4)).is_none());
        // C8 around an interior vertex separates it from the boundary
        let occ =
            find_separating_occurrence(&inst, &Pattern::cycle(8)).expect("separating C8 exists");
        assert!(verify_occurrence(&Pattern::cycle(8), &g, &occ));
        assert!(is_separating(&g, &in_s, &occ));
    }

    #[test]
    fn separating_star_cut() {
        // A path 0-1-2-3-4: the single vertex 2 separates S = {0, 4}.
        let g = generators::path(5);
        let mut in_s = vec![false; 5];
        in_s[0] = true;
        in_s[4] = true;
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &all_true(5),
        };
        let occ = find_separating_occurrence(&inst, &Pattern::single_vertex()).expect("cut vertex");
        assert!(is_separating(&g, &in_s, &occ));
        assert_eq!(occ.len(), 1);
        assert!((1..=3).contains(&occ[0]));
    }

    #[test]
    fn allowed_set_is_respected() {
        let g = generators::path(5);
        let mut in_s = vec![false; 5];
        in_s[0] = true;
        in_s[4] = true;
        // only vertex 3 is allowed: a single allowed vertex that separates 0 from 4
        let mut allowed = vec![false; 5];
        allowed[3] = true;
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &allowed,
        };
        let occ = find_separating_occurrence(&inst, &Pattern::single_vertex()).unwrap();
        assert_eq!(occ, vec![3]);
        // forbidding every interior vertex makes separation impossible
        let allowed_none = vec![false; 5];
        let inst2 = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &allowed_none,
        };
        assert!(find_separating_occurrence(&inst2, &Pattern::single_vertex()).is_none());
    }

    #[test]
    fn separating_edge_pattern() {
        // Two triangles sharing an edge (a "bowtie" without the shared vertex): removing
        // the shared edge's endpoints separates the two apexes.
        let mut b = psi_graph::GraphBuilder::new(4);
        for &(u, v) in &[(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)] {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut in_s = vec![false; 4];
        in_s[0] = true;
        in_s[3] = true;
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &all_true(4),
        };
        let occ =
            find_separating_occurrence(&inst, &Pattern::path(2)).expect("edge {1,2} separates");
        let mut set = occ.clone();
        set.sort_unstable();
        assert_eq!(set, vec![1, 2]);
        assert!(is_separating(&g, &in_s, &occ));
    }

    #[test]
    fn non_separating_when_s_is_on_one_side() {
        let g = generators::grid(4, 4);
        let n = g.num_vertices();
        // S = two adjacent corner vertices: no occurrence can ever split S (an edge
        // between the remaining S vertices survives any removal)
        let mut in_s = vec![false; n];
        in_s[0] = true;
        in_s[1] = true;
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &all_true(n),
        };
        assert!(find_separating_occurrence(&inst, &Pattern::cycle(8)).is_none());
    }

    #[test]
    fn stats_reflect_interning() {
        let g = generators::grid(4, 4);
        let n = g.num_vertices();
        let in_s = all_true(n);
        let inst = SeparatingInstance {
            graph: &g,
            in_s: &in_s,
            allowed: &all_true(n),
        };
        let (occ, stats) = find_separating_occurrence_with_stats(&inst, &Pattern::cycle(4));
        assert!(occ.is_none());
        assert!(stats.sep_states > 0);
        assert!(stats.base_states > 0);
        // Base states are shared across nodes: strictly fewer distinct match-states
        // than separating states (each sep state references one base).
        assert!(stats.base_states < stats.sep_states);
        assert!(stats.peak_node_states <= stats.sep_states);
        assert!(stats.arena.hits > 0, "no interning hits — dedup is broken");
        assert!(stats.arena.bytes > 0);
    }
}
