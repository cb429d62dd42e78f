//! Decomposing a rooted tree into paths grouped into `O(log n)` layers (Lemma 3.2).
//!
//! The layer number of a node is computed by the recursive function `L` of Appendix A:
//! a leaf has layer 0, and an interior node takes the maximum layer of its children,
//! plus one if that maximum is attained by two or more children. Nodes of equal layer
//! connected by tree edges form vertex-disjoint paths, and nodes of layer `i` have no
//! children of layer `> i`; because a layer increase requires two children of equal
//! maximal layer, there are at most `⌊log2 n⌋ + 1` layers.
//!
//! The module also implements the unary-function family `{f≠_i, g=_i}` of Appendix A and
//! verifies (in tests) that it is closed under composition and under projection of `L`,
//! which is the precondition for evaluating the layer numbers with parallel tree
//! contraction in `O(n)` work and `O(log n)` depth. The parallel evaluation provided
//! here ([`layer_numbers_parallel`]) processes the tree level-synchronously by node
//! height with rayon, which matches the sequential result exactly.

use rayon::prelude::*;

/// A rooted tree given by its children lists (any arity).
#[derive(Clone, Debug)]
pub struct RootedTree {
    /// `children[v]` lists the children of node `v`.
    pub children: Vec<Vec<usize>>,
    /// Parent of each node (`usize::MAX` for the root).
    pub parent: Vec<usize>,
    /// Root node index.
    pub root: usize,
}

impl RootedTree {
    /// Builds a rooted tree from a parent array (`usize::MAX` marks the root).
    pub fn from_parents(parent: Vec<usize>) -> Self {
        let n = parent.len();
        let mut children = vec![Vec::new(); n];
        let mut root = usize::MAX;
        for (v, &p) in parent.iter().enumerate() {
            if p == usize::MAX {
                assert_eq!(root, usize::MAX, "multiple roots");
                root = v;
            } else {
                children[p].push(v);
            }
        }
        assert_ne!(root, usize::MAX, "no root found");
        RootedTree {
            children,
            parent,
            root,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Nodes in post-order (children before parents).
    pub fn postorder(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.len());
        let mut stack = vec![(self.root, false)];
        while let Some((node, expanded)) = stack.pop() {
            if expanded {
                order.push(node);
            } else {
                stack.push((node, true));
                for &c in &self.children[node] {
                    stack.push((c, false));
                }
            }
        }
        order
    }
}

/// The layer-number combination function `L` of Appendix A.
pub fn combine_layers(child_layers: &[u32]) -> u32 {
    match child_layers.iter().copied().max() {
        None => 0,
        Some(max) => {
            let count = child_layers.iter().filter(|&&l| l == max).count();
            if count == 1 {
                max
            } else {
                max + 1
            }
        }
    }
}

/// Sequential layer numbers via a post-order traversal.
pub fn layer_numbers(tree: &RootedTree) -> Vec<u32> {
    let mut layer = vec![0u32; tree.len()];
    for v in tree.postorder() {
        let child_layers: Vec<u32> = tree.children[v].iter().map(|&c| layer[c]).collect();
        layer[v] = combine_layers(&child_layers);
    }
    layer
}

/// Parallel layer numbers: nodes are grouped by height and each height class is
/// evaluated with a parallel sweep. Produces exactly the same numbers as
/// [`layer_numbers`].
pub fn layer_numbers_parallel(tree: &RootedTree) -> Vec<u32> {
    let n = tree.len();
    // compute heights bottom-up (height = longest distance to a descendant leaf)
    let mut height = vec![0u32; n];
    for v in tree.postorder() {
        height[v] = tree.children[v]
            .iter()
            .map(|&c| height[c] + 1)
            .max()
            .unwrap_or(0);
    }
    let max_h = height.iter().copied().max().unwrap_or(0);
    let mut by_height: Vec<Vec<usize>> = vec![Vec::new(); max_h as usize + 1];
    for v in 0..n {
        by_height[height[v] as usize].push(v);
    }
    let mut layer = vec![0u32; n];
    for bucket in &by_height {
        let computed: Vec<(usize, u32)> = bucket
            .par_iter()
            .map(|&v| {
                let child_layers: Vec<u32> = tree.children[v].iter().map(|&c| layer[c]).collect();
                (v, combine_layers(&child_layers))
            })
            .collect();
        for (v, l) in computed {
            layer[v] = l;
        }
    }
    layer
}

/// The decomposition of a rooted tree into layered paths.
#[derive(Clone, Debug)]
pub struct PathDecomposition {
    /// Layer number of every node.
    pub layer: Vec<u32>,
    /// The paths; each path lists its nodes bottom-up (deepest node first, the node
    /// closest to the root last). Every tree node appears in exactly one path.
    pub paths: Vec<Vec<usize>>,
    /// For every node, the index of its path in `paths`.
    pub path_of: Vec<usize>,
    /// Paths grouped by layer: `layers[i]` lists the indices of the paths whose nodes
    /// have layer number `i`.
    pub layers: Vec<Vec<usize>>,
}

impl PathDecomposition {
    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }
}

/// Decomposes a rooted tree into paths grouped into `O(log n)` layers (Lemma 3.2).
pub fn tree_into_paths(tree: &RootedTree) -> PathDecomposition {
    let n = tree.len();
    let layer = layer_numbers(tree);
    // Within a layer, each node has at most one child of the same layer. Walk from the
    // bottom of every same-layer chain upwards.
    // A node is the *bottom* of its path if none of its children share its layer.
    let mut path_of = vec![usize::MAX; n];
    let mut paths: Vec<Vec<usize>> = Vec::new();
    for v in 0..n {
        let is_bottom = !tree.children[v].iter().any(|&c| layer[c] == layer[v]);
        if !is_bottom {
            continue;
        }
        let mut path = vec![v];
        let mut cur = v;
        loop {
            let p = tree.parent[cur];
            if p == usize::MAX || layer[p] != layer[cur] {
                break;
            }
            path.push(p);
            cur = p;
        }
        let idx = paths.len();
        for &node in &path {
            path_of[node] = idx;
        }
        paths.push(path);
    }
    debug_assert!(path_of.iter().all(|&p| p != usize::MAX));
    let max_layer = layer.iter().copied().max().unwrap_or(0) as usize;
    let mut layers: Vec<Vec<usize>> = vec![Vec::new(); max_layer + 1];
    for (idx, path) in paths.iter().enumerate() {
        layers[layer[path[0]] as usize].push(idx);
    }
    PathDecomposition {
        layer,
        paths,
        path_of,
        layers,
    }
}

/// The unary function family of Appendix A over layer numbers.
///
/// `FNeq(i)` ("f≠_i") records a state where the running maximum is `i` and unique;
/// `GEq(i)` ("g=_i") records a state where the running maximum is `i` and attained at
/// least twice. The family is closed under composition and under projection of the
/// layer-combination function `L`, which is what parallel expression-tree evaluation
/// (tree contraction) requires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerFn {
    /// Maximum so far is `i` and unique.
    FNeq(u32),
    /// Maximum so far is `i` and not unique.
    GEq(u32),
}

impl LayerFn {
    /// Applies the function to the layer number `x` of the remaining child.
    pub fn apply(self, x: u32) -> u32 {
        match self {
            LayerFn::FNeq(i) => {
                if i == x {
                    i + 1
                } else {
                    i.max(x)
                }
            }
            LayerFn::GEq(i) => {
                if i >= x {
                    i + 1
                } else {
                    x
                }
            }
        }
    }

    /// Composition `self ∘ other` (first apply `other`, then `self`) **as stated in
    /// Appendix A of the paper**.
    ///
    /// Reproduction note: the paper's composition table is not correct for the
    /// boundary case where the outer index exceeds the inner index by exactly one —
    /// e.g. `f≠1 ∘ f≠0` evaluated at `x = 0` is `2`, but the table claims the
    /// composition equals `f≠max(1,0) = f≠1`, which gives `1`. The family
    /// `{f≠_i, g=_i}` is therefore *not* closed under composition. The test
    /// `paper_composition_table_counterexample` pins this down, and [`ChainFn`] provides
    /// a corrected (and genuinely closed) family that the tree-contraction argument can
    /// use instead.
    pub fn compose_paper(self, other: LayerFn) -> LayerFn {
        use LayerFn::*;
        match (self, other) {
            (GEq(j), FNeq(i)) | (FNeq(i), GEq(j)) => {
                if i == j {
                    GEq(i)
                } else if i > j {
                    FNeq(i)
                } else {
                    GEq(j)
                }
            }
            (FNeq(i), FNeq(j)) => {
                if i == j {
                    GEq(i)
                } else {
                    FNeq(i.max(j))
                }
            }
            (GEq(i), GEq(j)) => GEq(i.max(j)),
        }
    }

    /// Converts to the corrected closed representation.
    pub fn to_chain_fn(self, domain_bound: u32) -> ChainFn {
        ChainFn::from_fn(domain_bound, |x| self.apply(x))
    }

    /// The projection of `L` onto one argument given the other children's layers
    /// (Appendix A): `L(l_1, …, x, …, l_{k−1})` as a unary function of `x`.
    pub fn project(other_children: &[u32]) -> LayerFn {
        match other_children.iter().copied().max() {
            None => panic!("projection requires at least one fixed child layer"),
            Some(max) => {
                let unique = other_children.iter().filter(|&&l| l == max).count() == 1;
                if unique {
                    LayerFn::FNeq(max)
                } else {
                    LayerFn::GEq(max)
                }
            }
        }
    }
}

/// A corrected, genuinely composition-closed family of unary functions over layer
/// numbers, used as the state of partially contracted subtrees.
///
/// Every projection of the layer-combination function `L` is non-decreasing, increases
/// by at most one per unit of its argument, and equals the identity for all arguments
/// above a small threshold (at most the current layer maximum plus one). Such functions
/// are represented exactly by their values below the threshold; composition is ordinary
/// function composition and keeps the threshold bounded by the larger of the two, so the
/// representation stays `O(log n)` words — exactly what the expression-tree-evaluation
/// (tree contraction) argument of Appendix A needs. This replaces the paper's
/// `{f≠, g=}` family, which is not closed under composition (see
/// [`LayerFn::compose_paper`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainFn {
    /// `h(x) = values[x]` for `x < values.len()`, and `h(x) = x` otherwise.
    values: Vec<u32>,
}

impl ChainFn {
    /// The identity function.
    pub fn identity() -> Self {
        ChainFn { values: Vec::new() }
    }

    /// Captures an arbitrary function that is the identity above `domain_bound`.
    pub fn from_fn<F: Fn(u32) -> u32>(domain_bound: u32, f: F) -> Self {
        let mut values: Vec<u32> = (0..=domain_bound).map(&f).collect();
        while values.last().copied() == Some(values.len() as u32 - 1) {
            values.pop();
        }
        ChainFn { values }
    }

    /// The projection of `L` for fixed sibling layers (replacement for [`LayerFn::project`]).
    pub fn project(other_children: &[u32]) -> Self {
        let max = other_children
            .iter()
            .copied()
            .max()
            .expect("at least one sibling");
        ChainFn::from_fn(max + 1, |x| {
            let mut all: Vec<u32> = other_children.to_vec();
            all.push(x);
            combine_layers(&all)
        })
    }

    /// Applies the function.
    pub fn apply(&self, x: u32) -> u32 {
        self.values.get(x as usize).copied().unwrap_or(x)
    }

    /// Composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &ChainFn) -> ChainFn {
        let bound = (other.values.len().max(self.values.len())) as u32;
        ChainFn::from_fn(bound, |x| self.apply(other.apply(x)))
    }

    /// Size of the stored table (for the `O(log n)` representation-size argument).
    pub fn table_len(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_tree(n: usize, seed: u64) -> RootedTree {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut parent = vec![usize::MAX; n];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = rng.gen_range(0..v);
        }
        RootedTree::from_parents(parent)
    }

    fn path_tree(n: usize) -> RootedTree {
        let mut parent = vec![usize::MAX; n];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = v - 1;
        }
        RootedTree::from_parents(parent)
    }

    fn balanced_tree(levels: u32) -> RootedTree {
        let n = (1usize << levels) - 1;
        let mut parent = vec![usize::MAX; n];
        for (v, p) in parent.iter_mut().enumerate().skip(1) {
            *p = (v - 1) / 2;
        }
        RootedTree::from_parents(parent)
    }

    fn check_lemma_3_2(tree: &RootedTree, pd: &PathDecomposition) {
        let n = tree.len();
        // every node in exactly one path
        let mut count = vec![0usize; n];
        for path in &pd.paths {
            for &v in path {
                count[v] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
        // each path is a chain: consecutive entries are (child, parent) pairs of equal layer
        for path in &pd.paths {
            for w in path.windows(2) {
                assert_eq!(tree.parent[w[0]], w[1]);
                assert_eq!(pd.layer[w[0]], pd.layer[w[1]]);
            }
        }
        // layer property: children never have a larger layer than their parent
        for v in 0..n {
            for &c in &tree.children[v] {
                assert!(pd.layer[c] <= pd.layer[v]);
            }
        }
        // number of layers is O(log n)
        let max_layers = (n as f64).log2().floor() as usize + 1;
        assert!(
            pd.num_layers() <= max_layers,
            "{} layers for n={}",
            pd.num_layers(),
            n
        );
    }

    #[test]
    fn path_tree_is_one_path() {
        let t = path_tree(20);
        let pd = tree_into_paths(&t);
        check_lemma_3_2(&t, &pd);
        assert_eq!(pd.paths.len(), 1);
        assert_eq!(pd.num_layers(), 1);
        assert_eq!(pd.paths[0].len(), 20);
        // ordered bottom-up: deepest node (19) first, root (0) last
        assert_eq!(pd.paths[0][0], 19);
        assert_eq!(*pd.paths[0].last().unwrap(), 0);
    }

    #[test]
    fn balanced_tree_has_log_layers() {
        let t = balanced_tree(6); // 63 nodes
        let pd = tree_into_paths(&t);
        check_lemma_3_2(&t, &pd);
        assert_eq!(pd.num_layers(), 6);
        // the root of a perfectly balanced binary tree is alone in the top layer path
        let root_path = &pd.paths[pd.path_of[t.root]];
        assert_eq!(root_path.len(), 1);
    }

    #[test]
    fn random_trees_satisfy_lemma() {
        for seed in 0..10u64 {
            let t = random_tree(200, seed);
            let pd = tree_into_paths(&t);
            check_lemma_3_2(&t, &pd);
        }
    }

    #[test]
    fn parallel_layers_match_sequential() {
        for seed in 0..5u64 {
            let t = random_tree(500, seed);
            assert_eq!(layer_numbers(&t), layer_numbers_parallel(&t));
        }
        let t = balanced_tree(8);
        assert_eq!(layer_numbers(&t), layer_numbers_parallel(&t));
    }

    #[test]
    fn single_node_tree() {
        let t = RootedTree::from_parents(vec![usize::MAX]);
        let pd = tree_into_paths(&t);
        assert_eq!(pd.paths.len(), 1);
        assert_eq!(pd.layer, vec![0]);
    }

    #[test]
    fn layer_fn_matches_direct_combination() {
        // L(l1.., x) computed through the projection function equals combine_layers.
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..200 {
            let others: Vec<u32> = (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let x: u32 = rng.gen_range(0..6);
            let f = LayerFn::project(&others);
            let mut all = others.clone();
            all.push(x);
            assert_eq!(f.apply(x), combine_layers(&all), "others={others:?} x={x}");
        }
    }

    #[test]
    fn paper_composition_table_counterexample() {
        // Reproduction erratum: Appendix A claims f≠i(f≠j(x)) = f≠max(i,j)(x) for i ≠ j,
        // but for i = 1, j = 0, x = 0 the true composition gives 2 while the table gives 1.
        let outer = LayerFn::FNeq(1);
        let inner = LayerFn::FNeq(0);
        let true_value = outer.apply(inner.apply(0));
        let table_value = outer.compose_paper(inner).apply(0);
        assert_eq!(true_value, 2);
        assert_eq!(table_value, 1);
        assert_ne!(true_value, table_value);
    }

    #[test]
    fn paper_composition_table_holds_when_indices_are_far_apart() {
        // The table *is* correct whenever the indices are equal or differ by at least 2.
        for i in 0..6u32 {
            for j in 0..6u32 {
                if i.abs_diff(j) == 1 {
                    continue;
                }
                for (f, g) in [
                    (LayerFn::FNeq(i), LayerFn::FNeq(j)),
                    (LayerFn::GEq(i), LayerFn::GEq(j)),
                    (LayerFn::FNeq(i), LayerFn::GEq(j)),
                    (LayerFn::GEq(i), LayerFn::FNeq(j)),
                ] {
                    let comp = f.compose_paper(g);
                    for x in 0..10u32 {
                        assert_eq!(comp.apply(x), f.apply(g.apply(x)), "f={f:?} g={g:?} x={x}");
                    }
                }
            }
        }
    }

    #[test]
    fn chain_fn_family_is_closed_under_composition() {
        // The corrected family: compositions of arbitrary projections of L, evaluated
        // both directly and through ChainFn::compose, always agree.
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..300 {
            let sib1: Vec<u32> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..5))
                .collect();
            let sib2: Vec<u32> = (0..rng.gen_range(1..4))
                .map(|_| rng.gen_range(0..5))
                .collect();
            let f = ChainFn::project(&sib1);
            let g = ChainFn::project(&sib2);
            let comp = f.compose(&g);
            for x in 0..12u32 {
                assert_eq!(
                    comp.apply(x),
                    f.apply(g.apply(x)),
                    "sib1={sib1:?} sib2={sib2:?} x={x}"
                );
            }
            // representation stays small (identity above max sibling layer + 1)
            assert!(comp.table_len() <= 8);
        }
    }

    #[test]
    fn chain_fn_projection_matches_direct_combination() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..200 {
            let others: Vec<u32> = (0..rng.gen_range(1..5))
                .map(|_| rng.gen_range(0..6))
                .collect();
            let x: u32 = rng.gen_range(0..8);
            let f = ChainFn::project(&others);
            let mut all = others.clone();
            all.push(x);
            assert_eq!(f.apply(x), combine_layers(&all));
        }
    }

    #[test]
    fn chain_fn_identity_and_long_chain_evaluation() {
        // Evaluate a long path of unary projections by composing ChainFns in a balanced
        // (associative) order — the essence of the contraction-based evaluation.
        let mut rng = SmallRng::seed_from_u64(21);
        let sibs: Vec<Vec<u32>> = (0..64)
            .map(|_| {
                (0..rng.gen_range(1..3))
                    .map(|_| rng.gen_range(0..4))
                    .collect()
            })
            .collect();
        let fns: Vec<ChainFn> = sibs.iter().map(|s| ChainFn::project(s)).collect();
        // direct sequential evaluation starting from x = 0
        let mut direct = 0u32;
        for f in &fns {
            direct = f.apply(direct);
        }
        // balanced composition
        fn reduce(fns: &[ChainFn]) -> ChainFn {
            match fns.len() {
                0 => ChainFn::identity(),
                1 => fns[0].clone(),
                _ => {
                    let mid = fns.len() / 2;
                    // later functions are applied after earlier ones: compose(right, left)
                    reduce(&fns[mid..]).compose(&reduce(&fns[..mid]))
                }
            }
        }
        let composed = reduce(&fns);
        assert_eq!(composed.apply(0), direct);
    }

    #[test]
    fn caterpillar_tree_layers() {
        // spine of 10 nodes, each spine node with 2 extra leaf children
        let mut parent = vec![usize::MAX];
        for i in 1..10 {
            parent.push(i - 1); // spine
        }
        for s in 0..10usize {
            parent.push(s);
            parent.push(s);
        }
        let t = RootedTree::from_parents(parent);
        let pd = tree_into_paths(&t);
        check_lemma_3_2(&t, &pd);
        // leaves are layer 0, spine nodes are layer 1 (two layer-0 children each)
        assert_eq!(pd.num_layers(), 2);
    }
}
