//! Soundness of the stored rounds' one-sided error (Theorem 2.4, Observation 1).
//!
//! One stored cover round keeps any given occurrence of a connected pattern
//! with probability at least 1/2, so over independent seeds a single-round
//! index misses a planted occurrence at most half the time. The input is a
//! 30×30 plain grid plus the one cell diagonal (14,14)–(15,15): the diamond
//! (K4 minus an edge) occurs exactly once, the triangle twice, and the paw a
//! few times, all around that cell. For 256 fixed seeds a `rounds = 1` index is
//! built and served frozen; every witness `find_one` returns must verify, and
//! the number of seeds whose index misses a pattern must stay below the 10⁻⁹
//! upper tail of Binomial(256, 1/2), computed from exact binomial coefficients.
//! A coverage bug that stays deterministic — one no other suite would notice,
//! since the front ends only agree with each other — misses on every seed.

use planar_subiso::{verify_occurrence, IndexParams, Pattern, PsiIndex, PsiSnapshot};
use psi_graph::{generators as gg, GraphBuilder, Vertex};
use psi_planar::planar_embedding;

const SEEDS: u64 = 256;
const SIDE: usize = 30;

/// A 320-bit unsigned integer, least significant limb first: room for
/// `10⁹ · 2^256`.
type Wide = [u64; 5];

fn add(a: Wide, b: Wide) -> Wide {
    let mut out = [0; 5];
    let mut carry = 0u128;
    for i in 0..5 {
        let sum = a[i] as u128 + b[i] as u128 + carry;
        out[i] = sum as u64;
        carry = sum >> 64;
    }
    assert_eq!(carry, 0, "320-bit overflow");
    out
}

fn times(a: Wide, m: u64) -> Wide {
    let mut out = [0; 5];
    let mut carry = 0u128;
    for i in 0..5 {
        let product = a[i] as u128 * m as u128 + carry;
        out[i] = product as u64;
        carry = product >> 64;
    }
    assert_eq!(carry, 0, "320-bit overflow");
    out
}

/// The least `t` with `P[Binomial(n, 1/2) ≥ t] ≤ 10⁻⁹`, that is
/// `10⁹ · Σ_{k ≥ t} C(n, k) ≤ 2^n`, in exact integer arithmetic (Pascal's
/// triangle).
fn upper_tail_threshold(n: usize) -> usize {
    assert!(n < 5 * 64);
    let mut row: Vec<Wide> = vec![[0; 5]; n + 1];
    row[0][0] = 1;
    for i in 1..=n {
        for k in (1..=i).rev() {
            row[k] = add(row[k], row[k - 1]);
        }
    }
    let mut two_to_n: Wide = [0; 5];
    two_to_n[n / 64] = 1 << (n % 64);
    let mut tail: Wide = [0; 5];
    for t in (0..=n).rev() {
        let wider = add(tail, row[t]);
        if times(wider, 1_000_000_000)
            .iter()
            .rev()
            .gt(two_to_n.iter().rev())
        {
            return t + 1;
        }
        tail = wider;
    }
    0
}

#[test]
fn binomial_tail_threshold_is_exact() {
    // 2^4 = 16 outcomes: P[X ≥ 4] = 1/16, P[X ≥ 3] = 5/16; no count reaches
    // 10⁻⁹ below n = 30 (2^-30 ≈ 9.3·10⁻¹⁰ is the first).
    assert_eq!(upper_tail_threshold(4), 5);
    assert_eq!(upper_tail_threshold(29), 30);
    assert_eq!(upper_tail_threshold(30), 30);
    // P[X ≥ 176] ≈ 9.43·10⁻¹⁰ and P[X ≥ 175] ≈ 2.1·10⁻⁹ for n = 256.
    assert_eq!(upper_tail_threshold(SEEDS as usize), 176);
}

#[test]
fn single_rounds_miss_planted_occurrences_at_most_half_the_time() {
    let at = |row: usize, col: usize| (row * SIDE + col) as Vertex;
    let grid = gg::grid(SIDE, SIDE);
    let mut b = GraphBuilder::new(grid.num_vertices());
    b.extend_edges(grid.edges());
    b.add_edge(at(14, 14), at(15, 15));
    let target = b.build();
    let embedding = planar_embedding(&target).expect("a grid plus a cell diagonal is planar");
    let patterns = [
        (
            "diamond",
            Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ),
        ("triangle", Pattern::triangle()),
        (
            "paw",
            Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]),
        ),
    ];
    let mut misses = [0u64; 3];
    for seed in 0..SEEDS {
        let params = IndexParams {
            rounds: 1,
            seed,
            ..IndexParams::default()
        };
        let frozen = PsiSnapshot::from(PsiIndex::build(&embedding, params));
        for (i, (name, pattern)) in patterns.iter().enumerate() {
            match frozen
                .find_one(pattern)
                .expect("the index serves the pattern")
            {
                Some(witness) => assert!(
                    verify_occurrence(pattern, &target, &witness),
                    "seed {seed}: {name} witness {witness:?} does not verify"
                ),
                None => misses[i] += 1,
            }
        }
    }
    let threshold = upper_tail_threshold(SEEDS as usize) as u64;
    for ((name, _), missed) in patterns.iter().zip(misses) {
        assert!(
            missed < threshold,
            "{name}: missed on {missed} of {SEEDS} seeds, past the 10⁻⁹ tail ({threshold}) of \
             a per-round miss rate of 1/2"
        );
    }
}
