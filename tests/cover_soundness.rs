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
//!
//! The same input also pins what a query answers: the index scans the target
//! from every root and accepts an occurrence only when the rounds' window
//! labels put it inside one window, so for 64 seeds of a `rounds = 3` index
//! the frozen, live and pinned `decide` must say yes exactly when Ullmann's
//! exact search finds the pattern in some batch of the rounds (emitted from
//! their labels by `PsiIndex::rounds`), before and after a few inserts and
//! deletes, and every witness must verify and lie inside one window.

use planar_subiso::{verify_occurrence, IndexParams, Pattern, Psi, PsiIndex, PsiSnapshot};
use psi_baselines::ullmann_decide;
use psi_graph::{generators as gg, CsrGraph, GraphBuilder, Vertex};
use psi_planar::{planar_embedding, Embedding};

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

/// Vertex `(row, col)` of the `SIDE × SIDE` grid.
fn at(row: usize, col: usize) -> Vertex {
    (row * SIDE + col) as Vertex
}

/// The grid plus the cell diagonal (14,14)–(15,15), with its embedding.
fn planted_grid() -> (CsrGraph, Embedding) {
    let grid = gg::grid(SIDE, SIDE);
    let mut b = GraphBuilder::new(grid.num_vertices());
    b.extend_edges(grid.edges());
    b.add_edge(at(14, 14), at(15, 15));
    let target = b.build();
    let embedding = planar_embedding(&target).expect("a grid plus a cell diagonal is planar");
    (target, embedding)
}

fn diamond() -> Pattern {
    Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
}

fn paw() -> Pattern {
    Pattern::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
}

#[test]
fn single_rounds_miss_planted_occurrences_at_most_half_the_time() {
    let (target, embedding) = planted_grid();
    let patterns = [
        ("diamond", diamond()),
        ("triangle", Pattern::triangle()),
        ("paw", paw()),
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

/// Whether some batch of `index`'s rounds holds an occurrence of `p`, by
/// Ullmann's exact search on the batch graph.
fn stored_batches_hold(index: &PsiIndex, p: &Pattern) -> bool {
    let rounds = index.rounds();
    let mut batches = rounds.iter().flat_map(|round| round.batches());
    batches.any(|batch| ullmann_decide(p, &batch.graph))
}

/// Whether one window of `index`'s rounds holds every vertex of `occ`.
fn in_one_stored_window(index: &PsiIndex, occ: &[Vertex]) -> bool {
    let rounds = index.rounds();
    let mut batches = rounds.iter().flat_map(|round| round.batches());
    batches.any(|batch| {
        batch.segment_ranges().any(|(start, end)| {
            let window = &batch.local_to_global[start..end];
            occ.iter().all(|v| window.contains(v))
        })
    })
}

/// Checks one front end's answers on `index`'s stored rounds: `decide` says
/// yes exactly when a batch of the rounds holds the pattern (`held`), and so
/// does `find_one`, whose witness verifies against `target` and lies inside
/// one window.
fn assert_front_end(
    front_end: &str,
    (index, target): (&PsiIndex, &CsrGraph),
    (name, p): &(&str, Pattern),
    held: bool,
    (decide, witness): (bool, Option<Vec<Vertex>>),
) {
    assert_eq!(decide, held, "{front_end} decide({name})");
    assert_eq!(witness.is_some(), held, "{front_end} find_one({name})");
    if let Some(w) = witness {
        assert!(
            verify_occurrence(p, target, &w),
            "{front_end} {name}: {w:?}"
        );
        assert!(
            in_one_stored_window(index, &w),
            "{front_end} {name}: {w:?} lies in no stored window"
        );
    }
}

#[test]
fn frozen_live_and_pinned_answers_equal_the_stored_window_predicate() {
    let (target, embedding) = planted_grid();
    let patterns = [
        ("diamond", diamond()),
        ("triangle", Pattern::triangle()),
        ("paw", paw()),
        ("C4", Pattern::cycle(4)),
        ("P3", Pattern::path(3)),
        ("K4", Pattern::clique(4)),
        ("star(3)", Pattern::star(3)),
    ];
    // Two more cell diagonals, and deletes of the planted cell's top side and
    // a corner edge.
    let inserts = [(at(3, 3), at(4, 4)), (at(20, 7), at(21, 8))];
    let deletes = [(at(14, 14), at(14, 15)), (at(0, 0), at(0, 1))];
    let mut misses = [0u64; 3];
    for seed in 0..64 {
        let params = IndexParams {
            rounds: 3,
            seed,
            ..IndexParams::default()
        };
        let index = PsiIndex::build(&embedding, params);
        let frozen = PsiSnapshot::from(index.clone());
        let mut live = Psi::builder()
            .rounds(3)
            .seed(seed)
            .thaw(index.clone())
            .unwrap();
        let pinned = live.snapshot();
        for (i, pattern) in patterns.iter().enumerate() {
            let p = &pattern.1;
            let held = stored_batches_hold(&index, p);
            let stored = (&index, &target);
            let answers = (frozen.decide(p).unwrap(), frozen.find_one(p).unwrap());
            assert_front_end("frozen", stored, pattern, held, answers);
            let answers = (live.decide(p).unwrap(), live.find_one(p).unwrap());
            assert_front_end("live", stored, pattern, held, answers);
            let answers = (pinned.decide(p).unwrap(), pinned.find_one(p).unwrap());
            assert_front_end("pinned", stored, pattern, held, answers);
            if i < misses.len() && !held {
                misses[i] += 1;
            }
        }

        for (u, v) in inserts {
            live.insert_edge(u, v).unwrap();
        }
        for (u, v) in deletes {
            live.delete_edge(u, v).unwrap();
        }
        let pinned = live.snapshot();
        let mutated = live.freeze();
        let target = mutated.target().clone();
        for pattern in &patterns {
            let p = &pattern.1;
            let held = stored_batches_hold(&mutated, p);
            let stored = (&mutated, &target);
            let answers = (live.decide(p).unwrap(), live.find_one(p).unwrap());
            assert_front_end("mutated live", stored, pattern, held, answers);
            let answers = (pinned.decide(p).unwrap(), pinned.find_one(p).unwrap());
            assert_front_end("mutated pinned", stored, pattern, held, answers);
        }
    }
    // The planted patterns occur only around one cell, so some seeds' rounds
    // all miss them: the comparison covers "no" answers of the index on
    // patterns that occur, not only on absent ones.
    assert!(
        misses.iter().sum::<u64>() > 0,
        "no seed missed a planted pattern"
    );
}
