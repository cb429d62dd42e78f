//! Epoch-snapshot serving suite: readers pinned to a snapshot must see the
//! engine exactly as of that epoch — bit-identical to a from-scratch frozen
//! index of the snapshot-time graph — no matter how hard a writer churns,
//! flushes, and republishes concurrently. CI runs this file under the
//! `PSI_THREADS = {1, 4}` matrix (and the nightly stress job repeats it).
//!
//! Shapes covered:
//!
//! * threaded stress — reader threads loop `decide_batch` / `connectivity_batch`
//!   against a pinned snapshot while the writer runs scripted churn with
//!   interleaved flushes; every answer must equal the frozen pre-epoch index's;
//! * reads racing one real flush — the acceptance shape: pin a snapshot, queue
//!   a batch of inserts, then serve from the snapshot *while* `flush()` runs;
//! * epoch bookkeeping — accepted mutations advance the epoch, rejected ones
//!   and repeated snapshots do not;
//! * a proptest that no snapshot ever observes a partially published round set:
//!   after arbitrary further churn, every retained snapshot still freezes to
//!   the exact bytes of a scratch build of its epoch's graph.

use planar_subiso::{DynamicPsiIndex, IndexParams, Pattern, Psi, PsiIndex, PsiSnapshot};
use proptest::prelude::*;
use psi_graph::{CsrGraph, Vertex};
use psi_planar::planar_embedding;
use std::sync::atomic::{AtomicBool, Ordering};

fn params() -> IndexParams {
    IndexParams::default()
}

fn scratch_of(target: &CsrGraph) -> PsiIndex {
    let embedding = planar_embedding(target).expect("live target must stay planar");
    PsiIndex::build(&embedding, params())
}

/// Cell diagonals of a `w × w` grid, spread over distinct cells — each is a
/// chord of its cell face, so every insert is accepted without a re-embed.
fn diagonals(w: usize) -> Vec<(Vertex, Vertex)> {
    let mut out = Vec::new();
    for r in (0..w - 1).step_by(2) {
        for c in (0..w - 1).step_by(3) {
            out.push(((r * w + c) as Vertex, ((r + 1) * w + c + 1) as Vertex));
        }
    }
    out
}

fn probe_patterns() -> Vec<Pattern> {
    vec![
        Pattern::triangle(), // absent on the plain grid, present after diagonals
        Pattern::cycle(4),
        Pattern::path(3),
        Pattern::star(3),
    ]
}

#[test]
fn pinned_snapshot_serves_pre_epoch_answers_during_writer_churn() {
    let e = psi_planar::generators::grid_embedded(12, 12);
    let mut dynamic = DynamicPsiIndex::build(&e, params());
    let snap = dynamic.snapshot();

    // Independent reference: a from-scratch frozen index of the pinned graph.
    let reference = scratch_of(snap.target());
    let expected_bytes = reference.to_bytes();
    let engine = PsiSnapshot::from(reference);
    let patterns = probe_patterns();
    let pairs = [(0u32, 143u32), (5, 100), (11, 132)];
    let expected_decide = engine.decide_batch(&patterns);
    let expected_conn = engine.connectivity_batch(&pairs);

    let script = diagonals(12);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let script = &script;
        let done_ref = &done;
        let writer = s.spawn(move || {
            // Churn hard: inserts with interleaved flushes, then tear it all
            // back down — many epochs retired while readers hold the first.
            for (i, &(u, v)) in script.iter().enumerate() {
                dynamic.insert_edge(u, v).expect("chord insert rejected");
                if i % 4 == 0 {
                    dynamic.flush();
                }
            }
            dynamic.flush();
            for &(u, v) in script.iter().rev() {
                dynamic
                    .delete_edge(u, v)
                    .expect("inserted diagonal missing");
            }
            dynamic.flush();
            done_ref.store(true, Ordering::Release);
            dynamic
        });
        for _ in 0..2 {
            let snap = snap.clone();
            let (patterns, pairs) = (&patterns, &pairs);
            let (expected_decide, expected_conn) = (&expected_decide, &expected_conn);
            s.spawn(move || {
                let mut iterations = 0u32;
                while !done_ref.load(Ordering::Acquire) || iterations == 0 {
                    assert_eq!(
                        &snap.decide_batch(patterns),
                        expected_decide,
                        "snapshot verdicts drifted from the pinned epoch"
                    );
                    assert_eq!(
                        &snap.connectivity_batch(pairs),
                        expected_conn,
                        "snapshot connectivity drifted from the pinned epoch"
                    );
                    iterations += 1;
                }
            });
        }
        let mut dynamic = writer.join().expect("writer thread panicked");
        // Writer retired every intermediate epoch; the pinned one is intact.
        assert_eq!(
            snap.to_frozen().to_bytes(),
            expected_bytes,
            "retiring epochs corrupted the pinned snapshot"
        );
        // And the live engine round-tripped back to the pinned graph.
        assert_eq!(dynamic.freeze().to_bytes(), expected_bytes);
    });
}

#[test]
fn snapshot_serves_while_a_real_flush_runs() {
    // The acceptance shape: pin a snapshot, queue a batch of inserts, then
    // serve from the snapshot while the writer's flush() rebuilds and
    // republishes the dirty clusters.
    let e = psi_planar::generators::grid_embedded(14, 14);
    let mut dynamic = DynamicPsiIndex::build(&e, params());
    let snap = dynamic.snapshot();
    let engine = PsiSnapshot::from(scratch_of(snap.target()));
    let patterns = probe_patterns();
    let expected = engine.decide_batch(&patterns);

    for &(u, v) in &diagonals(14) {
        dynamic.insert_edge(u, v).expect("chord insert rejected");
    }
    let epoch = snap.epoch();
    std::thread::scope(|s| {
        let writer = s.spawn(|| dynamic.flush());
        let patterns = &patterns;
        let expected = &expected;
        let reader = s.spawn(move || {
            for _ in 0..3 {
                assert_eq!(&snap.decide_batch(patterns), expected);
                assert_eq!(snap.epoch(), epoch, "snapshots are immutable");
            }
            snap
        });
        let rebuilt = writer.join().expect("flush panicked");
        assert!(rebuilt > 0, "the queued inserts must dirty clusters");
        let snap = reader.join().expect("reader panicked");
        // Triangles exist now — but only in epochs after the pinned one.
        assert_eq!(snap.decide(&Pattern::triangle()), Ok(false));
    });
}

#[test]
fn epochs_advance_only_on_accepted_mutations() {
    let e = psi_planar::generators::grid_embedded(5, 5);
    let mut psi = Psi::builder().open_embedded(&e).unwrap();
    let s1 = psi.snapshot();
    let s2 = psi.snapshot();
    assert_eq!(
        s1.epoch(),
        s2.epoch(),
        "snapshots of an unchanged engine share an epoch"
    );

    let e0 = psi.epoch();
    assert!(psi.insert_edge(3, 3).is_err(), "self loop must be rejected");
    assert!(psi.insert_edge(0, 1).is_err(), "duplicate must be rejected");
    assert_eq!(
        psi.epoch(),
        e0,
        "rejected mutations must not consume epochs"
    );

    psi.insert_edge(0, 6).unwrap();
    assert!(psi.epoch() > e0, "accepted mutations advance the epoch");
    let s3 = psi.snapshot();
    assert!(s3.epoch() > s1.epoch());

    // The old snapshot still answers as of its epoch: no triangle existed.
    assert_eq!(s1.decide(&Pattern::triangle()), Ok(false));
    assert_eq!(s3.decide(&Pattern::triangle()), Ok(true));
    assert_eq!(s1.num_edges() + 1, s3.num_edges());
}

#[test]
fn snapshot_freezes_bit_identical_to_scratch_after_churn() {
    let e = psi_planar::generators::grid_embedded(7, 7);
    let mut psi = Psi::builder().open_embedded(&e).unwrap();
    for &(u, v) in &diagonals(7) {
        psi.insert_edge(u, v).unwrap();
    }
    psi.delete_edge(0, 8).unwrap(); // the first inserted diagonal
    let snap = psi.snapshot();
    let scratch = scratch_of(psi.dynamic().target_csr());
    assert_eq!(snap.to_frozen(), scratch);
    assert_eq!(snap.to_frozen().to_bytes(), scratch.to_bytes());
    // The facade's frozen artifact agrees too (flush already ran).
    assert_eq!(psi.freeze().to_bytes(), scratch.to_bytes());
}

/// Nightly-scale stress (run with `--ignored`): a larger grid, a 256-insert
/// backlog, and readers racing the single big flush — the n-scaled version of
/// the acceptance shape.
#[test]
#[ignore]
fn snapshot_read_races_large_flush() {
    let w = 200usize;
    let e = psi_planar::generators::grid_embedded(w, w);
    let mut dynamic = DynamicPsiIndex::build(&e, params());
    let snap = dynamic.snapshot();
    let patterns = probe_patterns();
    let expected = snap.decide_batch(&patterns);
    assert_eq!(expected[0], Ok(false), "plain grid has no triangle");

    let mut budget = 256usize;
    'outer: for r in (0..w - 1).step_by(2) {
        for c in (0..w - 1).step_by(2) {
            if budget == 0 {
                break 'outer;
            }
            dynamic
                .insert_edge((r * w + c) as Vertex, ((r + 1) * w + c + 1) as Vertex)
                .expect("chord insert rejected");
            budget -= 1;
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let done_ref = &done;
        let writer = s.spawn(|| {
            let rebuilt = dynamic.flush();
            done_ref.store(true, Ordering::Release);
            (dynamic, rebuilt)
        });
        let (patterns, expected, snap_ref) = (&patterns, &expected, &snap);
        s.spawn(move || {
            let mut iterations = 0u32;
            while !done_ref.load(Ordering::Acquire) || iterations == 0 {
                assert_eq!(&snap_ref.decide_batch(patterns), expected);
                iterations += 1;
            }
        });
        let (mut dynamic, rebuilt) = writer.join().expect("flush panicked");
        assert!(rebuilt > 0);
        assert_eq!(dynamic.decide(&Pattern::triangle()), Ok(true));
        assert_eq!(snap.decide(&Pattern::triangle()), Ok(false));
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// No snapshot ever observes a partially published round set: snapshots
    /// taken at random points of a random mutation script keep freezing to the
    /// exact bytes of a scratch build of their epoch's graph, even after the
    /// writer has long moved on.
    #[test]
    fn snapshots_pin_complete_round_sets(
        flips in proptest::collection::vec((0u32..25, 0u32..25), 1..12),
        snap_mask in proptest::collection::vec(any::<bool>(), 12),
    ) {
        let e = psi_planar::generators::grid_embedded(5, 5);
        let mut dynamic = DynamicPsiIndex::build(&e, params());
        let mut pinned: Vec<(planar_subiso::PsiSnapshot, Vec<u8>)> = Vec::new();
        for (i, (u, v)) in flips.into_iter().enumerate() {
            if u == v {
                continue;
            }
            if dynamic.has_edge(u, v) {
                dynamic.delete_edge(u, v).expect("listed edge failed to delete");
            } else if dynamic.insert_edge(u, v).is_err() {
                continue; // planarity rejection: engine untouched
            }
            if snap_mask[i % snap_mask.len()] {
                let snap = dynamic.snapshot();
                let scratch = scratch_of(dynamic.target_csr());
                prop_assert_eq!(snap.to_frozen().to_bytes(), scratch.to_bytes());
                pinned.push((snap, scratch.to_bytes()));
            }
        }
        // Retire everything once more, then re-check every pinned epoch.
        dynamic.flush();
        for (snap, bytes) in &pinned {
            prop_assert_eq!(&snap.to_frozen().to_bytes(), bytes,
                "later churn must never leak into a pinned snapshot");
        }
    }
}
