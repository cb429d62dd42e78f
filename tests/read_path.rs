//! One read path: the live engine, a pinned snapshot, and a frozen index served
//! as a snapshot all answer through the same epoch-state reader.
//!
//! * equal answers — on a 5×5 grid after a few diagonal inserts, the three
//!   front ends return identical results for all six query operations,
//!   witnesses and connectivity cuts included;
//! * the DP fallback — on a 300-vertex wheel, with and without a planted K4,
//!   a search from the hub exhausts the node budget, so K4 queries are
//!   answered by the batch DP on every front end, on a decomposition derived
//!   when it runs: of the batches holding the hub's windows on the three
//!   index front ends, emitted then from each round's labels, also after a
//!   flush relabels the hub's cluster, and of a streamed batch on the
//!   one-shot classics (`Psi::decide_in`, `Psi::find_one_in`), whose search
//!   over the hub's window runs out too;
//! * equal instrumentation — every operation on every front end records its
//!   `query.*` span carrying that front end's epoch, plus one latency sample
//!   in the operation's histogram; `decide` and `find_one` spans also carry
//!   the scan's roots, nodes and fallback batches, and only the wheel's
//!   queries move the fallback batch counter.

use planar_subiso::{
    verify_occurrence, ConnectivityMode, CoverBatch, Pattern, Psi, PsiError, PsiIndex, PsiSnapshot,
    QueryError, FAST_PATH_NODE_BUDGET,
};
use psi_baselines::ullmann_decide;
use psi_graph::{CsrGraph, GraphBuilder, Vertex};
use psi_obs::trace::{self, SpanRecord};
use psi_obs::Counter;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Tracing and the metrics registry are process-wide: the tests of this file
/// take turns.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The counter of fallback batches the index scan sends to the batch kernel.
fn fallbacks() -> Arc<Counter> {
    psi_obs::registry().counter("psi_query_fallback_batches_total")
}

/// Cell diagonals of the 5×5 grid; each is a chord of its cell face.
const DIAGONALS: [(Vertex, Vertex); 3] = [(0, 6), (7, 13), (16, 22)];

/// A live engine over the 5×5 grid after the diagonal inserts, plus a frozen
/// index of the same graph served as epoch 0. The frozen index is built from
/// the live embedding: the cover rounds depend on the graph alone, but the
/// connectivity cut depends on the face–vertex graph, hence on the faces.
fn live_and_frozen() -> (Psi, PsiSnapshot) {
    let e = psi_planar::generators::grid_embedded(5, 5);
    let mut psi = Psi::builder().open_embedded(&e).unwrap();
    for (u, v) in DIAGONALS {
        psi.insert_edge(u, v).unwrap();
    }
    let frozen = frozen_of(&psi);
    (psi, frozen)
}

/// A frozen index of the live engine's current graph (built from the live
/// embedding), served as epoch 0.
fn frozen_of(psi: &Psi) -> PsiSnapshot {
    PsiSnapshot::from(PsiIndex::build(&psi.dynamic().embedding(), psi.params()))
}

fn query_error<T>(r: Result<T, PsiError>) -> Result<T, QueryError> {
    r.map_err(|e| match e {
        PsiError::Query(q) => q,
        other => panic!("expected a query error, got {other}"),
    })
}

/// `decide` and `find_one` of every pattern agree across the three front ends.
fn assert_patterns_agree(
    psi: &mut Psi,
    frozen: &PsiSnapshot,
    pinned: &PsiSnapshot,
    patterns: &[Pattern],
) {
    for p in patterns {
        let want = frozen.decide(p);
        assert_eq!(query_error(psi.decide(p)), want, "live decide {p:?}");
        assert_eq!(pinned.decide(p), want, "pinned decide {p:?}");
        let want = frozen.find_one(p);
        assert_eq!(query_error(psi.find_one(p)), want, "live find_one {p:?}");
        assert_eq!(pinned.find_one(p), want, "pinned find_one {p:?}");
    }
}

#[test]
fn frozen_live_and_pinned_answer_identically() {
    let _guard = obs_lock();
    let (mut psi, frozen) = live_and_frozen();
    let pinned = psi.snapshot();
    let sent_before = fallbacks().get();
    let patterns = [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::path(3),
        Pattern::star(3),
        Pattern::clique(4),
        Pattern::clique(5),
        Pattern::path(4),
        Pattern::single_vertex(),
        Pattern::empty(),
    ];
    assert_eq!(frozen.decide(&Pattern::triangle()), Ok(true));
    assert_patterns_agree(&mut psi, &frozen, &pinned, &patterns);

    let want = frozen.decide_batch(&patterns);
    assert_eq!(psi.decide_batch(&patterns), want);
    assert_eq!(pinned.decide_batch(&patterns), want);
    let want = frozen.find_one_batch(&patterns);
    assert_eq!(psi.find_one_batch(&patterns), want);
    assert_eq!(pinned.find_one_batch(&patterns), want);
    // Every root's search on the grid completes under the budget, so no
    // query falls back to a batch.
    assert_eq!(fallbacks().get(), sent_before);

    let pairs = [(0, 24), (3, 21), (12, 12), (0, 25), (1, 2)];
    let want = frozen.connectivity_batch(&pairs);
    assert_eq!(want[2], Err(QueryError::IdenticalEndpoints { vertex: 12 }));
    assert_eq!(psi.connectivity_batch(&pairs), want);
    assert_eq!(pinned.connectivity_batch(&pairs), want);

    let whole = ConnectivityMode::WholeGraph;
    let want = frozen.vertex_connectivity(whole, 7);
    assert_eq!(want.connectivity, 2, "a grid corner has degree 2");
    for got in [
        psi.vertex_connectivity(whole, 7),
        pinned.vertex_connectivity(whole, 7),
    ] {
        assert_eq!(got.connectivity, want.connectivity);
        assert_eq!(got.cut, want.cut);
    }
}

/// Whether some `child` span ran directly inside a `parent` span: same thread,
/// one level deeper, and inside the parent's time interval.
fn nests_under(spans: &[SpanRecord], parent: &str, child: &str) -> bool {
    spans.iter().filter(|p| p.name == parent).any(|p| {
        spans.iter().any(|c| {
            c.name == child
                && c.tid == p.tid
                && c.depth == p.depth + 1
                && c.start_us >= p.start_us
                && c.start_us <= p.start_us + p.dur_us
        })
    })
}

/// The spans `op` records with tracing on.
fn traced(op: impl FnOnce()) -> Vec<SpanRecord> {
    Psi::set_tracing(true);
    trace::clear();
    op();
    let spans = trace::snapshot_spans();
    Psi::set_tracing(false);
    trace::clear();
    spans
}

/// `wheel(300)` relabelled so the hub is vertex 0 and rim vertex `i` is
/// `i + 1`: the index scan then searches from the hub first.
fn hub_first_wheel() -> CsrGraph {
    let wheel = psi_graph::generators::wheel(300);
    let relabel = |v: Vertex| (v + 1) % 300;
    let mut b = GraphBuilder::new(wheel.num_vertices());
    for (u, v) in wheel.edges() {
        b.add_edge(relabel(u), relabel(v));
    }
    b.build()
}

/// The DP's two spans: the batch's decomposition, derived when the DP runs,
/// and the DP itself.
const DP_SPANS: [&str; 2] = ["dp.decompose", "dp.batch"];

/// The index scan's fallback spans: the emission of the hub's cluster from a
/// round's labels, then the DP's two.
const FALLBACK_SPANS: [&str; 3] = ["index.materialise", "dp.decompose", "dp.batch"];

/// The wheel's hub (vertex 0) is the scan's first root, and a K4 search from it
/// runs out of the node budget, so the scan emits the hub's cluster from each
/// round's labels and sends the batch that holds the hub's window to the
/// batch DP, on the decomposition it derives then. Without a rim chord the DP
/// answers no in every round; with the chord {250, 252} it finds the K4
/// {0, 250, 251, 252} in round 0. Every index front end must give the same
/// answer as Ullmann's exact search, record the `index.materialise`,
/// `dp.decompose` and `dp.batch` spans inside its query span, and return the
/// same witness. The one-shot classics must give Ullmann's answers too, with
/// the DP's spans inside a `cover.shard` span and a witness that verifies.
#[test]
fn hub_windows_fall_back_to_the_dp_on_every_front_end() {
    let _guard = obs_lock();
    let wheel = hub_first_wheel();
    let mut psi = Psi::open(&wheel).unwrap();
    let k4 = Pattern::clique(4);
    let patterns = [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::path(3),
        Pattern::star(3),
        k4.clone(),
    ];
    for chord in [None, Some((250, 252))] {
        if let Some((u, v)) = chord {
            psi.insert_edge(u, v).unwrap();
        }
        let (frozen, pinned) = (frozen_of(&psi), psi.snapshot());
        let target = frozen.target().clone();
        for p in &patterns {
            assert_eq!(frozen.decide(p), Ok(ullmann_decide(p, &target)), "{p:?}");
        }
        let present = chord.is_some();

        let sent_before = fallbacks().get();
        let mut witness = None;
        let spans = traced(|| {
            assert_eq!(frozen.decide(&k4), Ok(present));
            witness = frozen.find_one(&k4).unwrap();
        });
        let mut sent = 0;
        for query in ["query.decide", "query.find_one"] {
            for dp in FALLBACK_SPANS {
                assert!(
                    nests_under(&spans, query, dp),
                    "no `{dp}` span inside `{query}`"
                );
            }
            // The hub's search spends the whole budget and sends the batches
            // holding its windows to the batch kernel. Absent, the scan goes
            // on through every root; present, the hub's batch in round 0
            // holds the K4.
            let span = spans.iter().find(|s| s.name == query).unwrap();
            let field = |name| span.fields().iter().find(|f| f.0 == name).map(|f| f.1);
            let roots = if present { 1 } else { 300 };
            assert_eq!(field("roots"), Some(roots), "{query}");
            assert!(field("nodes").unwrap() >= FAST_PATH_NODE_BUDGET as u64);
            let batches = field("fallback_batches").unwrap();
            assert!(batches >= 1, "{query} sent no batch to the batch kernel");
            sent += batches;
        }
        assert_eq!(fallbacks().get() - sent_before, sent);
        if present {
            let witness = witness.expect("the planted K4 is found");
            assert!(verify_occurrence(&k4, &target, &witness));
            assert_eq!(witness, vec![0, 250, 251, 252]);
        } else {
            assert_eq!(witness, None);
        }
        assert_patterns_agree(&mut psi, &frozen, &pinned, &patterns);

        // The one-shot classics run the same kernel on streamed cover batches.
        // K4, the last pattern, goes through `find_one_in` under tracing: the
        // hub's window sends each round's search to the batch DP.
        for p in &patterns[..4] {
            let want = ullmann_decide(p, &target);
            assert_eq!(Psi::decide_in(p, &target).ok(), Some(want), "classic {p:?}");
        }
        let mut witness = None;
        let spans = traced(|| witness = Psi::find_one_in(&k4, &target).unwrap());
        for dp in DP_SPANS {
            assert!(
                nests_under(&spans, "cover.shard", dp),
                "no `{dp}` span inside `cover.shard`"
            );
        }
        assert_eq!(
            witness.is_some(),
            ullmann_decide(&k4, &target),
            "classic {k4:?}"
        );
        if let Some(witness) = witness {
            assert!(verify_occurrence(&k4, &target, &witness));
        }
    }
}

/// The batches of round 0 that hold the hub (vertex 0), as of `snap`.
fn hub_batches(snap: &PsiSnapshot) -> Vec<CoverBatch> {
    let rounds = snap.to_frozen().rounds();
    let batches = rounds[0].batches();
    batches
        .filter(|b| b.local_to_global.contains(&0))
        .cloned()
        .collect()
}

/// The live engine's fallback after a flush: the rim chord {250, 252} joins
/// two members of the hub's cluster, so the flush relabels that cluster, and
/// the live and pinned K4 queries then emit it from the new labels and send
/// the batch holding the hub's window to the DP. For K4 and the four other
/// patterns, live and pinned `decide` and `find_one` must equal a frozen
/// fresh build of the same graph, witnesses included, and each live and
/// pinned K4 query must record the `index.materialise`, `dp.decompose` and
/// `dp.batch` spans inside its query span.
#[test]
fn live_and_pinned_hub_queries_fall_back_to_the_dp_after_a_flush() {
    let _guard = obs_lock();
    let mut psi = Psi::open(&hub_first_wheel()).unwrap();
    let k4 = Pattern::clique(4);
    let patterns = [
        Pattern::triangle(),
        Pattern::cycle(4),
        Pattern::path(3),
        Pattern::star(3),
        k4.clone(),
    ];
    let before = hub_batches(&psi.snapshot());
    psi.insert_edge(250, 252).unwrap();
    assert!(psi.flush() > 0);
    let pinned = psi.snapshot();
    assert_ne!(
        hub_batches(&pinned),
        before,
        "the flush left the hub's cluster as it was"
    );
    let frozen = frozen_of(&psi);
    assert_patterns_agree(&mut psi, &frozen, &pinned, &patterns);

    let planted = Some(vec![0, 250, 251, 252]);
    let sent_before = fallbacks().get();
    let live_spans = traced(|| {
        assert_eq!(query_error(psi.decide(&k4)), Ok(true));
        assert_eq!(query_error(psi.find_one(&k4)), Ok(planted.clone()));
    });
    let pinned_spans = traced(|| {
        assert_eq!(pinned.decide(&k4), Ok(true));
        assert_eq!(pinned.find_one(&k4), Ok(planted.clone()));
    });
    for (front_end, spans) in [("live", live_spans), ("pinned", pinned_spans)] {
        for query in ["query.decide", "query.find_one"] {
            for dp in FALLBACK_SPANS {
                assert!(
                    nests_under(&spans, query, dp),
                    "no `{dp}` span inside the {front_end} `{query}`"
                );
            }
        }
    }
    assert!(fallbacks().get() >= sent_before + 4);
}

/// Runs `op` and checks that it recorded exactly one `span` carrying `epoch`
/// and added exactly one sample to `histogram`.
fn assert_instrumented((span, histogram): (&str, &str), epoch: u64, op: impl FnOnce()) {
    let samples = psi_obs::registry().histogram(histogram);
    let before = samples.count();
    trace::clear();
    op();
    let spans: Vec<_> = trace::snapshot_spans()
        .into_iter()
        .filter(|s| s.name == span)
        .collect();
    assert_eq!(spans.len(), 1, "expected one `{span}` span");
    assert!(
        spans[0].fields().contains(&("epoch", epoch)),
        "`{span}` does not carry epoch {epoch}: {:?}",
        spans[0].fields()
    );
    assert_eq!(
        samples.count(),
        before + 1,
        "`{span}` must add one sample to {histogram}"
    );
}

const DECIDE: (&str, &str) = ("query.decide", "psi_query_decide_ns");
const FIND_ONE: (&str, &str) = ("query.find_one", "psi_query_find_one_ns");
const CONNECTIVITY_BATCH: (&str, &str) = (
    "query.connectivity_batch",
    "psi_query_connectivity_batch_ns",
);
const VERTEX_CONNECTIVITY: (&str, &str) =
    ("query.vertex_connectivity", "psi_query_connectivity_ns");

fn assert_snapshot_instrumented(snap: &PsiSnapshot) {
    let (tri, epoch) = ([Pattern::triangle()], snap.epoch());
    assert_instrumented(DECIDE, epoch, || assert_eq!(snap.decide(&tri[0]), Ok(true)));
    assert_instrumented(FIND_ONE, epoch, || {
        assert!(snap.find_one(&tri[0]).unwrap().is_some());
    });
    assert_instrumented(DECIDE, epoch, || {
        snap.decide_batch(&tri);
    });
    assert_instrumented(FIND_ONE, epoch, || {
        snap.find_one_batch(&tri);
    });
    assert_instrumented(CONNECTIVITY_BATCH, epoch, || {
        snap.connectivity_batch(&[(0, 24)]);
    });
    assert_instrumented(VERTEX_CONNECTIVITY, epoch, || {
        snap.vertex_connectivity(ConnectivityMode::WholeGraph, 7);
    });
}

#[test]
fn every_query_records_its_span_with_the_front_end_epoch_and_one_sample() {
    let _guard = obs_lock();
    let (mut psi, frozen) = live_and_frozen();
    let pinned = psi.snapshot();
    // One more mutation, so the three front ends sit at three distinct epochs.
    psi.insert_edge(18, 24).unwrap();
    assert_eq!(frozen.epoch(), 0);
    assert!(psi.epoch() > pinned.epoch() && pinned.epoch() > 0);

    Psi::set_tracing(true);
    assert_snapshot_instrumented(&frozen);
    assert_snapshot_instrumented(&pinned);
    let (tri, epoch) = ([Pattern::triangle()], psi.epoch());
    assert_instrumented(DECIDE, epoch, || {
        assert!(psi.decide(&tri[0]).unwrap());
    });
    assert_instrumented(FIND_ONE, epoch, || {
        assert!(psi.find_one(&tri[0]).unwrap().is_some());
    });
    assert_instrumented(DECIDE, epoch, || {
        psi.decide_batch(&tri);
    });
    assert_instrumented(FIND_ONE, epoch, || {
        psi.find_one_batch(&tri);
    });
    assert_instrumented(CONNECTIVITY_BATCH, epoch, || {
        psi.connectivity_batch(&[(0, 24)]);
    });
    assert_instrumented(VERTEX_CONNECTIVITY, epoch, || {
        psi.vertex_connectivity(ConnectivityMode::WholeGraph, 7);
    });
    Psi::set_tracing(false);
    trace::clear();
}
