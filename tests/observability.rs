//! Observability suite: the `psi_obs` layer must *describe* the engine without
//! ever *changing* it.
//!
//! Shapes covered:
//!
//! * span nesting — a scripted pipeline (open → mutate → flush → freeze →
//!   snapshot → queries) produces spans whose same-thread nesting mirrors the
//!   real call tree (freeze contains its implicit flush, the flush publishes
//!   instants one level deeper, the index build contains the cover pass);
//! * disabled path — with tracing off, a `span!`/`event!` site performs no heap
//!   allocation (counting global allocator);
//! * exports — `Psi::metrics()` is well-formed Prometheus text covering every
//!   layer, and `Psi::trace_export()` parses as chrome://tracing trace-event
//!   JSON that round-trips the recorded spans;
//! * non-interference — `freeze()` bytes are identical with tracing on and off,
//!   under dedicated pools of 1 and 4 threads (the acceptance bit-identity
//!   proof), and layer counter totals are identical at 1 vs 4 threads;
//! * counter hygiene — stat merges are associative, commutative, and saturate
//!   instead of wrapping.

use planar_subiso::{
    map_cover_batches, separating_cycle_connectivity, ArenaStats, ConnectivityMode, CoverStats,
    ParallelDpStats, Pattern, Psi, SepStats,
};
use psi_graph::CsrGraph;
use psi_obs::trace::{self, SpanRecord};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

// ---------------------------------------------------------------------------
// Counting allocator (for the disabled-path zero-allocation check)
// ---------------------------------------------------------------------------

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// Shared scaffolding
// ---------------------------------------------------------------------------

/// The tracing gate and the per-thread rings are process-global; every test in
/// this file serialises on this lock so one test's spans (or its tracing
/// toggles) never leak into another's assertions.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn grid(w: usize, h: usize) -> CsrGraph {
    psi_graph::generators::grid(w, h)
}

/// Cell diagonals of a `w × w` grid, spread over distinct cells — every insert
/// is a face chord, accepted without a re-embed.
fn diagonals(w: usize) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for r in (0..w - 1).step_by(2) {
        for c in (0..w - 1).step_by(3) {
            out.push(((r * w + c) as u32, ((r + 1) * w + c + 1) as u32));
        }
    }
    out
}

fn first<'a>(spans: &'a [SpanRecord], name: &str) -> &'a SpanRecord {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("no `{name}` span recorded"))
}

/// Child strictly nested under `parent` on the same thread: one level deeper
/// and inside the parent's time interval.
fn nested_under(spans: &[SpanRecord], parent: &SpanRecord, name: &str) -> bool {
    spans.iter().any(|s| {
        s.name == name
            && s.tid == parent.tid
            && s.depth == parent.depth + 1
            && s.start_us >= parent.start_us
            && s.start_us <= parent.start_us + parent.dur_us
    })
}

// ---------------------------------------------------------------------------
// Span nesting mirrors the real call tree
// ---------------------------------------------------------------------------

#[test]
fn span_nesting_matches_call_tree() {
    let _guard = obs_lock();
    trace::clear();
    Psi::set_tracing(true);

    // Scripted pipeline on the test thread (no dedicated pool, so the
    // top-level call tree stays on one thread). Small target: the whole-graph
    // connectivity below runs the separating DP on the face–vertex graph.
    let g = grid(5, 5);
    let mut psi = Psi::builder().open(&g).expect("grid is planar");
    assert!(psi.decide(&Pattern::path(3)).unwrap());
    psi.insert_edge(0, 6).expect("cell diagonal rejected");
    psi.flush();
    psi.insert_edge(3, 9).expect("cell diagonal rejected");
    // An interior chord two cells across shares no face: the local insertion
    // test refuses it from a ball around the edge.
    assert!(psi.insert_edge(6, 18).is_err(), "interior chord accepted");
    let _frozen = psi.freeze(); // flushes the dirty cluster inside the freeze span
    let snap = psi.snapshot();
    assert!(snap.decide(&Pattern::triangle()).unwrap());
    let conn = snap.vertex_connectivity(ConnectivityMode::WholeGraph, 7);
    assert!(conn.connectivity >= 2);
    // The grid's corners settle that query by the minimum degree; a wheel (δ = 3)
    // enumerates the cut size 2 under `query.vertex_connectivity`, and the paper's
    // DP loop runs the separating DP itself.
    let wheel = psi_planar::generators::wheel_embedded(7);
    let wheel_psi = Psi::builder()
        .open_embedded(&wheel)
        .expect("wheel is planar");
    assert_eq!(
        wheel_psi
            .vertex_connectivity(ConnectivityMode::WholeGraph, 7)
            .connectivity,
        3
    );
    let fv = psi_planar::face_vertex_graph(&wheel);
    let dp = separating_cycle_connectivity(&wheel.graph, &fv, ConnectivityMode::WholeGraph, 7);
    assert_eq!(dp.connectivity, 3);

    Psi::set_tracing(false);
    let spans = trace::snapshot_spans();

    // Every stage of the pipeline shows up.
    for name in [
        "planarity.embed",
        "index.build",
        "cover.build",
        "cover.shard",
        "query.decide",
        "mutate.insert",
        "planarity.local",
        "flush",
        "freeze",
        "snapshot",
        "query.vertex_connectivity",
        "connectivity.enumerate",
        "dp.separating",
    ] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "missing `{name}` span in {:?}",
            spans.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }

    // The call tree nests: the index build runs the cover pass, the freeze runs
    // the implicit flush, and the flush publishes each rebuilt round one level
    // deeper still.
    let build = first(&spans, "index.build");
    assert!(
        nested_under(&spans, build, "cover.build"),
        "cover pass must nest under the index build"
    );
    let freeze = first(&spans, "freeze");
    assert!(
        nested_under(&spans, freeze, "flush"),
        "freeze's implicit flush must nest under the freeze span"
    );
    let inner_flush = spans
        .iter()
        .find(|s| s.name == "flush" && s.tid == freeze.tid && s.depth == freeze.depth + 1)
        .expect("flush inside freeze");
    assert!(
        nested_under(&spans, inner_flush, "flush.publish"),
        "round publication instants must nest under their flush"
    );
    assert!(
        spans.iter().any(|q| q.name == "mutate.insert"
            && q.fields().contains(&("u", 6))
            && nested_under(&spans, q, "planarity.local")),
        "the local insertion test must nest under its insert"
    );
    let local = first(&spans, "planarity.local");
    assert!(
        local.fields().contains(&("refused", 1)),
        "{:?}",
        local.fields()
    );
    assert!(local
        .fields()
        .iter()
        .any(|&(k, v)| k == "vertices" && v > 0));
    let publish = first(&spans, "flush.publish");
    assert!(publish.instant, "flush.publish is an instant event");
    let enumerate = first(&spans, "connectivity.enumerate");
    assert!(
        spans.iter().any(|q| q.name == "query.vertex_connectivity"
            && nested_under(&spans, q, "connectivity.enumerate")),
        "the enumeration must nest under its connectivity query"
    );
    assert!(enumerate.fields().contains(&("c", 2)));
    assert!(enumerate
        .fields()
        .iter()
        .any(|&(k, v)| k == "candidates" && v > 0));

    // Span fields carry the engine's real quantities.
    let embed = first(&spans, "planarity.embed");
    assert!(embed.fields().contains(&("n", 25)));
    let insert = first(&spans, "mutate.insert");
    assert!(insert.fields().contains(&("u", 0)) && insert.fields().contains(&("v", 6)));
    assert!(
        spans.iter().any(|s| s.name == "dp.separating"
            && s.fields().iter().any(|&(k, v)| k == "sep_states" && v > 0)),
        "some separating span must report a nonzero state count"
    );

    trace::clear();
}

// ---------------------------------------------------------------------------
// Disabled path: one relaxed load, zero allocations
// ---------------------------------------------------------------------------

#[test]
fn disabled_span_sites_do_not_allocate() {
    let _guard = obs_lock();
    Psi::set_tracing(false);
    assert!(!psi_obs::tracing_enabled());

    // Another harness thread may allocate concurrently (test output buffering),
    // so accept the first interference-free trial rather than demanding one.
    let clean_trial = (0..5).any(|_| {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        for i in 0..10_000u64 {
            let mut span = psi_obs::span!("obs.disabled.probe", i = i);
            span.field("extra", i);
            psi_obs::event!("obs.disabled.instant", i = i);
            assert!(!span.is_recording());
        }
        ALLOC_CALLS.load(Ordering::Relaxed) == before
    });
    assert!(
        clean_trial,
        "disabled span!/event! sites must not allocate (5/5 trials saw allocations)"
    );
}

// ---------------------------------------------------------------------------
// Exports: Prometheus text and chrome trace JSON
// ---------------------------------------------------------------------------

#[test]
fn exports_parse_and_round_trip() {
    let _guard = obs_lock();
    trace::clear();
    Psi::set_tracing(true);

    let g = grid(8, 8);
    let mut psi = Psi::builder().open(&g).expect("grid is planar");
    psi.insert_edge(0, 9).unwrap();
    psi.flush();
    let _ = psi.decide(&Pattern::cycle(4)).unwrap();
    let _ = psi.find_one(&Pattern::path(3)).unwrap();

    // --- Prometheus text: every layer reports, every line is well-formed ---
    let prom = psi.metrics();
    for needle in [
        "# TYPE psi_queries_total counter",
        "# TYPE psi_query_decide_ns summary",
        "psi_query_decide_ns{quantile=\"0.5\"}",
        "psi_query_decide_ns{quantile=\"0.99\"}",
        "psi_mutations_insert_total",
        "psi_mutations_refused_local_total",
        "psi_mutations_whole_target_total",
        "psi_flushes_total",
        "# TYPE psi_flush_batches_rebuilt_total counter",
        "psi_pool_steals_total",
        "psi_cover_passes_total",
        "psi_arena_misses_total",
    ] {
        assert!(
            prom.contains(needle),
            "metrics export missing `{needle}`:\n{prom}"
        );
    }
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("malformed sample line `{line}`"));
        assert!(!name.is_empty());
        value
            .parse::<f64>()
            .unwrap_or_else(|_| panic!("non-numeric sample value in `{line}`"));
    }

    // --- chrome trace JSON: parses, and round-trips the recorded spans ---
    let trace_json = psi.trace_export();
    Psi::set_tracing(false);
    let doc = psi_obs::json::parse(&trace_json).expect("trace export must be valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("trace export must carry a traceEvents array");
    assert!(!events.is_empty());
    for event in events {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            assert!(event.get(key).is_some(), "trace event missing `{key}`");
        }
    }
    let recorded = trace::snapshot_spans();
    for name in ["mutate.insert", "flush", "query.decide"] {
        assert!(recorded.iter().any(|s| s.name == name));
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(|v| v.as_str()) == Some(name)),
            "span `{name}` lost in the chrome export"
        );
    }

    trace::clear();
}

// ---------------------------------------------------------------------------
// Non-interference: tracing must not change a single byte or counter
// ---------------------------------------------------------------------------

fn frozen_bytes(threads: usize, traced: bool) -> Vec<u8> {
    trace::clear();
    Psi::set_tracing(traced);
    let g = grid(10, 10);
    let mut psi = Psi::builder()
        .threads(threads)
        .open(&g)
        .expect("grid is planar");
    for &(u, v) in &diagonals(10) {
        psi.insert_edge(u, v).expect("cell diagonal rejected");
    }
    psi.flush();
    psi.delete_edge(0, 11).expect("inserted diagonal missing");
    let bytes = psi.freeze().to_bytes();
    Psi::set_tracing(false);
    trace::clear();
    bytes
}

#[test]
fn freeze_bytes_identical_with_tracing_on_and_off_across_thread_counts() {
    let _guard = obs_lock();
    let reference = frozen_bytes(1, false);
    for threads in [1usize, 4] {
        for traced in [false, true] {
            assert_eq!(
                frozen_bytes(threads, traced),
                reference,
                "freeze() bytes drifted at threads={threads}, traced={traced}"
            );
        }
    }
}

#[test]
fn layer_counter_totals_identical_at_1_and_4_threads() {
    let _guard = obs_lock();
    Psi::set_tracing(false);
    let wheel = psi_planar::generators::wheel_embedded(9);
    let g = grid(10, 10);

    // Per-run totals returned by the layers themselves (the same numbers the
    // registry absorbs) must not depend on the worker count. The separating DP
    // runs through the paper's loop on the pool; the engine's own query takes the
    // enumeration, whose cut and candidate count must not depend on it either.
    let fv = psi_planar::face_vertex_graph(&wheel);
    let run = |threads: usize| {
        let psi = Psi::builder()
            .threads(threads)
            .open_embedded(&wheel)
            .expect("wheel is planar");
        let conn = psi.vertex_connectivity(ConnectivityMode::WholeGraph, 42);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let dp = pool.install(|| {
            separating_cycle_connectivity(&wheel.graph, &fv, ConnectivityMode::WholeGraph, 42)
        });
        assert_eq!(dp.connectivity, conn.connectivity);
        assert!(dp.stats.sep_states > 0);
        let (_, cover) =
            pool.install(|| map_cover_batches(&g, 4, 1, 7, 2, 64, |b| b.num_windows()));
        (
            dp.connectivity,
            format!("{:?}", dp.stats),
            cover,
            (conn.cut, conn.candidates),
        )
    };

    let (c1, sep1, cover1, fast1) = run(1);
    let (c4, sep4, cover4, fast4) = run(4);
    assert_eq!(c1, c4, "connectivity verdict must be thread-independent");
    assert_eq!(
        sep1, sep4,
        "separating-DP counter totals must be thread-independent"
    );
    assert_eq!(
        fast1, fast4,
        "the enumeration's cut must be thread-independent"
    );
    assert_eq!(
        format!("{cover1:?}"),
        format!("{cover4:?}"),
        "cover counter totals must be thread-independent"
    );
}

// ---------------------------------------------------------------------------
// Counter hygiene: associative, commutative, saturating merges
// ---------------------------------------------------------------------------

#[test]
fn stat_merges_are_associative_commutative_and_saturating() {
    let arena = |s: usize, b: usize, h: u64, m: u64| ArenaStats {
        states_interned: s,
        bytes: b,
        hits: h,
        misses: m,
    };
    let sep = |k: usize| SepStats {
        sep_states: k,
        base_states: 2 * k,
        peak_node_states: 10 * k,
        flips_canonicalised: k + 1,
        dominated_dropped: k + 2,
        orbit_merges: k + 3,
        arena: arena(k, 100 * k, k as u64, 2 * k as u64),
    };

    // Associativity + commutativity over every field (Debug output covers all).
    let (a, b, c) = (sep(3), sep(7), sep(100));
    let fold = |xs: [&SepStats; 3]| {
        let mut acc = SepStats::default();
        for x in xs {
            acc.absorb(x);
        }
        format!("{acc:?}")
    };
    assert_eq!(fold([&a, &b, &c]), fold([&c, &a, &b]));
    assert_eq!(fold([&a, &b, &c]), fold([&b, &c, &a]));
    let mut left = a;
    left.absorb(&b); // (a ⊕ b) ⊕ c
    left.absorb(&c);
    let mut right = b;
    right.absorb(&c); // a ⊕ (b ⊕ c)
    let mut right_total = a;
    right_total.absorb(&right);
    assert_eq!(format!("{left:?}"), format!("{right_total:?}"));

    // Saturation: a pegged counter stays pegged instead of wrapping.
    let mut pegged = sep(1);
    pegged.sep_states = usize::MAX;
    pegged.arena.hits = u64::MAX;
    pegged.absorb(&sep(5));
    assert_eq!(pegged.sep_states, usize::MAX);
    assert_eq!(pegged.arena.hits, u64::MAX);

    let mut cover = CoverStats {
        clusters: usize::MAX,
        ..CoverStats::default()
    };
    cover.absorb(&CoverStats {
        clusters: 9,
        pieces: 4,
        ..CoverStats::default()
    });
    assert_eq!(cover.clusters, usize::MAX);
    assert_eq!(cover.pieces, 4);

    let mut dp = ParallelDpStats {
        num_layers: usize::MAX,
        max_rounds_per_path: 3,
        ..ParallelDpStats::default()
    };
    dp.absorb(&ParallelDpStats {
        num_layers: 1,
        max_rounds_per_path: 8,
        ..ParallelDpStats::default()
    });
    assert_eq!(dp.num_layers, usize::MAX);
    assert_eq!(dp.max_rounds_per_path, 8, "peaks merge by max, not add");

    let mut peg_arena = arena(usize::MAX, usize::MAX, u64::MAX, u64::MAX);
    peg_arena.absorb(&arena(1, 1, 1, 1));
    assert_eq!(peg_arena, arena(usize::MAX, usize::MAX, u64::MAX, u64::MAX));
}
