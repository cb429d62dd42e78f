//! `churn`: a writer toggling cell diagonals of a plain grid and publishing
//! snapshots, while a reader queries the latest snapshot at a fixed rate.

use crate::gen::{self, Edit, Toggler};
use crate::layers::{self, SpanTotals};
use crate::report::Report;
use crate::serve::{replay_setup, Replayed};
use crate::stats::{Budget, Samples};
use planar_subiso::{
    verify_occurrence, IndexParams, MutationError, Psi, PsiError, PsiIndex, PsiSnapshot,
};
use psi_graph::{generators as gg, CsrGraph, Vertex};
use psi_planar::{check_planarity, planar_embedding};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sizes, rates and sample floors of one churn phase.
#[derive(Clone, Copy, Debug)]
pub struct ChurnCfg {
    /// Prefix of the phase's context lines.
    pub label: &'static str,
    /// Side of the plain grid.
    pub side: usize,
    /// Timed opens; the median is the reported set-up time.
    pub setups: usize,
    /// Every `chord_every`-th batch of edits carries one chord to refuse.
    pub chord_every: usize,
    pub min_publishes: usize,
    pub min_rejects: usize,
}

/// The full-size phase: 400 × 400 (160,000 vertices).
pub const FULL: ChurnCfg = ChurnCfg {
    label: "churn",
    side: 400,
    setups: 3,
    chord_every: 2,
    min_publishes: 10,
    min_rejects: 5,
};

/// The probe every other workload runs so it reports the churn metrics too.
pub const PROBE: ChurnCfg = ChurnCfg {
    label: "probe.churn",
    side: 48,
    setups: 5,
    chord_every: 1,
    min_publishes: 15,
    min_rejects: 15,
};

/// Accepted edits between two publishes.
const EDITS_PER_PUBLISH: usize = 64;

/// The reader's open-loop rate: high enough that a read still finds the
/// snapshot's structures in cache. With ten times the gap between reads
/// (2 kHz) every read started cold, and the median followed the host's
/// memory latency (run-to-run spread 0.40 against 0.16 at this rate).
const READER_HZ: f64 = 20_000.0;

/// The engine's single writer-side thread (`PsiBuilder::threads(1)`).
const ENGINE_THREADS: usize = 1;

// The index keeps the default `IndexParams` (and seed): the workload seed
// drives what is edited and read, so runs on different seeds cost the same
// kind of work instead of differing in how the grid is clustered.

/// Applies one toggle; returns its latency in seconds when it was accepted.
fn toggle(psi: &mut Psi, edit: Edit, report: &mut Report) -> Option<(f64, usize)> {
    let t = Instant::now();
    let r = match edit {
        Edit::Insert(u, v) => psi.insert_edge(u, v),
        Edit::Delete(u, v) => psi.delete_edge(u, v),
        Edit::Chord(..) => unreachable!("chords go through `refuse`"),
    };
    let dt = t.elapsed().as_secs_f64();
    match r {
        Ok(stats) => {
            report.ok();
            Some((dt, stats.affected_clusters))
        }
        Err(e) => {
            report.fail(format!("{edit:?} refused: {e}"));
            None
        }
    }
}

/// Inserts a chord the engine must refuse; checks the refusal and its
/// Kuratowski witness against the would-be graph. Returns the latency.
fn refuse(psi: &mut Psi, (u, v): (Vertex, Vertex), report: &mut Report) -> f64 {
    let t = Instant::now();
    let r = psi.insert_edge(u, v);
    let dt = t.elapsed().as_secs_f64();
    match r {
        Err(PsiError::Mutation(MutationError::NonPlanar(w))) => {
            let would_be = gen::with_edge(psi.dynamic().target_csr(), u, v);
            let ok = w.verify(&would_be) && !psi.has_edge(u, v);
            report.check(ok, || format!("chord ({u}, {v}): witness does not verify"));
        }
        other => report.fail(format!(
            "chord ({u}, {v}) not refused as non-planar: {other:?}"
        )),
    }
    dt
}

/// The reader: open loop at [`READER_HZ`] on the latest snapshot; latency is timed
/// from when each query was due. It busy-waits for each due time, because a
/// sleep would add the host's timer wake-up latency (milliseconds on a
/// virtual machine) to every read. Returns (latencies, lateness) in seconds.
fn reader(
    latest: &Mutex<Arc<PsiSnapshot>>,
    stop: &AtomicBool,
    report: &Mutex<Report>,
) -> (Samples, Samples) {
    let pats = gen::read_patterns();
    let period = Duration::from_secs_f64(1.0 / READER_HZ);
    let (mut lat, mut late) = (Samples::default(), Samples::default());
    let (mut attempted, mut failures) = (0u64, Vec::new());
    let start = Instant::now();
    let mut i = 0u32;
    while !stop.load(Ordering::Relaxed) {
        let due = start + period * i;
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        late.push(due.elapsed().as_secs_f64());
        let snap = Arc::clone(&latest.lock().expect("publisher never panics holding it"));
        let (name, p) = &pats[i as usize % pats.len()];
        let ok = if i.is_multiple_of(2) {
            let r = black_box(snap.decide(p));
            lat.push(due.elapsed().as_secs_f64());
            matches!(r, Ok(true))
        } else {
            let r = black_box(snap.find_one(p));
            lat.push(due.elapsed().as_secs_f64());
            matches!(r, Ok(Some(w)) if verify_occurrence(p, snap.target(), &w))
        };
        attempted += 1;
        if !ok {
            failures.push(format!(
                "snapshot {name} query at epoch {} failed",
                snap.epoch()
            ));
        }
        i += 1;
    }
    let mut report = report.lock().expect("no panics while holding the report");
    report.attempted += attempted - failures.len() as u64;
    for f in failures {
        report.check(false, || f);
    }
    (lat, late)
}

fn open(g: &CsrGraph) -> Psi {
    Psi::builder()
        .threads(ENGINE_THREADS)
        .open(g)
        .expect("a grid is planar")
}

/// The untraced churn phase: an engine and its writer/reader sample sets,
/// measured in slices between the other phases of the run.
pub struct Churn {
    cfg: ChurnCfg,
    psi: Psi,
    toggler: Toggler,
    latest: Mutex<Arc<PsiSnapshot>>,
    batch: usize,
    budget: Budget,
    edits: Samples,
    rejects: Samples,
    publishes: Samples,
    reads: Samples,
    lateness: Samples,
}

impl Churn {
    /// Opens the engine `cfg.setups` times, reporting the median as set-up.
    pub fn open(cfg: ChurnCfg, seed: u64, report: &mut Report) -> Churn {
        let label = cfg.label;
        let g = gg::grid(cfg.side, cfg.side);
        report.note(
            &format!("{label}.input"),
            format!(
                "grid {0}x{0}, n = {1}; {2:?}; engine threads = {ENGINE_THREADS} (dedicated pool), \
                 {3} edits per publish, a chord every {4} publishes, reader {5} Hz",
                cfg.side,
                g.num_vertices(),
                IndexParams::default(),
                EDITS_PER_PUBLISH,
                cfg.chord_every,
                READER_HZ
            ),
        );
        let mut psi = report.set_up(label, cfg.setups, || open(&g));
        let latest = Mutex::new(Arc::new(psi.snapshot()));
        Churn {
            cfg,
            psi,
            toggler: Toggler::new(cfg.side, seed),
            latest,
            batch: 0,
            budget: Budget::default(),
            edits: Samples::default(),
            rejects: Samples::default(),
            publishes: Samples::default(),
            reads: Samples::default(),
            lateness: Samples::default(),
        }
    }

    /// Runs the writer (batches of edits, each followed by a publish) and the
    /// reader while the slice worth `share` has time left.
    pub fn slice(&mut self, share: Duration, report: &mut Report) {
        let Churn {
            cfg,
            psi,
            toggler,
            latest,
            batch,
            budget,
            edits,
            rejects,
            publishes,
            ..
        } = self;
        let start = budget.open(share);
        if !budget.left(start) {
            budget.close(start);
            return;
        }
        let latest: &Mutex<_> = latest;
        let stop = AtomicBool::new(false);
        let shared = Mutex::new(std::mem::take(report));
        let (reads, lateness) = std::thread::scope(|scope| {
            let reading = scope.spawn(|| reader(latest, &stop, &shared));
            while budget.left(start) {
                let mut report = shared.lock().expect("reader never panics holding it");
                for e in 0..EDITS_PER_PUBLISH {
                    if *batch % cfg.chord_every == 0 && e == EDITS_PER_PUBLISH / 2 {
                        let Edit::Chord(u, v) = toggler.chord() else {
                            unreachable!()
                        };
                        rejects.push(refuse(psi, (u, v), &mut report));
                    }
                    if let Some((dt, _)) = toggle(psi, toggler.toggle(), &mut report) {
                        edits.push(dt);
                    }
                }
                drop(report);
                let t = Instant::now();
                let snap = psi.snapshot();
                publishes.push(t.elapsed().as_secs_f64());
                *latest.lock().expect("reader never panics holding it") = Arc::new(snap);
                *batch += 1;
            }
            stop.store(true, Ordering::Relaxed);
            reading.join().expect("reader thread panicked")
        });
        budget.close(start);
        *report = shared.into_inner().expect("threads joined");
        self.reads.extend(&reads);
        self.lateness.extend(&lateness);
    }

    /// Whether every sample floor is met.
    pub fn done(&self) -> bool {
        self.publishes.len() >= self.cfg.min_publishes && self.rejects.len() >= self.cfg.min_rejects
    }

    /// Reports the churn metrics and runs the final bit-identity check.
    pub fn finish(mut self, report: &mut Report) {
        report.latency("mutation", &self.edits, &[], 1e6, "us");
        report.latency("reject", &self.rejects, &[], 1e3, "ms");
        report.latency("publish", &self.publishes, &[], 1e3, "ms");
        report.latency("read", &self.reads, &[99], 1e6, "us");
        report.note(
            &format!("{}.reader_lateness_us", self.cfg.label),
            format!(
                "p50 {:.1}, max {:.1} over {} reads",
                self.lateness.median() * 1e6,
                self.lateness.max() * 1e6,
                self.lateness.len()
            ),
        );
        final_check(&mut self.psi, report);
    }
}

/// The churned engine must freeze to exactly the bytes of a fresh build of
/// its final graph (untimed).
fn final_check(psi: &mut Psi, report: &mut Report) {
    let frozen = psi.freeze().to_bytes();
    let target = psi.dynamic().target_csr().clone();
    let fresh = match planar_embedding(&target) {
        Ok(e) => PsiIndex::build(&e, psi.params()).to_bytes(),
        Err(_) => {
            report.fail("the churned target is not planar".into());
            return;
        }
    };
    report.check(frozen == fresh, || {
        "churned engine freezes differently from a fresh build of its graph".into()
    });
}

/// The traced churn run: set-up replay, then traced edits, flushes,
/// publishes and refusals.
pub fn traced(cfg: ChurnCfg, seed: u64, report: &mut Report) {
    let pool_before = rayon::pool_stats();
    let mut spans = SpanTotals::default();
    psi_obs::set_tracing(true);
    spans.drain();
    let g = gg::grid(cfg.side, cfg.side);
    report.note(
        "churn.input",
        format!(
            "grid {0}x{0}, n = {1}; {2:?}; engine threads = {ENGINE_THREADS} (dedicated pool)",
            cfg.side,
            g.num_vertices(),
            IndexParams::default()
        ),
    );
    let Replayed { mut psi, .. } =
        replay_setup(g, IndexParams::default(), Some(ENGINE_THREADS), report);
    spans.drain();

    let mut toggler = Toggler::new(cfg.side, seed);
    let (mut off, mut on) = (Samples::default(), Samples::default());
    let (mut inserts, mut deletes, mut affected) =
        (Samples::default(), Samples::default(), Samples::default());
    let (mut flush_ms, mut rebuilt, mut create_ms) =
        (Samples::default(), Samples::default(), Samples::default());
    for batch in 0..2 * cfg.min_publishes {
        let traced = batch % 2 == 1;
        psi_obs::set_tracing(traced);
        for _ in 0..EDITS_PER_PUBLISH {
            let edit = toggler.toggle();
            let _s = psi_obs::span!("bench.dynamic.edit");
            if let Some((dt, clusters)) = toggle(&mut psi, edit, report) {
                if !traced {
                    off.push(dt);
                    continue;
                }
                on.push(dt);
                affected.push(clusters as f64);
                match edit {
                    Edit::Insert(..) => inserts.push(dt),
                    _ => deletes.push(dt),
                }
            }
        }
        psi_obs::set_tracing(true);
        let t = Instant::now();
        let n = {
            let _s = psi_obs::span!("bench.dynamic.flush");
            psi.flush()
        };
        flush_ms.push(t.elapsed().as_secs_f64() * 1e3);
        rebuilt.push(n as f64);
        let t = Instant::now();
        {
            let _s = psi_obs::span!("bench.snapshot.publish");
            black_box(psi.snapshot());
        }
        create_ms.push(t.elapsed().as_secs_f64() * 1e3);
        spans.drain();
    }
    report.metric(
        "obs.overhead_share",
        (on.median() - off.median()) / off.median(),
        "ratio",
    );
    report.note(
        "trace.mutation_p50_us",
        format!(
            "untraced {} / traced {}",
            off.median() * 1e6,
            on.median() * 1e6
        ),
    );
    report.metric("dynamic.insert_us", inserts.median() * 1e6, "us");
    report.metric("dynamic.delete_us", deletes.median() * 1e6, "us");
    report.metric("dynamic.affected_clusters", affected.mean(), "count");
    report.metric("dynamic.flush_ms", flush_ms.median(), "ms");
    report.metric("dynamic.batches_rebuilt", rebuilt.mean(), "count");
    report.metric("snapshot.create_ms", create_ms.median(), "ms");
    let cache = psi.dynamic().decomp_cache_metrics();
    report.metric(
        "dynamic.decomp_cache_hit_share",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );

    let mut check_ms = Samples::default();
    for _ in 0..cfg.min_rejects {
        let Edit::Chord(u, v) = toggler.chord() else {
            unreachable!()
        };
        let would_be = gen::with_edge(psi.dynamic().target_csr(), u, v);
        let t = Instant::now();
        let refused = {
            let _s = psi_obs::span!("bench.planarity.check");
            check_planarity(&would_be).is_err()
        };
        check_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.check(refused, || format!("LR accepts chord ({u}, {v})"));
        let _s = psi_obs::span!("bench.dynamic.reject");
        refuse(&mut psi, (u, v), report);
    }
    report.metric("planarity.check_ms", check_ms.median(), "ms");
    spans.drain();
    psi_obs::set_tracing(false);
    report.metric(
        "index.dp_fallbacks",
        spans.query_dp_batches() as f64,
        "count",
    );
    layers::report_pool_delta(report, pool_before);
    spans.report(report);
}
