//! Seeded end-to-end benchmark of the planar subgraph-isomorphism engine.
//!
//! ```text
//! perfbench --workload <serve|churn|vconn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) measures for `--seconds`: mostly the named
//! workload at full size, plus small probes of the other two workloads so
//! every end-to-end metric is reported on every workload. A traced run
//! (`--trace 1`) replays the named workload layer by layer with `psi_obs`
//! tracing on and reports the per-layer metrics. Every answer is checked;
//! the last stdout line is the JSON result, and the exit code is non-zero
//! when any check failed. See `perfbench/README.md`.

mod churn;
mod gauge;
mod gen;
mod layers;
mod report;
mod serve;
mod stats;
mod vconn;

use gauge::{Gauge, NOMINAL_SORT_S, NOMINAL_WALK_S};
use report::Report;
use std::time::Duration;

/// The end-to-end metrics every untraced run reports, in order. The tails
/// `hit_p99_us`, `st_p95_ms` and `read_p99_us` are measured and printed as
/// context, not reported as metrics: they time cache misses and scheduler
/// stalls, which the host's slow spells inflate far more than the medians
/// (`st_p95_ms` halved between a slow and a fast spell while `st_p50_ms`
/// moved by a quarter), so even scaled by the gauge their spread across runs
/// exceeds any usable regression bound.
const END_TO_END: &[&str] = &[
    "setup_s",
    "reload_s",
    "artifact_mb",
    "peak_rss_mb",
    "hit_p50_us",
    "scan_p50_ms",
    "st_p50_ms",
    "mutation_p50_us",
    "reject_p50_ms",
    "publish_p50_ms",
    "read_p50_us",
    "vc_total_s",
];

/// Share of `--seconds` each probe phase measures for; the workload's own
/// phase measures for the rest, so the three together fill `--seconds`.
const PROBE_SHARE: f64 = 0.12;

/// Time slices each phase's measurement is cut into; the phases take turns,
/// so every median samples the host across the whole run.
const SLICES: u32 = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Serve,
    Churn,
    Vconn,
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "serve" => Workload::Serve,
                    "churn" => Workload::Churn,
                    "vconn" => Workload::Vconn,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, read from `.git` in the working directory
/// (a checkout without git metadata reports `unknown`).
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn untraced(args: &Args, report: &mut Report) {
    let (serve_cfg, churn_cfg, vconn_cfg) = match args.workload {
        Workload::Serve => (serve::FULL, churn::PROBE, vconn::PROBE),
        Workload::Churn => (serve::PROBE, churn::FULL, vconn::PROBE),
        Workload::Vconn => (serve::PROBE, churn::PROBE, vconn::FULL),
    };
    let slice = |primary: bool| {
        let share = if primary {
            1.0 - 2.0 * PROBE_SHARE
        } else {
            PROBE_SHARE
        };
        Duration::from_secs_f64(args.seconds * share / f64::from(SLICES))
    };
    let (serve_slice, churn_slice, vconn_slice) = (
        slice(args.workload == Workload::Serve),
        slice(args.workload == Workload::Churn),
        slice(args.workload == Workload::Vconn),
    );
    // The gauge runs a burst before each phase's set-up and slice, so its
    // ticks sample the host across the same stretch of time as the timings.
    let mut gauge = Gauge::new();
    gauge.burst();
    let mut serve = serve::Serve::open(serve_cfg, args.seed, report);
    gauge.burst();
    let mut churn = churn::Churn::open(churn_cfg, args.seed, report);
    gauge.burst();
    let mut vconn = vconn::Vconn::new(vconn_cfg, args.seed, report);
    for _ in 0..SLICES {
        gauge.burst();
        serve.slice(serve_slice, report);
        gauge.burst();
        churn.slice(churn_slice, report);
        gauge.burst();
        vconn.slice(vconn_slice, report);
    }
    while !serve.done() {
        gauge.burst();
        serve.slice(serve_slice, report);
    }
    while !churn.done() {
        gauge.burst();
        churn.slice(churn_slice, report);
    }
    while !vconn.done() {
        gauge.burst();
        vconn.slice(vconn_slice, report);
    }
    gauge.burst();
    serve.finish(report);
    churn.finish(report);
    vconn.finish(report);
    match report::peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MB"),
        None => report.fail("VmHWM unreadable from /proc/self/status".into()),
    }
    report.select(END_TO_END);
    let ((walk, sort), factor) = (gauge.factors(), gauge.factor());
    report.note(
        "host_factor",
        format!(
            "{factor} = sqrt(walk {walk} x sort {sort}), medians of {} gauge ticks each over \
             nominal {NOMINAL_WALK_S} s and {NOMINAL_SORT_S} s; the reported timings are the \
             raw ones divided by it",
            gauge.ticks()
        ),
    );
    report.rescale_timings(factor);
}

fn traced(args: &Args, report: &mut Report) {
    match args.workload {
        Workload::Serve => serve::traced(serve::FULL, args.seed, report),
        Workload::Churn => churn::traced(churn::FULL, args.seed, report),
        Workload::Vconn => vconn::traced(vconn::FULL, args.seed, report),
    }
    layers::zero_fill(report);
    let names = layers::per_layer_names();
    report.select(&names.iter().map(String::as_str).collect::<Vec<_>>());
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <serve|churn|vconn> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.note("workload", format!("{:?}", args.workload).to_lowercase());
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note(
        "nproc",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    report.note(
        "PSI_THREADS",
        std::env::var("PSI_THREADS").unwrap_or_else(|_| "unset".into()),
    );
    report.note("git_commit", git_commit());
    if args.trace {
        traced(&args, &mut report);
    } else {
        untraced(&args, &mut report);
    }
    report.print();
    std::process::exit(if report.failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload churn --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Churn);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload serve --trace 2").is_err());
    }
}
