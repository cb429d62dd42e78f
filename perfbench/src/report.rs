//! Run bookkeeping: operation tally, metrics, context lines, and the final
//! one-line JSON result.

use crate::stats::{highest_percentile, median, Samples};
use std::fmt::Write as _;
use std::time::Instant;

/// Failure messages echoed to stderr before the rest are only counted.
const MAX_ECHOED_FAILURES: u64 = 20;

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    context: Vec<String>,
}

impl Report {
    /// Counts one operation as attempted and correct.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one operation; a false `correct` is a failure described by `what`.
    pub fn check(&mut self, correct: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !correct {
            self.fail(what());
        }
    }

    /// Counts a failure that was not preceded by an attempt (a run-level check).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= MAX_ECHOED_FAILURES {
            eprintln!("perfbench: FAILED: {what}");
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Adds to a metric reported earlier (or reports it).
    pub fn add_metric(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.metrics.iter_mut().find(|(n, _, _)| n == name) {
            Some(m) => m.1 += value,
            None => self.metric(name, value, unit),
        }
    }

    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    /// A context line (`key: value`) printed before the result.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.context.push(format!("{key}: {value}"));
    }

    /// Reports `median` and the named tail percentile of `samples` scaled by
    /// `scale`, and notes the sample count behind them. Too few samples for
    /// the tail is a failure: the name promises ten samples above it.
    pub fn latency(
        &mut self,
        prefix: &str,
        samples: &Samples,
        tails: &[u32],
        scale: f64,
        unit: &'static str,
    ) {
        if samples.is_empty() {
            self.fail(format!("{prefix}: no samples"));
            return;
        }
        self.metric(
            &format!("{prefix}_p50_{unit}"),
            samples.median() * scale,
            unit,
        );
        for &p in tails {
            match samples.tail(p) {
                Some(v) => self.metric(&format!("{prefix}_p{p}_{unit}"), v * scale, unit),
                None => self.fail(format!(
                    "{prefix}_p{p}: {} samples leave fewer than ten above it",
                    samples.len()
                )),
            }
        }
        self.note(
            &format!("samples.{prefix}"),
            format!(
                "{} (highest percentile with ten above: p{})",
                samples.len(),
                highest_percentile(samples.len()).unwrap_or(0)
            ),
        );
    }

    /// Opens an engine `n` times, each dropped before the next, adds the
    /// median open time to `setup_s`, and returns the last engine.
    pub fn set_up<T>(&mut self, label: &str, n: usize, mut open: impl FnMut() -> T) -> T {
        let mut times = Vec::with_capacity(n);
        let mut engine = None;
        for _ in 0..n {
            drop(engine.take());
            let t = Instant::now();
            engine = Some(open());
            times.push(t.elapsed().as_secs_f64());
        }
        self.ok();
        let setup = median(&times);
        self.note(
            &format!("{label}.setup_s"),
            format!("{setup} (median of {times:?})"),
        );
        self.add_metric("setup_s", setup, "s");
        engine.expect("at least one set-up")
    }

    /// Divides every timing (unit `s`, `ms` or `us`) by `factor`, noting
    /// each value as measured.
    pub fn rescale_timings(&mut self, factor: f64) {
        for (name, value, unit) in &mut self.metrics {
            if matches!(*unit, "s" | "ms" | "us") {
                self.context.push(format!("raw.{name}: {value} {unit}"));
                *value /= factor;
            }
        }
    }

    /// Keeps only the metrics named in `names`, in that order, failing the run
    /// for any that was not measured.
    pub fn select(&mut self, names: &[&str]) {
        let mut kept = Vec::with_capacity(names.len());
        for &name in names {
            match self.metrics.iter().position(|(n, _, _)| n == name) {
                Some(i) => kept.push(self.metrics.swap_remove(i)),
                None => self.fail(format!("metric {name} was not measured")),
            }
        }
        for (name, value, unit) in std::mem::replace(&mut self.metrics, kept) {
            self.context.push(format!("extra.{name}: {value} {unit}"));
        }
    }

    /// Prints the context lines, a metric table, and the JSON result as the
    /// last line of stdout.
    pub fn print(&self) {
        let mut out = String::new();
        for line in &self.context {
            let _ = writeln!(out, "# {line}");
        }
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<40} {value:>16.6} {unit}");
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "# fail_share: {share} ({} of {})",
            self.failed, self.attempted
        );
        out.push_str(&self.json());
        println!("{out}");
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
        }
        s.push_str("}}");
        s
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut r = Report::default();
        r.ok();
        r.metric("setup_s", 0.25, "s");
        r.metric("latency_ms", 1.5, "ms");
        r.select(&["setup_s", "latency_ms"]);
        let parsed = psi_obs::json::parse(&r.json()).expect("valid JSON");
        assert_eq!(parsed.get("correct"), Some(&psi_obs::Value::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(1.0));
        let m = parsed.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64()),
            Some(0.25)
        );
        assert_eq!(
            m.get("latency_ms")
                .and_then(|v| v.get("unit"))
                .and_then(|v| v.as_str()),
            Some("ms")
        );
    }

    #[test]
    fn rescaling_touches_timings_only_and_keeps_the_raw_values() {
        let mut r = Report::default();
        r.metric("setup_s", 3.0, "s");
        r.metric("read_p50_us", 1.5, "us");
        r.metric("artifact_mb", 52.0, "MB");
        r.rescale_timings(1.5);
        assert_eq!(r.metric_value("setup_s"), Some(2.0));
        assert_eq!(r.metric_value("read_p50_us"), Some(1.0));
        assert_eq!(r.metric_value("artifact_mb"), Some(52.0));
        assert!(r.context.iter().any(|c| c == "raw.setup_s: 3 s"));
    }

    #[test]
    fn missing_metrics_and_thin_tails_fail_the_run() {
        let mut r = Report::default();
        let mut s = Samples::default();
        for i in 0..100 {
            s.push(f64::from(i));
        }
        r.latency("hit", &s, &[99], 1.0, "us");
        assert_eq!(r.failed, 1, "p99 of 100 samples has one sample above it");
        r.select(&["hit_p50_us", "absent"]);
        assert_eq!(r.failed, 2);
    }
}
