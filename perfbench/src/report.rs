//! Metric names, summaries, the host header, and the result line.

use std::fmt::Write as _;

use crate::trace::{EVENT_KINDS, SCHED_OPS};

/// The two scheduler arms every workload runs, in run order. Random is
/// the baseline the speed-up is normalized against.
pub const ARMS: [&str; 2] = ["random", "venn"];

/// End-to-end metrics with their units, as `BENCHMARK.json` lists them.
/// Every workload reports every one of them (see `layer_map.json` for
/// what each means on each workload).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("run_s.venn", "s"),
    ("run_s.random", "s"),
    ("peak_rss_mb", "MB"),
    ("avg_jct_h.venn", "h"),
    ("speedup_vs_random", "x"),
    ("completion_rate.venn", "ratio"),
    ("ckpt_mb", "MB"),
    ("recover_s", "s"),
];

/// Protocol commands the serve workload sends and reports per command.
pub const SESSION_CMDS: [&str; 7] = [
    "advance",
    "submit",
    "withdraw",
    "query-job",
    "stats",
    "subscribe",
    "checkpoint",
];

/// Every per-layer metric with its unit, in report order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for arm in ARMS {
        for k in EVENT_KINDS {
            out.push((format!("events.{k}.{arm}"), "count"));
            out.push((format!("dispatch_s.{k}.{arm}"), "s"));
        }
        out.push((format!("step.pre_s.{arm}"), "s"));
        for op in SCHED_OPS {
            out.push((format!("sched.{op}.calls.{arm}"), "count"));
            out.push((format!("sched.{op}_s.{arm}"), "s"));
        }
        out.push((format!("sched.assign.hit_ratio.{arm}"), "ratio"));
        out.push((format!("sched.replay.records.{arm}"), "count"));
        out.push((format!("world.new_s.{arm}"), "s"));
        out.push((format!("heap_peak_mb.{arm}"), "MB"));
        out.push((format!("snapshot.encode_s.{arm}"), "s"));
        out.push((format!("snapshot.decode_s.{arm}"), "s"));
        out.push((format!("snapshot.sched_bytes.{arm}"), "bytes"));
        out.push((format!("snapshot.world_bytes.{arm}"), "bytes"));
        out.push((format!("trace_overhead.{arm}"), "ratio"));
    }
    out.push(("traces.generate_s".into(), "s"));
    out.push(("protocol.parse_s".into(), "s"));
    for c in SESSION_CMDS {
        out.push((format!("session.apply_s.{c}"), "s"));
        out.push((format!("session.cmds.{c}"), "count"));
    }
    out.push(("session.frames".into(), "count"));
    out.push(("session.resp_bytes".into(), "bytes"));
    out.push(("session.cmd_p50_us".into(), "us"));
    out.push(("session.cmd_p99_us".into(), "us"));
    out.push(("session.cmds_per_s".into(), "1/s"));
    out.push(("wal.appends".into(), "count"));
    out.push(("wal.append_s".into(), "s"));
    out.push(("wal.bytes".into(), "bytes"));
    out.push(("wal.recover_s".into(), "s"));
    out.push(("wal.replay_s".into(), "s"));
    out
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 for an empty slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A timing distribution: the median and the highest percentile with at
/// least ten samples beyond it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median.
    pub p50: f64,
    /// Label of the tail percentile (`p99`, `p90`, ... or `max`).
    pub tail_label: &'static str,
    /// Value at that percentile.
    pub tail: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `xs`. With fewer than 20 samples no percentile above
    /// the median has ten samples beyond it, and the maximum is given.
    pub fn of(xs: &[f64]) -> Summary {
        let n = xs.len();
        let tails: [(&'static str, f64); 4] =
            [("p99.9", 0.999), ("p99", 0.99), ("p95", 0.95), ("p90", 0.9)];
        let (tail_label, q) = tails
            .into_iter()
            .find(|(_, q)| (n as f64) * (1.0 - q) >= 10.0)
            .unwrap_or(("max", 1.0));
        Summary {
            p50: median(xs),
            tail_label,
            tail: quantile(xs, q),
            n,
        }
    }

    /// `p50 <v> <unit>, <tail> <v> <unit>, n=<n>`.
    pub fn render(&self, unit: &str, scale: f64) -> String {
        format!(
            "p50 {:.6} {unit}, {} {:.6} {unit}, n={}",
            self.p50 * scale,
            self.tail_label,
            self.tail * scale,
            self.n
        )
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What one workload run produced: its metrics, its human-readable
/// report lines, and the tally of checked operations.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines, printed before the result line.
    pub lines: Vec<String>,
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Failed checks and unplanned error replies, one message each.
    pub failures: Vec<String>,
    /// Per-arm fingerprints of the simulated outputs.
    pub fingerprints: Vec<(String, u64)>,
}

impl Outcome {
    /// Records a named metric.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    /// Counts one checked operation, failing it with `msg` when `ok` is
    /// false.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(msg());
        }
    }

    /// The value of metric `name`, if recorded.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Whether every checked operation passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final result line.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// The host header printed with every result: core count, CPU model,
/// compiler, build profile and commit. The run script passes the
/// compiler version and commit in `PERFBENCH_RUSTC` / `PERFBENCH_COMMIT`.
pub fn host_header() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "# host: cores={cores} cpu=\"{cpu}\" rustc=\"{}\" profile={profile} commit={}",
        env("PERFBENCH_RUSTC"),
        env("PERFBENCH_COMMIT")
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_picks_a_well_sampled_tail() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&xs);
        assert_eq!(s.tail_label, "p99");
        assert_eq!(s.n, 1000);
        assert!((s.p50 - 500.5).abs() < 1e-9);
        assert_eq!(Summary::of(&[1.0, 2.0, 3.0]).tail_label, "max");
    }

    #[test]
    fn per_layer_names_are_unique_and_fit_the_contract() {
        let names = per_layer_names();
        let mut sorted: Vec<_> = names.iter().map(|(n, _)| n.clone()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
        assert!(names.iter().all(|(n, _)| n.len() <= 64));
    }
}
