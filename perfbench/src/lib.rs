//! The repository benchmark: three named workloads run through the
//! workspace's public API from a seed argument, their outputs checked,
//! and their end-to-end metrics (untraced runs) or per-layer metrics
//! (traced runs) printed by name with units. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`.
//!
//! ```text
//! perfbench --workload paper-5k|fleet-100k|serve-online --seed N --seconds S --trace 0|1
//! ```
//!
//! Traced runs must use the `perfbench-traced` binary, which installs the
//! tracking allocator behind the `heap_peak_mb` metrics; `run.py` picks
//! the binary from `--trace`.

pub mod batch;
pub mod probe;
pub mod report;
pub mod serve;
pub mod trace;

use std::process::ExitCode;

use venn_bench::{scale_experiment, Experiment};
use venn_core::MINUTE_MS;
use venn_traces::WorkloadKind;

use batch::{BatchSpec, Committed};
use report::{per_layer_names, Outcome, END_TO_END};
use serve::ServeSpec;

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Random and venn arms driven step by step to the horizon.
    Batch(BatchSpec),
    /// Closed-loop protocol sessions with a journal.
    Serve(ServeSpec),
}

impl Workload {
    /// Runs the workload and lists its metrics in `BENCHMARK.json` order.
    /// A per-layer metric the workload has no layer for reads 0 (see
    /// `layer_map.json`); a missing end-to-end metric fails the run.
    pub fn run(&self, seed: u64, seconds: f64, traced: bool) -> Outcome {
        let mut out = match self {
            Workload::Batch(spec) => batch::run(spec, seed, seconds, traced),
            Workload::Serve(spec) => serve::run(spec, seed, seconds, traced),
        };
        let names: Vec<(String, &'static str)> = if traced {
            per_layer_names()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        let mut ordered = Outcome {
            lines: std::mem::take(&mut out.lines),
            attempted: out.attempted,
            failures: std::mem::take(&mut out.failures),
            fingerprints: std::mem::take(&mut out.fingerprints),
            ..Outcome::default()
        };
        for (name, unit) in names {
            let value = match out.value(&name) {
                Some(v) => v,
                None if traced => 0.0,
                None => {
                    ordered.failures.push(format!("{name} was not measured"));
                    f64::NAN
                }
            };
            ordered.metric(name, unit, value);
        }
        ordered
    }
}

/// The seed of the committed runs. Every instance schedules the job mix
/// the committed run at this seed schedules; an instance's own seed
/// draws its device fleet, availability, response noise and scheduler
/// randomness. Instance 0 of a run at this seed is the committed run.
pub const JOBS_SEED: u64 = 42;

fn paper_default(world_seed: u64) -> Experiment {
    let mut exp = Experiment::paper_default(WorkloadKind::Even, None, JOBS_SEED);
    exp.sim.seed = world_seed;
    exp
}

fn fleet_100k(world_seed: u64) -> Experiment {
    let mut exp = scale_experiment(100_000, JOBS_SEED);
    exp.sim.seed = world_seed;
    exp
}

/// `paper-5k`: the paper's Table 1 setting (5k devices, 50 jobs, 10 days).
pub const PAPER_5K: Workload = Workload::Batch(BatchSpec {
    name: "paper-5k",
    make: paper_default,
    committed: Some(Committed::Baseline),
    instances: 8,
});

/// `fleet-100k`: the 100k-device lazy-population scale row (15 jobs,
/// 2 days).
pub const FLEET_100K: Workload = Workload::Batch(BatchSpec {
    name: "fleet-100k",
    make: fleet_100k,
    committed: Some(Committed::Scale(100_000)),
    instances: 3,
});

/// `serve-online`: closed-loop sessions over the paper-default world,
/// advancing about a minute of virtual time per `advance`.
pub const SERVE_ONLINE: Workload = Workload::Serve(ServeSpec {
    name: "serve-online",
    make: paper_default,
    advance_ms: (MINUTE_MS / 2, MINUTE_MS * 3 / 2),
    subscribe_every_ms: 60 * MINUTE_MS,
    checkpoint_every_ms: 24 * 60 * MINUTE_MS,
    instances: 8,
});

/// Every workload by name.
pub const WORKLOADS: [(&str, Workload); 3] = [
    ("paper-5k", PAPER_5K),
    ("fleet-100k", FLEET_100K),
    ("serve-online", SERVE_ONLINE),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to keep repeating the workload.
    pub seconds: f64,
    /// Whether to trace.
    pub trace: bool,
}

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => workload = Some(value.to_string()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {value}: must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// The benchmark's `main`: runs one workload and prints the report and
/// the result line. Exits nonzero on bad arguments or any failed check.
pub fn cli_main(tracking_alloc: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace && !tracking_alloc {
        eprintln!("perfbench: --trace 1 needs the perfbench-traced binary");
        return ExitCode::from(2);
    }
    let Some((_, workload)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (expected {})",
            args.workload,
            names.join("|")
        );
        return ExitCode::from(2);
    };
    println!("{}", report::host_header());
    println!(
        "# run: workload={} seed={} seconds={} trace={} threads=1",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let out = workload.run(args.seed, args.seconds, args.trace);
    for line in &out.lines {
        println!("{line}");
    }
    for m in &out.metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    for f in &out.failures {
        println!("# FAILED: {f}");
        eprintln!("perfbench: FAILED: {f}");
    }
    println!("{}", out.json_line());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
