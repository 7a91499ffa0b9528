//! Self-tests of the benchmark at smoke size: the timing wrapper is
//! transparent, every named metric prints with its unit, and traced runs
//! simulate exactly what untraced runs simulate.
//!
//! Run from the repository root with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::cell::RefCell;
use std::rc::Rc;

use perfbench::batch::{instance_seed, BatchSpec};
use perfbench::probe::{traced_step, StepSplit, Timed};
use perfbench::report::{per_layer_names, END_TO_END};
use perfbench::serve::ServeSpec;
use perfbench::trace::Tracer;
use perfbench::Workload;
use venn_bench::{scale_experiment, Experiment, SchedKind};
use venn_core::{JobId, SpecCategory, MINUTE_MS};
use venn_sim::{ExecMode, SimResult, World};
use venn_traces::{JobPlan, WorkloadKind};

fn smoke(seed: u64) -> Experiment {
    let mut exp = Experiment::smoke(WorkloadKind::Even, 42);
    exp.sim.seed = seed;
    exp
}

fn small_fleet(seed: u64) -> Experiment {
    let mut exp = scale_experiment(2_000, 42);
    exp.sim.seed = seed;
    exp
}

const PAPER_SMOKE: BatchSpec = BatchSpec {
    name: "paper-smoke",
    make: smoke,
    committed: None,
    instances: 2,
};

const FLEET_SMOKE: BatchSpec = BatchSpec {
    name: "fleet-smoke",
    make: small_fleet,
    committed: None,
    instances: 1,
};

const SERVE_SMOKE: ServeSpec = ServeSpec {
    name: "serve-smoke",
    make: smoke,
    advance_ms: (10 * MINUTE_MS, 30 * MINUTE_MS),
    subscribe_every_ms: 120 * MINUTE_MS,
    checkpoint_every_ms: 24 * 60 * MINUTE_MS,
    instances: 1,
};

/// The fields the transparency check compares, rendered byte for byte.
fn outputs(r: &SimResult) -> String {
    format!(
        "{:?}|{}|{}|{}",
        r.records, r.assignments, r.events, r.aborted_rounds
    )
}

fn batch_run(exp: &Experiment, kind: SchedKind, wrapped: bool) -> String {
    let inner = kind.build(exp.sim.seed ^ 0xA5A5);
    let mut world = World::new(exp.sim, &exp.workload, inner.name());
    if wrapped {
        let tracer = Rc::new(RefCell::new(Tracer::default()));
        let mut sched = Timed::new(inner, tracer.clone());
        let mut split = StepSplit::new(tracer.clone());
        while traced_step(&mut world, &mut sched, &mut split, &tracer) {}
    } else {
        let mut sched = inner;
        while world.step(&mut *sched, &mut []) {}
    }
    outputs(&world.finish(&mut []))
}

/// The online paths a serve session takes: bounded `run_until` windows
/// with jobs submitted and withdrawn between them.
fn online_run(exp: &Experiment, kind: SchedKind, wrapped: bool) -> String {
    let inner = kind.build(exp.sim.seed ^ 0xA5A5);
    let mut world = World::new(exp.sim, &exp.workload, inner.name());
    let mut sched: Box<dyn venn_core::Scheduler> = if wrapped {
        Box::new(Timed::new(inner, Rc::new(RefCell::new(Tracer::default()))))
    } else {
        inner
    };
    let horizon = exp.sim.horizon_ms();
    let mut vt = 0;
    let mut until_submit = 40;
    let mut withdraw_next = false;
    while vt < horizon {
        vt += 20 * MINUTE_MS;
        world.run_until(vt, &mut *sched, &mut []);
        until_submit -= 1;
        if until_submit == 0 {
            until_submit = 40;
            let job = world
                .submit_job(JobPlan {
                    id: JobId::new(0),
                    arrival_ms: world.now(),
                    category: SpecCategory::General,
                    rounds: 3,
                    demand: 10,
                    task_ms: 90_000,
                })
                .expect("submit at the current vt");
            if withdraw_next {
                world.withdraw_job(job, &mut *sched);
            }
            withdraw_next = !withdraw_next;
        }
    }
    outputs(&world.finish(&mut []))
}

#[test]
fn timing_wrapper_is_transparent() {
    let mut sharded = smoke(7);
    sharded.sim.exec = ExecMode::Sharded { shards: 2 };
    let cases = [
        ("paper", smoke(7)),
        ("paper-sharded", sharded),
        ("fleet", small_fleet(7)),
    ];
    for (name, exp) in &cases {
        for kind in [SchedKind::Random, SchedKind::Venn] {
            assert_eq!(
                batch_run(exp, kind, false),
                batch_run(exp, kind, true),
                "{name} {kind:?}: wrapped run differs"
            );
        }
    }
    let exp = smoke(7);
    for kind in [SchedKind::Random, SchedKind::Venn] {
        assert_eq!(
            online_run(&exp, kind, false),
            online_run(&exp, kind, true),
            "serve paths {kind:?}: wrapped run differs"
        );
    }
}

/// `(name, unit)` pairs of one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = venn_serve::json::parse(&text).expect("BENCHMARK.json parses");
    let Some(venn_serve::json::Value::Array(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_names_match_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(e2e, declared("end_to_end"));
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(layers, declared("per_layer"));
}

fn check_smoke(workload: Workload, seed: u64) {
    let plain = workload.run(seed, 0.0, false);
    assert!(plain.correct(), "untraced: {:?}", plain.failures);
    let names: Vec<(&str, &str)> = plain
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.unit))
        .collect();
    assert_eq!(names, END_TO_END.to_vec());
    for m in &plain.metrics {
        assert!(
            m.value.is_finite() && m.value > 0.0,
            "{} = {}",
            m.name,
            m.value
        );
    }
    let line = plain.json_line();
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": "))
                && line.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} missing from {line}"
        );
    }

    let traced = workload.run(seed, 0.0, true);
    assert!(traced.correct(), "traced: {:?}", traced.failures);
    let names: Vec<String> = traced.metrics.iter().map(|m| m.name.clone()).collect();
    let expected: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names, expected);
    assert_eq!(
        plain.fingerprints, traced.fingerprints,
        "traced run simulated something else"
    );
    let value = |name: &str| traced.value(name).expect(name);
    match workload {
        Workload::Batch(_) => {
            assert!(value("events.check_in.venn") > 0.0);
            assert!(value("sched.assign.calls.venn") > 0.0);
            assert!(value("sched.submit_s.venn") > 0.0);
            assert!(value("snapshot.sched_bytes.venn") > 0.0);
            assert!(value("trace_overhead.venn") > 0.0);
            // The random scheduler observes no check-ins, so the kernel
            // must not replay any into it through the wrapper.
            assert_eq!(value("sched.replay.records.random"), 0.0);
        }
        Workload::Serve(_) => {
            assert!(value("session.cmds.advance") > 0.0);
            assert!(value("session.cmds.checkpoint") > 0.0);
            assert!(value("wal.appends") > 0.0);
            assert!(value("protocol.parse_s") > 0.0);
        }
    }
}

#[test]
fn paper_smoke_reports_every_metric() {
    check_smoke(Workload::Batch(PAPER_SMOKE), 3);
}

#[test]
fn fleet_smoke_reports_every_metric() {
    check_smoke(Workload::Batch(FLEET_SMOKE), 3);
}

#[test]
fn serve_smoke_reports_every_metric() {
    check_smoke(Workload::Serve(SERVE_SMOKE), 3);
}

#[test]
fn instance_zero_is_the_seed_itself() {
    assert_eq!(instance_seed(42, 0), 42);
    assert_ne!(instance_seed(42, 1), instance_seed(43, 1));
}
