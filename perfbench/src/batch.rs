//! The batch workloads: a random arm and a venn arm each driven from
//! `World::new` to the horizon through `World::step`, as
//! `venn_bench::run` and `run_crashed` drive them.
//!
//! A run repeats the whole workload until its time is up. Iterations
//! alternate between an uninterrupted run and one that is snapshotted at
//! simulated halfway with `snapshot_world`, torn down, and finished from
//! `resume_world`; every iteration must reproduce the first one's
//! simulated outputs exactly.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use venn_bench::{parse_baseline, parse_scale, Experiment, SchedKind};
use venn_core::{Scheduler, SimTime, SnapWriter, DAY_MS};
use venn_sim::{resume_world, snapshot_world, SimResult, World};

use crate::probe::{traced_step, StepSplit, Timed};
use crate::report::{median, peak_rss_mb, Outcome, Summary, ARMS};
use crate::trace::{Layer, Totals, Tracer, EVENT_KINDS, SCHED_OPS};

/// The committed file whose rows a batch workload must reproduce at the
/// file's seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Committed {
    /// The `paper_default/even` random and venn rows of
    /// `BENCH_BASELINE.json`.
    Baseline,
    /// The sequential (`shards: 0`) rows of `BENCH_SCALE.json` at this
    /// population.
    Scale(usize),
}

/// A batch workload.
#[derive(Debug, Clone, Copy)]
pub struct BatchSpec {
    /// Workload name.
    pub name: &'static str,
    /// Builds one instance from its world seed.
    pub make: fn(u64) -> Experiment,
    /// Committed rows to reproduce, if any.
    pub committed: Option<Committed>,
    /// Instances per iteration, each with its own world seed (see
    /// [`instance_seed`]).
    pub instances: usize,
}

/// The simulated outputs a committed row pins.
#[derive(Debug, Clone, PartialEq)]
struct ArmOutputs {
    avg_jct_ms: f64,
    completion_rate: f64,
    events: u64,
    assignments: u64,
    aborted_rounds: u64,
    peak_queue_len: u64,
    /// Materialized-device high-water mark.
    peak_live_devices: usize,
}

/// Snapshot/resume measurements of one crashed arm run.
#[derive(Debug, Clone, Copy, Default)]
struct SnapStats {
    bytes: usize,
    encode_s: f64,
    decode_s: f64,
    world_bytes: usize,
}

/// One arm of one iteration.
struct ArmRun {
    setup_s: f64,
    world_new_s: f64,
    run_s: f64,
    fingerprint: u64,
    outputs: ArmOutputs,
    snap: Option<SnapStats>,
    totals: Option<Totals>,
    heap_peak_bytes: u64,
}

/// A byte-level fingerprint of everything a run's checks compare: the
/// per-job records, assignments, events, aborted rounds, failures and
/// queue high-water mark.
fn result_fingerprint(r: &SimResult) -> u64 {
    venn_core::snapshot::checksum(
        format!(
            "{:?}|{}|{}|{}|{}|{}",
            r.records, r.assignments, r.events, r.aborted_rounds, r.failures, r.peak_queue_len
        )
        .as_bytes(),
    )
}

/// Steps `world` to the end, or until the first step that reaches
/// `pause_at`. Returns whether it paused.
fn drive(
    world: &mut World,
    sched: &mut dyn Scheduler,
    probe: Option<(&mut StepSplit, &RefCell<Tracer>)>,
    pause_at: Option<SimTime>,
) -> bool {
    match probe {
        None => {
            while world.step(sched, &mut []) {
                if pause_at.is_some_and(|t| world.now() >= t) {
                    return true;
                }
            }
        }
        Some((split, tracer)) => {
            while traced_step(world, sched, split, tracer) {
                if pause_at.is_some_and(|t| world.now() >= t) {
                    return true;
                }
            }
        }
    }
    false
}

fn build(
    kind: SchedKind,
    exp: &Experiment,
    tracer: Option<&Rc<RefCell<Tracer>>>,
) -> Box<dyn Scheduler> {
    let inner = kind.build(exp.sim.seed ^ 0xA5A5);
    match tracer {
        Some(t) => Box::new(Timed::new(inner, t.clone())),
        None => inner,
    }
}

/// Runs one arm from set-up to `World::finish`, crashing it at simulated
/// halfway when `crash` is set.
fn run_arm(exp: &Experiment, kind: SchedKind, crash: bool, traced: bool) -> Result<ArmRun, String> {
    let tracer = traced.then(|| Rc::new(RefCell::new(Tracer::default())));
    let mut split = tracer.as_ref().map(|t| StepSplit::new(t.clone()));
    venn_metrics::alloc::reset_peak();

    let t = Instant::now();
    let mut sched = build(kind, exp, tracer.as_ref());
    let tw = Instant::now();
    let mut world = World::new(exp.sim, &exp.workload, sched.name());
    let world_new_s = tw.elapsed().as_secs_f64();
    let setup_s = t.elapsed().as_secs_f64();

    let halfway = u64::from(exp.sim.days) * DAY_MS / 2;
    let mut pause_at = crash.then_some(halfway);
    let mut run_s = 0.0;
    let mut snap = None;
    loop {
        let t = Instant::now();
        let probe = split.as_mut().zip(tracer.as_deref());
        let paused = drive(&mut world, &mut *sched, probe, pause_at);
        run_s += t.elapsed().as_secs_f64();
        if !paused {
            break;
        }
        pause_at = None;
        let t = Instant::now();
        let bytes = snapshot_world(&world, &*sched).map_err(|e| format!("snapshot: {e}"))?;
        let encode_s = t.elapsed().as_secs_f64();
        let world_bytes = if traced {
            let mut w = SnapWriter::new();
            world.encode_state(&mut w);
            w.len()
        } else {
            0
        };
        drop(world);
        drop(sched);
        sched = build(kind, exp, tracer.as_ref());
        let t = Instant::now();
        world = resume_world(&bytes, exp.sim, &exp.workload, &mut *sched)
            .map_err(|e| format!("resume: {e}"))?;
        snap = Some(SnapStats {
            bytes: bytes.len(),
            encode_s,
            decode_s: t.elapsed().as_secs_f64(),
            world_bytes,
        });
    }
    let peak_live_devices = world.devices().peak_live_devices();
    let result = world.finish(&mut []);
    drop(sched);
    let heap_peak_bytes = venn_metrics::alloc::peak_bytes();
    Ok(ArmRun {
        setup_s,
        world_new_s,
        run_s,
        fingerprint: result_fingerprint(&result),
        outputs: ArmOutputs {
            avg_jct_ms: result.avg_jct_ms(),
            completion_rate: result.completion_rate(),
            events: result.events,
            assignments: result.assignments,
            aborted_rounds: result.aborted_rounds,
            peak_queue_len: result.peak_queue_len,
            peak_live_devices,
        },
        snap,
        totals: tracer.map(|t| t.borrow_mut().take()),
        heap_peak_bytes,
    })
}

struct Iteration {
    generate_s: f64,
    /// Indexed `[instance][arm]`, arms in [`ARMS`] order.
    runs: Vec<Vec<ArmRun>>,
    traced: bool,
}

impl Iteration {
    /// `f` summed over the instances of arm `a`.
    fn sum(&self, a: usize, f: impl Fn(&ArmRun) -> f64) -> f64 {
        self.runs.iter().map(|arms| f(&arms[a])).sum()
    }
}

const KINDS: [SchedKind; 2] = [SchedKind::Random, SchedKind::Venn];

/// The world seed of instance `k` of a run at `seed`. Instance 0 uses the
/// seed itself, so at the committed seed it is the committed run.
pub fn instance_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Whether a run that started at `start` and has finished `done`
/// iterations should start another: until `min` are done, and then while
/// one more, at the average pace so far, still ends within `seconds`.
pub(crate) fn another_iteration(start: &Instant, done: usize, min: usize, seconds: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    done < min || elapsed + elapsed / done as f64 <= seconds
}

/// Runs `spec` at `seed` for about `seconds` (and at least two
/// iterations, one of them crashed). Untraced runs report the end-to-end
/// metrics; traced runs interleave untraced and traced iterations and
/// report the per-layer metrics.
pub fn run(spec: &BatchSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let start = Instant::now();
    let mut out = Outcome::default();
    let mut its: Vec<Iteration> = Vec::new();
    'outer: loop {
        let i = its.len();
        // Untraced: every other iteration crashes. Traced: every
        // iteration crashes, and every other one is traced.
        let (crash, trace_it) = if traced {
            (true, i % 2 == 1)
        } else {
            (i % 2 == 1, false)
        };
        let mut it = Iteration {
            generate_s: 0.0,
            runs: Vec::new(),
            traced: trace_it,
        };
        for k in 0..spec.instances {
            let t = Instant::now();
            let exp = (spec.make)(instance_seed(seed, k));
            it.generate_s += t.elapsed().as_secs_f64();
            let mut arms = Vec::new();
            for kind in KINDS {
                match run_arm(&exp, kind, crash, trace_it) {
                    Ok(a) => arms.push(a),
                    Err(e) => {
                        out.check(false, || {
                            format!("{} {kind:?} instance {k} iteration {i}: {e}", spec.name)
                        });
                        break 'outer;
                    }
                }
            }
            it.runs.push(arms);
        }
        its.push(it);
        if !another_iteration(&start, its.len(), 2, seconds) {
            break;
        }
    }
    if its.is_empty() {
        return out;
    }

    // Every iteration — resumed or not, traced or not — must reproduce
    // the first one's simulated outputs.
    for (i, it) in its.iter().enumerate() {
        for (k, arms) in it.runs.iter().enumerate() {
            for (a, arm) in arms.iter().enumerate() {
                let first = its[0].runs[k][a].fingerprint;
                out.check(arm.fingerprint == first, || {
                    format!(
                        "{} {} instance {k} iteration {i}: fingerprint {:016x} differs from iteration 0 ({first:016x})",
                        spec.name, ARMS[a], arm.fingerprint
                    )
                });
            }
        }
    }
    if let Some(committed) = spec.committed {
        check_committed(committed, seed, &its[0].runs[0], &mut out);
    }

    out.lines.push(format!(
        "# {} seed={seed} instances={} iterations={} traced_iterations={}",
        spec.name,
        spec.instances,
        its.len(),
        its.iter().filter(|i| i.traced).count()
    ));
    for (k, arms) in its[0].runs.iter().enumerate() {
        for (a, arm) in ARMS.iter().enumerate() {
            let o = &arms[a].outputs;
            out.lines.push(format!(
                "# instance {k} (world seed {}) {arm}: events={} assignments={} aborted_rounds={} avg_jct_ms={:.1} completion={:.4} peak_queue_len={} peak_live_devices={} fingerprint={:016x}",
                instance_seed(seed, k),
                o.events,
                o.assignments,
                o.aborted_rounds,
                o.avg_jct_ms,
                o.completion_rate,
                o.peak_queue_len,
                o.peak_live_devices,
                arms[a].fingerprint,
            ));
            out.fingerprints
                .push((format!("{k}.{arm}"), arms[a].fingerprint));
        }
    }
    for (a, arm) in ARMS.iter().enumerate() {
        let runs: Vec<f64> = untraced(&its).map(|it| it.sum(a, |r| r.run_s)).collect();
        out.lines.push(format!(
            "# {arm} run_s over all instances: {}",
            Summary::of(&runs).render("s", 1.0)
        ));
    }

    if traced {
        per_layer(&its, &mut out);
        return out;
    }
    let setups: Vec<f64> = its
        .iter()
        .map(|it| it.generate_s + it.sum(0, |r| r.setup_s) + it.sum(1, |r| r.setup_s))
        .collect();
    out.metric("setup_s", "s", median(&setups));
    for (a, arm) in ARMS.iter().enumerate().rev() {
        let runs: Vec<f64> = its.iter().map(|it| it.sum(a, |r| r.run_s)).collect();
        out.metric(format!("run_s.{arm}"), "s", median(&runs));
    }
    out.metric("peak_rss_mb", "MB", peak_rss_mb());
    let first = &its[0];
    let n = spec.instances as f64;
    let jct_random = first.sum(0, |r| r.outputs.avg_jct_ms) / n;
    let jct_venn = first.sum(1, |r| r.outputs.avg_jct_ms) / n;
    out.metric("avg_jct_h.venn", "h", jct_venn / 3.6e6);
    out.metric("speedup_vs_random", "x", jct_random / jct_venn);
    out.metric(
        "completion_rate.venn",
        "ratio",
        first.sum(1, |r| r.outputs.completion_rate) / n,
    );
    let crashed: Vec<&Iteration> = its
        .iter()
        .filter(|it| it.runs[0][1].snap.is_some())
        .collect();
    let ckpt: Vec<f64> = crashed
        .iter()
        .map(|it| it.sum(1, |r| r.snap.map_or(0.0, |s| s.bytes as f64)) / n / 1e6)
        .collect();
    let resume: Vec<f64> = crashed
        .iter()
        .map(|it| it.sum(1, |r| r.snap.map_or(0.0, |s| s.decode_s)))
        .collect();
    out.metric("ckpt_mb", "MB", median(&ckpt));
    out.metric("recover_s", "s", median(&resume));
    out
}

fn untraced(its: &[Iteration]) -> impl Iterator<Item = &Iteration> {
    its.iter().filter(|it| !it.traced)
}

/// Fills in the per-layer metrics from a traced run's iterations: counts
/// and times are totals over one iteration's instances (counts from the
/// first traced iteration, times the median over traced iterations);
/// bytes are per instance.
fn per_layer(its: &[Iteration], out: &mut Outcome) {
    let traced: Vec<&Iteration> = its.iter().filter(|it| it.traced).collect();
    let Some(t0) = traced.first() else { return };
    let n = t0.runs.len() as f64;
    for (a, arm) in ARMS.iter().enumerate() {
        let count = |f: &dyn Fn(&Totals) -> u64| -> f64 {
            t0.sum(a, |r| r.totals.as_ref().map_or(0.0, |t| f(t) as f64))
        };
        let secs = |layer: Layer| -> f64 {
            let v: Vec<f64> = traced
                .iter()
                .map(|it| {
                    it.sum(a, |r| {
                        r.totals
                            .as_ref()
                            .map_or(0.0, |t| t.get(layer).self_ns as f64 / 1e9)
                    })
                })
                .collect();
            median(&v)
        };
        for (k, kind) in EVENT_KINDS.iter().enumerate() {
            let layer = Layer::Dispatch(k);
            out.metric(
                format!("events.{kind}.{arm}"),
                "count",
                count(&|t| t.get(layer).calls),
            );
            out.metric(format!("dispatch_s.{kind}.{arm}"), "s", secs(layer));
        }
        out.metric(format!("step.pre_s.{arm}"), "s", secs(Layer::StepPre));
        for (o, op) in SCHED_OPS.iter().enumerate() {
            let layer = Layer::Sched(o);
            out.metric(
                format!("sched.{op}.calls.{arm}"),
                "count",
                count(&|t| t.get(layer).calls),
            );
            out.metric(format!("sched.{op}_s.{arm}"), "s", secs(layer));
        }
        let assigns = count(&|t| t.get(Layer::Sched(0)).calls);
        let hits = count(&|t| t.assign_hits);
        out.metric(
            format!("sched.assign.hit_ratio.{arm}"),
            "ratio",
            if assigns == 0.0 { 0.0 } else { hits / assigns },
        );
        out.metric(
            format!("sched.replay.records.{arm}"),
            "count",
            count(&|t| t.replay_records),
        );
        let news: Vec<f64> = its.iter().map(|it| it.sum(a, |r| r.world_new_s)).collect();
        out.metric(format!("world.new_s.{arm}"), "s", median(&news));
        let heap = its
            .iter()
            .flat_map(|it| it.runs.iter().map(|arms| arms[a].heap_peak_bytes))
            .max()
            .unwrap_or(0);
        out.metric(format!("heap_peak_mb.{arm}"), "MB", heap as f64 / 1e6);
        let snap_secs = |f: &dyn Fn(&SnapStats) -> f64| -> f64 {
            let v: Vec<f64> = traced
                .iter()
                .map(|it| it.sum(a, |r| r.snap.as_ref().map_or(0.0, f)))
                .collect();
            median(&v)
        };
        out.metric(
            format!("snapshot.encode_s.{arm}"),
            "s",
            snap_secs(&|s| s.encode_s),
        );
        out.metric(
            format!("snapshot.decode_s.{arm}"),
            "s",
            snap_secs(&|s| s.decode_s),
        );
        out.metric(
            format!("snapshot.sched_bytes.{arm}"),
            "bytes",
            count(&|t| t.sched_bytes) / n,
        );
        out.metric(
            format!("snapshot.world_bytes.{arm}"),
            "bytes",
            t0.sum(a, |r| r.snap.map_or(0.0, |s| s.world_bytes as f64)) / n,
        );
        let traced_run: Vec<f64> = traced.iter().map(|it| it.sum(a, |r| r.run_s)).collect();
        let plain_run: Vec<f64> = untraced(its).map(|it| it.sum(a, |r| r.run_s)).collect();
        out.metric(
            format!("trace_overhead.{arm}"),
            "ratio",
            median(&traced_run) / median(&plain_run),
        );
    }
    let gens: Vec<f64> = its.iter().map(|it| it.generate_s).collect();
    out.metric("traces.generate_s", "s", median(&gens));
}

/// Compares the first iteration's outputs with the committed rows, when
/// `seed` is the committed file's seed.
fn check_committed(committed: Committed, seed: u64, arms: &[ArmRun], out: &mut Outcome) {
    let (file, rows) = match committed {
        Committed::Baseline => ("BENCH_BASELINE.json", baseline_expect(seed)),
        Committed::Scale(pop) => ("BENCH_SCALE.json", scale_expect(seed, pop)),
    };
    let rows = match rows {
        Ok(Some(rows)) => rows,
        Ok(None) => return, // not the committed seed
        Err(e) => {
            out.check(false, || format!("{file}: {e}"));
            return;
        }
    };
    let base_jct = arms[0].outputs.avg_jct_ms;
    for (a, arm) in ARMS.iter().enumerate() {
        let o = &arms[a].outputs;
        let mine: Vec<(&str, String)> = vec![
            ("avg_jct_ms", format!("{:.1}", o.avg_jct_ms)),
            ("completion_rate", format!("{:.4}", o.completion_rate)),
            (
                "speedup_vs_random",
                format!("{:.4}", base_jct / o.avg_jct_ms),
            ),
            ("aborted_rounds", o.aborted_rounds.to_string()),
            ("assignments", o.assignments.to_string()),
            ("events", o.events.to_string()),
            ("peak_queue_len", o.peak_queue_len.to_string()),
            ("peak_live_devices", o.peak_live_devices.to_string()),
        ];
        let Some(expect) = rows.iter().find(|(name, _)| name == arm) else {
            out.check(false, || format!("{file}: no {arm} row"));
            continue;
        };
        let drift: Vec<String> = mine
            .iter()
            .filter_map(|(k, v)| {
                let want = expect.1.iter().find(|(ek, _)| ek == k)?;
                (want.1 != *v).then(|| format!("{k}: committed {} vs {v}", want.1))
            })
            .collect();
        out.check(drift.is_empty(), || {
            format!("{file} {arm} row drifted: {}", drift.join(", "))
        });
    }
}

type Rows = Vec<(String, Vec<(String, String)>)>;

/// The committed baseline rows as `(name, [(field, formatted value)])`,
/// or `None` when `seed` is not the committed seed.
fn baseline_expect(seed: u64) -> Result<Option<Rows>, String> {
    let text = std::fs::read_to_string("BENCH_BASELINE.json").map_err(|e| e.to_string())?;
    let (file_seed, rows) = parse_baseline(&text)?;
    if file_seed != seed {
        return Ok(None);
    }
    Ok(Some(
        rows.into_iter()
            .map(|r| {
                (
                    r.name,
                    vec![
                        ("avg_jct_ms".into(), r.avg_jct_ms),
                        ("completion_rate".into(), r.completion_rate),
                        ("speedup_vs_random".into(), r.speedup_vs_random),
                        ("aborted_rounds".into(), r.aborted_rounds.to_string()),
                        ("assignments".into(), r.assignments.to_string()),
                        ("events".into(), r.events.to_string()),
                        ("peak_queue_len".into(), r.peak_queue_len.to_string()),
                    ],
                )
            })
            .collect(),
    ))
}

/// The committed sequential scale rows at `population`, or `None` when
/// `seed` is not the committed seed.
fn scale_expect(seed: u64, population: usize) -> Result<Option<Rows>, String> {
    let text = std::fs::read_to_string("BENCH_SCALE.json").map_err(|e| e.to_string())?;
    let (file_seed, rows) = parse_scale(&text)?;
    if file_seed != seed {
        return Ok(None);
    }
    let fields = [
        "events",
        "assignments",
        "aborted_rounds",
        "avg_jct_ms",
        "peak_queue_len",
        "peak_live_devices",
    ];
    Ok(Some(
        rows.into_iter()
            .filter(|r| {
                r.get("population").map(String::as_str) == Some(population.to_string().as_str())
                    && !matches!(r.get("shards"), Some(s) if s != "0")
            })
            .filter_map(|r| {
                let name = r.get("scheduler")?.trim_matches('"').to_string();
                let vals = fields
                    .iter()
                    .filter_map(|f| Some((f.to_string(), r.get(*f)?.clone())))
                    .collect();
                Some((name, vals))
            })
            .collect(),
    ))
}
