//! The kernel's half of the supply estimator's contract: check-in times
//! reach the scheduler non-decreasing.
//!
//! `SupplyEstimator` stores each check-in as the gap since the previous
//! one, so an out-of-order time would not just be mis-pruned — it could
//! not be encoded at all. This suite wraps the scheduler in a forwarding
//! impl that remembers the latest check-in time it has seen and asserts
//! that every `on_check_in` and every `replay_check_ins` record is at or
//! after it — for each queue kind, population mode, and execution mode,
//! and across a halfway `snapshot_world` → `resume_world`, where the
//! resumed run must continue from the time the crashed one reached.

mod common;

use common::parity::{contended_workload, SCHED_SEED_SALT};

use venn::bench::SchedKind;
use venn::core::snapshot::{SnapError, SnapReader, SnapWriter};
use venn::core::{CheckInRecord, DeviceInfo, JobId, Request, Scheduler, SimTime};
use venn::env::EnvPreset;
use venn::sim::{resume_world, snapshot_world, ExecMode, PopMode, QueueKind, SimConfig, World};

/// Forwards every call to `inner`, asserting check-in times never
/// decrease and counting how many arrived by each path.
struct Monotone {
    inner: Box<dyn Scheduler>,
    last: SimTime,
    live: u64,
    replayed: u64,
}

impl Monotone {
    fn new(inner: Box<dyn Scheduler>, last: SimTime) -> Self {
        Monotone {
            inner,
            last,
            live: 0,
            replayed: 0,
        }
    }

    fn observe(&mut self, now: SimTime, path: &str) {
        assert!(
            now >= self.last,
            "{path} check-in at {now} ms after one at {} ms",
            self.last
        );
        self.last = now;
    }
}

impl Scheduler for Monotone {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn submit(&mut self, request: Request, now: SimTime) {
        self.inner.submit(request, now);
    }
    fn withdraw(&mut self, job: JobId, now: SimTime) {
        self.inner.withdraw(job, now);
    }
    fn add_demand(&mut self, job: JobId, count: u32, now: SimTime) {
        self.inner.add_demand(job, count, now);
    }
    fn on_check_in(&mut self, device: &DeviceInfo, now: SimTime) {
        self.observe(now, "live");
        self.live += 1;
        self.inner.on_check_in(device, now);
    }
    fn assign(&mut self, device: &DeviceInfo, now: SimTime) -> Option<JobId> {
        self.inner.assign(device, now)
    }
    fn on_response(&mut self, job: JobId, device: &DeviceInfo, response_ms: u64, now: SimTime) {
        self.inner.on_response(job, device, response_ms, now);
    }
    fn on_alloc_complete(&mut self, job: JobId, delay_ms: u64, now: SimTime) {
        self.inner.on_alloc_complete(job, delay_ms, now);
    }
    fn pending_demand(&self, job: JobId) -> Option<u32> {
        self.inner.pending_demand(job)
    }
    fn has_open_demand(&self) -> bool {
        self.inner.has_open_demand()
    }
    fn observes_check_ins(&self) -> bool {
        self.inner.observes_check_ins()
    }
    fn replay_check_ins(&mut self, batch: &[CheckInRecord]) {
        for r in batch {
            self.observe(r.time, "replayed");
        }
        self.replayed += batch.len() as u64;
        self.inner.replay_check_ins(batch);
    }
    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        self.inner.save_state(w)
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

const QUEUES: [QueueKind; 2] = [QueueKind::Wheel, QueueKind::Heap];
const POP_MODES: [PopMode; 3] = [PopMode::Eager, PopMode::SplitEager, PopMode::Lazy];
const EXECS: [ExecMode; 3] = [
    ExecMode::Sequential,
    ExecMode::Sharded { shards: 1 },
    ExecMode::Sharded { shards: 4 },
];

#[test]
fn check_in_times_never_decrease_across_kernel_modes_and_resume() {
    for queue in QUEUES {
        for pop_mode in POP_MODES {
            for exec in EXECS {
                let ctx = format!("{queue:?} {pop_mode:?} {exec:?}");
                let sim = SimConfig {
                    population: 400,
                    days: 2,
                    seed: 7,
                    env: EnvPreset::Chaos.config(),
                    queue,
                    pop_mode,
                    exec,
                    ..SimConfig::default()
                };
                let workload = contended_workload(sim.seed);
                let build = || SchedKind::Venn.build(sim.seed ^ SCHED_SEED_SALT);

                let mut sched = Monotone::new(build(), 0);
                let mut world = World::new(sim, &workload, sched.name());
                let halfway = sim.horizon_ms() / 2;
                while world.now() < halfway && world.step(&mut sched, &mut []) {}
                assert!(world.now() >= halfway, "{ctx}: run ended before halfway");
                let bytes = snapshot_world(&world, &sched).expect("snapshot at halfway");
                let (mut live, mut replayed) = (sched.live, sched.replayed);

                // The resumed scheduler inherits the crashed one's latest
                // check-in time, so the assertion spans the resume.
                let mut sched = Monotone::new(build(), sched.last);
                let mut world = resume_world(&bytes, sim, &workload, &mut sched)
                    .unwrap_or_else(|e| panic!("{ctx}: resume: {e}"));
                while world.step(&mut sched, &mut []) {}
                live += sched.live;
                replayed += sched.replayed;
                assert!(live > 0, "{ctx}: no live check-ins observed");
                // The sequential plane feeds parked check-ins through
                // `on_check_in`; only the shard plane batches them.
                let sharded = matches!(exec, ExecMode::Sharded { .. });
                assert_eq!(replayed > 0, sharded, "{ctx}: replayed {replayed}");
            }
        }
    }
}
