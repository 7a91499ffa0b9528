//! The probes the traced runs attach from outside the program: a
//! forwarding [`Scheduler`] that times each call, and a [`SimObserver`]
//! that splits each `World::step` into its pre-dispatch part and the
//! event handler.

use std::cell::RefCell;
use std::rc::Rc;

use venn_core::{
    CheckInRecord, DeviceInfo, JobId, Request, Scheduler, SimTime, SnapError, SnapReader,
    SnapWriter,
};
use venn_sim::{EventKind, SimObserver, World};

use crate::trace::{kind_index, Layer, Tracer};

const ASSIGN: Layer = Layer::Sched(0);
const SUBMIT: Layer = Layer::Sched(1);
const WITHDRAW: Layer = Layer::Sched(2);
const ADD_DEMAND: Layer = Layer::Sched(3);
const CHECK_IN: Layer = Layer::Sched(4);
const REPLAY: Layer = Layer::Sched(5);
const FEEDBACK: Layer = Layer::Sched(6);

/// A transparent timing wrapper around a scheduler.
///
/// Every trait method is forwarded, the defaulted ones included: the
/// kernel consults `has_open_demand` and `observes_check_ins` to gate
/// polls and skip replays, and calls `replay_check_ins` on the sharded
/// plane. A wrapper that fell back to the trait defaults would turn demand
/// gating off and time a different program.
pub struct Timed {
    inner: Box<dyn Scheduler>,
    tracer: Rc<RefCell<Tracer>>,
}

impl Timed {
    /// Wraps `inner`; its calls are recorded into `tracer`.
    pub fn new(inner: Box<dyn Scheduler>, tracer: Rc<RefCell<Tracer>>) -> Self {
        Timed { inner, tracer }
    }

    fn span<R>(&mut self, layer: Layer, f: impl FnOnce(&mut dyn Scheduler) -> R) -> R {
        self.tracer.borrow_mut().open(layer);
        let out = f(&mut *self.inner);
        self.tracer.borrow_mut().close();
        out
    }
}

impl Scheduler for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn submit(&mut self, request: Request, now: SimTime) {
        self.span(SUBMIT, |s| s.submit(request, now));
    }

    fn withdraw(&mut self, job: JobId, now: SimTime) {
        self.span(WITHDRAW, |s| s.withdraw(job, now));
    }

    fn add_demand(&mut self, job: JobId, count: u32, now: SimTime) {
        self.span(ADD_DEMAND, |s| s.add_demand(job, count, now));
    }

    fn on_check_in(&mut self, device: &DeviceInfo, now: SimTime) {
        // Before dispatch, a check-in is a parked poll being replayed.
        let replayed = self.tracer.borrow().current() == Some(Layer::StepPre);
        if replayed {
            self.tracer.borrow_mut().totals_mut().replay_records += 1;
        }
        let layer = if replayed { REPLAY } else { CHECK_IN };
        self.span(layer, |s| s.on_check_in(device, now));
    }

    fn assign(&mut self, device: &DeviceInfo, now: SimTime) -> Option<JobId> {
        let out = self.span(ASSIGN, |s| s.assign(device, now));
        if out.is_some() {
            self.tracer.borrow_mut().totals_mut().assign_hits += 1;
        }
        out
    }

    fn on_response(&mut self, job: JobId, device: &DeviceInfo, response_ms: u64, now: SimTime) {
        self.span(FEEDBACK, |s| s.on_response(job, device, response_ms, now));
    }

    fn on_alloc_complete(&mut self, job: JobId, delay_ms: u64, now: SimTime) {
        self.span(FEEDBACK, |s| s.on_alloc_complete(job, delay_ms, now));
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
        self.tracer.borrow_mut().totals_mut().replay_records += batch.len() as u64;
        self.span(REPLAY, |s| s.replay_check_ins(batch));
    }

    fn save_state(&self, w: &mut SnapWriter) -> Result<(), SnapError> {
        let before = w.len();
        let out = self.inner.save_state(w);
        self.tracer.borrow_mut().totals_mut().sched_bytes += (w.len() - before) as u64;
        out
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// Ends the pre-dispatch span and opens the handler's span when the
/// kernel announces the event it is about to dispatch.
pub struct StepSplit {
    tracer: Rc<RefCell<Tracer>>,
}

impl StepSplit {
    /// A splitter recording into `tracer`.
    pub fn new(tracer: Rc<RefCell<Tracer>>) -> Self {
        StepSplit { tracer }
    }
}

impl SimObserver for StepSplit {
    fn on_event(&mut self, _now: SimTime, kind: &EventKind) {
        let mut t = self.tracer.borrow_mut();
        t.close();
        t.open(Layer::Dispatch(kind_index(kind)));
    }
}

/// One `World::step` inside a `step` span whose first child is the
/// pre-dispatch span; `split` swaps that child for the handler's span
/// once the event is known. A step that dispatches nothing (queue
/// drained, horizon passed) is all pre-dispatch.
pub fn traced_step(
    world: &mut World,
    scheduler: &mut dyn Scheduler,
    split: &mut StepSplit,
    tracer: &RefCell<Tracer>,
) -> bool {
    {
        let mut t = tracer.borrow_mut();
        t.open(Layer::Step);
        t.open(Layer::StepPre);
    }
    let more = world.step(scheduler, &mut [split]);
    let mut t = tracer.borrow_mut();
    t.close();
    t.close();
    more
}
