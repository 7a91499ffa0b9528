//! In-memory span tracer for the traced benchmark runs.
//!
//! Spans are opened and closed around calls into the program's layers
//! (a `World::step`, its pre-dispatch phase, one event handler, one
//! scheduler call). Each span's duration is charged to its layer as
//! *self time*: the span minus the time covered by spans opened inside
//! it. Spans nest strictly, so a stack is enough to know each span's
//! parent; the tracer folds every span into per-layer totals when it
//! closes and keeps only those totals, which are written out when the
//! benchmark ends.

use std::time::Instant;

use venn_sim::EventKind;

/// Event kinds in report order, with the label each metric name uses.
pub const EVENT_KINDS: [&str; 10] = [
    "job_arrival",
    "session_start",
    "env_disturbance",
    "check_in",
    "hold_expire",
    "response",
    "assign_failure",
    "round_deadline",
    "round_start",
    "cohort_wake",
];

/// Index of `kind` in [`EVENT_KINDS`].
pub fn kind_index(kind: &EventKind) -> usize {
    match kind {
        EventKind::JobArrival { .. } => 0,
        EventKind::SessionStart { .. } => 1,
        EventKind::EnvDisturbance { .. } => 2,
        EventKind::CheckIn { .. } => 3,
        EventKind::HoldExpire { .. } => 4,
        EventKind::Response { .. } => 5,
        EventKind::AssignFailure { .. } => 6,
        EventKind::RoundDeadline { .. } => 7,
        EventKind::RoundStart { .. } => 8,
        EventKind::CohortWake { .. } => 9,
    }
}

/// Scheduler operations in report order. `replay` is a supply
/// observation the kernel replays for a parked poll (an `on_check_in`
/// made before dispatch, or a `replay_check_ins` batch); `check_in` is
/// one made by a dispatched `CheckIn` event.
pub const SCHED_OPS: [&str; 7] = [
    "assign",
    "submit",
    "withdraw",
    "add_demand",
    "check_in",
    "replay",
    "feedback",
];

/// A traced layer: one row of the tracer's totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole `World::step` call.
    Step,
    /// The part of a step before its event is dispatched: queue pop,
    /// parked-poll elapse, retire sweep.
    StepPre,
    /// The handler of one event kind (index into [`EVENT_KINDS`]).
    Dispatch(usize),
    /// One scheduler operation (index into [`SCHED_OPS`]).
    Sched(usize),
}

impl Layer {
    fn slot(self) -> usize {
        match self {
            Layer::Step => 0,
            Layer::StepPre => 1,
            Layer::Dispatch(k) => 2 + k,
            Layer::Sched(op) => 2 + EVENT_KINDS.len() + op,
        }
    }
}

const SLOTS: usize = 2 + EVENT_KINDS.len() + SCHED_OPS.len();

/// Calls and self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans closed.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

/// Everything one traced arm run recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Totals {
    slots: Vec<LayerTotal>,
    /// `assign` calls that returned `Some`.
    pub assign_hits: u64,
    /// Check-in records replayed into the scheduler.
    pub replay_records: u64,
    /// Bytes the scheduler appended in `save_state`.
    pub sched_bytes: u64,
}

impl Totals {
    /// The totals of `layer`.
    pub fn get(&self, layer: Layer) -> LayerTotal {
        self.slots.get(layer.slot()).copied().unwrap_or_default()
    }
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
}

/// The span stack and the per-layer totals.
pub struct Tracer {
    origin: Instant,
    stack: Vec<Open>,
    totals: Totals,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            stack: Vec::with_capacity(8),
            totals: Totals {
                slots: vec![LayerTotal::default(); SLOTS],
                ..Totals::default()
            },
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span of `layer` as a child of the innermost open span.
    pub fn open(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and charges its self time.
    ///
    /// # Panics
    ///
    /// Panics if no span is open: opens and closes are paired in this
    /// crate's own code, so an unbalanced close is a bug here.
    pub fn close(&mut self) {
        let end = self.now_ns();
        let span = self.stack.pop().expect("close without a matching open");
        let dur = end.saturating_sub(span.start_ns);
        let total = &mut self.totals.slots[span.layer.slot()];
        total.calls += 1;
        total.self_ns += dur.saturating_sub(span.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// The innermost open span's layer.
    pub fn current(&self) -> Option<Layer> {
        self.stack.last().map(|s| s.layer)
    }

    /// Mutable access to the counters.
    pub fn totals_mut(&mut self) -> &mut Totals {
        &mut self.totals
    }

    /// Takes the totals recorded so far and starts afresh.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn take(&mut self) -> Totals {
        assert!(self.stack.is_empty(), "taking totals with open spans");
        std::mem::replace(&mut self.totals, Tracer::default().totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.open(Layer::Step);
        t.open(Layer::Sched(0));
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.close();
        t.close();
        let totals = t.take();
        let step = totals.get(Layer::Step);
        let assign = totals.get(Layer::Sched(0));
        assert_eq!((step.calls, assign.calls), (1, 1));
        assert!(assign.self_ns >= 5_000_000);
        assert!(step.self_ns < assign.self_ns);
    }
}
