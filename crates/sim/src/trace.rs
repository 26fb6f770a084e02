//! Decision traces: an audit log of *why* a scheduler did what it did.
//!
//! The schedule log (`osr-model::log`) records outcomes; the decision
//! trace records the online decisions that produced them — dispatches
//! with their `λ_ij` values, starts with their chosen speeds, rejections
//! with the counter states that triggered them. Experiments EXP-DUAL and
//! EXP-RULES consume traces; production runs can disable them (the
//! schedulers take `Option<&mut DecisionTrace>`-style sinks or build them
//! internally behind a flag).

use osr_model::{JobId, MachineId, RejectReason};

/// One online decision.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionEvent {
    /// Job dispatched to a machine at arrival.
    Dispatch {
        /// Arrival instant.
        time: f64,
        /// The dispatched job.
        job: JobId,
        /// Chosen machine.
        machine: MachineId,
        /// Winning `λ_ij` (or marginal-cost) value.
        lambda: f64,
        /// Number of machines considered.
        candidates: usize,
    },
    /// Job began executing.
    Start {
        /// Start instant.
        time: f64,
        /// The started job.
        job: JobId,
        /// Executing machine.
        machine: MachineId,
        /// Constant execution speed.
        speed: f64,
    },
    /// Job completed.
    Complete {
        /// Completion instant.
        time: f64,
        /// The completed job.
        job: JobId,
        /// Machine it ran on.
        machine: MachineId,
    },
    /// Job rejected.
    Reject {
        /// Rejection instant.
        time: f64,
        /// The rejected job.
        job: JobId,
        /// Machine it was queued/running on.
        machine: MachineId,
        /// Which rule fired.
        reason: RejectReason,
        /// Rule counter at the moment of rejection (`v_k` for Rule 1,
        /// `c_i` for Rule 2).
        counter: f64,
    },
}

impl DecisionEvent {
    /// Time of the event.
    pub fn time(&self) -> f64 {
        match self {
            DecisionEvent::Dispatch { time, .. }
            | DecisionEvent::Start { time, .. }
            | DecisionEvent::Complete { time, .. }
            | DecisionEvent::Reject { time, .. } => *time,
        }
    }

    /// Job the event concerns.
    pub fn job(&self) -> JobId {
        match self {
            DecisionEvent::Dispatch { job, .. }
            | DecisionEvent::Start { job, .. }
            | DecisionEvent::Complete { job, .. }
            | DecisionEvent::Reject { job, .. } => *job,
        }
    }
}

/// Append-only sequence of decisions, in simulation order.
#[derive(Debug, Clone, Default)]
pub struct DecisionTrace {
    events: Vec<DecisionEvent>,
}

impl DecisionTrace {
    /// Empty trace.
    pub fn new() -> Self {
        DecisionTrace::default()
    }

    /// Appends an event. Events must be pushed in non-decreasing time
    /// order (debug-asserted; simulations are already time-ordered).
    pub fn push(&mut self, event: DecisionEvent) {
        debug_assert!(
            self.events
                .last()
                .is_none_or(|last| last.time() <= event.time() + osr_model::EPS),
            "trace events out of order"
        );
        self.events.push(event);
    }

    /// All events.
    pub fn events(&self) -> &[DecisionEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events concerning one job, in order.
    pub fn for_job(&self, job: JobId) -> impl Iterator<Item = &DecisionEvent> {
        self.events.iter().filter(move |e| e.job() == job)
    }

    /// All dispatch events.
    pub fn dispatches(&self) -> impl Iterator<Item = &DecisionEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Dispatch { .. }))
    }

    /// All rejection events.
    pub fn rejections(&self) -> impl Iterator<Item = &DecisionEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Reject { .. }))
    }

    /// Count of rejections attributed to `reason`.
    pub fn rejections_by(&self, reason: RejectReason) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, DecisionEvent::Reject { reason: r, .. } if *r == reason))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DecisionTrace {
        let mut t = DecisionTrace::new();
        t.push(DecisionEvent::Dispatch {
            time: 0.0,
            job: JobId(0),
            machine: MachineId(0),
            lambda: 1.5,
            candidates: 2,
        });
        t.push(DecisionEvent::Start {
            time: 0.0,
            job: JobId(0),
            machine: MachineId(0),
            speed: 1.0,
        });
        t.push(DecisionEvent::Reject {
            time: 2.0,
            job: JobId(0),
            machine: MachineId(0),
            reason: RejectReason::RuleOne,
            counter: 10.0,
        });
        t
    }

    #[test]
    fn filters_by_kind_and_job() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert_eq!(t.dispatches().count(), 1);
        assert_eq!(t.rejections().count(), 1);
        assert_eq!(t.rejections_by(RejectReason::RuleOne), 1);
        assert_eq!(t.rejections_by(RejectReason::RuleTwo), 0);
        assert_eq!(t.for_job(JobId(0)).count(), 3);
        assert_eq!(t.for_job(JobId(1)).count(), 0);
    }

    #[test]
    fn event_accessors() {
        let t = sample();
        assert_eq!(t.events()[2].time(), 2.0);
        assert_eq!(t.events()[2].job(), JobId(0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_debug_panics() {
        let mut t = sample();
        t.push(DecisionEvent::Complete {
            time: 1.0,
            job: JobId(0),
            machine: MachineId(0),
        });
    }
}
