//! Capacity-change events: the elastic machine pool.
//!
//! The paper's model fixes the machine set `M` for the whole horizon.
//! This module relaxes that for robustness experiments: a
//! [`CapacityPlan`] is a time-ordered stream of [`CapacityEvent`]s that
//! machines **join**, **drain**, or **crash** mid-run. The driver
//! ([`crate::drive`]) replays the stream alongside arrivals and
//! completions, with these semantics:
//!
//! * **Join** — the machine enters the pool at `time` and may receive
//!   dispatches from then on. A machine whose *first* event is a join
//!   starts the run offline.
//! * **Drain** — graceful exit: a job already running on the machine
//!   finishes (its execution may extend past the drain instant), queued
//!   work is re-dispatched at the drain instant, and no new dispatches
//!   land afterwards.
//! * **Crash** — abrupt exit: the running job is killed at `time`
//!   (recorded as a partial run), and both it and the machine's queue
//!   are re-dispatched. No execution may extend past a crash.
//!
//! Re-dispatched jobs go back through the scheduler's normal dispatch
//! argmin (their redispatch count is tracked on the
//! [`ScheduleLog`](osr_model::ScheduleLog)); a job whose eligible
//! machines are all offline is rejected with
//! [`RejectReason::MachineLost`](osr_model::RejectReason::MachineLost) —
//! the *no-lost-job invariant*: every arrived job completes, is
//! rejected with a recorded reason, or is re-dispatched; none vanish.
//!
//! Plans replay from **failure traces** (a tiny CSV dialect, see
//! [`CapacityPlan::parse`]) or are generated from scenario tokens
//! (`churn:<rate>` in `osr-workload`). The
//! [`validator`](crate::validate) consumes the same plan to check that
//! every run sits inside an online window of its machine.

use osr_model::{MachineId, OnlineSet};

/// What happens to a machine at a [`CapacityEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityChange {
    /// The machine enters (or re-enters) the pool.
    Join,
    /// Graceful exit: running job finishes, queue re-dispatched.
    Drain,
    /// Abrupt exit: running job killed and re-dispatched with the queue.
    Crash,
}

impl std::fmt::Display for CapacityChange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CapacityChange::Join => "join",
            CapacityChange::Drain => "drain",
            CapacityChange::Crash => "crash",
        })
    }
}

/// One capacity change: machine `machine` undergoes `change` at `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityEvent {
    /// Simulation instant of the change.
    pub time: f64,
    /// Affected machine.
    pub machine: MachineId,
    /// What happens.
    pub change: CapacityChange,
}

/// A maximal interval during which a machine is online.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineWindow {
    /// First instant the machine is online.
    pub from: f64,
    /// Instant the window closes (`f64::INFINITY` if never).
    pub to: f64,
    /// Whether the window closed with a crash (no run may extend past
    /// `to`) rather than a drain (a running job may finish after `to`).
    pub crash: bool,
}

/// A time-ordered capacity-change stream for one simulation run.
///
/// Events at equal times keep their construction order (the same FIFO
/// discipline as the driver's completion queue); schedulers apply
/// capacity changes at `t` **before** dispatching arrivals at `t`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityPlan {
    events: Vec<CapacityEvent>,
}

impl CapacityPlan {
    /// A plan with no churn: the static fixed-pool model.
    pub fn empty() -> Self {
        CapacityPlan::default()
    }

    /// Builds a plan from events, stably sorting by time. Rejects
    /// non-finite or negative times.
    pub fn new(mut events: Vec<CapacityEvent>) -> Result<Self, String> {
        for e in &events {
            if !e.time.is_finite() || e.time < 0.0 {
                return Err(format!(
                    "capacity event at invalid time {} (machine {})",
                    e.time, e.machine
                ));
            }
        }
        events.sort_by(|a, b| a.time.total_cmp(&b.time));
        Ok(CapacityPlan { events })
    }

    /// The events in replay order.
    pub fn events(&self) -> &[CapacityEvent] {
        &self.events
    }

    /// Whether the plan has no events (static pool).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Largest machine id the plan references.
    pub fn max_machine(&self) -> Option<usize> {
        self.events.iter().map(|e| e.machine.idx()).max()
    }

    /// Checks every referenced machine is in `0..m` (machine ids index
    /// each job's `sizes` row, so the plan cannot invent machines the
    /// instance does not declare).
    pub fn check_machines(&self, m: usize) -> Result<(), String> {
        match self.max_machine() {
            Some(mx) if mx >= m => Err(format!(
                "capacity plan references machine {mx} but the instance has {m}"
            )),
            _ => Ok(()),
        }
    }

    /// Whether machine `i` is online at the start of the run. A machine
    /// whose **first** event is a join starts offline; every other
    /// machine (no events, or first event drain/crash) starts online.
    pub fn starts_online(&self, i: usize) -> bool {
        match self.events.iter().find(|e| e.machine.idx() == i) {
            Some(e) => e.change != CapacityChange::Join,
            None => true,
        }
    }

    /// The initial [`OnlineSet`] for an `m`-machine instance.
    pub fn initial_online(&self, m: usize) -> OnlineSet {
        let mut set = OnlineSet::all_offline(m);
        for i in 0..m {
            if self.starts_online(i) {
                set.set_online(i);
            }
        }
        set
    }

    /// The maximal online windows of machine `i`, in time order.
    /// No-op events (join while online, drain/crash while offline) are
    /// ignored. The final window extends to `f64::INFINITY` if the
    /// machine is online when the plan runs out.
    pub fn online_windows(&self, i: usize) -> Vec<OnlineWindow> {
        let mut windows = Vec::new();
        let mut open_from = self.starts_online(i).then_some(0.0);
        for e in self.events.iter().filter(|e| e.machine.idx() == i) {
            match (e.change, open_from) {
                (CapacityChange::Join, None) => open_from = Some(e.time),
                (CapacityChange::Drain | CapacityChange::Crash, Some(from)) => {
                    windows.push(OnlineWindow {
                        from,
                        to: e.time,
                        crash: e.change == CapacityChange::Crash,
                    });
                    open_from = None;
                }
                _ => {} // no-op: join while online, drain/crash while offline
            }
        }
        if let Some(from) = open_from {
            windows.push(OnlineWindow {
                from,
                to: f64::INFINITY,
                crash: false,
            });
        }
        windows
    }

    /// Whether a run `[start, end]` on machine `i` is consistent with
    /// the plan: it must start inside an online window, and may extend
    /// past the window's close only if the window ended with a drain
    /// (graceful exit lets the running job finish; a crash does not).
    pub fn run_within_windows(&self, i: usize, start: f64, end: f64) -> bool {
        self.online_windows(i).iter().any(|w| {
            w.from - osr_model::EPS <= start
                && start <= w.to + osr_model::EPS
                && (!w.crash || end <= w.to + osr_model::EPS)
        })
    }

    /// Parses a failure trace.
    ///
    /// Format: one event per line, `time,machine,kind` with `kind` one
    /// of `join` / `drain` / `crash`; blank lines and `#` comments are
    /// skipped, and an optional `time,machine,kind` header line is
    /// tolerated. Events are replayed in time order (ties keep file
    /// order).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            if lineno == 0 && fields == ["time", "machine", "kind"] {
                continue;
            }
            let [time, machine, kind] = fields[..] else {
                return Err(format!(
                    "line {}: expected `time,machine,kind`, got `{line}`",
                    lineno + 1
                ));
            };
            let time = osr_model::parse_decimal(time)
                .filter(|t| t.is_finite() && *t >= 0.0)
                .ok_or_else(|| format!("line {}: bad time `{time}`", lineno + 1))?;
            let machine: u32 = machine
                .parse()
                .map_err(|e| format!("line {}: bad machine `{machine}`: {e}", lineno + 1))?;
            let change = match kind {
                "join" => CapacityChange::Join,
                "drain" => CapacityChange::Drain,
                "crash" => CapacityChange::Crash,
                other => {
                    return Err(format!(
                        "line {}: unknown capacity kind `{other}` (join|drain|crash)",
                        lineno + 1
                    ))
                }
            };
            events.push(CapacityEvent {
                time,
                machine: MachineId(machine),
                change,
            });
        }
        CapacityPlan::new(events)
    }

    /// Serializes the plan in the [`CapacityPlan::parse`] format.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("time,machine,kind\n");
        for e in &self.events {
            let time = osr_model::Decimal(e.time);
            out.push_str(&format!("{time},{},{}\n", e.machine.idx(), e.change));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, machine: u32, change: CapacityChange) -> CapacityEvent {
        CapacityEvent {
            time,
            machine: MachineId(machine),
            change,
        }
    }

    #[test]
    fn events_sort_stably_by_time() {
        let plan = CapacityPlan::new(vec![
            ev(5.0, 1, CapacityChange::Crash),
            ev(2.0, 0, CapacityChange::Drain),
            ev(5.0, 2, CapacityChange::Join),
        ])
        .unwrap();
        let ms: Vec<u32> = plan.events().iter().map(|e| e.machine.0).collect();
        assert_eq!(ms, [0, 1, 2], "ties keep construction order");
    }

    #[test]
    fn first_event_join_means_starts_offline() {
        let plan = CapacityPlan::new(vec![
            ev(3.0, 1, CapacityChange::Join),
            ev(7.0, 2, CapacityChange::Crash),
        ])
        .unwrap();
        assert!(plan.starts_online(0), "no events → online");
        assert!(!plan.starts_online(1), "first event join → offline");
        assert!(plan.starts_online(2), "first event crash → online");
        let online = plan.initial_online(3);
        assert!(online.is_online(0) && !online.is_online(1) && online.is_online(2));
    }

    #[test]
    fn online_windows_cover_join_drain_crash_cycles() {
        let plan = CapacityPlan::new(vec![
            ev(2.0, 0, CapacityChange::Crash),
            ev(5.0, 0, CapacityChange::Join),
            ev(9.0, 0, CapacityChange::Drain),
            ev(9.5, 0, CapacityChange::Drain), // no-op: already offline
            ev(12.0, 0, CapacityChange::Join),
        ])
        .unwrap();
        let w = plan.online_windows(0);
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].from, w[0].to, w[0].crash), (0.0, 2.0, true));
        assert_eq!((w[1].from, w[1].to, w[1].crash), (5.0, 9.0, false));
        assert_eq!(
            (w[2].from, w[2].to, w[2].crash),
            (12.0, f64::INFINITY, false)
        );
    }

    #[test]
    fn run_within_windows_distinguishes_drain_from_crash() {
        let plan = CapacityPlan::new(vec![
            ev(4.0, 0, CapacityChange::Drain),
            ev(4.0, 1, CapacityChange::Crash),
        ])
        .unwrap();
        // Started before the drain, finishes after: legal (graceful).
        assert!(plan.run_within_windows(0, 3.0, 6.0));
        // Started before the crash, finishes after: illegal.
        assert!(!plan.run_within_windows(1, 3.0, 6.0));
        // Fully inside the crash window: legal.
        assert!(plan.run_within_windows(1, 1.0, 4.0));
        // Started after the machine left: illegal either way.
        assert!(!plan.run_within_windows(0, 5.0, 6.0));
        assert!(!plan.run_within_windows(1, 5.0, 6.0));
    }

    #[test]
    fn trace_round_trips_through_csv() {
        let plan = CapacityPlan::new(vec![
            ev(1.5, 2, CapacityChange::Crash),
            ev(3.0, 0, CapacityChange::Drain),
            ev(8.0, 2, CapacityChange::Join),
        ])
        .unwrap();
        let text = plan.to_csv();
        let back = CapacityPlan::parse(&text).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn parse_skips_comments_and_rejects_garbage() {
        let plan = CapacityPlan::parse("# failure trace\n\n2.0, 1, crash\n").unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.events()[0].change, CapacityChange::Crash);
        assert!(CapacityPlan::parse("2.0,1,explode").is_err());
        assert!(CapacityPlan::parse("x,1,crash").is_err());
        assert!(CapacityPlan::parse("2.0,1").is_err());
        for bad in ["1e309", "NaN", "infinity", "inf", "-1"] {
            let err = CapacityPlan::parse(&format!("1,0,drain\n{bad},0,join\n")).unwrap_err();
            assert!(err.starts_with("line 2: bad time"), "{bad}: {err}");
        }
        assert!(CapacityPlan::new(vec![ev(-1.0, 0, CapacityChange::Join)]).is_err());
        assert!(CapacityPlan::new(vec![ev(f64::NAN, 0, CapacityChange::Join)]).is_err());
    }

    #[test]
    fn check_machines_bounds_the_universe() {
        let plan = CapacityPlan::new(vec![ev(1.0, 7, CapacityChange::Crash)]).unwrap();
        assert!(plan.check_machines(8).is_ok());
        assert!(plan.check_machines(7).is_err());
        assert_eq!(plan.max_machine(), Some(7));
        assert!(CapacityPlan::empty().check_machines(0).is_ok());
    }
}
