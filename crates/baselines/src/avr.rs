//! AVERAGE-RATE-style energy baseline for §4.
//!
//! Each job runs at its minimal constant speed `p_ij/(d_j − r_j)` over
//! its **entire window** `[r_j, d_j]` — a valid §4 schedule (jobs may
//! overlap on a machine; each runs continuously at constant speed).
//! Machines are chosen greedily by marginal energy. This is the
//! classic AVR heuristic of Yao–Demers–Shenker \[17\] adapted to
//! unrelated machines, and the natural comparator for the §4 greedy:
//! AVR fixes the strategy shape, §4 optimizes it.

use osr_core::energymin::SpeedProfile;
use osr_model::{Execution, FinishedLog, Instance, InstanceKind, MachineId, ScheduleLog};
use osr_sim::{DecisionEvent, DecisionTrace, OnlineScheduler};

/// AVR baseline scheduler.
#[derive(Debug, Clone)]
pub struct AvrScheduler {
    /// Power exponent.
    pub alpha: f64,
}

impl AvrScheduler {
    /// Runs AVR, returning the log, trace and total energy.
    pub fn run(&self, instance: &Instance) -> (FinishedLog, DecisionTrace, f64) {
        assert_eq!(instance.kind(), InstanceKind::Energy);
        let m = instance.machines();
        let mut profiles: Vec<SpeedProfile> = (0..m).map(|_| SpeedProfile::new()).collect();
        let mut log = ScheduleLog::new(m, instance.len());
        let mut trace = DecisionTrace::new();

        for job in instance.jobs() {
            let r = job.release;
            let d = job.deadline.expect("energy instance");
            let mut best: Option<(usize, f64, f64)> = None; // (machine, speed, marginal)
            for (mi, p) in job.sizes.iter_finite() {
                let v = p / (d - r);
                let marginal = profiles[mi].marginal_energy(r, d, v, self.alpha);
                if best.is_none_or(|(_, _, bm)| marginal < bm) {
                    best = Some((mi, v, marginal));
                }
            }
            let Some((mi, v, marginal)) = best else {
                osr_sim::reject_ineligible(&mut log, &mut trace, job.id, r);
                continue;
            };
            profiles[mi].add(r, d, v);
            trace.push(DecisionEvent::Dispatch {
                time: r,
                job: job.id,
                machine: MachineId(mi as u32),
                lambda: marginal,
                candidates: m,
            });
            log.complete(
                job.id,
                Execution {
                    machine: MachineId(mi as u32),
                    start: r,
                    completion: d,
                    speed: v,
                },
            );
        }

        let energy: f64 = profiles.iter().map(|p| p.energy(self.alpha)).sum();
        (log.finish().expect("all assigned"), trace, energy)
    }
}

impl OnlineScheduler for AvrScheduler {
    fn name(&self) -> String {
        format!("avr(alpha={})", self.alpha)
    }

    fn schedule(&mut self, instance: &Instance) -> FinishedLog {
        self.run(instance).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::{InstanceBuilder, JobId};
    use osr_sim::{validate_log, ValidationConfig};

    #[test]
    fn single_job_matches_yds() {
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.0, 4.0, vec![2.0])
            .build()
            .unwrap();
        let (log, _, energy) = AvrScheduler { alpha: 2.0 }.run(&inst);
        let rep = validate_log(&inst, &log, &ValidationConfig::energy());
        assert!(rep.is_valid(), "{:?}", rep.errors);
        assert!((energy - 1.0).abs() < 1e-9);
        let e = log.fate(JobId(0)).execution().unwrap();
        assert_eq!(e.start, 0.0);
        assert_eq!(e.completion, 4.0);
        assert!((e.speed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_windows_pay_superadditive_energy() {
        let inst = InstanceBuilder::new(1, InstanceKind::Energy)
            .deadline_job(0.0, 2.0, vec![1.0])
            .deadline_job(0.0, 2.0, vec![1.0])
            .build()
            .unwrap();
        let (_, _, energy) = AvrScheduler { alpha: 2.0 }.run(&inst);
        // Both at speed 0.5 over [0,2]: (1.0)²·2 = 2, versus 2·0.5²·2=1
        // if they were separable — AVR pays the convexity penalty.
        assert!((energy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multi_machine_spreads_load() {
        let inst = InstanceBuilder::new(2, InstanceKind::Energy)
            .deadline_job(0.0, 2.0, vec![1.0, 1.0])
            .deadline_job(0.0, 2.0, vec![1.0, 1.0])
            .build()
            .unwrap();
        let (log, _, energy) = AvrScheduler { alpha: 2.0 }.run(&inst);
        let m0 = log.fate(JobId(0)).execution().unwrap().machine;
        let m1 = log.fate(JobId(1)).execution().unwrap().machine;
        assert_ne!(m0, m1);
        assert!((energy - 1.0).abs() < 1e-9); // 2 × (0.5²·2)
    }

    #[test]
    fn respects_restricted_assignment() {
        let inst = InstanceBuilder::new(2, InstanceKind::Energy)
            .deadline_job(0.0, 2.0, vec![f64::INFINITY, 1.0])
            .build()
            .unwrap();
        let (log, _, _) = AvrScheduler { alpha: 2.0 }.run(&inst);
        assert_eq!(
            log.fate(JobId(0)).execution().unwrap().machine,
            MachineId(1)
        );
    }
}
