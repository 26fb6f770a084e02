//! # online-sched-rejection
//!
//! A complete, tested Rust reproduction of *"Online Non-preemptive
//! Scheduling on Unrelated Machines with Rejections"* (Lucarelli,
//! Moseley, Thang, Srivastav, Trystram — SPAA 2018, arXiv:1802.10309).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`model`] | `osr-model` | jobs, instances, schedule logs, metrics, I/O |
//! | [`dstruct`] | `osr-dstruct` | augmented treap, tournament dispatch index |
//! | [`sim`] | `osr-sim` | event-loop driver (flow family and queue baselines), scheduler trait, validator, Gantt, stats |
//! | [`core`] | `osr-core` | the paper's three algorithms + dual accounting |
//! | [`workload`] | `osr-workload` | generators and the Lemma 1/2 adversaries |
//! | [`baselines`] | `osr-baselines` | greedy/immediate/speed-aug comparators, exact OPT, lower bounds |
//!
//! ## Quickstart
//!
//! ```
//! use online_sched_rejection::prelude::*;
//!
//! // Three jobs race onto two unrelated machines.
//! let instance = InstanceBuilder::new(2, InstanceKind::FlowTime)
//!     .job(0.0, vec![2.0, 8.0])
//!     .job(0.0, vec![9.0, 3.0])
//!     .job(1.0, vec![4.0, 4.0])
//!     .build()
//!     .unwrap();
//!
//! // The SPAA'18 algorithm with rejection budget ε = 0.25.
//! let scheduler = FlowScheduler::with_eps(0.25).unwrap();
//! let outcome = scheduler.run(&instance);
//!
//! // The schedule satisfies every model invariant…
//! let report = validate_log(&instance, &outcome.log, &ValidationConfig::flow_time());
//! assert!(report.is_valid());
//!
//! // …and the run certifies a lower bound on OPT via its feasible dual.
//! let metrics = Metrics::compute(&instance, &outcome.log, 2.0);
//! let lb = flow_lower_bound(&instance, Some(outcome.dual.objective()));
//! assert!(metrics.flow.flow_all >= lb.value - 1e-9);
//! ```

#![warn(missing_docs)]

pub use osr_baselines as baselines;
pub use osr_core as core;
pub use osr_dstruct as dstruct;
pub use osr_model as model;
pub use osr_sim as sim;
pub use osr_workload as workload;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use osr_baselines::{
        flow_lower_bound, optimal_flow, srpt_flow, yds_energy, AvrScheduler, DispatchRule,
        GreedyScheduler, ImmediateRejectScheduler, LocalOrder, SpeedAugScheduler,
    };
    pub use osr_core::energyflow::{EnergyFlowParams, EnergyFlowScheduler};
    pub use osr_core::energymin::{EnergyMinParams, EnergyMinScheduler};
    pub use osr_core::{bounds, FlowOutcome, FlowParams, FlowScheduler, QueueBackend, Thresholds};
    pub use osr_model::{
        Instance, InstanceBuilder, InstanceKind, Job, JobId, MachineId, Metrics, ScheduleLog,
    };
    pub use osr_sim::{
        render_gantt, run_validated, validate_log, DecisionTrace, OnlineScheduler, SummaryStats,
        ValidationConfig,
    };
    pub use osr_workload::{EnergyWorkload, FlowWorkload};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links_everything() {
        let inst = InstanceBuilder::new(1, InstanceKind::FlowTime)
            .job(0.0, vec![1.0])
            .build()
            .unwrap();
        let out = FlowScheduler::with_eps(0.5).unwrap().run(&inst);
        assert_eq!(out.log.len(), 1);
    }
}
