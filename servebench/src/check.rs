//! The benchmark's own output checker, written apart from
//! `osr_sim::validate` so that a fault shared by the scheduler and the
//! repository's validator still shows here.
//!
//! It parses the served log text itself and checks that every job has
//! exactly one fate; that each run (complete or cut short by a
//! rejection) sits on a machine where the job's size is finite, starts
//! no earlier than its release, processes `p_ij` at its speed and lies
//! inside its machine's online windows; that no two runs on one machine
//! overlap; and that rule rejections stay within the scheduler's
//! budget. It then recomputes the objective from the log.

use std::collections::BTreeMap;

use osr_sim::{CapacityChange, CapacityPlan};

use crate::workload::{Algo, JobRow};

/// Absolute-plus-relative tolerance for times computed in floating point.
fn tol(x: f64) -> f64 {
    1e-9 * x.abs().max(1.0)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Completed,
    RuleReject,
    Ineligible,
    MachineLost,
}

/// A machine-occupying interval from the log.
#[derive(Debug, Clone, Copy)]
struct Run {
    job: usize,
    machine: u32,
    start: f64,
    end: f64,
    speed: f64,
    /// A completed run must process all of `p_ij`; a partial one less.
    complete: bool,
}

fn field<T: std::str::FromStr>(f: &[&str], k: usize, line: usize) -> Result<T, String> {
    f[k].parse()
        .map_err(|_| format!("log line {line}: bad field {k} `{}`", f[k]))
}

/// The objective recomputed from a checked log.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// The scheduler's objective over the log (see [`objective`]).
    pub objective: f64,
    /// [`lower_bound`] over the jobs the log completed.
    pub bound: f64,
}

/// Checks `log` (the text `osr serve` printed) against the jobs, plan
/// and scheduler, and recomputes the objective.
pub fn check(
    log: &str,
    jobs: &[JobRow],
    plan: &CapacityPlan,
    algo: Algo,
) -> Result<Outcome, String> {
    let mut lines = log.lines();
    let header = lines.next().ok_or("empty log")?;
    let n_hdr = header
        .split_whitespace()
        .find_map(|t| t.strip_prefix("n="))
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(|| format!("log header `{header}` lacks n="))?;
    if n_hdr != jobs.len() {
        return Err(format!(
            "log covers {n_hdr} jobs, the instance has {}",
            jobs.len()
        ));
    }

    let mut fates: Vec<Option<Fate>> = vec![None; jobs.len()];
    let mut runs: Vec<Run> = Vec::new();
    let mut reject_time = vec![f64::NAN; jobs.len()];
    for (k, line) in lines.enumerate() {
        let no = k + 2;
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 12 {
            return Err(format!("log line {no}: {} fields, want 12", f.len()));
        }
        let j: usize = field(&f, 0, no)?;
        let slot = fates
            .get_mut(j)
            .ok_or_else(|| format!("log line {no}: job {j} is not in the instance"))?;
        if slot.is_some() {
            return Err(format!("job {j} has more than one fate"));
        }
        let fate = match (f[1], f[6]) {
            ("c", "-") => {
                runs.push(Run {
                    job: j,
                    machine: field(&f, 2, no)?,
                    start: field(&f, 3, no)?,
                    end: field(&f, 4, no)?,
                    speed: field(&f, 5, no)?,
                    complete: true,
                });
                Fate::Completed
            }
            ("r", reason) => {
                reject_time[j] = field(&f, 4, no)?;
                if f[7] != "-" {
                    runs.push(Run {
                        job: j,
                        machine: field(&f, 7, no)?,
                        start: field(&f, 8, no)?,
                        end: field(&f, 9, no)?,
                        speed: field(&f, 10, no)?,
                        complete: false,
                    });
                }
                match reason {
                    "rule-1" | "rule-2" => Fate::RuleReject,
                    "ineligible" => Fate::Ineligible,
                    "machine-lost" => Fate::MachineLost,
                    other => return Err(format!("job {j}: unexpected rejection `{other}`")),
                }
            }
            (kind, _) => return Err(format!("log line {no}: bad fate `{kind}`")),
        };
        *slot = Some(fate);
    }
    if let Some(j) = fates.iter().position(Option::is_none) {
        return Err(format!("job {j} has no fate"));
    }
    let fates: Vec<Fate> = fates
        .into_iter()
        .map(|f| f.expect("checked above"))
        .collect();

    for (j, (&fate, job)) in fates.iter().zip(jobs).enumerate() {
        match fate {
            Fate::Ineligible if !job.finite.is_empty() => {
                return Err(format!(
                    "job {j} rejected as ineligible but has eligible machines"
                ))
            }
            Fate::MachineLost if plan.is_empty() => {
                return Err(format!(
                    "job {j} lost its machines in a run without capacity events"
                ))
            }
            Fate::Completed => {}
            _ if reject_time[j] + tol(reject_time[j]) < job.release => {
                return Err(format!(
                    "job {j} rejected at {} before its release",
                    reject_time[j]
                ))
            }
            _ => {}
        }
    }

    let windows = online_windows(plan);
    let unit_speed = !matches!(algo, Algo::EnergyFlow { .. });
    for r in &runs {
        let job = &jobs[r.job];
        let p = job.size_on(r.machine).ok_or_else(|| {
            format!(
                "job {} ran on machine {} where it is ineligible",
                r.job, r.machine
            )
        })?;
        if r.start + tol(r.start) < job.release {
            return Err(format!(
                "job {} starts at {} before its release {}",
                r.job, r.start, job.release
            ));
        }
        if r.speed.is_nan() || r.speed <= 0.0 || (unit_speed && r.speed != 1.0) {
            return Err(format!("job {} runs at speed {}", r.job, r.speed));
        }
        let volume = (r.end - r.start) * r.speed;
        let short = volume < -tol(p);
        let wrong = if r.complete {
            (volume - p).abs() > tol(p) * 1e3
        } else {
            volume > p + tol(p) * 1e3
        };
        if short || wrong {
            return Err(format!(
                "job {} on machine {}: [{}, {}] at speed {} processes {volume}, p_ij = {p}",
                r.job, r.machine, r.start, r.end, r.speed
            ));
        }
        if !within(windows.get(&r.machine), r.start, r.end) {
            return Err(format!(
                "job {} runs [{}, {}] on machine {} outside its online windows",
                r.job, r.start, r.end, r.machine
            ));
        }
    }

    let mut by_machine = runs.clone();
    by_machine.sort_by(|a, b| {
        (a.machine.cmp(&b.machine))
            .then(a.start.total_cmp(&b.start))
            .then(a.end.total_cmp(&b.end))
    });
    let mut busy_until = f64::NEG_INFINITY;
    for (k, r) in by_machine.iter().enumerate() {
        if k > 0 && by_machine[k - 1].machine != r.machine {
            busy_until = f64::NEG_INFINITY;
        }
        if r.start + tol(r.start) < busy_until {
            return Err(format!(
                "job {} starts at {} on machine {} while another run lasts until {busy_until}",
                r.job, r.start, r.machine
            ));
        }
        busy_until = busy_until.max(r.end);
    }

    check_budget(&fates, jobs, algo)?;
    let completed: Vec<&JobRow> = fates
        .iter()
        .zip(jobs)
        .filter(|(&f, _)| f == Fate::Completed)
        .map(|(_, j)| j)
        .collect();
    Ok(Outcome {
        objective: objective(&runs, jobs, algo),
        bound: lower_bound(&completed, algo),
    })
}

/// One online window of a machine: `[from, to]`, closed by a crash or
/// not (a drain lets the running job finish).
type Window = (f64, f64, bool);

/// Online windows per machine, rebuilt from the plan's events: a machine
/// whose first event is a join starts offline; no-op events change
/// nothing; machines without events are absent (always online).
fn online_windows(plan: &CapacityPlan) -> BTreeMap<u32, Vec<Window>> {
    let mut open: BTreeMap<u32, Option<f64>> = BTreeMap::new();
    let mut out: BTreeMap<u32, Vec<Window>> = BTreeMap::new();
    for e in plan.events() {
        let i = e.machine.0;
        let state = open
            .entry(i)
            .or_insert((e.change != CapacityChange::Join).then_some(0.0));
        match (e.change, *state) {
            (CapacityChange::Join, None) => *state = Some(e.time),
            (CapacityChange::Drain | CapacityChange::Crash, Some(from)) => {
                out.entry(i)
                    .or_default()
                    .push((from, e.time, e.change == CapacityChange::Crash));
                *state = None;
            }
            _ => {}
        }
    }
    for (i, state) in open {
        let list = out.entry(i).or_default();
        if let Some(from) = state {
            list.push((from, f64::INFINITY, false));
        }
    }
    out
}

/// The run starts inside a window and no crash cuts it short.
fn within(windows: Option<&Vec<Window>>, start: f64, end: f64) -> bool {
    let Some(windows) = windows else {
        return true;
    };
    windows.iter().any(|&(from, to, crash)| {
        from - tol(from) <= start && start <= to + tol(to) && (!crash || end <= to + tol(to))
    })
}

/// Rule rejections against the budget each scheduler guarantees.
fn check_budget(fates: &[Fate], jobs: &[JobRow], algo: Algo) -> Result<(), String> {
    let rejected = fates.iter().filter(|&&f| f == Fate::RuleReject).count();
    let rejected_w: f64 = fates
        .iter()
        .zip(jobs)
        .filter(|(&f, _)| f == Fate::RuleReject)
        .map(|(_, j)| j.weight)
        .sum();
    let total_w: f64 = jobs.iter().map(|j| j.weight).sum();
    let (used, cap, what) = match algo {
        Algo::Flow { eps } => (rejected as f64, 2.0 * eps * jobs.len() as f64, "2ε·n jobs"),
        Algo::EnergyFlow { eps, .. } => (rejected_w, eps * total_w, "ε·Σw (Theorem 2)"),
        Algo::WeightedFlow { eps } => (rejected_w, 2.0 * eps * total_w, "2ε of arrived weight"),
    };
    if used > cap + 1e-9 * cap.max(1.0) {
        return Err(format!(
            "rule rejections use {used}, over the budget of {what} = {cap}"
        ));
    }
    Ok(())
}

/// Total flow time (`flow`), weighted flow time (`wflow`), or weighted
/// flow plus energy `Σ p_ij·s^(α−1)` over complete and partial runs
/// (`energyflow`). Flow counts completed jobs only: rejected jobs leave
/// the objective, which is what the rejection budget buys.
fn objective(runs: &[Run], jobs: &[JobRow], algo: Algo) -> f64 {
    let mut total = 0.0;
    for r in runs {
        let job = &jobs[r.job];
        if r.complete {
            let flow = r.end - job.release;
            total += match algo {
                Algo::Flow { .. } => flow,
                _ => job.weight * flow,
            };
        }
        if let Algo::EnergyFlow { alpha, .. } = algo {
            total += (r.end - r.start) * r.speed.powf(alpha);
        }
    }
    total
}

/// `Σ_j LB_j`, each job's cost alone on its fastest eligible machine:
/// `p̂_j` for flow, `w_j·p̂_j` for weighted flow, and
/// `p̂_j·min_s(w_j/s + s^(α−1))` for flow plus energy. Over completed
/// jobs it bounds their share of the objective from below, so
/// `objective / bound ≥ 1` measures schedule quality with far less
/// seed-to-seed spread than the objective itself.
fn lower_bound(jobs: &[&JobRow], algo: Algo) -> f64 {
    jobs.iter()
        .filter_map(|j| {
            let p = j
                .finite
                .iter()
                .map(|&(_, p)| p)
                .fold(f64::INFINITY, f64::min);
            p.is_finite().then(|| match algo {
                Algo::Flow { .. } => p,
                Algo::WeightedFlow { .. } => j.weight * p,
                Algo::EnergyFlow { alpha, .. } => {
                    let s = (j.weight / (alpha - 1.0)).powf(1.0 / alpha);
                    p * (j.weight / s + s.powf(alpha - 1.0))
                }
            })
        })
        .sum()
}

/// Feeds the checker four broken logs (an overlap, a run on an
/// ineligible machine, a shifted completion, rejections over budget)
/// and one good log; fails unless it rejects exactly the broken ones.
pub fn self_test() -> Result<(), String> {
    let row = |release: f64, sizes: &[(u32, f64)]| JobRow {
        release,
        weight: 1.0,
        finite: sizes.to_vec(),
    };
    let jobs = vec![
        row(0.0, &[(0, 2.0), (1, 4.0)]),
        row(1.0, &[(0, 3.0), (1, 1.0)]),
        row(1.5, &[(0, 2.0)]),
        row(2.0, &[(0, 1.0), (1, 1.0)]),
    ];
    let plan = CapacityPlan::empty();
    let flow = Algo::Flow { eps: 0.25 };
    let log = |rows: &[&str]| format!("# osr-log v1 m=2 n=4\n{}\n", rows.join("\n"));
    let good = log(&[
        "0,c,0,0,2,1,-,-,-,-,-,0",
        "1,c,1,1,2,1,-,-,-,-,-,0",
        "2,c,0,2,4,1,-,-,-,-,-,0",
        "3,c,1,2,3,1,-,-,-,-,-,0",
    ]);
    let broken = [
        (
            "an overlap",
            log(&[
                "0,c,0,0,2,1,-,-,-,-,-,0",
                "1,c,1,1,2,1,-,-,-,-,-,0",
                "2,c,0,1.5,3.5,1,-,-,-,-,-,0",
                "3,c,1,2,3,1,-,-,-,-,-,0",
            ]),
            flow,
            "while another run lasts",
        ),
        (
            "a run on an ineligible machine",
            log(&[
                "0,c,0,0,2,1,-,-,-,-,-,0",
                "1,c,1,1,2,1,-,-,-,-,-,0",
                "2,c,1,2,4,1,-,-,-,-,-,0",
                "3,c,0,2,3,1,-,-,-,-,-,0",
            ]),
            flow,
            "where it is ineligible",
        ),
        (
            "a shifted completion",
            log(&[
                "0,c,0,0,2,1,-,-,-,-,-,0",
                "1,c,1,1,2.5,1,-,-,-,-,-,0",
                "2,c,0,2,4,1,-,-,-,-,-,0",
                "3,c,1,2.5,3.5,1,-,-,-,-,-,0",
            ]),
            flow,
            "processes",
        ),
        (
            "rejections over budget",
            log(&[
                "0,c,0,0,2,1,-,-,-,-,-,0",
                "1,r,-,-,1,-,rule-2,-,-,-,-,0",
                "2,r,-,-,2,-,rule-2,-,-,-,-,0",
                "3,c,1,2,3,1,-,-,-,-,-,0",
            ]),
            // 2ε·n = 1.6 with ε = 0.2: two rule rejections are over.
            Algo::Flow { eps: 0.2 },
            "over the budget",
        ),
    ];
    let good = check(&good, &jobs, &plan, flow)
        .map_err(|e| format!("self-test: good log refused: {e}"))?;
    if good.objective != 2.0 + 1.0 + 2.5 + 1.0 || good.bound != 2.0 + 1.0 + 2.0 + 1.0 {
        return Err(format!(
            "self-test: good log's objective {good:?}, want 6.5 over 6"
        ));
    }
    for (what, text, algo, reason) in broken {
        match check(&text, &jobs, &plan, algo) {
            Err(e) if e.contains(reason) => {}
            Err(e) => {
                return Err(format!(
                    "self-test: a log with {what} was refused for `{e}`"
                ))
            }
            Ok(_) => return Err(format!("self-test: checker accepted a log with {what}")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_model::MachineId;
    use osr_sim::CapacityEvent;

    #[test]
    fn self_test_rejects_every_broken_log() {
        self_test().unwrap();
    }

    #[test]
    fn runs_past_a_crash_are_refused_but_drains_let_them_finish() {
        let ev = |time, change| CapacityEvent {
            time,
            machine: MachineId(0),
            change,
        };
        let crash = CapacityPlan::new(vec![ev(1.0, CapacityChange::Crash)]).unwrap();
        let drain = CapacityPlan::new(vec![ev(1.0, CapacityChange::Drain)]).unwrap();
        let fits =
            |plan: &CapacityPlan, start, end| within(online_windows(plan).get(&0), start, end);
        assert!(!fits(&crash, 0.5, 2.0));
        assert!(fits(&drain, 0.5, 2.0));
        assert!(!fits(&drain, 1.5, 2.0));
        let rejoin = CapacityPlan::new(vec![
            ev(1.0, CapacityChange::Crash),
            ev(3.0, CapacityChange::Join),
        ])
        .unwrap();
        assert!(fits(&rejoin, 3.0, 9.0));
        assert!(!fits(&rejoin, 2.0, 2.5));
    }
}
