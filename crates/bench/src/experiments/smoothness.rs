//! EXP-SMOOTH — Definition 1 / the smooth inequality of \[18\]:
//! randomized audit that `P(s) = s^α` is `(λ(α), µ(α))`-smooth with the
//! constants used by the Theorem 3 analysis.

use osr_core::bounds::smooth_competitive_bound;
use osr_core::smooth::{audit_smooth_inequality, lambda_alpha, mu_alpha};
use osr_core::SchedulerConfig;

use super::par_replicates;
use crate::table::{fmt_g4, Table};

/// Runs the experiment.
pub fn run(quick: bool, _config: SchedulerConfig) -> Vec<Table> {
    let trials = if quick { 2_000 } else { 50_000 };
    let alphas = [1.2, 1.5, 2.0, 2.5, 3.0, 4.0];

    let mut table = Table::new(
        "EXP-SMOOTH: randomized audit of (lambda, mu)-smoothness of s^alpha",
        &[
            "alpha",
            "lambda",
            "mu",
            "trials",
            "violations",
            "worst_lhs/rhs",
            "ratio_bound",
        ],
    );
    table.note("worst_lhs/rhs ≤ 1 certifies the sampled inequality; ratio_bound = lambda/(1-mu)");

    // Alphas fan out; the audit's sampling RNG is seeded per call.
    for row in par_replicates(alphas.to_vec(), |alpha| {
        let (worst, violations) = audit_smooth_inequality(alpha, trials, 16, 0xC0FFEE);
        vec![
            fmt_g4(alpha),
            fmt_g4(lambda_alpha(alpha)),
            fmt_g4(mu_alpha(alpha)),
            trials.to_string(),
            violations.len().to_string(),
            fmt_g4(worst),
            fmt_g4(smooth_competitive_bound(
                lambda_alpha(alpha),
                mu_alpha(alpha),
            )),
        ]
    }) {
        table.row(row);
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violations_found() {
        for t in run(true, SchedulerConfig::production()) {
            for row in &t.rows {
                assert_eq!(row[4], "0", "smoothness violated: {row:?}");
                let worst: f64 = row[5].parse().unwrap();
                assert!(worst <= 1.0 + 1e-9);
                assert!(worst > 0.0, "audit must exercise the inequality");
            }
        }
    }
}
