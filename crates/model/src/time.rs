//! Floating-point time helpers.
//!
//! The paper works in continuous time for §2–§3 and discrete time for §4.
//! We represent continuous time as `f64` and provide tolerant comparison
//! helpers so that event-driven simulations remain robust against the
//! usual accumulation of rounding error (e.g. a completion computed as
//! `start + p` compared against an arrival at the "same" instant).
//!
//! All comparisons in the workspace that decide *simulation semantics*
//! (does this event happen before that one? is this deadline met?) go
//! through these helpers, so the tolerance policy is centralised here.

/// Absolute tolerance used by the approximate comparators.
///
/// Workloads in this workspace keep processing times in roughly
/// `[1e-6, 1e9]`, for which a fixed absolute epsilon combined with a
/// relative term is adequate.
pub const EPS: f64 = 1e-9;

/// `a == b` up to [`EPS`] absolute or `EPS`-relative error.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= EPS {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= scale * EPS
}

/// `a <= b` up to tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b || approx_eq(a, b)
}

/// `a >= b` up to tolerance.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b || approx_eq(a, b)
}

/// Total ordering on `f64` suitable for sorting and heap keys.
///
/// Delegates to [`f64::total_cmp`]; exposed as a free function so call
/// sites read uniformly (`sort_by(total_cmp_f64)`).
#[inline]
pub fn total_cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.total_cmp(b)
}

/// Returns `true` when `x` is a finite, non-negative quantity — the
/// validity requirement for all times, sizes and weights in the model.
#[inline]
pub fn valid_magnitude(x: f64) -> bool {
    x.is_finite() && x >= 0.0
}

/// Returns `true` when `x` is finite and strictly positive.
#[inline]
pub fn valid_positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

/// Checks that a job released at `release` keeps its cheapest size
/// `p_hat` in `f64`: `release + p_hat` must exceed `release`. Once the
/// release is about 2^53 times the size, the sum rounds back to the
/// release, and the job would complete at its own start with flow time
/// 0. A job eligible nowhere (`p_hat = ∞`) passes: it is rejected at
/// arrival. So does a `p_hat` that is no valid size (not finite and
/// positive): the size checks refuse that row. The one check of this
/// time domain, shared by instance validation and the serve/journal
/// event parser.
pub fn check_release_keeps_size(release: f64, p_hat: f64) -> Result<(), String> {
    if valid_positive(p_hat) && release + p_hat == release {
        return Err(format!(
            "release {release:?} absorbs the cheapest size {p_hat:?} (release + size == release in f64)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn releases_that_absorb_the_cheapest_size_are_refused() {
        assert!(check_release_keeps_size(1.0, 1.0).is_ok());
        assert!(check_release_keeps_size(1e300, f64::INFINITY).is_ok());
        assert!(check_release_keeps_size(2f64.powi(52), 1.0).is_ok());
        let e = check_release_keeps_size(1e300, 1.0).unwrap_err();
        assert!(e.contains("absorbs"), "{e}");
        assert!(check_release_keeps_size(2f64.powi(54), 1.0).is_err());
        // Not a valid size: left to the size checks.
        assert!(check_release_keeps_size(1e6, -1e-300).is_ok());
        assert!(check_release_keeps_size(1e6, 0.0).is_ok());
    }

    #[test]
    fn approx_eq_absolute() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(approx_eq(0.0, 1e-10));
        assert!(!approx_eq(0.0, 1e-6));
    }

    #[test]
    fn approx_eq_relative_large_magnitudes() {
        let a = 1e12;
        assert!(approx_eq(a, a * (1.0 + 1e-12)));
        assert!(!approx_eq(a, a * (1.0 + 1e-6)));
    }

    #[test]
    fn approx_le_ge_are_tolerant_at_the_boundary() {
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(approx_ge(1.0 - 1e-12, 1.0));
        assert!(!approx_le(1.1, 1.0));
        assert!(!approx_ge(0.9, 1.0));
    }

    #[test]
    fn total_cmp_orders_like_partial_cmp_on_normal_values() {
        assert_eq!(total_cmp_f64(&1.0, &2.0), Ordering::Less);
        assert_eq!(total_cmp_f64(&2.0, &1.0), Ordering::Greater);
        assert_eq!(total_cmp_f64(&1.5, &1.5), Ordering::Equal);
    }

    #[test]
    fn total_cmp_handles_nan_deterministically() {
        // NaN sorts after +inf under total order; we only require determinism.
        assert_eq!(total_cmp_f64(&f64::NAN, &f64::NAN), Ordering::Equal);
        assert_eq!(total_cmp_f64(&f64::INFINITY, &f64::NAN), Ordering::Less);
    }

    #[test]
    fn magnitude_validity() {
        assert!(valid_magnitude(0.0));
        assert!(valid_magnitude(3.5));
        assert!(!valid_magnitude(-1.0));
        assert!(!valid_magnitude(f64::NAN));
        assert!(!valid_magnitude(f64::INFINITY));
        assert!(valid_positive(1e-12));
        assert!(!valid_positive(0.0));
    }
}
