//! Normal-family sampling and densities.
//!
//! Implemented from scratch (Box–Muller for sampling, the Abramowitz–Stegun
//! rational approximation for the cdf) so the workspace does not need
//! `rand_distr`.

use rand::Rng;

/// Inverse of `sqrt(2*pi)`.
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Draw one standard-normal sample using the Box–Muller transform.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let z = asha_math::dist::standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Reject u1 == 0 so ln(u1) is finite.
    let mut u1 = rng.gen::<f64>();
    while u1 <= f64::MIN_POSITIVE {
        u1 = rng.gen::<f64>();
    }
    let u2 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Draw a normal sample with the given mean and standard deviation.
///
/// # Panics
///
/// Panics in debug builds if `std` is negative.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    debug_assert!(std >= 0.0, "standard deviation must be non-negative");
    mean + std * standard_normal(rng)
}

/// Draw a half-normal sample `|z| * std`: the straggler model of the paper's
/// Appendix A.1 multiplies expected training time by `1 + |z|`.
pub fn half_normal<R: Rng + ?Sized>(rng: &mut R, std: f64) -> f64 {
    (standard_normal(rng) * std).abs()
}

/// Draw a normal sample truncated to `[low, high]` by rejection, falling back
/// to clamping after 64 rejections (only reachable for extreme bounds).
pub(crate) fn truncated_normal<R: Rng + ?Sized>(
    rng: &mut R,
    mean: f64,
    std: f64,
    low: f64,
    high: f64,
) -> f64 {
    debug_assert!(low <= high, "truncation interval must be non-empty");
    for _ in 0..64 {
        let x = normal(rng, mean, std);
        if (low..=high).contains(&x) {
            return x;
        }
    }
    normal(rng, mean, std).clamp(low, high)
}

/// Standard normal probability density at `x`.
pub fn normal_pdf(x: f64) -> f64 {
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Probability density of `N(mean, std^2)` at `x`.
///
/// Returns 0 for `std <= 0` (a degenerate distribution), never NaN.
pub(crate) fn normal_pdf_scaled(x: f64, mean: f64, std: f64) -> f64 {
    if std <= 0.0 {
        return 0.0;
    }
    normal_pdf((x - mean) / std) / std
}

/// Standard normal cumulative distribution function.
///
/// Uses the Abramowitz & Stegun 7.1.26 rational approximation of `erf`
/// (absolute error < 1.5e-7), which is plenty for acquisition functions.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Error function via the Abramowitz & Stegun 7.1.26 approximation.
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736) * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(12345)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "sample mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "sample variance {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut r = rng();
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut r, 5.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "sample mean {mean}");
    }

    #[test]
    fn half_normal_is_nonnegative() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(half_normal(&mut r, 1.3) >= 0.0);
        }
    }

    #[test]
    fn half_normal_mean_matches_theory() {
        // E|Z| = sqrt(2/pi) for std = 1.
        let mut r = rng();
        let n = 40_000;
        let mean = (0..n).map(|_| half_normal(&mut r, 1.0)).sum::<f64>() / n as f64;
        let expected = (2.0 / std::f64::consts::PI).sqrt();
        assert!((mean - expected).abs() < 0.02, "half-normal mean {mean}");
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let mut r = rng();
        for _ in 0..1000 {
            let x = truncated_normal(&mut r, 0.0, 1.0, -0.5, 0.5);
            assert!((-0.5..=0.5).contains(&x));
        }
        // Unreachable interval falls back to clamping.
        let x = truncated_normal(&mut r, 0.0, 1e-9, 100.0, 101.0);
        assert!((100.0..=101.0).contains(&x));
    }

    #[test]
    fn cdf_known_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-5);
        assert!((normal_cdf(-1.0) - 0.158_655_3).abs() < 1e-5);
        assert!((normal_cdf(3.0) - 0.998_650_1).abs() < 1e-5);
        assert!(normal_cdf(-8.0) < 1e-7);
        assert!(normal_cdf(8.0) > 1.0 - 1e-7);
    }

    #[test]
    fn pdf_known_values() {
        assert!((normal_pdf(0.0) - 0.398_942_3).abs() < 1e-6);
        assert!((normal_pdf(1.0) - 0.241_970_7).abs() < 1e-6);
        assert_eq!(normal_pdf_scaled(0.0, 0.0, 0.0), 0.0);
        assert!((normal_pdf_scaled(1.0, 1.0, 2.0) - normal_pdf(0.0) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut prev = 0.0;
        let mut x = -6.0;
        while x <= 6.0 {
            let c = normal_cdf(x);
            assert!(c >= prev - 1e-12, "cdf not monotone at {x}");
            prev = c;
            x += 0.01;
        }
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.7, 1.5, 2.5] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }
}
