//! One-dimensional Gaussian kernel density estimation.
//!
//! The Tree-structured Parzen Estimator inside the BOHB baseline factorizes
//! its density over dimensions, so a 1-D KDE per hyperparameter (in unit
//! space) is all it needs.
//!
//! [`Kde1d::pdf`] is the reference density. [`Kde1d::pdf_batch`] evaluates
//! the same mixture at many points with an inline `exp` instead of libm's,
//! to a documented relative error ([`Kde1d::BATCH_REL_ERR`]); TPE uses it to
//! rank candidates only where that error provably cannot change the ranking.

use rand::Rng;

use crate::dist::{normal_pdf_scaled, truncated_normal, INV_SQRT_2PI};

/// Narrowest bandwidth [`Kde1d::pdf_batch`] evaluates. Below it `h²` leaves
/// the normal range, so `-1/(2h²)` and the kernel normaliser could no longer
/// keep the error bound; the batch writes NaN instead.
const MIN_BATCH_BANDWIDTH: f64 = 1e-150;

/// Exponents below this are clamped to it, so `2^k` in [`exp_nonpositive`]
/// stays a normal number. A clamped term is at most `e^-700 ≈ 1e-304` times
/// the kernel normaliser, far below the density's uniform floor of 0.05.
const EXP_CLAMP: f64 = -700.0;

/// Partial sums per point in [`Kde1d::pdf_batch`].
const LANES: usize = 4;

/// `e^t` for `t <= 0`, with `t` clamped at [`EXP_CLAMP`]; NaN stays NaN.
///
/// Cody–Waite reduction `t = k·ln 2 + r` with `|r| <= ln 2 / 2`, then the
/// degree-5 Taylor polynomial of `e^r`. Its remainder is at most
/// `e^(ln2/2)·(ln2/2)^6/6! ≈ 3.4e-6`, and `e^r >= e^(-ln2/2) ≈ 0.71`, so
/// the relative error is below `5e-6` — half of [`Kde1d::BATCH_REL_ERR`].
#[inline(always)]
fn exp_nonpositive(t: f64) -> f64 {
    // ln 2 split so that `k * LN2_HI` is exact for |k| < 2^11 (its low 32
    // mantissa bits are zero).
    const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
    const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
    // Adding 1.5·2^52 rounds to the nearest integer and leaves it in the
    // low mantissa bits.
    const ROUND: f64 = 6_755_399_441_055_744.0;
    // `<` rather than `max`: a NaN exponent must not become the clamp.
    let t = if t < EXP_CLAMP { EXP_CLAMP } else { t };
    let shifted = t * std::f64::consts::LOG2_E + ROUND;
    let k = shifted - ROUND;
    let r = (t - k * LN2_HI) - k * LN2_LO;
    // k ∈ [-1010, 0], so the biased exponent k + 1023 is in [13, 1023] and
    // only the low 12 bits of the shifted word survive the shift.
    let two_k = f64::from_bits(shifted.to_bits().wrapping_add(1023) << 52);
    let poly = 1.0 + r * (1.0 + r * (0.5 + r * (1.0 / 6.0 + r * (1.0 / 24.0 + r * (1.0 / 120.0)))));
    two_k * poly
}

/// A Gaussian KDE over points in `[0, 1]`, with Scott's-rule bandwidth and a
/// bandwidth floor so degenerate samples still produce a usable density.
#[derive(Debug, Clone, PartialEq)]
pub struct Kde1d {
    points: Vec<f64>,
    bandwidth: f64,
}

impl Kde1d {
    /// Build a KDE from sample points (values are clamped to `[0, 1]`).
    ///
    /// Uses Scott's rule `h = sigma * n^(-1/5)` with a floor of `min_bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn new(points: &[f64], min_bandwidth: f64) -> Self {
        assert!(!points.is_empty(), "KDE requires at least one point");
        let points: Vec<f64> = points.iter().map(|p| p.clamp(0.0, 1.0)).collect();
        let sigma = crate::stats::std_dev(&points);
        let n = points.len() as f64;
        let bandwidth = (sigma * n.powf(-0.2)).max(min_bandwidth);
        Kde1d { points, bandwidth }
    }

    /// The bandwidth in use.
    #[cfg(test)]
    pub(crate) fn bandwidth(&self) -> f64 {
        self.bandwidth
    }

    /// Number of kernel centers.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the KDE has no centers (never true for a constructed KDE).
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Density at `x`, mixed with a small uniform component (weight 0.05) so
    /// the TPE ratio `l(x)/g(x)` stays bounded on `[0, 1]`.
    pub fn pdf(&self, x: f64) -> f64 {
        let kernel_mix: f64 = self
            .points
            .iter()
            .map(|&p| normal_pdf_scaled(x, p, self.bandwidth))
            .sum::<f64>()
            / self.points.len() as f64;
        0.95 * kernel_mix + 0.05
    }

    /// Relative error bound of every density [`Kde1d::pdf_batch`] writes,
    /// against [`Kde1d::pdf`] at the same point: twice the inline `exp`'s
    /// worst case, the rest covering rounding and the clamped tail.
    pub const BATCH_REL_ERR: f64 = 1e-5;

    /// [`Kde1d::pdf`] at every `xs[i]`, written to `out[i]`, each within a
    /// relative [`Kde1d::BATCH_REL_ERR`] of it.
    ///
    /// Each kernel term is `exp(c·(x−p)²)` with `c = −1/(2h²)` computed once.
    /// If the bandwidth is below `1e-150` (where that bound cannot be kept)
    /// every entry is NaN, as is the entry of a NaN point; a caller that
    /// requires finite densities then falls back to [`Kde1d::pdf`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `out` differ in length.
    pub fn pdf_batch(&self, xs: &[f64], out: &mut [f64]) {
        assert_eq!(xs.len(), out.len(), "one output per point");
        let h = self.bandwidth;
        if h.is_nan() || h < MIN_BATCH_BANDWIDTH {
            out.fill(f64::NAN);
            return;
        }
        let c = -0.5 / (h * h);
        let scale = 0.95 * INV_SQRT_2PI / (h * self.points.len() as f64);
        let chunks = self.points.chunks_exact(LANES);
        let tail = chunks.remainder();
        for (o, &x) in out.iter_mut().zip(xs) {
            // Independent partial sums, so the terms can be vectorised.
            let mut lanes = [0.0; LANES];
            for ps in chunks.clone() {
                for (acc, &p) in lanes.iter_mut().zip(ps) {
                    let d = x - p;
                    *acc += exp_nonpositive(c * d * d);
                }
            }
            let tail_sum: f64 = tail
                .iter()
                .map(|&p| {
                    let d = x - p;
                    exp_nonpositive(c * d * d)
                })
                .sum();
            *o = scale * (lanes.iter().sum::<f64>() + tail_sum) + 0.05;
        }
    }

    /// Sample from the KDE: pick a kernel center uniformly, then draw from a
    /// normal truncated to `[0, 1]` around it.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let center = self.points[rng.gen_range(0..self.points.len())];
        truncated_normal(rng, center, self.bandwidth, 0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn density_peaks_at_the_data() {
        let kde = Kde1d::new(&[0.2, 0.21, 0.19, 0.2], 0.05);
        assert!(kde.pdf(0.2) > kde.pdf(0.8));
    }

    #[test]
    fn single_point_uses_bandwidth_floor() {
        let kde = Kde1d::new(&[0.5], 0.1);
        assert_eq!(kde.bandwidth(), 0.1);
        assert!(kde.pdf(0.5) > kde.pdf(0.0));
        assert_eq!(kde.len(), 1);
        assert!(!kde.is_empty());
    }

    #[test]
    fn samples_stay_in_unit_interval() {
        let kde = Kde1d::new(&[0.05, 0.95], 0.1);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..500 {
            let x = kde.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn samples_concentrate_near_centers() {
        let kde = Kde1d::new(&[0.3], 0.02);
        let mut rng = StdRng::seed_from_u64(6);
        let mut near = 0;
        let n = 1000;
        for _ in 0..n {
            if (kde.sample(&mut rng) - 0.3).abs() < 0.1 {
                near += 1;
            }
        }
        assert!(near > n * 9 / 10, "only {near}/{n} samples near the center");
    }

    #[test]
    fn pdf_has_uniform_floor() {
        let kde = Kde1d::new(&[0.0], 0.01);
        // Far from the only kernel the density approaches the uniform mix.
        assert!(kde.pdf(1.0) >= 0.05 - 1e-12);
    }

    #[test]
    fn out_of_range_points_are_clamped() {
        let kde = Kde1d::new(&[-0.5, 1.5], 0.05);
        assert!(kde.pdf(0.0) > kde.pdf(0.5));
    }

    #[test]
    fn inline_exp_keeps_half_the_batch_bound() {
        let mut worst: f64 = 0.0;
        for i in 0..=700_000 {
            let t = -(i as f64) * 1e-3;
            let rel = (exp_nonpositive(t) - t.exp()).abs() / t.exp();
            worst = worst.max(rel);
        }
        assert!(
            worst < Kde1d::BATCH_REL_ERR / 2.0,
            "worst relative error {worst}"
        );
        assert_eq!(exp_nonpositive(0.0), 1.0);
        assert_eq!(exp_nonpositive(-1e9), exp_nonpositive(EXP_CLAMP));
        assert!(exp_nonpositive(f64::NAN).is_nan());
    }

    #[test]
    fn batch_densities_are_within_the_bound_on_a_grid() {
        let mut rng = StdRng::seed_from_u64(7);
        let xs: Vec<f64> = (0..=400).map(|i| f64::from(i) / 400.0).collect();
        let mut out = vec![0.0; xs.len()];
        let mut worst: f64 = 0.0;
        let mut clamped = 0;
        // The 0.03 floor, narrow kernels whose far terms hit the clamp
        // (c·(x−p)² < −700 for |x−p| > 0.37 at h = 0.01), wide ones, and the
        // narrowest the batch still evaluates.
        for &h in &[0.03, 1e-2, 1e-3, 1e-6, 0.3, 5.0, 1e-140] {
            for &n in &[1, 2, 7, 64, 1024] {
                let mut points: Vec<f64> = (0..n).map(|_| rng.gen::<f64>()).collect();
                points[0] = 0.0;
                if n > 1 {
                    points[1] = 1.0;
                }
                let kde = Kde1d {
                    points,
                    bandwidth: h,
                };
                let c = -0.5 / (h * h);
                kde.pdf_batch(&xs, &mut out);
                for (&x, &got) in xs.iter().zip(&out) {
                    let want = kde.pdf(x);
                    worst = worst.max((got - want).abs() / want);
                    clamped += kde
                        .points
                        .iter()
                        .filter(|&&p| c * (x - p) * (x - p) < EXP_CLAMP)
                        .count();
                }
            }
        }
        assert!(clamped > 0, "the grid never reached the clamp");
        assert!(
            worst <= Kde1d::BATCH_REL_ERR,
            "worst relative error {worst}"
        );
    }

    #[test]
    fn batch_refuses_bandwidths_it_cannot_bound() {
        let xs = [0.0, 0.5, f64::NAN];
        let mut out = [0.0; 3];
        for h in [1e-151, 1e-310, 0.0, -1.0, f64::NAN] {
            let kde = Kde1d {
                points: vec![0.5],
                bandwidth: h,
            };
            kde.pdf_batch(&xs, &mut out);
            assert!(out.iter().all(|d| d.is_nan()), "h = {h}: {out:?}");
        }
        // A NaN point is NaN at any bandwidth.
        Kde1d::new(&[0.5], 0.03).pdf_batch(&xs, &mut out);
        assert!(out[0].is_finite() && out[1].is_finite() && out[2].is_nan());
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_kde_panics() {
        let _ = Kde1d::new(&[], 0.1);
    }
}
