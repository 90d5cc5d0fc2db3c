//! Property-based tests of the numerics: Cholesky solves on random SPD
//! systems, quantile/ECDF laws, GP sanity, and KDE normalization.

use asha_math::dist::{normal_cdf, normal_pdf};
use asha_math::stats::{quantile, Ecdf};
use asha_math::{expected_improvement, Gp, GpConfig, Kde1d, Matrix};
use proptest::prelude::*;

/// Random SPD matrix A = B Bᵀ + εI.
fn spd_strategy(max_n: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_n)
        .prop_flat_map(|n| {
            prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
                let b = Matrix::from_fn(n, n, |i, j| data[i * n + j]);
                let mut a = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in 0..n {
                        let mut sum = 0.0;
                        for k in 0..n {
                            sum += b[(i, k)] * b[(j, k)];
                        }
                        a[(i, j)] = sum;
                    }
                    a[(i, i)] += 0.5;
                }
                a
            })
        })
        .boxed()
}

/// Property body of `expected_improvement_is_monotone_in_best`.
fn check_ei_monotone_in_best(mu: f64, var: f64, b1: f64, delta: f64) -> Result<(), String> {
    // A better (lower) incumbent can only shrink the improvement over it.
    let ei_loose = expected_improvement(mu, var, b1 + delta);
    let ei_tight = expected_improvement(mu, var, b1);
    prop_assert!(ei_tight <= ei_loose + 1e-12);
    prop_assert!(ei_tight >= 0.0);
    Ok(())
}

/// Property body of `gp_fits_and_predicts_finite_values`.
fn check_gp_fits_and_predicts(n: usize, dims: usize, seed: u64) -> Result<(), String> {
    use rand::{Rng as _, SeedableRng as _};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 10.0 - 5.0).collect();
    let gp = Gp::fit(&xs, &ys, GpConfig::default()).expect("jittered fit succeeds");
    let q: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
    let (mu, var) = gp.predict(&q);
    prop_assert!(mu.is_finite());
    prop_assert!(var >= 0.0 && var.is_finite());
    // Predictions stay within a generous envelope of the targets
    // (near-duplicate inputs make GP interpolation overshoot, so the
    // envelope is wide — the property is sanity, not tightness).
    let lo = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (hi - lo).max(1.0);
    prop_assert!(mu > lo - 20.0 * span && mu < hi + 20.0 * span, "mu = {mu}");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cholesky_solves_random_spd_systems(a in spd_strategy(8), seed in any::<u32>()) {
        let n = a.rows();
        let x_true: Vec<f64> = (0..n).map(|i| ((seed as usize + i * 7919) % 13) as f64 - 6.0).collect();
        let b = a.matvec(&x_true);
        let chol = a.cholesky().expect("construction guarantees SPD");
        let x = chol.solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            prop_assert!((xi - ti).abs() < 1e-6, "solve error: {xi} vs {ti}");
        }
        // log|A| is finite and consistent with the factor diagonal.
        prop_assert!(chol.log_det().is_finite());
    }

    #[test]
    fn quantiles_are_monotone_and_bounded(mut xs in prop::collection::vec(-1e6f64..1e6, 1..60)) {
        let q25 = quantile(&xs, 0.25);
        let q50 = quantile(&xs, 0.50);
        let q75 = quantile(&xs, 0.75);
        prop_assert!(q25 <= q50 && q50 <= q75);
        xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        prop_assert!(q25 >= xs[0] && q75 <= *xs.last().expect("non-empty"));
    }

    #[test]
    fn ecdf_is_a_cdf(xs in prop::collection::vec(-1e3f64..1e3, 1..50), probe in -2e3f64..2e3) {
        let e = Ecdf::new(&xs);
        let v = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&v));
        // Monotone in the probe.
        prop_assert!(e.eval(probe + 1.0) >= v);
        // Right tail is 1.
        prop_assert_eq!(e.eval(1e9), 1.0);
    }

    #[test]
    fn normal_cdf_pdf_consistency(x in -5.0f64..5.0) {
        // Numerical derivative of the cdf approximates the pdf.
        let h = 1e-5;
        let numeric = (normal_cdf(x + h) - normal_cdf(x - h)) / (2.0 * h);
        prop_assert!((numeric - normal_pdf(x)).abs() < 1e-4);
    }

    #[test]
    fn expected_improvement_is_monotone_in_best(mu in -5.0f64..5.0, var in 0.0f64..4.0, b1 in -5.0f64..5.0, delta in 0.0f64..3.0) {
        check_ei_monotone_in_best(mu, var, b1, delta)?;
    }

    #[test]
    fn kde_pdf_is_positive_and_sampling_bounded(
        points in prop::collection::vec(0.0f64..1.0, 1..30),
        probe in 0.0f64..1.0,
        seed in any::<u64>(),
    ) {
        let kde = Kde1d::new(&points, 0.02);
        prop_assert!(kde.pdf(probe) > 0.0);
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..20 {
            let x = kde.sample(&mut rng);
            prop_assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn gp_fits_and_predicts_finite_values(
        n in 2usize..20,
        dims in 1usize..5,
        seed in any::<u64>(),
    ) {
        check_gp_fits_and_predicts(n, dims, seed)?;
    }
}

// Failing inputs an upstream `proptest` once shrank to and recorded; the
// vendored runner keeps no regression file, so each is replayed by name.

#[test]
fn recorded_gp_fit_on_seven_points_in_two_dims() {
    check_gp_fits_and_predicts(7, 2, 17636503692127756710).expect("recorded case");
}

#[test]
fn recorded_ei_with_zero_delta() {
    check_ei_monotone_in_best(
        4.629940301263597,
        0.9202406252571521,
        -3.1074180917647225,
        0.0,
    )
    .expect("recorded case");
}
