//! Tree-structured Parzen Estimator sampling (the model inside BOHB).
//!
//! Observations are grouped by rung; the sampler models the highest rung
//! with enough data, splits it into "good" (top `gamma` fraction) and "bad"
//! configurations, fits a per-dimension 1-D KDE to each group in unit space,
//! and proposes the candidate maximizing the density ratio `l(x)/g(x)` among
//! a handful of samples from the good model — the standard TPE acquisition,
//! factorized over dimensions as BOHB does.
//!
//! # Certified scoring
//!
//! A proposal draws all `candidates × d` unit values from the good KDEs
//! first, in the order a one-candidate-at-a-time loop would (scoring draws
//! nothing, so the RNG stream does not depend on how the winner is found).
//! Only the argmax of the scores reaches the output, never a score's bits,
//! so the winner is found without calling libm for every kernel term:
//!
//! 1. [`Kde1d::pdf_batch`] evaluates each dimension's good and bad density
//!    `l̃_d`, `g̃_d` at every candidate, each within a relative
//!    `ε` = [`Kde1d::BATCH_REL_ERR`] = `1e-5` of [`Kde1d::pdf`]. Its `exp` is
//!    a Cody–Waite reduction and a degree-5 polynomial whose remainder is at
//!    most `e^(ln2/2)·(ln2/2)^6/6! ≈ 3.4e-6` (below `5e-6` relative); `ε`
//!    doubles that to cover rounding and the clamp at −700.
//! 2. A candidate's product `P̃ = Π_d l̃_d / g̃_d` is within a factor
//!    `(1 ± ε)^(2d)` of the exact ratio, so `ln P̃` is within about `2dε` of
//!    the exact score `Σ_d ln l_d − ln g_d`. If the largest `P̃` beats every
//!    other candidate's by the relative margin `m = 4·2d·ε`, their exact
//!    scores differ by at least `ln(1 + m) − 4dε ≥ 1.5dε` (for `m ≤ 1`),
//!    which dwarfs the exact scorer's own rounding: the exact scorer would
//!    pick the same candidate. That pick is *certified*.
//!
//! Otherwise — a near-tie, duplicated candidates (an exact tie), a partial
//! product outside the normal range, a non-finite density (a bandwidth
//! below `1e-150`, where the batch writes NaN), or `m > 1` (over 12 500
//! dimensions) — the exact scorer runs as it always has: `pdf().ln() −
//! pdf().ln()` summed over dimensions, strict `>`, the first maximum
//! winning. It is also the oracle the certificate is tested against. On
//! ASHA+TPE over `cifar10_cuda_convnet`, 2 000 round trips a run, it ran
//! for 75 of 38 896 modelled proposals across 40 seeds (about 2 a run).

use std::collections::BTreeMap;

use asha_core::ConfigSampler;
use asha_math::Kde1d;
use asha_space::{Config, SearchSpace};
use rand::Rng;

use crate::cursor::{decode_by_rung, encode_by_rung, rows_fit};

/// Version header of the TPE sampler cursor format.
const CURSOR_HEADER: &str = "tpe-v1";

/// Tuning knobs of [`TpeSampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct TpeConfig {
    /// Fraction of observations treated as "good" (BOHB's default 0.15).
    pub gamma: f64,
    /// Minimum observations at a rung before it is modelled; below this the
    /// sampler falls back to uniform random. Zero means "auto" (`d + 3`,
    /// BOHB's default).
    pub min_points: usize,
    /// Number of candidates drawn from the good KDE per proposal.
    pub candidates: usize,
    /// Probability of proposing a uniform random configuration anyway
    /// (BOHB's random fraction, keeping the theoretical guarantees).
    pub random_fraction: f64,
    /// Bandwidth floor of the per-dimension KDEs.
    pub min_bandwidth: f64,
}

impl Default for TpeConfig {
    fn default() -> Self {
        TpeConfig {
            gamma: 0.15,
            min_points: 0,
            candidates: 24,
            random_fraction: 1.0 / 3.0,
            min_bandwidth: 0.03,
        }
    }
}

/// A [`ConfigSampler`] implementing TPE, bound to its search space (needed
/// because [`ConfigSampler::record`] does not receive the space).
#[derive(Debug, Clone)]
pub struct TpeSampler {
    space: SearchSpace,
    config: TpeConfig,
    /// Observations per rung: unit-space points and losses.
    by_rung: BTreeMap<usize, Vec<(Vec<f64>, f64)>>,
}

impl TpeSampler {
    /// Create a TPE sampler over `space` with the given knobs.
    pub fn new(space: SearchSpace, config: TpeConfig) -> Self {
        TpeSampler {
            space,
            config,
            by_rung: BTreeMap::new(),
        }
    }

    /// Number of recorded observations at the given rung.
    #[cfg(test)]
    pub(crate) fn observations_at(&self, rung: usize) -> usize {
        self.by_rung.get(&rung).map_or(0, Vec::len)
    }

    fn min_points(&self) -> usize {
        if self.config.min_points > 0 {
            self.config.min_points
        } else {
            self.space.len() + 3
        }
    }

    /// The highest rung with enough observations to model, if any. A rung
    /// needs at least two whatever `min_points` says: one good and one bad.
    fn model_rung(&self) -> Option<usize> {
        let need = self.min_points().max(2);
        self.by_rung
            .iter()
            .rev()
            .find(|(_, obs)| obs.len() >= need)
            .map(|(&rung, _)| rung)
    }
}

/// The candidate [`exact_pick`] would choose: [`certified_pick`]'s winner
/// when it has one, else `exact_pick` itself. `candidates` holds `count`
/// rows of `good.len()` unit coordinates.
fn pick(good: &[Kde1d], bad: &[Kde1d], candidates: &[f64], count: usize) -> Option<usize> {
    certified_pick(good, bad, candidates, count).or_else(|| {
        #[cfg(test)]
        EXACT_PICKS.with(|n| n.set(n.get() + 1));
        exact_pick(good, bad, candidates, count)
    })
}

#[cfg(test)]
thread_local! {
    /// Times [`pick`] fell back to [`exact_pick`] on this thread.
    static EXACT_PICKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// The reference scorer: the first candidate with the largest
/// `Σ_d ln l_d(x_d) − ln g_d(x_d)`, or `None` if no score beats `−∞`.
fn exact_pick(good: &[Kde1d], bad: &[Kde1d], candidates: &[f64], count: usize) -> Option<usize> {
    let dims = good.len();
    let mut best = None;
    let mut best_score = f64::NEG_INFINITY;
    for i in 0..count {
        let u = &candidates[i * dims..(i + 1) * dims];
        let score: f64 = u
            .iter()
            .enumerate()
            .map(|(d, &ud)| good[d].pdf(ud).ln() - bad[d].pdf(ud).ln())
            .sum();
        if score > best_score {
            best_score = score;
            best = Some(i);
        }
    }
    best
}

/// The candidate with the largest product of batch density ratios, if that
/// product provably ranks first under [`exact_pick`] too (see the module
/// docs); `None` sends the caller to `exact_pick`.
fn certified_pick(
    good: &[Kde1d],
    bad: &[Kde1d],
    candidates: &[f64],
    count: usize,
) -> Option<usize> {
    let dims = good.len();
    let margin = 4.0 * (2 * dims) as f64 * Kde1d::BATCH_REL_ERR;
    if count == 0 || margin > 1.0 {
        return None;
    }
    let mut products = vec![1.0; count];
    let mut column = vec![0.0; count];
    let mut l = vec![0.0; count];
    let mut g = vec![0.0; count];
    // The smallest partial product: one that left the normal range lost
    // the precision the bound assumes.
    let mut lowest = f64::INFINITY;
    for d in 0..dims {
        for (x, u) in column.iter_mut().zip(candidates.chunks_exact(dims)) {
            *x = u[d];
        }
        good[d].pdf_batch(&column, &mut l);
        bad[d].pdf_batch(&column, &mut g);
        for ((p, &l), &g) in products.iter_mut().zip(&l).zip(&g) {
            *p *= l / g;
            lowest = lowest.min(*p);
        }
    }
    if lowest < f64::MIN_POSITIVE || !products.iter().all(|p| p.is_finite()) {
        return None;
    }
    let mut best = 0;
    for (i, &p) in products.iter().enumerate() {
        if p > products[best] {
            best = i;
        }
    }
    let runner_up = products
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != best)
        .fold(0.0, |acc: f64, (_, &p)| acc.max(p));
    (products[best] >= runner_up * (1.0 + margin)).then_some(best)
}

impl ConfigSampler for TpeSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let dims = space.len();
        if rng.gen::<f64>() < self.config.random_fraction {
            return space.sample(rng);
        }
        let Some(rung) = self.model_rung() else {
            return space.sample(rng);
        };
        let obs = &self.by_rung[&rung];
        // Split into good/bad by loss.
        let mut order: Vec<usize> = (0..obs.len()).collect();
        order.sort_by(|&a, &b| {
            obs[a]
                .1
                .partial_cmp(&obs[b].1)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let n_good = ((obs.len() as f64 * self.config.gamma).ceil() as usize)
            .max(2)
            .min(obs.len() - 1);
        let (good_idx, bad_idx) = order.split_at(n_good);
        if bad_idx.is_empty() {
            return space.sample(rng);
        }
        // Per-dimension KDEs.
        let kde_dim = |idx: &[usize], d: usize| {
            let pts: Vec<f64> = idx.iter().map(|&i| obs[i].0[d]).collect();
            Kde1d::new(&pts, self.config.min_bandwidth)
        };
        let good: Vec<Kde1d> = (0..dims).map(|d| kde_dim(good_idx, d)).collect();
        let bad: Vec<Kde1d> = (0..dims).map(|d| kde_dim(bad_idx, d)).collect();
        // Draw every candidate from the good model first (scoring draws
        // nothing, so the RNG stream is the one-at-a-time loop's), then keep
        // the best density ratio l(x)/g(x).
        let mut candidates = Vec::with_capacity(self.config.candidates * dims);
        for _ in 0..self.config.candidates {
            candidates.extend(good.iter().map(|k| k.sample(rng)));
        }
        match pick(&good, &bad, &candidates, self.config.candidates) {
            Some(i) => space.from_unit(&candidates[i * dims..(i + 1) * dims]),
            None => space.sample(rng),
        }
    }

    fn record(&mut self, config: &Config, rung: usize, _resource: f64, loss: f64) {
        // A config from a foreign space cannot be embedded; drop it rather
        // than corrupting the model.
        if let Ok(u) = self.space.to_unit(config) {
            self.by_rung
                .entry(rung)
                .or_default()
                .push((u, if loss.is_nan() { f64::INFINITY } else { loss }));
        }
    }

    fn name(&self) -> &str {
        "tpe"
    }

    fn export_cursor(&self) -> Option<String> {
        Some(encode_by_rung(CURSOR_HEADER, &self.by_rung))
    }

    fn restore_cursor(&mut self, cursor: &str) {
        // Atomic: an unrecognized or malformed cursor leaves the sampler
        // cold rather than half-restored.
        if let Some(by_rung) = decode_by_rung(CURSOR_HEADER, cursor)
            .filter(|by_rung| rows_fit(by_rung, self.space.len()))
        {
            self.by_rung = by_rung;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_math::stats::std_dev;
    use asha_space::Scale;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .continuous("y", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap()
    }

    #[test]
    fn falls_back_to_random_without_data() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let c = tpe.propose(&s, &mut rng);
        assert_eq!(c.len(), 2);
        assert_eq!(tpe.observations_at(0), 0);
        assert_eq!(tpe.name(), "tpe");
    }

    #[test]
    fn concentrates_on_the_good_region() {
        // Loss = distance from (0.2, 0.8): TPE should propose near there.
        let s = space();
        let mut tpe = TpeSampler::new(
            s.clone(),
            TpeConfig {
                random_fraction: 0.0,
                ..TpeConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..120 {
            let c = s.sample(&mut rng);
            let u = s.to_unit(&c).unwrap();
            let loss = (u[0] - 0.2).powi(2) + (u[1] - 0.8).powi(2);
            tpe.record(&c, 0, 1.0, loss);
        }
        let mut dist_sum = 0.0;
        let n = 50;
        for _ in 0..n {
            let c = tpe.propose(&s, &mut rng);
            let u = s.to_unit(&c).unwrap();
            dist_sum += ((u[0] - 0.2).powi(2) + (u[1] - 0.8).powi(2)).sqrt();
        }
        let mean_dist = dist_sum / n as f64;
        // Uniform sampling would average ≈ 0.56 from that corner point.
        assert!(mean_dist < 0.35, "mean distance {mean_dist} too large");
    }

    #[test]
    fn uses_the_highest_rung_with_enough_data() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 0, 1.0, 0.5);
        }
        for _ in 0..3 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 1, 4.0, 0.4);
        }
        // Rung 1 has too few points (need d+3 = 5): the model rung is 0.
        assert_eq!(tpe.model_rung(), Some(0));
        for _ in 0..5 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 1, 4.0, 0.4);
        }
        assert_eq!(tpe.model_rung(), Some(1));
    }

    #[test]
    fn nan_losses_are_sanitized() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let c = s.default_config();
        tpe.record(&c, 0, 1.0, f64::NAN);
        assert_eq!(tpe.observations_at(0), 1);
    }

    #[test]
    fn foreign_configs_are_dropped() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let other = SearchSpace::builder()
            .continuous("z", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        tpe.record(&other.default_config(), 0, 1.0, 0.5);
        assert_eq!(tpe.observations_at(0), 0);
    }

    #[test]
    fn cursor_roundtrip_restores_identical_proposals() {
        let s = space();
        let mut warm = TpeSampler::new(s.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..40 {
            let c = s.sample(&mut rng);
            warm.record(&c, i % 3, 1.0, (i as f64).sin());
        }
        let cursor = warm.export_cursor().expect("tpe keeps a cursor");
        let mut cold = TpeSampler::new(s.clone(), TpeConfig::default());
        cold.restore_cursor(&cursor);
        assert_eq!(cold.export_cursor().as_deref(), Some(cursor.as_str()));
        // Identical proposals from identical RNG streams.
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let a = warm.propose(&s, &mut ra);
            let b = cold.propose(&s, &mut rb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn malformed_cursor_is_ignored() {
        let s = space();
        let mut tpe = TpeSampler::new(s.clone(), TpeConfig::default());
        let c = s.default_config();
        tpe.record(&c, 0, 1.0, 0.5);
        tpe.restore_cursor("gp-v1"); // wrong kind
        tpe.restore_cursor("tpe-v1;0=broken"); // malformed body
        assert_eq!(tpe.observations_at(0), 1, "state must survive bad cursors");
    }

    #[test]
    fn proposals_stay_in_the_space() {
        let s = SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .discrete("n", 1, 8)
            .ordinal("b", &[32.0, 64.0])
            .build()
            .unwrap();
        let mut tpe = TpeSampler::new(
            s.clone(),
            TpeConfig {
                random_fraction: 0.0,
                ..TpeConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..30 {
            let c = s.sample(&mut rng);
            tpe.record(&c, 0, 1.0, i as f64);
        }
        for _ in 0..20 {
            let c = tpe.propose(&s, &mut rng);
            let lr = c.float("lr", &s).unwrap();
            assert!((1e-4..=1.0).contains(&lr));
            let n = c.int("n", &s).unwrap();
            assert!((1..=8).contains(&n));
        }
    }

    /// Fallbacks to [`exact_pick`] on this thread so far.
    fn exact_picks() -> usize {
        EXACT_PICKS.with(std::cell::Cell::get)
    }

    /// Unit points for one KDE: uniform, or clustered tightly enough that
    /// the bandwidth sits at its 0.03 floor, with some exactly at 0 and 1.
    fn kde_points(rng: &mut StdRng, n: usize, clustered: bool) -> Vec<f64> {
        let centre = rng.gen::<f64>();
        (0..n)
            .map(|_| match rng.gen_range(0..20) {
                0 => 0.0,
                1 => 1.0,
                _ if clustered => (centre + 0.004 * (rng.gen::<f64>() - 0.5)).clamp(0.0, 1.0),
                _ => rng.gen::<f64>(),
            })
            .collect()
    }

    #[test]
    fn certified_picks_match_the_exact_scorer() {
        const CASES: usize = 100_000;
        let mut rng = StdRng::seed_from_u64(35);
        let (mut floored, mut large, mut edges) = (0, 0, 0);
        let before = exact_picks();
        for _ in 0..CASES {
            let dims = rng.gen_range(1..4);
            // n from 2 to 1 024, mostly small so the suite stays quick.
            let n = if rng.gen_range(0..10) == 0 {
                rng.gen_range(65..1025)
            } else {
                rng.gen_range(2..65)
            };
            large += usize::from(n > 64);
            let n_good = ((n as f64 * 0.15).ceil() as usize).max(2).min(n - 1);
            let mut good = Vec::new();
            let mut bad = Vec::new();
            // Mirrored cases: every KDE symmetric about 0.5, so a candidate
            // and its mirror image tie up to rounding.
            let mirrored = rng.gen_bool(0.2);
            let points = |rng: &mut StdRng, k: usize, clustered: bool| {
                if !mirrored {
                    return kde_points(rng, k, clustered);
                }
                let half = kde_points(rng, k.div_ceil(2), clustered);
                let mirror = half.iter().map(|x| 1.0 - x);
                half.iter().copied().chain(mirror).collect()
            };
            for _ in 0..dims {
                let clustered = rng.gen_bool(0.3);
                let g = points(&mut rng, n_good, clustered);
                let b = points(&mut rng, n - n_good, clustered);
                // Scott's rule below the floor: the KDE uses 0.03.
                let scott = |p: &[f64]| std_dev(p) * (p.len() as f64).powf(-0.2);
                floored += usize::from(scott(&g) < 0.03) + usize::from(scott(&b) < 0.03);
                good.push(Kde1d::new(&g, 0.03));
                bad.push(Kde1d::new(&b, 0.03));
            }
            let count = rng.gen_range(1..25);
            let mut candidates = Vec::with_capacity(count * dims);
            for _ in 0..count {
                for g in &good {
                    candidates.push(match rng.gen_range(0..10) {
                        0 => 0.0,
                        1 => 1.0,
                        _ => g.sample(&mut rng),
                    });
                }
            }
            // Ties the batch error cannot resolve: the winner's mirror image,
            // or a copy of a candidate nudged by 1e-12..1e-4 in one
            // coordinate.
            if count > 1 && mirrored {
                let winner = exact_pick(&good, &bad, &candidates, count).unwrap_or(0);
                let to = (winner + 1 + rng.gen_range(0..count - 1)) % count;
                for d in 0..dims {
                    candidates[to * dims + d] = 1.0 - candidates[winner * dims + d];
                }
            } else if count > 1 && rng.gen_bool(0.3) {
                let (from, to) = (rng.gen_range(0..count), rng.gen_range(0..count));
                for d in 0..dims {
                    candidates[to * dims + d] = candidates[from * dims + d];
                }
                let nudge = 10f64.powf(-4.0 - 8.0 * rng.gen::<f64>());
                let x = &mut candidates[to * dims + rng.gen_range(0..dims)];
                *x = (*x + nudge).min(1.0);
            }
            edges += candidates.iter().filter(|&&x| x == 0.0 || x == 1.0).count();
            assert_eq!(
                pick(&good, &bad, &candidates, count),
                exact_pick(&good, &bad, &candidates, count),
                "dims {dims}, n {n}, candidates {candidates:?}"
            );
        }
        let fallbacks = exact_picks() - before;
        assert!(floored > 10_000 && large > 5_000 && edges > 100_000);
        // The certificate decides most cases, the forced ties aside.
        assert!(
            fallbacks < CASES / 3,
            "{fallbacks} fallbacks in {CASES} cases"
        );
    }

    #[test]
    fn duplicated_candidates_fall_back_and_the_first_wins() {
        let mut rng = StdRng::seed_from_u64(36);
        for case in 0..2_000 {
            let dims = rng.gen_range(1..4);
            let n = rng.gen_range(2..200);
            let n_good = (n / 5).max(1);
            let good: Vec<Kde1d> = (0..dims)
                .map(|_| Kde1d::new(&kde_points(&mut rng, n_good, false), 0.03))
                .collect();
            let bad: Vec<Kde1d> = (0..dims)
                .map(|_| Kde1d::new(&kde_points(&mut rng, n - n_good, false), 0.03))
                .collect();
            let count = rng.gen_range(1..24);
            let mut candidates: Vec<f64> = (0..count)
                .flat_map(|_| good.iter().map(|g| g.sample(&mut rng)).collect::<Vec<_>>())
                .collect();
            let winner = exact_pick(&good, &bad, &candidates, count).unwrap();
            // A copy of the winner, before or after it: an exact tie.
            let at = rng.gen_range(0..count + 1);
            let row = candidates[winner * dims..(winner + 1) * dims].to_vec();
            candidates.splice(at * dims..at * dims, row);
            let before = exact_picks();
            let got = pick(&good, &bad, &candidates, count + 1);
            assert_eq!(
                exact_picks(),
                before + 1,
                "case {case}: a tie was certified"
            );
            assert_eq!(got, Some(at.min(winner)), "case {case}");
        }
    }

    #[test]
    fn overflowing_densities_fall_back() {
        let mut rng = StdRng::seed_from_u64(37);
        // Identical points put the bandwidth at a subnormal floor, so the
        // exact density at a candidate on them overflows to infinity.
        let tiny = 1e-320;
        let good = vec![Kde1d::new(&[0.5; 4], tiny), Kde1d::new(&[0.2, 0.7], 0.03)];
        for bad in [
            vec![Kde1d::new(&[0.1, 0.9], tiny), Kde1d::new(&[0.4, 0.6], 0.03)],
            // Both sides infinite: every exact score is NaN, nothing wins.
            vec![Kde1d::new(&[0.5; 3], tiny), Kde1d::new(&[0.4, 0.6], 0.03)],
        ] {
            let candidates: Vec<f64> = (0..24)
                .flat_map(|_| good.iter().map(|g| g.sample(&mut rng)).collect::<Vec<_>>())
                .collect();
            assert!(good[0].pdf(candidates[0]).is_infinite());
            let before = exact_picks();
            let got = pick(&good, &bad, &candidates, 24);
            assert_eq!(exact_picks(), before + 1, "an overflow was certified");
            assert_eq!(got, exact_pick(&good, &bad, &candidates, 24));
        }
    }

    #[test]
    fn a_rung_is_modelled_only_from_two_observations() {
        let s = space();
        let mut tpe = TpeSampler::new(
            s.clone(),
            TpeConfig {
                min_points: 1,
                random_fraction: 0.0,
                ..TpeConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(4);
        tpe.record(&s.sample(&mut rng), 0, 1.0, 0.5);
        assert_eq!(tpe.model_rung(), None);
        assert_eq!(tpe.propose(&s, &mut rng).len(), 2);
        tpe.record(&s.sample(&mut rng), 0, 1.0, 0.7);
        assert_eq!(tpe.model_rung(), Some(0));
        assert_eq!(tpe.propose(&s, &mut rng).len(), 2);
    }

    #[test]
    fn a_cursor_that_does_not_fit_the_space_stays_cold() {
        let s = space();
        let narrow = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        let mut one_dim = TpeSampler::new(narrow.clone(), TpeConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..20 {
            one_dim.record(&narrow.sample(&mut rng), 0, 1.0, f64::from(i));
        }
        let mut by_rung = crate::cursor::ByRung::new();
        by_rung.insert(0, vec![(vec![0.5, f64::NAN], 0.1); 20]);
        let cursors = [
            one_dim.export_cursor().unwrap(),
            encode_by_rung(CURSOR_HEADER, &by_rung),
        ];
        for cursor in &cursors {
            let mut tpe = TpeSampler::new(
                s.clone(),
                TpeConfig {
                    random_fraction: 0.0,
                    ..TpeConfig::default()
                },
            );
            tpe.record(&s.default_config(), 0, 1.0, 0.5);
            tpe.restore_cursor(cursor);
            assert_eq!(tpe.observations_at(0), 1, "refused whole: {cursor}");
            assert_eq!(tpe.propose(&s, &mut rng).len(), 2);
        }
    }
}
