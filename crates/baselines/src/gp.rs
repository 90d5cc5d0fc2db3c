//! A rung-conditioned Gaussian-process EI sampler as a [`ConfigSampler`],
//! and [`vizier`]: random search with it at Vizier's settings.
//!
//! Observations are grouped by rung in the [`Book`] TPE keeps too; a
//! proposal fits a GP to the *highest* rung with enough observations (the
//! A-BOHB conditioning: higher-fidelity losses dominate as soon as enough of
//! them exist) and maximizes expected improvement over random candidates.
//! Infinite losses enter the fit as `1e9`, which keeps the GP's target
//! standardization finite.
//!
//! The fit is cached until the model rung moves or
//! [`GpSamplerConfig::refit_every`] records arrive there. At one, with no
//! constant liar, the fit is a pure function of the book, and the book alone
//! is the cursor that restores byte-identical proposals after a crash; any
//! other setting keeps no cursor.

use asha_core::{Asha, AshaConfig, ConfigSampler};
use asha_math::{expected_improvement, Gp, GpConfig};
use asha_space::{Config, SearchSpace};
use rand::Rng;

use crate::cursor::Book;

/// Version header of the GP sampler cursor format.
const CURSOR_HEADER: &str = "gp-v1";

/// Tuning knobs of [`GpSampler`].
#[derive(Debug, Clone, PartialEq)]
pub struct GpSamplerConfig {
    /// Minimum observations at a rung before it is modelled; below this the
    /// sampler falls back to uniform random. Zero means "auto" (`d + 3`).
    pub min_points: usize,
    /// Random candidates scored by EI per proposal.
    pub candidates: usize,
    /// At most this many (most recent) observations enter the GP — bounds
    /// the `O(n^3)` Cholesky per fit.
    pub max_model_points: usize,
    /// Probability of proposing a uniform random configuration anyway,
    /// keeping exploration alive once the model takes over.
    pub random_fraction: f64,
    /// Refit once this many records have arrived at the model rung since
    /// the last fit; one refits whenever its data changed.
    pub refit_every: usize,
    /// Constant liar: proposals not yet recorded enter the fit at the model
    /// rung's best loss, which keeps parallel proposals apart (Vizier's
    /// batch heuristic).
    pub constant_liar: bool,
}

impl Default for GpSamplerConfig {
    fn default() -> Self {
        GpSamplerConfig {
            min_points: 0,
            candidates: 64,
            max_model_points: 200,
            random_fraction: 0.25,
            refit_every: 1,
            constant_liar: false,
        }
    }
}

impl GpSamplerConfig {
    /// Vizier's settings: ten random configurations before the model, 256
    /// EI candidates over the latest 300 losses, no random fraction, a
    /// refit every eight records and the constant liar.
    pub fn vizier() -> Self {
        GpSamplerConfig {
            min_points: 10,
            candidates: 256,
            max_model_points: 300,
            random_fraction: 0.0,
            refit_every: 8,
            constant_liar: true,
        }
    }
}

/// GP-EI as a [`ConfigSampler`]; see the module docs.
#[derive(Debug, Clone)]
pub struct GpSampler {
    book: Book,
    config: GpSamplerConfig,
    /// Unit points of the proposals not yet recorded, under the constant
    /// liar: `propose` pushes one, `record` swap-removes the first equal
    /// one. That is the proposal a record belongs to whenever no two
    /// in-flight proposals embed to the same unit point, which any space
    /// with a continuous parameter guarantees.
    pending: Vec<Vec<f64>>,
    fit: Option<Fit>,
}

/// A cached GP fit.
#[derive(Debug, Clone)]
struct Fit {
    model: Gp,
    /// The model rung it was fit to, and the records there at the time.
    rung: usize,
    records: usize,
    /// Its lowest target, liars included.
    best: f64,
}

/// A loss as the GP sees it.
fn capped(loss: f64) -> f64 {
    loss.min(1e9)
}

impl GpSampler {
    /// Create a GP-EI sampler over `space` with the given knobs.
    pub fn new(space: SearchSpace, config: GpSamplerConfig) -> Self {
        GpSampler {
            book: Book::new(space, config.min_points, 1),
            config,
            pending: Vec::new(),
            fit: None,
        }
    }

    /// Fit the GP to the latest [`GpSamplerConfig::max_model_points`]
    /// records at `rung`, then the liars; `None` if the fit fails.
    fn fit(&self, rung: usize) -> Option<Fit> {
        let records = self.book.rung(rung);
        let window = &records[records.len().saturating_sub(self.config.max_model_points)..];
        let mut xs: Vec<Vec<f64>> = window.iter().map(|(u, _)| u.clone()).collect();
        let mut ys: Vec<f64> = window.iter().map(|&(_, l)| capped(l)).collect();
        let liar = records
            .iter()
            .map(|&(_, l)| capped(l))
            .fold(f64::INFINITY, f64::min);
        xs.extend(self.pending.iter().cloned());
        ys.resize(xs.len(), liar);
        let model = Gp::fit(&xs, &ys, GpConfig::default()).ok()?;
        Some(Fit {
            model,
            rung,
            records: records.len(),
            best: ys.iter().copied().fold(f64::INFINITY, f64::min),
        })
    }

    fn choose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let fraction = self.config.random_fraction;
        if fraction > 0.0 && rng.gen::<f64>() < fraction {
            return space.sample(rng);
        }
        let Some(rung) = self.book.model_rung() else {
            return space.sample(rng);
        };
        let records = self.book.rung(rung);
        let stale = self.fit.as_ref().is_none_or(|fit| {
            fit.rung != rung || records.len() - fit.records >= self.config.refit_every
        });
        if stale {
            self.fit = self.fit(rung);
        }
        let Some(fit) = &self.fit else {
            return space.sample(rng);
        };
        // EI over uniform candidates, on the fit's best target or a better
        // record since; the first strict maximum wins.
        let best = records[fit.records..]
            .iter()
            .fold(fit.best, |b, &(_, l)| b.min(capped(l)));
        let mut argmax = (f64::NEG_INFINITY, None);
        for _ in 0..self.config.candidates {
            let u: Vec<f64> = (0..space.len()).map(|_| rng.gen::<f64>()).collect();
            let (mu, var) = fit.model.predict(&u);
            let ei = expected_improvement(mu, var, best);
            if ei > argmax.0 {
                argmax = (ei, Some(u));
            }
        }
        match argmax.1 {
            Some(u) => space.from_unit(&u),
            None => space.sample(rng),
        }
    }
}

impl ConfigSampler for GpSampler {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let config = self.choose(space, rng);
        if self.config.constant_liar {
            let unit = space
                .to_unit(&config)
                .expect("proposals come from this space");
            self.pending.push(unit);
        }
        config
    }

    fn record(&mut self, config: &Config, rung: usize, _resource: f64, loss: f64) {
        let unit = self.book.record(config, rung, loss);
        if let Some(at) = self.pending.iter().position(|p| Some(p.as_slice()) == unit) {
            self.pending.swap_remove(at);
        }
    }

    fn name(&self) -> &str {
        "gp"
    }

    fn export_cursor(&self) -> Option<String> {
        (self.config.refit_every <= 1 && !self.config.constant_liar)
            .then(|| self.book.export(CURSOR_HEADER))
    }

    fn restore_cursor(&mut self, cursor: &str) {
        self.book.restore(CURSOR_HEADER, cursor);
        self.fit = None;
    }
}

/// A stand-in for Google Vizier's default algorithm (Golovin et al., 2017)
/// as the paper runs it, "*without* the performance curve early-stopping
/// rule": every configuration trains to the full `max_resource` — random
/// search, [`Asha`] on [`AshaConfig::random`]'s one rung — and a
/// [`GpSampler`] picks each one, at [`GpSamplerConfig::vizier`]'s settings
/// for the paper's comparator. Named `Vizier`.
///
/// Faithful weaknesses are kept on purpose: the GP models raw losses, so the
/// divergent-perplexity tail of the PTB benchmark degrades the fit even when
/// losses are capped at 1000 — the behaviour the paper observes in Section
/// 4.3.
///
/// # Panics
///
/// Panics if `max_resource <= 0`.
pub fn vizier(space: SearchSpace, max_resource: f64, config: GpSamplerConfig) -> Asha {
    let sampler = Box::new(GpSampler::new(space.clone(), config));
    let mut asha = Asha::with_sampler(space, AshaConfig::random(max_resource), sampler);
    asha.set_name("Vizier");
    asha
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::{encode_by_rung, ByRung};
    use asha_core::{Observation, Scheduler, TrialId};
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
        let mut gp = GpSampler::new(s.clone(), GpSamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(0);
        let c = gp.propose(&s, &mut rng);
        assert_eq!(c.len(), 2);
        assert_eq!(gp.name(), "gp");
    }

    #[test]
    fn model_concentrates_on_the_optimum() {
        // Quadratic bowl at (0.3, 0.7); EI proposals should get closer than
        // uniform sampling once the model has data.
        let s = space();
        let mut gp = GpSampler::new(
            s.clone(),
            GpSamplerConfig {
                random_fraction: 0.0,
                ..GpSamplerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..60 {
            let c = s.sample(&mut rng);
            let u = s.to_unit(&c).unwrap();
            let loss = (u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2);
            gp.record(&c, 0, 1.0, loss);
        }
        let mut dist_sum = 0.0;
        let n = 30;
        for _ in 0..n {
            let c = gp.propose(&s, &mut rng);
            let u = s.to_unit(&c).unwrap();
            dist_sum += ((u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2)).sqrt();
        }
        let mean_dist = dist_sum / n as f64;
        assert!(
            mean_dist < 0.35,
            "mean distance {mean_dist} (uniform ≈ 0.48)"
        );
    }

    #[test]
    fn conditions_on_the_highest_modelled_rung() {
        let s = space();
        let mut gp = GpSampler::new(s.clone(), GpSamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20 {
            let c = s.sample(&mut rng);
            gp.record(&c, 0, 1.0, 0.5);
        }
        for _ in 0..3 {
            let c = s.sample(&mut rng);
            gp.record(&c, 2, 9.0, 0.4);
        }
        // Rung 2 has too few points (need d+3 = 5): the model rung is 0.
        assert_eq!(gp.book.model_rung(), Some(0));
        for _ in 0..5 {
            let c = s.sample(&mut rng);
            gp.record(&c, 2, 9.0, 0.4);
        }
        assert_eq!(gp.book.model_rung(), Some(2));
    }

    #[test]
    fn cursor_roundtrip_restores_identical_proposals() {
        let s = space();
        let mut warm = GpSampler::new(s.clone(), GpSamplerConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..30 {
            let c = s.sample(&mut rng);
            warm.record(&c, i % 2, 1.0, (i as f64).cos());
        }
        let cursor = warm.export_cursor().expect("gp keeps a cursor");
        let mut cold = GpSampler::new(s.clone(), GpSamplerConfig::default());
        cold.restore_cursor(&cursor);
        assert_eq!(cold.export_cursor().as_deref(), Some(cursor.as_str()));
        let mut ra = StdRng::seed_from_u64(9);
        let mut rb = StdRng::seed_from_u64(9);
        for _ in 0..10 {
            let a = warm.propose(&s, &mut ra);
            let b = cold.propose(&s, &mut rb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        // Records interleaved with proposals, some of them repeated with no
        // record between (a cached fit), some at a rung that is not
        // modelled: a sampler restored cold before every proposal, so
        // fitting from the book alone, proposes what the warm one does.
        for i in 0..40 {
            if i % 3 != 2 {
                let c = s.sample(&mut rng);
                warm.record(&c, [0, 0, 1, 3][i % 4], 1.0, (i as f64).sin());
            }
            let mut cold = GpSampler::new(s.clone(), GpSamplerConfig::default());
            cold.restore_cursor(&warm.export_cursor().expect("gp keeps a cursor"));
            let a = warm.propose(&s, &mut ra);
            let b = cold.propose(&s, &mut rb);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "proposal {i}");
        }
        // A fit that outlives records, or carries liars, is not a function
        // of the book: such a sampler keeps no cursor.
        let vizier = GpSampler::new(s.clone(), GpSamplerConfig::vizier());
        assert_eq!(vizier.export_cursor(), None);
        for config in [
            GpSamplerConfig {
                refit_every: 2,
                ..GpSamplerConfig::default()
            },
            GpSamplerConfig {
                constant_liar: true,
                ..GpSamplerConfig::default()
            },
        ] {
            assert_eq!(GpSampler::new(s.clone(), config).export_cursor(), None);
        }
    }

    #[test]
    fn a_cursor_that_does_not_fit_the_space_stays_cold() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(6);
        let mut short = ByRung::new();
        short.insert(
            0,
            (0..20)
                .map(|i| (vec![rng.gen::<f64>()], f64::from(i)))
                .collect(),
        );
        let mut out_of_range = ByRung::new();
        out_of_range.insert(0, vec![(vec![0.5, 1.5], 0.1); 20]);
        let mut nan_loss = ByRung::new();
        nan_loss.insert(0, vec![(vec![0.5, 0.5], f64::NAN); 20]);
        let mut fits = ByRung::new();
        fits.insert(0, vec![(vec![0.5, 0.5], 0.1); 20]);
        let once = encode_by_rung(CURSOR_HEADER, &fits);
        let rung_twice = format!("{once};{}", &once[CURSOR_HEADER.len() + 1..]);
        let cursors = [short, out_of_range, nan_loss]
            .iter()
            .map(|by_rung| encode_by_rung(CURSOR_HEADER, by_rung))
            .chain([rung_twice])
            .collect::<Vec<_>>();
        for cursor in cursors {
            let mut gp = GpSampler::new(
                s.clone(),
                GpSamplerConfig {
                    random_fraction: 0.0,
                    ..GpSamplerConfig::default()
                },
            );
            gp.restore_cursor(&cursor);
            assert_eq!(
                gp.export_cursor().as_deref(),
                Some(CURSOR_HEADER),
                "refused whole: {cursor}"
            );
            assert_eq!(gp.propose(&s, &mut rng).len(), 2);
        }
    }

    #[test]
    fn the_liar_stands_in_for_proposals_until_their_record() {
        let s = space();
        let mut gp = GpSampler::new(
            s.clone(),
            GpSamplerConfig {
                min_points: 3,
                max_model_points: 3,
                refit_every: 1,
                ..GpSamplerConfig::vizier()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        // Configs never proposed are recorded but stand for no liar.
        for loss in [0.0, 5.0, 6.0, f64::NAN] {
            gp.record(&s.sample(&mut rng), 0, 1.0, loss);
        }
        assert_eq!(gp.book.rung(0)[3].1, f64::INFINITY);
        assert!(gp.pending.is_empty());
        // The first fit: the latest three records (the infinite loss
        // capped), no liar.
        let first = gp.propose(&s, &mut rng);
        let fit = gp.fit.as_ref().expect("four records are modelled");
        assert_eq!((fit.records, fit.best, gp.pending.len()), (4, 5.0, 1));
        // A record arrives while `first` is in flight: the refit carries it
        // at the rung's best loss, 0, older than the window.
        gp.record(&s.sample(&mut rng), 0, 1.0, 7.0);
        let second = gp.propose(&s, &mut rng);
        let fit = gp.fit.as_ref().expect("five records are modelled");
        assert_eq!((fit.records, fit.best, gp.pending.len()), (5, 0.0, 2));
        // Each record retires its own liar.
        gp.record(&second, 0, 1.0, 1.0);
        assert_eq!(gp.pending, [s.to_unit(&first).unwrap()]);
        gp.record(&first, 0, 1.0, 1.0);
        assert!(gp.pending.is_empty());
    }

    #[test]
    fn a_record_since_the_fit_can_be_the_incumbent() {
        let s = space();
        let mut gp = GpSampler::new(
            s.clone(),
            GpSamplerConfig {
                random_fraction: 0.0,
                refit_every: 100,
                ..GpSamplerConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(8);
        let bowl = |c: &Config| {
            let u = s.to_unit(c).unwrap();
            1.0 + 10.0 * ((u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2))
        };
        for _ in 0..12 {
            let c = s.sample(&mut rng);
            gp.record(&c, 0, 1.0, bowl(&c));
        }
        let _ = gp.propose(&s, &mut rng);
        gp.record(&s.sample(&mut rng), 0, 1.0, -5.0);
        let fit = gp.fit.clone().expect("twelve records are modelled");
        assert_eq!(fit.records, 12);
        // EI's argmax over the 64 candidates a stream seeded `seed` draws.
        let pick = |seed: u64, best: f64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut argmax = (f64::NEG_INFINITY, Vec::new());
            for _ in 0..64 {
                let u = vec![rng.gen::<f64>(), rng.gen::<f64>()];
                let (mu, var) = fit.model.predict(&u);
                let ei = expected_improvement(mu, var, best);
                if ei > argmax.0 {
                    argmax = (ei, u);
                }
            }
            format!("{:?}", s.from_unit(&argmax.1))
        };
        let seed = (0..100)
            .find(|&seed| pick(seed, -5.0) != pick(seed, fit.best))
            .expect("the incumbent moves some argmax");
        let got = gp.propose(&s, &mut StdRng::seed_from_u64(seed));
        assert_eq!(format!("{got:?}"), pick(seed, -5.0));
        assert_eq!(gp.fit.as_ref().map(|fit| fit.records), Some(12));
    }

    #[test]
    fn vizier_runs_every_job_as_a_fresh_trial_at_full_budget() {
        let mut v = vizier(space(), 256.0, GpSamplerConfig::vizier());
        assert_eq!(v.name(), "Vizier");
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..30 {
            let job = v.suggest(&mut rng).job().expect("vizier always has work");
            assert_eq!(
                (job.trial, job.rung, job.resource, job.bracket),
                (TrialId(i), 0, 256.0, 0)
            );
            v.observe(Observation::for_job(&job, 1.0));
        }
    }

    #[test]
    fn vizier_concentrates_proposals() {
        // Quadratic bowl at (0.3, 0.7); after warmup the EI proposals should
        // be much closer to the optimum than uniform sampling.
        let s = space();
        let mut v = vizier(s.clone(), 1.0, GpSamplerConfig::vizier());
        let mut rng = StdRng::seed_from_u64(1);
        let mut dists = Vec::new();
        for i in 0..80 {
            let job = v.suggest(&mut rng).job().unwrap();
            let u = s.to_unit(&job.config).unwrap();
            if i >= 40 {
                dists.push(((u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2)).sqrt());
            }
            let loss = (u[0] - 0.3).powi(2) + (u[1] - 0.7).powi(2);
            v.observe(Observation::for_job(&job, loss));
        }
        let mean_dist = dists.iter().sum::<f64>() / dists.len() as f64;
        assert!(
            mean_dist < 0.30,
            "mean distance {mean_dist} (uniform ≈ 0.48)"
        );
    }

    #[test]
    fn vizier_batch_constant_liar_diversifies_pending() {
        // Issue a batch of 10 with no observations: after warmup data the
        // liar should keep proposals from collapsing to one point.
        let s = space();
        let mut v = vizier(s.clone(), 1.0, GpSamplerConfig::vizier());
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..12 {
            let job = v.suggest(&mut rng).job().unwrap();
            let u = s.to_unit(&job.config).unwrap();
            v.observe(Observation::for_job(&job, (u[0] - 0.5).powi(2)));
        }
        let batch: Vec<Vec<f64>> = (0..10)
            .map(|_| {
                let job = v.suggest(&mut rng).job().unwrap();
                s.to_unit(&job.config).unwrap()
            })
            .collect();
        let first = &batch[0];
        assert!(
            batch
                .iter()
                .any(|u| { (u[0] - first[0]).abs() > 1e-3 || (u[1] - first[1]).abs() > 1e-3 }),
            "batch collapsed to a single point"
        );
    }
}
