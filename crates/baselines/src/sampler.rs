//! The sampler kinds, as values a method description, `meta.json` and a
//! snapshot can name.

use asha_core::{ConfigSampler, RandomSampler};
use asha_space::SearchSpace;

use crate::gp::{GpSampler, GpSamplerConfig};
use crate::tpe::{TpeConfig, TpeSampler};

/// Where a successive-halving method draws new configurations from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Sampler {
    /// Uniformly from the search space.
    #[default]
    Random,
    /// From a TPE model of the losses seen so far (BOHB's sampler).
    Tpe,
    /// From a GP-EI model of the losses seen so far.
    Gp,
}

impl Sampler {
    /// The kind's name — `random`, `tpe` or `gp` — as `meta.json`,
    /// snapshots and `--sampler` spell it, and as the sampler it builds
    /// reports itself ([`ConfigSampler::name`]).
    pub fn name(self) -> &'static str {
        match self {
            Sampler::Random => "random",
            Sampler::Tpe => "tpe",
            Sampler::Gp => "gp",
        }
    }

    /// The kind [`Sampler::name`] spells `name`, if any.
    pub fn from_name(name: &str) -> Option<Self> {
        [Sampler::Random, Sampler::Tpe, Sampler::Gp]
            .into_iter()
            .find(|kind| kind.name() == name)
    }

    /// A fresh, cold sampler of this kind over `space`.
    pub fn build(self, space: &SearchSpace) -> Box<dyn ConfigSampler> {
        match self {
            Sampler::Random => Box::new(RandomSampler::new()),
            Sampler::Tpe => Box::new(TpeSampler::new(space.clone(), TpeConfig::default())),
            Sampler::Gp => Box::new(GpSampler::new(space.clone(), GpSamplerConfig::default())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asha_core::{Asha, AshaConfig, Scheduler};
    use asha_space::Scale;

    #[test]
    fn every_kind_round_trips_its_name_and_builds_a_sampler_of_that_name() {
        let space = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        for kind in [Sampler::Random, Sampler::Tpe, Sampler::Gp] {
            assert_eq!(Sampler::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build(&space).name(), kind.name());
        }
        assert_eq!(Sampler::from_name("bogus"), None);
        assert_eq!(Sampler::default(), Sampler::Random);
    }

    #[test]
    fn dasha_tpe_cross_names_itself() {
        let space = SearchSpace::builder()
            .continuous("x", 0.0, 1.0, Scale::Linear)
            .build()
            .unwrap();
        let config = AshaConfig::new(1.0, 9.0, 3.0).delayed();
        let tuner = Asha::with_sampler(space.clone(), config, Sampler::Tpe.build(&space));
        assert_eq!(tuner.name(), "D-ASHA+tpe");
    }
}
