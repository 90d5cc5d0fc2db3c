use std::collections::HashMap;
use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::{Config, ParamValue};
use crate::error::SpaceError;
use crate::param::{ParamSpec, Scale};

/// A named hyperparameter: a name plus its domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Param {
    name: String,
    spec: ParamSpec,
}

impl Param {
    /// The parameter's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter's domain.
    pub fn spec(&self) -> &ParamSpec {
        &self.spec
    }
}

/// An ordered collection of named hyperparameters.
///
/// Construct with [`SearchSpace::builder`]. See the crate-level docs for an
/// example.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSpace {
    params: Vec<Param>,
    #[serde(skip)]
    by_name: HashMap<String, usize>,
    /// `(low.ln(), high.ln())` per log-scale continuous parameter, `None`
    /// for every other kind: the bounds never change, so their logarithms
    /// are taken once here instead of on every sample and unit mapping.
    /// Derived like `by_name`, and like it absent (empty) on a deserialized
    /// space, where every use falls back to the `ParamSpec` method.
    #[serde(skip)]
    log_bounds: Vec<Option<(f64, f64)>>,
}

impl PartialEq for SearchSpace {
    fn eq(&self, other: &Self) -> bool {
        self.params == other.params
    }
}

impl SearchSpace {
    /// Start building a search space.
    pub fn builder() -> SearchSpaceBuilder {
        SearchSpaceBuilder { params: Vec::new() }
    }

    /// Number of hyperparameters (the dimensionality of the space).
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the space has no parameters.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// The parameters in declaration order.
    pub fn params(&self) -> &[Param] {
        &self.params
    }

    /// Iterate over `(name, spec)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamSpec)> {
        self.params.iter().map(|p| (p.name.as_str(), &p.spec))
    }

    /// Position of the named parameter.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] when no parameter has that name.
    pub fn index_of(&self, name: &str) -> Result<usize, SpaceError> {
        if let Some(&i) = self.by_name.get(name) {
            return Ok(i);
        }
        // The name index is `#[serde(skip)]`ped, so a deserialized space
        // arrives without it; fall back to a linear scan rather than
        // reporting every parameter unknown.
        self.params
            .iter()
            .position(|p| p.name == name)
            .ok_or_else(|| SpaceError::UnknownParam(name.to_owned()))
    }

    /// The spec at a given position.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    pub fn spec_at(&self, idx: usize) -> &ParamSpec {
        &self.params[idx].spec
    }

    /// Draw a uniformly random configuration.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Config {
        (0..self.params.len())
            .map(|i| self.value_at(i, rng.gen::<f64>()))
            .collect()
    }

    /// The configuration at the center of every parameter's domain; useful as
    /// a deterministic placeholder in tests and examples.
    pub fn default_config(&self) -> Config {
        self.params.iter().map(|p| p.spec.from_unit(0.5)).collect()
    }

    /// Map a configuration into the unit hypercube `[0, 1]^d`, the
    /// representation the model-based samplers (TPE, GP-EI) operate on.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::ArityMismatch`] if the configuration does not
    /// have exactly one value per parameter.
    pub fn to_unit(&self, config: &Config) -> Result<Vec<f64>, SpaceError> {
        self.check_arity(config)?;
        Ok(self
            .params
            .iter()
            .zip(config.values())
            .enumerate()
            .map(|(i, (p, v))| match (self.log_bounds.get(i), v) {
                (Some(&Some((ll, lh))), ParamValue::Float(v)) => {
                    ((v.ln() - ll) / (lh - ll)).clamp(0.0, 1.0)
                }
                _ => p.spec.to_unit(v),
            })
            .collect())
    }

    /// Map a point in `[0, 1]^d` back to a configuration. Coordinates outside
    /// `[0, 1]` are clamped; missing trailing coordinates default to `0.5`.
    pub fn from_unit(&self, unit: &[f64]) -> Config {
        (0..self.params.len())
            .map(|i| self.value_at(i, unit.get(i).copied().unwrap_or(0.5)))
            .collect()
    }

    /// [`ParamSpec::from_unit`] of parameter `i`, bit for bit, reading the
    /// logarithms of a log-scale parameter's bounds from `log_bounds`.
    fn value_at(&self, i: usize, u: f64) -> ParamValue {
        match self.log_bounds.get(i) {
            Some(&Some((ll, lh))) => ParamValue::Float((ll + u.clamp(0.0, 1.0) * (lh - ll)).exp()),
            _ => self.params[i].spec.from_unit(u),
        }
    }

    /// Perturb every value of a configuration the way PBT's explore step
    /// does; see [`ParamSpec::perturb`]. `frozen` names parameters that must
    /// not change (the paper freezes architecture-changing hyperparameters).
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::ArityMismatch`] if the configuration does not
    /// match this space.
    pub fn perturb<R: Rng + ?Sized>(
        &self,
        config: &Config,
        factor: f64,
        frozen: &[&str],
        rng: &mut R,
    ) -> Result<Config, SpaceError> {
        self.check_arity(config)?;
        Ok(self
            .params
            .iter()
            .zip(config.values())
            .map(|(p, v)| {
                if frozen.contains(&p.name.as_str()) {
                    v.clone()
                } else {
                    p.spec.perturb(v, factor, rng)
                }
            })
            .collect())
    }

    /// Render a configuration as `name=value` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::ArityMismatch`] if the configuration does not
    /// match this space.
    pub fn display(&self, config: &Config) -> Result<String, SpaceError> {
        self.check_arity(config)?;
        Ok(self
            .params
            .iter()
            .zip(config.values())
            .map(|(p, v)| format!("{}={}", p.name, p.spec.display_value(v)))
            .collect::<Vec<_>>()
            .join(" "))
    }

    /// Check that `config` could have come from this space: one value per
    /// parameter, each of the parameter's kind, floats finite and choice
    /// indices in range. For configurations that arrive from outside the
    /// program (a stored snapshot, a wire frame); configurations this space
    /// produced pass by construction.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::ArityMismatch`] on a wrong value count and
    /// [`SpaceError::TypeMismatch`] on a value its parameter cannot hold.
    pub fn check(&self, config: &Config) -> Result<(), SpaceError> {
        self.check_arity(config)?;
        for (p, v) in self.params.iter().zip(config.values()) {
            let requested = match (&p.spec, v) {
                (ParamSpec::Continuous { .. }, ParamValue::Float(x)) if x.is_finite() => continue,
                (ParamSpec::Continuous { .. }, _) => "a finite float",
                (ParamSpec::Discrete { .. }, ParamValue::Int(_)) => continue,
                (ParamSpec::Discrete { .. }, _) => "an integer",
                (spec, ParamValue::Index(i)) if spec.cardinality().is_some_and(|n| *i < n) => {
                    continue
                }
                _ => "an index into its choices",
            };
            return Err(SpaceError::TypeMismatch {
                name: p.name.clone(),
                requested,
            });
        }
        Ok(())
    }

    fn check_arity(&self, config: &Config) -> Result<(), SpaceError> {
        if config.len() != self.params.len() {
            return Err(SpaceError::ArityMismatch {
                expected: self.params.len(),
                found: config.len(),
            });
        }
        Ok(())
    }

    fn rebuild_derived(&mut self) {
        self.by_name = self
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        self.log_bounds = self
            .params
            .iter()
            .map(|p| match p.spec {
                ParamSpec::Continuous {
                    low,
                    high,
                    scale: Scale::Log,
                } => Some((low.ln(), high.ln())),
                _ => None,
            })
            .collect();
    }
}

impl fmt::Display for SearchSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in &self.params {
            match &p.spec {
                ParamSpec::Continuous { low, high, scale } => {
                    let scale = match scale {
                        Scale::Linear => "linear",
                        Scale::Log => "log",
                    };
                    writeln!(
                        f,
                        "{:<24} continuous {scale:<7} [{low:.6e}, {high:.6e}]",
                        p.name
                    )?
                }
                ParamSpec::Discrete { low, high } => {
                    writeln!(f, "{:<24} discrete           [{low}, {high}]", p.name)?
                }
                ParamSpec::Ordinal { values } => {
                    let vs: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
                    writeln!(f, "{:<24} choice             {{{}}}", p.name, vs.join(", "))?
                }
                ParamSpec::Categorical { labels } => writeln!(
                    f,
                    "{:<24} categorical        {{{}}}",
                    p.name,
                    labels.join(", ")
                )?,
            }
        }
        Ok(())
    }
}

/// Incremental builder for [`SearchSpace`]; see [`SearchSpace::builder`].
#[derive(Debug, Clone)]
pub struct SearchSpaceBuilder {
    params: Vec<Param>,
}

impl SearchSpaceBuilder {
    /// Add a continuous parameter on the given scale.
    pub fn continuous(mut self, name: &str, low: f64, high: f64, scale: Scale) -> Self {
        self.params.push(Param {
            name: name.to_owned(),
            spec: ParamSpec::Continuous { low, high, scale },
        });
        self
    }

    /// Add an integer-range parameter (inclusive bounds).
    pub fn discrete(mut self, name: &str, low: i64, high: i64) -> Self {
        self.params.push(Param {
            name: name.to_owned(),
            spec: ParamSpec::Discrete { low, high },
        });
        self
    }

    /// Add an ordered numeric choice parameter.
    pub fn ordinal(mut self, name: &str, values: &[f64]) -> Self {
        self.params.push(Param {
            name: name.to_owned(),
            spec: ParamSpec::Ordinal {
                values: values.to_vec(),
            },
        });
        self
    }

    /// Add an unordered categorical parameter.
    pub fn categorical(mut self, name: &str, labels: &[&str]) -> Self {
        self.params.push(Param {
            name: name.to_owned(),
            spec: ParamSpec::Categorical {
                labels: labels.iter().map(|s| (*s).to_owned()).collect(),
            },
        });
        self
    }

    /// Finish building, validating every parameter.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::DuplicateName`] for repeated names,
    /// [`SpaceError::InvalidBounds`] for empty or non-finite ranges (or
    /// non-positive bounds on log scale), and [`SpaceError::EmptyChoices`]
    /// for choice parameters with no options.
    pub fn build(self) -> Result<SearchSpace, SpaceError> {
        let mut seen = HashMap::new();
        for (i, p) in self.params.iter().enumerate() {
            if seen.insert(p.name.clone(), i).is_some() {
                return Err(SpaceError::DuplicateName(p.name.clone()));
            }
            match &p.spec {
                ParamSpec::Continuous { low, high, scale } => {
                    if !low.is_finite() || !high.is_finite() || low >= high {
                        return Err(SpaceError::InvalidBounds {
                            name: p.name.clone(),
                            reason: format!("range [{low}, {high}] is empty or non-finite"),
                        });
                    }
                    if *scale == Scale::Log && *low <= 0.0 {
                        return Err(SpaceError::InvalidBounds {
                            name: p.name.clone(),
                            reason: format!("log scale requires positive bounds, got low={low}"),
                        });
                    }
                }
                ParamSpec::Discrete { low, high } => {
                    if low > high {
                        return Err(SpaceError::InvalidBounds {
                            name: p.name.clone(),
                            reason: format!("range [{low}, {high}] is empty"),
                        });
                    }
                }
                ParamSpec::Ordinal { values } => {
                    if values.is_empty() {
                        return Err(SpaceError::EmptyChoices(p.name.clone()));
                    }
                }
                ParamSpec::Categorical { labels } => {
                    if labels.is_empty() {
                        return Err(SpaceError::EmptyChoices(p.name.clone()));
                    }
                }
            }
        }
        let mut space = SearchSpace {
            params: self.params,
            by_name: HashMap::new(),
            log_bounds: Vec::new(),
        };
        space.rebuild_derived();
        Ok(space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .discrete("layers", 2, 4)
            .ordinal("batch", &[64.0, 128.0, 256.0])
            .categorical("act", &["relu", "tanh"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates_duplicate_names() {
        let err = SearchSpace::builder()
            .discrete("n", 0, 1)
            .discrete("n", 0, 2)
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::DuplicateName("n".into()));
    }

    #[test]
    fn builder_validates_bounds() {
        assert!(matches!(
            SearchSpace::builder()
                .continuous("x", 1.0, 0.0, Scale::Linear)
                .build(),
            Err(SpaceError::InvalidBounds { .. })
        ));
        assert!(matches!(
            SearchSpace::builder()
                .continuous("x", -1.0, 1.0, Scale::Log)
                .build(),
            Err(SpaceError::InvalidBounds { .. })
        ));
        assert!(matches!(
            SearchSpace::builder().discrete("x", 5, 4).build(),
            Err(SpaceError::InvalidBounds { .. })
        ));
        assert!(matches!(
            SearchSpace::builder().ordinal("x", &[]).build(),
            Err(SpaceError::EmptyChoices(_))
        ));
    }

    #[test]
    fn sample_produces_valid_configs() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let c = s.sample(&mut rng);
            assert_eq!(c.len(), 4);
            let lr = c.float("lr", &s).unwrap();
            assert!((1e-4..=1.0).contains(&lr));
            let layers = c.int("layers", &s).unwrap();
            assert!((2..=4).contains(&layers));
            assert!(c.index("batch", &s).unwrap() < 3);
            assert!(c.index("act", &s).unwrap() < 2);
        }
    }

    #[test]
    fn unit_round_trip() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let c = s.sample(&mut rng);
            let u = s.to_unit(&c).unwrap();
            assert_eq!(u.len(), 4);
            assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
            let c2 = s.from_unit(&u);
            // Continuous coordinates round-trip approximately; finite ones
            // exactly.
            let lr1 = c.float("lr", &s).unwrap();
            let lr2 = c2.float("lr", &s).unwrap();
            assert!((lr1.ln() - lr2.ln()).abs() < 1e-9);
            assert_eq!(c.int("layers", &s), c2.int("layers", &s));
            assert_eq!(c.index("batch", &s), c2.index("batch", &s));
        }
    }

    #[test]
    fn a_space_without_its_derived_caches_produces_the_same_bits() {
        // What `#[serde(skip)]` leaves behind: the parameters and nothing
        // derived from them.
        let cached = space();
        let bare = SearchSpace {
            params: cached.params.clone(),
            by_name: HashMap::new(),
            log_bounds: Vec::new(),
        };
        assert_eq!(bare.index_of("batch"), Ok(2));
        let bits = |c: &Config| -> Vec<u64> {
            c.values()
                .iter()
                .map(|v| match v {
                    ParamValue::Float(x) => x.to_bits(),
                    ParamValue::Int(x) => *x as u64,
                    ParamValue::Index(x) => *x as u64,
                })
                .collect()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let mut twin = rng.clone();
        for _ in 0..200 {
            let c = cached.sample(&mut rng);
            assert_eq!(bits(&c), bits(&bare.sample(&mut twin)));
            let u = cached.to_unit(&c).unwrap();
            let bare_u = bare.to_unit(&c).unwrap();
            assert!(u
                .iter()
                .zip(&bare_u)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(bits(&cached.from_unit(&u)), bits(&bare.from_unit(&u)));
        }
    }

    #[test]
    fn check_accepts_own_configs_and_rejects_foreign_ones() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..50 {
            assert_eq!(s.check(&s.sample(&mut rng)), Ok(()));
        }
        let good = s.default_config();
        let with = |i: usize, v: ParamValue| {
            let mut c = good.clone();
            c.values_mut()[i] = v;
            c
        };
        assert!(matches!(
            s.check(&Config::new(good.values()[..3].to_vec())),
            Err(SpaceError::ArityMismatch {
                expected: 4,
                found: 3
            })
        ));
        assert!(matches!(
            s.check(&with(0, ParamValue::Int(1))),
            Err(SpaceError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.check(&with(1, ParamValue::Float(3.0))),
            Err(SpaceError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.check(&with(3, ParamValue::Int(0))),
            Err(SpaceError::TypeMismatch { .. })
        ));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                s.check(&with(0, ParamValue::Float(bad))),
                Err(SpaceError::TypeMismatch { .. })
            ));
        }
        assert_eq!(s.check(&with(2, ParamValue::Index(2))), Ok(()));
        assert!(matches!(
            s.check(&with(2, ParamValue::Index(3))),
            Err(SpaceError::TypeMismatch { .. })
        ));
        assert!(matches!(
            s.check(&with(3, ParamValue::Index(2))),
            Err(SpaceError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn arity_mismatch_detected() {
        let s = space();
        let c = Config::new(vec![ParamValue::Float(0.1)]);
        assert!(matches!(
            s.to_unit(&c),
            Err(SpaceError::ArityMismatch {
                expected: 4,
                found: 1
            })
        ));
    }

    #[test]
    fn perturb_respects_frozen_params() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(3);
        let c = s.sample(&mut rng);
        let layers_before = c.int("layers", &s).unwrap();
        for _ in 0..20 {
            let p = s.perturb(&c, 1.2, &["layers", "act"], &mut rng).unwrap();
            assert_eq!(p.int("layers", &s).unwrap(), layers_before);
            assert_eq!(p.index("act", &s).unwrap(), c.index("act", &s).unwrap());
        }
    }

    #[test]
    fn display_lists_all_params() {
        let s = space();
        let c = s.default_config();
        let text = s.display(&c).unwrap();
        for name in ["lr", "layers", "batch", "act"] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
        let spec_text = s.to_string();
        assert!(spec_text.contains("continuous"));
        assert!(spec_text.contains("categorical"));
    }

    #[test]
    fn default_config_is_deterministic_center() {
        let s = space();
        let c1 = s.default_config();
        let c2 = s.default_config();
        assert_eq!(c1, c2);
        // Center of log scale [1e-4, 1] is 1e-2.
        assert!((c1.float("lr", &s).unwrap() - 1e-2).abs() < 1e-9);
    }
}
