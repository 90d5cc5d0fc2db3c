use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::ParamValue;

/// Sampling scale for a continuous hyperparameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Sample uniformly in the raw value.
    Linear,
    /// Sample uniformly in `log(value)`; requires strictly positive bounds.
    Log,
}

/// Specification of a single hyperparameter's domain.
///
/// The four variants cover everything that appears in the ASHA paper's search
/// spaces (Tables 1–3): continuous ranges on linear or log scale, integer
/// ranges, ordered numeric choices ("ordinal", e.g. batch size in
/// `{64, 128, 256, 512}`), and unordered categorical labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamSpec {
    /// A real-valued parameter in `[low, high]`.
    Continuous {
        /// Inclusive lower bound.
        low: f64,
        /// Inclusive upper bound.
        high: f64,
        /// Whether to sample uniformly in the value or in its logarithm.
        scale: Scale,
    },
    /// An integer-valued parameter in `[low, high]` (both inclusive).
    Discrete {
        /// Inclusive lower bound.
        low: i64,
        /// Inclusive upper bound.
        high: i64,
    },
    /// An ordered set of numeric choices; stored values are indices into
    /// `values`. PBT perturbs these to adjacent choices.
    Ordinal {
        /// The numeric choices, in increasing order.
        values: Vec<f64>,
    },
    /// An unordered set of labelled choices; stored values are indices into
    /// `labels`. PBT re-samples these uniformly when perturbing.
    Categorical {
        /// The choice labels.
        labels: Vec<String>,
    },
}

impl ParamSpec {
    /// Number of distinct values, if the domain is finite.
    pub(crate) fn cardinality(&self) -> Option<usize> {
        match self {
            ParamSpec::Continuous { .. } => None,
            ParamSpec::Discrete { low, high } => Some((high - low + 1) as usize),
            ParamSpec::Ordinal { values } => Some(values.len()),
            ParamSpec::Categorical { labels } => Some(labels.len()),
        }
    }

    /// Draw a uniform random value from this domain.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> ParamValue {
        self.from_unit(rng.gen::<f64>())
    }

    /// Map a point `u` in `[0, 1]` to a value in this domain.
    ///
    /// This is the inverse CDF of the uniform sampling distribution, so
    /// `from_unit(rng.gen())` and [`ParamSpec::sample`] agree. Values of `u`
    /// outside `[0, 1]` are clamped.
    pub fn from_unit(&self, u: f64) -> ParamValue {
        let u = u.clamp(0.0, 1.0);
        match self {
            ParamSpec::Continuous { low, high, scale } => match scale {
                Scale::Linear => ParamValue::Float(low + u * (high - low)),
                Scale::Log => {
                    let (ll, lh) = (low.ln(), high.ln());
                    ParamValue::Float((ll + u * (lh - ll)).exp())
                }
            },
            ParamSpec::Discrete { low, high } => {
                let n = (high - low + 1) as f64;
                let idx = (u * n).floor().min(n - 1.0) as i64;
                ParamValue::Int(low + idx)
            }
            ParamSpec::Ordinal { values } => {
                let n = values.len() as f64;
                ParamValue::Index((u * n).floor().min(n - 1.0) as usize)
            }
            ParamSpec::Categorical { labels } => {
                let n = labels.len() as f64;
                ParamValue::Index((u * n).floor().min(n - 1.0) as usize)
            }
        }
    }

    /// Map a value from this domain to `[0, 1]`.
    ///
    /// Finite domains map to bin centers so that `from_unit(to_unit(v)) == v`
    /// round-trips.
    pub fn to_unit(&self, value: &ParamValue) -> f64 {
        match (self, value) {
            (ParamSpec::Continuous { low, high, scale }, ParamValue::Float(v)) => match scale {
                Scale::Linear => ((v - low) / (high - low)).clamp(0.0, 1.0),
                Scale::Log => ((v.ln() - low.ln()) / (high.ln() - low.ln())).clamp(0.0, 1.0),
            },
            (ParamSpec::Discrete { low, high }, ParamValue::Int(v)) => {
                let n = (high - low + 1) as f64;
                (((v - low) as f64 + 0.5) / n).clamp(0.0, 1.0)
            }
            (ParamSpec::Ordinal { values }, ParamValue::Index(i)) => {
                ((*i as f64 + 0.5) / values.len() as f64).clamp(0.0, 1.0)
            }
            (ParamSpec::Categorical { labels }, ParamValue::Index(i)) => {
                ((*i as f64 + 0.5) / labels.len() as f64).clamp(0.0, 1.0)
            }
            // Mismatched kinds indicate a config from a different space; map
            // to the center so model-based code degrades gracefully.
            _ => 0.5,
        }
    }

    /// The numeric interpretation of a stored value: the float itself, the
    /// integer as a float, the ordinal's numeric choice, or the categorical
    /// index as a float.
    pub fn numeric(&self, value: &ParamValue) -> f64 {
        match (self, value) {
            (_, ParamValue::Float(v)) => *v,
            (_, ParamValue::Int(v)) => *v as f64,
            (ParamSpec::Ordinal { values }, ParamValue::Index(i)) => {
                values.get(*i).copied().unwrap_or(f64::NAN)
            }
            (_, ParamValue::Index(i)) => *i as f64,
        }
    }

    /// Perturb a value the way Population Based Training's explore step does
    /// (Appendix A.3 of the paper): continuous values are multiplied by
    /// `factor` or `1/factor` (clamped to the domain); finite domains move to
    /// one of the two adjacent choices; categorical values are re-sampled.
    pub(crate) fn perturb<R: Rng + ?Sized>(
        &self,
        value: &ParamValue,
        factor: f64,
        rng: &mut R,
    ) -> ParamValue {
        let up = rng.gen_bool(0.5);
        match (self, value) {
            (ParamSpec::Continuous { low, high, .. }, ParamValue::Float(v)) => {
                let mult = if up { factor } else { 1.0 / factor };
                ParamValue::Float((v * mult).clamp(*low, *high))
            }
            (ParamSpec::Discrete { low, high }, ParamValue::Int(v)) => {
                let step = if up { 1 } else { -1 };
                ParamValue::Int((v + step).clamp(*low, *high))
            }
            (ParamSpec::Ordinal { values }, ParamValue::Index(i)) => {
                let n = values.len();
                let j = if up {
                    (*i + 1).min(n - 1)
                } else {
                    i.saturating_sub(1)
                };
                ParamValue::Index(j)
            }
            _ => self.sample(rng),
        }
    }

    /// Render a stored value as a human-readable string.
    pub(crate) fn display_value(&self, value: &ParamValue) -> String {
        match (self, value) {
            (ParamSpec::Categorical { labels }, ParamValue::Index(i)) => labels
                .get(*i)
                .cloned()
                .unwrap_or_else(|| format!("<invalid index {i}>")),
            (ParamSpec::Ordinal { values }, ParamValue::Index(i)) => values
                .get(*i)
                .map(|v| format!("{v}"))
                .unwrap_or_else(|| format!("<invalid index {i}>")),
            (_, ParamValue::Float(v)) => format!("{v:.6e}"),
            (_, ParamValue::Int(v)) => format!("{v}"),
            (_, ParamValue::Index(i)) => format!("#{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn continuous_linear_sampling_stays_in_bounds() {
        let spec = ParamSpec::Continuous {
            low: -2.0,
            high: 3.0,
            scale: Scale::Linear,
        };
        let mut r = rng();
        for _ in 0..1000 {
            match spec.sample(&mut r) {
                ParamValue::Float(v) => assert!((-2.0..=3.0).contains(&v)),
                other => panic!("expected float, got {other:?}"),
            }
        }
    }

    #[test]
    fn continuous_log_sampling_is_log_uniform() {
        let spec = ParamSpec::Continuous {
            low: 1e-4,
            high: 1.0,
            scale: Scale::Log,
        };
        let mut r = rng();
        // Count how many samples fall below the geometric midpoint 1e-2; a
        // log-uniform distribution puts half its mass there.
        let mut below = 0;
        let n = 4000;
        for _ in 0..n {
            if let ParamValue::Float(v) = spec.sample(&mut r) {
                assert!((1e-4..=1.0).contains(&v));
                if v < 1e-2 {
                    below += 1;
                }
            }
        }
        let frac = below as f64 / n as f64;
        assert!(
            (frac - 0.5).abs() < 0.05,
            "log-uniform midpoint mass {frac}"
        );
    }

    #[test]
    fn discrete_sampling_covers_all_values() {
        let spec = ParamSpec::Discrete { low: 2, high: 5 };
        let mut r = rng();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            if let ParamValue::Int(v) = spec.sample(&mut r) {
                assert!((2..=5).contains(&v));
                seen.insert(v);
            }
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn unit_round_trip_continuous() {
        let spec = ParamSpec::Continuous {
            low: 0.5,
            high: 8.0,
            scale: Scale::Log,
        };
        for u in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = spec.from_unit(u);
            let u2 = spec.to_unit(&v);
            assert!((u - u2).abs() < 1e-12, "u={u} round-tripped to {u2}");
        }
    }

    #[test]
    fn unit_round_trip_finite_domains() {
        let specs = [
            ParamSpec::Discrete { low: -3, high: 10 },
            ParamSpec::Ordinal {
                values: vec![16.0, 32.0, 48.0, 64.0],
            },
            ParamSpec::Categorical {
                labels: vec!["relu".into(), "tanh".into(), "gelu".into()],
            },
        ];
        let mut r = rng();
        for spec in &specs {
            for _ in 0..100 {
                let v = spec.sample(&mut r);
                let v2 = spec.from_unit(spec.to_unit(&v));
                assert_eq!(v, v2, "round trip failed for {spec:?}");
            }
        }
    }

    #[test]
    fn from_unit_clamps_out_of_range_inputs() {
        let spec = ParamSpec::Discrete { low: 0, high: 9 };
        assert_eq!(spec.from_unit(-0.5), ParamValue::Int(0));
        assert_eq!(spec.from_unit(1.5), ParamValue::Int(9));
    }

    #[test]
    fn numeric_interpretation() {
        let ord = ParamSpec::Ordinal {
            values: vec![64.0, 128.0],
        };
        assert_eq!(ord.numeric(&ParamValue::Index(1)), 128.0);
        let cont = ParamSpec::Continuous {
            low: 0.0,
            high: 1.0,
            scale: Scale::Linear,
        };
        assert_eq!(cont.numeric(&ParamValue::Float(0.25)), 0.25);
        let disc = ParamSpec::Discrete { low: 0, high: 5 };
        assert_eq!(disc.numeric(&ParamValue::Int(3)), 3.0);
    }

    #[test]
    fn perturb_continuous_multiplies_and_clamps() {
        let spec = ParamSpec::Continuous {
            low: 0.1,
            high: 10.0,
            scale: Scale::Log,
        };
        let mut r = rng();
        for _ in 0..100 {
            if let ParamValue::Float(v) = spec.perturb(&ParamValue::Float(1.0), 1.2, &mut r) {
                assert!(
                    (v - 1.2).abs() < 1e-12 || (v - 1.0 / 1.2).abs() < 1e-12,
                    "unexpected perturbed value {v}"
                );
            }
        }
        // Clamping at the boundary.
        if let ParamValue::Float(v) = spec.perturb(&ParamValue::Float(10.0), 1.2, &mut r) {
            assert!(v <= 10.0);
        }
    }

    #[test]
    fn perturb_ordinal_moves_to_adjacent() {
        let spec = ParamSpec::Ordinal {
            values: vec![1.0, 2.0, 3.0],
        };
        let mut r = rng();
        for _ in 0..50 {
            if let ParamValue::Index(j) = spec.perturb(&ParamValue::Index(1), 1.2, &mut r) {
                assert!(j == 0 || j == 2);
            }
        }
        // Endpoints saturate.
        for _ in 0..50 {
            if let ParamValue::Index(j) = spec.perturb(&ParamValue::Index(0), 1.2, &mut r) {
                assert!(j <= 1);
            }
        }
    }

    #[test]
    fn cardinality() {
        assert_eq!(
            ParamSpec::Continuous {
                low: 0.0,
                high: 1.0,
                scale: Scale::Linear
            }
            .cardinality(),
            None
        );
        assert_eq!(
            ParamSpec::Discrete { low: 1, high: 10 }.cardinality(),
            Some(10)
        );
        assert_eq!(
            ParamSpec::Ordinal {
                values: vec![1.0, 2.0]
            }
            .cardinality(),
            Some(2)
        );
    }

    #[test]
    fn display_value_formats() {
        let cat = ParamSpec::Categorical {
            labels: vec!["a".into(), "b".into()],
        };
        assert_eq!(cat.display_value(&ParamValue::Index(1)), "b");
        let ord = ParamSpec::Ordinal {
            values: vec![64.0, 128.0],
        };
        assert_eq!(ord.display_value(&ParamValue::Index(0)), "64");
    }
}
