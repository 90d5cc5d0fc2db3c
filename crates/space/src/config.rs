use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::SpaceError;
use crate::space::SearchSpace;

/// A single sampled hyperparameter value.
///
/// Values are stored in the representation that matches their
/// [`crate::ParamSpec`] variant: floats for continuous parameters, integers
/// for discrete ranges, and indices for ordinal/categorical choices.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ParamValue {
    /// Value of a continuous parameter.
    Float(f64),
    /// Value of a discrete integer parameter.
    Int(i64),
    /// Index into the choices of an ordinal or categorical parameter.
    Index(usize),
}

/// A complete hyperparameter configuration: one [`ParamValue`] per parameter
/// of the [`SearchSpace`] it was sampled from, in the space's declaration
/// order.
///
/// Configurations are plain data (serializable) and do not hold a reference
/// to their space; accessors take the space as an argument so that values can
/// be interpreted and validated.
///
/// A configuration is a shared immutable value: its values live in one
/// reference-counted allocation, so a clone — one per issued job, pending
/// job and exported trial — is a count increment. [`Config::values_mut`]
/// copies on write.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Config {
    values: Arc<[ParamValue]>,
}

impl Config {
    /// Build a configuration directly from values.
    ///
    /// Most callers should use [`SearchSpace::sample`] instead.
    pub fn new(values: Vec<ParamValue>) -> Self {
        Config {
            values: values.into(),
        }
    }

    /// The raw values in declaration order.
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Mutable access to the raw values (used by PBT's explore step). Copies
    /// them first if another clone shares them, so no clone sees the edit.
    pub fn values_mut(&mut self) -> &mut [ParamValue] {
        Arc::make_mut(&mut self.values)
    }

    /// Number of values (equals the arity of the originating space).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the configuration is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Read a continuous parameter by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] if `name` is not in `space`, and
    /// [`SpaceError::TypeMismatch`] if the parameter is not continuous.
    pub fn float(&self, name: &str, space: &SearchSpace) -> Result<f64, SpaceError> {
        let idx = space.index_of(name)?;
        match self.values.get(idx) {
            Some(ParamValue::Float(v)) => Ok(*v),
            _ => Err(SpaceError::TypeMismatch {
                name: name.to_owned(),
                requested: "a float",
            }),
        }
    }

    /// Read a discrete integer parameter by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] if `name` is not in `space`, and
    /// [`SpaceError::TypeMismatch`] if the parameter is not discrete.
    pub fn int(&self, name: &str, space: &SearchSpace) -> Result<i64, SpaceError> {
        let idx = space.index_of(name)?;
        match self.values.get(idx) {
            Some(ParamValue::Int(v)) => Ok(*v),
            _ => Err(SpaceError::TypeMismatch {
                name: name.to_owned(),
                requested: "an integer",
            }),
        }
    }

    /// Read the choice index of an ordinal or categorical parameter by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] if `name` is not in `space`, and
    /// [`SpaceError::TypeMismatch`] if the parameter is not a choice.
    pub fn index(&self, name: &str, space: &SearchSpace) -> Result<usize, SpaceError> {
        let idx = space.index_of(name)?;
        match self.values.get(idx) {
            Some(ParamValue::Index(v)) => Ok(*v),
            _ => Err(SpaceError::TypeMismatch {
                name: name.to_owned(),
                requested: "a choice index",
            }),
        }
    }

    /// The numeric interpretation of the named parameter, regardless of kind
    /// (continuous value, integer as float, ordinal's numeric choice, or
    /// categorical index). See [`crate::ParamSpec::numeric`].
    ///
    /// # Errors
    ///
    /// Returns [`SpaceError::UnknownParam`] if `name` is not in `space`.
    #[cfg(test)]
    pub(crate) fn numeric(&self, name: &str, space: &SearchSpace) -> Result<f64, SpaceError> {
        let idx = space.index_of(name)?;
        let spec = space.spec_at(idx);
        Ok(self
            .values
            .get(idx)
            .map(|v| spec.numeric(v))
            .unwrap_or(f64::NAN))
    }
}

impl FromIterator<ParamValue> for Config {
    fn from_iter<I: IntoIterator<Item = ParamValue>>(iter: I) -> Self {
        Config {
            values: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Scale;

    fn space() -> SearchSpace {
        SearchSpace::builder()
            .continuous("lr", 1e-4, 1.0, Scale::Log)
            .discrete("layers", 2, 4)
            .ordinal("batch", &[64.0, 128.0, 256.0])
            .categorical("act", &["relu", "tanh"])
            .build()
            .expect("valid space")
    }

    #[test]
    fn typed_accessors() {
        let s = space();
        let c = Config::new(vec![
            ParamValue::Float(0.01),
            ParamValue::Int(3),
            ParamValue::Index(1),
            ParamValue::Index(0),
        ]);
        assert_eq!(c.float("lr", &s).unwrap(), 0.01);
        assert_eq!(c.int("layers", &s).unwrap(), 3);
        assert_eq!(c.index("batch", &s).unwrap(), 1);
        assert_eq!(c.index("act", &s).unwrap(), 0);
    }

    #[test]
    fn numeric_accessor_resolves_ordinals() {
        let s = space();
        let c = Config::new(vec![
            ParamValue::Float(0.01),
            ParamValue::Int(3),
            ParamValue::Index(2),
            ParamValue::Index(1),
        ]);
        assert_eq!(c.numeric("batch", &s).unwrap(), 256.0);
        assert_eq!(c.numeric("layers", &s).unwrap(), 3.0);
        assert_eq!(c.numeric("act", &s).unwrap(), 1.0);
    }

    #[test]
    fn wrong_type_is_an_error() {
        let s = space();
        let c = Config::new(vec![
            ParamValue::Float(0.01),
            ParamValue::Int(3),
            ParamValue::Index(1),
            ParamValue::Index(0),
        ]);
        assert!(matches!(
            c.int("lr", &s),
            Err(SpaceError::TypeMismatch { .. })
        ));
        assert!(matches!(
            c.float("layers", &s),
            Err(SpaceError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn unknown_param_is_an_error() {
        let s = space();
        let c = s.default_config();
        assert!(matches!(
            c.float("nope", &s),
            Err(SpaceError::UnknownParam(_))
        ));
    }

    /// Configurations cross threads (the parallel runner, the executor's
    /// pool) inside jobs.
    const _: () = {
        const fn shareable<T: Send + Sync>() {}
        shareable::<Config>();
    };

    #[test]
    fn a_mutated_clone_leaves_the_original_alone() {
        let original = Config::new(vec![ParamValue::Float(0.5), ParamValue::Int(2)]);
        let mut clone = original.clone();
        clone.values_mut()[1] = ParamValue::Int(3);
        assert_eq!(
            original,
            Config::new(vec![ParamValue::Float(0.5), ParamValue::Int(2)])
        );
        assert_eq!(clone.values(), [ParamValue::Float(0.5), ParamValue::Int(3)]);
        // Debug output is the value list's, as it was for a `Vec`.
        assert_eq!(
            format!("{original:?}"),
            "Config { values: [Float(0.5), Int(2)] }"
        );
    }

    #[test]
    fn from_iterator_collects() {
        let c: Config = vec![ParamValue::Int(1), ParamValue::Int(2)]
            .into_iter()
            .collect();
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }
}
