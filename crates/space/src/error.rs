use std::error::Error;
use std::fmt;

/// Errors produced when building or querying a [`crate::SearchSpace`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpaceError {
    /// Two parameters share the same name.
    DuplicateName(String),
    /// A parameter was looked up by a name that does not exist.
    UnknownParam(String),
    /// The bounds of a continuous or discrete parameter are invalid
    /// (`low >= high`, non-finite, or non-positive for log scale).
    InvalidBounds {
        /// Name of the offending parameter.
        name: String,
        /// Human-readable description of what is wrong.
        reason: String,
    },
    /// An ordinal or categorical parameter was declared with no choices.
    EmptyChoices(String),
    /// A value was accessed with the wrong type
    /// (e.g. [`crate::Config::float`] on a discrete parameter), or is one
    /// its parameter cannot hold ([`crate::SearchSpace::check`]).
    TypeMismatch {
        /// Name of the parameter being accessed.
        name: String,
        /// What the value was required to be.
        requested: &'static str,
    },
    /// A configuration has a different number of values than the space has
    /// parameters.
    ArityMismatch {
        /// Number of parameters in the space.
        expected: usize,
        /// Number of values in the configuration.
        found: usize,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::DuplicateName(name) => {
                write!(f, "duplicate parameter name `{name}`")
            }
            SpaceError::UnknownParam(name) => {
                write!(f, "unknown parameter `{name}`")
            }
            SpaceError::InvalidBounds { name, reason } => {
                write!(f, "invalid bounds for parameter `{name}`: {reason}")
            }
            SpaceError::EmptyChoices(name) => {
                write!(f, "parameter `{name}` was declared with no choices")
            }
            SpaceError::TypeMismatch { name, requested } => {
                write!(f, "parameter `{name}` cannot be read as {requested}")
            }
            SpaceError::ArityMismatch { expected, found } => {
                write!(
                    f,
                    "configuration has {found} values but the space has {expected} parameters"
                )
            }
        }
    }
}

impl Error for SpaceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs = [
            SpaceError::DuplicateName("lr".into()),
            SpaceError::UnknownParam("x".into()),
            SpaceError::InvalidBounds {
                name: "lr".into(),
                reason: "low >= high".into(),
            },
            SpaceError::EmptyChoices("act".into()),
            SpaceError::TypeMismatch {
                name: "lr".into(),
                requested: "an integer",
            },
            SpaceError::ArityMismatch {
                expected: 3,
                found: 2,
            },
        ];
        for e in errs {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SpaceError>();
    }
}
