//! Error type for the Maimon core library.

use relation::{AttrSet, RelationError};
use std::fmt;

/// Errors produced by MVD construction, schema synthesis and the mining
/// drivers.
///
/// The enum is `#[non_exhaustive]`: downstream `match`es need a wildcard arm,
/// and future error conditions are not semver breaks. Cancellation is *not*
/// an error — a fired [`crate::CancelToken`] yields a well-formed partial
/// result flagged `truncated`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MaimonError {
    /// An error bubbled up from the relational substrate.
    Relation(RelationError),
    /// An MVD was constructed with overlapping or invalid components.
    InvalidMvd(String),
    /// A schema or join tree was structurally invalid.
    InvalidSchema(String),
    /// A requested attribute pair was invalid (equal, or out of range).
    InvalidAttributePair {
        /// First attribute of the pair.
        a: usize,
        /// Second attribute of the pair.
        b: usize,
        /// Arity of the relation.
        arity: usize,
    },
    /// The approximation threshold must be non-negative and finite.
    InvalidEpsilon(f64),
    /// A configuration value was out of range.
    InvalidConfig(String),
    /// An attribute set was outside the relation signature.
    AttributeOutOfRange {
        /// The offending attribute set.
        attrs: AttrSet,
        /// Arity of the relation.
        arity: usize,
    },
    /// The decomposed store failed, or its counts disagreed with the
    /// counting-based quality metrics (which would indicate a bug in one of
    /// the two independent implementations).
    Store(String),
    /// A serialized result could not be parsed or did not match the expected
    /// wire shape (see [`crate::wire`]).
    Wire(String),
    /// The storage backend failed while producing data the operation needed
    /// (a page read error, a checksum mismatch, a WAL write failure). The
    /// message carries the underlying [`storage::StorageError`] rendering;
    /// the string keeps this enum `Clone + PartialEq`.
    Storage(String),
}

impl fmt::Display for MaimonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaimonError::Relation(e) => write!(f, "relation error: {}", e),
            MaimonError::InvalidMvd(msg) => write!(f, "invalid MVD: {}", msg),
            MaimonError::InvalidSchema(msg) => write!(f, "invalid schema: {}", msg),
            MaimonError::InvalidAttributePair { a, b, arity } => {
                write!(f, "invalid attribute pair ({}, {}) for relation of arity {}", a, b, arity)
            }
            MaimonError::InvalidEpsilon(eps) => {
                write!(f, "epsilon must be finite and non-negative, got {}", eps)
            }
            MaimonError::InvalidConfig(msg) => write!(f, "invalid configuration: {}", msg),
            MaimonError::AttributeOutOfRange { attrs, arity } => {
                write!(f, "attribute set {:?} out of range for relation of arity {}", attrs, arity)
            }
            MaimonError::Store(msg) => write!(f, "decomposed store: {}", msg),
            MaimonError::Wire(msg) => write!(f, "wire format: {}", msg),
            MaimonError::Storage(msg) => write!(f, "storage backend error: {}", msg),
        }
    }
}

impl std::error::Error for MaimonError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MaimonError::Relation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RelationError> for MaimonError {
    fn from(e: RelationError) -> Self {
        MaimonError::Relation(e)
    }
}

impl From<storage::StorageError> for MaimonError {
    fn from(e: storage::StorageError) -> Self {
        MaimonError::Storage(e.to_string())
    }
}

impl From<decompose::DecomposeError> for MaimonError {
    fn from(e: decompose::DecomposeError) -> Self {
        match e {
            decompose::DecomposeError::Relation(r) => MaimonError::Relation(r),
            other => MaimonError::Store(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = MaimonError::InvalidEpsilon(-1.0);
        assert!(e.to_string().contains("-1"));
        let inner = RelationError::EmptySchema;
        let wrapped = MaimonError::from(inner.clone());
        assert_eq!(wrapped, MaimonError::Relation(inner));
        assert!(std::error::Error::source(&wrapped).is_some());
        assert!(std::error::Error::source(&MaimonError::InvalidEpsilon(0.0)).is_none());
    }

    #[test]
    fn pair_error_mentions_attributes() {
        let e = MaimonError::InvalidAttributePair { a: 3, b: 3, arity: 5 };
        let s = e.to_string();
        assert!(s.contains("3"));
        assert!(s.contains("5"));
    }
}
