//! The unified error hierarchy of the compression schemes.
//!
//! Every entry point of this crate — the staged [`Engine`] and the
//! [`CompressionScheme`] implementations — reports one error type,
//! [`SchemeError`], which wraps the layer-specific errors
//! ([`EncodeError`], [`ss_lfsr::LfsrError`], …) and chains them
//! through [`std::error::Error::source`].
//!
//! [`Engine`]: crate::Engine
//! [`CompressionScheme`]: crate::CompressionScheme
//! [`EncodeError`]: crate::EncodeError

use std::error::Error;
use std::fmt;

use ss_gf2::PrimitivePolyError;
use ss_lfsr::{LfsrError, PhaseShifterError, SkipError};

use crate::encoder::EncodeError;

/// Any failure while configuring or running a compression scheme.
///
/// The enum is `#[non_exhaustive]`: future layers can add variants
/// without a breaking release. Inner errors are reachable through
/// [`Error::source`] for chained reporting.
#[derive(Debug)]
#[non_exhaustive]
pub enum SchemeError {
    /// Invalid configuration (message explains the constraint).
    BadConfig(String),
    /// No primitive polynomial for the requested LFSR size.
    Poly(PrimitivePolyError),
    /// LFSR construction failed.
    Lfsr(LfsrError),
    /// Phase shifter synthesis failed.
    PhaseShifter(PhaseShifterError),
    /// State Skip circuit construction failed.
    Skip(SkipError),
    /// Seed encoding failed.
    Encode(EncodeError),
}

impl SchemeError {
    /// A configuration error with the given explanation.
    pub fn bad_config(message: impl Into<String>) -> Self {
        SchemeError::BadConfig(message.into())
    }
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemeError::BadConfig(msg) => write!(f, "bad scheme configuration: {msg}"),
            SchemeError::Poly(e) => write!(f, "polynomial selection: {e}"),
            SchemeError::Lfsr(e) => write!(f, "LFSR construction: {e}"),
            SchemeError::PhaseShifter(e) => write!(f, "phase shifter synthesis: {e}"),
            SchemeError::Skip(e) => write!(f, "State Skip circuit construction: {e}"),
            SchemeError::Encode(e) => write!(f, "seed encoding: {e}"),
        }
    }
}

impl Error for SchemeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SchemeError::BadConfig(_) => None,
            SchemeError::Poly(e) => Some(e),
            SchemeError::Lfsr(e) => Some(e),
            SchemeError::PhaseShifter(e) => Some(e),
            SchemeError::Skip(e) => Some(e),
            SchemeError::Encode(e) => Some(e),
        }
    }
}

impl From<PrimitivePolyError> for SchemeError {
    fn from(e: PrimitivePolyError) -> Self {
        SchemeError::Poly(e)
    }
}

impl From<LfsrError> for SchemeError {
    fn from(e: LfsrError) -> Self {
        SchemeError::Lfsr(e)
    }
}

impl From<PhaseShifterError> for SchemeError {
    fn from(e: PhaseShifterError) -> Self {
        SchemeError::PhaseShifter(e)
    }
}

impl From<SkipError> for SchemeError {
    fn from(e: SkipError) -> Self {
        SchemeError::Skip(e)
    }
}

impl From<EncodeError> for SchemeError {
    fn from(e: EncodeError) -> Self {
        SchemeError::Encode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_chain_to_the_inner_error() {
        let inner = EncodeError::GeometryMismatch;
        let inner_text = inner.to_string();
        let err = SchemeError::from(inner);
        let source = err.source().expect("wrapped errors expose a source");
        assert_eq!(source.to_string(), inner_text);
        assert!(SchemeError::bad_config("x").source().is_none());
    }

    #[test]
    fn display_includes_the_layer_and_the_cause() {
        let err = SchemeError::from(EncodeError::GeometryMismatch);
        let text = err.to_string();
        assert!(text.contains("seed encoding"), "{text}");
        let cfg = SchemeError::bad_config("window must be >= 1");
        assert!(cfg.to_string().contains("window must be >= 1"));
    }
}
