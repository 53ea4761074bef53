//! Shared configuration-error type for the DTM layer.
//!
//! All `try_`-style constructors and validators in `hs-core` (and the
//! crates it fronts for: thresholds, monitors, policies, simulator-level
//! config) report problems as a [`ConfigError`] instead of panicking, so
//! callers building configurations from untrusted input (sweep harnesses,
//! CLI flags) can surface the problem instead of aborting. Thin panicking
//! wrappers (`validate`, `new`) are kept where ergonomics demand.

use std::error::Error;
use std::fmt;

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    reason: String,
}

impl ConfigError {
    /// Creates an error for `field`.
    #[must_use]
    pub fn new(field: &'static str, reason: impl Into<String>) -> Self {
        ConfigError {
            field,
            reason: reason.into(),
        }
    }

    /// The offending field (dotted path for nested configs).
    #[must_use]
    pub fn field(&self) -> &'static str {
        self.field
    }

    /// Why the value was rejected.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid config `{}`: {}", self.field, self.reason)
    }
}

impl Error for ConfigError {}

impl From<hs_thermal::ConfigError> for ConfigError {
    fn from(e: hs_thermal::ConfigError) -> Self {
        ConfigError::new(e.field(), e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_field() {
        let e = ConfigError::new("ewma_shift", "shift must be in 1..32");
        assert!(e.to_string().contains("ewma_shift"));
        assert!(e.to_string().contains("1..32"));
        assert_eq!(e.field(), "ewma_shift");
    }

    #[test]
    fn converts_from_thermal_errors() {
        let t = hs_thermal::ConfigError::new("noise_k", "noise must be non-negative");
        let e: ConfigError = t.into();
        assert_eq!(e.field(), "noise_k");
        assert!(e.reason().contains("non-negative"));
    }
}
