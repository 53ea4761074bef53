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

/// How a supervisor should treat a failure: worth re-executing, or final.
///
/// The campaign supervision layer (`hs_sim::supervise`) quarantines every
/// failed run on its one attempt; on resume it replays
/// [`ErrorClass::Permanent`] outcomes from its journal and re-executes
/// [`ErrorClass::Transient`] ones. The taxonomy lives here, next to
/// [`ConfigError`], so every error type in the workspace can answer the
/// same question the same way.
///
/// The rule of thumb: a failure that is a pure function of the run's
/// specification (an invalid config, too many workloads, a deterministic
/// budget overrun, a panic) is `Permanent` — re-executing the identical
/// spec reproduces it. A failure injected by the *environment* (a lost
/// worker, a wall-clock overrun, an interrupted campaign) is `Transient`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorClass {
    /// Environmental / nondeterministic: re-executing the same spec may
    /// succeed.
    Transient,
    /// Deterministic: re-executing the same spec reproduces the failure.
    Permanent,
}

impl fmt::Display for ErrorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ErrorClass::Transient => "transient",
            ErrorClass::Permanent => "permanent",
        })
    }
}

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

    /// A bad configuration is a pure function of the spec: always
    /// [`ErrorClass::Permanent`].
    #[must_use]
    pub fn class(&self) -> ErrorClass {
        ErrorClass::Permanent
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
    fn config_errors_are_permanent() {
        let e = ConfigError::new("freq_hz", "must be positive");
        assert_eq!(e.class(), ErrorClass::Permanent);
        assert_eq!(ErrorClass::Transient.to_string(), "transient");
        assert_eq!(ErrorClass::Permanent.to_string(), "permanent");
    }

    #[test]
    fn converts_from_thermal_errors() {
        let t = hs_thermal::ConfigError::new("noise_k", "noise must be non-negative");
        let e: ConfigError = t.into();
        assert_eq!(e.field(), "noise_k");
        assert!(e.reason().contains("non-negative"));
    }
}
