//! Error type for the RAMP core crate.

use crate::mechanisms::MechanismKind;
use ramp_microarch::Structure;
use std::error::Error;
use std::fmt;

/// Errors produced by the RAMP pipeline and its configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum RampError {
    /// A benchmark name was not one of the paper's 16 SPEC2K programs.
    UnknownBenchmark(String),
    /// A model or simulator rejected its configuration.
    InvalidConfiguration(String),
    /// The thermal solve failed (degenerate network).
    ThermalSolve(String),
    /// Qualification could not be derived from the reference runs.
    Qualification(String),
    /// A filesystem read or write failed (path and OS error).
    Io(String),
    /// A value could not be serialized for export.
    Serialize(String),
    /// Study results lack a value that a report or check asked for
    /// (an (app, node) run, a node's worst case).
    MissingResult(String),
    /// A failure mechanism priced a rate that is not finite and
    /// non-negative (the model's parameters overflow, say).
    InvalidRate {
        /// The mechanism that priced it.
        mechanism: MechanismKind,
        /// The structure it was priced for.
        structure: Structure,
        /// The second-pass interval, counted across trace repeats.
        interval: u64,
        /// The rate itself.
        rate: f64,
    },
}

impl fmt::Display for RampError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RampError::UnknownBenchmark(name) => {
                write!(f, "unknown benchmark `{name}`")
            }
            RampError::InvalidConfiguration(msg) => {
                write!(f, "invalid configuration: {msg}")
            }
            RampError::ThermalSolve(msg) => write!(f, "thermal solve failed: {msg}"),
            RampError::Qualification(msg) => write!(f, "qualification failed: {msg}"),
            RampError::Io(msg) => write!(f, "I/O error: {msg}"),
            RampError::Serialize(msg) => write!(f, "serialization error: {msg}"),
            RampError::MissingResult(what) => write!(f, "study results have no {what}"),
            RampError::InvalidRate {
                mechanism,
                structure,
                interval,
                rate,
            } => write!(
                f,
                "{mechanism} rate of {structure} in second-pass interval {interval} is {rate}"
            ),
        }
    }
}

impl Error for RampError {}

impl From<ramp_trace::spec::UnknownBenchmark> for RampError {
    fn from(e: ramp_trace::spec::UnknownBenchmark) -> Self {
        RampError::UnknownBenchmark(e.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(RampError::UnknownBenchmark("x".into())
            .to_string()
            .contains('x'));
        assert!(RampError::InvalidConfiguration("bad".into())
            .to_string()
            .contains("bad"));
    }

    #[test]
    fn io_and_serialize_messages_carry_context() {
        let io = RampError::Io("out/apps.csv: permission denied".into());
        assert!(io.to_string().contains("apps.csv"));
        let ser = RampError::Serialize("run manifest: bad value".into());
        assert!(ser.to_string().contains("manifest"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<E: Error + Send + Sync + 'static>() {}
        check::<RampError>();
    }
}
