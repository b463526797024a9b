//! Error types for the μWM construction layer.

use std::fmt;

use uwm_sim::isa::AssembleError;

/// Errors raised while building or driving weird machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// Gate code failed to assemble (internal construction bug or an
    /// exhausted code window).
    Assemble(AssembleError),
    /// A gate was invoked through the generic [`crate::gate::WeirdGate`]
    /// interface with the wrong number of inputs.
    Arity {
        /// Gate name.
        gate: &'static str,
        /// Inputs the gate requires.
        expected: usize,
        /// Inputs provided.
        got: usize,
    },
    /// A gate constructor was given a kind of another family, or register
    /// lists that do not match the kind's inputs and outputs.
    Wiring {
        /// Gate name.
        gate: &'static str,
    },
    /// The layout region for gate code or weird-register variables is full.
    LayoutExhausted {
        /// Which region overflowed.
        region: &'static str,
    },
    /// A gate program terminated abnormally (step limit or unexpected
    /// fault) — the machine or the gate construction is misconfigured.
    AbnormalTermination {
        /// Gate name.
        gate: &'static str,
    },
    /// A circuit wire was consumed by more than one gate (or read as an
    /// output after being consumed). Reading a weird register destroys a
    /// stored 0, so every wire may be consumed at most once (§3.1, state
    /// decoherence).
    WireReused {
        /// Index of the offending wire.
        wire: usize,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Assemble(e) => write!(f, "gate assembly failed: {e}"),
            CoreError::Arity {
                gate,
                expected,
                got,
            } => {
                write!(f, "gate `{gate}` takes {expected} inputs, got {got}")
            }
            CoreError::Wiring { gate } => {
                write!(
                    f,
                    "gate `{gate}` cannot be built with this constructor or wiring"
                )
            }
            CoreError::LayoutExhausted { region } => {
                write!(f, "layout region `{region}` exhausted")
            }
            CoreError::AbnormalTermination { gate } => {
                write!(f, "gate `{gate}` terminated abnormally")
            }
            CoreError::WireReused { wire } => {
                write!(f, "circuit wire {wire} consumed more than once")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Assemble(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AssembleError> for CoreError {
    fn from(e: AssembleError) -> Self {
        CoreError::Assemble(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
