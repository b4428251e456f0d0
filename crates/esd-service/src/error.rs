//! The service layer's typed error surface.
//!
//! [`ServiceError`] crosses the wire verbatim (it is a serde type like
//! every other wire message), so a remote client observes exactly the
//! errors an in-process caller would — including the backpressure contract:
//! a full admission queue is a typed [`ServiceError::Overloaded`] with a
//! retry hint, never an unbounded buffer or a blocked submitter.

use std::fmt;

/// Why a [`crate::Service`] call failed.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ServiceError {
    /// Admission control rejected the submission: the bounded submit queue
    /// is full. Retry after the backend has dispatched roughly
    /// `retry_after_slices` more slices (the backlog that must drain).
    Overloaded {
        /// How many executor slices the current backlog needs before a
        /// retry is likely to be admitted.
        retry_after_slices: u64,
    },
    /// The submitted program failed IR validation (a dangling block
    /// target, an out-of-range register, …), or the goal names no location
    /// or one outside the program, so no job was created.
    Invalid {
        /// Every problem found, rendered and `; `-joined.
        detail: String,
    },
    /// The ticket does not name a job on this service.
    UnknownTicket {
        /// The offending ticket id.
        ticket: u64,
    },
    /// The transport failed (connect, read or write).
    Transport {
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// The peer violated the wire protocol: a corrupt frame, an
    /// undecodable payload, or a response of the wrong kind.
    Protocol {
        /// What was wrong.
        detail: String,
    },
    /// The peer closed the connection mid-conversation.
    Disconnected,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Overloaded { retry_after_slices } => write!(
                f,
                "service overloaded: submit queue full, retry after ~{retry_after_slices} slices"
            ),
            ServiceError::Invalid { detail } => write!(f, "invalid program: {detail}"),
            ServiceError::UnknownTicket { ticket } => {
                write!(f, "unknown job ticket {ticket}")
            }
            ServiceError::Transport { detail } => write!(f, "transport error: {detail}"),
            ServiceError::Protocol { detail } => write!(f, "wire protocol violation: {detail}"),
            ServiceError::Disconnected => write!(f, "peer closed the connection"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl ServiceError {
    /// Wraps an I/O error as [`ServiceError::Transport`].
    pub fn transport(err: impl fmt::Display) -> Self {
        ServiceError::Transport { detail: err.to_string() }
    }

    /// Wraps a description as [`ServiceError::Protocol`].
    pub fn protocol(detail: impl Into<String>) -> Self {
        ServiceError::Protocol { detail: detail.into() }
    }
}
