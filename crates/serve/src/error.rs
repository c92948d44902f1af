//! The unified, wire-encodable client-facing error type.
//!
//! Every failure a client can observe — framing, admission, scheduling,
//! resolution, session — is one [`ServeError`] with a *stable string code*
//! ([`ServeError::code`]): clients dispatch on the code, humans read the
//! rendered message, and neither breaks when a variant gains a field
//! (the enum is `#[non_exhaustive]`). Internal error types
//! ([`muml_core::CoreError`], [`muml_fleet::ResolveError`], I/O) are
//! *mapped*, not stringified ad hoc, so the code set is closed and
//! documented here.

use std::fmt;

use muml_core::CoreError;
use muml_fleet::ResolveError;
use muml_obs::json::{field, object, FromJson, Json, ToJson};

/// A client-facing error with a stable wire code.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// The frame's `"v"` tag names a protocol version this daemon does
    /// not speak.
    UnsupportedVersion {
        /// The version the client sent.
        got: i64,
    },
    /// The frame's `"method"` is not one this daemon knows. Answered with
    /// a typed error (not a disconnect) so old servers degrade gracefully
    /// under new clients.
    UnknownMethod {
        /// The unrecognised method name.
        method: String,
    },
    /// The frame was valid JSON but structurally not a request (missing
    /// fields, wrong types, undecodable job request).
    Malformed {
        /// What failed to decode.
        detail: String,
    },
    /// The frame's length prefix exceeds the daemon's frame cap. The
    /// daemon skips the payload and keeps the connection.
    OversizedFrame {
        /// The declared payload length.
        length: usize,
        /// The daemon's cap.
        max: usize,
    },
    /// The submitted request names a scenario with no registered resolver.
    UnknownScenario {
        /// The unresolvable scenario label.
        scenario: String,
    },
    /// The scenario's resolver rejected the request coordinates.
    InvalidRequest {
        /// What the resolver objected to.
        detail: String,
    },
    /// Admission control: the daemon-wide pending-job limit is reached.
    /// Back off and resubmit; the daemon never blocks a submission.
    QueueFull {
        /// Jobs currently pending or running.
        pending: usize,
        /// The admission limit.
        limit: usize,
    },
    /// Admission control: this client's pending-job limit is reached,
    /// protecting other clients' share of the queue.
    ClientLimit {
        /// This client's pending jobs.
        pending: usize,
        /// The per-client limit.
        limit: usize,
    },
    /// The job id is not (or no longer) known to the daemon.
    UnknownJob {
        /// The unknown job id.
        job: u64,
    },
    /// The daemon is shutting down and no longer accepts work.
    ShuttingDown,
    /// The job's session failed. `code` is a stable sub-code naming the
    /// [`CoreError`] variant; `message` is its rendering.
    Session {
        /// Stable sub-code (`cancelled`, `iteration-limit`, …).
        code: String,
        /// Human-readable rendering of the underlying error.
        message: String,
    },
    /// The transport failed (connection reset, short write, …). Produced
    /// client-side; a daemon never sends this.
    Transport {
        /// The I/O failure, rendered.
        detail: String,
    },
}

impl ServeError {
    /// The stable wire code — the only thing clients should dispatch on.
    pub fn code(&self) -> &'static str {
        match self {
            ServeError::UnsupportedVersion { .. } => "unsupported-version",
            ServeError::UnknownMethod { .. } => "unknown-method",
            ServeError::Malformed { .. } => "malformed-request",
            ServeError::OversizedFrame { .. } => "oversized-frame",
            ServeError::UnknownScenario { .. } => "unknown-scenario",
            ServeError::InvalidRequest { .. } => "invalid-request",
            ServeError::QueueFull { .. } => "queue-full",
            ServeError::ClientLimit { .. } => "client-limit",
            ServeError::UnknownJob { .. } => "unknown-job",
            ServeError::ShuttingDown => "shutting-down",
            ServeError::Session { .. } => "session-error",
            ServeError::Transport { .. } => "transport",
        }
    }
}

/// The wire encoding: `{"code": ..., "message": ..., <fields>}`. The
/// message is the [`Display`](fmt::Display) rendering, for humans; decoding
/// ignores it.
impl ToJson for ServeError {
    fn to_json(&self) -> Json {
        let (code, message) = (self.code(), self.to_string());
        let fields: &[(&str, &dyn ToJson)] = match self {
            ServeError::UnsupportedVersion { got } => &[("got", got)],
            ServeError::UnknownMethod { method } => &[("method", method)],
            ServeError::Malformed { detail }
            | ServeError::InvalidRequest { detail }
            | ServeError::Transport { detail } => &[("detail", detail)],
            ServeError::OversizedFrame { length, max } => &[("length", length), ("max", max)],
            ServeError::UnknownScenario { scenario } => &[("scenario", scenario)],
            ServeError::QueueFull { pending, limit }
            | ServeError::ClientLimit { pending, limit } => {
                &[("pending", pending), ("limit", limit)]
            }
            ServeError::UnknownJob { job } => &[("job", job)],
            ServeError::ShuttingDown => &[],
            ServeError::Session { code, message } => {
                &[("session_code", code), ("session_message", message)]
            }
        };
        let mut all: Vec<(&str, &dyn ToJson)> = vec![("code", &code), ("message", &message)];
        all.extend_from_slice(fields);
        object(&all)
    }
}

/// Unknown codes decode to [`ServeError::Malformed`] rather than failing,
/// so a newer server's errors still surface client-side.
impl FromJson for ServeError {
    fn from_json(json: &Json) -> Result<Self, String> {
        let code: String = field(json, "code")?;
        Ok(match code.as_str() {
            "unsupported-version" => ServeError::UnsupportedVersion {
                got: field(json, "got")?,
            },
            "unknown-method" => ServeError::UnknownMethod {
                method: field(json, "method")?,
            },
            "malformed-request" => ServeError::Malformed {
                detail: field(json, "detail")?,
            },
            "oversized-frame" => ServeError::OversizedFrame {
                length: field(json, "length")?,
                max: field(json, "max")?,
            },
            "unknown-scenario" => ServeError::UnknownScenario {
                scenario: field(json, "scenario")?,
            },
            "invalid-request" => ServeError::InvalidRequest {
                detail: field(json, "detail")?,
            },
            "queue-full" => ServeError::QueueFull {
                pending: field(json, "pending")?,
                limit: field(json, "limit")?,
            },
            "client-limit" => ServeError::ClientLimit {
                pending: field(json, "pending")?,
                limit: field(json, "limit")?,
            },
            "unknown-job" => ServeError::UnknownJob {
                job: field(json, "job")?,
            },
            "shutting-down" => ServeError::ShuttingDown,
            "session-error" => ServeError::Session {
                code: field(json, "session_code")?,
                message: field(json, "session_message")?,
            },
            "transport" => ServeError::Transport {
                detail: field(json, "detail")?,
            },
            other => ServeError::Malformed {
                detail: format!("unknown error code `{other}`"),
            },
        })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnsupportedVersion { got } => {
                write!(f, "unsupported protocol version {got}")
            }
            ServeError::UnknownMethod { method } => write!(f, "unknown method `{method}`"),
            ServeError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            ServeError::OversizedFrame { length, max } => {
                write!(f, "frame of {length} bytes exceeds the {max}-byte cap")
            }
            ServeError::UnknownScenario { scenario } => {
                write!(f, "no resolver registered for scenario `{scenario}`")
            }
            ServeError::InvalidRequest { detail } => write!(f, "invalid request: {detail}"),
            ServeError::QueueFull { pending, limit } => {
                write!(f, "admission limit reached: {pending}/{limit} jobs pending")
            }
            ServeError::ClientLimit { pending, limit } => write!(
                f,
                "per-client admission limit reached: {pending}/{limit} jobs pending"
            ),
            ServeError::UnknownJob { job } => write!(f, "unknown job {job}"),
            ServeError::ShuttingDown => write!(f, "daemon is shutting down"),
            ServeError::Session { code, message } => {
                write!(f, "session failed ({code}): {message}")
            }
            ServeError::Transport { detail } => write!(f, "transport failure: {detail}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ResolveError> for ServeError {
    fn from(e: ResolveError) -> Self {
        match e {
            ResolveError::UnknownScenario { scenario } => ServeError::UnknownScenario { scenario },
            ResolveError::Invalid { detail } => ServeError::InvalidRequest { detail },
            other => ServeError::InvalidRequest {
                detail: other.to_string(),
            },
        }
    }
}

impl From<&CoreError> for ServeError {
    fn from(e: &CoreError) -> Self {
        let code = match e {
            CoreError::NotCompositional { .. } => "not-compositional",
            CoreError::IterationLimit(_) => "iteration-limit",
            CoreError::Nondeterministic { .. } => "nondeterministic",
            CoreError::Learning(_) => "learning",
            CoreError::Automata(_) => "automata",
            CoreError::Logic(_) => "logic",
            CoreError::InterfaceMismatch { .. } => "interface-mismatch",
            CoreError::Cancelled { .. } => "cancelled",
            _ => "core",
        };
        ServeError::Session {
            code: code.to_owned(),
            message: e.to_string(),
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Transport {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<ServeError> {
        vec![
            ServeError::UnsupportedVersion { got: 9 },
            ServeError::UnknownMethod {
                method: "frobnicate".into(),
            },
            ServeError::Malformed {
                detail: "missing `method`".into(),
            },
            ServeError::OversizedFrame {
                length: 2_000_000,
                max: 1_048_576,
            },
            ServeError::UnknownScenario {
                scenario: "warehouse".into(),
            },
            ServeError::InvalidRequest {
                detail: "unknown variant `wobbly`".into(),
            },
            ServeError::QueueFull {
                pending: 256,
                limit: 256,
            },
            ServeError::ClientLimit {
                pending: 64,
                limit: 64,
            },
            ServeError::UnknownJob { job: 41 },
            ServeError::ShuttingDown,
            ServeError::Session {
                code: "cancelled".into(),
                message: "run cancelled after 3 iterations".into(),
            },
            ServeError::Transport {
                detail: "connection reset".into(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_with_a_distinct_code() {
        let variants = all_variants();
        let mut codes: Vec<&str> = variants.iter().map(ServeError::code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len(), "codes must be distinct");
        for error in variants {
            let encoded = error.to_json();
            // Every encoding carries a code and a human-readable message.
            assert!(encoded.get("code").is_some());
            assert!(encoded.get("message").and_then(Json::as_str).is_some());
            let decoded = ServeError::from_json(&encoded).unwrap();
            assert_eq!(decoded, error, "round trip of {}", error.code());
        }
    }

    #[test]
    fn unknown_codes_degrade_to_malformed() {
        let alien = Json::Object(vec![(
            "code".to_owned(),
            Json::Str("from-the-future".into()),
        )]);
        match ServeError::from_json(&alien).unwrap() {
            ServeError::Malformed { detail } => {
                assert!(detail.contains("from-the-future"), "{detail}")
            }
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    #[test]
    fn core_errors_map_to_stable_session_codes() {
        let cancelled = ServeError::from(&CoreError::Cancelled { iterations: 5 });
        match &cancelled {
            ServeError::Session { code, message } => {
                assert_eq!(code, "cancelled");
                assert!(message.contains("5 iterations"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        let cap = ServeError::from(&CoreError::IterationLimit(12));
        assert!(matches!(
            &cap,
            ServeError::Session { code, .. } if code == "iteration-limit"
        ));
        assert_eq!(cap.code(), "session-error");
    }

    #[test]
    fn resolve_errors_map_to_admission_codes() {
        let unknown: ServeError = ResolveError::UnknownScenario {
            scenario: "warehouse".into(),
        }
        .into();
        assert_eq!(unknown.code(), "unknown-scenario");
        let invalid: ServeError = ResolveError::Invalid {
            detail: "bad variant".into(),
        }
        .into();
        assert_eq!(invalid.code(), "invalid-request");
    }
}
