//! The length-prefixed JSON wire protocol.
//!
//! Every frame is a 4-byte big-endian payload length followed by exactly
//! that many bytes of UTF-8 JSON (the [`muml_obs::json::Json`] encoding —
//! the same encoding the event sinks already write). Requests and replies
//! both carry a `"v"` protocol-version tag; requests dispatch on
//! `"method"`, replies on `"reply"`. DESIGN.md §14 gives the full grammar.
//!
//! Robustness rules, enforced here and tested in `tests/protocol.rs`:
//!
//! * an **oversized** frame (length prefix beyond the cap) is *skipped* —
//!   the payload bytes are consumed so the stream stays in sync — and
//!   surfaced as [`FrameError::Oversized`] for the server to answer with a
//!   typed error, not a disconnect;
//! * a **truncated** frame (EOF mid-header or mid-payload) is
//!   [`FrameError::Truncated`] — the connection is dead;
//! * EOF *between* frames is the clean [`FrameError::Closed`];
//! * unparseable payloads are [`FrameError::Malformed`] — the framing is
//!   intact, so the connection survives.

use std::io::{self, Read, Write};
use std::time::Duration;

use muml_fleet::request::JobRequest;
use muml_obs::json::{field, field_or, object, FromJson, Json, ToJson};

use crate::error::ServeError;

/// The protocol version this crate speaks.
pub const PROTOCOL_VERSION: i64 = 1;

/// Default cap on a frame payload (1 MiB).
pub const MAX_FRAME_DEFAULT: usize = 1 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean EOF at a frame boundary — the peer closed the connection.
    Closed,
    /// EOF in the middle of a frame — the stream is unusable.
    Truncated,
    /// The length prefix exceeds the cap. The payload has been consumed;
    /// the stream is still usable.
    Oversized {
        /// The declared payload length.
        length: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload was not valid JSON. The stream is still usable.
    Malformed(String),
    /// A read timed out at a frame boundary — no byte of the next frame
    /// had arrived. The stream is still in sync; the caller decides
    /// whether the connection's idle deadline has passed.
    IdleTimeout,
    /// A read timed out *mid-frame*: the peer sent a partial header or
    /// payload and then stopped (the slowloris pattern). The stream can
    /// never get back in sync — fatal for the connection.
    Stalled,
    /// An underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::Oversized { length, max } => {
                write!(f, "oversized frame: {length} bytes (cap {max})")
            }
            FrameError::Malformed(detail) => write!(f, "malformed frame: {detail}"),
            FrameError::IdleTimeout => write!(f, "idle timeout between frames"),
            FrameError::Stalled => write!(f, "peer stalled mid-frame"),
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Writes one frame: 4-byte big-endian length, then the JSON payload.
pub fn write_frame(w: &mut impl Write, payload: &Json) -> io::Result<()> {
    let bytes = payload.encode().into_bytes();
    let length = u32::try_from(bytes.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large for u32"))?;
    w.write_all(&length.to_be_bytes())?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Reads one frame, enforcing the `max` payload cap (see the module docs
/// for the error contract).
///
/// # Errors
///
/// See [`FrameError`].
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Json, FrameError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header) {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof => return Err(FrameError::Closed),
        ReadOutcome::PartialEof => return Err(FrameError::Truncated),
        ReadOutcome::TimedOut { partial: false } => return Err(FrameError::IdleTimeout),
        ReadOutcome::TimedOut { partial: true } => return Err(FrameError::Stalled),
        ReadOutcome::Failed(e) => return Err(FrameError::Io(e)),
    }
    let length = u32::from_be_bytes(header) as usize;
    if length > max {
        // Drain the payload so the next read starts at a frame boundary.
        let mut remaining = length as u64;
        let mut sink = io::sink();
        match io::copy(&mut r.take(remaining), &mut sink) {
            Ok(copied) => remaining -= copied,
            Err(e) if is_timeout(&e) => return Err(FrameError::Stalled),
            Err(e) => return Err(FrameError::Io(e)),
        }
        if remaining > 0 {
            return Err(FrameError::Truncated);
        }
        return Err(FrameError::Oversized { length, max });
    }
    let mut payload = vec![0u8; length];
    match read_exact_or_eof(r, &mut payload) {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof | ReadOutcome::PartialEof => return Err(FrameError::Truncated),
        ReadOutcome::TimedOut { .. } => return Err(FrameError::Stalled),
        ReadOutcome::Failed(e) => return Err(FrameError::Io(e)),
    }
    let text = String::from_utf8(payload)
        .map_err(|e| FrameError::Malformed(format!("payload is not UTF-8: {e}")))?;
    muml_obs::json::parse(&text)
        .map_err(|e| FrameError::Malformed(format!("payload is not JSON: {e:?}")))
}

enum ReadOutcome {
    Full,
    CleanEof,
    PartialEof,
    TimedOut { partial: bool },
    Failed(io::Error),
}

/// Whether an I/O error is a socket read/write timeout. Blocking sockets
/// report an expired `set_read_timeout` as `WouldBlock` on Unix and
/// `TimedOut` on Windows; treat both as the same event.
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// `read_exact` distinguishing EOF-before-anything from EOF-mid-buffer,
/// and timeout-before-anything from timeout-mid-buffer.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::PartialEof
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) => {
                return ReadOutcome::TimedOut {
                    partial: filled > 0,
                }
            }
            Err(e) => return ReadOutcome::Failed(e),
        }
    }
    ReadOutcome::Full
}

/// A job's scheduling class. Within the daemon, all `High` work runs
/// before any `Normal` work, which runs before any `Low` work; *within* a
/// class, clients are served round-robin (see DESIGN.md §14).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Served before everything else (interactive checks).
    High,
    /// The default class (campaign traffic).
    #[default]
    Normal,
    /// Served only when nothing else is waiting (bulk sweeps).
    Low,
}

impl Priority {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Priority::High => "high",
            Priority::Normal => "normal",
            Priority::Low => "low",
        }
    }

    /// Scheduling rank: lower runs first.
    pub fn rank(&self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Priority> {
        match name {
            "high" => Some(Priority::High),
            "normal" => Some(Priority::Normal),
            "low" => Some(Priority::Low),
            _ => None,
        }
    }
}

impl ToJson for Priority {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl FromJson for Priority {
    fn from_json(json: &Json) -> Result<Self, String> {
        let name = String::from_json(json)?;
        Priority::parse(&name).ok_or_else(|| format!("unknown priority `{name}`"))
    }
}

/// What happened to a cancelled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelState {
    /// The job was still queued; it was removed and recorded as
    /// `cancelled` without ever running.
    Removed,
    /// The job was running; its [`muml_core::CancelToken`] was signalled
    /// and the job will finish cooperatively.
    Signalled,
    /// The job had already finished; nothing to cancel.
    AlreadyDone,
}

impl CancelState {
    /// Stable wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            CancelState::Removed => "removed",
            CancelState::Signalled => "signalled",
            CancelState::AlreadyDone => "already-done",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<CancelState> {
        match name {
            "removed" => Some(CancelState::Removed),
            "signalled" => Some(CancelState::Signalled),
            "already-done" => Some(CancelState::AlreadyDone),
            _ => None,
        }
    }
}

impl ToJson for CancelState {
    fn to_json(&self) -> Json {
        self.as_str().to_json()
    }
}

impl FromJson for CancelState {
    fn from_json(json: &Json) -> Result<Self, String> {
        let name = String::from_json(json)?;
        CancelState::parse(&name).ok_or_else(|| format!("unknown cancel state `{name}`"))
    }
}

/// A client → daemon request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; answered with `Accepted { job }` or `Rejected`.
    Submit {
        /// The declarative job description.
        request: JobRequest,
        /// Its scheduling class.
        priority: Priority,
    },
    /// Block until the job finishes; answered with its `Verdict`.
    Wait {
        /// The daemon-assigned job id.
        job: u64,
    },
    /// Cancel a queued or running job; answered with `Cancelled`.
    Cancel {
        /// The daemon-assigned job id.
        job: u64,
    },
    /// Fetch the bounded verdict history; answered with `History`.
    History,
    /// Fetch daemon counters; answered with `Stats`.
    Stats,
    /// Turn this connection into a live event stream; answered with
    /// `Subscribed`, then a stream of `Event` frames.
    Subscribe,
    /// Ask the daemon to shut down; answered with `ShuttingDown`.
    Shutdown,
}

fn malformed(detail: String) -> ServeError {
    ServeError::Malformed { detail }
}

/// The wire encoding: `{"v": 1, "method": ..., <fields>}`.
impl ToJson for Request {
    fn to_json(&self) -> Json {
        let v = &PROTOCOL_VERSION;
        match self {
            Request::Submit { request, priority } => object(&[
                ("v", v),
                ("method", &"submit"),
                ("request", request),
                ("priority", priority),
            ]),
            Request::Wait { job } => object(&[("v", v), ("method", &"wait"), ("job", job)]),
            Request::Cancel { job } => object(&[("v", v), ("method", &"cancel"), ("job", job)]),
            Request::History => object(&[("v", v), ("method", &"history")]),
            Request::Stats => object(&[("v", v), ("method", &"stats")]),
            Request::Subscribe => object(&[("v", v), ("method", &"subscribe")]),
            Request::Shutdown => object(&[("v", v), ("method", &"shutdown")]),
        }
    }
}

impl Request {
    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsupportedVersion`] for a foreign `"v"`,
    /// [`ServeError::UnknownMethod`] for an unrecognised `"method"`, and
    /// [`ServeError::Malformed`] naming the field for everything else —
    /// all of which a server answers on the still-healthy connection.
    pub fn from_json(json: &Json) -> Result<Request, ServeError> {
        let version: i64 = field(json, "v").map_err(malformed)?;
        if version != PROTOCOL_VERSION {
            return Err(ServeError::UnsupportedVersion { got: version });
        }
        let method: String = field(json, "method").map_err(malformed)?;
        let job = || field(json, "job").map_err(malformed);
        Ok(match method.as_str() {
            "submit" => Request::Submit {
                request: field(json, "request").map_err(malformed)?,
                priority: field_or(json, "priority", Priority::Normal).map_err(malformed)?,
            },
            "wait" => Request::Wait { job: job()? },
            "cancel" => Request::Cancel { job: job()? },
            "history" => Request::History,
            "stats" => Request::Stats,
            "subscribe" => Request::Subscribe,
            "shutdown" => Request::Shutdown,
            _ => return Err(ServeError::UnknownMethod { method }),
        })
    }
}

/// One finished job, as recorded in the daemon's history and returned by
/// `wait`.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRecord {
    /// The daemon-assigned job id.
    pub job: u64,
    /// The request as submitted.
    pub request: JobRequest,
    /// Outcome name — one of [`muml_fleet::JobOutcome::names`] or
    /// `"cancelled"` for client-cancelled jobs.
    pub outcome: String,
    /// The violated property for `real_fault` outcomes.
    pub property: Option<String>,
    /// Verification iterations performed.
    pub iterations: usize,
    /// Wall-clock nanoseconds from dispatch to verdict (0 for jobs
    /// cancelled while queued).
    pub nanos: u64,
    /// Executions the job took (retries included).
    pub attempts: usize,
}

muml_obs::json_codec! {
    impl ToJson + FromJson for VerdictRecord {
        job: "job",
        request: "request",
        outcome: "outcome",
        property: "property" = None,
        iterations: "iterations",
        nanos: "nanos",
        attempts: "attempts",
    }
}

/// Daemon counters returned by `stats`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Jobs accepted since start.
    pub submitted: u64,
    /// Jobs finished (verdict, error, or cancellation) since start.
    pub completed: u64,
    /// Submissions shed by admission control since start.
    pub rejected: u64,
    /// Jobs cancelled by clients since start.
    pub cancelled: u64,
    /// Jobs currently queued.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Registered scenario labels.
    pub scenarios: Vec<String>,
}

muml_obs::json_codec! {
    impl ToJson + FromJson for ServerStats {
        submitted: "submitted",
        completed: "completed",
        rejected: "rejected",
        cancelled: "cancelled",
        queued: "queued",
        running: "running",
        scenarios: "scenarios",
    }
}

/// A daemon → client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission passed admission; the job is queued under this id.
    Accepted {
        /// The daemon-assigned job id.
        job: u64,
    },
    /// The request was refused — always with a typed reason, never by
    /// hanging or dropping the connection.
    Rejected {
        /// Why.
        error: ServeError,
    },
    /// A finished job (reply to `wait`).
    Verdict(VerdictRecord),
    /// Reply to `cancel`.
    Cancelled {
        /// The job id.
        job: u64,
        /// What the cancellation did.
        state: CancelState,
    },
    /// Reply to `history`: newest-last bounded verdict log.
    History {
        /// The recorded verdicts.
        entries: Vec<VerdictRecord>,
    },
    /// Reply to `stats`.
    Stats(ServerStats),
    /// Reply to `subscribe`; `Event` frames follow.
    Subscribed,
    /// One live telemetry event on a subscribed connection.
    Event {
        /// `"fleet"` for job-lifecycle events, `"loop"` for per-iteration
        /// session events.
        stream: String,
        /// The job the event belongs to.
        job: u64,
        /// The event payload ([`muml_obs::FleetEvent::to_json`] or
        /// [`muml_obs::LoopEvent::to_json`]).
        payload: Json,
    },
    /// Reply to `shutdown`.
    ShuttingDown,
}

/// The wire encoding: `{"v": 1, "reply": ..., <fields>}`.
impl ToJson for Response {
    fn to_json(&self) -> Json {
        let v = &PROTOCOL_VERSION;
        match self {
            Response::Accepted { job } => object(&[("v", v), ("reply", &"accepted"), ("job", job)]),
            Response::Rejected { error } => {
                object(&[("v", v), ("reply", &"rejected"), ("error", error)])
            }
            Response::Verdict(record) => {
                object(&[("v", v), ("reply", &"verdict"), ("verdict", record)])
            }
            Response::Cancelled { job, state } => object(&[
                ("v", v),
                ("reply", &"cancelled"),
                ("job", job),
                ("state", state),
            ]),
            Response::History { entries } => {
                object(&[("v", v), ("reply", &"history"), ("entries", entries)])
            }
            Response::Stats(stats) => object(&[("v", v), ("reply", &"stats"), ("stats", stats)]),
            Response::Subscribed => object(&[("v", v), ("reply", &"subscribed")]),
            Response::Event {
                stream,
                job,
                payload,
            } => object(&[
                ("v", v),
                ("reply", &"event"),
                ("stream", stream),
                ("job", job),
                ("payload", payload),
            ]),
            Response::ShuttingDown => object(&[("v", v), ("reply", &"shutting-down")]),
        }
    }
}

impl Response {
    /// Decodes a reply frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnsupportedVersion`] on a foreign version,
    /// [`ServeError::Malformed`] naming the field on structurally broken
    /// frames.
    pub fn from_json(json: &Json) -> Result<Response, ServeError> {
        let version: i64 = field(json, "v").map_err(malformed)?;
        if version != PROTOCOL_VERSION {
            return Err(ServeError::UnsupportedVersion { got: version });
        }
        let reply: String = field(json, "reply").map_err(malformed)?;
        let decode = || -> Result<Response, String> {
            Ok(match reply.as_str() {
                "accepted" => Response::Accepted {
                    job: field(json, "job")?,
                },
                "rejected" => Response::Rejected {
                    error: field(json, "error")?,
                },
                "verdict" => Response::Verdict(field(json, "verdict")?),
                "cancelled" => Response::Cancelled {
                    job: field(json, "job")?,
                    state: field(json, "state")?,
                },
                "history" => Response::History {
                    entries: field(json, "entries")?,
                },
                "stats" => Response::Stats(field(json, "stats")?),
                "subscribed" => Response::Subscribed,
                "event" => Response::Event {
                    stream: field(json, "stream")?,
                    job: field(json, "job")?,
                    payload: field(json, "payload")?,
                },
                "shutting-down" => Response::ShuttingDown,
                other => return Err(format!("unknown reply `{other}`")),
            })
        };
        decode().map_err(malformed)
    }
}

/// A convenient sample request for tests and examples.
#[doc(hidden)]
pub fn sample_request(id: usize) -> JobRequest {
    JobRequest::new(id, format!("correct/sample-{id}"))
        .with_scenario("railcab-convoy")
        .with_pattern("DistanceCoordination")
        .with_variant("correct")
        .with_max_iterations(128)
        .with_deadline(Duration::from_secs(30))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let payload = Request::Submit {
            request: sample_request(7),
            priority: Priority::High,
        }
        .to_json();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(
            u32::from_be_bytes(wire[..4].try_into().unwrap()) as usize,
            wire.len() - 4
        );
        let mut cursor = Cursor::new(wire);
        let decoded = read_frame(&mut cursor, MAX_FRAME_DEFAULT).unwrap();
        assert_eq!(decoded, payload);
        // The stream is now at a clean boundary.
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_DEFAULT),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn oversized_frames_are_skipped_in_sync() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Json::Str("x".repeat(512))).unwrap();
        let follow_up = Json::Str("still here".into());
        write_frame(&mut wire, &follow_up).unwrap();
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor, 64) {
            Err(FrameError::Oversized { length, max }) => {
                assert!(length > 64);
                assert_eq!(max, 64);
            }
            other => panic!("expected oversized, got {other:?}"),
        }
        // The oversized payload was drained: the next frame decodes fine.
        assert_eq!(read_frame(&mut cursor, 64).unwrap(), follow_up);
    }

    #[test]
    fn truncated_frames_are_detected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Json::Str("about to be cut".into())).unwrap();
        wire.truncate(wire.len() - 3);
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_DEFAULT),
            Err(FrameError::Truncated)
        ));
        // A header cut mid-way is also truncation, not a clean close.
        let mut cursor = Cursor::new(vec![0u8, 0, 1]);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_DEFAULT),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn garbage_payloads_are_malformed_not_fatal() {
        let mut wire = Vec::new();
        let garbage = b"not json at all";
        wire.extend_from_slice(&(garbage.len() as u32).to_be_bytes());
        wire.extend_from_slice(garbage);
        write_frame(&mut wire, &Json::Bool(true)).unwrap();
        let mut cursor = Cursor::new(wire);
        assert!(matches!(
            read_frame(&mut cursor, MAX_FRAME_DEFAULT),
            Err(FrameError::Malformed(_))
        ));
        assert_eq!(
            read_frame(&mut cursor, MAX_FRAME_DEFAULT).unwrap(),
            Json::Bool(true)
        );
    }

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Submit {
                request: sample_request(0),
                priority: Priority::Low,
            },
            Request::Wait { job: 9 },
            Request::Cancel { job: 10 },
            Request::History,
            Request::Stats,
            Request::Subscribe,
            Request::Shutdown,
        ]
    }

    fn sample_verdict(job: u64) -> VerdictRecord {
        VerdictRecord {
            job,
            request: sample_request(job as usize),
            outcome: "real_fault".into(),
            property: Some("AG safe".into()),
            iterations: 12,
            nanos: 34_567,
            attempts: 2,
        }
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Accepted { job: 3 },
            Response::Rejected {
                error: ServeError::QueueFull {
                    pending: 256,
                    limit: 256,
                },
            },
            Response::Verdict(sample_verdict(3)),
            Response::Cancelled {
                job: 4,
                state: CancelState::Signalled,
            },
            Response::History {
                entries: vec![sample_verdict(1), sample_verdict(2)],
            },
            Response::Stats(ServerStats {
                submitted: 100,
                completed: 90,
                rejected: 7,
                cancelled: 3,
                queued: 6,
                running: 4,
                scenarios: vec!["railcab-convoy".into()],
            }),
            Response::Subscribed,
            Response::Event {
                stream: "fleet".into(),
                job: 5,
                payload: Json::Object(vec![("kind".into(), Json::Str("job_started".into()))]),
            },
            Response::ShuttingDown,
        ]
    }

    #[test]
    fn every_request_variant_round_trips() {
        for request in all_requests() {
            let decoded = Request::from_json(&request.to_json()).unwrap();
            assert_eq!(decoded, request);
        }
    }

    #[test]
    fn every_response_variant_round_trips() {
        for response in all_responses() {
            let decoded = Response::from_json(&response.to_json()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn foreign_versions_and_methods_yield_typed_errors() {
        let future = Json::Object(vec![
            ("v".to_owned(), Json::Int(99)),
            ("method".to_owned(), Json::Str("submit".into())),
        ]);
        assert_eq!(
            Request::from_json(&future),
            Err(ServeError::UnsupportedVersion { got: 99 })
        );
        let alien = Json::Object(vec![
            ("v".to_owned(), Json::Int(PROTOCOL_VERSION)),
            ("method".to_owned(), Json::Str("frobnicate".into())),
        ]);
        assert_eq!(
            Request::from_json(&alien),
            Err(ServeError::UnknownMethod {
                method: "frobnicate".into()
            })
        );
        let missing = Json::Object(vec![("v".to_owned(), Json::Int(PROTOCOL_VERSION))]);
        assert!(matches!(
            Request::from_json(&missing),
            Err(ServeError::Malformed { .. })
        ));
    }

    #[test]
    fn submit_defaults_to_normal_priority() {
        let mut obj = match (Request::Submit {
            request: sample_request(0),
            priority: Priority::High,
        })
        .to_json()
        {
            Json::Object(fields) => fields,
            _ => unreachable!(),
        };
        obj.retain(|(k, _)| k != "priority");
        match Request::from_json(&Json::Object(obj)).unwrap() {
            Request::Submit { priority, .. } => assert_eq!(priority, Priority::Normal),
            other => panic!("{other:?}"),
        }
    }
}
