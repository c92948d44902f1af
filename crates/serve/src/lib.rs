//! `muml-serve` — a long-running verification daemon with a wire-stable
//! job API.
//!
//! A resident service for integration campaigns that arrive over time: a
//! daemon listens on a TCP and/or Unix socket, clients submit declarative
//! [`JobRequest`](muml_fleet::JobRequest)s (pure data — the wire schema,
//! the batch input, and the bench-campaign cell are one type), and a
//! scenario [`JobRegistry`](muml_fleet::JobRegistry) re-attaches the
//! executable half server-side. The daemon's worker loop is the one place
//! a job's work runs: a campaign built all at once goes through the same
//! loop, as [`run_fleet`]'s batch of already-resolved jobs.
//!
//! The pieces:
//!
//! - [`protocol`] — the length-prefixed JSON frame protocol
//!   (version-tagged requests/replies, [`protocol::VerdictRecord`],
//!   [`protocol::Priority`] classes).
//! - [`error`] — [`ServeError`], the one `#[non_exhaustive]`
//!   wire-encodable error with stable string codes that every failure
//!   (admission, resolution, session, transport) maps onto.
//! - [`journal`] — the durable job journal: checksummed, length-prefixed
//!   `accepted`/`started`/`finished` records with torn-tail recovery, so a
//!   killed daemon replays its verdict history and re-queues unfinished
//!   jobs on restart.
//! - [`server`] — the [`Daemon`]: priority scheduling with per-client
//!   round-robin fairness, non-blocking admission control, worker pool,
//!   verdict history, live event broadcast.
//! - [`batch`] — [`run_fleet`], the in-process batch client: a whole
//!   campaign on a private daemon, aggregated into a
//!   [`FleetReport`](muml_fleet::FleetReport).
//! - [`net`] — the socket front end ([`Server`]).
//! - [`client`] — the blocking [`ServeClient`] and its
//!   [`client::EventStream`].
//! - [`scenarios`] — built-in resolvers (the RailCab convoy campaign).
//!
//! A request on the wire is four bytes of big-endian payload length
//! followed by a JSON object; see `DESIGN.md` §14 for the full grammar,
//! the admission-control policy, and the fairness invariant.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod client;
pub mod error;
pub mod journal;
pub mod net;
pub mod protocol;
pub mod scenarios;
pub mod server;

pub use batch::run_fleet;
pub use client::{EventStream, ServeClient};
pub use error::ServeError;
pub use journal::{Journal, JournalRecord, JournalReplay, JOURNAL_VERSION};
pub use net::Server;
pub use protocol::{
    CancelState, Priority, Request, Response, ServerStats, VerdictRecord, MAX_FRAME_DEFAULT,
    PROTOCOL_VERSION,
};
pub use scenarios::{railcab_registry, RAILCAB_PATTERN, RAILCAB_SCENARIO};
pub use server::{Daemon, ReplayStats, ServeConfig};
