//! Job, request and report types for integration campaigns.
//!
//! One integration session answers one question: *does this component,
//! under this context, satisfy this constraint?* Real integration work
//! asks that question dozens of times — per component variant, per seeded
//! fault, per coordination pattern — and each run spends most of its time
//! blocked on the test harness (counterexample replay against the legacy
//! rig). This crate is the campaign layer above
//! [`muml_core::IntegrationSession`]:
//!
//! * [`JobRequest`] / [`Job`] — a declarative campaign cell (scenario ×
//!   pattern × variant × fault, plus iteration cap and deadline) paired
//!   with a work closure that builds and runs its session inside a worker
//!   thread. A `JobRequest` is wire-encodable (its
//!   [`muml_obs::json::ToJson`] / [`muml_obs::json::FromJson`] table)
//!   and a [`JobRegistry`] resolves it back into a runnable [`Job`]
//!   server-side, so the same type serves as the `muml-serve` wire schema,
//!   the batch input, and the bench-campaign cell.
//! * [`JobOutcome`] / [`JobResult`] / [`classify`] — how a job ended, with
//!   its stats rollup and attempt count.
//! * [`FleetReport`] — the deterministic aggregation: rows sorted by
//!   generation-time job id, a verdict histogram, per-job
//!   [`muml_core::IntegrationStats`] rollups, and a
//!   [`fingerprint`](FleetReport::fingerprint) that is bit-identical
//!   across worker counts and submission orders.
//!
//! Jobs run in one place: the worker loop of the `muml-serve` daemon.
//! `muml_serve::run_fleet` is its batch client — it submits a whole
//! campaign to an in-process daemon and collects a [`FleetReport`].
//! DESIGN.md §11 documents the batch client, the cancellation points,
//! and the determinism argument.

#![warn(missing_docs)]

mod job;
mod report;
pub mod request;

pub use job::{classify, Job, JobContext, JobOutcome, JobResult, JobWork};
pub use report::FleetReport;
pub use request::{JobRegistry, JobRequest, JobResolver, ResolveError};
