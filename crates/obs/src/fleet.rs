//! Job lifecycle events broadcast by the `muml-serve` daemon.
//!
//! The per-session story is told by [`LoopEvent`](crate::LoopEvent)
//! streams; a [`FleetEvent`] marks where a job starts and ends on the
//! daemon's worker pool. The daemon sends them to its subscribers as the
//! payload of `fleet`-stream event frames.
//!
//! Unlike loop events, fleet events are **timing-shaped**: which worker
//! picked which job, and when, depends on scheduling. They are telemetry,
//! not part of the deterministic `FleetReport` — consumers that need
//! determinism read the report's fingerprint instead.

crate::json_codec! {
    /// One observable step of a job's life on the daemon's worker pool.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum FleetEvent tagged "event" {
        /// A worker picked a job off the queue.
        JobStarted = "job_started" {
            /// The job's id.
            job: usize,
            /// The job's display name.
            name: String,
            /// The worker index executing it.
            worker: usize,
        },
        /// A job ran to a verdict (or error).
        JobFinished = "job_finished" {
            /// The job's id.
            job: usize,
            /// The worker index that executed it.
            worker: usize,
            /// Stable outcome name (`proven`, `real_fault`, `timed_out`,
            /// `iteration_limit`, `error`, `cancelled`).
            outcome: String,
            /// Verification iterations the session performed.
            iterations: usize,
            /// Wall-clock nanoseconds the job occupied its worker.
            nanos: u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json, ToJson};

    #[test]
    fn json_round_trips_every_variant() {
        let events = [
            FleetEvent::JobStarted {
                job: 0,
                name: "railcab/correct".into(),
                worker: 1,
            },
            FleetEvent::JobFinished {
                job: 0,
                worker: 1,
                outcome: "proven".into(),
                iterations: 7,
                nanos: 1234,
            },
        ];
        for event in &events {
            let line = event.to_json().encode();
            assert!(!line.contains('\n'), "{line}");
            let parsed = parse(&line).unwrap();
            assert_eq!(parsed, event.to_json());
            assert_eq!(
                parsed.get("event").and_then(Json::as_str),
                Some(event.kind())
            );
        }
    }
}
