//! Deterministic campaign aggregation.
//!
//! Job execution is concurrent and completion order is scheduling-shaped,
//! but the aggregated [`FleetReport`] is *deterministic*: rows are sorted
//! by the request id assigned at campaign-generation time, and the
//! [`fingerprint`](FleetReport::fingerprint) projects away every
//! timing-dependent field (durations, worker assignments, attempts). Two
//! runs of the same campaign — with different worker counts or submission
//! orders — produce identical fingerprints; see DESIGN.md §11 for the full
//! argument.

use muml_obs::json::{object, Json, ToJson};

use crate::job::{JobOutcome, JobResult};

/// The aggregated result of a campaign.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Worker-pool size the campaign ran with.
    pub workers: usize,
    /// Per-job results, sorted by `request.id`.
    pub results: Vec<JobResult>,
    /// Wall-clock nanoseconds for the whole campaign.
    pub wall_nanos: u64,
}

impl FleetReport {
    /// Builds a report from completion-ordered results (sorts by request
    /// id).
    pub fn new(workers: usize, mut results: Vec<JobResult>, wall_nanos: u64) -> Self {
        results.sort_by_key(|r| r.request.id);
        FleetReport {
            workers,
            results,
            wall_nanos,
        }
    }

    /// The verdict histogram, in the fixed [`JobOutcome::names`] order
    /// (zero counts included).
    pub fn histogram(&self) -> Vec<(&'static str, usize)> {
        JobOutcome::names()
            .into_iter()
            .map(|name| {
                let count = self
                    .results
                    .iter()
                    .filter(|r| r.outcome.name() == name)
                    .count();
                (name, count)
            })
            .collect()
    }

    /// Sum of per-job wall-clock times — the serial-execution estimate a
    /// pool's speedup is measured against.
    pub fn busy_nanos(&self) -> u64 {
        self.results.iter().map(|r| r.nanos).sum()
    }

    /// The deterministic projection of the report, encoded as canonical
    /// JSON: job coordinates, outcomes, iteration counts, and the verdict
    /// histogram — **no** durations, worker assignments, pool size, or
    /// attempts. Equal campaigns yield equal fingerprints regardless
    /// of worker count or submission order.
    pub fn fingerprint(&self) -> String {
        let rows: Vec<Row> = self.results.iter().map(Row).collect();
        object(&[
            ("jobs", &self.results.len()),
            ("histogram", &self.histogram()),
            ("results", &rows),
        ])
        .encode()
    }
}

/// One result row of the fingerprint: no scheduling-dependent field
/// (worker, nanos, attempts).
struct Row<'a>(&'a JobResult);

impl ToJson for Row<'_> {
    fn to_json(&self) -> Json {
        let (r, request) = (self.0, &self.0.request);
        let property = match &r.outcome {
            JobOutcome::RealFault { property } => Some(property),
            _ => None,
        };
        let quarantined = match &r.outcome {
            JobOutcome::Inconclusive { quarantined } => Some(quarantined),
            _ => None,
        };
        object(&[
            ("job", &request.id),
            ("name", &request.name),
            ("scenario", &request.scenario),
            ("pattern", &request.pattern),
            ("variant", &request.variant),
            ("fault", &request.fault),
            ("outcome", &r.outcome.name()),
            ("property", &property),
            ("quarantined", &quarantined),
            ("iterations", &r.iterations),
            ("driven_steps", &r.stats.driven_steps),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::JobRequest;
    use muml_core::IntegrationStats;

    fn result(id: usize, outcome: JobOutcome, worker: usize, nanos: u64) -> JobResult {
        JobResult {
            request: JobRequest::new(id, format!("job-{id}")),
            outcome,
            iterations: id + 1,
            stats: IntegrationStats::default(),
            worker,
            nanos,
            attempts: 1,
        }
    }

    fn error() -> JobOutcome {
        JobOutcome::Error {
            message: "x".into(),
        }
    }

    #[test]
    fn report_sorts_by_id_and_fingerprints_ignore_timing() {
        // Job 3 needed three attempts in `a` and one in `b`: the
        // fingerprint keeps its outcome but not its attempts.
        let mut flaky = result(3, error(), 2, 0);
        flaky.attempts = 3;
        let a = FleetReport::new(
            4,
            vec![
                result(2, JobOutcome::Proven, 3, 500),
                flaky,
                result(0, JobOutcome::TimedOut, 1, 900),
                result(1, JobOutcome::Proven, 0, 100),
            ],
            10_000,
        );
        let b = FleetReport::new(
            1,
            vec![
                result(0, JobOutcome::TimedOut, 0, 111),
                result(1, JobOutcome::Proven, 0, 222),
                result(2, JobOutcome::Proven, 0, 333),
                result(3, error(), 0, 444),
            ],
            99_999,
        );
        assert_eq!(
            a.results.iter().map(|r| r.request.id).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        let fp = a.fingerprint();
        assert_eq!(fp, b.fingerprint());
        assert!(fp.contains("\"error\"") && !fp.contains("attempts"), "{fp}");
        assert_eq!(a.busy_nanos(), 1500);
        assert_eq!(b.busy_nanos(), 1110);
        assert_eq!(a.histogram()[0], ("proven", 2));
        assert_eq!(a.histogram()[3], ("timed_out", 1));
        assert_eq!(a.histogram()[5], ("error", 1));
    }
}
