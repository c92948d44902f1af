//! Deterministic campaign aggregation.
//!
//! Job execution is concurrent and completion order is scheduling-shaped,
//! but the aggregated [`FleetReport`] is *deterministic*: rows are sorted
//! by the request id assigned at campaign-generation time, and the
//! [`fingerprint`](FleetReport::fingerprint) projects away every
//! timing-dependent field (durations, worker assignments, the slowest-job
//! table). Two runs of the same campaign — with different worker counts or
//! submission orders — produce identical fingerprints; see DESIGN.md §11
//! for the full argument.

use muml_obs::json::Json;

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

    /// Total verification iterations across all jobs.
    pub fn total_iterations(&self) -> usize {
        self.results.iter().map(|r| r.iterations).sum()
    }

    /// Total component steps driven by the test harness across all jobs.
    pub fn total_driven_steps(&self) -> usize {
        self.results.iter().map(|r| r.stats.driven_steps).sum()
    }

    /// Sum of per-job wall-clock times — the serial-execution estimate a
    /// pool's speedup is measured against.
    pub fn busy_nanos(&self) -> u64 {
        self.results.iter().map(|r| r.nanos).sum()
    }

    /// Total job executions, retries included.
    pub fn total_attempts(&self) -> usize {
        self.results.iter().map(|r| r.attempts).sum()
    }

    /// Job-level retries across the campaign (attempts beyond the first).
    pub fn total_retries(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.attempts.saturating_sub(1))
            .sum()
    }

    /// Trace-cache hits (full verdict tuples served without driving the
    /// rig) across all jobs.
    pub fn total_cache_hits(&self) -> usize {
        self.results.iter().map(|r| r.stats.trace_cache_hits).sum()
    }

    /// Rig steps the trace cache saved across all jobs (the serial
    /// counterfactual minus the steps actually driven).
    pub fn total_cache_saved_steps(&self) -> usize {
        self.results
            .iter()
            .map(|r| r.stats.trace_cache_saved_steps)
            .sum()
    }

    /// Counterexample tests skipped by the per-run dedup guard across all
    /// jobs.
    pub fn total_dedup_skipped(&self) -> usize {
        self.results.iter().map(|r| r.stats.dedup_skipped).sum()
    }

    /// The `n` slowest jobs, slowest first (ties broken by request id).
    pub fn slowest(&self, n: usize) -> Vec<&JobResult> {
        let mut rows: Vec<&JobResult> = self.results.iter().collect();
        rows.sort_by_key(|r| (std::cmp::Reverse(r.nanos), r.request.id));
        rows.truncate(n);
        rows
    }

    /// The full JSON encoding, timing fields included.
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("workers".to_owned(), Json::from_usize(self.workers)),
            ("jobs".to_owned(), Json::from_usize(self.results.len())),
            ("wall_nanos".to_owned(), Json::from_u64(self.wall_nanos)),
            (
                "histogram".to_owned(),
                Json::Object(
                    self.histogram()
                        .into_iter()
                        .map(|(name, count)| (name.to_owned(), Json::from_usize(count)))
                        .collect(),
                ),
            ),
            (
                "results".to_owned(),
                Json::Array(self.results.iter().map(|r| job_json(r, true)).collect()),
            ),
        ];
        obj.push((
            "health".to_owned(),
            Json::Object(vec![
                (
                    "attempts".to_owned(),
                    Json::from_usize(self.total_attempts()),
                ),
                ("retries".to_owned(), Json::from_usize(self.total_retries())),
                (
                    "trace_cache_hits".to_owned(),
                    Json::from_usize(self.total_cache_hits()),
                ),
                (
                    "trace_cache_saved_steps".to_owned(),
                    Json::from_usize(self.total_cache_saved_steps()),
                ),
                (
                    "dedup_skipped".to_owned(),
                    Json::from_usize(self.total_dedup_skipped()),
                ),
            ]),
        ));
        obj.push((
            "slowest".to_owned(),
            Json::Array(
                self.slowest(5)
                    .into_iter()
                    .map(|r| {
                        Json::Object(vec![
                            ("job".to_owned(), Json::from_usize(r.request.id)),
                            ("name".to_owned(), Json::Str(r.request.name.clone())),
                            ("nanos".to_owned(), Json::from_u64(r.nanos)),
                        ])
                    })
                    .collect(),
            ),
        ));
        Json::Object(obj)
    }

    /// The deterministic projection of the report, encoded as canonical
    /// JSON: job coordinates, outcomes, iteration counts, and the verdict
    /// histogram — **no** durations, worker assignments, pool size, or
    /// slowest table. Equal campaigns yield equal fingerprints regardless
    /// of worker count or submission order.
    pub fn fingerprint(&self) -> String {
        Json::Object(vec![
            ("jobs".to_owned(), Json::from_usize(self.results.len())),
            (
                "histogram".to_owned(),
                Json::Object(
                    self.histogram()
                        .into_iter()
                        .map(|(name, count)| (name.to_owned(), Json::from_usize(count)))
                        .collect(),
                ),
            ),
            (
                "results".to_owned(),
                Json::Array(self.results.iter().map(|r| job_json(r, false)).collect()),
            ),
        ])
        .encode()
    }

    /// A human-readable summary: histogram, totals, and the slowest jobs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let ms = |nanos: u64| format!("{:.2}ms", nanos as f64 / 1.0e6);
        out.push_str(&format!(
            "fleet: {} jobs on {} workers in {} (busy {})\n",
            self.results.len(),
            self.workers,
            ms(self.wall_nanos),
            ms(self.busy_nanos()),
        ));
        out.push_str("  verdicts:");
        for (name, count) in self.histogram() {
            if count > 0 {
                out.push_str(&format!(" {name}={count}"));
            }
        }
        out.push('\n');
        out.push_str(&format!(
            "  {} iterations, {} driven steps\n",
            self.total_iterations(),
            self.total_driven_steps()
        ));
        if self.total_cache_hits() > 0 || self.total_dedup_skipped() > 0 {
            out.push_str(&format!(
                "  trace cache: {} hits, {} rig steps saved, {} tests deduped\n",
                self.total_cache_hits(),
                self.total_cache_saved_steps(),
                self.total_dedup_skipped(),
            ));
        }
        if self.total_retries() > 0 {
            out.push_str(&format!(
                "  rig health: {} attempts ({} retries)\n",
                self.total_attempts(),
                self.total_retries(),
            ));
        }
        for r in self.slowest(5) {
            out.push_str(&format!(
                "  slow: job {} `{}` {} ({})\n",
                r.request.id,
                r.request.name,
                ms(r.nanos),
                r.outcome.name()
            ));
        }
        out
    }
}

/// One result row as JSON. `timing` controls whether the
/// scheduling-dependent fields (worker, nanos) are included — the
/// fingerprint excludes them.
fn job_json(r: &JobResult, timing: bool) -> Json {
    let mut obj = vec![
        ("job".to_owned(), Json::from_usize(r.request.id)),
        ("name".to_owned(), Json::Str(r.request.name.clone())),
        ("scenario".to_owned(), Json::Str(r.request.scenario.clone())),
        ("pattern".to_owned(), Json::Str(r.request.pattern.clone())),
        ("variant".to_owned(), Json::Str(r.request.variant.clone())),
        (
            "fault".to_owned(),
            match &r.request.fault {
                Some(f) => Json::Str(f.clone()),
                None => Json::Null,
            },
        ),
        ("outcome".to_owned(), Json::Str(r.outcome.name().to_owned())),
        (
            "property".to_owned(),
            match &r.outcome {
                JobOutcome::RealFault { property } => Json::Str(property.clone()),
                _ => Json::Null,
            },
        ),
        (
            "quarantined".to_owned(),
            match &r.outcome {
                JobOutcome::Inconclusive { quarantined } => Json::from_usize(*quarantined),
                _ => Json::Null,
            },
        ),
        ("iterations".to_owned(), Json::from_usize(r.iterations)),
        (
            "driven_steps".to_owned(),
            Json::from_usize(r.stats.driven_steps),
        ),
    ];
    if timing {
        obj.push(("worker".to_owned(), Json::from_usize(r.worker)));
        obj.push(("nanos".to_owned(), Json::from_u64(r.nanos)));
        obj.push(("attempts".to_owned(), Json::from_usize(r.attempts)));
    }
    Json::Object(obj)
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

    #[test]
    fn report_sorts_by_id_and_fingerprints_ignore_timing() {
        let a = FleetReport::new(
            4,
            vec![
                result(2, JobOutcome::Proven, 3, 500),
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
            ],
            99_999,
        );
        assert_eq!(
            a.results.iter().map(|r| r.request.id).collect::<Vec<_>>(),
            [0, 1, 2]
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.to_json(), b.to_json()); // timing differs
        assert_eq!(a.histogram()[0], ("proven", 2));
        assert_eq!(a.histogram()[3], ("timed_out", 1));
    }

    #[test]
    fn slowest_ranks_by_duration() {
        let report = FleetReport::new(
            2,
            vec![
                result(0, JobOutcome::Proven, 0, 50),
                result(1, JobOutcome::Proven, 1, 500),
                result(2, JobOutcome::Proven, 0, 5),
            ],
            1_000,
        );
        let slow: Vec<usize> = report.slowest(2).iter().map(|r| r.request.id).collect();
        assert_eq!(slow, [1, 0]);
        assert_eq!(report.busy_nanos(), 555);
        assert!(report.render().contains("slow: job 1"));
    }

    #[test]
    fn health_stats_surface_retries() {
        let mut flaky = result(
            0,
            JobOutcome::Error {
                message: "x".into(),
            },
            0,
            10,
        );
        flaky.attempts = 3;
        let report = FleetReport::new(1, vec![flaky, result(1, JobOutcome::Proven, 0, 20)], 1_000);
        assert_eq!(report.total_retries(), 2);
        let text = report.render();
        assert!(
            text.contains("rig health: 4 attempts (2 retries)"),
            "{text}"
        );
        let json = report.to_json().encode();
        assert!(json.contains("\"retries\":2"), "{json}");
        // The fingerprint keeps outcomes but ignores attempts.
        let fp = report.fingerprint();
        assert!(fp.contains("\"error\""), "{fp}");
        assert!(!fp.contains("attempts"), "{fp}");
    }

    #[test]
    fn trace_cache_aggregates_surface_in_health_and_render() {
        let mut warm = result(0, JobOutcome::Proven, 0, 10);
        warm.stats.trace_cache_hits = 4;
        warm.stats.trace_cache_saved_steps = 36;
        warm.stats.dedup_skipped = 2;
        let report = FleetReport::new(1, vec![warm, result(1, JobOutcome::Proven, 0, 20)], 1_000);
        assert_eq!(report.total_cache_hits(), 4);
        assert_eq!(report.total_cache_saved_steps(), 36);
        assert_eq!(report.total_dedup_skipped(), 2);
        let text = report.render();
        assert!(
            text.contains("trace cache: 4 hits, 36 rig steps saved, 2 tests deduped"),
            "{text}"
        );
        let json = report.to_json().encode();
        assert!(json.contains("\"trace_cache_saved_steps\":36"), "{json}");
        // Cold campaigns stay silent.
        let cold = FleetReport::new(1, vec![result(0, JobOutcome::Proven, 0, 10)], 1_000);
        assert!(!cold.render().contains("trace cache"), "{}", cold.render());
    }
}
