//! Campaign jobs: a resolved request plus its work closure.
//!
//! A [`JobRequest`] (see [`crate::request`]) is plain data — the
//! coordinates of one cell of a campaign matrix (scenario × pattern ×
//! component variant × fault) plus its resource budget. The executable
//! half is the [`Job`]'s *work closure*, which builds its own universe,
//! context, and component inside the worker thread (automata universes are
//! cheap and sessions must not share mutable state across jobs) and runs
//! an [`IntegrationSession`](muml_core::IntegrationSession) wired to the
//! [`JobContext`]'s cancellation token.

use muml_core::{CancelToken, CoreError, IntegrationReport, IntegrationStats, IntegrationVerdict};
use muml_obs::SharedSink;

use crate::request::JobRequest;

/// Per-job execution context handed to the work closure.
#[derive(Debug, Clone, Default)]
pub struct JobContext {
    /// The job's cancellation token — pre-armed with the request's
    /// deadline. The closure must thread it into its session
    /// ([`IntegrationSession::cancel_token`](muml_core::IntegrationSession::cancel_token)
    /// or [`IntegrationConfig::with_cancel_token`](muml_core::IntegrationConfig::with_cancel_token))
    /// for the deadline to take effect.
    pub cancel: CancelToken,
    /// Where the session's per-iteration loop events should go, when a
    /// subscriber is listening (`None` = discard). Work closures that run
    /// an `IntegrationSession` should wire this in as the session sink.
    pub loop_sink: Option<SharedSink>,
    /// The campaign's shared warm-start store, when the runner was given
    /// one (`muml_serve::ServeConfig::with_store`).
    /// Work closures attach it to their session via
    /// [`IntegrationConfig::with_shared_store`](muml_core::IntegrationConfig::with_shared_store)
    /// and sign their units so repeat campaigns seed from persisted
    /// snapshots.
    pub store: Option<std::sync::Arc<muml_core::store::Store>>,
}

/// The executable work of a job. Runs on a worker thread; everything the
/// session needs (universe, context automaton, component) is built inside.
/// `Fn` (not `FnOnce`) so the runner can re-run the closure when the
/// request grants [`retries`](JobRequest::retries) after a rig-attributed
/// failure or a panic.
pub type JobWork = Box<dyn Fn(&JobContext) -> Result<IntegrationReport, CoreError> + Send>;

/// One schedulable unit: a request plus its work closure.
pub struct Job {
    /// The declarative description.
    pub request: JobRequest,
    /// The work to run.
    pub work: JobWork,
}

impl Job {
    /// Pairs a request with its work closure.
    pub fn new(
        request: JobRequest,
        work: impl Fn(&JobContext) -> Result<IntegrationReport, CoreError> + Send + 'static,
    ) -> Self {
        Job {
            request,
            work: Box::new(work),
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("request", &self.request)
            .finish_non_exhaustive()
    }
}

/// How a job ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutcome {
    /// The integration was proven correct.
    Proven,
    /// A real integration fault was confirmed by testing.
    RealFault {
        /// The violated property (rendered).
        property: String,
    },
    /// The session exhausted its flake budget and honestly declined to
    /// issue a verdict (see
    /// [`IntegrationVerdict::Inconclusive`](muml_core::IntegrationVerdict)).
    Inconclusive {
        /// Counterexamples the session quarantined before giving up.
        quarantined: usize,
    },
    /// The job hit its wall-clock deadline and was cancelled.
    TimedOut,
    /// The session hit its iteration cap.
    IterationLimit,
    /// The session failed (or the work closure panicked).
    Error {
        /// The error (or panic) message.
        message: String,
    },
}

impl JobOutcome {
    /// Stable snake_case name (histogram key, JSON encoding).
    pub fn name(&self) -> &'static str {
        match self {
            JobOutcome::Proven => "proven",
            JobOutcome::RealFault { .. } => "real_fault",
            JobOutcome::Inconclusive { .. } => "inconclusive",
            JobOutcome::TimedOut => "timed_out",
            JobOutcome::IterationLimit => "iteration_limit",
            JobOutcome::Error { .. } => "error",
        }
    }

    /// All outcome names, in the fixed histogram order.
    pub fn names() -> [&'static str; 6] {
        [
            "proven",
            "real_fault",
            "inconclusive",
            "timed_out",
            "iteration_limit",
            "error",
        ]
    }

    /// Whether the outcome counts as a rig-attributed failure for the
    /// retry loop: errors (panics included) and inconclusive runs might
    /// succeed on a healthier rig, whereas
    /// proofs, confirmed faults, timeouts, and iteration caps are
    /// properties of the job itself.
    pub fn is_rig_failure(&self) -> bool {
        matches!(
            self,
            JobOutcome::Error { .. } | JobOutcome::Inconclusive { .. }
        )
    }
}

/// The result of one executed job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's request (report rows are sorted by `request.id`).
    pub request: JobRequest,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// Verification iterations performed.
    pub iterations: usize,
    /// The session's statistics rollup (all-default for jobs that errored
    /// or timed out before producing a report).
    pub stats: IntegrationStats,
    /// The worker that executed the job (telemetry; excluded from the
    /// fingerprint).
    pub worker: usize,
    /// Wall-clock nanoseconds the job occupied its worker (telemetry;
    /// excluded from the fingerprint).
    pub nanos: u64,
    /// Executions the job took (1 = first try). Rig-health telemetry;
    /// excluded from the fingerprint.
    pub attempts: usize,
}

/// Classifies a session result into a [`JobOutcome`] plus its iteration
/// count and stats rollup: the outcome semantics of the `muml-serve`
/// daemon's worker loop, the one place a job's work runs.
pub fn classify(
    result: Result<IntegrationReport, CoreError>,
) -> (JobOutcome, usize, IntegrationStats) {
    match result {
        Ok(report) => {
            let iterations = report.stats.iterations;
            let outcome = match report.verdict {
                IntegrationVerdict::Proven => JobOutcome::Proven,
                IntegrationVerdict::RealFault { property, .. } => {
                    JobOutcome::RealFault { property }
                }
                IntegrationVerdict::Inconclusive { quarantined, .. } => {
                    JobOutcome::Inconclusive { quarantined }
                }
            };
            (outcome, iterations, report.stats)
        }
        Err(CoreError::Cancelled { iterations }) => (
            JobOutcome::TimedOut,
            iterations,
            IntegrationStats::default(),
        ),
        Err(CoreError::IterationLimit(n)) => {
            (JobOutcome::IterationLimit, n, IntegrationStats::default())
        }
        Err(e) => (
            JobOutcome::Error {
                message: e.to_string(),
            },
            0,
            IntegrationStats::default(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn request_builder_chains() {
        let request = JobRequest::new(3, "faulty/drop[x]")
            .with_scenario("railcab-convoy")
            .with_pattern("DistanceCoordination")
            .with_variant("faulty")
            .with_fault("drop[x]")
            .with_max_iterations(64)
            .with_deadline(Duration::from_secs(5));
        assert_eq!(request.id, 3);
        assert_eq!(request.fault.as_deref(), Some("drop[x]"));
        assert_eq!(request.max_iterations, 64);
        assert_eq!(request.deadline, Some(Duration::from_secs(5)));
    }

    #[test]
    fn classify_maps_errors() {
        let (outcome, iterations, _) = classify(Err(CoreError::Cancelled { iterations: 4 }));
        assert_eq!(outcome, JobOutcome::TimedOut);
        assert_eq!(iterations, 4);
        let (outcome, iterations, _) = classify(Err(CoreError::IterationLimit(9)));
        assert_eq!(outcome, JobOutcome::IterationLimit);
        assert_eq!(iterations, 9);
        let (outcome, _, _) = classify(Err(CoreError::InterfaceMismatch { detail: "x".into() }));
        assert!(matches!(outcome, JobOutcome::Error { .. }));
        assert_eq!(outcome.name(), "error");
    }

    #[test]
    fn classify_maps_inconclusive_verdicts() {
        let report = IntegrationReport {
            verdict: IntegrationVerdict::Inconclusive {
                quarantined: 3,
                attempts: 17,
            },
            iterations: Vec::new(),
            learned: Vec::new(),
            stats: IntegrationStats::default(),
        };
        let (outcome, _, _) = classify(Ok(report));
        assert_eq!(outcome, JobOutcome::Inconclusive { quarantined: 3 });
        assert_eq!(outcome.name(), "inconclusive");
        assert!(outcome.is_rig_failure());
    }

    #[test]
    fn classify_names_the_nondeterministic_component() {
        // A strict-mode session surfaces nondeterminism as a typed error;
        // the fleet keeps the component name in the outcome message.
        let (outcome, _, _) = classify(Err(CoreError::Nondeterministic {
            component: "wobbly-shuttle".into(),
            period: 5,
        }));
        match &outcome {
            JobOutcome::Error { message } => {
                assert!(message.contains("wobbly-shuttle"), "{message}");
                assert!(message.contains("determinism"), "{message}");
            }
            other => panic!("expected an error outcome, got {other:?}"),
        }
        assert!(outcome.is_rig_failure());
    }
}
