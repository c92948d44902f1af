//! The wire-stable job schema and its server-side resolver registry.
//!
//! A [`JobRequest`] is *pure data*: the coordinates of one campaign cell
//! (scenario × pattern × variant × fault) plus its resource budget. Unlike
//! the closure-carrying [`Job`](crate::Job), a request crosses process
//! boundaries — its [`ToJson`] / [`FromJson`] table gives it a stable JSON
//! encoding (versioned under the `"v"` key), so the same type is
//! simultaneously
//!
//! * the **wire schema** a `muml-serve` client submits,
//! * the **fleet input** (a [`Job`] is a resolved request plus its work),
//! * the **bench-campaign cell** (`muml_bench::campaign` enumerates
//!   requests, not closures).
//!
//! The executable half is re-attached by a [`JobRegistry`]: scenarios
//! register a *resolver* that turns the declarative coordinates back into
//! a work closure inside the process that will run it. Resolution is
//! fallible and typed ([`ResolveError`]) so a daemon can answer a bad
//! request with a structured rejection instead of panicking in a worker.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use muml_obs::json::{FromJson, Json, ToJson};

use crate::job::{Job, JobWork};

/// Version tag of the `JobRequest` JSON encoding.
pub const JOB_REQUEST_VERSION: i64 = 1;

/// The declarative, serializable description of one verification job.
///
/// `id` is assigned by the campaign *generator* (or submitting client),
/// not the executor: report ordering is by `id`, so shuffling the
/// submission order (or changing the worker count) cannot change an
/// aggregated report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRequest {
    /// Stable job id (position in the generated campaign).
    pub id: usize,
    /// Display name (`variant/fault` by convention).
    pub name: String,
    /// The scenario the job exercises (e.g. `railcab-convoy`) — the
    /// [`JobRegistry`] dispatch key.
    pub scenario: String,
    /// The coordination pattern whose constraint is checked.
    pub pattern: String,
    /// The legacy-component variant under integration.
    pub variant: String,
    /// The seeded fault, if any (`None` = baseline run).
    pub fault: Option<String>,
    /// Iteration cap handed to the session.
    pub max_iterations: usize,
    /// Per-job wall-clock deadline (`None` = no deadline). Encoded on the
    /// wire in milliseconds (`deadline_ms`).
    pub deadline: Option<Duration>,
    /// Extra executions granted after a rig-attributed failure
    /// (`Error`/`Inconclusive` outcomes); `0` = single attempt.
    pub retries: usize,
    /// Simulated harness round-trip latency per component step/reset.
    /// Encoded on the wire in microseconds (`latency_us`).
    pub latency: Duration,
    /// Worker threads for frontier-probe batches (`1` = serial). Absent on
    /// the wire means serial.
    pub test_parallelism: usize,
}

impl JobRequest {
    /// A request with the given coordinates, no fault, a 10 000-iteration
    /// cap, no deadline, no retries, and zero harness latency.
    pub fn new(id: usize, name: impl Into<String>) -> Self {
        JobRequest {
            id,
            name: name.into(),
            scenario: String::new(),
            pattern: String::new(),
            variant: String::new(),
            fault: None,
            max_iterations: 10_000,
            deadline: None,
            retries: 0,
            latency: Duration::ZERO,
            test_parallelism: 1,
        }
    }

    /// Sets the scenario label.
    #[must_use]
    pub fn with_scenario(mut self, scenario: impl Into<String>) -> Self {
        self.scenario = scenario.into();
        self
    }

    /// Sets the pattern label.
    #[must_use]
    pub fn with_pattern(mut self, pattern: impl Into<String>) -> Self {
        self.pattern = pattern.into();
        self
    }

    /// Sets the component-variant label.
    #[must_use]
    pub fn with_variant(mut self, variant: impl Into<String>) -> Self {
        self.variant = variant.into();
        self
    }

    /// Sets the fault label.
    #[must_use]
    pub fn with_fault(mut self, fault: impl Into<String>) -> Self {
        self.fault = Some(fault.into());
        self
    }

    /// Sets the iteration cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: usize) -> Self {
        self.max_iterations = max_iterations;
        self
    }

    /// Sets the wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Grants extra executions after rig-attributed failures.
    #[must_use]
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }

    /// Sets the simulated harness round-trip latency.
    #[must_use]
    pub fn with_latency(mut self, latency: Duration) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the test-execution worker count (`1` = serial).
    #[must_use]
    pub fn with_test_parallelism(mut self, workers: usize) -> Self {
        self.test_parallelism = workers;
        self
    }
}

// The wire encoding: a versioned JSON object with every field explicit.
// Durations are integers (`deadline_ms`, `latency_us`) so the schema stays
// language-neutral. Requests from clients that predate `test_parallelism`
// decode to serial execution, and the `trace_cache` key older clients
// still send is ignored: the trace cache is always on.
muml_obs::json_codec! {
    impl ToJson + FromJson for JobRequest {
        "v" = JOB_REQUEST_VERSION;
        id: "id",
        name: "name",
        scenario: "scenario",
        pattern: "pattern",
        variant: "variant",
        fault: "fault" = None,
        max_iterations: "max_iterations",
        deadline: "deadline_ms" via (millis, from_millis) = None,
        retries: "retries",
        latency: "latency_us" via (micros, from_micros) = Duration::ZERO,
        test_parallelism: "test_parallelism" via (ToJson::to_json, workers) = 1,
    }
}

fn millis(deadline: &Option<Duration>) -> Json {
    deadline.map(|d| d.as_millis() as u64).to_json()
}

fn from_millis(json: &Json) -> Result<Option<Duration>, String> {
    Ok(Option::from_json(json)?.map(Duration::from_millis))
}

fn micros(latency: &Duration) -> Json {
    (latency.as_micros() as u64).to_json()
}

fn from_micros(json: &Json) -> Result<Duration, String> {
    u64::from_json(json).map(Duration::from_micros)
}

fn workers(json: &Json) -> Result<usize, String> {
    match usize::from_json(json)? {
        0 => Err("0 is out of range".to_owned()),
        n => Ok(n),
    }
}

/// Why a [`JobRequest`] could not be turned into a runnable [`Job`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ResolveError {
    /// No resolver is registered for the request's scenario.
    UnknownScenario {
        /// The unresolvable scenario label.
        scenario: String,
    },
    /// The scenario's resolver rejected the coordinates (unknown variant,
    /// unknown fault, wrong pattern, …).
    Invalid {
        /// What the resolver objected to.
        detail: String,
    },
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::UnknownScenario { scenario } => {
                write!(f, "no resolver registered for scenario `{scenario}`")
            }
            ResolveError::Invalid { detail } => write!(f, "invalid job request: {detail}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// A scenario resolver: turns declarative coordinates back into the work
/// closure that builds and runs the session. `Sync` because a daemon
/// resolves from many connection threads against one shared registry.
pub type JobResolver = Box<dyn Fn(&JobRequest) -> Result<JobWork, ResolveError> + Send + Sync>;

/// Maps scenario labels to [`JobResolver`]s.
///
/// The registry is the trust boundary of the job API: everything before it
/// is data that can be logged, persisted, or shipped over a socket;
/// everything after it is process-local executable state. Registering a
/// scenario twice replaces the earlier resolver.
#[derive(Default)]
pub struct JobRegistry {
    resolvers: BTreeMap<String, JobResolver>,
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        JobRegistry::default()
    }

    /// Registers (or replaces) the resolver for a scenario.
    pub fn register(
        &mut self,
        scenario: impl Into<String>,
        resolver: impl Fn(&JobRequest) -> Result<JobWork, ResolveError> + Send + Sync + 'static,
    ) {
        self.resolvers.insert(scenario.into(), Box::new(resolver));
    }

    /// The registered scenario labels, sorted.
    pub fn scenarios(&self) -> Vec<&str> {
        self.resolvers.keys().map(String::as_str).collect()
    }

    /// Resolves a request into a runnable [`Job`].
    ///
    /// # Errors
    ///
    /// [`ResolveError::UnknownScenario`] when no resolver matches;
    /// whatever the resolver itself rejects otherwise.
    pub fn resolve(&self, request: &JobRequest) -> Result<Job, ResolveError> {
        let resolver =
            self.resolvers
                .get(&request.scenario)
                .ok_or_else(|| ResolveError::UnknownScenario {
                    scenario: request.scenario.clone(),
                })?;
        let work = resolver(request)?;
        Ok(Job {
            request: request.clone(),
            work,
        })
    }
}

impl fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobRegistry")
            .field("scenarios", &self.scenarios())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_core::{IntegrationReport, IntegrationStats, IntegrationVerdict};

    fn sample() -> JobRequest {
        JobRequest::new(3, "faulty/drop[x]")
            .with_scenario("railcab-convoy")
            .with_pattern("DistanceCoordination")
            .with_variant("faulty")
            .with_fault("drop[x]")
            .with_max_iterations(64)
            .with_deadline(Duration::from_secs(5))
            .with_retries(2)
            .with_latency(Duration::from_micros(500))
            .with_test_parallelism(4)
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let request = sample();
        let decoded = JobRequest::from_json(&request.to_json()).unwrap();
        assert_eq!(decoded, request);
        // Baseline requests (no fault, no deadline) round-trip too.
        let baseline = JobRequest::new(0, "correct/baseline").with_scenario("s");
        assert_eq!(
            JobRequest::from_json(&baseline.to_json()).unwrap(),
            baseline
        );
        // Requests from clients that predate `test_parallelism` decode to
        // serial execution; the `trace_cache` key older clients send is
        // ignored.
        let legacy_fields = match sample().to_json() {
            Json::Object(fields) => fields
                .into_iter()
                .filter(|(k, _)| k != "test_parallelism")
                .chain([("trace_cache".to_owned(), Json::Bool(false))])
                .collect(),
            _ => unreachable!(),
        };
        let decoded = JobRequest::from_json(&Json::Object(legacy_fields)).unwrap();
        assert_eq!(decoded, sample().with_test_parallelism(1));
    }

    #[test]
    fn from_json_rejects_bad_shapes() {
        let missing_version = Json::Object(vec![("id".into(), Json::Int(0))]);
        assert_eq!(
            JobRequest::from_json(&missing_version).unwrap_err(),
            "missing `v`"
        );
        let mut fields = match sample().to_json() {
            Json::Object(fields) => fields,
            _ => unreachable!(),
        };
        for (key, value) in fields.iter_mut() {
            if key == "v" {
                *value = Json::Int(99);
            }
        }
        let err = JobRequest::from_json(&Json::Object(fields)).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        let negative_deadline = {
            let mut fields = match sample().to_json() {
                Json::Object(fields) => fields,
                _ => unreachable!(),
            };
            for (key, value) in fields.iter_mut() {
                if key == "deadline_ms" {
                    *value = Json::Int(-1);
                }
            }
            Json::Object(fields)
        };
        assert!(JobRequest::from_json(&negative_deadline).is_err());
        let no_workers = sample().with_test_parallelism(0).to_json();
        assert_eq!(
            JobRequest::from_json(&no_workers).unwrap_err(),
            "`test_parallelism`: 0 is out of range"
        );
    }

    #[test]
    fn registry_resolves_known_scenarios_and_rejects_unknown_ones() {
        let mut registry = JobRegistry::new();
        registry.register("noop", |request| {
            if request.variant == "broken" {
                return Err(ResolveError::Invalid {
                    detail: "variant `broken` does not exist".into(),
                });
            }
            Ok(Box::new(|_ctx| {
                Ok(IntegrationReport {
                    verdict: IntegrationVerdict::Proven,
                    iterations: Vec::new(),
                    learned: Vec::new(),
                    stats: IntegrationStats::default(),
                })
            }))
        });
        assert_eq!(registry.scenarios(), ["noop"]);

        let job = registry
            .resolve(&JobRequest::new(0, "ok").with_scenario("noop"))
            .unwrap();
        assert_eq!(job.request.name, "ok");

        let unknown = registry
            .resolve(&JobRequest::new(1, "x").with_scenario("nope"))
            .unwrap_err();
        assert!(matches!(unknown, ResolveError::UnknownScenario { .. }));
        assert!(unknown.to_string().contains("nope"));

        let invalid = registry
            .resolve(
                &JobRequest::new(2, "bad")
                    .with_scenario("noop")
                    .with_variant("broken"),
            )
            .unwrap_err();
        assert!(matches!(invalid, ResolveError::Invalid { .. }));
    }
}
