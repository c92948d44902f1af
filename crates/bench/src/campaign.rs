//! Campaign workload generation: expand the RailCab scenario into a fleet
//! of integration jobs.
//!
//! The campaign matrix is *variants × faults*: every rear-shuttle variant
//! ([`muml_railcab::shuttle_variants`]) contributes one baseline job plus
//! one job per seeded fault of its deterministic fault matrix
//! ([`muml_legacy::fault_matrix`]). Job ids are assigned here, at
//! generation time, in matrix order — the anchor of the fleet's
//! determinism argument (DESIGN.md §11): however jobs are later shuffled or
//! sharded, the aggregated report is keyed and sorted by these ids.
//!
//! Since the `muml-serve` wire split, generation produces pure-data
//! [`JobRequest`]s ([`railcab_requests`]): the same values can be shipped
//! to a daemon over the wire, run in-process, or tabulated as campaign
//! cells. [`railcab_campaign`] is the in-process convenience that resolves
//! them through [`muml_serve::railcab_registry`] into executable
//! [`Job`]s — the identical resolver the daemon uses, so a wire campaign
//! and a local campaign agree job-for-job.
//!
//! Each job wraps its component in a
//! [`LatentComponent`](muml_legacy::LatentComponent) modelling test-rig
//! round-trip latency, which is what makes the campaign worth sharding:
//! jobs are harness-bound, so a worker pool overlaps their blocked time
//! even on a single CPU.

use std::time::Duration;

use muml_automata::Universe;
use muml_fleet::{Job, JobRequest};
use muml_legacy::{fault_matrix, Fault};
use muml_railcab::{shuttle_variants, ShuttleVariant};
use muml_serve::railcab_registry;

/// Scenario label of the RailCab campaign (the daemon registry's name
/// for it).
pub const SCENARIO: &str = muml_serve::RAILCAB_SCENARIO;
/// Pattern label of the RailCab campaign.
pub const PATTERN: &str = muml_serve::RAILCAB_PATTERN;

/// Knobs of the campaign generator.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Simulated harness round-trip latency per component step/reset.
    pub latency: Duration,
    /// Iteration cap per job.
    pub max_iterations: usize,
    /// Per-job wall-clock deadline (`None` = no deadline).
    pub deadline: Option<Duration>,
    /// Cap on the number of generated jobs (`None` = full matrix). The cap
    /// truncates the deterministic enumeration, so capped campaigns are
    /// prefixes of the full one.
    pub max_jobs: Option<usize>,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            latency: Duration::from_micros(500),
            max_iterations: 10_000,
            deadline: Some(Duration::from_secs(60)),
            max_jobs: None,
        }
    }
}

/// Expands the RailCab scenario into the variants × faults request
/// matrix — pure data, ready for `run_fleet` (via [`railcab_campaign`])
/// or a `muml-serve` daemon (verbatim, over the wire).
pub fn railcab_requests(options: &CampaignOptions) -> Vec<JobRequest> {
    let mut requests = Vec::new();
    // Fault matrices are enumerated against a throwaway universe; faults
    // carry state/signal *names*, so they re-resolve cleanly against each
    // job's own universe inside the worker.
    let u = Universe::new();
    for variant in shuttle_variants() {
        push_request(&mut requests, *variant, None, options);
        for fault in fault_matrix(&(variant.build)(&u), &u) {
            push_request(&mut requests, *variant, Some(&fault), options);
        }
    }
    if let Some(cap) = options.max_jobs {
        requests.truncate(cap);
    }
    requests
}

/// Expands the RailCab scenario into executable jobs by resolving
/// [`railcab_requests`] through the daemon's own scenario registry.
pub fn railcab_campaign(options: &CampaignOptions) -> Vec<Job> {
    let registry = railcab_registry();
    railcab_requests(options)
        .into_iter()
        .map(|request| {
            registry
                .resolve(&request)
                .expect("generated requests always resolve")
        })
        .collect()
}

fn push_request(
    requests: &mut Vec<JobRequest>,
    variant: ShuttleVariant,
    fault: Option<&Fault>,
    options: &CampaignOptions,
) {
    let id = requests.len();
    let fault_name = fault.map(Fault::describe);
    let name = match &fault_name {
        Some(f) => format!("{}/{f}", variant.name),
        None => format!("{}/baseline", variant.name),
    };
    let mut request = JobRequest::new(id, name)
        .with_scenario(SCENARIO)
        .with_pattern(PATTERN)
        .with_variant(variant.name)
        .with_max_iterations(options.max_iterations)
        .with_latency(options.latency);
    if let Some(f) = fault_name {
        request = request.with_fault(f);
    }
    if let Some(deadline) = options.deadline {
        request = request.with_deadline(deadline);
    }
    requests.push(request);
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_obs::json::{FromJson, ToJson};

    #[test]
    fn campaign_enumeration_is_deterministic() {
        let options = CampaignOptions::default();
        let a = railcab_requests(&options);
        let b = railcab_requests(&options);
        assert!(a.len() >= 24, "expected dozens of jobs, got {}", a.len());
        assert_eq!(a, b);
        assert_eq!(a[0].name, "correct/baseline");
        assert!(a.iter().enumerate().all(|(i, r)| r.id == i));
        // Requests survive the wire encoding unchanged.
        for request in &a {
            assert_eq!(JobRequest::from_json(&request.to_json()).unwrap(), *request);
        }
        // Capped campaigns are prefixes.
        let capped = railcab_requests(&CampaignOptions {
            max_jobs: Some(5),
            ..options.clone()
        });
        assert_eq!(capped.len(), 5);
        assert_eq!(capped[4], a[4]);
        // Resolution keeps the request intact and covers the matrix.
        let jobs = railcab_campaign(&options);
        assert_eq!(jobs.len(), a.len());
        for (job, request) in jobs.iter().zip(&a) {
            assert_eq!(job.request, *request);
        }
    }

    #[test]
    fn baseline_jobs_reach_the_expected_verdicts() {
        use muml_fleet::JobOutcome;
        use muml_serve::{run_fleet, ServeConfig};
        let options = CampaignOptions {
            latency: Duration::ZERO,
            max_jobs: None,
            ..CampaignOptions::default()
        };
        let registry = railcab_registry();
        let baselines: Vec<Job> = railcab_requests(&options)
            .into_iter()
            .filter(|r| r.fault.is_none())
            .map(|r| registry.resolve(&r).unwrap())
            .collect();
        assert_eq!(baselines.len(), 3);
        let report = run_fleet(baselines, &ServeConfig::default().with_workers(2));
        for (result, variant) in report.results.iter().zip(shuttle_variants()) {
            assert_eq!(result.request.variant, variant.name);
            if variant.proven_when_unmodified {
                assert_eq!(
                    result.outcome,
                    JobOutcome::Proven,
                    "{}",
                    result.request.name
                );
            } else {
                assert!(
                    matches!(result.outcome, JobOutcome::RealFault { .. }),
                    "{}: {:?}",
                    result.request.name,
                    result.outcome
                );
            }
        }
    }
}
