//! Built-in scenario resolvers.
//!
//! The daemon side of the wire split: a client ships a pure-data
//! [`JobRequest`], and the registry built here re-attaches the executable
//! half — building the universe, context automaton, and (possibly
//! fault-injected) legacy component *inside the worker thread*, exactly as
//! `muml_bench::campaign` used to do inline. Resolution validates the
//! request's coordinates (variant, fault, pattern) upfront, so a bad
//! request is a typed rejection at submit time, not a worker panic at run
//! time.

use muml_automata::Universe;
use muml_core::store::ComponentSignature;
use muml_core::{IntegrationConfig, IntegrationSession, LegacyUnit};
use muml_fleet::{JobRegistry, JobRequest, JobWork, ResolveError};
use muml_legacy::{fault_matrix, inject, LatentComponent};
use muml_railcab::{front_context, shuttle_variants};

/// Scenario label of the RailCab convoy-coordination campaign.
pub const RAILCAB_SCENARIO: &str = "railcab-convoy";
/// Pattern label of the RailCab campaign.
pub const RAILCAB_PATTERN: &str = "DistanceCoordination";

/// A registry with every built-in scenario registered (currently the
/// RailCab convoy scenario under [`RAILCAB_SCENARIO`]).
pub fn railcab_registry() -> JobRegistry {
    let mut registry = JobRegistry::new();
    registry.register(RAILCAB_SCENARIO, resolve_railcab);
    registry
}

fn resolve_railcab(request: &JobRequest) -> Result<JobWork, ResolveError> {
    if !request.pattern.is_empty() && request.pattern != RAILCAB_PATTERN {
        return Err(ResolveError::Invalid {
            detail: format!(
                "scenario `{RAILCAB_SCENARIO}` checks pattern `{RAILCAB_PATTERN}`, \
                 not `{}`",
                request.pattern
            ),
        });
    }
    let variant = *shuttle_variants()
        .iter()
        .find(|v| v.name == request.variant)
        .ok_or_else(|| ResolveError::Invalid {
            detail: format!("unknown shuttle variant `{}`", request.variant),
        })?;
    // Faults carry state/signal *names*, so one resolved against a
    // throwaway universe re-resolves cleanly inside the worker's own.
    let fault = match &request.fault {
        None => None,
        Some(name) => {
            let u = Universe::new();
            let matrix = fault_matrix(&(variant.build)(&u), &u);
            Some(
                matrix
                    .into_iter()
                    .find(|f| f.describe() == *name)
                    .ok_or_else(|| ResolveError::Invalid {
                        detail: format!("unknown fault `{name}` for variant `{}`", request.variant),
                    })?,
            )
        }
    };
    let latency = request.latency;
    let max_iterations = request.max_iterations;
    let test_parallelism = request.test_parallelism;
    let build = variant.build;
    Ok(Box::new(move |ctx| {
        let u = Universe::new();
        let context = front_context(&u);
        let mut shuttle = build(&u);
        if let Some(f) = &fault {
            inject(&mut shuttle, &u, f)?;
        }
        // Signed *after* fault injection: the fingerprint keys the actual
        // rule set under test, so each fault cell gets its own snapshot.
        let signature = ComponentSignature::of_component(&shuttle, &u);
        let mut component = LatentComponent::new(shuttle, latency);
        let mut loop_sink = ctx.loop_sink.clone();
        let mut config = IntegrationConfig::default()
            .with_max_iterations(max_iterations)
            .with_test_parallelism(test_parallelism);
        let mut unit = LegacyUnit::new(&mut component, muml_railcab::scenario::rear_port_map(&u));
        if let Some(store) = &ctx.store {
            config = config.with_shared_store(std::sync::Arc::clone(store));
            unit = unit.with_signature(signature);
        }
        let mut session = IntegrationSession::new(&u, &context)
            .formula(muml_railcab::scenario::pattern_constraint(&u))
            .unit(unit)
            .config(config)
            .cancel_token(ctx.cancel.clone());
        if let Some(sink) = loop_sink.as_mut() {
            session = session.sink(sink);
        }
        session.run()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_fleet::JobContext;
    use std::time::Duration;

    fn baseline(variant: &str) -> JobRequest {
        JobRequest::new(0, format!("{variant}/baseline"))
            .with_scenario(RAILCAB_SCENARIO)
            .with_pattern(RAILCAB_PATTERN)
            .with_variant(variant)
            .with_max_iterations(10_000)
            .with_latency(Duration::ZERO)
    }

    #[test]
    fn resolves_and_runs_a_baseline_request() {
        let registry = railcab_registry();
        assert_eq!(registry.scenarios(), [RAILCAB_SCENARIO]);
        let job = registry.resolve(&baseline("correct")).unwrap();
        let report = (job.work)(&JobContext::default()).unwrap();
        assert!(matches!(
            report.verdict,
            muml_core::IntegrationVerdict::Proven
        ));
    }

    #[test]
    fn test_parallelism_threads_through_to_the_probe_pool() {
        let registry = railcab_registry();
        let run = |workers: usize| {
            let job = registry
                .resolve(&baseline("correct").with_test_parallelism(workers))
                .unwrap();
            (job.work)(&JobContext::default()).unwrap()
        };
        let (serial, pooled) = (run(1), run(4));
        for report in [&serial, &pooled] {
            assert!(matches!(
                report.verdict,
                muml_core::IntegrationVerdict::Proven
            ));
        }
        assert_eq!(serial.stats.parallel_batches, 0);
        assert!(
            pooled.stats.parallel_batches > 0,
            "four workers must reach the probe pool"
        );
        assert_eq!(pooled.stats.driven_steps, serial.stats.driven_steps);
    }

    #[test]
    fn rejects_unknown_coordinates_with_typed_errors() {
        let registry = railcab_registry();
        let bad_variant = registry.resolve(&baseline("hovercraft")).unwrap_err();
        assert!(matches!(bad_variant, ResolveError::Invalid { .. }));
        assert!(bad_variant.to_string().contains("hovercraft"));

        let bad_fault = registry
            .resolve(&baseline("correct").with_fault("melt[reactor]"))
            .unwrap_err();
        assert!(bad_fault.to_string().contains("melt[reactor]"));

        let bad_pattern = registry
            .resolve(&baseline("correct").with_pattern("Telephone"))
            .unwrap_err();
        assert!(bad_pattern.to_string().contains("Telephone"));

        let bad_scenario = registry
            .resolve(&baseline("correct").with_scenario("warehouse"))
            .unwrap_err();
        assert!(matches!(bad_scenario, ResolveError::UnknownScenario { .. }));
    }

    #[test]
    fn known_faults_resolve() {
        let u = Universe::new();
        let variant = shuttle_variants()
            .iter()
            .find(|v| v.name == "correct")
            .unwrap();
        let faults = fault_matrix(&(variant.build)(&u), &u);
        assert!(!faults.is_empty());
        let registry = railcab_registry();
        let request = baseline("correct").with_fault(faults[0].describe());
        registry.resolve(&request).unwrap();
    }
}
