//! Warm-start benchmark: the RailCab campaign against a content-addressed
//! store, twice.
//!
//! Three runs of the identical variants × faults matrix:
//!
//! 1. **baseline** — store disabled, the reference verdicts;
//! 2. **run 1** — store attached (normally empty): every cell misses, runs
//!    cold, and persists its final learned model;
//! 3. **run 2** — same store: every cell seeds from its snapshot.
//!
//! The benchmark *hard-asserts* that all three runs agree verdict-for-
//! verdict (the store is a pure accelerator — a snapshot may only change
//! how fast a verdict is reached, never which one), and that run 2 drives
//! the rig through at most half of run 1's steps when the store started
//! empty. When the store was pre-warmed (run 1 already hit), the step
//! reduction is not comparable and only the verdict identity is checked —
//! which is exactly the cache-poisoning guard a CI re-run wants.

use std::path::Path;

use muml_fleet::{FleetReport, JobOutcome};
use muml_serve::{run_fleet, ServeConfig};

use crate::campaign::{railcab_campaign, CampaignOptions};
use crate::envelope::Cell;

/// One campaign cell across the three runs.
#[derive(Debug, Clone)]
pub struct WarmJobRow {
    /// Job name (`variant/fault` or `variant/baseline`).
    pub name: String,
    /// The (identical) outcome name of all three runs.
    pub outcome: String,
    /// Rig steps the cell drove in run 1 (cold).
    pub driven_cold: usize,
    /// Rig steps the cell drove in run 2 (seeded).
    pub driven_warm: usize,
    /// Test executions (membership queries) of run 1.
    pub tests_cold: usize,
    /// Test executions of run 2.
    pub tests_warm: usize,
}

/// Aggregated result of [`warm_campaign`].
#[derive(Debug, Clone)]
pub struct WarmReport {
    /// Per-cell rows, in job-id order.
    pub jobs: Vec<WarmJobRow>,
    /// Whether the store already held snapshots before run 1 (a CI re-run
    /// against a cached store); suspends the step-reduction assertion.
    pub store_prewarmed: bool,
    /// Total rig steps of the store-disabled baseline.
    pub baseline_driven: usize,
    /// Total rig steps of run 1.
    pub run1_driven: usize,
    /// Total rig steps of run 2.
    pub run2_driven: usize,
    /// Total test executions of run 1.
    pub run1_tests: usize,
    /// Total test executions of run 2.
    pub run2_tests: usize,
}

fn outcomes(report: &FleetReport) -> Vec<(usize, JobOutcome)> {
    report
        .results
        .iter()
        .map(|r| (r.request.id, r.outcome.clone()))
        .collect()
}

/// Whether `dir` already holds at least one snapshot (any `*.json` beside
/// the index).
fn has_snapshots(dir: &Path) -> bool {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return false;
    };
    entries.filter_map(Result::ok).any(|e| {
        let path = e.path();
        path.extension().is_some_and(|x| x == "json")
            && path.file_name().is_some_and(|n| n != "index.json")
    })
}

/// Runs the three-way campaign against the store rooted at `store_dir` and
/// asserts verdict identity (always) and the ≥2× driven-step reduction
/// (when the store started empty).
pub fn warm_campaign(store_dir: &Path) -> WarmReport {
    let options = CampaignOptions {
        latency: std::time::Duration::ZERO,
        ..CampaignOptions::default()
    };
    let store_prewarmed = has_snapshots(store_dir);

    let run =
        |config: ServeConfig| -> FleetReport { run_fleet(railcab_campaign(&options), &config) };
    let baseline = run(ServeConfig::default().with_workers(4));
    let run1 = run(ServeConfig::default().with_workers(4).with_store(store_dir));
    let run2 = run(ServeConfig::default().with_workers(4).with_store(store_dir));

    assert_eq!(
        outcomes(&run1),
        outcomes(&baseline),
        "store-backed run 1 must reproduce the store-disabled verdicts"
    );
    assert_eq!(
        outcomes(&run2),
        outcomes(&baseline),
        "seeded run 2 must reproduce the store-disabled verdicts"
    );

    let driven =
        |r: &FleetReport| -> usize { r.results.iter().map(|j| j.stats.driven_steps).sum() };
    let tests =
        |r: &FleetReport| -> usize { r.results.iter().map(|j| j.stats.tests_executed).sum() };
    let report = WarmReport {
        jobs: run1
            .results
            .iter()
            .zip(&run2.results)
            .map(|(cold, warm)| WarmJobRow {
                name: cold.request.name.clone(),
                outcome: cold.outcome.name().to_owned(),
                driven_cold: cold.stats.driven_steps,
                driven_warm: warm.stats.driven_steps,
                tests_cold: cold.stats.tests_executed,
                tests_warm: warm.stats.tests_executed,
            })
            .collect(),
        store_prewarmed,
        baseline_driven: driven(&baseline),
        run1_driven: driven(&run1),
        run2_driven: driven(&run2),
        run1_tests: tests(&run1),
        run2_tests: tests(&run2),
    };
    if !store_prewarmed {
        assert!(
            report.run2_driven * 2 <= report.run1_driven,
            "seeded run must drive at most half the cold run's rig steps \
             (cold {} vs warm {})",
            report.run1_driven,
            report.run2_driven
        );
    }
    report
}

impl WarmReport {
    /// Fraction of run 1's driven steps that run 2 avoided.
    pub fn driven_reduction(&self) -> f64 {
        if self.run1_driven == 0 {
            return 0.0;
        }
        1.0 - self.run2_driven as f64 / self.run1_driven as f64
    }

    /// Fraction of run 1's test executions that run 2 avoided.
    pub fn test_reduction(&self) -> f64 {
        if self.run1_tests == 0 {
            return 0.0;
        }
        1.0 - self.run2_tests as f64 / self.run1_tests as f64
    }

    /// The `repro warm` envelope cells: a `total` cell, then one per
    /// campaign job. Run 1's figures are `varying`: worker interleaving
    /// decides which of two cells with the same component fingerprint
    /// persists its snapshot first. The baseline and run 2 are stable.
    pub fn cells(&self) -> Vec<Cell> {
        // Reaching this point means every hard assertion held.
        let mut cells = vec![Cell::new("total")
            .counter("verdicts_identical", true)
            .counter("store_prewarmed", self.store_prewarmed)
            .counter("baseline_driven", self.baseline_driven)
            .counter("run2_driven", self.run2_driven)
            .counter("run2_tests", self.run2_tests)
            .varying("run1_driven", self.run1_driven)
            .varying("run1_tests", self.run1_tests)];
        cells.extend(self.jobs.iter().map(|j| {
            Cell::new(j.name.as_str())
                .counter("outcome", j.outcome.as_str())
                .counter("driven_warm", j.driven_warm)
                .counter("tests_warm", j.tests_warm)
                .varying("driven_cold", j.driven_cold)
                .varying("tests_cold", j.tests_cold)
        }));
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_testkit::TempDir;

    #[test]
    fn warm_campaign_halves_the_rig_work() {
        let dir = TempDir::new("warm-bench");
        // The assertions (verdict identity, ≥2× step reduction) live
        // inside warm_campaign; completing is the test.
        let report = warm_campaign(dir.path());
        assert!(!report.store_prewarmed);
        assert!(!report.jobs.is_empty());
        assert!(report.driven_reduction() >= 0.5);
        // A second invocation sees the warmed store and still agrees.
        let again = warm_campaign(dir.path());
        assert!(again.store_prewarmed);
    }
}
