//! Probe benchmark: the prefix-sharing trace cache and its pooled frontier
//! probes, on frontier-heavy counter workloads and the RailCab `correct`
//! baseline, with simulated harness latency.
//!
//! Each cell runs the identical integration twice, on one probe worker and
//! on four. The benchmark *hard-asserts* that both runs agree on the
//! verdict, on the final learned models (snapshot-for-snapshot), on the
//! tests run and on the rig steps driven — the pool only decides where a
//! probe batch's steps run — and that the RailCab cell really sends a
//! batch to the pool. Across the campaign the cache must drive the rig
//! through at most half of its serial counterfactual: the steps it drove
//! plus the steps it saved, which is what the serial executor
//! (`execute_with_retry_on`: a record drive and a replay from reset per
//! attempt) would have driven for the same tests. The per-step
//! [`LatentComponent`] latency weights the
//! wall-clock numbers the way a real test rig would.

use std::time::{Duration, Instant};

use muml_automata::{IncompleteSnapshot, Universe};
use muml_core::{verify_integration, IntegrationConfig, IntegrationReport, LegacyUnit};
use muml_legacy::{LatentComponent, PortMap};
use muml_railcab::{correct_shuttle, front_context, scenario};

use crate::envelope::Cell;
use crate::workload::{counter_workload, seed_fault};

/// The probe pool width the pooled run uses.
const WORKERS: usize = 4;

/// One campaign workload.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// An `n`-state counter driven by `k` pushes, optionally fault-seeded.
    Counter {
        n: usize,
        k: usize,
        fault_depth: Option<usize>,
    },
    /// The correct RailCab rear shuttle against the front context.
    RailcabCorrect,
}

const CELLS: [(&str, Workload); 5] = [
    (
        "counter-n10-k8/correct",
        Workload::Counter {
            n: 10,
            k: 8,
            fault_depth: None,
        },
    ),
    (
        "counter-n12-k10/correct",
        Workload::Counter {
            n: 12,
            k: 10,
            fault_depth: None,
        },
    ),
    (
        "counter-n12-k10/early-top[6]",
        Workload::Counter {
            n: 12,
            k: 10,
            fault_depth: Some(6),
        },
    ),
    (
        "counter-n8-k6/early-top[3]",
        Workload::Counter {
            n: 8,
            k: 6,
            fault_depth: Some(3),
        },
    ),
    ("railcab/correct", Workload::RailcabCorrect),
];

impl Workload {
    /// Runs the integration on a rig with `latency` per step and
    /// `workers` probe workers.
    fn run(self, latency: Duration, workers: usize) -> IntegrationReport {
        let config = IntegrationConfig::default().with_test_parallelism(workers);
        match self {
            Workload::Counter { n, k, fault_depth } => {
                let mut w = counter_workload(n, k);
                if let Some(d) = fault_depth {
                    seed_fault(&mut w, d);
                }
                let mut component = LatentComponent::new(w.component, latency);
                let mut units = [LegacyUnit::new(
                    &mut component,
                    PortMap::with_default("port"),
                )];
                verify_integration(&w.universe, &w.context, &[], &mut units, &config)
            }
            Workload::RailcabCorrect => {
                let u = Universe::new();
                let context = front_context(&u);
                let props = [scenario::pattern_constraint(&u)];
                let mut component = LatentComponent::new(correct_shuttle(&u), latency);
                let mut units = [LegacyUnit::new(&mut component, scenario::rear_port_map(&u))];
                verify_integration(&u, &context, &props, &mut units, &config)
            }
        }
        .expect("integration terminates")
    }
}

/// One cell of the campaign.
#[derive(Debug, Clone)]
pub struct ProbeJobRow {
    /// Cell name (`workload/fault`).
    pub name: String,
    /// The (identical) verdict of both runs.
    pub outcome: String,
    /// Rig steps driven (equal on one and four workers).
    pub driven: usize,
    /// Test executions (equal on one and four workers).
    pub tests: usize,
    /// Full trace-cache hits.
    pub cache_hits: usize,
    /// Rig steps the cache saved versus its serial counterfactual.
    pub cache_saved: usize,
    /// Probe batches the four-worker run sent to the pool.
    pub parallel_batches: usize,
    /// Counterexample tests skipped by the dedup guard.
    pub dedup_skipped: usize,
}

/// Aggregated result of [`probe_campaign`].
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// Per-cell rows, in campaign order.
    pub jobs: Vec<ProbeJobRow>,
    /// Simulated per-step rig latency, in microseconds.
    pub latency_us: u64,
    /// Total rig steps driven.
    pub driven: usize,
    /// Total serial counterfactual: the steps driven plus the steps saved.
    pub counterfactual: usize,
    /// Wall-clock nanoseconds of the one-worker runs.
    pub serial_nanos: u64,
    /// Wall-clock nanoseconds of the four-worker runs.
    pub pooled_nanos: u64,
}

fn snapshots(report: &IntegrationReport) -> Vec<IncompleteSnapshot> {
    report.learned.iter().map(|m| m.to_snapshot()).collect()
}

/// Runs the campaign on one and on four workers and asserts identical
/// verdicts, learned models, tests and driven steps, a pooled batch on the
/// RailCab cell, and the ≥2× saving against the serial counterfactual.
pub fn probe_campaign(latency: Duration) -> ProbeReport {
    let mut jobs = Vec::with_capacity(CELLS.len());
    let mut serial_nanos = 0u64;
    let mut pooled_nanos = 0u64;

    for (name, workload) in CELLS {
        let t = Instant::now();
        let serial = workload.run(latency, 1);
        serial_nanos += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let pooled = workload.run(latency, WORKERS);
        pooled_nanos += t.elapsed().as_nanos() as u64;

        // The pool only decides where a probe batch's steps run: never
        // which verdict is reached, what is learned, or how much rig work
        // it takes.
        assert_eq!(
            format!("{:?}", pooled.verdict),
            format!("{:?}", serial.verdict),
            "{name}: one and {WORKERS} workers must agree on the verdict"
        );
        assert_eq!(
            snapshots(&pooled),
            snapshots(&serial),
            "{name}: one and {WORKERS} workers must learn identical models"
        );
        let work = |r: &IntegrationReport| (r.stats.tests_executed, r.stats.driven_steps);
        assert_eq!(
            work(&pooled),
            work(&serial),
            "{name}: one and {WORKERS} workers must run the same tests and rig steps"
        );
        assert_eq!(serial.stats.parallel_batches, 0, "{name}");
        assert!(
            pooled.stats.trace_cache_hits > 0,
            "{name}: the frontier-heavy workload must actually exercise the cache"
        );
        if matches!(workload, Workload::RailcabCorrect) {
            assert!(
                pooled.stats.parallel_batches > 0,
                "{name}: {WORKERS} workers must reach the probe pool"
            );
        }

        jobs.push(ProbeJobRow {
            name: name.to_owned(),
            outcome: format!("{:?}", pooled.verdict)
                .split([' ', '{'])
                .next()
                .unwrap_or("unknown")
                .to_owned(),
            driven: pooled.stats.driven_steps,
            tests: pooled.stats.tests_executed,
            cache_hits: pooled.stats.trace_cache_hits,
            cache_saved: pooled.stats.trace_cache_saved_steps,
            parallel_batches: pooled.stats.parallel_batches,
            dedup_skipped: pooled.stats.dedup_skipped,
        });
    }

    let driven = jobs.iter().map(|j| j.driven).sum();
    let counterfactual = jobs.iter().map(|j| j.driven + j.cache_saved).sum();
    let report = ProbeReport {
        jobs,
        latency_us: latency.as_micros() as u64,
        driven,
        counterfactual,
        serial_nanos,
        pooled_nanos,
    };
    assert!(
        report.driven * 2 <= report.counterfactual,
        "trace cache must halve the driven rig steps (counterfactual {} vs driven {})",
        report.counterfactual,
        report.driven
    );
    report
}

impl ProbeReport {
    /// The `repro probe` envelope cells: a `total` cell with both runs'
    /// wall times, then one cell per campaign cell.
    pub fn cells(&self) -> Vec<Cell> {
        // Reaching this point means every hard assertion held: identical
        // verdicts and learned models on one and four workers, ≥2× fewer
        // driven steps than the serial counterfactual.
        let mut cells = vec![Cell::new("total")
            .counter("verdicts_identical", true)
            .counter("learned_identical", true)
            .counter("latency_us", self.latency_us)
            .counter("counterfactual", self.counterfactual)
            .counter("driven", self.driven)
            .wall("serial", self.serial_nanos)
            .wall("pooled", self.pooled_nanos)];
        cells.extend(self.jobs.iter().map(|j| {
            Cell::new(j.name.as_str())
                .counter("outcome", j.outcome.as_str())
                .counter("driven", j.driven)
                .counter("tests", j.tests)
                .counter("cache_hits", j.cache_hits)
                .counter("cache_saved", j.cache_saved)
                .counter("parallel_batches", j.parallel_batches)
                .counter("dedup_skipped", j.dedup_skipped)
        }));
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_campaign_halves_the_rig_work() {
        // The hard assertions (agreement across pool widths, the pooled
        // RailCab batch, ≥2× step reduction) live inside probe_campaign;
        // completing is the test. Zero latency keeps the suite fast.
        let report = probe_campaign(Duration::ZERO);
        assert_eq!(report.jobs.len(), CELLS.len());
        assert!(report.driven * 2 <= report.counterfactual);
        assert!(report
            .jobs
            .iter()
            .any(|j| j.dedup_skipped > 0 || j.cache_hits > 0));
        assert_eq!(report.cells().len(), 1 + report.jobs.len());
    }
}
