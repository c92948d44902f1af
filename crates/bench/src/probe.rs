//! Probe benchmark: the prefix-sharing trace cache and parallel frontier
//! probes against the uncached serial executor, on frontier-heavy counter
//! workloads with simulated harness latency.
//!
//! Each cell runs the identical integration twice:
//!
//! 1. **serial** — trace cache disabled, one worker: every counterexample
//!    test and frontier probe re-drives the rig from reset (the
//!    `3·(|w|+1)` record/replay cost per word);
//! 2. **cached** — trace cache enabled, four workers: repeated words are
//!    served from the trie, frontier probes resume from the checkpoint at
//!    the end of the shared prefix, and batches run on cloned rigs.
//!
//! The benchmark *hard-asserts* that both runs agree on the verdict and on
//! the final learned models (snapshot-for-snapshot — the cache is a pure
//! accelerator), and that the cached run drives the rig through at most
//! half of the serial run's steps across the campaign. The per-step
//! [`LatentComponent`](muml_legacy::LatentComponent) latency weights the
//! wall-clock numbers the way a real test rig would: with a slow rig, the
//! saved steps dominate the run time.

use std::time::{Duration, Instant};

use muml_automata::IncompleteSnapshot;
use muml_core::{verify_integration, IntegrationConfig, IntegrationReport, LegacyUnit};
use muml_legacy::{LatentComponent, PortMap};

use crate::envelope::Cell;
use crate::workload::{counter_workload, seed_fault};

/// One campaign cell: a counter workload, optionally fault-seeded.
#[derive(Debug, Clone, Copy)]
struct ProbeCell {
    name: &'static str,
    n: usize,
    k: usize,
    fault_depth: Option<usize>,
}

const CELLS: [ProbeCell; 4] = [
    ProbeCell {
        name: "counter-n10-k8/correct",
        n: 10,
        k: 8,
        fault_depth: None,
    },
    ProbeCell {
        name: "counter-n12-k10/correct",
        n: 12,
        k: 10,
        fault_depth: None,
    },
    ProbeCell {
        name: "counter-n12-k10/early-top[6]",
        n: 12,
        k: 10,
        fault_depth: Some(6),
    },
    ProbeCell {
        name: "counter-n8-k6/early-top[3]",
        n: 8,
        k: 6,
        fault_depth: Some(3),
    },
];

/// One cell across the two runs.
#[derive(Debug, Clone)]
pub struct ProbeJobRow {
    /// Cell name (`workload/fault`).
    pub name: String,
    /// The (identical) verdict of both runs.
    pub outcome: String,
    /// Rig steps the serial run drove.
    pub driven_serial: usize,
    /// Rig steps the cached run drove.
    pub driven_cached: usize,
    /// Test executions of the serial run.
    pub tests_serial: usize,
    /// Test executions of the cached run.
    pub tests_cached: usize,
    /// Full trace-cache hits of the cached run.
    pub cache_hits: usize,
    /// Rig steps the cache saved versus its serial counterfactual.
    pub cache_saved: usize,
    /// Pooled probe/quorum batches of the cached run.
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
    /// Total rig steps of the serial runs.
    pub serial_driven: usize,
    /// Total rig steps of the cached runs.
    pub cached_driven: usize,
    /// Wall-clock nanoseconds of the serial runs.
    pub serial_nanos: u64,
    /// Wall-clock nanoseconds of the cached runs.
    pub cached_nanos: u64,
}

fn snapshots(report: &IntegrationReport) -> Vec<IncompleteSnapshot> {
    report.learned.iter().map(|m| m.to_snapshot()).collect()
}

/// Runs the two-way campaign and asserts verdict identity, learned-model
/// identity, and the ≥2× driven-step reduction.
pub fn probe_campaign(latency: Duration) -> ProbeReport {
    let mut jobs = Vec::with_capacity(CELLS.len());
    let mut serial_driven = 0usize;
    let mut cached_driven = 0usize;
    let mut serial_nanos = 0u64;
    let mut cached_nanos = 0u64;

    for cell in CELLS {
        let run = |trace_cache: bool, parallelism: usize| -> IntegrationReport {
            let mut w = counter_workload(cell.n, cell.k);
            if let Some(d) = cell.fault_depth {
                seed_fault(&mut w, d);
            }
            let mut component = LatentComponent::new(w.component, latency);
            let mut units = [LegacyUnit::new(
                &mut component,
                PortMap::with_default("port"),
            )];
            verify_integration(
                &w.universe,
                &w.context,
                &[],
                &mut units,
                &IntegrationConfig::default()
                    .with_trace_cache(trace_cache)
                    .with_test_parallelism(parallelism),
            )
            .expect("integration terminates")
        };

        let t = Instant::now();
        let serial = run(false, 1);
        serial_nanos += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let cached = run(true, 4);
        cached_nanos += t.elapsed().as_nanos() as u64;

        // The cache is a pure accelerator: it may only change how fast the
        // verdict is reached, never which one — nor what was learned.
        assert_eq!(
            format!("{:?}", cached.verdict),
            format!("{:?}", serial.verdict),
            "{}: cached and serial runs must agree on the verdict",
            cell.name
        );
        assert_eq!(
            snapshots(&cached),
            snapshots(&serial),
            "{}: cached and serial runs must learn identical models",
            cell.name
        );
        assert!(
            cached.stats.trace_cache_hits > 0,
            "{}: the frontier-heavy workload must actually exercise the cache",
            cell.name
        );

        serial_driven += serial.stats.driven_steps;
        cached_driven += cached.stats.driven_steps;
        jobs.push(ProbeJobRow {
            name: cell.name.to_owned(),
            outcome: format!("{:?}", serial.verdict)
                .split([' ', '{'])
                .next()
                .unwrap_or("unknown")
                .to_owned(),
            driven_serial: serial.stats.driven_steps,
            driven_cached: cached.stats.driven_steps,
            tests_serial: serial.stats.tests_executed,
            tests_cached: cached.stats.tests_executed,
            cache_hits: cached.stats.trace_cache_hits,
            cache_saved: cached.stats.trace_cache_saved_steps,
            parallel_batches: cached.stats.parallel_batches,
            dedup_skipped: cached.stats.dedup_skipped,
        });
    }

    let report = ProbeReport {
        jobs,
        latency_us: latency.as_micros() as u64,
        serial_driven,
        cached_driven,
        serial_nanos,
        cached_nanos,
    };
    assert!(
        report.cached_driven * 2 <= report.serial_driven,
        "trace cache must halve the driven rig steps (serial {} vs cached {})",
        report.serial_driven,
        report.cached_driven
    );
    report
}

impl ProbeReport {
    /// The `repro probe` envelope cells: a `total` cell with both runs'
    /// wall times, then one cell per campaign cell.
    pub fn cells(&self) -> Vec<Cell> {
        // Reaching this point means every hard assertion held: identical
        // verdicts, identical learned models, ≥2× fewer driven steps.
        let mut cells = vec![Cell::new("total")
            .counter("verdicts_identical", true)
            .counter("learned_identical", true)
            .counter("latency_us", self.latency_us)
            .counter("serial_driven", self.serial_driven)
            .counter("cached_driven", self.cached_driven)
            .wall("serial", self.serial_nanos)
            .wall("cached", self.cached_nanos)];
        cells.extend(self.jobs.iter().map(|j| {
            Cell::new(j.name.as_str())
                .counter("outcome", j.outcome.as_str())
                .counter("driven_serial", j.driven_serial)
                .counter("driven_cached", j.driven_cached)
                .counter("tests_serial", j.tests_serial)
                .counter("tests_cached", j.tests_cached)
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
        // The hard assertions (verdict identity, learned-model identity,
        // ≥2× step reduction) live inside probe_campaign; completing is
        // the test. Zero latency keeps the suite fast.
        let report = probe_campaign(Duration::ZERO);
        assert_eq!(report.jobs.len(), 4);
        assert!(report.cached_driven * 2 <= report.serial_driven);
        assert!(report
            .jobs
            .iter()
            .any(|j| j.dedup_skipped > 0 || j.cache_hits > 0));
        assert_eq!(report.cells().len(), 1 + report.jobs.len());
    }
}
