//! The flake-storm campaign (`repro storm`): soundness of the retrying
//! test executor under injected rig faults.
//!
//! Every workload is first run on a clean rig to fix its ground-truth
//! verdict, then re-run with the legacy component wrapped in an
//! [`UnreliableRig`] at a sweep of fault rates. The campaign **hard
//! asserts** the tentpole property of the flake-tolerance design: a
//! conclusive verdict (proven / real fault) produced on a flaky rig is
//! *identical* to the clean-rig verdict — flakiness may only ever add
//! `Inconclusive` outcomes, never flip a verdict. At rate `0.0` the rig
//! wrapper is exercised but injects nothing, so every verdict must be
//! conclusive and matching.

use crate::envelope::Cell;
use crate::workload::{counter_workload, seed_fault};
use muml_core::{
    verify_integration, CoreError, IntegrationConfig, IntegrationReport, IntegrationVerdict,
    LegacyUnit,
};
use muml_legacy::{PortMap, RetryPolicy, RigFaultProfile, UnreliableRig};
use muml_railcab::{correct_shuttle, faulty_shuttle, front_context, scenario};

/// The fault rates the storm sweeps (per-kind uniform split, see
/// [`RigFaultProfile::uniform`]).
pub const STORM_RATES: [f64; 5] = [0.0, 0.02, 0.05, 0.10, 0.25];

/// One workload × rate cell of the storm matrix.
#[derive(Debug, Clone)]
pub struct StormJobRow {
    /// Workload name.
    pub workload: String,
    /// Injected fault rate.
    pub rate: f64,
    /// The clean-rig ground-truth verdict name.
    pub clean: String,
    /// The flaky-rig verdict name.
    pub flaky: String,
    /// `Some(true)` when the flaky verdict was conclusive and equal to the
    /// clean one; `None` when the flaky run was honestly inconclusive.
    pub matched: Option<bool>,
    /// Test executions counted by the session (retries included).
    pub attempts: usize,
    /// Attempts beyond each test's first.
    pub retries: usize,
    /// Attempts the quorum executor rejected as rig-corrupted.
    pub suspected: usize,
    /// Counterexamples the session quarantined.
    pub quarantined: usize,
    /// Faults the rig actually injected during the run.
    pub injected: usize,
    /// Simulated backoff ticks spent between attempts.
    pub backoff_ticks: u64,
}

/// Aggregation of one rate across all workloads.
#[derive(Debug, Clone)]
pub struct StormRateRow {
    /// Injected fault rate.
    pub rate: f64,
    /// Workloads run at this rate.
    pub jobs: usize,
    /// Runs that reached a conclusive verdict.
    pub conclusive: usize,
    /// Runs that honestly declined to issue a verdict.
    pub inconclusive: usize,
    /// Total test attempts.
    pub attempts: usize,
    /// Total retries.
    pub retries: usize,
    /// Total rejected attempts.
    pub suspected: usize,
    /// Total quarantined counterexamples.
    pub quarantined: usize,
    /// Total injected rig faults.
    pub injected: usize,
    /// Total simulated backoff ticks.
    pub backoff_ticks: u64,
}

/// The full storm campaign result. Constructing one via [`storm_campaign`]
/// already implies the soundness assertion passed — a violated assertion
/// panics before the report exists.
#[derive(Debug, Clone)]
pub struct StormReport {
    /// Per-rate aggregation, in [`STORM_RATES`] order.
    pub rates: Vec<StormRateRow>,
    /// Per-cell rows, rate-major.
    pub jobs: Vec<StormJobRow>,
}

/// The workloads the storm runs: both RailCab walkthrough verdicts and
/// both counter-protocol verdicts, so proven *and* real-fault ground
/// truths are defended against flipping.
enum Workload {
    Railcab {
        faulty: bool,
    },
    Counter {
        n: usize,
        k: usize,
        fault: Option<usize>,
    },
}

impl Workload {
    fn all() -> Vec<(String, Workload)> {
        vec![
            (
                "railcab/correct".to_owned(),
                Workload::Railcab { faulty: false },
            ),
            (
                "railcab/faulty".to_owned(),
                Workload::Railcab { faulty: true },
            ),
            (
                "counter/n=8,k=5".to_owned(),
                Workload::Counter {
                    n: 8,
                    k: 5,
                    fault: None,
                },
            ),
            (
                "counter/n=8,k=6,fault@2".to_owned(),
                Workload::Counter {
                    n: 8,
                    k: 6,
                    fault: Some(2),
                },
            ),
        ]
    }

    /// Runs the workload, optionally behind an [`UnreliableRig`]; returns
    /// the session result and the number of faults the rig injected.
    fn run(
        &self,
        profile: Option<RigFaultProfile>,
        config: &IntegrationConfig,
    ) -> (Result<IntegrationReport, CoreError>, usize) {
        match self {
            Workload::Railcab { faulty } => {
                let u = muml_automata::Universe::new();
                let context = front_context(&u);
                let shuttle = if *faulty {
                    faulty_shuttle(&u)
                } else {
                    correct_shuttle(&u)
                };
                let props = vec![scenario::pattern_constraint(&u)];
                let ports = scenario::rear_port_map(&u);
                match profile {
                    Some(p) => {
                        let mut rig = UnreliableRig::new(shuttle, p);
                        let result = {
                            let mut units = [LegacyUnit::new(&mut rig, ports)];
                            verify_integration(&u, &context, &props, &mut units, config)
                        };
                        (result, rig.total_injected())
                    }
                    None => {
                        let mut shuttle = shuttle;
                        let mut units = [LegacyUnit::new(&mut shuttle, ports)];
                        (
                            verify_integration(&u, &context, &props, &mut units, config),
                            0,
                        )
                    }
                }
            }
            Workload::Counter { n, k, fault } => {
                let mut w = counter_workload(*n, *k);
                if let Some(d) = fault {
                    seed_fault(&mut w, *d);
                }
                let ports = PortMap::with_default("p");
                match profile {
                    Some(p) => {
                        let mut rig = UnreliableRig::new(w.component, p);
                        let result = {
                            let mut units = [LegacyUnit::new(&mut rig, ports)];
                            verify_integration(&w.universe, &w.context, &[], &mut units, config)
                        };
                        (result, rig.total_injected())
                    }
                    None => {
                        let mut units = [LegacyUnit::new(&mut w.component, ports)];
                        (
                            verify_integration(&w.universe, &w.context, &[], &mut units, config),
                            0,
                        )
                    }
                }
            }
        }
    }
}

fn verdict_name(verdict: &IntegrationVerdict) -> &'static str {
    match verdict {
        IntegrationVerdict::Proven => "proven",
        IntegrationVerdict::RealFault { .. } => "real_fault",
        IntegrationVerdict::Inconclusive { .. } => "inconclusive",
    }
}

/// Deterministic per-cell seed: the campaign must reproduce bit-identically
/// across runs, so seeds derive from the matrix coordinates alone.
fn cell_seed(workload: usize, rate: usize) -> u64 {
    0x5851_F42D_4C95_7F2D ^ ((workload as u64) << 32) ^ ((rate as u64) << 8) ^ 0xB5
}

/// Runs the storm over `rates` and asserts verdict soundness (see module
/// docs). Panics on any conclusive flaky verdict that differs from the
/// clean one, on any inconclusive run at rate `0.0`, and on any session
/// error.
pub fn storm_campaign(rates: &[f64]) -> StormReport {
    let workloads = Workload::all();
    // Generous attempts and a 3-vote quorum. The per-attempt defence is
    // the replay cross-check (outputs *and* period counters — a withheld
    // input is silent on a quiet trace but never advances the period);
    // the quorum then requires identical fault effects in three separate
    // attempts of an advancing PRNG, which at per-kind rates of a few
    // percent is astronomically unlikely. Both layers are needed: without
    // the period probe, a stuck period in the replay phase of a silent
    // trace yields a stalled-but-consistent observation that can win the
    // quorum and mislocate the deadlock frontier (a verdict flip this
    // campaign reproduced at rate 0.25 before the probe existed).
    let flaky_config = IntegrationConfig::default()
        .with_retry_policy(
            RetryPolicy::default()
                .with_max_attempts(12)
                .with_quorum(3)
                .with_backoff(1, 2, 64),
        )
        .with_flake_budget(4);

    // Ground truth on a clean rig, once per workload.
    let clean: Vec<String> = workloads
        .iter()
        .map(|(name, w)| {
            let (result, _) = w.run(None, &IntegrationConfig::default());
            let report = result.unwrap_or_else(|e| panic!("clean run of {name} failed: {e}"));
            assert!(
                report.verdict.conclusive(),
                "clean run of {name} must be conclusive"
            );
            verdict_name(&report.verdict).to_owned()
        })
        .collect();

    let mut jobs: Vec<StormJobRow> = Vec::new();
    let mut rate_rows: Vec<StormRateRow> = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let mut row = StormRateRow {
            rate,
            jobs: 0,
            conclusive: 0,
            inconclusive: 0,
            attempts: 0,
            retries: 0,
            suspected: 0,
            quarantined: 0,
            injected: 0,
            backoff_ticks: 0,
        };
        for (wi, (name, w)) in workloads.iter().enumerate() {
            let profile = RigFaultProfile::uniform(cell_seed(wi, ri), rate);
            let (result, injected) = w.run(Some(profile), &flaky_config);
            let report =
                result.unwrap_or_else(|e| panic!("storm run of {name} at rate {rate} failed: {e}"));
            let flaky = verdict_name(&report.verdict).to_owned();
            let matched = if report.verdict.conclusive() {
                // THE storm assertion: flakiness must never flip a verdict.
                assert_eq!(
                    flaky, clean[wi],
                    "rig flakiness flipped the verdict of {name} at rate {rate}"
                );
                row.conclusive += 1;
                Some(true)
            } else {
                assert!(
                    rate > 0.0,
                    "{name} was inconclusive on a fault-free rig (rate 0.0)"
                );
                row.inconclusive += 1;
                None
            };
            let stats = &report.stats;
            row.jobs += 1;
            row.attempts += stats.test_attempts;
            row.retries += stats.test_retries;
            row.suspected += stats.suspected_rig_faults;
            row.quarantined += stats.quarantined_tests;
            row.injected += injected;
            row.backoff_ticks += stats.backoff_ticks;
            jobs.push(StormJobRow {
                workload: name.clone(),
                rate,
                clean: clean[wi].clone(),
                flaky,
                matched,
                attempts: stats.test_attempts,
                retries: stats.test_retries,
                suspected: stats.suspected_rig_faults,
                quarantined: stats.quarantined_tests,
                injected,
                backoff_ticks: stats.backoff_ticks,
            });
        }
        rate_rows.push(row);
    }
    StormReport {
        rates: rate_rows,
        jobs,
    }
}

impl StormReport {
    /// The `repro storm` envelope cells: a `total` cell, one cell per rate
    /// (`rate=0.05`), then one per workload and rate
    /// (`rate=0.05/railcab/correct`).
    pub fn cells(&self) -> Vec<Cell> {
        // Reaching this point means the soundness assertion held for every
        // cell — a violation panics inside storm_campaign.
        let mut cells = vec![Cell::new("total").counter("verdicts_sound", true)];
        cells.extend(self.rates.iter().map(|r| {
            Cell::new(format!("rate={:.2}", r.rate))
                .counter("rate", r.rate)
                .counter("jobs", r.jobs)
                .counter("conclusive", r.conclusive)
                .counter("inconclusive", r.inconclusive)
                .counter("attempts", r.attempts)
                .counter("retries", r.retries)
                .counter("suspected", r.suspected)
                .counter("quarantined", r.quarantined)
                .counter("injected", r.injected)
                .counter("backoff_ticks", r.backoff_ticks)
        }));
        cells.extend(self.jobs.iter().map(|j| {
            Cell::new(format!("rate={:.2}/{}", j.rate, j.workload))
                .counter("workload", j.workload.as_str())
                .counter("rate", j.rate)
                .counter("clean", j.clean.as_str())
                .counter("flaky", j.flaky.as_str())
                .counter("matched", j.matched)
                .counter("attempts", j.attempts)
                .counter("retries", j.retries)
                .counter("suspected", j.suspected)
                .counter("quarantined", j.quarantined)
                .counter("injected", j.injected)
                .counter("backoff_ticks", j.backoff_ticks)
        }));
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_obs::json::Json;

    #[test]
    fn storm_is_sound_at_a_modest_rate() {
        // One clean column and one flaky column; the soundness assertion
        // lives inside storm_campaign, so completing is the test.
        let report = storm_campaign(&[0.0, 0.05]);
        assert_eq!(report.rates.len(), 2);
        assert_eq!(report.rates[0].rate, 0.0);
        assert_eq!(report.rates[0].inconclusive, 0, "rate 0.0 must conclude");
        assert_eq!(report.rates[0].injected, 0, "rate 0.0 must inject nothing");
        assert_eq!(report.jobs.len(), 2 * report.rates[0].jobs);
        let cells = report.cells();
        assert_eq!(cells[0].get("verdicts_sound"), Some(&Json::Bool(true)));
        assert_eq!(cells.len(), 1 + 2 + report.jobs.len());
    }
}
