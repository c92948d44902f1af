//! Flake-tolerant test execution: bounded retries with a verdict quorum.
//!
//! [`execute_expected_trace`](crate::execute_expected_trace) assumes a
//! reliable rig — any replay mismatch is a fatal [`ReplayError`]. Against a
//! real rig (modelled by [`UnreliableRig`](crate::UnreliableRig)) that
//! assumption fails routinely, so this module wraps the executor in a retry
//! loop that keeps every verdict *sound*:
//!
//! * Every attempt is validated for **internal consistency** against the
//!   expected trace: a `Confirmed` attempt must reproduce the expected
//!   labels exactly, and a `Diverged(t)` attempt must match the expected
//!   prefix and mismatch exactly at `t`. An attempt whose claimed verdict
//!   its own replayed observation contradicts is rejected as a suspected
//!   rig fault, never trusted. (The executor takes the verdict from the
//!   record drive its replay cross-checks, so a rig fault in either drive
//!   surfaces as a [`ReplayError`] first.)
//! * A conclusive verdict requires `quorum` *identical* consistent attempts
//!   (same confirmation flag, divergence point, observation, and refusal).
//!   Transient faults are seeded per period, so two corrupted attempts
//!   agreeing on the same wrong observation is vanishingly unlikely.
//! * Attempts are bounded by [`RetryPolicy::max_attempts`], with
//!   exponential backoff charged to a [`SimClock`] (real rigs need settle
//!   time after a fault; the simulated clock keeps tests instant and
//!   deterministic). Exhausting the budget yields
//!   [`TestVerdict::Inconclusive`] — an honest "the rig was too flaky to
//!   tell", never a fabricated verdict and never a panic.
//!
//! The driver (`muml-core`) feeds only conclusive outcomes to the learner;
//! see DESIGN.md §13 for the end-to-end soundness argument.

use muml_automata::{Label, Universe};

use crate::component::StateObservable;
use crate::executor::{execute_witnessed, TestOutcome};
use crate::monitor::PortMap;
use crate::replay::ReplayError;

/// A simulated clock for retry backoff, in abstract ticks.
///
/// Real rigs need settle time between attempts; in-process tests do not.
/// The executor charges backoff to this clock instead of sleeping, so the
/// cost is observable (and assertable) without slowing anything down.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimClock {
    now: u64,
}

impl SimClock {
    /// A clock at tick zero.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// The current tick.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the clock by `ticks`.
    pub fn advance(&mut self, ticks: u64) {
        self.now = self.now.saturating_add(ticks);
    }
}

/// Bounded-retry policy for [`execute_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum test attempts (at least 1).
    pub max_attempts: usize,
    /// How many identical consistent attempts make a verdict conclusive
    /// (at least 1). `1` trusts the first internally-consistent attempt —
    /// exactly the legacy single-shot behaviour on a reliable rig.
    pub quorum: usize,
    /// Backoff before the second attempt, in [`SimClock`] ticks.
    pub backoff_base: u64,
    /// Multiplier applied per further attempt.
    pub backoff_factor: u64,
    /// Upper bound on a single backoff pause.
    pub backoff_cap: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            quorum: 1,
            backoff_base: 1,
            backoff_factor: 2,
            backoff_cap: 64,
        }
    }
}

impl RetryPolicy {
    /// The single-shot policy: one attempt, no retries. On a reliable rig
    /// this reproduces
    /// [`execute_expected_trace`](crate::execute_expected_trace) exactly.
    pub fn strict() -> Self {
        RetryPolicy {
            max_attempts: 1,
            quorum: 1,
            ..RetryPolicy::default()
        }
    }

    /// Sets the attempt bound (clamped to at least 1).
    #[must_use]
    pub fn with_max_attempts(mut self, max_attempts: usize) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Sets the quorum (clamped to at least 1).
    #[must_use]
    pub fn with_quorum(mut self, quorum: usize) -> Self {
        self.quorum = quorum.max(1);
        self
    }

    /// Sets the backoff schedule: `base`, `factor`, `cap` (ticks).
    #[must_use]
    pub fn with_backoff(mut self, base: u64, factor: u64, cap: u64) -> Self {
        self.backoff_base = base;
        self.backoff_factor = factor;
        self.backoff_cap = cap;
        self
    }

    /// The pause charged before attempt number `attempt` (1-based): zero
    /// before the first, then `base·factor^(n-2)` capped at `cap`.
    pub fn backoff_before(&self, attempt: usize) -> u64 {
        if attempt <= 1 {
            return 0;
        }
        let mut pause = self.backoff_base;
        for _ in 2..attempt {
            pause = pause.saturating_mul(self.backoff_factor);
            if pause >= self.backoff_cap {
                return self.backoff_cap;
            }
        }
        pause.min(self.backoff_cap)
    }
}

/// The three-valued verdict of a flake-tolerant test execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestVerdict {
    /// A quorum of attempts realized the full expected trace — the
    /// counterexample is real (Lemma 6).
    Confirmed,
    /// A quorum of attempts diverged identically at `step` — the
    /// counterexample was an artefact; the agreed observation is sound
    /// learning input (Definitions 11/12).
    Diverged {
        /// The agreed divergence step.
        step: usize,
    },
    /// The attempt budget ran out before a quorum of agreeing, internally
    /// consistent attempts was collected. The rig is too flaky (or the
    /// component nondeterministic); nothing may be learned from this test.
    Inconclusive,
}

impl TestVerdict {
    /// Stable lowercase name for telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            TestVerdict::Confirmed => "confirmed",
            TestVerdict::Diverged { .. } => "diverged",
            TestVerdict::Inconclusive => "inconclusive",
        }
    }

    /// `true` unless the verdict is [`TestVerdict::Inconclusive`].
    pub fn is_conclusive(&self) -> bool {
        !matches!(self, TestVerdict::Inconclusive)
    }
}

/// The full account of a retried test execution.
#[derive(Debug, Clone)]
pub struct RetryReport {
    /// The three-valued verdict.
    pub verdict: TestVerdict,
    /// The quorum-agreed outcome; `None` iff the verdict is inconclusive.
    pub outcome: Option<TestOutcome>,
    /// Attempts actually executed.
    pub attempts: usize,
    /// Attempts that failed the replay cross-check ([`ReplayError`]).
    pub replay_errors: usize,
    /// Attempts whose outcome contradicted the expected trace internally —
    /// a claimed verdict its own observation does not show.
    pub inconsistent_attempts: usize,
    /// Total backoff charged to the clock, in ticks.
    pub backoff_ticks: u64,
    /// Raw component steps driven across all attempts, those that failed
    /// the replay cross-check included.
    pub driven_steps: usize,
    /// The period of the most recent replay cross-check failure, if any.
    pub last_replay_period: Option<u64>,
}

impl RetryReport {
    /// Attempts that looked like rig faults (replay errors plus internal
    /// inconsistencies).
    pub fn suspected_rig_faults(&self) -> usize {
        self.replay_errors + self.inconsistent_attempts
    }

    /// The report before any attempt: inconclusive, all counters zero.
    pub(crate) fn empty() -> Self {
        RetryReport {
            verdict: TestVerdict::Inconclusive,
            outcome: None,
            attempts: 0,
            replay_errors: 0,
            inconsistent_attempts: 0,
            backoff_ticks: 0,
            driven_steps: 0,
            last_replay_period: None,
        }
    }
}

/// An attempt is internally consistent iff its claimed verdict is witnessed
/// by its own replayed observation: confirmations must reproduce the
/// expected labels exactly, divergences must match the expected prefix and
/// mismatch exactly at the divergence step.
pub(crate) fn internally_consistent(outcome: &TestOutcome, expected: &[Label]) -> bool {
    let labels = &outcome.observation.labels;
    match outcome.divergence {
        None => {
            outcome.confirmed
                && outcome.refusal.is_none()
                && labels.len() == expected.len()
                && labels.as_slice() == expected
        }
        Some(t) => {
            !outcome.confirmed
                && t < expected.len()
                && labels.len() == t + 1
                && labels[..t] == expected[..t]
                && labels[t].inputs == expected[t].inputs
                && labels[t].outputs != expected[t].outputs
                && outcome.refusal.is_some()
        }
    }
}

/// Two consistent attempts agree iff they claim the same verdict with the
/// same evidence.
pub(crate) fn agrees(a: &TestOutcome, b: &TestOutcome) -> bool {
    a.confirmed == b.confirmed
        && a.divergence == b.divergence
        && a.observation == b.observation
        && a.refusal == b.refusal
}

/// Books one executed attempt of the retry loop into `report`. Charges the attempt's backoff to `clock`, adds every rig step it drove
/// (a failed replay's included), classifies it, and returns `true` once
/// `policy.quorum` internally consistent attempts agree — the agreed
/// outcome is then `report.outcome`. `candidates` holds the consistent
/// attempts booked so far.
fn book_attempt(
    report: &mut RetryReport,
    candidates: &mut Vec<TestOutcome>,
    attempt: Result<TestOutcome, ReplayError>,
    expected: &[Label],
    policy: &RetryPolicy,
    clock: &mut SimClock,
) -> bool {
    report.attempts += 1;
    let pause = policy.backoff_before(report.attempts);
    if pause > 0 {
        clock.advance(pause);
        // Saturate: with a pathological schedule (base/cap near
        // `u64::MAX`) the per-attempt pauses individually fit but their
        // sum wraps in release mode.
        report.backoff_ticks = report.backoff_ticks.saturating_add(pause);
    }
    let outcome = match attempt {
        Err(e) => {
            report.driven_steps += e.driven_steps();
            report.replay_errors += 1;
            report.last_replay_period = Some(e.period());
            return false;
        }
        Ok(outcome) => outcome,
    };
    report.driven_steps += outcome.driven_steps;
    if !internally_consistent(&outcome, expected) {
        report.inconsistent_attempts += 1;
        return false;
    }
    let agreeing = 1 + candidates.iter().filter(|c| agrees(c, &outcome)).count();
    if agreeing >= policy.quorum.max(1) {
        report.verdict = match outcome.divergence {
            None => TestVerdict::Confirmed,
            Some(step) => TestVerdict::Diverged { step },
        };
        report.outcome = Some(outcome);
        return true;
    }
    candidates.push(outcome);
    false
}

/// Executes `expected` against `component` with bounded retries and a
/// verdict quorum, charging backoff to `clock`. Never panics and never
/// returns an error: a rig too flaky to produce `policy.quorum` agreeing,
/// internally consistent attempts yields [`TestVerdict::Inconclusive`].
pub fn execute_with_retry_on(
    component: &mut dyn StateObservable,
    expected: &[Label],
    u: &Universe,
    ports: &PortMap,
    policy: &RetryPolicy,
    clock: &mut SimClock,
) -> RetryReport {
    retry_witnessed(component, expected, u, ports, policy, clock, None)
}

/// [`execute_with_retry_on`] that, given `witness`, stores in it the
/// witness clone (see [`execute_witnessed`]) of the last attempt run — the
/// one that completed the quorum, if any did.
pub(crate) fn retry_witnessed(
    component: &mut dyn StateObservable,
    expected: &[Label],
    u: &Universe,
    ports: &PortMap,
    policy: &RetryPolicy,
    clock: &mut SimClock,
    mut witness: Option<&mut Option<Box<dyn StateObservable + Send>>>,
) -> RetryReport {
    let mut report = RetryReport::empty();
    let mut candidates = Vec::new();
    while report.attempts < policy.max_attempts.max(1) {
        let attempt = execute_witnessed(component, expected, u, ports, witness.as_deref_mut());
        if book_attempt(
            &mut report,
            &mut candidates,
            attempt,
            expected,
            policy,
            clock,
        ) {
            break;
        }
    }
    report
}

/// [`execute_with_retry_on`] with a fresh [`SimClock`]; the total backoff
/// is still reported in [`RetryReport::backoff_ticks`].
pub fn execute_with_retry(
    component: &mut dyn StateObservable,
    expected: &[Label],
    u: &Universe,
    ports: &PortMap,
    policy: &RetryPolicy,
) -> RetryReport {
    let mut clock = SimClock::new();
    execute_with_retry_on(component, expected, u, ports, policy, &mut clock)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::LegacyComponent;
    use crate::executor::execute_expected_trace;
    use crate::interpreter::MealyBuilder;
    use crate::rig::{RigFaultProfile, UnreliableRig};
    use muml_automata::SignalSet;

    fn component(u: &Universe) -> crate::HiddenMealy {
        MealyBuilder::new(u, "legacy")
            .input("start")
            .input("reject")
            .output("propose")
            .state("noConvoy")
            .initial("noConvoy")
            .state("wait")
            .state("convoy")
            .rule("noConvoy", [], ["propose"], "wait")
            .rule("wait", ["start"], [], "convoy")
            .rule("wait", ["reject"], [], "noConvoy")
            .build()
            .unwrap()
    }

    fn l(u: &Universe, ins: &[&str], outs: &[&str]) -> Label {
        Label::new(
            ins.iter().map(|n| u.signal(n)).collect(),
            outs.iter().map(|n| u.signal(n)).collect(),
        )
    }

    /// A deliberately nondeterministic component: the first step after a
    /// reset answers `{tick}` only on every second reset.
    struct CoinFlip {
        u_tick: SignalSet,
        resets: u64,
        steps: u64,
    }

    impl CoinFlip {
        fn new(u: &Universe) -> Self {
            CoinFlip {
                u_tick: u.signals(["tick"]),
                resets: 0,
                steps: 0,
            }
        }
    }

    impl LegacyComponent for CoinFlip {
        fn name(&self) -> &str {
            "coinflip"
        }
        fn interface(&self) -> (SignalSet, SignalSet) {
            (SignalSet::EMPTY, self.u_tick)
        }
        fn reset(&mut self) {
            self.resets += 1;
            self.steps = 0;
        }
        fn step(&mut self, _inputs: SignalSet) -> SignalSet {
            self.steps += 1;
            if self.steps == 1 && self.resets.is_multiple_of(2) {
                self.u_tick
            } else {
                SignalSet::EMPTY
            }
        }
        fn period(&self) -> u64 {
            self.steps
        }
    }

    impl StateObservable for CoinFlip {
        fn observable_state(&self) -> String {
            "s".to_owned()
        }
        fn initial_state_name(&self) -> String {
            "s".to_owned()
        }
    }

    #[test]
    fn clean_rig_confirms_in_one_attempt() {
        let u = Universe::new();
        let mut c = component(&u);
        let ports = PortMap::with_default("rearRole");
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];
        let r = execute_with_retry(&mut c, &expected, &u, &ports, &RetryPolicy::default());
        assert_eq!(r.verdict, TestVerdict::Confirmed);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.suspected_rig_faults(), 0);
        assert_eq!(r.backoff_ticks, 0);
        assert!(r.outcome.unwrap().confirmed);
    }

    #[test]
    fn clean_rig_divergence_is_agreed() {
        let u = Universe::new();
        let mut c = component(&u);
        let ports = PortMap::with_default("rearRole");
        let expected = vec![l(&u, &[], &[]), l(&u, &[], &["propose"])];
        let policy = RetryPolicy::default().with_quorum(2).with_max_attempts(5);
        let r = execute_with_retry(&mut c, &expected, &u, &ports, &policy);
        assert_eq!(r.verdict, TestVerdict::Diverged { step: 0 });
        assert_eq!(r.attempts, 2); // quorum of two identical attempts
        let o = r.outcome.unwrap();
        assert!(o.refusal.is_some());
        assert_eq!(o.divergence, Some(0));
    }

    #[test]
    fn nondeterministic_component_is_inconclusive_not_a_panic() {
        let u = Universe::new();
        let mut c = CoinFlip::new(&u);
        let ports = PortMap::with_default("p");
        let expected = vec![l(&u, &[], &["tick"])];
        let policy = RetryPolicy::default().with_max_attempts(4);
        let r = execute_with_retry(&mut c, &expected, &u, &ports, &policy);
        assert_eq!(r.verdict, TestVerdict::Inconclusive);
        assert!(!r.verdict.is_conclusive());
        assert!(r.outcome.is_none());
        assert_eq!(r.attempts, 4);
        // Every attempt fails either the replay cross-check or the internal
        // consistency check — all four are suspected rig faults.
        assert_eq!(r.suspected_rig_faults(), 4);
        assert!(r.replay_errors > 0);
        assert!(r.last_replay_period.is_some());
    }

    #[test]
    fn strict_policy_matches_single_shot_executor() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let expected = vec![l(&u, &[], &["propose"]), l(&u, &["reject"], &[])];
        let single = execute_expected_trace(&mut component(&u), &expected, &u, &ports).unwrap();
        let retried = execute_with_retry(
            &mut component(&u),
            &expected,
            &u,
            &ports,
            &RetryPolicy::strict(),
        );
        assert_eq!(retried.attempts, 1);
        let agreed = retried.outcome.unwrap();
        assert_eq!(agreed.confirmed, single.confirmed);
        assert_eq!(agreed.observation, single.observation);
    }

    #[test]
    fn backoff_schedule_is_charged_to_the_clock() {
        let u = Universe::new();
        let mut c = CoinFlip::new(&u);
        let ports = PortMap::with_default("p");
        let expected = vec![l(&u, &[], &["tick"])];
        let policy = RetryPolicy::default()
            .with_max_attempts(4)
            .with_backoff(2, 2, 8);
        let mut clock = SimClock::new();
        let r = execute_with_retry_on(&mut c, &expected, &u, &ports, &policy, &mut clock);
        // Pauses before attempts 2, 3, 4: 2, 4, 8.
        assert_eq!(r.backoff_ticks, 14);
        assert_eq!(clock.now(), 14);
    }

    #[test]
    fn extreme_backoff_schedule_saturates_instead_of_wrapping() {
        // Regression: `backoff_before` already saturated per pause, but the
        // *accumulated* ticks (report + clock) wrapped with a schedule whose
        // pauses are near `u64::MAX`.
        let p = RetryPolicy::default().with_backoff(u64::MAX, u64::MAX, u64::MAX);
        assert_eq!(p.backoff_before(2), u64::MAX);
        assert_eq!(p.backoff_before(100), u64::MAX);

        let mut clock = SimClock::new();
        clock.advance(u64::MAX);
        clock.advance(u64::MAX);
        assert_eq!(clock.now(), u64::MAX);

        let u = Universe::new();
        let mut c = CoinFlip::new(&u);
        let ports = PortMap::with_default("p");
        let expected = vec![l(&u, &[], &["tick"])];
        let policy =
            RetryPolicy::default()
                .with_max_attempts(4)
                .with_backoff(u64::MAX, u64::MAX, u64::MAX);
        let mut clock = SimClock::new();
        let r = execute_with_retry_on(&mut c, &expected, &u, &ports, &policy, &mut clock);
        // Three pauses of u64::MAX each: both accumulators must saturate.
        assert_eq!(r.backoff_ticks, u64::MAX);
        assert_eq!(clock.now(), u64::MAX);
    }

    #[test]
    fn backoff_cap_limits_growth() {
        let p = RetryPolicy::default().with_backoff(3, 10, 50);
        assert_eq!(p.backoff_before(1), 0);
        assert_eq!(p.backoff_before(2), 3);
        assert_eq!(p.backoff_before(3), 30);
        assert_eq!(p.backoff_before(4), 50);
        assert_eq!(p.backoff_before(9), 50);
    }

    #[test]
    fn flaky_rig_verdicts_match_clean_verdicts() {
        let u = Universe::new();
        let ports = PortMap::with_default("rearRole");
        let confirm = vec![l(&u, &[], &["propose"]), l(&u, &["start"], &[])];
        let diverge = vec![l(&u, &[], &[]), l(&u, &[], &["propose"])];
        let policy = RetryPolicy::default().with_max_attempts(12).with_quorum(2);
        let mut conclusive = 0;
        for seed in 0..20u64 {
            let profile = RigFaultProfile::uniform(seed.wrapping_mul(0x9E37), 0.15);
            let mut rig = UnreliableRig::new(component(&u), profile);
            let r = execute_with_retry(&mut rig, &confirm, &u, &ports, &policy);
            match r.verdict {
                TestVerdict::Confirmed => conclusive += 1,
                TestVerdict::Inconclusive => {}
                other => panic!("unsound verdict under flaky rig: {other:?}"),
            }
            let mut rig = UnreliableRig::new(component(&u), profile);
            let r = execute_with_retry(&mut rig, &diverge, &u, &ports, &policy);
            match r.verdict {
                TestVerdict::Diverged { step: 0 } => conclusive += 1,
                TestVerdict::Inconclusive => {}
                other => panic!("unsound verdict under flaky rig: {other:?}"),
            }
        }
        // At a 15% fault rate with 12 attempts, most runs must conclude.
        assert!(conclusive >= 20, "only {conclusive}/40 conclusive");
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(TestVerdict::Confirmed.name(), "confirmed");
        assert_eq!(TestVerdict::Diverged { step: 3 }.name(), "diverged");
        assert_eq!(TestVerdict::Inconclusive.name(), "inconclusive");
        assert!(TestVerdict::Confirmed.is_conclusive());
        assert!(TestVerdict::Diverged { step: 0 }.is_conclusive());
    }
}
