//! Seeded transient-fault injection for the test rig.
//!
//! The paper's evaluation assumes the rig faithfully transports every
//! message between the harness and the legacy component. Real rigs do not:
//! bus transfers drop frames, schedulers glitch, probes time out. This
//! module models the *rig* (not the component) as unreliable:
//! [`UnreliableRig`] wraps any [`StateObservable`] component and injects
//! seeded, deterministic transient faults at the harness boundary, leaving
//! the wrapped component itself untouched and deterministic.
//!
//! Faults are drawn from a [`RigFaultProfile`] by a private xorshift PRNG.
//! The PRNG state is *not* rewound by [`reset`](LegacyComponent::reset), so
//! consecutive test attempts against the same rig see different transient
//! faults — exactly the property the retrying executor
//! ([`execute_with_retry`](crate::execute_with_retry)) relies on to
//! eventually collect agreeing attempts.
//!
//! State observation is *not* corrupted: the replay-only probes read
//! instrumentation memory, not the harness channel (the same argument as
//! for [`LatentComponent`](crate::LatentComponent) latency). A
//! [`RigFault::SpuriousReset`] still corrupts observed behaviour, because
//! it really resets the component.

use muml_automata::SignalSet;

use crate::component::{LegacyComponent, StateObservable};

/// The kinds of transient faults an [`UnreliableRig`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RigFault {
    /// The component stepped, but its outputs were lost on the way back.
    DroppedOutput,
    /// The component stepped, but the previous period's outputs were
    /// re-delivered and merged into this period's (a stale duplicate).
    DuplicatedOutput,
    /// The rig reset the component before delivering the input.
    SpuriousReset,
    /// The rig lost sync: the input was never delivered and the harness
    /// re-read the previous period's outputs. May persist several periods.
    StuckPeriod,
    /// The round trip timed out: the input was never delivered and the
    /// harness read no outputs at all.
    ProbeTimeout,
}

impl RigFault {
    /// A short stable name for telemetry.
    pub fn name(&self) -> &'static str {
        match self {
            RigFault::DroppedOutput => "dropped_output",
            RigFault::DuplicatedOutput => "duplicated_output",
            RigFault::SpuriousReset => "spurious_reset",
            RigFault::StuckPeriod => "stuck_period",
            RigFault::ProbeTimeout => "probe_timeout",
        }
    }

    /// All fault kinds, in a fixed order (the counter layout of
    /// [`UnreliableRig::fault_counts`]).
    pub fn all() -> [RigFault; 5] {
        [
            RigFault::DroppedOutput,
            RigFault::DuplicatedOutput,
            RigFault::SpuriousReset,
            RigFault::StuckPeriod,
            RigFault::ProbeTimeout,
        ]
    }
}

/// Per-period fault probabilities for an [`UnreliableRig`], plus the PRNG
/// seed. All rates are clamped to `[0, 1]` at roll time; a profile with all
/// rates zero behaves exactly like the bare component.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigFaultProfile {
    /// PRNG seed — two rigs with equal profiles inject identical fault
    /// sequences for identical drive sequences.
    pub seed: u64,
    /// Probability that a period's outputs are dropped entirely.
    pub drop_rate: f64,
    /// Probability that the previous outputs are duplicated into a period.
    pub duplicate_rate: f64,
    /// Probability of a spurious component reset before a period.
    pub spurious_reset_rate: f64,
    /// Probability that the rig loses sync for [`stuck_periods`] periods.
    ///
    /// [`stuck_periods`]: RigFaultProfile::stuck_periods
    pub stuck_rate: f64,
    /// How many periods a stuck episode lasts (at least 1).
    pub stuck_periods: u64,
    /// Probability that a round trip times out.
    pub timeout_rate: f64,
}

impl RigFaultProfile {
    /// Whether the profile can inject anything at all. A profile with all
    /// rates zero is behaviourally transparent: the rig never consumes a
    /// PRNG draw, so the wrapped component stays fully deterministic.
    pub fn is_clean(&self) -> bool {
        self.drop_rate <= 0.0
            && self.duplicate_rate <= 0.0
            && self.spurious_reset_rate <= 0.0
            && self.stuck_rate <= 0.0
            && self.timeout_rate <= 0.0
    }

    /// A stable token identifying the profile (seed and rates) for trace-
    /// cache scoping.
    pub fn token(&self) -> String {
        format!(
            "rig:seed={},drop={},dup={},reset={},stuck={}x{},timeout={}",
            self.seed,
            self.drop_rate,
            self.duplicate_rate,
            self.spurious_reset_rate,
            self.stuck_rate,
            self.stuck_periods,
            self.timeout_rate
        )
    }

    /// A profile that injects nothing — the wrapped component is exercised
    /// verbatim (useful as a control in differential tests).
    pub fn clean(seed: u64) -> Self {
        RigFaultProfile {
            seed,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            spurious_reset_rate: 0.0,
            stuck_rate: 0.0,
            stuck_periods: 1,
            timeout_rate: 0.0,
        }
    }

    /// Spreads `rate` uniformly across all five fault kinds (each kind
    /// fires with probability `rate / 5`, so `rate` approximates the total
    /// per-period fault probability).
    pub fn uniform(seed: u64, rate: f64) -> Self {
        let each = rate / 5.0;
        RigFaultProfile {
            seed,
            drop_rate: each,
            duplicate_rate: each,
            spurious_reset_rate: each,
            stuck_rate: each,
            stuck_periods: 2,
            timeout_rate: each,
        }
    }

    /// Sets the output-drop rate.
    #[must_use]
    pub fn with_drop_rate(mut self, rate: f64) -> Self {
        self.drop_rate = rate;
        self
    }

    /// Sets the duplicate-delivery rate.
    #[must_use]
    pub fn with_duplicate_rate(mut self, rate: f64) -> Self {
        self.duplicate_rate = rate;
        self
    }

    /// Sets the spurious-reset rate.
    #[must_use]
    pub fn with_spurious_reset_rate(mut self, rate: f64) -> Self {
        self.spurious_reset_rate = rate;
        self
    }

    /// Sets the stuck-episode rate and duration.
    #[must_use]
    pub fn with_stuck(mut self, rate: f64, periods: u64) -> Self {
        self.stuck_rate = rate;
        self.stuck_periods = periods.max(1);
        self
    }

    /// Sets the probe-timeout rate.
    #[must_use]
    pub fn with_timeout_rate(mut self, rate: f64) -> Self {
        self.timeout_rate = rate;
        self
    }
}

/// xorshift64* — tiny, seedable, dependency-free: the one generator behind
/// every seeded fault in the workspace (rig faults here, store I/O faults,
/// the chaos campaign), so equal seeds behave alike everywhere.
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// A generator seeded with `seed` (its low bit forced on, avoiding the
    /// all-zero fixed point).
    pub fn new(seed: u64) -> Self {
        XorShift(seed | 1)
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// `true` with probability `rate` (clamped to `[0, 1]`: a rate of 0 or
    /// 1 decides without a draw).
    pub fn roll(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < rate
    }
}

/// Wraps a component behind an unreliable rig that injects seeded transient
/// faults per [`RigFaultProfile`].
///
/// ```
/// use muml_automata::Universe;
/// use muml_legacy::{LegacyComponent, MealyBuilder, RigFaultProfile, UnreliableRig};
///
/// let u = Universe::new();
/// let m = MealyBuilder::new(&u, "legacy")
///     .input("go").output("ack")
///     .state("idle").initial("idle")
///     .rule("idle", ["go"], ["ack"], "idle")
///     .build().unwrap();
/// // A clean profile is transparent:
/// let mut rig = UnreliableRig::new(m, RigFaultProfile::clean(7));
/// assert_eq!(rig.step(u.signals(["go"])), u.signals(["ack"]));
/// assert_eq!(rig.total_injected(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct UnreliableRig<C> {
    inner: C,
    profile: RigFaultProfile,
    rng: XorShift,
    stuck_left: u64,
    last_outputs: SignalSet,
    counts: [usize; 5],
}

impl<C> UnreliableRig<C> {
    /// Wraps `inner` behind a rig with the given fault profile.
    pub fn new(inner: C, profile: RigFaultProfile) -> Self {
        UnreliableRig {
            inner,
            profile,
            rng: XorShift::new(profile.seed),
            stuck_left: 0,
            last_outputs: SignalSet::EMPTY,
            counts: [0; 5],
        }
    }

    /// The wrapped component.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps the component.
    pub fn into_inner(self) -> C {
        self.inner
    }

    /// Injected-fault counters, one per [`RigFault`] kind in
    /// [`RigFault::all`] order.
    pub fn fault_counts(&self) -> [(RigFault, usize); 5] {
        let kinds = RigFault::all();
        [
            (kinds[0], self.counts[0]),
            (kinds[1], self.counts[1]),
            (kinds[2], self.counts[2]),
            (kinds[3], self.counts[3]),
            (kinds[4], self.counts[4]),
        ]
    }

    /// Total faults injected so far.
    pub fn total_injected(&self) -> usize {
        self.counts.iter().sum()
    }

    fn record(&mut self, fault: RigFault) {
        let idx = match fault {
            RigFault::DroppedOutput => 0,
            RigFault::DuplicatedOutput => 1,
            RigFault::SpuriousReset => 2,
            RigFault::StuckPeriod => 3,
            RigFault::ProbeTimeout => 4,
        };
        self.counts[idx] += 1;
    }
}

impl<C: LegacyComponent> LegacyComponent for UnreliableRig<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interface(&self) -> (SignalSet, SignalSet) {
        self.inner.interface()
    }

    fn reset(&mut self) {
        // A commanded reset completes reliably; only the PRNG survives, so
        // the next attempt draws a fresh fault sequence.
        self.inner.reset();
        self.stuck_left = 0;
        self.last_outputs = SignalSet::EMPTY;
    }

    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        // An ongoing stuck episode: the input is not delivered and the
        // harness re-reads stale outputs.
        if self.stuck_left > 0 {
            self.stuck_left -= 1;
            self.record(RigFault::StuckPeriod);
            return self.last_outputs;
        }
        if self.rng.roll(self.profile.stuck_rate) {
            self.stuck_left = self.profile.stuck_periods.max(1) - 1;
            self.record(RigFault::StuckPeriod);
            return self.last_outputs;
        }
        if self.rng.roll(self.profile.timeout_rate) {
            // Round trip timed out: input never delivered, nothing read.
            self.record(RigFault::ProbeTimeout);
            self.last_outputs = SignalSet::EMPTY;
            return SignalSet::EMPTY;
        }
        if self.rng.roll(self.profile.spurious_reset_rate) {
            self.record(RigFault::SpuriousReset);
            self.inner.reset();
        }
        let out = self.inner.step(inputs);
        let seen = if self.rng.roll(self.profile.drop_rate) {
            self.record(RigFault::DroppedOutput);
            SignalSet::EMPTY
        } else if self.rng.roll(self.profile.duplicate_rate) {
            self.record(RigFault::DuplicatedOutput);
            out.union(self.last_outputs)
        } else {
            out
        };
        self.last_outputs = seen;
        seen
    }

    fn period(&self) -> u64 {
        self.inner.period()
    }
}

impl<C: StateObservable + Clone + Send + 'static> StateObservable for UnreliableRig<C> {
    fn observable_state(&self) -> String {
        self.inner.observable_state()
    }

    fn initial_state_name(&self) -> String {
        self.inner.initial_state_name()
    }

    fn deterministic_rig(&self) -> bool {
        // A faulty rig is nondeterministic by design: the PRNG survives
        // resets, so consecutive attempts see different transient faults.
        self.profile.is_clean() && self.inner.deterministic_rig()
    }

    fn rig_token(&self) -> String {
        let inner = self.inner.rig_token();
        if inner.is_empty() {
            self.profile.token()
        } else {
            format!("{}+{inner}", self.profile.token())
        }
    }

    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        // Forking a faulty rig would duplicate its PRNG: parallel attempts
        // would replay identical fault draws, which breaks the independence
        // the retry quorum relies on. Only a clean (never-rolling) rig may
        // be snapshotted.
        if self.profile.is_clean() {
            Some(Box::new(self.clone()))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interpreter::MealyBuilder;
    use muml_automata::Universe;

    fn machine(u: &Universe) -> crate::HiddenMealy {
        MealyBuilder::new(u, "m")
            .input("go")
            .output("ack")
            .state("idle")
            .initial("idle")
            .state("run")
            .rule("idle", ["go"], ["ack"], "run")
            .rule("run", [], [], "run")
            .build()
            .unwrap()
    }

    #[test]
    fn clean_profile_is_transparent() {
        let u = Universe::new();
        let mut rig = UnreliableRig::new(machine(&u), RigFaultProfile::clean(42));
        assert_eq!(rig.name(), "m");
        assert_eq!(rig.step(u.signals(["go"])), u.signals(["ack"]));
        assert_eq!(rig.observable_state(), "run");
        assert_eq!(rig.period(), 1);
        assert_eq!(rig.total_injected(), 0);
        rig.reset();
        assert_eq!(rig.observable_state(), "idle");
        assert_eq!(rig.initial_state_name(), "idle");
    }

    #[test]
    fn saturated_drop_rate_mutes_every_output() {
        let u = Universe::new();
        let profile = RigFaultProfile::clean(1).with_drop_rate(1.0);
        let mut rig = UnreliableRig::new(machine(&u), profile);
        assert_eq!(rig.step(u.signals(["go"])), SignalSet::EMPTY);
        assert_eq!(rig.fault_counts()[0], (RigFault::DroppedOutput, 1));
        // The component itself really stepped.
        assert_eq!(rig.observable_state(), "run");
    }

    #[test]
    fn stuck_episode_withholds_inputs_for_its_duration() {
        let u = Universe::new();
        let profile = RigFaultProfile::clean(1).with_stuck(1.0, 3);
        let mut rig = UnreliableRig::new(machine(&u), profile);
        for _ in 0..3 {
            assert_eq!(rig.step(u.signals(["go"])), SignalSet::EMPTY);
        }
        // The input never reached the component.
        assert_eq!(rig.observable_state(), "idle");
        assert_eq!(rig.period(), 0);
        assert_eq!(rig.fault_counts()[3], (RigFault::StuckPeriod, 3));
    }

    #[test]
    fn spurious_reset_really_resets_the_component() {
        let u = Universe::new();
        let profile = RigFaultProfile::clean(1).with_spurious_reset_rate(1.0);
        let mut rig = UnreliableRig::new(machine(&u), profile);
        rig.step(u.signals(["go"]));
        assert_eq!(rig.observable_state(), "run");
        // The reset fires before the next delivery, so the step executes
        // from `idle` again.
        assert_eq!(rig.step(u.signals(["go"])), u.signals(["ack"]));
        assert!(rig.fault_counts()[2].1 >= 1);
    }

    #[test]
    fn identical_seeds_inject_identical_fault_sequences() {
        let u = Universe::new();
        let profile = RigFaultProfile::uniform(99, 0.5);
        let mut a = UnreliableRig::new(machine(&u), profile);
        let mut b = UnreliableRig::new(machine(&u), profile);
        let drive = [u.signals(["go"]), SignalSet::EMPTY, u.signals(["go"])];
        for _ in 0..10 {
            for &i in &drive {
                assert_eq!(a.step(i), b.step(i));
            }
            a.reset();
            b.reset();
        }
        assert_eq!(a.fault_counts(), b.fault_counts());
    }

    #[test]
    fn prng_survives_reset_so_attempts_differ() {
        let u = Universe::new();
        let profile = RigFaultProfile::clean(5).with_drop_rate(0.5);
        let mut rig = UnreliableRig::new(machine(&u), profile);
        let mut outcomes = Vec::new();
        for _ in 0..32 {
            rig.reset();
            outcomes.push(rig.step(u.signals(["go"])));
        }
        // At a 50% drop rate, 32 attempts must not all agree.
        assert!(outcomes.contains(&u.signals(["ack"])));
        assert!(outcomes.contains(&SignalSet::EMPTY));
    }

    #[test]
    fn duplicate_merges_previous_outputs() {
        let u = Universe::new();
        let m = MealyBuilder::new(&u, "m")
            .input("a")
            .output("x")
            .output("y")
            .state("s")
            .initial("s")
            .state("t")
            .rule("s", ["a"], ["x"], "t")
            .rule("t", ["a"], ["y"], "s")
            .build()
            .unwrap();
        let profile = RigFaultProfile::clean(1).with_duplicate_rate(1.0);
        let mut rig = UnreliableRig::new(m, profile);
        assert_eq!(rig.step(u.signals(["a"])), u.signals(["x"]));
        // Period 2 really answers {y}; the stale {x} is merged in.
        assert_eq!(rig.step(u.signals(["a"])), u.signals(["x", "y"]));
        assert_eq!(rig.fault_counts()[1].1, 2);
    }
}
