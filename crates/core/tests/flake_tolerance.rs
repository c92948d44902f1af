//! Graceful degradation of the driver under unreliable test execution:
//! a nondeterministic component (or a rig too flaky to produce a quorum)
//! must surface as a typed error or an honest `Inconclusive` verdict —
//! never as a panic and never as a flipped verdict.

use muml_automata::{Automaton, AutomatonBuilder, SignalSet, Universe};
use muml_core::{
    verify_integration, CoreError, IntegrationConfig, IntegrationSession, IntegrationVerdict,
    IterationOutcome, LegacyUnit,
};
use muml_legacy::{
    HiddenMealy, LegacyComponent, MealyBuilder, PortMap, RetryPolicy, RigFaultProfile,
    StateObservable, UnreliableRig,
};
use muml_obs::Collector;

/// Context: a controller that forever sends `cmd` and expects `ack` one
/// period later.
fn controller(u: &Universe) -> Automaton {
    AutomatonBuilder::new(u, "ctx")
        .output("cmd")
        .input("ack")
        .state("send")
        .initial("send")
        .state("wait")
        .transition("send", [], ["cmd"], "wait")
        .transition("wait", ["ack"], [], "send")
        .build()
        .unwrap()
}

/// A conforming component: cmd → (one period) → ack.
fn good_component(u: &Universe) -> HiddenMealy {
    MealyBuilder::new(u, "legacy")
        .input("cmd")
        .output("ack")
        .state("idle")
        .initial("idle")
        .state("got")
        .rule("idle", ["cmd"], [], "got")
        .rule("got", [], ["ack"], "idle")
        .build()
        .unwrap()
}

/// A deliberately nondeterministic test double: it acknowledges `cmd` only
/// on every second reset, so the executor's record and replay phases (one
/// reset apart) always disagree — every attempt fails the replay
/// cross-check and no quorum can ever form.
struct Wobbly {
    cmd: SignalSet,
    ack: SignalSet,
    resets: u64,
    steps: u64,
    pending: bool,
}

impl Wobbly {
    fn new(u: &Universe) -> Self {
        Wobbly {
            cmd: u.signals(["cmd"]),
            ack: u.signals(["ack"]),
            resets: 0,
            steps: 0,
            pending: false,
        }
    }
}

impl LegacyComponent for Wobbly {
    fn name(&self) -> &str {
        "wobbly"
    }
    fn interface(&self) -> (SignalSet, SignalSet) {
        (self.cmd, self.ack)
    }
    fn reset(&mut self) {
        self.resets += 1;
        self.steps = 0;
        self.pending = false;
    }
    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        self.steps += 1;
        let answer = self.pending && self.resets.is_multiple_of(2);
        self.pending = !inputs.intersection(self.cmd).is_empty();
        if answer {
            self.ack
        } else {
            SignalSet::EMPTY
        }
    }
    fn period(&self) -> u64 {
        self.steps
    }
}

impl StateObservable for Wobbly {
    fn observable_state(&self) -> String {
        if self.pending { "got" } else { "idle" }.to_owned()
    }
    fn initial_state_name(&self) -> String {
        "idle".to_owned()
    }
}

#[test]
fn nondeterministic_component_degrades_to_inconclusive() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = Wobbly::new(&u);
    let mut sink = Collector::new();
    let report = IntegrationSession::new(&u, &ctx)
        .unit(LegacyUnit::new(&mut c, PortMap::with_default("port")))
        .sink(&mut sink)
        .run()
        .unwrap();
    match &report.verdict {
        IntegrationVerdict::Inconclusive {
            quarantined,
            attempts,
        } => {
            assert!(*quarantined >= 1, "quarantined {quarantined}");
            assert!(*attempts > 1, "attempts {attempts}");
        }
        v => panic!("expected Inconclusive, got {v:?}"),
    }
    assert!(!report.verdict.conclusive());
    // The degradation is visible in the stats and the event stream.
    assert!(report.stats.inconclusive_tests >= 1);
    assert!(report.stats.quarantined_tests >= 1);
    assert!(report.stats.suspected_rig_faults >= 1);
    assert!(report.stats.test_retries >= 1);
    let kinds = sink.kinds();
    assert!(kinds.contains(&"test_retried"), "{kinds:?}");
    assert!(kinds.contains(&"rig_fault"), "{kinds:?}");
    assert!(kinds.contains(&"quarantined"), "{kinds:?}");
    assert!(matches!(
        report.iterations.last().unwrap().outcome,
        IterationOutcome::Quarantined { .. }
    ));
}

#[test]
fn zero_flake_budget_surfaces_the_typed_error() {
    let u = Universe::new();
    let ctx = controller(&u);
    let mut c = Wobbly::new(&u);
    let mut units = [LegacyUnit::new(&mut c, PortMap::with_default("port"))];
    let err = verify_integration(
        &u,
        &ctx,
        &[],
        &mut units,
        &IntegrationConfig::default().with_flake_budget(0),
    )
    .unwrap_err();
    match err {
        CoreError::Nondeterministic { component, .. } => assert_eq!(component, "wobbly"),
        e => panic!("expected Nondeterministic, got {e:?}"),
    }
}

#[test]
fn modest_rig_flakiness_still_proves_the_good_component() {
    let u = Universe::new();
    let ctx = controller(&u);
    let config = IntegrationConfig::default().with_retry_policy(
        RetryPolicy::default()
            .with_max_attempts(10)
            .with_quorum(2)
            .with_backoff(1, 2, 16),
    );
    let mut rig = UnreliableRig::new(good_component(&u), RigFaultProfile::uniform(0xC0FFEE, 0.1));
    let report = {
        let mut units = [LegacyUnit::new(&mut rig, PortMap::with_default("port"))];
        verify_integration(&u, &ctx, &[], &mut units, &config).unwrap()
    };
    assert!(report.verdict.proven(), "{:?}", report.verdict);
    // The rig really misbehaved and the retry machinery really worked.
    assert!(rig.total_injected() >= 1);
    assert!(report.stats.test_attempts > report.stats.tests_executed);
}

#[test]
fn modest_rig_flakiness_still_confirms_the_real_deadlock() {
    // Counter protocol (as in the storm campaign): a 4-state counter whose
    // seeded early `top` announcement deadlocks a 2-push driver. The
    // confirmed deadlock path exercises frontier probing — every probe and
    // frontier read-back runs through the retrying executor.
    let u = Universe::new();
    let mut ctx = AutomatonBuilder::new(&u, "driver")
        .output("up")
        .input("top");
    for i in 0..=2 {
        ctx = ctx.state(&format!("d{i}"));
    }
    let ctx = ctx
        .initial("d0")
        .transition("d0", [], ["up"], "d1")
        .transition("d1", [], ["up"], "d2")
        .transition("d2", [], [], "d2")
        .build()
        .unwrap();
    // c0 --up--> c1 --up/top--> c1: announces `top` on the second push,
    // which the driver cannot accept.
    let counter = MealyBuilder::new(&u, "counter")
        .input("up")
        .output("top")
        .state("c0")
        .initial("c0")
        .state("c1")
        .rule("c0", ["up"], [], "c1")
        .rule("c0", [], [], "c0")
        .rule("c1", ["up"], ["top"], "c1")
        .rule("c1", [], [], "c1")
        .build()
        .unwrap();
    let config = IntegrationConfig::default().with_retry_policy(
        RetryPolicy::default()
            .with_max_attempts(10)
            .with_quorum(2)
            .with_backoff(1, 2, 16),
    );
    let mut rig = UnreliableRig::new(counter, RigFaultProfile::uniform(0xBEEF, 0.1));
    let report = {
        let mut units = [LegacyUnit::new(&mut rig, PortMap::with_default("p"))];
        verify_integration(&u, &ctx, &[], &mut units, &config).unwrap()
    };
    match &report.verdict {
        IntegrationVerdict::RealFault { property, .. } => {
            assert!(property.contains("deadlock"), "{property}");
        }
        v => panic!("expected RealFault, got {v:?}"),
    }
    assert!(rig.total_injected() >= 1);
}

/// An `n`-state counter announcing `top` only when pushed at saturation,
/// and a driver pushing it `k` times: for `k ≤ n - 2` the pair is correct.
fn counter_pair(u: &Universe, n: usize, k: usize) -> (Automaton, HiddenMealy) {
    let mut ctx = AutomatonBuilder::new(u, "driver").output("up").input("top");
    for i in 0..=k {
        ctx = ctx.state(&format!("d{i}"));
    }
    ctx = ctx.initial("d0");
    for i in 0..k {
        ctx = ctx.transition(&format!("d{i}"), [], ["up"], &format!("d{}", i + 1));
    }
    let ctx = ctx
        .transition(&format!("d{k}"), [], [], &format!("d{k}"))
        .build()
        .unwrap();
    let mut counter = MealyBuilder::new(u, "counter").input("up").output("top");
    for i in 0..n {
        counter = counter.state(&format!("c{i}"));
    }
    counter = counter.initial("c0");
    for i in 0..n - 1 {
        counter = counter
            .rule(&format!("c{i}"), ["up"], [], &format!("c{}", i + 1))
            .rule(&format!("c{i}"), [], [], &format!("c{i}"));
    }
    let top = format!("c{}", n - 1);
    let counter = counter
        .rule(&top, ["up"], ["top"], &top)
        .rule(&top, [], [], &top)
        .build()
        .unwrap();
    (ctx, counter)
}

/// When a clonable liar lies.
#[derive(Debug, Clone, Copy)]
enum Lie {
    /// Lies from period `from` on, after every even-numbered reset.
    ResetParity { from: u64 },
    /// Lies from its `from`-th step counted across resets (and clones keep
    /// the count), for ever after.
    LifetimeStep { from: u64 },
}

/// A clonable determinism liar: it claims `deterministic_rig()` (the trait
/// default) and can be cloned, so the trace cache checkpoints it and
/// verifies it by its own drives — but it adds `top` to its answer
/// whenever its [`Lie`] says so.
#[derive(Debug, Clone)]
struct Liar {
    inner: HiddenMealy,
    lie: Lie,
    top: SignalSet,
    resets: u64,
    lifetime: u64,
}

impl Liar {
    fn new(inner: HiddenMealy, lie: Lie, u: &Universe) -> Self {
        Liar {
            inner,
            lie,
            top: u.signals(["top"]),
            resets: 0,
            lifetime: 0,
        }
    }
}

impl LegacyComponent for Liar {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn interface(&self) -> (SignalSet, SignalSet) {
        self.inner.interface()
    }
    fn reset(&mut self) {
        self.resets += 1;
        self.inner.reset();
    }
    fn step(&mut self, inputs: SignalSet) -> SignalSet {
        self.lifetime += 1;
        let out = self.inner.step(inputs);
        let lying = match self.lie {
            Lie::ResetParity { from } => {
                self.resets.is_multiple_of(2) && self.inner.period() >= from
            }
            Lie::LifetimeStep { from } => self.lifetime >= from,
        };
        if lying {
            out.union(self.top)
        } else {
            out
        }
    }
    fn period(&self) -> u64 {
        self.inner.period()
    }
}

impl StateObservable for Liar {
    fn observable_state(&self) -> String {
        self.inner.observable_state()
    }
    fn initial_state_name(&self) -> String {
        self.inner.initial_state_name()
    }
    fn try_clone_boxed(&self) -> Option<Box<dyn StateObservable + Send>> {
        Some(Box::new(self.clone()))
    }
}

/// The clonable liars against a correct 8-push driver / 10-state counter
/// pair, serially and on the probe pool.
///
/// A reset-parity liar is caught — the cache's checkpoint and witness
/// lineages descend from resets of different parity — and degrades to
/// `Inconclusive` exactly as the serial executor would make it. A
/// lifetime-step liar is the residual gap of DESIGN.md §17: its clones keep
/// its step count, and in a fresh loop (whose first test is the empty word)
/// both lineages reach every depth after the same number of steps, so the
/// cache cannot tell it from a deterministic component and the loop
/// concludes from the lie (a fault once the lie shows within the tested
/// depth). This test pins that gap, it does not close it.
#[test]
fn clonable_liars_are_caught_or_consistently_believed() {
    for (lie, caught, proven) in [
        (Lie::ResetParity { from: 1 }, true, false),
        (Lie::ResetParity { from: 3 }, true, false),
        (Lie::LifetimeStep { from: 4 }, false, false),
        (Lie::LifetimeStep { from: 12 }, false, true),
    ] {
        for parallelism in [1usize, 4] {
            let u = Universe::new();
            let (ctx, counter) = counter_pair(&u, 10, 8);
            let mut liar = Liar::new(counter, lie, &u);
            let mut units = [LegacyUnit::new(&mut liar, PortMap::with_default("p"))];
            let tag = format!("{lie:?} parallelism={parallelism}");
            let report = verify_integration(
                &u,
                &ctx,
                &[],
                &mut units,
                &IntegrationConfig::default().with_test_parallelism(parallelism),
            )
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
            match &report.verdict {
                IntegrationVerdict::Inconclusive { .. } => assert!(caught, "{tag}"),
                IntegrationVerdict::RealFault { property, .. } => {
                    assert!(!caught && !proven, "{tag}: {property}");
                }
                IntegrationVerdict::Proven => assert!(proven, "{tag}"),
            }
            // A caught liar fails the serial cross-check from then on.
            assert_eq!(report.stats.suspected_rig_faults > 0, caught, "{tag}");
        }
    }
}
