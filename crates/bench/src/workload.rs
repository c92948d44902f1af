//! Parametric workloads for the experiment tables T-A … T-E (DESIGN.md §3).
//!
//! The scalable scenario is a *counter protocol*: the legacy component is a
//! hidden `n`-state counter that silently counts `up` inputs and announces
//! `top` when saturated; the context is a driver that pushes the counter
//! `k` times and then idles. The parameter `k/n` is the **context
//! restrictiveness**: the smaller it is, the smaller the fraction of the
//! component the paper's approach has to learn, while full-learning
//! baselines always pay for all `n` states (they cannot know the context
//! will never reach the rest).

use muml_automata::{Automaton, AutomatonBuilder, SignalSet, Universe};
use muml_legacy::{Fault, HiddenMealy, MealyBuilder};

/// A generated counter-protocol workload.
pub struct CounterWorkload {
    /// The shared universe.
    pub universe: Universe,
    /// The driver context (pushes `k` times, then idles).
    pub context: Automaton,
    /// The hidden counter component (`n` states).
    pub component: HiddenMealy,
    /// Number of component states.
    pub n: usize,
    /// Number of pushes the context performs.
    pub k: usize,
}

/// Builds the `n`-state counter component: state `c0 … c(n-1)`; `up`
/// advances, the saturated top state replies `top` to further pushes.
/// Unknown inputs leave it quiet (a typical reactive legacy component).
pub fn counter_component(u: &Universe, n: usize) -> HiddenMealy {
    assert!(n >= 2, "counter needs at least 2 states");
    let mut b = MealyBuilder::new(u, "counter").input("up").output("top");
    for i in 0..n {
        b = b.state(&format!("c{i}"));
    }
    b = b.initial("c0");
    for i in 0..n - 1 {
        b = b.rule(&format!("c{i}"), ["up"], [], &format!("c{}", i + 1));
        b = b.rule(&format!("c{i}"), [], [], &format!("c{i}"));
    }
    let top = format!("c{}", n - 1);
    b = b.rule(&top, ["up"], ["top"], &top);
    b = b.rule(&top, [], [], &top);
    b.build().expect("counter is well-formed")
}

/// Builds the driver context: `k` pushes, then idle forever. The driver
/// never listens for `top` — if the component ever announced it, the
/// composition would deadlock (which is exactly what happens when a seeded
/// fault makes the counter saturate early).
pub fn driver_context(u: &Universe, k: usize) -> Automaton {
    let mut b = AutomatonBuilder::new(u, "driver").output("up").input("top");
    for i in 0..=k {
        b = b.state(&format!("d{i}"));
    }
    b = b.initial("d0");
    for i in 0..k {
        b = b.transition(&format!("d{i}"), [], ["up"], &format!("d{}", i + 1));
    }
    b = b.transition(&format!("d{k}"), [], [], &format!("d{k}"));
    b.build().expect("driver is well-formed")
}

/// A counter workload with `n` component states and `k` context pushes
/// (`k ≤ n - 2` keeps the composition fault-free: the counter never
/// saturates).
pub fn counter_workload(n: usize, k: usize) -> CounterWorkload {
    let u = Universe::new();
    let component = counter_component(&u, n);
    let context = driver_context(&u, k);
    CounterWorkload {
        universe: u,
        context,
        component,
        n,
        k,
    }
}

/// A counter workload whose context is the `k`-push driver composed with a
/// grid of three free-running 5-phase tickers ([`ticker_workload`]): a
/// context of several hundred states, so composing it with the counter's
/// closure, not the rig, dominates the loop. `n = 10, k = 8` is the
/// served benchmark's warm cell.
pub fn ticker_counter_workload(n: usize, k: usize) -> CounterWorkload {
    let grid = ticker_workload(3, 5, 0);
    let driver = driver_context(&grid.universe, k);
    let mut parts = vec![&driver];
    parts.extend(grid.parts.iter());
    let context = muml_automata::compose(&parts, &muml_automata::ComposeOptions::default())
        .expect("driver and tickers compose")
        .automaton;
    CounterWorkload {
        component: counter_component(&grid.universe, n),
        universe: grid.universe,
        context,
        n,
        k,
    }
}

/// Seeds the paper-style fault at depth `d`: the counter mis-announces
/// `top` already when leaving state `c(d)` — an early saturation the
/// context cannot accept, i.e. a real integration fault reachable after
/// `d + 1` pushes.
pub fn seed_fault(w: &mut CounterWorkload, d: usize) {
    assert!(d < w.n - 1, "fault depth must lie inside the counter");
    muml_legacy::inject(
        &mut w.component,
        &w.universe,
        &Fault::ChangeOutput {
            state: format!("c{d}"),
            inputs: vec!["up".into()],
            new_outputs: vec!["top".into()],
        },
    )
    .expect("fault targets an existing rule");
}

/// The learning alphabet of the counter protocol (for the `L*`/BBC
/// baselines): the inputs the context can offer.
pub fn counter_alphabet(u: &Universe) -> Vec<SignalSet> {
    vec![SignalSet::EMPTY, u.signals(["up"])]
}

/// A two-component workload for T-E: the driver alternates pushes between
/// two independent counters.
pub struct TwinWorkload {
    /// The shared universe.
    pub universe: Universe,
    /// The alternating driver.
    pub context: Automaton,
    /// First counter (signals `up1`/`top1`).
    pub left: HiddenMealy,
    /// Second counter (signals `up2`/`top2`).
    pub right: HiddenMealy,
}

/// Builds the twin-counter workload: each counter has `n` states; the
/// driver pushes each `k` times, alternating.
pub fn twin_workload(n: usize, k: usize) -> TwinWorkload {
    let u = Universe::new();
    let mk = |tag: &str| -> HiddenMealy {
        let mut b = MealyBuilder::new(&u, &format!("counter{tag}"))
            .input(&format!("up{tag}"))
            .output(&format!("top{tag}"));
        for i in 0..n {
            b = b.state(&format!("c{i}"));
        }
        b = b.initial("c0");
        for i in 0..n - 1 {
            b = b.rule(
                &format!("c{i}"),
                [format!("up{tag}").as_str()],
                [],
                &format!("c{}", i + 1),
            );
            b = b.rule(&format!("c{i}"), [], [], &format!("c{i}"));
        }
        let top = format!("c{}", n - 1);
        b = b.rule(
            &top,
            [format!("up{tag}").as_str()],
            [format!("top{tag}").as_str()],
            &top,
        );
        b = b.rule(&top, [], [], &top);
        b.build().expect("twin counter is well-formed")
    };
    let left = mk("1");
    let right = mk("2");
    let mut b = AutomatonBuilder::new(&u, "driver")
        .outputs(["up1", "up2"])
        .inputs(["top1", "top2"]);
    for i in 0..=(2 * k) {
        b = b.state(&format!("d{i}"));
    }
    b = b.initial("d0");
    for i in 0..(2 * k) {
        let sig = if i % 2 == 0 { "up1" } else { "up2" };
        b = b.transition(&format!("d{i}"), [], [sig], &format!("d{}", i + 1));
    }
    b = b.transition(&format!("d{}", 2 * k), [], [], &format!("d{}", 2 * k));
    let context = b.build().expect("twin driver is well-formed");
    TwinWorkload {
        universe: u,
        context,
        left,
        right,
    }
}

/// A generated ticker-grid workload: `k` independent free-running tickers
/// whose product has exactly `m^k` reachable states (see
/// [`ticker_workload`]).
pub struct TickerWorkload {
    /// The shared universe.
    pub universe: Universe,
    /// The `k` ticker automata, ready to compose.
    pub parts: Vec<Automaton>,
    /// Cycle length of each ticker.
    pub m: usize,
    /// The full product size, `m^k`.
    pub product_states: usize,
}

/// Builds `k` independent `m`-state cycle automata ("tickers"). Each
/// ticker `i` either stutters in place or advances one step emitting its
/// private output `tick{i}` — nobody listens to it — so every product step
/// advances an arbitrary subset of tickers and **all `m^k` phase tuples
/// are reachable** (with `2^k` successors each): a dense, deadlock-free
/// product whose size is known in closed form, and the compose-bound
/// context of [`ticker_counter_workload`] and of servebench's
/// `ticker-kernel` workload.
///
/// Ticker 0 carries the proposition `bad` on its state `s{bad_depth}`, so
/// `AG !bad` is falsified by a shortest trace of `bad_depth` steps, while
/// `AG !deadlock` holds.
pub fn ticker_workload(k: usize, m: usize, bad_depth: usize) -> TickerWorkload {
    assert!(k >= 1 && m >= 2, "need at least one 2-state ticker");
    assert!(bad_depth < m, "bad state must lie on the cycle");
    let u = Universe::new();
    let parts: Vec<Automaton> = (0..k)
        .map(|i| {
            let tick = format!("tick{i}");
            let mut b = AutomatonBuilder::new(&u, &format!("t{i}")).output(&tick);
            for j in 0..m {
                b = b.state(&format!("s{j}"));
            }
            b = b.initial("s0");
            if i == 0 {
                b = b.prop(&format!("s{bad_depth}"), "bad");
            }
            for j in 0..m {
                let here = format!("s{j}");
                let next = format!("s{}", (j + 1) % m);
                b = b.transition(&here, [], [], &here);
                b = b.transition(&here, [], [tick.as_str()], &next);
            }
            b.build().expect("ticker is well-formed")
        })
        .collect();
    TickerWorkload {
        universe: u,
        parts,
        m,
        product_states: m.pow(k as u32),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_legacy::{LegacyComponent, StateObservable};

    #[test]
    fn counter_counts_and_saturates() {
        let w = counter_workload(4, 2);
        let mut c = w.component;
        let up = w.universe.signals(["up"]);
        let top = w.universe.signals(["top"]);
        assert_eq!(c.step(up), SignalSet::EMPTY);
        assert_eq!(c.step(up), SignalSet::EMPTY);
        assert_eq!(c.step(up), SignalSet::EMPTY); // now at c3 (top)
        assert_eq!(c.step(up), top);
        assert_eq!(c.observable_state(), "c3");
    }

    #[test]
    fn seeded_fault_saturates_early() {
        let mut w = counter_workload(6, 3);
        seed_fault(&mut w, 1);
        let up = w.universe.signals(["up"]);
        let top = w.universe.signals(["top"]);
        let mut c = w.component;
        assert_eq!(c.step(up), SignalSet::EMPTY);
        assert_eq!(c.step(up), top); // announced far too early
    }

    #[test]
    fn driver_pushes_then_idles() {
        let u = Universe::new();
        let d = driver_context(&u, 2);
        assert_eq!(d.state_count(), 3);
        let d2 = d.find_state("d2").unwrap();
        assert!(d.enables(d2, muml_automata::Label::EMPTY));
    }

    #[test]
    fn twin_workload_is_composable() {
        let w = twin_workload(3, 2);
        assert_eq!(w.context.state_count(), 5);
        let (i1, o1) = w.left.interface();
        let (i2, o2) = w.right.interface();
        assert!(i1.is_disjoint(i2));
        assert!(o1.is_disjoint(o2));
    }
}
