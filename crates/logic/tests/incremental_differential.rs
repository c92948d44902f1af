//! Randomized differential suite for incremental recomposition + warm
//! checking (DESIGN.md §12): 200 seeded learn-loop runs, each a sequence of
//! random observations folded into an [`IncompleteAutomaton`], recomposed
//! through a [`CompositionCache`] and model-checked with seed carry-over.
//! After every round the incremental product must be the cold rebuild's up
//! to a renaming of states (`muml_testkit::assert_same_product`) and the
//! warm-started verdicts must equal a cold checker's.
//!
//! A quarter of the seeds pin the splice threshold to `0.0`, forcing the
//! fallback-to-cold path; another quarter pin it to `1.0`, maximising
//! splices. The suite asserts that both modes were actually exercised.

use std::collections::HashMap;

use muml_automata::{
    chaotic_closure, compose, Automaton, AutomatonBuilder, ComposeOptions, Composition,
    CompositionCache, IncompleteAutomaton, Label, Observation, RecomposeMode, SignalSet, StateId,
    Universe,
};
use muml_logic::{parse, CheckSeed, Checker, Formula};
use muml_testkit::assert_same_product;

/// Deterministic splitmix-style generator — no external dependencies, same
/// stream on every platform.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A random context over outputs `{i0, i1}` and inputs `{o0, o1}`: a chain
/// of 3–6 states whose last state loops back to a random earlier one, each
/// transition carrying a random exact label.
fn random_context(u: &Universe, rng: &mut Lcg) -> Automaton {
    let n = 3 + rng.below(4) as usize;
    let mut b = AutomatonBuilder::new(u, "ctx")
        .outputs(["i0", "i1"])
        .inputs(["o0", "o1"]);
    for i in 0..n {
        b = b.state(&format!("c{i}"));
    }
    b = b.initial("c0");
    fn subset(rng: &mut Lcg, names: [&'static str; 2]) -> Vec<&'static str> {
        let bits = rng.below(4);
        names
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, s)| *s)
            .collect()
    }
    for i in 0..n {
        let to = if i + 1 < n {
            format!("c{}", i + 1)
        } else {
            format!("c{}", rng.below(n as u64))
        };
        let ins = subset(rng, ["o0", "o1"]);
        let outs = subset(rng, ["i0", "i1"]);
        b = b.transition(&format!("c{i}"), ins, outs, &to);
    }
    b.build().expect("random context is well-formed")
}

fn random_label(u: &Universe, rng: &mut Lcg) -> Label {
    let pick = |rng: &mut Lcg, a: &str, b: &str| -> SignalSet {
        match rng.below(4) {
            0 => SignalSet::EMPTY,
            1 => u.signals([a]),
            2 => u.signals([b]),
            _ => u.signals([a, b]),
        }
    };
    Label::new(pick(rng, "i0", "i1"), pick(rng, "o0", "o1"))
}

/// Generates one consistent observation: a random walk from the initial
/// state that replays already-fixed `(state, label) → target` choices (so
/// determinism is never violated) and avoids refused interactions. With
/// some probability the walk ends as a *blocked* observation on a fresh
/// interaction, feeding `T̄`.
#[allow(clippy::type_complexity)]
fn random_observation(
    u: &Universe,
    rng: &mut Lcg,
    steps: &mut HashMap<(String, Label), String>,
    refused: &mut HashMap<(String, Label), ()>,
    fresh: &mut usize,
) -> Observation {
    let mut states = vec!["q0".to_owned()];
    let mut labels = Vec::new();
    let len = 1 + rng.below(4) as usize;
    for _ in 0..len {
        let here = states.last().unwrap().clone();
        let l = random_label(u, rng);
        if refused.contains_key(&(here.clone(), l)) {
            break; // would contradict a recorded refusal — stop the walk
        }
        if !steps.contains_key(&(here.clone(), l)) && rng.below(5) == 0 {
            // End as a refusal of this so-far-unknown interaction: blocked
            // observations have one label per state (no final target).
            refused.insert((here, l), ());
            labels.push(l);
            return Observation::blocked(states, labels);
        }
        let to = steps
            .entry((here, l))
            .or_insert_with(|| {
                // Mostly revisit the small pool (creates joins and loops),
                // sometimes mint a fresh state (grows the model).
                if rng.below(3) == 0 {
                    *fresh += 1;
                    format!("q{fresh}")
                } else {
                    format!("q{}", rng.below(4))
                }
            })
            .clone();
        labels.push(l);
        states.push(to);
    }
    Observation::regular(states, labels)
}

fn cold_oracle(ctx: &Automaton, m: &IncompleteAutomaton) -> Composition {
    let closure = chaotic_closure(m, None);
    compose(&[ctx, &closure], &ComposeOptions::default()).expect("cold oracle composes")
}

#[test]
fn randomized_learn_loops_match_cold_rebuilds() {
    const RUNS: u64 = 200;
    let formula_texts = ["AG !deadlock", "EF deadlock", "AF deadlock", "EG !deadlock"];

    let mut incremental_recomposes = 0usize;
    let mut forced_cold_recomposes = 0usize;
    let mut warm_seeded_checks = 0usize;
    let mut unreachable_kept = 0usize;
    let mut compactions = 0usize;

    for seed in 0..RUNS {
        let mut rng = Lcg(0x9E3779B97F4A7C15 ^ (seed.wrapping_mul(0xBF58476D1CE4E5B9)));
        let u = Universe::new();
        let ctx = random_context(&u, &mut rng);
        let formulas: Vec<Formula> = formula_texts
            .iter()
            .map(|s| parse(&u, s).expect("formula parses"))
            .collect();
        let mut m = IncompleteAutomaton::trivial(
            &u,
            "legacy",
            u.signals(["i0", "i1"]),
            u.signals(["o0", "o1"]),
            "q0",
        );
        let mut steps: HashMap<(String, Label), String> = HashMap::new();
        let mut refused: HashMap<(String, Label), ()> = HashMap::new();
        let mut fresh = 0usize;

        let mut cache = CompositionCache::new(&ctx);
        // Quarter of the seeds force the cold fallback, quarter maximise
        // splicing, the rest keep the production default.
        let forced_cold = seed % 4 == 3;
        if forced_cold {
            cache.set_threshold(0.0);
        } else if seed % 4 == 0 {
            cache.set_threshold(1.0);
        }
        let opts = ComposeOptions::default();
        let mut prev_seed: Option<CheckSeed> = None;

        let rounds = 2 + rng.below(4) as usize;
        for round in 0..rounds {
            if round > 0 {
                let obs = random_observation(&u, &mut rng, &mut steps, &mut refused, &mut fresh);
                m.learn(&obs)
                    .expect("generated observations are consistent by construction");
            }
            let deltas = [m.take_delta()];
            let states_before = if round > 0 {
                cache.composition().automaton.state_count()
            } else {
                0
            };
            let (info, carry) = cache
                .recompose(std::slice::from_ref(&m), &deltas, None, &opts)
                .expect("recompose succeeds");
            if info.mode == RecomposeMode::Incremental {
                incremental_recomposes += 1;
                // Ids are stable, so only a compaction shrinks the product.
                if cache.composition().automaton.state_count() < states_before {
                    compactions += 1;
                }
                // Threshold 0.0 only admits the no-op splice of an empty
                // delta; any real dirtiness must have fallen back to cold.
                assert!(
                    !forced_cold || info.dirty_states == 0,
                    "seed {seed}: threshold 0.0 spliced {} dirty states",
                    info.dirty_states
                );
            } else if forced_cold && round > 0 {
                forced_cold_recomposes += 1;
            }
            let comp = cache.composition();
            let cold = cold_oracle(&ctx, &m);
            assert_same_product(&format!("seed {seed} round {round}"), comp, &cold);
            // Carried bits are only valid at states still reachable.
            if let Some(carry) = &carry {
                let reachable = comp.automaton.reachable_states();
                for new in carry.remap.iter().flatten() {
                    assert!(
                        reachable.contains(&StateId(*new)),
                        "seed {seed} round {round}: carried state {new} is unreachable"
                    );
                }
            }
            unreachable_kept =
                unreachable_kept.max(comp.automaton.state_count() - comp.reachable_state_count());

            let mut warm = match (prev_seed.take(), &carry) {
                (Some(s), Some(c)) => {
                    warm_seeded_checks += 1;
                    Checker::with_csr_seeded(&comp.automaton, &comp.csr, s, c)
                }
                _ => Checker::with_csr(&comp.automaton, &comp.csr),
            };
            let mut cold_checker = Checker::with_csr(&cold.automaton, &cold.csr);
            for f in &formulas {
                assert_eq!(
                    warm.satisfies(f),
                    cold_checker.satisfies(f),
                    "seed {seed} round {round}: verdicts diverge on {f:?}"
                );
            }
            prev_seed = Some(warm.into_seed());
        }
    }

    // The suite is only meaningful if both paths actually ran.
    assert!(
        incremental_recomposes > 0,
        "no run ever took the incremental splice path"
    );
    assert!(
        forced_cold_recomposes > 0,
        "the threshold-0.0 fallback was never exercised"
    );
    assert!(
        warm_seeded_checks > 0,
        "no check was ever warm-seeded from a previous round"
    );
    assert!(
        unreachable_kept > 0,
        "no splice ever left an unreachable row behind"
    );
    assert!(compactions > 0, "no splice ever compacted the product");
}
