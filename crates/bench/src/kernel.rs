//! The kernel artefacts: `repro check` (the pre-rewrite sweep checker
//! against the bitset/worklist checker) and table T-D (chaotic closure,
//! composition, checking and refinement on growing counters). Both work
//! on a late iteration of the counter workload: the component's
//! context-reachable prefix pre-learned, chaotically closed and composed
//! with the driver.

use muml_automata::{
    chaotic_closure, compose2, refines_with, IncompleteAutomaton, Label, Observation, PropSet,
    RefineOptions, SignalSet, CHAOS_PROP,
};
use muml_core::{default_mapper, initial_knowledge};
use muml_logic::{parse, Checker, Formula};
use muml_testkit::ReferenceChecker;

use crate::envelope::{timed, Cell};
use crate::workload::{counter_workload, CounterWorkload};

/// The property set `repro check` times both kernels on: deadlock freedom
/// plus a spread of unbounded (worklist) and bounded (backward-induction)
/// CCTL shapes over the only two predicates every composition carries.
pub const CHECK_FORMULAS: [&str; 6] = [
    "AG !deadlock",
    "EF deadlock",
    "AF[1,6] deadlock",
    "E[!__chaos__ U deadlock]",
    "AG (__chaos__ -> EF deadlock)",
    "EG !deadlock",
];

/// The late-iteration knowledge of a counter workload: `M_l` with the
/// first `n / 2` pushes learned.
fn late_knowledge(w: &CounterWorkload) -> IncompleteAutomaton {
    let mapper = default_mapper("counter");
    let mut inc = initial_knowledge(&w.universe, &w.component, &mapper);
    let up = w.universe.signals(["up"]);
    let mut states = vec!["c0".to_owned()];
    let mut labels = Vec::new();
    for i in 1..=(w.n / 2) {
        states.push(format!("c{i}"));
        labels.push(Label::new(up, SignalSet::EMPTY));
    }
    inc.learn(&Observation::regular(states, labels))
        .expect("consistent");
    inc
}

/// `repro check`: per counter size, both kernels check [`CHECK_FORMULAS`]
/// on the late-iteration composition. Their verdicts must agree (panics
/// otherwise). Each cell carries the verdicts, both kernels' work counters
/// and their wall times; a `total` cell sums the times.
pub fn check_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    let (mut total_old, mut total_new) = (0, 0);
    for n in [8usize, 16, 32, 64, 128] {
        let w = counter_workload(n, n / 2);
        let inc = late_knowledge(&w);
        let closure = chaotic_closure(&inc, Some(w.universe.prop(CHAOS_PROP)));
        let comp = compose2(&w.context, &closure).expect("composes");
        let fs: Vec<Formula> = CHECK_FORMULAS
            .iter()
            .map(|s| parse(&w.universe, s).expect("formula parses"))
            .collect();
        let ((old_verdicts, old), old_ns) = timed(|| {
            let mut old = ReferenceChecker::new(&comp.automaton);
            let verdicts: Vec<bool> = fs.iter().map(|f| old.satisfies(f)).collect();
            (verdicts, old)
        });
        let ((new_verdicts, new), new_ns) = timed(|| {
            let mut new = Checker::with_csr(&comp.automaton, &comp.csr);
            let verdicts: Vec<bool> = fs.iter().map(|f| new.satisfies(f)).collect();
            (verdicts, new.stats)
        });
        assert_eq!(
            old_verdicts, new_verdicts,
            "kernel verdicts diverge at n={n}"
        );
        total_old += old_ns;
        total_new += new_ns;
        let mut cell = Cell::new(format!("n={n}"))
            .counter("n", n)
            .counter("product_states", comp.automaton.state_count());
        for (formula, verdict) in CHECK_FORMULAS.iter().zip(new_verdicts) {
            cell = cell.counter(formula, verdict);
        }
        cells.push(
            cell.counter("old_fixpoint_iterations", old.iterations)
                .counter("old_labeled_states", old.labeled_states)
                .counter("new_fixpoint_iterations", new.fixpoint_iterations)
                .counter("new_labeled_states", new.labeled_states)
                .counter("new_words_touched", new.words_touched)
                .counter("new_worklist_pops", new.worklist_pops)
                .counter("new_peak_resident_sets", new.peak_resident_sets)
                .wall("old", old_ns)
                .wall("new", new_ns),
        );
    }
    cells.push(
        Cell::new("total")
            .wall("old", total_old)
            .wall("new", total_new),
    );
    cells
}

/// Table T-D: per counter size, the late iteration's closure, product,
/// deadlock check and refinement (the known part refines its own closure,
/// Theorem 1), each timed.
pub fn table_d(sizes: &[usize]) -> Vec<Cell> {
    sizes
        .iter()
        .map(|&n| {
            let w = counter_workload(n, n / 2);
            let inc = late_knowledge(&w);
            let chaos = w.universe.prop(CHAOS_PROP);
            let (closure, closure_ns) = timed(|| chaotic_closure(&inc, Some(chaos)));
            let (comp, compose_ns) = timed(|| compose2(&w.context, &closure).expect("composes"));
            let ((holds, iterations), check_ns) = timed(|| {
                let mut checker = Checker::with_csr(&comp.automaton, &comp.csr);
                let holds = checker.satisfies(&Formula::deadlock_free());
                (holds, checker.stats.fixpoint_iterations)
            });
            let known = inc.known_automaton();
            let opts = RefineOptions {
                wildcard_props: PropSet::singleton(chaos),
                ..RefineOptions::default()
            };
            let (failure, refine_ns) =
                timed(|| refines_with(&known, &closure, &opts).expect("refinement is checkable"));
            Cell::new(format!("T-D/n={n}"))
                .counter("closure_states", closure.state_count())
                .counter("product_states", comp.automaton.state_count())
                .counter("deadlock_free", holds)
                .counter("fixpoint_iterations", iterations)
                .counter("refines", failure.is_none())
                .wall("closure", closure_ns)
                .wall("compose", compose_ns)
                .wall("check", check_ns)
                .wall("refine", refine_ns)
        })
        .collect()
}
