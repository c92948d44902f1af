//! Graphviz DOT export, used to regenerate the paper's figures.

use std::fmt::Write as _;

use crate::automaton::Automaton;
use crate::label::Guard;

/// Renders `m` as a Graphviz digraph.
///
/// Initial states are drawn with a double circle (the convention of the
/// paper's figures); symbolic `*` transitions are rendered as `*` with the
/// exclusion count, matching Figure 3/4 style.
pub fn to_dot(m: &Automaton) -> String {
    let u = m.universe();
    let mut out = String::new();
    let _ = writeln!(out, "digraph \"{}\" {{", m.name());
    let _ = writeln!(out, "  rankdir=LR;");
    let _ = writeln!(out, "  node [shape=circle];");
    for s in m.state_ids() {
        let shape = if m.initial_states().contains(&s) {
            "doublecircle"
        } else {
            "circle"
        };
        let props = m.props_of(s);
        let label = if props.is_empty() {
            m.state_name(s).to_owned()
        } else {
            format!("{}\\n{}", m.state_name(s), u.show_props(props))
        };
        let _ = writeln!(out, "  s{} [shape={shape}, label=\"{label}\"];", s.0);
    }
    for (from, t) in m.transitions() {
        let label = match m.guard(t.guard) {
            Guard::Exact(l) => l.show(u),
            Guard::Family(f) => {
                if f.excluded.is_empty() && f.in_must.is_empty() && f.out_must.is_empty() {
                    "*".to_owned()
                } else if f.excluded.is_empty() {
                    format!(
                        "{}+*/{}+*",
                        u.show_signals(f.in_must),
                        u.show_signals(f.out_must)
                    )
                } else {
                    format!("* \\\\ {} excl.", f.excluded.len())
                }
            }
        };
        let _ = writeln!(out, "  s{} -> s{} [label=\"{label}\"];", from.0, t.to.0);
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AutomatonBuilder;
    use crate::chaos::chaotic_automaton;
    use crate::universe::Universe;

    #[test]
    fn dot_contains_states_and_edges() {
        let u = Universe::new();
        let m = AutomatonBuilder::new(&u, "m")
            .input("a")
            .state("s0")
            .initial("s0")
            .state("s1")
            .prop("s1", "p")
            .transition("s0", ["a"], [], "s1")
            .build()
            .unwrap();
        let dot = to_dot(&m);
        assert!(dot.contains("digraph \"m\""));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("{a}/{}"));
        assert!(dot.contains("{p}"));
    }

    #[test]
    fn chaotic_star_is_rendered() {
        let u = Universe::new();
        let mc = chaotic_automaton(&u, "mc", u.signals(["a"]), u.signals(["b"]), None);
        let dot = to_dot(&mc);
        assert!(dot.contains("\"*\""));
        assert!(dot.contains("s_all"));
        assert!(dot.contains("s_delta"));
    }
}
