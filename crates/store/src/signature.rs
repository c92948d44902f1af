//! Content-addressing of legacy components.
//!
//! A [`ComponentSignature`] captures everything that determines a
//! [`HiddenMealy`]'s observable behaviour — name, interface, initial state
//! and rule table — rendered to names and *canonicalized*: every name is
//! trimmed, signal lists are sorted, and the rule set is sorted. Two
//! presentations of the same machine (rules in a different order, names
//! padded with whitespace, universes with different interning orders) thus
//! hash to the same fingerprint, while any semantic edit — a retargeted
//! rule, a changed output set, a dropped rule — produces a different one.

use muml_automata::Universe;
use muml_legacy::{HiddenMealy, LegacyComponent, MealyRule, StateObservable};
use muml_obs::fnv1a64;

/// One canonicalized interpreter rule of a [`ComponentSignature`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct RuleSignature {
    /// Source state name (trimmed).
    pub state: String,
    /// Input signal names (trimmed, sorted).
    pub inputs: Vec<String>,
    /// Output signal names (trimmed, sorted).
    pub outputs: Vec<String>,
    /// Target state name (trimmed).
    pub target: String,
}

impl RuleSignature {
    /// Builds a rule signature, canonicalizing its parts.
    pub fn new(
        state: &str,
        inputs: impl IntoIterator<Item = String>,
        outputs: impl IntoIterator<Item = String>,
        target: &str,
    ) -> Self {
        RuleSignature {
            state: state.trim().to_owned(),
            inputs: sorted_names(inputs),
            outputs: sorted_names(outputs),
            target: target.trim().to_owned(),
        }
    }

    fn from_mealy(rule: &MealyRule) -> Self {
        RuleSignature::new(
            &rule.state,
            rule.inputs.iter().cloned(),
            rule.outputs.iter().cloned(),
            &rule.target,
        )
    }
}

fn sorted_names(names: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut v: Vec<String> = names.into_iter().map(|n| n.trim().to_owned()).collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// The canonicalized identity of a legacy component: what the store keys
/// snapshots by.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSignature {
    /// Component name (trimmed).
    pub name: String,
    /// Input signal names (trimmed, sorted).
    pub inputs: Vec<String>,
    /// Output signal names (trimmed, sorted).
    pub outputs: Vec<String>,
    /// Initial state name (trimmed).
    pub initial: String,
    /// The rule set, canonicalized and sorted.
    pub rules: Vec<RuleSignature>,
}

impl ComponentSignature {
    /// Builds a signature from explicit parts, canonicalizing everything.
    pub fn new(
        name: &str,
        inputs: impl IntoIterator<Item = String>,
        outputs: impl IntoIterator<Item = String>,
        initial: &str,
        rules: impl IntoIterator<Item = RuleSignature>,
    ) -> Self {
        let mut rules: Vec<RuleSignature> = rules.into_iter().collect();
        rules.sort_unstable();
        rules.dedup();
        ComponentSignature {
            name: name.trim().to_owned(),
            inputs: sorted_names(inputs),
            outputs: sorted_names(outputs),
            initial: initial.trim().to_owned(),
            rules,
        }
    }

    /// The signature of an interpreted legacy component, as wired up right
    /// before a verification run (i.e. *after* any fault injection — each
    /// injected variant is its own component as far as the store is
    /// concerned, so every campaign cell warm-starts independently).
    pub fn of_component(m: &HiddenMealy, u: &Universe) -> Self {
        let (inputs, outputs) = m.interface();
        ComponentSignature::new(
            m.name(),
            inputs.iter().map(|s| u.signal_name(s)),
            outputs.iter().map(|s| u.signal_name(s)),
            &m.initial_state_name(),
            m.rules_sorted(u).iter().map(RuleSignature::from_mealy),
        )
    }

    /// The deterministic rendering the fingerprint hashes. One line per
    /// fact; separators that cannot appear in trimmed names keep the
    /// encoding injective per line kind.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        out.push_str("component\t");
        out.push_str(&self.name);
        out.push('\n');
        out.push_str("in\t");
        out.push_str(&self.inputs.join("\t"));
        out.push('\n');
        out.push_str("out\t");
        out.push_str(&self.outputs.join("\t"));
        out.push('\n');
        out.push_str("init\t");
        out.push_str(&self.initial);
        out.push('\n');
        for r in &self.rules {
            out.push_str("rule\t");
            out.push_str(&r.state);
            out.push('\t');
            out.push_str(&r.inputs.join(","));
            out.push('\t');
            out.push_str(&r.outputs.join(","));
            out.push('\t');
            out.push_str(&r.target);
            out.push('\n');
        }
        out
    }

    /// The content address: FNV-1a 64 over [`canonical`](Self::canonical),
    /// as 16 lowercase hex digits. Doubles as the snapshot file stem.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical().as_bytes()))
    }

    /// Whether `other` describes the same component *boundary*: same name,
    /// interface and initial state. Rule differences inside an unchanged
    /// boundary are what dirty-cone invalidation can absorb; a changed
    /// boundary forces a cold start.
    pub fn same_boundary(&self, other: &ComponentSignature) -> bool {
        self.name == other.name
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.initial == other.initial
    }
}

// The JSON encoding embedded in snapshot files. Decoding goes through the
// constructors, which canonicalize.
muml_obs::json_codec! {
    impl ToJson + FromJson for RuleSignature {
        state: "state",
        inputs: "ins",
        outputs: "outs",
        target: "target",
    } then |r: RuleSignature| RuleSignature::new(&r.state, r.inputs, r.outputs, &r.target)
}

muml_obs::json_codec! {
    impl ToJson + FromJson for ComponentSignature {
        name: "name",
        inputs: "inputs",
        outputs: "outputs",
        initial: "initial",
        rules: "rules",
    } then |s: ComponentSignature| {
        ComponentSignature::new(&s.name, s.inputs, s.outputs, &s.initial, s.rules)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_legacy::{fault_matrix, inject, MealyBuilder};
    use muml_obs::json::{FromJson, ToJson};

    fn sig(rules: Vec<RuleSignature>) -> ComponentSignature {
        ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "idle",
            rules,
        )
    }

    fn rule(state: &str, ins: &[&str], outs: &[&str], target: &str) -> RuleSignature {
        RuleSignature::new(
            state,
            ins.iter().map(|s| (*s).to_owned()),
            outs.iter().map(|s| (*s).to_owned()),
            target,
        )
    }

    #[test]
    fn rule_reordering_is_fingerprint_invariant() {
        let a = sig(vec![
            rule("idle", &["go"], &["ack"], "run"),
            rule("run", &["halt"], &[], "idle"),
        ]);
        let b = sig(vec![
            rule("run", &["halt"], &[], "idle"),
            rule("idle", &["go"], &["ack"], "run"),
        ]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a, b);
    }

    #[test]
    fn whitespace_equivalent_rules_are_fingerprint_invariant() {
        let a = sig(vec![rule("idle", &["go"], &["ack"], "run")]);
        let b = ComponentSignature::new(
            "  rear ",
            ["halt ".into(), " go".into()],
            [" ack".into()],
            " idle",
            vec![rule(" idle ", &["go "], &[" ack "], " run\t")],
        );
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn semantic_edits_change_the_fingerprint() {
        let base = sig(vec![
            rule("idle", &["go"], &["ack"], "run"),
            rule("run", &["halt"], &[], "idle"),
        ]);
        let retargeted = sig(vec![
            rule("idle", &["go"], &["ack"], "idle"),
            rule("run", &["halt"], &[], "idle"),
        ]);
        let muted = sig(vec![
            rule("idle", &["go"], &[], "run"),
            rule("run", &["halt"], &[], "idle"),
        ]);
        let dropped = sig(vec![rule("idle", &["go"], &["ack"], "run")]);
        let renamed = ComponentSignature::new(
            "other",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "idle",
            vec![
                rule("idle", &["go"], &["ack"], "run"),
                rule("run", &["halt"], &[], "idle"),
            ],
        );
        let fps = [
            base.fingerprint(),
            retargeted.fingerprint(),
            muted.fingerprint(),
            dropped.fingerprint(),
            renamed.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in i + 1..fps.len() {
                assert_ne!(fps[i], fps[j], "variants {i} and {j} collide");
            }
        }
    }

    #[test]
    fn interning_order_does_not_matter() {
        // The same machine built against universes whose signal ids were
        // handed out in different orders must fingerprint identically.
        let build = |u: &Universe| -> HiddenMealy {
            MealyBuilder::new(u, "rear")
                .input("go")
                .input("halt")
                .output("ack")
                .state("idle")
                .state("run")
                .initial("idle")
                .rule("idle", ["go"], ["ack"], "run")
                .rule("run", ["halt"], [], "idle")
                .build()
                .unwrap()
        };
        let u1 = Universe::new();
        let m1 = build(&u1);
        let u2 = Universe::new();
        // Skew u2's interning order before building.
        u2.signals(["zz", "halt", "yy", "ack"]);
        let m2 = build(&u2);
        assert_eq!(
            ComponentSignature::of_component(&m1, &u1).fingerprint(),
            ComponentSignature::of_component(&m2, &u2).fingerprint()
        );
    }

    #[test]
    fn json_round_trip() {
        let s = sig(vec![
            rule("idle", &["go"], &["ack"], "run"),
            rule("run", &["halt"], &[], "idle"),
        ]);
        let back = ComponentSignature::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.fingerprint(), s.fingerprint());
    }

    /// Golden fingerprints for a pinned machine and its full `fault_matrix`.
    /// These are the store's content addresses: if canonicalization or the
    /// hash ever changes, every persisted snapshot silently misses — this
    /// test makes that an explicit, reviewed decision.
    #[test]
    fn golden_fault_matrix_fingerprints() {
        let u = Universe::new();
        let m = MealyBuilder::new(&u, "rear")
            .input("go")
            .input("halt")
            .output("ack")
            .state("idle")
            .state("run")
            .initial("idle")
            .rule("idle", ["go"], ["ack"], "run")
            .rule("run", ["halt"], [], "idle")
            .build()
            .unwrap();
        let mut seen = vec![(
            "correct".to_owned(),
            ComponentSignature::of_component(&m, &u).fingerprint(),
        )];
        for fault in fault_matrix(&m, &u) {
            let mut variant = m.clone();
            inject(&mut variant, &u, &fault).unwrap();
            seen.push((
                fault.describe(),
                ComponentSignature::of_component(&variant, &u).fingerprint(),
            ));
        }
        let golden: Vec<(String, String)> = GOLDEN
            .iter()
            .map(|(d, f)| ((*d).to_owned(), (*f).to_owned()))
            .collect();
        assert_eq!(seen, golden, "fingerprint scheme changed");
    }

    const GOLDEN: &[(&str, &str)] = &[
        ("correct", "afdd2af22b9fdb06"),
        ("drop[idle+go]", "be1d165384f48d1c"),
        ("mute[idle+go]", "bcc9409f2d0e38e3"),
        ("redirect[idle+go>idle]", "55858ae30b46aba1"),
        ("drop[run+halt]", "1f6271ff516eab02"),
        ("redirect[run+halt>run]", "2cdffcbf80f5d347"),
    ];
}
