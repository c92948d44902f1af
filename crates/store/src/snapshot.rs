//! The versioned on-disk snapshot format.
//!
//! A [`Snapshot`] is everything a later session needs to warm-start: the
//! component signature it was learned against, the learned automaton as a
//! name-based [`IncompleteSnapshot`], the accumulated learning history, and
//! the quarantine records of flaky counterexample traces. The encoding is
//! the workspace's hand-rolled JSON ([`muml_obs::json`]) under a `"v"`
//! version tag, in the same style as `muml-serve`'s wire frames.
//!
//! Decoding is total: anything unexpected — truncation, mangled bytes, an
//! unknown version — comes back as a typed [`SnapshotError`], which the
//! store surfaces as a miss rather than an error.

use muml_automata::{IncompleteSnapshot, SnapshotRefusal, SnapshotState, SnapshotTransition};
use muml_obs::json::{field, field_with, items, object, parse, FromJson, Json};

use crate::signature::ComponentSignature;

/// The current snapshot schema version. Files tagged with any other value
/// are treated as misses (never migrated in place).
pub const SNAPSHOT_VERSION: i64 = 1;

/// One run's worth of learning, appended to the snapshot history each time
/// a session saves. State ids are rendered to names so the history stays
/// meaningful across restores.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaRecord {
    /// States created during the run.
    pub new_states: usize,
    /// Transitions added to `T`.
    pub new_transitions: usize,
    /// Refusals added to `T̄`.
    pub new_refusals: usize,
    /// Whether the initial-state set grew.
    pub initial_changed: bool,
    /// Names of the states whose knowledge changed.
    pub dirty: Vec<String>,
}

impl DeltaRecord {
    /// Whether the run learned nothing.
    pub fn is_empty(&self) -> bool {
        self.new_states == 0
            && self.new_transitions == 0
            && self.new_refusals == 0
            && !self.initial_changed
            && self.dirty.is_empty()
    }
}

muml_obs::json_codec! {
    impl ToJson + FromJson for DeltaRecord {
        new_states: "states",
        new_transitions: "transitions",
        new_refusals: "refusals",
        initial_changed: "initial_changed",
        dirty: "dirty",
    }
}

/// A persisted learned model: the unit of storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The component this model was learned against.
    pub signature: ComponentSignature,
    /// The learned automaton, name-based and order-preserving.
    pub automaton: IncompleteSnapshot,
    /// Per-run learning history, oldest first.
    pub history: Vec<DeltaRecord>,
    /// Rendered listings of quarantined counterexample traces (PR 5's flake
    /// quarantine), carried across runs so a flaky trace is not re-driven.
    pub quarantined: Vec<String>,
}

/// Why a snapshot failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The `"v"` tag held a version this build does not understand.
    UnknownVersion(i64),
    /// The bytes were not a well-formed snapshot (parse failure, missing
    /// field, wrong type, dangling index).
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::UnknownVersion(v) => write!(f, "unknown snapshot version {v}"),
            SnapshotError::Corrupt(detail) => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

muml_obs::json_codec! {
    impl ToJson + FromJson for Snapshot {
        "v" = SNAPSHOT_VERSION;
        signature: "signature",
        automaton: "automaton" via (automaton_to_json, automaton_from_json),
        history: "history",
        quarantined: "quarantined",
    }
}

impl Snapshot {
    /// Decodes snapshot text.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnknownVersion`] when the version tag is present
    /// but unsupported, [`SnapshotError::Corrupt`] for everything else.
    pub fn decode(text: &str) -> Result<Snapshot, SnapshotError> {
        let json = parse(text).map_err(|e| SnapshotError::Corrupt(format!("not JSON: {e}")))?;
        match field::<i64>(&json, "v") {
            Ok(version) if version != SNAPSHOT_VERSION => {
                Err(SnapshotError::UnknownVersion(version))
            }
            _ => Snapshot::from_json(&json).map_err(SnapshotError::Corrupt),
        }
    }
}

// The automaton's parts are `muml-automata` types, and that crate does not
// depend on the codec: they are encoded here and decoded under the same
// field rule into struct literals.
fn automaton_to_json(a: &IncompleteSnapshot) -> Json {
    let states: Vec<Json> = a
        .states
        .iter()
        .map(|s| object(&[("name", &s.name), ("props", &s.props)]))
        .collect();
    let transitions: Vec<Json> = a
        .transitions
        .iter()
        .map(|t| {
            object(&[
                ("from", &t.from),
                ("ins", &t.inputs),
                ("outs", &t.outputs),
                ("to", &t.to),
            ])
        })
        .collect();
    let refusals: Vec<Json> = a
        .refusals
        .iter()
        .map(|r| {
            object(&[
                ("state", &r.state),
                ("ins", &r.inputs),
                ("outs", &r.outputs),
            ])
        })
        .collect();
    object(&[
        ("name", &a.name),
        ("inputs", &a.inputs),
        ("outputs", &a.outputs),
        ("states", &states),
        ("transitions", &transitions),
        ("refusals", &refusals),
        ("initial", &a.initial),
    ])
}

fn automaton_from_json(json: &Json) -> Result<IncompleteSnapshot, String> {
    Ok(IncompleteSnapshot {
        name: field(json, "name")?,
        inputs: field(json, "inputs")?,
        outputs: field(json, "outputs")?,
        states: parts(json, "states", |s| {
            Ok(SnapshotState {
                name: field(s, "name")?,
                props: field(s, "props")?,
            })
        })?,
        transitions: parts(json, "transitions", |t| {
            Ok(SnapshotTransition {
                from: field(t, "from")?,
                inputs: field(t, "ins")?,
                outputs: field(t, "outs")?,
                to: field(t, "to")?,
            })
        })?,
        refusals: parts(json, "refusals", |r| {
            Ok(SnapshotRefusal {
                state: field(r, "state")?,
                inputs: field(r, "ins")?,
                outputs: field(r, "outs")?,
            })
        })?,
        initial: field(json, "initial")?,
    })
}

fn parts<T>(
    json: &Json,
    key: &str,
    part: impl Fn(&Json) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    field_with(json, key, None, |list| items(list, part))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::RuleSignature;
    use muml_automata::{IncompleteAutomaton, Label, Observation, SignalSet, Universe};
    use muml_obs::json::ToJson;

    pub(crate) fn sample() -> Snapshot {
        let u = Universe::new();
        let inputs = u.signals(["go", "halt"]);
        let outputs = u.signals(["ack"]);
        let mut m = IncompleteAutomaton::trivial(&u, "rear", inputs, outputs, "idle");
        m.learn(&Observation::regular(
            vec!["idle".into(), "run".into()],
            vec![Label::new(u.signals(["go"]), u.signals(["ack"]))],
        ))
        .unwrap();
        m.learn(&Observation::blocked(
            vec!["run".into()],
            vec![Label::new(u.signals(["go"]), SignalSet::EMPTY)],
        ))
        .unwrap();
        m.set_prop("run", u.prop("busy"));
        let signature = ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "idle",
            vec![RuleSignature::new(
                "idle",
                ["go".to_owned()],
                ["ack".to_owned()],
                "run",
            )],
        );
        Snapshot {
            signature,
            automaton: m.to_snapshot(),
            history: vec![DeltaRecord {
                new_states: 1,
                new_transitions: 1,
                new_refusals: 1,
                initial_changed: false,
                dirty: vec!["idle".into(), "run".into()],
            }],
            quarantined: vec!["trace: idle -go/ack-> run".into()],
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let snap = sample();
        let back = Snapshot::decode(&snap.to_json().encode()).unwrap();
        assert_eq!(back, snap);
        // The restored automaton must be reconstructible.
        let u = Universe::new();
        let m = IncompleteAutomaton::from_snapshot(&u, &back.automaton).unwrap();
        assert_eq!(m.state_count(), 2);
        assert_eq!(m.transition_count(), 1);
        assert_eq!(m.refusal_count(), 1);
    }

    #[test]
    fn unknown_version_is_typed() {
        let text = sample()
            .to_json()
            .encode()
            .replacen("\"v\":1", "\"v\":99", 1);
        assert_eq!(
            Snapshot::decode(&text),
            Err(SnapshotError::UnknownVersion(99))
        );
    }

    #[test]
    fn missing_version_is_corrupt() {
        assert!(matches!(
            Snapshot::decode("{}"),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let text = sample().to_json().encode();
        for len in 0..text.len() {
            let prefix = &text[..len];
            let err = Snapshot::decode(prefix).expect_err("truncated snapshot decoded");
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn mangled_bytes_never_panic() {
        let text = sample().to_json().encode();
        let bytes = text.as_bytes();
        // Deterministic fuzz: overwrite each position with hostile bytes.
        for step in [1usize, 7, 13] {
            for i in (0..bytes.len()).step_by(step) {
                let mut mangled = bytes.to_vec();
                mangled[i] = mangled[i].wrapping_add(0x41);
                if let Ok(s) = String::from_utf8(mangled) {
                    // Either it still decodes (the byte landed in free
                    // text) or it fails with a typed error — never panics.
                    let _ = Snapshot::decode(&s);
                }
            }
        }
    }
}
