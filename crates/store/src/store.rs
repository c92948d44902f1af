//! The on-disk store: content-addressed snapshot files, a per-component
//! index for invalidation, coarse locking and atomic writes.
//!
//! Layout (all under one directory):
//!
//! ```text
//! <dir>/<fingerprint>.json   one snapshot per component content-address
//! <dir>/index.json           component name -> latest fingerprint
//! <dir>/.lock                advisory file lock (coarse, whole-store)
//! ```
//!
//! Concurrency: one in-process mutex (daemon workers share an
//! `Arc<Store>`) plus one exclusive advisory file lock per operation (the
//! `muml-serve` daemon and ad-hoc CLI runs may share a directory across
//! processes). Writes go to a temp file in the same directory followed by
//! an atomic rename, so readers never observe a half-written snapshot —
//! at worst they miss and cold-start.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use muml_obs::json::{parse, FromJson, ToJson};

use crate::io::{RealIo, StoreIo};
use crate::signature::ComponentSignature;
use crate::snapshot::{Snapshot, SnapshotError};

/// Why a lookup did not produce a usable snapshot. Every variant degrades
/// to a cold start; none of them is a session error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MissReason {
    /// No snapshot for this fingerprint and no previous version to patch.
    NotFound,
    /// The store directory or a snapshot file could not be read.
    Io(String),
    /// The snapshot bytes were mangled (truncation, bit rot, partial
    /// write by a non-conforming tool).
    Corrupt(String),
    /// The snapshot was written by a different schema version.
    UnknownVersion(i64),
    /// The file decoded but embeds a signature that does not hash to its
    /// own file name — somebody renamed or hand-edited it.
    FingerprintMismatch,
    /// A previous version exists but its component boundary (name,
    /// interface or initial state) changed, so no knowledge survives.
    InterfaceChanged,
}

impl MissReason {
    /// A short, stable description for telemetry.
    pub fn describe(&self) -> String {
        match self {
            MissReason::NotFound => "not-found".to_owned(),
            MissReason::Io(detail) => format!("io: {detail}"),
            MissReason::Corrupt(detail) => format!("corrupt: {detail}"),
            MissReason::UnknownVersion(v) => format!("unknown-version: {v}"),
            MissReason::FingerprintMismatch => "fingerprint-mismatch".to_owned(),
            MissReason::InterfaceChanged => "interface-changed".to_owned(),
        }
    }
}

/// The result of a [`Store::lookup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreLookup {
    /// Exact content-address hit: the component is unchanged since the
    /// snapshot was learned, so all of it can be seeded.
    Hit {
        /// The stored snapshot.
        snapshot: Snapshot,
    },
    /// The component changed, but its boundary did not: the previous
    /// snapshot was patched by dropping the dirty cone — every state whose
    /// rules changed loses its learned transitions and refusals (the
    /// chaotic closure re-covers them pessimistically) while the rest of
    /// the knowledge is kept.
    Invalidated {
        /// The patched snapshot, re-signed with the new signature.
        snapshot: Snapshot,
        /// States whose knowledge was dropped.
        touched_states: usize,
        /// Learned transitions dropped with them.
        dropped_transitions: usize,
        /// Recorded refusals dropped with them.
        dropped_refusals: usize,
    },
    /// Nothing usable: cold-start from the trivial abstraction.
    Miss {
        /// Why.
        reason: MissReason,
    },
}

/// A hard error from [`Store::save`]. Loads never fail hard — misses are
/// data — but a failed save is reported so callers can decide whether to
/// care (the driver logs and moves on: the store is a cache).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// What failed.
    pub detail: String,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store error: {}", self.detail)
    }
}

impl std::error::Error for StoreError {}

/// A persistent, content-addressed store of learned models.
///
/// Cheap to construct — the directory is only touched on first use. Share
/// one instance (via `Arc`) across a daemon's workers so the
/// in-process mutex actually serializes them.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    lock: Mutex<()>,
    io: Arc<dyn StoreIo>,
}

const INDEX_VERSION: i64 = 1;

impl Store {
    /// Opens (lazily) the store rooted at `dir`. Infallible: I/O problems
    /// surface as typed misses at lookup time and as [`StoreError`] at
    /// save time.
    pub fn open(dir: impl Into<PathBuf>) -> Store {
        Store::open_with_io(dir, Arc::new(RealIo))
    }

    /// Opens the store with an explicit [`StoreIo`] implementation. This
    /// is the fault-injection seam: pass an `Arc<FaultyIo>` (keeping a
    /// clone of the handle) to drive the Hit/Invalidated/Miss degradation
    /// ladder under a deterministic fault schedule.
    pub fn open_with_io(dir: impl Into<PathBuf>, io: Arc<dyn StoreIo>) -> Store {
        Store {
            dir: dir.into(),
            lock: Mutex::new(()),
            io,
        }
    }

    /// The store's root directory.
    pub fn path(&self) -> &Path {
        &self.dir
    }

    fn snapshot_path(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }

    /// Takes the advisory file lock (blocking). Held for the duration of
    /// one lookup/save; released when the returned handle drops.
    fn file_lock(&self) -> Result<File, String> {
        self.io
            .create_dir_all(&self.dir)
            .map_err(|e| format!("create {}: {e}", self.dir.display()))?;
        let lock_path = self.dir.join(".lock");
        self.io
            .lock_exclusive(&lock_path)
            .map_err(|e| format!("lock {}: {e}", lock_path.display()))
    }

    /// Looks up the snapshot for `sig`, falling back to dirty-cone
    /// invalidation of the component's previous version on a content
    /// miss. Never fails hard.
    pub fn lookup(&self, sig: &ComponentSignature) -> StoreLookup {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let _file_lock = match self.file_lock() {
            Ok(f) => f,
            Err(detail) => {
                return StoreLookup::Miss {
                    reason: MissReason::Io(detail),
                }
            }
        };
        let fingerprint = sig.fingerprint();
        match self.read_snapshot(&fingerprint) {
            Ok(snapshot) => StoreLookup::Hit { snapshot },
            Err(MissReason::NotFound) => self.salvage_previous(sig),
            Err(reason) => StoreLookup::Miss { reason },
        }
    }

    /// Reads and validates the snapshot file for one fingerprint.
    fn read_snapshot(&self, fingerprint: &str) -> Result<Snapshot, MissReason> {
        let path = self.snapshot_path(fingerprint);
        let text = self.io.read_to_string(&path).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => MissReason::NotFound,
            // Non-UTF-8 bytes are data corruption, not an I/O failure.
            std::io::ErrorKind::InvalidData => MissReason::Corrupt("not UTF-8".to_owned()),
            _ => MissReason::Io(format!("read {}: {e}", path.display())),
        })?;
        let snapshot = Snapshot::decode(&text).map_err(|e| match e {
            SnapshotError::UnknownVersion(v) => MissReason::UnknownVersion(v),
            SnapshotError::Corrupt(detail) => MissReason::Corrupt(detail),
        })?;
        if snapshot.signature.fingerprint() != fingerprint {
            return Err(MissReason::FingerprintMismatch);
        }
        Ok(snapshot)
    }

    /// Content miss: consult the index for the component's previous
    /// snapshot and patch out the dirty cone.
    fn salvage_previous(&self, sig: &ComponentSignature) -> StoreLookup {
        let miss = |reason: MissReason| StoreLookup::Miss { reason };
        let previous = match self.read_index().get(&sig.name) {
            Some(fp) => fp.clone(),
            None => return miss(MissReason::NotFound),
        };
        let snapshot = match self.read_snapshot(&previous) {
            Ok(s) => s,
            Err(reason) => return miss(reason),
        };
        if !snapshot.signature.same_boundary(sig) {
            return miss(MissReason::InterfaceChanged);
        }
        invalidate_dirty_cone(snapshot, sig)
    }

    /// Persists `snapshot` under its signature's fingerprint and points
    /// the component index at it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the directory, temp file or rename fails.
    pub fn save(&self, snapshot: &Snapshot) -> Result<(), StoreError> {
        let _guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
        let _file_lock = self.file_lock().map_err(|detail| StoreError { detail })?;
        let fingerprint = snapshot.signature.fingerprint();
        self.write_atomic(
            &self.snapshot_path(&fingerprint),
            &snapshot.to_json().encode(),
        )?;
        let mut index = self.read_index();
        index.set(&snapshot.signature.name, &fingerprint);
        self.write_atomic(&self.dir.join("index.json"), &index.to_json().encode())?;
        Ok(())
    }

    /// Temp-file + rename in the store directory (same filesystem, so the
    /// rename is atomic on every platform we target), with the full
    /// durability discipline: the temp file's data is synced before the
    /// rename and the directory is synced after it, so a crash at any
    /// point leaves either the old contents or the complete new ones.
    fn write_atomic(&self, path: &Path, text: &str) -> Result<(), StoreError> {
        let err = |detail: String| StoreError { detail };
        let stem = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let tmp = self.dir.join(format!(".tmp-{}-{stem}", std::process::id()));
        self.io
            .write_durable(&tmp, text)
            .map_err(|e| err(format!("write {}: {e}", tmp.display())))?;
        if let Err(e) = self.io.rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(err(format!("rename to {}: {e}", path.display())));
        }
        self.io
            .sync_dir(&self.dir)
            .map_err(|e| err(format!("sync dir {}: {e}", self.dir.display())))
    }

    /// Reads the component index, tolerating absence and corruption (a
    /// broken index only disables previous-version salvage).
    fn read_index(&self) -> ComponentIndex {
        let path = self.dir.join("index.json");
        let text = self.io.read_to_string(&path).unwrap_or_default();
        parse(&text)
            .ok()
            .and_then(|json| ComponentIndex::from_json(&json).ok())
            .unwrap_or_default()
    }
}

/// The `index.json` contents: component name → latest fingerprint.
#[derive(Debug, Default)]
struct ComponentIndex {
    entries: Vec<(String, String)>,
}

impl ComponentIndex {
    fn get(&self, name: &str) -> Option<&String> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, f)| f)
    }

    fn set(&mut self, name: &str, fingerprint: &str) {
        match self.entries.iter_mut().find(|(n, _)| n == name) {
            Some((_, f)) => fingerprint.clone_into(f),
            None => self.entries.push((name.to_owned(), fingerprint.to_owned())),
        }
    }
}

muml_obs::json_codec! {
    impl ToJson + FromJson for ComponentIndex {
        "v" = INDEX_VERSION;
        entries: "components",
    }
}

/// Diffs the rule sets of `snapshot`'s signature and `sig` and drops the
/// knowledge of every *touched* state — one whose outgoing rules changed
/// in any way. Knowledge at untouched states is still observation-
/// conforming: an unchanged rule means the new component steps identically
/// there, so recorded transitions and refusals remain valid; the chaotic
/// closure re-covers the dropped states pessimistically.
fn invalidate_dirty_cone(mut snapshot: Snapshot, sig: &ComponentSignature) -> StoreLookup {
    let mut touched: Vec<&str> = Vec::new();
    let old = &snapshot.signature.rules;
    let new = &sig.rules;
    // Both rule sets are canonically sorted; a symmetric-difference walk
    // collects every state that gained, lost or altered a rule.
    let (mut i, mut j) = (0, 0);
    while i < old.len() || j < new.len() {
        match (old.get(i), new.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                touched.push(&a.state);
                i += 1;
            }
            (Some(_), Some(b)) => {
                touched.push(&b.state);
                j += 1;
            }
            (Some(a), None) => {
                touched.push(&a.state);
                i += 1;
            }
            (None, Some(b)) => {
                touched.push(&b.state);
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    touched.sort_unstable();
    touched.dedup();
    let is_touched = |idx: usize| -> bool {
        snapshot
            .automaton
            .states
            .get(idx)
            .is_some_and(|s| touched.binary_search(&s.name.as_str()).is_ok())
    };
    let kept_transitions: Vec<_> = snapshot
        .automaton
        .transitions
        .iter()
        .filter(|t| !is_touched(t.from))
        .cloned()
        .collect();
    let kept_refusals: Vec<_> = snapshot
        .automaton
        .refusals
        .iter()
        .filter(|r| !is_touched(r.state))
        .cloned()
        .collect();
    let touched_states = snapshot
        .automaton
        .states
        .iter()
        .filter(|s| touched.binary_search(&s.name.as_str()).is_ok())
        .count();
    let dropped_transitions = snapshot.automaton.transitions.len() - kept_transitions.len();
    let dropped_refusals = snapshot.automaton.refusals.len() - kept_refusals.len();
    snapshot.automaton.transitions = kept_transitions;
    snapshot.automaton.refusals = kept_refusals;
    // The patched model belongs to the *new* component now.
    snapshot.signature = sig.clone();
    snapshot.automaton.name = sig.name.clone();
    // Quarantine listings were recorded against the old component's
    // behaviour; they may be perfectly reproducible now. Drop them.
    snapshot.quarantined.clear();
    StoreLookup::Invalidated {
        snapshot,
        touched_states,
        dropped_transitions,
        dropped_refusals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::RuleSignature;
    use crate::snapshot::DeltaRecord;
    use muml_automata::{IncompleteAutomaton, Label, Observation, SignalSet, Universe};
    use muml_testkit::TempDir;
    use std::sync::Arc;

    fn rule(state: &str, ins: &[&str], outs: &[&str], target: &str) -> RuleSignature {
        RuleSignature::new(
            state,
            ins.iter().map(|s| (*s).to_owned()),
            outs.iter().map(|s| (*s).to_owned()),
            target,
        )
    }

    fn base_signature() -> ComponentSignature {
        ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "idle",
            vec![
                rule("idle", &["go"], &["ack"], "run"),
                rule("run", &["halt"], &[], "idle"),
            ],
        )
    }

    fn learned_snapshot(sig: &ComponentSignature) -> Snapshot {
        let u = Universe::new();
        let mut m = IncompleteAutomaton::trivial(
            &u,
            &sig.name,
            u.signals(["go", "halt"]),
            u.signals(["ack"]),
            "idle",
        );
        m.learn(&Observation::regular(
            vec!["idle".into(), "run".into(), "idle".into()],
            vec![
                Label::new(u.signals(["go"]), u.signals(["ack"])),
                Label::new(u.signals(["halt"]), SignalSet::EMPTY),
            ],
        ))
        .unwrap();
        m.learn(&Observation::blocked(
            vec!["run".into()],
            vec![Label::new(u.signals(["go"]), SignalSet::EMPTY)],
        ))
        .unwrap();
        Snapshot {
            signature: sig.clone(),
            automaton: m.to_snapshot(),
            history: vec![DeltaRecord {
                new_states: 1,
                new_transitions: 2,
                new_refusals: 1,
                initial_changed: false,
                dirty: vec!["idle".into(), "run".into()],
            }],
            quarantined: vec![],
        }
    }

    #[test]
    fn save_then_lookup_hits() {
        let dir = TempDir::new("store-hit");
        let store = Store::open(dir.path());
        let sig = base_signature();
        assert_eq!(
            store.lookup(&sig),
            StoreLookup::Miss {
                reason: MissReason::NotFound
            }
        );
        let snap = learned_snapshot(&sig);
        store.save(&snap).unwrap();
        match store.lookup(&sig) {
            StoreLookup::Hit { snapshot } => assert_eq!(snapshot, snap),
            other => panic!("expected hit, got {other:?}"),
        }
    }

    #[test]
    fn rule_edit_invalidates_only_the_dirty_cone() {
        let dir = TempDir::new("store-cone");
        let store = Store::open(dir.path());
        let sig = base_signature();
        store.save(&learned_snapshot(&sig)).unwrap();
        // Change only `run`'s rule: idle's knowledge must survive.
        let changed = ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "idle",
            vec![
                rule("idle", &["go"], &["ack"], "run"),
                rule("run", &["halt"], &["ack"], "idle"),
            ],
        );
        match store.lookup(&changed) {
            StoreLookup::Invalidated {
                snapshot,
                touched_states,
                dropped_transitions,
                dropped_refusals,
            } => {
                assert_eq!(touched_states, 1);
                assert_eq!(dropped_transitions, 1); // run -halt-> idle
                assert_eq!(dropped_refusals, 1); // refusal at run
                assert_eq!(snapshot.signature, changed);
                // idle's transition survives; run keeps no knowledge.
                assert_eq!(snapshot.automaton.transitions.len(), 1);
                assert_eq!(snapshot.automaton.transitions[0].from, 0);
                assert!(snapshot.automaton.refusals.is_empty());
                // Both states themselves survive.
                assert_eq!(snapshot.automaton.states.len(), 2);
            }
            other => panic!("expected invalidation, got {other:?}"),
        }
    }

    #[test]
    fn interface_change_is_a_cold_start() {
        let dir = TempDir::new("store-iface");
        let store = Store::open(dir.path());
        let sig = base_signature();
        store.save(&learned_snapshot(&sig)).unwrap();
        let widened = ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into(), "brake".into()],
            ["ack".into()],
            "idle",
            sig.rules.clone(),
        );
        assert_eq!(
            store.lookup(&widened),
            StoreLookup::Miss {
                reason: MissReason::InterfaceChanged
            }
        );
        let moved = ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "run",
            sig.rules.clone(),
        );
        assert_eq!(
            store.lookup(&moved),
            StoreLookup::Miss {
                reason: MissReason::InterfaceChanged
            }
        );
    }

    #[test]
    fn corrupt_files_are_typed_misses() {
        let dir = TempDir::new("store-corrupt");
        let store = Store::open(dir.path());
        let sig = base_signature();
        let snap = learned_snapshot(&sig);
        store.save(&snap).unwrap();
        let path = dir.path().join(format!("{}.json", sig.fingerprint()));
        let text = std::fs::read_to_string(&path).unwrap();

        // Truncations at a sweep of byte lengths.
        for frac in [0, 1, 2, 3] {
            let len = text.len() * frac / 4;
            std::fs::write(&path, &text[..len]).unwrap();
            match store.lookup(&sig) {
                StoreLookup::Miss {
                    reason: MissReason::Corrupt(_),
                } => {}
                other => panic!("truncation to {len} gave {other:?}"),
            }
        }
        // Unknown version tag.
        std::fs::write(&path, text.replacen("\"v\":1", "\"v\":7", 1)).unwrap();
        assert_eq!(
            store.lookup(&sig),
            StoreLookup::Miss {
                reason: MissReason::UnknownVersion(7)
            }
        );
        // Valid snapshot under the wrong file name.
        std::fs::write(
            &path,
            learned_snapshot(&base_signature_renamed())
                .to_json()
                .encode(),
        )
        .unwrap();
        assert_eq!(
            store.lookup(&sig),
            StoreLookup::Miss {
                reason: MissReason::FingerprintMismatch
            }
        );
        // Binary garbage.
        std::fs::write(&path, b"\x00\xffnot json at all").unwrap();
        assert!(matches!(
            store.lookup(&sig),
            StoreLookup::Miss {
                reason: MissReason::Corrupt(_)
            }
        ));
    }

    fn base_signature_renamed() -> ComponentSignature {
        let mut sig = base_signature();
        sig.initial = "run".into();
        sig
    }

    #[test]
    fn corrupt_index_only_disables_salvage() {
        let dir = TempDir::new("store-index");
        let store = Store::open(dir.path());
        let sig = base_signature();
        store.save(&learned_snapshot(&sig)).unwrap();
        std::fs::write(dir.path().join("index.json"), "{{{{").unwrap();
        // Exact hit still works (index not involved)...
        assert!(matches!(store.lookup(&sig), StoreLookup::Hit { .. }));
        // ...while a changed component falls back to a plain miss.
        let changed = ComponentSignature::new(
            "rear",
            ["go".into(), "halt".into()],
            ["ack".into()],
            "idle",
            vec![rule("idle", &["go"], &["ack"], "idle")],
        );
        assert_eq!(
            store.lookup(&changed),
            StoreLookup::Miss {
                reason: MissReason::NotFound
            }
        );
        // Saving repairs the index.
        store.save(&learned_snapshot(&sig)).unwrap();
        assert!(matches!(
            store.lookup(&changed),
            StoreLookup::Invalidated { .. }
        ));
    }

    #[test]
    fn concurrent_saves_never_corrupt() {
        let dir = TempDir::new("store-race");
        let store = Arc::new(Store::open(dir.path()));
        let sig = base_signature();
        let snap = learned_snapshot(&sig);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let store = Arc::clone(&store);
                let snap = snap.clone();
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        store.save(&snap).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(matches!(store.lookup(&sig), StoreLookup::Hit { .. }));
    }

    /// Two *separate* `Store` instances on one directory have separate
    /// in-process mutexes, so only the advisory flock serializes them —
    /// the cross-process sharing story (`muml-serve` + CLI runs) in
    /// single-process clothing.
    #[test]
    fn separate_instances_serialize_via_flock() {
        let dir = TempDir::new("store-flock");
        let sig = base_signature();
        let snap = learned_snapshot(&sig);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let dir = dir.path().to_path_buf();
                let snap = snap.clone();
                std::thread::spawn(move || {
                    let store = Store::open(dir);
                    for _ in 0..12 {
                        store.save(&snap).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // A fresh reader parses a complete snapshot: no interleaved or
        // half-renamed writes survived the race.
        match Store::open(dir.path()).lookup(&sig) {
            StoreLookup::Hit { snapshot } => assert_eq!(snapshot, snap),
            other => panic!("expected hit after racing writers, got {other:?}"),
        }
    }

    #[test]
    fn save_leaves_no_temp_files() {
        let dir = TempDir::new("store-tmpless");
        let store = Store::open(dir.path());
        let snap = learned_snapshot(&base_signature());
        store.save(&snap).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(dir.path())
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
    }

    /// The systematic ladder exercise: under a sweep of seeded fault
    /// rates, every lookup must come back as Hit, Invalidated, or a typed
    /// Miss — never a panic, never a frankenstein snapshot. A Hit must be
    /// byte-identical to something that was actually saved.
    #[test]
    fn fault_injection_sweep_degrades_but_never_lies() {
        use crate::io::{FaultProfile, FaultyIo};

        for (case, rate) in [0.05_f64, 0.15, 0.35].iter().enumerate() {
            let dir = TempDir::new("store-chaos");
            let faulty = Arc::new(FaultyIo::new(
                0x9E37_79B9_7F4A_7C15 ^ ((case as u64) << 16),
                FaultProfile::uniform(*rate),
            ));
            let store = Store::open_with_io(dir.path(), Arc::clone(&faulty) as Arc<dyn StoreIo>);
            let sig = base_signature();
            let snap = learned_snapshot(&sig);
            let changed = ComponentSignature::new(
                "rear",
                ["go".into(), "halt".into()],
                ["ack".into()],
                "idle",
                vec![
                    rule("idle", &["go"], &["ack"], "run"),
                    rule("run", &["halt"], &["ack"], "idle"),
                ],
            );
            let mut hits = 0_usize;
            for round in 0..60 {
                // Saves may fail (ENOSPC, rename, lock): degradation, not
                // corruption. Torn writes *succeed* and must be caught by
                // the lookup ladder as Corrupt misses.
                let _ = store.save(&snap);
                match store.lookup(&sig) {
                    StoreLookup::Hit { snapshot } => {
                        assert_eq!(snapshot, snap, "hit diverged in round {round}");
                        hits += 1;
                    }
                    StoreLookup::Invalidated { .. } => {
                        panic!("exact-fingerprint lookup cannot invalidate")
                    }
                    StoreLookup::Miss { .. } => {}
                }
                // The changed component exercises salvage: any of the
                // three outcomes is legal under faults, panics are not.
                match store.lookup(&changed) {
                    StoreLookup::Hit { .. } => panic!("changed rules cannot be an exact hit"),
                    StoreLookup::Invalidated { snapshot, .. } => {
                        assert_eq!(snapshot.signature, changed);
                    }
                    StoreLookup::Miss { .. } => {}
                }
            }
            assert!(
                faulty.injected_count() > 0,
                "rate {rate} injected nothing over 60 rounds"
            );
            assert!(hits > 0, "rate {rate} never produced a single hit");
        }
    }
}
