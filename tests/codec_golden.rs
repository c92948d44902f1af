//! Golden corpus of the JSON codec: every wire frame, journal record,
//! store file and telemetry document, byte for byte.
//!
//! `tests/codec_golden.jsonl` holds one document per line, in the order
//! of [`documents`]. Stores, journals and `BENCH_*.json` files written
//! earlier must still load, replay and gate, so a change to any line is a
//! format change: it goes together with a version bump of its type. The
//! envelope's one-cell-per-line layout is pinned joined into one line.
//!
//! A decode regression loses data silently: the journal truncates at the
//! first checksummed frame that does not decode, and a snapshot that does
//! not decode cold-starts its component. So every decoded line must also
//! decode to the value it was encoded from and encode back to itself.

use std::fmt::Debug;
use std::path::{Path, PathBuf};
use std::time::Duration;

use muml_automata::{IncompleteSnapshot, SnapshotRefusal, SnapshotState, SnapshotTransition};
use muml_bench::envelope::{Cell, Envelope, Timing};
use muml_core::IntegrationStats;
use muml_fleet::{FleetReport, JobOutcome, JobRequest, JobResult};
use muml_obs::json::*;
use muml_obs::{fnv1a64, FleetEvent, LoopEvent, RunOutcome};
use muml_serve::protocol::{CancelState, Priority, Request, Response, ServerStats, VerdictRecord};
use muml_serve::{Journal, JournalRecord, ServeError};
use muml_store::{ComponentSignature, DeltaRecord, RuleSignature, Snapshot, Store, StoreLookup};
use muml_testkit::TempDir;

const CORPUS: &str = include_str!("codec_golden.jsonl");

/// Decodes a pinned line (checking it against the value it was encoded
/// from) and encodes the result again.
type Reencode = Box<dyn Fn(&str) -> String>;

/// One pinned document: its name, the encoding of the value it was built
/// from, and, for a type that is decoded, its [`Reencode`].
struct Golden {
    name: String,
    encoded: String,
    reencode: Option<Reencode>,
}

fn encoded(name: &str, json: Json) -> Golden {
    Golden {
        name: name.to_owned(),
        encoded: json.encode(),
        reencode: None,
    }
}

fn decoded<T: PartialEq + Debug + 'static>(
    name: &str,
    value: T,
    encode: fn(&T) -> Json,
    decode: fn(&Json) -> T,
) -> Golden {
    let label = name.to_owned();
    Golden {
        name: name.to_owned(),
        encoded: encode(&value).encode(),
        reencode: Some(Box::new(move |line| {
            let back = decode(&parse(line).expect("a pinned line is JSON"));
            assert_eq!(back, value, "{label}: the line decodes to another value");
            encode(&back).encode()
        })),
    }
}

fn names(names: &[&str]) -> Vec<String> {
    names.iter().map(|n| (*n).to_owned()).collect()
}

/// The full request of `crates/fleet/src/request.rs`'s tests.
fn full_request() -> JobRequest {
    JobRequest::new(3, "faulty/drop[x]")
        .with_scenario("railcab-convoy")
        .with_pattern("DistanceCoordination")
        .with_variant("faulty")
        .with_fault("drop[x]")
        .with_max_iterations(64)
        .with_deadline(Duration::from_secs(5))
        .with_retries(2)
        .with_latency(Duration::from_micros(500))
        .with_test_parallelism(4)
}

fn baseline_request() -> JobRequest {
    JobRequest::new(0, "correct/baseline").with_scenario("s")
}

fn verdict(property: Option<&str>) -> VerdictRecord {
    VerdictRecord {
        job: 3,
        request: full_request(),
        outcome: if property.is_some() {
            "real_fault"
        } else {
            "proven"
        }
        .into(),
        property: property.map(str::to_owned),
        iterations: 12,
        nanos: 34_567,
        attempts: 2,
    }
}

fn stats() -> ServerStats {
    ServerStats {
        submitted: 100,
        completed: 90,
        rejected: 7,
        cancelled: 3,
        queued: 6,
        running: 4,
        scenarios: names(&["railcab-convoy", "ticker"]),
    }
}

fn errors() -> Vec<ServeError> {
    vec![
        ServeError::UnsupportedVersion { got: 9 },
        ServeError::UnknownMethod {
            method: "frobnicate".into(),
        },
        ServeError::Malformed {
            detail: "missing `method`".into(),
        },
        ServeError::OversizedFrame {
            length: 2_000_000,
            max: 1_048_576,
        },
        ServeError::UnknownScenario {
            scenario: "warehouse".into(),
        },
        ServeError::InvalidRequest {
            detail: "unknown variant `wobbly`".into(),
        },
        ServeError::QueueFull {
            pending: 256,
            limit: 256,
        },
        ServeError::ClientLimit {
            pending: 64,
            limit: 64,
        },
        ServeError::UnknownJob { job: 41 },
        ServeError::ShuttingDown,
        ServeError::Session {
            code: "cancelled".into(),
            message: "run cancelled after 3 iterations".into(),
        },
        ServeError::Transport {
            detail: "connection \"reset\"\n".into(),
        },
    ]
}

fn journal_records() -> Vec<JournalRecord> {
    vec![
        JournalRecord::Accepted {
            job: 1,
            client: 3,
            priority: Priority::High,
            request: full_request(),
        },
        JournalRecord::Started { job: 1 },
        JournalRecord::Finished {
            record: verdict(None),
        },
    ]
}

fn rear_signature(run_target: &str) -> ComponentSignature {
    ComponentSignature::new(
        "rear",
        names(&["halt", "go"]),
        names(&["ack"]),
        "idle",
        vec![
            RuleSignature::new("run", names(&["halt"]), vec![], run_target),
            RuleSignature::new("idle", names(&["go"]), names(&["ack"]), "run"),
        ],
    )
}

/// A learned `rear`: two states, two transitions, one refusal, a history
/// of two runs and one quarantined listing.
fn snapshot() -> Snapshot {
    Snapshot {
        signature: rear_signature("idle"),
        automaton: IncompleteSnapshot {
            name: "rear".into(),
            inputs: names(&["go", "halt"]),
            outputs: names(&["ack"]),
            states: vec![
                SnapshotState {
                    name: "idle".into(),
                    props: vec![],
                },
                SnapshotState {
                    name: "run".into(),
                    props: names(&["busy"]),
                },
            ],
            transitions: vec![
                SnapshotTransition {
                    from: 0,
                    inputs: names(&["go"]),
                    outputs: names(&["ack"]),
                    to: 1,
                },
                SnapshotTransition {
                    from: 1,
                    inputs: names(&["halt"]),
                    outputs: vec![],
                    to: 0,
                },
            ],
            refusals: vec![SnapshotRefusal {
                state: 1,
                inputs: names(&["go"]),
                outputs: vec![],
            }],
            initial: vec![0],
        },
        history: vec![
            DeltaRecord {
                new_states: 1,
                new_transitions: 1,
                new_refusals: 0,
                initial_changed: true,
                dirty: names(&["idle"]),
            },
            DeltaRecord {
                new_states: 0,
                new_transitions: 1,
                new_refusals: 1,
                initial_changed: false,
                dirty: names(&["idle", "run"]),
            },
        ],
        quarantined: vec!["trace: idle -go/ack-> run".into()],
    }
}

/// A second component, saved after `rear`, so that the index pins its
/// insertion order (not the sorted one).
fn front_snapshot() -> Snapshot {
    let signature = ComponentSignature::new("front", names(&["go"]), vec![], "idle", vec![]);
    Snapshot {
        signature,
        automaton: IncompleteSnapshot {
            name: "front".into(),
            inputs: names(&["go"]),
            outputs: vec![],
            states: vec![SnapshotState {
                name: "idle".into(),
                props: vec![],
            }],
            transitions: vec![],
            refusals: vec![],
            initial: vec![0],
        },
        history: vec![],
        quarantined: vec![],
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).expect("read store file")
}

fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join(format!("{}.json", rear_signature("idle").fingerprint()))
}

/// The store's files after saving `rear`, then `front`.
fn store_files() -> (String, String) {
    let dir = TempDir::new("codec-golden-encode");
    let store = Store::open(dir.path());
    store.save(&snapshot()).expect("save rear");
    store.save(&front_snapshot()).expect("save front");
    (
        read(&snapshot_file(dir.path())),
        read(&dir.path().join("index.json")),
    )
}

/// A store directory holding `snapshot` as rear's file and `index` as its
/// index.
fn store_dir(snapshot: &str, index: &str) -> TempDir {
    let dir = TempDir::new("codec-golden-decode");
    std::fs::write(snapshot_file(dir.path()), snapshot).expect("write snapshot");
    std::fs::write(dir.path().join("index.json"), index).expect("write index");
    dir
}

fn loop_events() -> Vec<LoopEvent> {
    vec![
        LoopEvent::RunStarted {
            components: names(&["front", "rear"]),
            properties: 2,
        },
        LoopEvent::InitialAbstraction {
            component: "rear".into(),
            states: 1,
            transitions: 0,
            refusals: 0,
        },
        LoopEvent::StoreHit {
            component: "rear".into(),
            fingerprint: "afdd2af22b9fdb06".into(),
            states: 2,
            transitions: 2,
            refusals: 1,
            quarantined: 1,
        },
        LoopEvent::StoreMiss {
            component: "rear".into(),
            reason: "corrupt: missing `v`".into(),
        },
        LoopEvent::StoreInvalidated {
            component: "rear".into(),
            fingerprint: "be1d165384f48d1c".into(),
            touched_states: 1,
            states: 2,
            transitions: 1,
            refusals: 0,
        },
        LoopEvent::IterationStarted { iteration: 0 },
        LoopEvent::Composed {
            iteration: 0,
            product_states: 14,
            transitions: 40,
            expanded_labels: 96,
            family_guards: 3,
            nanos: 51_234,
        },
        LoopEvent::Recomposed {
            iteration: 1,
            mode: "incremental".into(),
            dirty_states: 4,
            reused_states: 10,
            spliced_transitions: 11,
        },
        LoopEvent::ModelChecked {
            iteration: 0,
            holds: false,
            violated: Some("AG (shuttle2.convoy -> front.convoy)".into()),
            fixpoint_iterations: 5,
            labeled_states: 70,
            words_touched: 123,
            worklist_pops: 45,
            peak_resident_sets: 6,
            nanos: 8_765,
        },
        LoopEvent::CounterexampleExtracted {
            iteration: 0,
            property: "deadlock freedom".into(),
            length: 3,
            deadlock: true,
        },
        LoopEvent::ReplayExecuted {
            iteration: 0,
            component: "rear".into(),
            steps: 3,
            driven_steps: 6,
            divergence: None,
            nanos: 999,
        },
        LoopEvent::LearnStep {
            iteration: 0,
            component: "rear".into(),
            delta_states: 1,
            delta_transitions: 2,
            delta_refusals: 1,
        },
        LoopEvent::FrontierProbed {
            iteration: 0,
            component: "rear".into(),
            probes: 4,
            learned: true,
            nanos: 777,
        },
        LoopEvent::TestRetried {
            iteration: 1,
            component: "rear".into(),
            attempts: 3,
            replay_errors: 1,
            inconsistent: 1,
            backoff_ticks: 40,
        },
        LoopEvent::RigFault {
            iteration: 1,
            component: "rear".into(),
            suspected: 2,
        },
        LoopEvent::TraceCacheUsed {
            iteration: 1,
            component: "rear".into(),
            hits: 1,
            resumes: 2,
            saved_steps: 9,
        },
        LoopEvent::CexDeduped {
            iteration: 2,
            component: "rear".into(),
            divergence: 2,
        },
        LoopEvent::Quarantined {
            iteration: 2,
            component: "rear".into(),
            property: "AG safe".into(),
            quarantined_total: 1,
        },
        LoopEvent::RunFinished {
            iterations: 3,
            outcome: RunOutcome::RealFault,
            nanos: 1_234_567,
        },
    ]
}

fn fleet_report() -> FleetReport {
    let result = |id: usize, outcome: JobOutcome, fault: Option<&str>| {
        let request = JobRequest::new(id, format!("job-{id}"))
            .with_scenario("railcab-convoy")
            .with_pattern("DistanceCoordination")
            .with_variant("faulty");
        JobResult {
            request: match fault {
                Some(fault) => request.with_fault(fault),
                None => request,
            },
            outcome,
            iterations: id + 1,
            stats: IntegrationStats {
                driven_steps: 10 * id,
                ..IntegrationStats::default()
            },
            worker: id % 2,
            nanos: 1_000,
            attempts: 1,
        }
    };
    FleetReport::new(
        2,
        vec![
            result(3, JobOutcome::Inconclusive { quarantined: 2 }, None),
            result(
                1,
                JobOutcome::RealFault {
                    property: "AG safe".into(),
                },
                Some("drop[x]"),
            ),
            result(0, JobOutcome::Proven, None),
            result(
                2,
                JobOutcome::Error {
                    message: "boom".into(),
                },
                None,
            ),
        ],
        9_999,
    )
}

fn envelope() -> Envelope {
    Envelope {
        artefact: "golden".into(),
        timing: Timing::KERNEL,
        cells: vec![
            Cell::new("railcab/faulty")
                .counter("outcome", "real_fault")
                .counter("steps", 12usize)
                .counter("words", 7u64)
                .counter("sound", true)
                .counter("property", None::<String>)
                .counter("ratio", 0.5)
                .varying("worker", 3usize)
                .wall("run", 99),
            Cell::new("empty"),
        ],
    }
}

fn rejected(error: &Json) -> Json {
    Json::Object(vec![
        ("v".into(), Json::Int(1)),
        ("reply".into(), Json::Str("rejected".into())),
        ("error".into(), error.clone()),
    ])
}

fn decode_error(json: &Json) -> ServeError {
    match Response::from_json(&rejected(json)).expect("rejection decodes") {
        Response::Rejected { error } => error,
        other => panic!("expected a rejection, got {other:?}"),
    }
}

fn decode_stats(json: &Json) -> ServerStats {
    let reply = Json::Object(vec![
        ("v".into(), Json::Int(1)),
        ("reply".into(), Json::Str("stats".into())),
        ("stats".into(), json.clone()),
    ]);
    match Response::from_json(&reply).expect("stats decode") {
        Response::Stats(stats) => stats,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Every pinned document, in corpus order.
fn documents() -> Vec<Golden> {
    let mut docs = Vec::new();
    let requests = [
        Request::Submit {
            request: full_request(),
            priority: Priority::Low,
        },
        Request::Wait { job: 9 },
        Request::Cancel { job: 10 },
        Request::History,
        Request::Stats,
        Request::Subscribe,
        Request::Shutdown,
    ];
    for (request, method) in requests.into_iter().zip([
        "submit",
        "wait",
        "cancel",
        "history",
        "stats",
        "subscribe",
        "shutdown",
    ]) {
        docs.push(decoded(
            &format!("request/{method}"),
            request,
            |r| r.to_json(),
            |j| Request::from_json(j).unwrap(),
        ));
    }
    let responses = [
        Response::Accepted { job: 3 },
        Response::Rejected {
            error: ServeError::QueueFull {
                pending: 256,
                limit: 256,
            },
        },
        Response::Verdict(verdict(Some("AG safe"))),
        Response::Cancelled {
            job: 4,
            state: CancelState::AlreadyDone,
        },
        Response::History {
            entries: vec![verdict(None), verdict(Some("AG safe"))],
        },
        Response::Stats(stats()),
        Response::Subscribed,
        Response::Event {
            stream: "fleet".into(),
            job: 5,
            payload: FleetEvent::JobStarted {
                job: 5,
                name: "railcab/correct".into(),
                worker: 1,
            }
            .to_json(),
        },
        Response::ShuttingDown,
    ];
    for (response, reply) in responses.into_iter().zip([
        "accepted",
        "rejected",
        "verdict",
        "cancelled",
        "history",
        "stats",
        "subscribed",
        "event",
        "shutting-down",
    ]) {
        docs.push(decoded(
            &format!("response/{reply}"),
            response,
            |r| r.to_json(),
            |j| Response::from_json(j).unwrap(),
        ));
    }
    for error in errors() {
        docs.push(decoded(
            &format!("error/{}", error.code()),
            error,
            |e| e.to_json(),
            decode_error,
        ));
    }
    for (name, property) in [
        ("verdict/with-property", Some("AG safe")),
        ("verdict/without-property", None),
    ] {
        docs.push(decoded(
            name,
            verdict(property),
            |v| v.to_json(),
            |j| VerdictRecord::from_json(j).unwrap(),
        ));
    }
    docs.push(decoded("stats", stats(), |s| s.to_json(), decode_stats));
    for (name, request) in [
        ("job-request/full", full_request()),
        ("job-request/baseline", baseline_request()),
    ] {
        docs.push(decoded(
            name,
            request,
            |r| r.to_json(),
            |j| JobRequest::from_json(j).unwrap(),
        ));
    }
    for record in journal_records() {
        docs.push(decoded(
            &format!("journal/{}", record.kind()),
            record,
            |r| r.to_json(),
            |j| JournalRecord::from_json(j).unwrap(),
        ));
    }
    let (snapshot_text, index_text) = store_files();
    docs.push(Golden {
        name: "store/snapshot".into(),
        encoded: snapshot_text,
        // Decoded by a lookup, encoded again by a save into a fresh store.
        reencode: Some(Box::new(|line| {
            let dir = store_dir(line, "{}");
            let snapshot = match Store::open(dir.path()).lookup(&rear_signature("idle")) {
                StoreLookup::Hit { snapshot } => snapshot,
                other => panic!("expected a hit, got {other:?}"),
            };
            let fresh = TempDir::new("codec-golden-reencode");
            Store::open(fresh.path()).save(&snapshot).expect("save");
            read(&snapshot_file(fresh.path()))
        })),
    });
    docs.push(Golden {
        name: "store/index".into(),
        encoded: index_text,
        // A save reads the index, points rear at its (same) file and
        // writes the index back.
        reencode: Some(Box::new(|line| {
            let dir = TempDir::new("codec-golden-index");
            std::fs::write(dir.path().join("index.json"), line).expect("write index");
            Store::open(dir.path()).save(&snapshot()).expect("save");
            read(&dir.path().join("index.json"))
        })),
    });
    let fleet_events = [
        FleetEvent::JobStarted {
            job: 0,
            name: "railcab/correct".into(),
            worker: 1,
        },
        FleetEvent::JobFinished {
            job: 0,
            worker: 1,
            outcome: "proven".into(),
            iterations: 7,
            nanos: 1234,
        },
    ];
    for event in fleet_events {
        docs.push(encoded(
            &format!("fleet-event/{}", event.kind()),
            event.to_json(),
        ));
    }
    for event in loop_events() {
        docs.push(encoded(
            &format!("loop-event/{}", event.kind()),
            event.to_json(),
        ));
    }
    docs.push(Golden {
        name: "fleet-report/fingerprint".into(),
        encoded: fleet_report().fingerprint(),
        reencode: None,
    });
    let text = envelope().encode();
    assert_eq!(
        text.matches('\n').count(),
        envelope().cells.len() + 2,
        "one cell per line"
    );
    docs.push(Golden {
        name: "envelope".into(),
        encoded: text.replace('\n', ""),
        reencode: None,
    });
    docs
}

#[test]
fn every_document_matches_its_pinned_line() {
    let docs = documents();
    let lines: Vec<&str> = CORPUS.lines().collect();
    assert_eq!(lines.len(), docs.len(), "one line per document");
    for (doc, line) in docs.iter().zip(&lines) {
        assert_eq!(doc.encoded, *line, "{} changed its encoding", doc.name);
    }
    let mut seen: Vec<&str> = docs.iter().map(|d| d.name.as_str()).collect();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), docs.len(), "document names are unique");
}

#[test]
fn every_decoded_line_decodes_and_reencodes_to_itself() {
    let docs = documents();
    for (doc, line) in docs.iter().zip(CORPUS.lines()) {
        if let Some(reencode) = &doc.reencode {
            assert_eq!(reencode(line), line, "{} does not round-trip", doc.name);
        }
    }
    assert_eq!(
        docs.iter().filter(|d| d.reencode.is_some()).count(),
        7 + 9 + 12 + 2 + 1 + 2 + 3 + 2
    );
}

fn line(name: &str) -> &'static str {
    let index = documents()
        .iter()
        .position(|d| d.name == name)
        .unwrap_or_else(|| panic!("no document {name}"));
    CORPUS.lines().nth(index).expect("pinned line")
}

#[test]
fn job_request_without_the_newer_fields_decodes_to_the_defaults() {
    let Json::Object(fields) = parse(line("job-request/full")).unwrap() else {
        panic!("a request is an object")
    };
    let old = Json::Object(
        fields
            .into_iter()
            .filter(|(k, _)| k != "test_parallelism")
            .collect(),
    );
    let decoded = JobRequest::from_json(&old).unwrap();
    assert_eq!(decoded.test_parallelism, 1);
    let mut expected = full_request();
    expected.test_parallelism = 1;
    assert_eq!(decoded, expected);
}

/// Every pinned line that embeds a `JobRequest`, as it was pinned while
/// requests still carried `trace_cache` (`JOB_REQUEST_VERSION` 1 then as
/// now). Clients, journals and histories written then must still decode:
/// the key is ignored, so each line decodes to its document's value and
/// re-encodes to the pinned line.
const WITH_TRACE_CACHE: &[(&str, &str)] = &[
    (
        "request/submit",
        r#"{"v":1,"method":"submit","request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"priority":"low"}"#,
    ),
    (
        "response/verdict",
        r#"{"v":1,"reply":"verdict","verdict":{"job":3,"request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"outcome":"real_fault","property":"AG safe","iterations":12,"nanos":34567,"attempts":2}}"#,
    ),
    (
        "response/history",
        r#"{"v":1,"reply":"history","entries":[{"job":3,"request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"outcome":"proven","property":null,"iterations":12,"nanos":34567,"attempts":2},{"job":3,"request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"outcome":"real_fault","property":"AG safe","iterations":12,"nanos":34567,"attempts":2}]}"#,
    ),
    (
        "verdict/with-property",
        r#"{"job":3,"request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"outcome":"real_fault","property":"AG safe","iterations":12,"nanos":34567,"attempts":2}"#,
    ),
    (
        "verdict/without-property",
        r#"{"job":3,"request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"outcome":"proven","property":null,"iterations":12,"nanos":34567,"attempts":2}"#,
    ),
    (
        "job-request/full",
        r#"{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4}"#,
    ),
    (
        "job-request/baseline",
        r#"{"v":1,"id":0,"name":"correct/baseline","scenario":"s","pattern":"","variant":"","fault":null,"max_iterations":10000,"deadline_ms":null,"retries":0,"latency_us":0,"trace_cache":true,"test_parallelism":1}"#,
    ),
    (
        "journal/accepted",
        r#"{"v":1,"type":"accepted","job":1,"client":3,"priority":"high","request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4}}"#,
    ),
    (
        "journal/finished",
        r#"{"v":1,"type":"finished","record":{"job":3,"request":{"v":1,"id":3,"name":"faulty/drop[x]","scenario":"railcab-convoy","pattern":"DistanceCoordination","variant":"faulty","fault":"drop[x]","max_iterations":64,"deadline_ms":5000,"retries":2,"latency_us":500,"trace_cache":false,"test_parallelism":4},"outcome":"proven","property":null,"iterations":12,"nanos":34567,"attempts":2}}"#,
    ),
];

#[test]
fn lines_with_the_retired_trace_cache_key_decode_to_the_same_values() {
    let docs = documents();
    for (name, old) in WITH_TRACE_CACHE {
        assert!(old.contains("\"trace_cache\":"), "{name}");
        let doc = docs.iter().find(|d| d.name == *name).expect("a document");
        let reencode = doc.reencode.as_ref().expect("a decoded document");
        assert_eq!(reencode(old), line(name), "{name}");
    }
    let embedding = CORPUS
        .lines()
        .filter(|l| l.contains("\"request\":{"))
        .count();
    assert_eq!(
        WITH_TRACE_CACHE.len(),
        embedding + 2,
        "every line embedding a request, and the two bare requests"
    );
}

/// The `model_checked` event as it was pinned while the checker still
/// warm-started each iteration from the previous one's satisfaction sets.
/// `LoopEvent` is encoded only, so telemetry written then is read by key
/// (`repro fig2`'s event cells, a `JsonWriter` stream): the two retired
/// keys are the line's only difference, and every other key reads the
/// same value.
const MODEL_CHECKED_WITH_WARM_START: &str = r#"{"event":"model_checked","iteration":0,"holds":false,"violated":"AG (shuttle2.convoy -> front.convoy)","fixpoint_iterations":5,"labeled_states":70,"words_touched":123,"worklist_pops":45,"peak_resident_sets":6,"warm_states":0,"reseeded_words":0,"nanos":8765}"#;

#[test]
fn model_checked_line_with_the_retired_warm_start_keys_reads_the_same_values() {
    let Json::Object(fields) = parse(MODEL_CHECKED_WITH_WARM_START).unwrap() else {
        panic!("an event is an object")
    };
    let (retired, kept): (Vec<_>, Vec<_>) = fields
        .into_iter()
        .partition(|(k, _)| k == "warm_states" || k == "reseeded_words");
    assert_eq!(retired.len(), 2);
    assert_eq!(
        Json::Object(kept).encode(),
        line("loop-event/model_checked")
    );
}

#[test]
fn journal_framed_from_the_record_lines_replays_every_record() {
    let mut bytes = Vec::new();
    for name in ["journal/accepted", "journal/started", "journal/finished"] {
        let payload = line(name).as_bytes();
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_be_bytes());
        bytes.extend_from_slice(payload);
    }
    let dir = TempDir::new("codec-golden-journal");
    let path = dir.path().join("serve.journal");
    std::fs::write(&path, &bytes).expect("write journal");
    let (_, replay) = Journal::open(&path).expect("open journal");
    assert_eq!(replay.truncated_bytes, 0);
    assert_eq!(replay.records, journal_records());
    assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes.len() as u64);
}

#[test]
fn store_holding_the_pinned_files_hits_and_invalidates() {
    let dir = store_dir(line("store/snapshot"), line("store/index"));
    let store = Store::open(dir.path());
    match store.lookup(&rear_signature("idle")) {
        StoreLookup::Hit { snapshot: hit } => assert_eq!(hit, snapshot()),
        other => panic!("expected a hit, got {other:?}"),
    }
    // Retargeting run's rule drops run's knowledge and keeps idle's.
    match store.lookup(&rear_signature("run")) {
        StoreLookup::Invalidated {
            snapshot,
            touched_states,
            dropped_transitions,
            dropped_refusals,
        } => {
            assert_eq!(
                (touched_states, dropped_transitions, dropped_refusals),
                (1, 1, 1)
            );
            assert_eq!(snapshot.signature, rear_signature("run"));
            assert_eq!(snapshot.automaton.transitions.len(), 1);
        }
        other => panic!("expected an invalidation, got {other:?}"),
    }
}

/// One decode rule for every decoded type: `(document, path to a field,
/// what the field becomes)`, where `None` drops it. Each mutated document
/// must fail to decode with an error that names the field (the path's last
/// segment). Array items are addressed by index.
const RULE_CASES: &[(&str, &[&str], Option<&str>)] = &[
    ("request/wait", &["job"], Some("\"9\"")),
    ("request/submit", &["request"], None),
    ("request/submit", &["request", "id"], Some("\"3\"")),
    ("response/cancelled", &["state"], Some("1")),
    ("response/accepted", &["job"], None),
    ("error/unsupported-version", &["got"], Some("\"9\"")),
    ("error/unknown-method", &["method"], Some("[]")),
    ("error/queue-full", &["pending"], Some("\"256\"")),
    ("error/client-limit", &["limit"], None),
    ("error/session-error", &["session_code"], None),
    ("verdict/with-property", &["iterations"], Some("\"12\"")),
    ("verdict/with-property", &["nanos"], Some("-1")),
    ("verdict/with-property", &["attempts"], Some("true")),
    ("verdict/with-property", &["property"], Some("5")),
    ("verdict/with-property", &["job"], Some("null")),
    ("verdict/without-property", &["outcome"], None),
    ("stats", &["queued"], Some("\"6\"")),
    ("stats", &["scenarios"], Some("{}")),
    ("stats", &["submitted"], None),
    ("job-request/full", &["retries"], Some("-1")),
    ("job-request/baseline", &["name"], None),
    ("journal/accepted", &["client"], Some("\"3\"")),
    ("journal/accepted", &["priority"], None),
    ("journal/finished", &["record", "nanos"], Some("1.5")),
    ("store/snapshot", &["quarantined"], Some("\"x\"")),
    ("store/snapshot", &["signature"], None),
    (
        "store/snapshot",
        &["automaton", "transitions", "1", "to"],
        Some("-1"),
    ),
    ("store/snapshot", &["history", "0", "initial_changed"], None),
];

/// Decodes a document by the entry point its callers use, chosen by the
/// first segment of its corpus name.
fn decode(doc: &str, json: &Json) -> Result<(), String> {
    fn text<T, E: std::fmt::Display>(result: Result<T, E>) -> Result<(), String> {
        result.map(drop).map_err(|e| e.to_string())
    }
    let reply = |reply: &str, key: &str| {
        Json::Object(vec![
            ("v".into(), Json::Int(1)),
            ("reply".into(), Json::Str(reply.into())),
            (key.into(), json.clone()),
        ])
    };
    match doc.split('/').next().unwrap() {
        "request" => text(Request::from_json(json)),
        "response" => text(Response::from_json(json)),
        "error" => text(Response::from_json(&reply("rejected", "error"))),
        "verdict" => text(VerdictRecord::from_json(json)),
        "stats" => text(Response::from_json(&reply("stats", "stats"))),
        "job-request" => text(JobRequest::from_json(json)),
        "journal" => text(JournalRecord::from_json(json)),
        "store" => text(Snapshot::decode(&json.encode())),
        other => panic!("{other} documents are not decoded"),
    }
}

fn mutate(json: &mut Json, path: &[&str], value: Option<Json>) {
    let (last, parents) = path.split_last().expect("a path");
    let mut node = json;
    for key in parents {
        node = match node {
            Json::Object(fields) => {
                let at = fields.iter().position(|(k, _)| k == key);
                &mut fields[at.unwrap_or_else(|| panic!("no `{key}`"))].1
            }
            Json::Array(items) => &mut items[key.parse::<usize>().expect("an index")],
            other => panic!("`{key}` of {other:?}"),
        };
    }
    let Json::Object(fields) = node else {
        panic!("`{last}` is not in an object")
    };
    let at = fields.iter().position(|(k, _)| k == last);
    let at = at.unwrap_or_else(|| panic!("no `{last}`"));
    match value {
        Some(value) => fields[at].1 = value,
        None => drop(fields.remove(at)),
    }
}

#[test]
fn a_mistyped_or_missing_field_is_an_error_naming_it() {
    let mut failures = Vec::new();
    for (doc, path, value) in RULE_CASES {
        let mut json = parse(line(doc)).unwrap();
        decode(doc, &json).unwrap_or_else(|e| panic!("{doc} does not decode: {e}"));
        mutate(&mut json, path, value.map(|v| parse(v).unwrap()));
        let field = format!("`{}`", path.last().unwrap());
        match decode(doc, &json) {
            Err(error) if error.contains(&field) => {}
            outcome => failures.push(format!("{doc} {path:?} = {value:?}: {outcome:?}")),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let mut types: Vec<&str> = RULE_CASES
        .iter()
        .map(|(doc, ..)| doc.split('/').next().unwrap())
        .collect();
    types.dedup();
    assert_eq!(types.len(), 8, "every decoded type has its cases");
}
