//! End-to-end protocol tests over real sockets: typed answers to hostile
//! frames, the two-client cancel race, admission bursts, event
//! subscription, and shutdown semantics. Tests order their steps by the
//! daemon's own answers and events, never by sleeping.

use std::io::Write;
use std::time::Duration;

use muml_core::{CoreError, IntegrationReport, IntegrationStats, IntegrationVerdict};
use muml_fleet::{JobContext, JobRegistry, JobRequest};
use muml_obs::json::Json;
use muml_serve::{
    CancelState, Daemon, Priority, Response, ServeClient, ServeConfig, ServeError, Server,
};
use muml_testkit::TempDir;

/// A registry with a `noop` scenario: variant `slow` sleeps in
/// cancellable 1ms steps; anything else proves instantly.
fn test_registry() -> JobRegistry {
    let mut registry = JobRegistry::new();
    registry.register("noop", |request| {
        let slow = request.variant == "slow";
        Ok(Box::new(move |ctx: &JobContext| {
            if slow {
                // Effectively pinned until cancelled (10-minute ceiling).
                for _ in 0..600_000 {
                    if ctx.cancel.is_cancelled() {
                        return Err(CoreError::Cancelled { iterations: 1 });
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            Ok(IntegrationReport {
                verdict: IntegrationVerdict::Proven,
                iterations: Vec::new(),
                learned: Vec::new(),
                stats: IntegrationStats::default(),
            })
        }))
    });
    registry
}

fn noop(id: usize) -> JobRequest {
    JobRequest::new(id, format!("noop-{id}")).with_scenario("noop")
}

fn slow(id: usize) -> JobRequest {
    noop(id).with_variant("slow")
}

fn start_tcp(config: ServeConfig) -> (Server, String) {
    let daemon = Daemon::start(config, test_registry());
    let server = Server::bind(daemon, Some("127.0.0.1:0"), None).expect("bind");
    let addr = server.tcp_addr().expect("tcp addr").to_string();
    (server, addr)
}

#[test]
fn submit_wait_over_tcp() {
    let (server, addr) = start_tcp(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    let job = client.submit(&noop(0), Priority::Normal).unwrap();
    let record = client.wait(job).unwrap();
    assert_eq!(record.outcome, "proven");
    assert_eq!(record.request.name, "noop-0");
    let stats = client.stats().unwrap();
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.scenarios, ["noop"]);
    let history = client.history().unwrap();
    assert_eq!(history.len(), 1);
    server.stop();
}

#[test]
fn submit_wait_over_unix_socket() {
    let dir = TempDir::new("serve-wire");
    let path = dir.path().join("serve.sock");
    let daemon = Daemon::start(ServeConfig::default(), test_registry());
    let server = Server::bind(daemon, None, Some(&path)).expect("bind unix");
    let mut client = ServeClient::connect_unix(&path).unwrap();
    let job = client.submit(&noop(0), Priority::Normal).unwrap();
    assert_eq!(client.wait(job).unwrap().outcome, "proven");
    server.stop();
    assert!(!path.exists(), "socket file is cleaned up on stop");
}

/// Blocks until `events` reports that `job` started running.
fn await_started(events: &mut muml_serve::EventStream, job: u64) {
    for response in events {
        if let Response::Event {
            job: id, payload, ..
        } = response
        {
            if id == job && payload.get("event").and_then(Json::as_str) == Some("job_started") {
                return;
            }
        }
    }
    panic!("event stream ended before job {job} started");
}

#[test]
fn two_client_cancel_race_yields_one_signal_and_one_already_done() {
    // Two clients race to cancel the same *running* job. Each observes
    // either the transition (`signalled`) or, once the verdict landed,
    // `already-done`; at least one signals, neither errors, and the final
    // verdict is `cancelled`. The race starts only after the job's
    // `job_started` event, so no racer can find it still queued, and a
    // barrier releases both racers together.
    for _ in 0..5 {
        let (server, addr) = start_tcp(ServeConfig::default().with_workers(1));
        let mut events = ServeClient::connect_tcp(&addr)
            .unwrap()
            .subscribe()
            .unwrap();
        let mut submitter = ServeClient::connect_tcp(&addr).unwrap();
        let job = submitter.submit(&slow(0), Priority::Normal).unwrap();
        await_started(&mut events, job);

        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let mut client = ServeClient::connect_tcp(&addr).unwrap();
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    client.cancel(job)
                })
            })
            .collect();
        let states: Vec<CancelState> = racers
            .into_iter()
            .map(|racer| racer.join().expect("racer panicked").unwrap())
            .collect();
        assert!(
            states
                .iter()
                .all(|s| matches!(s, CancelState::Signalled | CancelState::AlreadyDone)),
            "{states:?}"
        );
        assert!(
            states.contains(&CancelState::Signalled),
            "someone must win the race: {states:?}"
        );
        assert_eq!(submitter.wait(job).unwrap().outcome, "cancelled");
        server.stop();
    }
}

#[test]
fn admission_burst_gets_typed_rejections_and_daemon_survives() {
    // A 1000-job burst against a deliberately tiny queue: every overflow
    // is a typed queue-full rejection (never a hang, never a disconnect),
    // and afterwards the daemon still serves a fresh submission.
    let config = ServeConfig::default()
        .with_workers(1)
        .with_max_pending(8)
        .with_max_pending_per_client(1_000_000);
    let (server, addr) = start_tcp(config);
    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    let pinned = client.submit(&slow(0), Priority::Normal).unwrap();
    let mut accepted = Vec::new();
    let mut rejected = 0usize;
    for i in 1..=1_000 {
        match client.submit(&noop(i), Priority::Normal) {
            Ok(id) => accepted.push(id),
            Err(ServeError::QueueFull { limit, .. }) => {
                assert_eq!(limit, 8);
                rejected += 1;
            }
            Err(other) => panic!("expected queue-full, got {other:?}"),
        }
    }
    assert!(rejected >= 900, "only {rejected} rejections");
    assert!(client.stats().unwrap().rejected >= rejected as u64);
    // Still alive: free the worker, drain, then serve one more.
    client.cancel(pinned).unwrap();
    for id in accepted {
        assert_eq!(client.wait(id).unwrap().outcome, "proven");
    }
    let extra = client.submit(&noop(2_000), Priority::Normal).unwrap();
    assert_eq!(client.wait(extra).unwrap().outcome, "proven");
    server.stop();
}

#[test]
fn per_client_limits_key_on_connections() {
    let config = ServeConfig::default()
        .with_workers(1)
        .with_max_pending(100)
        .with_max_pending_per_client(2);
    let (server, addr) = start_tcp(config);
    let mut greedy = ServeClient::connect_tcp(&addr).unwrap();
    let pinned = greedy.submit(&slow(0), Priority::Normal).unwrap();
    greedy.submit(&noop(1), Priority::Normal).unwrap();
    let err = greedy.submit(&noop(2), Priority::Normal).unwrap_err();
    assert_eq!(err.code(), "client-limit");
    // A second connection is a distinct client and gets through.
    let mut other = ServeClient::connect_tcp(&addr).unwrap();
    let job = other.submit(&noop(3), Priority::Normal).unwrap();
    greedy.cancel(pinned).unwrap();
    assert_eq!(other.wait(job).unwrap().outcome, "proven");
    server.stop();
}

#[test]
fn hostile_frames_get_typed_answers_not_disconnects() {
    let (server, addr) = start_tcp(ServeConfig::default().with_max_frame(4096));
    let mut client = ServeClient::connect_tcp(&addr).unwrap();

    // Unknown method.
    let reply = client
        .call_raw(&Json::Object(vec![
            ("v".into(), Json::Int(1)),
            ("method".into(), Json::Str("teleport".into())),
        ]))
        .unwrap();
    match reply {
        Response::Rejected { error } => assert_eq!(error.code(), "unknown-method"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Future protocol version.
    let reply = client
        .call_raw(&Json::Object(vec![
            ("v".into(), Json::Int(99)),
            ("method".into(), Json::Str("stats".into())),
        ]))
        .unwrap();
    match reply {
        Response::Rejected { error } => assert_eq!(error.code(), "unsupported-version"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Non-object payload.
    let reply = client.call_raw(&Json::Str("hello".into())).unwrap();
    match reply {
        Response::Rejected { error } => assert_eq!(error.code(), "malformed-request"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // Oversized frame: the server drains it and answers typed.
    let huge = Json::Object(vec![
        ("v".into(), Json::Int(1)),
        ("method".into(), Json::Str("x".repeat(8192))),
    ]);
    let reply = client.call_raw(&huge).unwrap();
    match reply {
        Response::Rejected { error } => assert_eq!(error.code(), "oversized-frame"),
        other => panic!("expected rejection, got {other:?}"),
    }

    // The same connection still works after all four insults.
    let job = client.submit(&noop(0), Priority::Normal).unwrap();
    assert_eq!(client.wait(job).unwrap().outcome, "proven");
    server.stop();
}

#[test]
fn truncated_frame_ends_only_that_connection() {
    let (server, addr) = start_tcp(ServeConfig::default());
    // Hand-roll a liar: header promises 100 bytes, connection sends 3.
    {
        let mut raw = std::net::TcpStream::connect(&addr).unwrap();
        raw.write_all(&100u32.to_be_bytes()).unwrap();
        raw.write_all(b"abc").unwrap();
        drop(raw);
    }
    // The daemon is unimpressed; a well-behaved client still works.
    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    let job = client.submit(&noop(0), Priority::Normal).unwrap();
    assert_eq!(client.wait(job).unwrap().outcome, "proven");
    server.stop();
}

#[test]
fn subscribers_stream_lifecycle_events_over_the_wire() {
    // The client shuts the server down the moment it has the verdict; the
    // subscriber must still receive the job's whole lifecycle, in order,
    // before its stream ends.
    let (server, addr) = start_tcp(ServeConfig::default());
    let subscriber = ServeClient::connect_tcp(&addr).unwrap();
    let events = subscriber.subscribe().unwrap();
    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    let job = client.submit(&noop(0), Priority::Normal).unwrap();
    client.wait(job).unwrap();
    client.shutdown().unwrap();
    let kinds: Vec<String> = events
        .filter_map(|response| match response {
            Response::Event {
                stream,
                job: id,
                payload,
            } => {
                assert_eq!(stream, "fleet");
                assert_eq!(id, job);
                payload
                    .get("event")
                    .and_then(Json::as_str)
                    .map(str::to_owned)
            }
            _ => None,
        })
        .collect();
    assert_eq!(kinds, ["job_started", "job_finished"]);
    server.wait();
}

#[test]
fn client_shutdown_request_stops_the_server() {
    let (server, addr) = start_tcp(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    let job = client.submit(&noop(0), Priority::Normal).unwrap();
    client.wait(job).unwrap();
    client.shutdown().unwrap();
    server.wait();
    // New connections are refused (or die immediately): either connect
    // fails or the first round trip does.
    match ServeClient::connect_tcp(&addr) {
        Err(_) => {}
        Ok(mut late) => {
            assert!(late.stats().is_err() || late.submit(&noop(1), Priority::Normal).is_err());
        }
    }
}

#[test]
fn wire_verdicts_match_direct_fleet_execution() {
    // Determinism across the wire: the daemon's verdict for a request
    // equals running the same resolved job in-process.
    let (server, addr) = start_tcp(ServeConfig::default());
    let mut client = ServeClient::connect_tcp(&addr).unwrap();
    let request = noop(7).with_retries(1);
    let job = client.submit(&request, Priority::Normal).unwrap();
    let wire = client.wait(job).unwrap();

    let direct = test_registry().resolve(&request).unwrap();
    let (outcome, iterations, _) = muml_fleet::classify((direct.work)(&JobContext::default()));
    assert_eq!(wire.outcome, outcome.name());
    assert_eq!(wire.iterations, iterations);
    assert_eq!(wire.request, request);
    server.stop();
}
