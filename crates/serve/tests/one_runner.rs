//! One job runner: `run_fleet` is a batch client of the daemon's worker
//! loop, so a job ends the same way in a batch and over the wire — a
//! panicking attempt is an `error`, retried under the request's own
//! `retries` — and a batch larger than the admission caps waits instead of
//! shedding.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use muml_core::{IntegrationReport, IntegrationStats, IntegrationVerdict};
use muml_fleet::{JobContext, JobOutcome, JobRegistry, JobRequest};
use muml_serve::{run_fleet, Daemon, Priority, ServeClient, ServeConfig, Server};

fn proven() -> IntegrationReport {
    IntegrationReport {
        verdict: IntegrationVerdict::Proven,
        iterations: Vec::new(),
        learned: Vec::new(),
        stats: IntegrationStats::default(),
    }
}

/// Scenario `panics`: the job's first `variant` attempts panic (`always`:
/// every attempt does), later ones prove. Scenario `nap` sleeps 2 ms and
/// proves.
fn registry() -> JobRegistry {
    let mut registry = JobRegistry::new();
    registry.register("panics", |request| {
        let panics = request.variant.parse::<usize>().unwrap_or(usize::MAX);
        let calls = Arc::new(AtomicUsize::new(0));
        Ok(Box::new(move |_ctx: &JobContext| {
            if calls.fetch_add(1, Ordering::SeqCst) < panics {
                panic!("injected panic");
            }
            Ok(proven())
        }))
    });
    registry.register("nap", |_request| {
        Ok(Box::new(|_ctx: &JobContext| {
            std::thread::sleep(Duration::from_millis(2));
            Ok(proven())
        }))
    });
    registry
}

fn panicking(id: usize, variant: &str, retries: usize) -> JobRequest {
    JobRequest::new(id, format!("panics-{variant}"))
        .with_scenario("panics")
        .with_variant(variant)
        .with_retries(retries)
}

/// The outcome name and attempt count of `request` through `run_fleet`.
fn batch(request: &JobRequest) -> (String, usize) {
    let job = registry().resolve(request).expect("resolves");
    let report = run_fleet(vec![job], &ServeConfig::default().with_workers(1));
    let result = &report.results[0];
    (result.outcome.name().to_owned(), result.attempts)
}

/// The outcome name and attempt count of `request` over a TCP socket.
fn wire(request: &JobRequest) -> (String, usize) {
    let daemon = Daemon::start(ServeConfig::default().with_workers(1), registry());
    let server = Server::bind(daemon, Some("127.0.0.1:0"), None).expect("bind");
    let addr = server.tcp_addr().expect("tcp addr").to_string();
    let mut client = ServeClient::connect_tcp(&addr).expect("connect");
    let job = client.submit(request, Priority::Normal).expect("admitted");
    let record = client.wait(job).expect("verdict");
    server.stop();
    (record.outcome, record.attempts)
}

#[test]
fn a_panicking_job_ends_the_same_in_a_batch_and_over_the_wire() {
    let request = panicking(0, "always", 2);
    let local = batch(&request);
    assert_eq!(local, ("error".to_owned(), 3), "retries + 1 attempts");
    assert_eq!(wire(&request), local);
}

#[test]
fn a_job_that_panics_twice_is_proven_on_its_third_attempt() {
    let request = panicking(0, "2", 2);
    assert_eq!(batch(&request), ("proven".to_owned(), 3));
    assert_eq!(wire(&request), ("proven".to_owned(), 3));
}

#[test]
fn a_batch_over_the_client_limit_waits_and_sheds_nothing() {
    let registry = registry();
    let jobs = (0..9)
        .map(|id| {
            let request = JobRequest::new(id, format!("nap-{id}")).with_scenario("nap");
            registry.resolve(&request).expect("resolves")
        })
        .collect();
    let config = ServeConfig::default()
        .with_workers(2)
        .with_max_pending_per_client(2);
    let report = run_fleet(jobs, &config);
    assert_eq!(report.results.len(), 9);
    for (id, result) in report.results.iter().enumerate() {
        assert_eq!(result.request.id, id);
        assert_eq!(result.outcome, JobOutcome::Proven, "job {id}");
        assert_eq!(result.attempts, 1, "job {id}");
    }
}
