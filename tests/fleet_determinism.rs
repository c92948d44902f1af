//! Fleet determinism (DESIGN.md §11): the aggregated [`FleetReport`] —
//! minus timing and worker attribution, i.e. its `fingerprint()` — must be
//! identical however the campaign is sharded: one worker, four workers, or
//! a shuffled submission order; and a daemon serving the same requests to
//! wire clients must reach the same verdicts.
//!
//! This is the end-to-end counterpart of the unit tests inside
//! `muml-fleet`: it runs the real RailCab campaign (variants × faults)
//! through the real worker pool and compares canonical JSON.
//!
//! [`FleetReport`]: muml_fleet::FleetReport

use std::time::Duration;

use muml_bench::campaign::{railcab_campaign, railcab_requests, CampaignOptions};
use muml_fleet::Job;
use muml_serve::{railcab_registry, run_fleet, Daemon, Priority, ServeClient, ServeConfig, Server};

/// Zero harness latency and a modest job cap keep the three debug-mode
/// campaign runs inside the tier-1 test budget.
fn options() -> CampaignOptions {
    CampaignOptions {
        latency: Duration::ZERO,
        max_jobs: Some(12),
        ..CampaignOptions::default()
    }
}

/// A deterministic shuffle: interleave the two halves of the job list so
/// submission order differs from id order without any RNG.
fn riffle(jobs: Vec<Job>) -> Vec<Job> {
    let mut front: Vec<Job> = Vec::new();
    let mut back: Vec<Job> = Vec::new();
    for (i, job) in jobs.into_iter().enumerate() {
        if i % 2 == 0 {
            front.push(job);
        } else {
            back.push(job);
        }
    }
    back.extend(front.into_iter().rev());
    back
}

#[test]
fn report_fingerprint_is_independent_of_workers_and_submission_order() {
    let opts = options();

    let serial = run_fleet(
        railcab_campaign(&opts),
        &ServeConfig::default().with_workers(1),
    );
    let pooled = run_fleet(
        railcab_campaign(&opts),
        &ServeConfig::default().with_workers(4),
    );
    let shuffled = run_fleet(
        riffle(railcab_campaign(&opts)),
        &ServeConfig::default().with_workers(4),
    );

    assert_eq!(serial.results.len(), 12);
    assert_eq!(serial.fingerprint(), pooled.fingerprint());
    assert_eq!(serial.fingerprint(), shuffled.fingerprint());

    // The fingerprint is not vacuous: it pins ids, names, outcomes, and
    // iteration counts of every job.
    let fp = serial.fingerprint();
    assert!(fp.contains("\"jobs\":12"), "{fp}");
    assert!(fp.contains("baseline"), "{fp}");
}

#[test]
fn shuffled_submission_still_assigns_results_by_job_id() {
    let opts = options();
    let report = run_fleet(
        riffle(railcab_campaign(&opts)),
        &ServeConfig::default().with_workers(3),
    );
    let ids: Vec<usize> = report.results.iter().map(|r| r.request.id).collect();
    let expected: Vec<usize> = (0..ids.len()).collect();
    assert_eq!(ids, expected, "results must be sorted by generation id");
}

#[test]
fn wire_verdicts_from_four_clients_match_run_fleet() {
    // The same 12 requests, submitted round-robin by four loopback clients
    // to a daemon serving the RailCab registry: every job's outcome and
    // iteration count must equal the in-process batch run's.
    let requests = railcab_requests(&options());
    assert_eq!(requests.len(), 12);
    let direct = run_fleet(
        railcab_campaign(&options()),
        &ServeConfig::default().with_workers(4),
    );

    let daemon = Daemon::start(ServeConfig::default().with_workers(4), railcab_registry());
    let server = Server::bind(daemon, Some("127.0.0.1:0"), None).expect("bind loopback");
    let addr = server.tcp_addr().expect("tcp addr").to_string();
    let clients: Vec<_> = (0..4)
        .map(|shard| {
            let mine: Vec<_> = requests
                .iter()
                .filter(|r| r.id % 4 == shard)
                .cloned()
                .collect();
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect_tcp(&addr).expect("connect");
                mine.iter()
                    .map(|request| {
                        let job = client
                            .submit(request, Priority::Normal)
                            .expect("campaign submissions are admitted");
                        client.wait(job).expect("verdict")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    let mut wire: Vec<_> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread"))
        .collect();
    server.stop();

    wire.sort_by_key(|record| record.request.id);
    assert_eq!(wire.len(), direct.results.len());
    for (record, local) in wire.iter().zip(&direct.results) {
        assert_eq!(record.request.id, local.request.id);
        assert_eq!(
            record.outcome,
            local.outcome.name(),
            "job {} ({}): outcome differs across the wire",
            local.request.id,
            local.request.name
        );
        assert_eq!(
            record.iterations, local.iterations,
            "job {} ({}): iterations differ across the wire",
            local.request.id, local.request.name
        );
    }
}
