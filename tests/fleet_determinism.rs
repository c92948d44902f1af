//! Fleet determinism (DESIGN.md §11): the aggregated [`FleetReport`] —
//! minus timing and worker attribution, i.e. its `fingerprint()` — must be
//! identical however the campaign is sharded: one worker, four workers, or
//! a shuffled submission order.
//!
//! This is the end-to-end counterpart of the unit tests inside
//! `muml-fleet`: it runs the real RailCab campaign (variants × faults)
//! through the real worker pool three times and compares canonical JSON.

use std::time::Duration;

use muml_bench::campaign::{railcab_campaign, CampaignOptions};
use muml_fleet::Job;
use muml_serve::{run_fleet, ServeConfig};

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
