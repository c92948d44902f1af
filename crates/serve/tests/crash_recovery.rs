//! Kill-and-restart recovery against the real `muml-serve` binary.
//!
//! The in-process replay tests in `server.rs` stop daemons politely; this
//! test is the honest version of the crash story: spawn the actual binary
//! with a journal, complete verdicts over TCP, SIGKILL the process (no
//! shutdown path runs, no buffer flushes), restart on the same journal,
//! and demand the replayed verdict history be bit-identical.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use muml_fleet::JobRequest;
use muml_serve::{Priority, ServeClient, RAILCAB_PATTERN, RAILCAB_SCENARIO};
use muml_testkit::TempDir;

/// Spawns the daemon binary on an OS-assigned port with the given journal
/// and scrapes the printed TCP address.
fn spawn_daemon(journal: &std::path::Path) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_muml-serve"))
        .arg("--tcp")
        .arg("127.0.0.1:0")
        .arg("--workers")
        .arg("2")
        .arg("--journal")
        .arg(journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn muml-serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .expect("read daemon stdout");
        if let Some(addr) = line.strip_prefix("muml-serve: listening on tcp ") {
            break addr.trim().to_owned();
        }
    };
    // Keep draining stdout so the daemon never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

fn request(id: usize, variant: &str, fault: Option<&str>) -> JobRequest {
    let mut request = JobRequest::new(id, format!("{variant}/{}", fault.unwrap_or("baseline")))
        .with_scenario(RAILCAB_SCENARIO)
        .with_pattern(RAILCAB_PATTERN)
        .with_variant(variant)
        .with_max_iterations(10_000)
        .with_latency(Duration::ZERO);
    if let Some(fault) = fault {
        request = request.with_fault(fault);
    }
    request
}

fn connect_with_retry(addr: &str) -> ServeClient {
    let mut last_attempt = 0;
    loop {
        match ServeClient::connect_tcp(addr) {
            Ok(client) => return client,
            Err(_) if last_attempt < 50 => {
                last_attempt += 1;
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => panic!("could not connect to {addr}: {e}"),
        }
    }
}

#[test]
fn sigkill_then_restart_replays_the_verdict_history_bit_identically() {
    let dir = TempDir::new("crash-sigkill");
    let journal = dir.path().join("serve.journal");

    // First life: complete a small campaign, capture the verdict history,
    // then SIGKILL the process — journal appends are the only persistence
    // that can possibly survive this.
    let (mut first, addr) = spawn_daemon(&journal);
    let history = {
        let mut client = connect_with_retry(&addr);
        let requests = [
            request(0, "correct", None),
            request(1, "faulty", None),
            request(2, "full", None),
        ];
        for r in &requests {
            let job = client.submit(r, Priority::Normal).expect("submit");
            client.wait(job).expect("verdict");
        }
        client.history().expect("history")
    };
    assert_eq!(history.len(), 3, "all three verdicts recorded");
    first.kill().expect("SIGKILL the daemon");
    first.wait().expect("reap the killed daemon");

    // Second life: same journal, fresh process. The replayed history must
    // be bit-identical — same order, same outcomes, same nanos.
    let (mut second, addr) = spawn_daemon(&journal);
    let mut client = connect_with_retry(&addr);
    let replayed = client.history().expect("replayed history");
    assert_eq!(
        replayed, history,
        "restart must replay the journal to a bit-identical verdict history"
    );
    // And the revived daemon is a live scheduler, not a read-only replica:
    // new work lands on ids above everything the journal recorded.
    let job = client
        .submit(&request(7, "correct", None), Priority::Normal)
        .expect("submit after recovery");
    let record = client.wait(job).expect("verdict after recovery");
    assert_eq!(record.outcome, "proven");
    let max_replayed = history.iter().map(|r| r.job).max().unwrap_or(0);
    assert!(
        job > max_replayed,
        "post-recovery job id {job} must exceed every replayed id ({max_replayed})"
    );
    let _ = client.shutdown();
    second.wait().expect("daemon exits after shutdown");
}

#[test]
fn sigkill_midway_resubmits_unfinished_jobs_on_restart() {
    let dir = TempDir::new("crash-midway");
    let journal = dir.path().join("serve.journal");

    // First life: finish one job (so the journal holds a complete
    // Accepted/Started/Finished triple), then admit more work and SIGKILL
    // before waiting on it — some of it will still be queued or running.
    let (mut first, addr) = spawn_daemon(&journal);
    let finished = {
        let mut client = connect_with_retry(&addr);
        let job = client
            .submit(&request(0, "correct", None), Priority::Normal)
            .expect("submit");
        let record = client.wait(job).expect("first verdict");
        for id in 1..4 {
            client
                .submit(&request(id, "faulty", None), Priority::Normal)
                .expect("submit unfinished work");
        }
        record
    };
    first.kill().expect("SIGKILL the daemon");
    first.wait().expect("reap the killed daemon");

    // Second life: the finished verdict replays bit-identically, and every
    // job the crash orphaned re-runs to a verdict under its original id.
    let (mut second, addr) = spawn_daemon(&journal);
    let mut client = connect_with_retry(&addr);
    let replayed = client.history().expect("replayed history");
    assert_eq!(replayed.first(), Some(&finished));
    for job in (finished.job + 1)..(finished.job + 4) {
        let record = client.wait(job).expect("resubmitted job completes");
        assert_eq!(
            record.outcome, "real_fault",
            "job {job} must re-run to the faulty variant's verdict"
        );
    }
    let _ = client.shutdown();
    second.wait().expect("daemon exits after shutdown");
}
