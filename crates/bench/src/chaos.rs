//! The chaos campaign (`repro chaos`): crash-safety of the whole
//! verification stack under seeded fault injection.
//!
//! Four axes, each with its own hard assertion (a violated assertion
//! panics before a report exists, so a written `BENCH_chaos.json` *is*
//! the proof that every check held):
//!
//! * **store** — the RailCab campaign runs against a warm-start store
//!   whose I/O layer is a seeded [`FaultyIo`] (torn writes, short reads,
//!   `ENOSPC`, rename and flock failures) at a sweep of fault rates.
//!   Every verdict must equal the store-less clean run: storage
//!   degradation may cost rig work, never correctness.
//! * **journal** — a daemon journals a campaign, then the journal is cut
//!   at seeded byte offsets (simulating a crash mid-append) and replayed
//!   by a fresh daemon. The replayed verdict history must be a
//!   bit-identical prefix of the original, and every re-queued job must
//!   re-run to its original verdict.
//! * **socket** — a swarm of seeded hostile clients (mid-frame stallers,
//!   idlers, garbage and oversized frames, abrupt disconnects) hammers a
//!   live server while a well-behaved client runs a campaign. The good
//!   client's verdicts must equal the clean run and the server must stay
//!   responsive.
//! * **worker** — campaign jobs panic mid-job at a sweep of rates. A
//!   panicking attempt is an `error`, retried under the request's own
//!   `retries` (2 here): within that budget every verdict must equal the
//!   panic-free run; past it the job must surface the *typed*
//!   [`JobOutcome::Error`] — never a wrong verdict.
//!
//! DESIGN.md §18 documents the fault matrix; §19 the envelope
//! `BENCH_chaos.json` is written in.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use muml_core::store::{FaultProfile, FaultyIo, Store};
use muml_fleet::{FleetReport, Job, JobOutcome};
use muml_legacy::XorShift;
use muml_serve::{
    railcab_registry, run_fleet, Daemon, Journal, Priority, ServeClient, ServeConfig, Server,
};
use muml_testkit::TempDir;

use crate::campaign::{railcab_campaign, railcab_requests, CampaignOptions};
use crate::envelope::Cell;

/// The fault rates the store and worker axes sweep.
pub const CHAOS_RATES: [f64; 4] = [0.0, 0.05, 0.15, 0.30];

/// Journal cut points tried per campaign (seeded byte offsets).
pub const CHAOS_JOURNAL_CUTS: usize = 6;

/// Hostile clients the socket axis unleashes.
pub const CHAOS_HOSTILE_CLIENTS: usize = 8;

/// Retries each worker-axis job is granted; a job panics at most this
/// often, so every one still reaches its verdict.
pub const CHAOS_RETRIES: usize = 2;

/// One rate of the store axis.
#[derive(Debug, Clone)]
pub struct ChaosStoreRow {
    /// Injected per-operation fault rate.
    pub rate: f64,
    /// Campaign cells run at this rate.
    pub jobs: usize,
    /// Store I/O faults actually injected.
    pub injected: usize,
}

/// The journal axis summary.
#[derive(Debug, Clone, Default)]
pub struct ChaosJournalRow {
    /// Verdicts in the reference history.
    pub verdicts: usize,
    /// Seeded cut points exercised.
    pub cuts: usize,
    /// Jobs re-queued (and re-run to the original verdict) across all
    /// cuts.
    pub resubmitted: usize,
    /// Torn-tail bytes truncated across all cuts.
    pub truncated_bytes: u64,
}

/// The socket axis summary.
#[derive(Debug, Clone, Default)]
pub struct ChaosSocketRow {
    /// Hostile connections thrown at the server.
    pub hostile: usize,
    /// Jobs the well-behaved client completed during the storm.
    pub good_jobs: usize,
}

/// One rate of the worker axis.
#[derive(Debug, Clone)]
pub struct ChaosWorkerRow {
    /// Per-job panic probability.
    pub rate: f64,
    /// Jobs run at this rate.
    pub jobs: usize,
    /// Panics injected.
    pub panics: usize,
}

/// The full chaos campaign result. Constructing one via [`chaos_campaign`]
/// already implies every hard assertion passed.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Store axis, in rate order.
    pub store: Vec<ChaosStoreRow>,
    /// Journal axis summary.
    pub journal: ChaosJournalRow,
    /// Socket axis summary.
    pub socket: ChaosSocketRow,
    /// Worker axis, in rate order.
    pub worker: Vec<ChaosWorkerRow>,
    /// Attempts the budget-exhaustion probe ran (each one panicked) before
    /// the typed `error` outcome surfaced.
    pub budget_attempts: usize,
}

fn outcome_names(report: &FleetReport) -> Vec<(usize, String)> {
    report
        .results
        .iter()
        .map(|r| (r.request.id, r.outcome.name().to_owned()))
        .collect()
}

/// Small, fast campaign slice shared by the axes (latency would only
/// stretch wall-clock; the chaos properties are latency-independent).
fn chaos_options(max_jobs: usize) -> CampaignOptions {
    CampaignOptions {
        latency: Duration::ZERO,
        max_jobs: Some(max_jobs),
        ..CampaignOptions::default()
    }
}

// ---------------------------------------------------------------- store

fn store_axis(rates: &[f64]) -> Vec<ChaosStoreRow> {
    let options = chaos_options(8);
    let clean = run_fleet(
        railcab_campaign(&options),
        &ServeConfig::default().with_workers(3),
    );
    let truth = outcome_names(&clean);
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let io = Arc::new(FaultyIo::new(
                0x9E37_79B9_7F4A_7C15 ^ ((i as u64) << 24),
                FaultProfile::uniform(rate),
            ));
            let dir = TempDir::new("chaos-store");
            let store = Arc::new(Store::open_with_io(dir.path(), io.clone()));
            let report = run_fleet(
                railcab_campaign(&options),
                &ServeConfig::default()
                    .with_workers(3)
                    .with_shared_store(store),
            );
            // THE store assertion: a degrading store never changes a
            // verdict — every miss reason cold-starts, every fault is
            // absorbed below the session.
            assert_eq!(
                outcome_names(&report),
                truth,
                "store faults at rate {rate} flipped a verdict"
            );
            if rate == 0.0 {
                assert_eq!(io.injected_count(), 0, "rate 0.0 must inject nothing");
            }
            ChaosStoreRow {
                rate,
                jobs: report.results.len(),
                injected: io.injected_count(),
            }
        })
        .collect()
}

// -------------------------------------------------------------- journal

fn journal_axis(cuts: usize) -> ChaosJournalRow {
    let dir = TempDir::new("chaos-journal");
    let path = dir.path().join("serve.journal");
    let requests = railcab_requests(&chaos_options(4));

    // Reference run: journal everything, remember the exact history.
    let reference = {
        let daemon = Daemon::start(
            ServeConfig::default().with_workers(2).with_journal(&path),
            railcab_registry(),
        );
        let ids: Vec<u64> = requests
            .iter()
            .map(|r| daemon.submit(1, r, Priority::Normal).expect("admit"))
            .collect();
        for id in &ids {
            daemon.wait(*id).expect("verdict");
        }
        let history = daemon.history();
        daemon.shutdown();
        daemon.join();
        history
    };
    let outcome_of = |job: u64| -> &str {
        &reference
            .iter()
            .find(|r| r.job == job)
            .expect("every job has a reference verdict")
            .outcome
    };

    // Clean restart first: the whole history must replay bit-identically.
    {
        let daemon = Daemon::start(
            ServeConfig::default().with_workers(2).with_journal(&path),
            railcab_registry(),
        );
        let replay = daemon.journal_replay().expect("journal configured");
        assert_eq!(replay.finished, reference.len());
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(
            daemon.history(),
            reference,
            "clean replay must rebuild the history bit-identically"
        );
        daemon.shutdown();
        daemon.join();
    }

    let bytes = std::fs::read(&path).expect("read journal");
    let mut rng = XorShift::new(0xC3A5_C85C_97CB_3127);
    let mut row = ChaosJournalRow {
        verdicts: reference.len(),
        cuts,
        ..ChaosJournalRow::default()
    };
    for cut_index in 0..cuts {
        // A seeded crash point strictly inside the file: every prefix is
        // a state a real crash could have left behind.
        let cut = 1 + (rng.next_u64() as usize) % (bytes.len() - 1);
        let cut_dir = TempDir::new("chaos-journal-cut");
        let cut_path = cut_dir.path().join("serve.journal");
        std::fs::write(&cut_path, &bytes[..cut]).expect("write cut journal");
        // Learn the expected surviving records from an independent copy
        // (opening recovers — and truncates — in place).
        let probe_path = cut_dir.path().join("probe.journal");
        std::fs::write(&probe_path, &bytes[..cut]).expect("write probe");
        let (_, probe) = Journal::open(&probe_path).expect("probe replay");
        let expect_finished = probe.finished().len();
        let unfinished: Vec<u64> = probe.unfinished().iter().map(|r| r.job()).collect();

        let daemon = Daemon::start(
            ServeConfig::default()
                .with_workers(2)
                .with_journal(&cut_path),
            railcab_registry(),
        );
        let replay = daemon.journal_replay().expect("journal configured");
        row.truncated_bytes += replay.truncated_bytes;
        // THE journal assertions: the replayed history is a bit-identical
        // prefix of the reference, and every interrupted job re-runs to
        // the very same verdict.
        assert_eq!(
            daemon.history(),
            reference[..expect_finished],
            "cut {cut_index} at byte {cut}: replayed history diverged"
        );
        for job in &unfinished {
            let record = daemon.wait(*job).expect("resubmitted job completes");
            assert_eq!(
                record.outcome,
                outcome_of(*job),
                "cut {cut_index} at byte {cut}: job {job} changed verdict after replay"
            );
            row.resubmitted += 1;
        }
        daemon.shutdown();
        daemon.join();
    }
    row
}

// --------------------------------------------------------------- socket

/// One seeded hostile connection. Every behaviour leaves the server's
/// frame stream either in sync or fatally out of sync — never wedged.
fn hostile_client(addr: &str, behaviour: u64) {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_millis(400)));
    match behaviour % 5 {
        // Slowloris: a partial header, then silence until disconnected.
        0 => {
            let _ = stream.write_all(&[0x00, 0x01]);
            let mut buf = [0u8; 8];
            let _ = stream.read(&mut buf);
        }
        // Idler: connected, never sends a byte.
        1 => {
            let mut buf = [0u8; 8];
            let _ = stream.read(&mut buf);
        }
        // Garbage: a full frame of non-JSON bytes (typed rejection).
        2 => {
            let payload = b"\xde\xad\xbe\xef not json";
            let _ = stream.write_all(&(payload.len() as u32).to_be_bytes());
            let _ = stream.write_all(payload);
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
        }
        // Oversized: a length prefix beyond any sane cap, then the bytes.
        3 => {
            let _ = stream.write_all(&(64u32 << 20).to_be_bytes());
            let _ = stream.write_all(&[0u8; 1024]);
            let mut buf = [0u8; 256];
            let _ = stream.read(&mut buf);
        }
        // Abrupt: half a header, then a hard disconnect.
        _ => {
            let _ = stream.write_all(&[0x00]);
        }
    }
}

fn socket_axis(hostiles: usize) -> ChaosSocketRow {
    let requests = railcab_requests(&chaos_options(3));
    let clean = run_fleet(
        railcab_campaign(&chaos_options(3)),
        &ServeConfig::default().with_workers(2),
    );
    let truth = outcome_names(&clean);

    let daemon = Daemon::start(
        ServeConfig::default()
            .with_workers(2)
            .with_io_timeout(Duration::from_millis(100))
            .with_idle_timeout(Duration::from_millis(300)),
        railcab_registry(),
    );
    let server = Server::bind(daemon, Some("127.0.0.1:0"), None).expect("bind chaos server");
    let addr = server.tcp_addr().expect("tcp addr").to_string();

    let mut rng = XorShift::new(0xB549_8CF0_1D2E_77A3);
    let swarm: Vec<std::thread::JoinHandle<()>> = (0..hostiles)
        .map(|_| {
            let addr = addr.clone();
            let behaviour = rng.next_u64();
            std::thread::spawn(move || hostile_client(&addr, behaviour))
        })
        .collect();

    // The well-behaved client runs its campaign *during* the storm.
    let mut client = ServeClient::connect_tcp(&addr).expect("connect good client");
    let mut good_jobs = 0usize;
    for request in &requests {
        let job = client
            .submit(request, Priority::Normal)
            .expect("good client admitted during the storm");
        let record = client.wait(job).expect("good client verdict");
        let expected = &truth
            .iter()
            .find(|(id, _)| *id == request.id)
            .expect("request in truth")
            .1;
        // THE socket assertion: hostile traffic never changes a verdict
        // (and never takes the server down).
        assert_eq!(
            &record.outcome, expected,
            "hostile socket traffic flipped the verdict of {}",
            request.name
        );
        good_jobs += 1;
    }
    for handle in swarm {
        let _ = handle.join();
    }
    // The server is still fully responsive after the storm. A *fresh*
    // connection, deliberately: while the swarm drains, the good
    // client's own idle connection is legitimately reaped by the very
    // deadline under test.
    drop(client);
    let mut probe = ServeClient::connect_tcp(&addr).expect("server accepts after the storm");
    let stats = probe.stats().expect("server alive after the storm");
    assert!(stats.completed >= good_jobs as u64);
    server.stop();
    ChaosSocketRow {
        hostile: hostiles,
        good_jobs,
    }
}

// --------------------------------------------------------------- worker

/// Wraps a job so its first `panics` executions panic mid-job, and grants
/// it [`CHAOS_RETRIES`] retries.
fn panicking(job: Job, panics: usize) -> Job {
    let Job { request, work } = job;
    let remaining = Arc::new(AtomicUsize::new(panics));
    Job::new(request.with_retries(CHAOS_RETRIES), move |ctx| {
        if remaining
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            panic!("injected worker panic");
        }
        work(ctx)
    })
}

fn worker_axis(rates: &[f64]) -> Vec<ChaosWorkerRow> {
    let options = chaos_options(6);
    let clean = run_fleet(
        railcab_campaign(&options),
        &ServeConfig::default().with_workers(3),
    );
    let truth = outcome_names(&clean);
    rates
        .iter()
        .enumerate()
        .map(|(i, &rate)| {
            let mut rng = XorShift::new(0x8765_4321_0FED_CBA9 ^ ((i as u64) << 16));
            let mut panics = 0usize;
            let jobs: Vec<Job> = railcab_campaign(&options)
                .into_iter()
                .map(|job| {
                    let n = if rng.roll(rate) {
                        1 + (rng.next_u64() as usize % CHAOS_RETRIES)
                    } else {
                        0
                    };
                    panics += n;
                    panicking(job, n)
                })
                .collect();
            let report = run_fleet(jobs, &ServeConfig::default().with_workers(3));
            // THE worker assertion: panics within the retry budget re-run
            // to the identical verdict.
            assert_eq!(
                outcome_names(&report),
                truth,
                "worker panics at rate {rate} flipped a verdict"
            );
            ChaosWorkerRow {
                rate,
                jobs: report.results.len(),
                panics,
            }
        })
        .collect()
}

/// A job that panics on every attempt must surface the typed `error`
/// outcome once its retries are spent — not hang, not report a verdict.
/// Returns the attempts it ran.
fn budget_probe() -> usize {
    let job = railcab_campaign(&chaos_options(1)).remove(0);
    let report = run_fleet(
        vec![panicking(job, usize::MAX)],
        &ServeConfig::default().with_workers(2),
    );
    let result = &report.results[0];
    match &result.outcome {
        JobOutcome::Error { message } => {
            assert!(message.contains("injected worker panic"), "{message}");
            assert_eq!(
                result.attempts,
                CHAOS_RETRIES + 1,
                "a first run plus one per retry"
            );
            result.attempts
        }
        other => panic!("budget exhaustion must be a typed error, got {other:?}"),
    }
}

/// Runs all four axes and asserts crash-safety end to end (see the module
/// docs). Panics on any verdict flip, any history divergence, or any
/// untyped crash surfacing.
pub fn chaos_campaign(rates: &[f64]) -> ChaosReport {
    ChaosReport {
        store: store_axis(rates),
        journal: journal_axis(CHAOS_JOURNAL_CUTS),
        socket: socket_axis(CHAOS_HOSTILE_CLIENTS),
        worker: worker_axis(rates),
        budget_attempts: budget_probe(),
    }
}

impl ChaosReport {
    /// The `repro chaos` envelope cells: a `total` cell, one per store
    /// rate, the journal, socket and budget-probe cells, and one per worker
    /// rate. The store faults land in the order the workers reach the
    /// store, and the journal cuts fall at offsets of a journal whose
    /// length depends on timing, so those counts are `varying`.
    pub fn cells(&self) -> Vec<Cell> {
        // Reaching this point means every axis's hard assertion held — a
        // violation panics inside chaos_campaign.
        let mut cells = vec![Cell::new("total").counter("verdicts_sound", true)];
        cells.extend(self.store.iter().map(|r| {
            Cell::new(format!("store/rate={:.2}", r.rate))
                .counter("rate", r.rate)
                .counter("jobs", r.jobs)
                .counter("matched", true)
                .varying("injected", r.injected)
        }));
        cells.push(
            Cell::new("journal")
                .counter("verdicts", self.journal.verdicts)
                .counter("cuts", self.journal.cuts)
                .counter("history_identical", true)
                .varying("resubmitted", self.journal.resubmitted)
                .varying("truncated_bytes", self.journal.truncated_bytes),
        );
        cells.push(
            Cell::new("socket")
                .counter("hostile", self.socket.hostile)
                .counter("good_jobs", self.socket.good_jobs)
                .counter("survived", true),
        );
        cells.extend(self.worker.iter().map(|r| {
            Cell::new(format!("worker/rate={:.2}", r.rate))
                .counter("rate", r.rate)
                .counter("jobs", r.jobs)
                .counter("panics", r.panics)
                .counter("matched", true)
        }));
        cells.push(
            Cell::new("budget_probe")
                .counter("attempts", self.budget_attempts)
                .counter("outcome", "error"),
        );
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_obs::json::Json;

    #[test]
    fn chaos_campaign_is_sound_at_modest_rates() {
        // All four axes' hard assertions live inside chaos_campaign;
        // completing is the test.
        let report = chaos_campaign(&[0.0, 0.15]);
        assert_eq!(report.store.len(), 2);
        assert_eq!(report.store[0].injected, 0);
        assert!(report.store[1].injected > 0, "rate 0.15 must inject");
        assert_eq!(report.journal.cuts, CHAOS_JOURNAL_CUTS);
        assert!(report.journal.verdicts > 0);
        assert_eq!(report.socket.hostile, CHAOS_HOSTILE_CLIENTS);
        assert_eq!(report.budget_attempts, CHAOS_RETRIES + 1);
        let cells = report.cells();
        assert_eq!(cells[0].get("verdicts_sound"), Some(&Json::Bool(true)));
        let pid = format!("-{}-", std::process::id());
        let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .expect("list the temp dir")
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("muml-chaos-") && name.contains(&pid))
            .collect();
        assert!(left.is_empty(), "temp directories left behind: {left:?}");
    }
}
