//! The batch client: a whole campaign run on an in-process [`Daemon`].
//!
//! [`run_fleet`] starts a daemon over an empty registry, submits every job
//! already resolved as one client at one priority, and collects each
//! job's full [`JobResult`] from the worker loop — the one place a job's
//! work runs, so a campaign's verdicts do not depend on whether it ran
//! here or over the wire. Admission answers `queue-full` and
//! `client-limit` with back-pressure: the client waits for its oldest
//! outstanding job and submits again, so no job is ever shed. The
//! daemon is shut down and joined before the report is built.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::Instant;

use muml_fleet::{FleetReport, Job, JobRegistry, JobResult};

use crate::error::ServeError;
use crate::server::{Daemon, ServeConfig};

/// The batch client's identity on its private daemon.
const BATCH_CLIENT: u64 = 0;

/// Runs `jobs` on a private daemon with `config`'s workers, store and
/// admission caps, and aggregates the deterministic [`FleetReport`]. The
/// daemon keeps no journal: a work closure cannot be replayed from one.
pub fn run_fleet(jobs: Vec<Job>, config: &ServeConfig) -> FleetReport {
    let config = ServeConfig {
        journal: None,
        ..config.clone()
    };
    let workers = config.workers.max(1);
    let start = Instant::now();
    let daemon = Daemon::start(config, JobRegistry::new());
    let wait = |reply: mpsc::Receiver<JobResult>| {
        reply
            .recv()
            .expect("the daemon replies to every admitted batch job")
    };
    let mut outstanding: VecDeque<mpsc::Receiver<JobResult>> = VecDeque::new();
    let mut results = Vec::with_capacity(jobs.len());
    for mut job in jobs {
        loop {
            let (tx, rx) = mpsc::channel();
            match daemon
                .submit_job(BATCH_CLIENT, job, tx)
                .map_err(|refused| *refused)
            {
                Ok(_) => {
                    outstanding.push_back(rx);
                    break;
                }
                Err((ServeError::QueueFull { .. } | ServeError::ClientLimit { .. }, refused)) => {
                    let oldest = outstanding
                        .pop_front()
                        .expect("admission refuses only while a batch job is pending");
                    results.push(wait(oldest));
                    job = refused;
                }
                Err((e, _)) => unreachable!("a private daemon refused a batch job: {e}"),
            }
        }
    }
    results.extend(outstanding.into_iter().map(wait));
    daemon.shutdown();
    daemon.join();
    FleetReport::new(workers, results, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_core::{CoreError, IntegrationReport, IntegrationStats, IntegrationVerdict};
    use muml_fleet::{JobOutcome, JobRequest};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// A fabricated proven report (the runner never inspects `learned` or
    /// `iterations`, so empty vectors are fine).
    fn proven_report(iterations: usize) -> IntegrationReport {
        IntegrationReport {
            verdict: IntegrationVerdict::Proven,
            iterations: Vec::new(),
            learned: Vec::new(),
            stats: IntegrationStats {
                iterations,
                ..IntegrationStats::default()
            },
        }
    }

    fn proven_job(id: usize) -> Job {
        Job::new(JobRequest::new(id, format!("job-{id}")), move |_ctx| {
            Ok(proven_report(id + 1))
        })
    }

    fn workers(n: usize) -> ServeConfig {
        ServeConfig::default().with_workers(n)
    }

    #[test]
    fn drains_all_jobs_and_sorts_results() {
        let jobs: Vec<Job> = (0..20).rev().map(proven_job).collect(); // reversed submission
        let report = run_fleet(jobs, &workers(3));
        assert_eq!(report.results.len(), 20);
        assert_eq!(
            report
                .results
                .iter()
                .map(|r| r.request.id)
                .collect::<Vec<_>>(),
            (0..20).collect::<Vec<_>>()
        );
        assert_eq!(report.histogram()[0], ("proven", 20));
        assert_eq!(
            report.results.iter().map(|r| r.iterations).sum::<usize>(),
            (1..=20).sum::<usize>()
        );
    }

    #[test]
    fn fingerprint_is_stable_across_worker_counts() {
        let run = |n: usize| run_fleet((0..12).map(proven_job).collect(), &workers(n));
        let serial = run(1);
        let pooled = run(4);
        assert_eq!(serial.fingerprint(), pooled.fingerprint());
        assert_eq!(serial.workers, 1);
        assert_eq!(pooled.workers, 4);
    }

    #[test]
    fn zero_deadline_times_out_deterministically() {
        let request = JobRequest::new(0, "doomed").with_deadline(Duration::ZERO);
        let job = Job::new(request, |ctx| {
            // Mirrors the driver's cancellation points: poll before work.
            if ctx.cancel.is_cancelled() {
                return Err(CoreError::Cancelled { iterations: 0 });
            }
            Ok(proven_report(1))
        });
        let report = run_fleet(vec![job], &workers(1));
        assert_eq!(report.results[0].outcome, JobOutcome::TimedOut);
        assert_eq!(report.histogram()[3], ("timed_out", 1));
    }

    #[test]
    fn panicking_job_is_contained() {
        let jobs = vec![
            Job::new(JobRequest::new(0, "bomb"), |_ctx| -> Result<_, CoreError> {
                panic!("boom: {}", 42)
            }),
            proven_job(1),
        ];
        let report = run_fleet(jobs, &workers(1));
        match &report.results[0].outcome {
            JobOutcome::Error { message } => assert!(message.contains("boom"), "{message}"),
            other => panic!("expected an error outcome, got {other:?}"),
        }
        // The worker survived the panic and served the next job.
        assert_eq!(report.results[1].outcome, JobOutcome::Proven);
    }

    #[test]
    fn retries_rerun_rig_failures_until_success() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let request = JobRequest::new(0, "flaky").with_retries(3);
        let job = Job::new(request, move |_ctx| {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(CoreError::InterfaceMismatch {
                    detail: "transient rig glitch".into(),
                })
            } else {
                Ok(proven_report(1))
            }
        });
        let report = run_fleet(vec![job], &workers(1));
        assert_eq!(report.results[0].outcome, JobOutcome::Proven);
        assert_eq!(report.results[0].attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn verdict_outcomes_are_not_retried() {
        let request = JobRequest::new(0, "solid").with_retries(5);
        let job = Job::new(request, move |_ctx| Ok(proven_report(1)));
        let report = run_fleet(vec![job], &workers(1));
        assert_eq!(report.results[0].attempts, 1);
    }

    #[test]
    fn latency_bound_jobs_overlap_across_workers() {
        // Jobs that sleep (as harness-bound sessions do) should overlap:
        // 8 × 10ms on 4 workers must finish well under the 80ms serial time.
        let sleepy = |id: usize| {
            Job::new(JobRequest::new(id, format!("sleepy-{id}")), |_ctx| {
                std::thread::sleep(Duration::from_millis(10));
                Ok(proven_report(1))
            })
        };
        let report = run_fleet((0..8).map(sleepy).collect(), &workers(4));
        assert!(
            report.wall_nanos < report.busy_nanos(),
            "wall {} >= busy {}",
            report.wall_nanos,
            report.busy_nanos()
        );
    }
}
