//! The resident verification daemon: priority scheduling, per-client
//! fairness, admission control, and live event fan-out.
//!
//! The [`Daemon`] is transport-agnostic — it exposes an in-process API
//! (`submit`/`wait`/`cancel`/`history`/`stats`/`subscribe`) that the
//! socket layer in [`crate::net`] forwards to. Scheduling state lives
//! under one mutex with two condvars (`work_ready` wakes workers, `done`
//! wakes waiters); workers are plain std threads that pop jobs, run them
//! under `catch_unwind` with per-attempt deadline tokens, and record
//! [`VerdictRecord`]s.
//!
//! **Scheduling policy** (DESIGN.md §14): three strict priority classes —
//! all `High` work before any `Normal` before any `Low` — and, *within* a
//! class, round-robin over clients: between two consecutive jobs of one
//! client, every other client with pending work in that class is served
//! once. A client flooding the queue can therefore delay only its own
//! jobs.
//!
//! **Admission policy**: submission never blocks. A submission is either
//! accepted (job id) or rejected with a typed reason — daemon-wide
//! pending cap ([`ServeError::QueueFull`]), per-client cap
//! ([`ServeError::ClientLimit`]), unresolvable request, or shutdown. Wire
//! clients see load *shedding*: a burst of thousands of submissions drains
//! as fast as rejections can be written, and the daemon keeps serving. The
//! in-process batch client ([`crate::run_fleet`]) meets the same answers by
//! waiting for its oldest job instead.
//!
//! **One panic rule**: a panicking attempt is an `error` outcome, retried
//! under the request's own [`retries`](JobRequest::retries) like any other
//! rig-attributed failure; the worker thread survives it.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Instant;

use muml_core::CancelToken;
use muml_fleet::{classify, Job, JobContext, JobOutcome, JobRegistry, JobRequest, JobResult};
use muml_obs::json::ToJson;
use muml_obs::{EventSink, FleetEvent, LoopEvent, SharedSink};

use crate::error::ServeError;
use crate::journal::{Journal, JournalRecord};
use crate::protocol::{
    CancelState, Priority, Response, ServerStats, VerdictRecord, MAX_FRAME_DEFAULT,
};

/// Daemon configuration.
///
/// `#[non_exhaustive]`; construct with [`ServeConfig::default`] and refine
/// via the chainable setters.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker-pool size (clamped to at least 1).
    pub workers: usize,
    /// Daemon-wide cap on pending (queued + running) jobs; submissions
    /// beyond it are rejected with [`ServeError::QueueFull`].
    pub max_pending: usize,
    /// Per-client cap on pending jobs; submissions beyond it are rejected
    /// with [`ServeError::ClientLimit`].
    pub max_pending_per_client: usize,
    /// Cap on a wire frame's payload size in bytes.
    pub max_frame: usize,
    /// How many finished jobs the verdict history retains (older records
    /// are evicted and their job ids forgotten).
    pub history_limit: usize,
    /// Warm-start store shared by every worker (and, through the file
    /// lock, with any co-resident daemon on the same directory).
    /// Handed to work closures via [`JobContext::store`](muml_fleet::JobContext);
    /// `None` keeps jobs stateless.
    pub store: Option<Arc<muml_core::store::Store>>,
    /// Path of the durable job journal (see [`crate::journal`]). When set,
    /// every admission and every verdict is fsynced to this file before
    /// the corresponding reply/wakeup, and [`Daemon::start`] replays it:
    /// the pre-crash verdict history is rebuilt bit-identically and
    /// accepted-but-unfinished jobs are re-enqueued under their original
    /// ids. `None` keeps the daemon stateless across restarts.
    pub journal: Option<std::path::PathBuf>,
    /// Per-read/write socket timeout. A peer that stalls *mid-frame* for
    /// longer than this (the slowloris pattern: a few header bytes, then
    /// silence) is disconnected — it can never get back in sync. A
    /// timeout at a frame *boundary* is not fatal by itself; see
    /// [`ServeConfig::idle_timeout`]. `None` disables socket timeouts.
    pub io_timeout: Option<std::time::Duration>,
    /// How long a connection may sit idle *between* complete frames
    /// before the server disconnects it. Only enforced when
    /// [`ServeConfig::io_timeout`] is also set (the read timeout is what
    /// wakes the reader to check the deadline). `None` allows idle
    /// connections to linger forever.
    pub idle_timeout: Option<std::time::Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_pending: 256,
            max_pending_per_client: 64,
            max_frame: MAX_FRAME_DEFAULT,
            history_limit: 1024,
            store: None,
            journal: None,
            io_timeout: Some(std::time::Duration::from_secs(30)),
            idle_timeout: None,
        }
    }
}

impl ServeConfig {
    /// Sets the worker-pool size.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the daemon-wide pending-job admission limit.
    #[must_use]
    pub fn with_max_pending(mut self, max_pending: usize) -> Self {
        self.max_pending = max_pending.max(1);
        self
    }

    /// Sets the per-client pending-job admission limit.
    #[must_use]
    pub fn with_max_pending_per_client(mut self, limit: usize) -> Self {
        self.max_pending_per_client = limit.max(1);
        self
    }

    /// Sets the wire frame-size cap.
    #[must_use]
    pub fn with_max_frame(mut self, max_frame: usize) -> Self {
        self.max_frame = max_frame.max(64);
        self
    }

    /// Sets the verdict-history retention.
    #[must_use]
    pub fn with_history_limit(mut self, limit: usize) -> Self {
        self.history_limit = limit.max(1);
        self
    }

    /// Opens (or creates) the warm-start store rooted at `path` and shares
    /// it with every worker (see [`ServeConfig::store`]).
    #[must_use]
    pub fn with_store(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.store = Some(Arc::new(muml_core::store::Store::open(path)));
        self
    }

    /// Shares an already-open store with every worker.
    #[must_use]
    pub fn with_shared_store(mut self, store: Arc<muml_core::store::Store>) -> Self {
        self.store = Some(store);
        self
    }

    /// Journals admissions and verdicts to `path` and replays it on start
    /// (see [`ServeConfig::journal`]).
    #[must_use]
    pub fn with_journal(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.journal = Some(path.into());
        self
    }

    /// Sets the per-read/write socket timeout (see
    /// [`ServeConfig::io_timeout`]).
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: std::time::Duration) -> Self {
        self.io_timeout = Some(timeout);
        self
    }

    /// Sets the idle-connection deadline (see
    /// [`ServeConfig::idle_timeout`]).
    #[must_use]
    pub fn with_idle_timeout(mut self, deadline: std::time::Duration) -> Self {
        self.idle_timeout = Some(deadline);
        self
    }
}

/// What replaying the journal on [`Daemon::start`] recovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Intact records replayed.
    pub records: usize,
    /// Verdicts restored into the history.
    pub finished: usize,
    /// Accepted-but-unfinished jobs re-enqueued under their original ids.
    pub resubmitted: usize,
    /// Torn-tail bytes truncated from the journal file.
    pub truncated_bytes: u64,
}

/// A queued, already-resolved job.
struct QueuedJob {
    job: Job,
    client: u64,
    cancel: CancelToken,
    /// Where the worker hands back the full [`JobResult`]: set for jobs of
    /// the in-process batch client, `None` for wire jobs.
    reply: Option<mpsc::Sender<JobResult>>,
}

/// Lifecycle of a submitted job.
enum JobState {
    Queued(Box<QueuedJob>),
    Running {
        cancel: CancelToken,
        cancelled_by_client: bool,
    },
    /// The finished verdict, shared with the history.
    Done(Arc<VerdictRecord>),
}

/// One priority class: per-client FIFO queues served round-robin.
#[derive(Default)]
struct ClassQueue {
    clients: Vec<(u64, VecDeque<u64>)>,
    cursor: usize,
}

impl ClassQueue {
    fn push(&mut self, client: u64, job: u64) {
        match self.clients.iter_mut().find(|(c, _)| *c == client) {
            Some((_, queue)) => queue.push_back(job),
            None => {
                let mut queue = VecDeque::new();
                queue.push_back(job);
                self.clients.push((client, queue));
            }
        }
    }

    /// Pops the next job id under the fairness invariant: the cursor
    /// advances one client per pop, so between two consecutive pops from
    /// one client every other client with queued work is served.
    fn pop(&mut self) -> Option<u64> {
        if self.clients.is_empty() {
            return None;
        }
        self.cursor %= self.clients.len();
        let (_, queue) = &mut self.clients[self.cursor];
        let job = queue.pop_front().expect("empty client queues are removed");
        if queue.is_empty() {
            // The next client shifts into the cursor slot — no advance.
            self.clients.remove(self.cursor);
        } else {
            self.cursor += 1;
        }
        Some(job)
    }

    fn remove(&mut self, job: u64) -> bool {
        for index in 0..self.clients.len() {
            let queue = &mut self.clients[index].1;
            if let Some(pos) = queue.iter().position(|j| *j == job) {
                queue.remove(pos);
                if queue.is_empty() {
                    self.clients.remove(index);
                    if self.cursor > index {
                        self.cursor -= 1;
                    }
                }
                return true;
            }
        }
        false
    }

    fn len(&self) -> usize {
        self.clients.iter().map(|(_, q)| q.len()).sum()
    }
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    rejected: u64,
    cancelled: u64,
}

struct SchedState {
    next_job: u64,
    classes: [ClassQueue; 3],
    jobs: HashMap<u64, JobState>,
    /// Finished verdicts, oldest first; each is the same allocation its
    /// job's [`JobState::Done`] holds.
    history: VecDeque<Arc<VerdictRecord>>,
    running: usize,
    per_client: HashMap<u64, usize>,
    counters: Counters,
    shutdown: bool,
    subscribers: Vec<mpsc::Sender<Response>>,
}

impl SchedState {
    fn queued(&self) -> usize {
        self.classes.iter().map(ClassQueue::len).sum()
    }

    fn pending(&self) -> usize {
        self.queued() + self.running
    }

    /// Files a finished verdict: one shared record, held by the history
    /// and by its job's `Done` state. Evicting a record past
    /// `history_limit` forgets its job as well.
    fn finish(&mut self, record: VerdictRecord, history_limit: usize) {
        let record = Arc::new(record);
        self.history.push_back(Arc::clone(&record));
        while self.history.len() > history_limit {
            if let Some(evicted) = self.history.pop_front() {
                self.jobs.remove(&evicted.job);
            }
        }
        self.jobs.insert(record.job, JobState::Done(record));
    }
}

struct DaemonInner {
    config: ServeConfig,
    registry: JobRegistry,
    state: Mutex<SchedState>,
    work_ready: Condvar,
    done: Condvar,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    journal: Option<Mutex<Journal>>,
    replay: Option<ReplayStats>,
}

impl DaemonInner {
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Best-effort journal append: a full disk must not take the daemon
    /// down with it (the chaos campaign asserts verdict *soundness* under
    /// journal faults, not durability — a lost record only weakens what a
    /// later replay can recover).
    fn journal_append(&self, record: &JournalRecord) {
        if let Some(journal) = &self.journal {
            let _ = journal
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .append(record);
        }
    }

    /// Sends an event to every live subscriber, dropping dead ones.
    fn broadcast(&self, response: &Response) {
        let mut state = self.lock();
        state
            .subscribers
            .retain(|tx| tx.send(response.clone()).is_ok());
    }

    /// Moves a job into `Done`, maintaining history, counters, and
    /// bookkeeping. Call with the lock held; notifies `done`.
    fn record_done(&self, state: &mut SchedState, client: u64, record: VerdictRecord) {
        // The verdict hits stable storage before any waiter can observe
        // it: a crash after the wakeup must still replay this record.
        let journalled = JournalRecord::Finished { record };
        self.journal_append(&journalled);
        let JournalRecord::Finished { record } = journalled else {
            unreachable!("built as Finished above")
        };
        state.finish(record, self.config.history_limit);
        state.counters.completed += 1;
        if let Some(pending) = state.per_client.get_mut(&client) {
            *pending = pending.saturating_sub(1);
            if *pending == 0 {
                state.per_client.remove(&client);
            }
        }
        self.done.notify_all();
    }
}

/// A cloneable handle to a running daemon.
#[derive(Clone)]
pub struct Daemon {
    inner: Arc<DaemonInner>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

/// Forwards a running job's per-iteration loop events to subscribers.
struct ForwardSink {
    inner: Arc<DaemonInner>,
    job: u64,
}

impl EventSink for ForwardSink {
    fn emit(&mut self, event: &LoopEvent) {
        // Cheap exit when nobody is listening.
        if self.inner.lock().subscribers.is_empty() {
            return;
        }
        self.inner.broadcast(&Response::Event {
            stream: "loop".into(),
            job: self.job,
            payload: event.to_json(),
        });
    }
}

impl Daemon {
    /// Starts the daemon's worker pool over the given scenario registry.
    ///
    /// When [`ServeConfig::journal`] is set, the journal is opened and
    /// replayed *before* any worker thread spawns: finished records
    /// rebuild the verdict history exactly as recorded (same order, same
    /// `nanos`), and accepted-but-unfinished jobs are re-resolved through
    /// the registry and re-enqueued under their original ids and
    /// priorities. A journal that cannot be opened disables journalling
    /// for this run (the daemon still serves) — robustness never turns
    /// into refusal to start.
    pub fn start(config: ServeConfig, registry: JobRegistry) -> Daemon {
        let mut state = SchedState {
            next_job: 1,
            classes: Default::default(),
            jobs: HashMap::new(),
            history: VecDeque::new(),
            running: 0,
            per_client: HashMap::new(),
            counters: Counters::default(),
            shutdown: false,
            subscribers: Vec::new(),
        };
        let mut journal = None;
        let mut replay_stats = None;
        if let Some(path) = &config.journal {
            match Journal::open(path) {
                Ok((mut opened, replay)) => {
                    let stats = replay_daemon_state(
                        &mut state,
                        &mut opened,
                        &registry,
                        &replay,
                        config.history_limit,
                    );
                    journal = Some(Mutex::new(opened));
                    replay_stats = Some(stats);
                }
                Err(e) => {
                    eprintln!(
                        "muml-serve: journal {} unusable ({e}); continuing without journal",
                        path.display()
                    );
                }
            }
        }
        let inner = Arc::new(DaemonInner {
            config: config.clone(),
            registry,
            state: Mutex::new(state),
            work_ready: Condvar::new(),
            done: Condvar::new(),
            workers: Mutex::new(Vec::new()),
            journal,
            replay: replay_stats,
        });
        let mut handles = Vec::new();
        for worker in 0..config.workers.max(1) {
            let inner = Arc::clone(&inner);
            handles.push(thread::spawn(move || worker_loop(worker, inner)));
        }
        *inner.workers.lock().unwrap_or_else(PoisonError::into_inner) = handles;
        Daemon { inner }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.config
    }

    /// What the journal replay recovered at start (`None` when no journal
    /// is configured or it could not be opened).
    pub fn journal_replay(&self) -> Option<ReplayStats> {
        self.inner.replay
    }

    /// Submits a job on behalf of `client`. Resolution and admission are
    /// synchronous: the call returns either the assigned job id or a
    /// typed rejection — it never blocks on queue capacity.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShuttingDown`], [`ServeError::QueueFull`],
    /// [`ServeError::ClientLimit`], or a resolution error
    /// ([`ServeError::UnknownScenario`] / [`ServeError::InvalidRequest`]).
    pub fn submit(
        &self,
        client: u64,
        request: &JobRequest,
        priority: Priority,
    ) -> Result<u64, ServeError> {
        // Resolve outside the scheduler lock — fault matrices are not
        // free, and a bad request must not stall the scheduler.
        let resolved = match self.inner.registry.resolve(request) {
            Ok(job) => job,
            Err(e) => {
                self.inner.lock().counters.rejected += 1;
                return Err(ServeError::from(e));
            }
        };
        let queued = Box::new(QueuedJob {
            job: resolved,
            client,
            cancel: CancelToken::new(),
            reply: None,
        });
        let id = self.admit(queued, priority).map_err(|(e, _)| e)?;
        // Journal the admission before the id escapes to the client: a
        // crash after this reply must replay (and re-run) the job.
        self.inner.journal_append(&JournalRecord::Accepted {
            job: id,
            client,
            priority,
            request: request.clone(),
        });
        self.inner.work_ready.notify_one();
        Ok(id)
    }

    /// Submits an already-resolved job for the in-process batch client: the
    /// same admission and enqueue as [`Daemon::submit`], at normal
    /// priority, with the worker's full [`JobResult`] sent to `reply`. A
    /// rejection hands the job back. Nothing is journalled: a work closure
    /// cannot be replayed from a record.
    pub(crate) fn submit_job(
        &self,
        client: u64,
        job: Job,
        reply: mpsc::Sender<JobResult>,
    ) -> Result<u64, Box<(ServeError, Job)>> {
        let queued = Box::new(QueuedJob {
            job,
            client,
            cancel: CancelToken::new(),
            reply: Some(reply),
        });
        let id = self
            .admit(queued, Priority::Normal)
            .map_err(|(e, queued)| Box::new((e, queued.job)))?;
        self.inner.work_ready.notify_one();
        Ok(id)
    }

    /// Admission and enqueue under one scheduler lock: checks shutdown and
    /// both pending caps, then queues the job under a fresh id. A rejection
    /// hands the job back.
    fn admit(
        &self,
        queued: Box<QueuedJob>,
        priority: Priority,
    ) -> Result<u64, (ServeError, Box<QueuedJob>)> {
        let config = &self.inner.config;
        let client = queued.client;
        let mut state = self.inner.lock();
        let pending = state.pending();
        let client_pending = state.per_client.get(&client).copied().unwrap_or(0);
        let refusal = if state.shutdown {
            ServeError::ShuttingDown
        } else if pending >= config.max_pending {
            ServeError::QueueFull {
                pending,
                limit: config.max_pending,
            }
        } else if client_pending >= config.max_pending_per_client {
            ServeError::ClientLimit {
                pending: client_pending,
                limit: config.max_pending_per_client,
            }
        } else {
            let id = state.next_job;
            state.next_job += 1;
            state.jobs.insert(id, JobState::Queued(queued));
            state.classes[priority.rank()].push(client, id);
            *state.per_client.entry(client).or_insert(0) += 1;
            state.counters.submitted += 1;
            return Ok(id);
        };
        state.counters.rejected += 1;
        Err((refusal, queued))
    }

    /// Blocks until the job reaches a verdict and returns its record.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`] for ids never assigned or already
    /// evicted from history.
    pub fn wait(&self, job: u64) -> Result<VerdictRecord, ServeError> {
        let mut state = self.inner.lock();
        loop {
            match state.jobs.get(&job) {
                None => return Err(ServeError::UnknownJob { job }),
                Some(JobState::Done(record)) => return Ok(VerdictRecord::clone(record)),
                Some(_) => {
                    state = self
                        .inner
                        .done
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }
    }

    /// Cancels a job: removes it if still queued (recording a
    /// `cancelled` verdict), signals its [`CancelToken`] if running.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownJob`].
    pub fn cancel(&self, job: u64) -> Result<CancelState, ServeError> {
        let mut state = self.inner.lock();
        match state.jobs.get_mut(&job) {
            None => Err(ServeError::UnknownJob { job }),
            Some(JobState::Done(_)) => Ok(CancelState::AlreadyDone),
            Some(JobState::Running {
                cancel,
                cancelled_by_client,
            }) => {
                *cancelled_by_client = true;
                cancel.cancel();
                state.counters.cancelled += 1;
                Ok(CancelState::Signalled)
            }
            Some(JobState::Queued(_)) => {
                for class in &mut state.classes {
                    if class.remove(job) {
                        break;
                    }
                }
                let queued = match state.jobs.remove(&job) {
                    Some(JobState::Queued(queued)) => queued,
                    _ => unreachable!("matched Queued above"),
                };
                state.counters.cancelled += 1;
                let record = VerdictRecord {
                    job,
                    request: queued.job.request.clone(),
                    outcome: "cancelled".into(),
                    property: None,
                    iterations: 0,
                    nanos: 0,
                    attempts: 0,
                };
                self.inner.record_done(&mut state, queued.client, record);
                drop(state);
                self.inner.broadcast(&Response::Event {
                    stream: "fleet".into(),
                    job,
                    payload: FleetEvent::JobFinished {
                        job: job as usize,
                        worker: 0,
                        outcome: "cancelled".into(),
                        iterations: 0,
                        nanos: 0,
                    }
                    .to_json(),
                });
                Ok(CancelState::Removed)
            }
        }
    }

    /// The bounded verdict history, oldest first.
    pub fn history(&self) -> Vec<VerdictRecord> {
        self.inner
            .lock()
            .history
            .iter()
            .map(|r| VerdictRecord::clone(r))
            .collect()
    }

    /// Current daemon counters.
    pub fn stats(&self) -> ServerStats {
        let state = self.inner.lock();
        ServerStats {
            submitted: state.counters.submitted,
            completed: state.counters.completed,
            rejected: state.counters.rejected,
            cancelled: state.counters.cancelled,
            queued: state.queued(),
            running: state.running,
            scenarios: self
                .inner
                .registry
                .scenarios()
                .into_iter()
                .map(str::to_owned)
                .collect(),
        }
    }

    /// Registers a live event subscriber. The returned channel yields
    /// [`Response::Event`] frames until the daemon shuts down (or the
    /// receiver is dropped).
    pub fn subscribe(&self) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        self.inner.lock().subscribers.push(tx);
        rx
    }

    /// Initiates shutdown: rejects future submissions, cancels queued
    /// jobs (recorded as `cancelled`), signals running jobs' tokens, and
    /// disconnects subscribers. Running jobs finish cooperatively;
    /// [`Daemon::join`] waits for them.
    pub fn shutdown(&self) {
        let mut state = self.inner.lock();
        if state.shutdown {
            return;
        }
        state.shutdown = true;
        // Drain every queue, recording cancelled verdicts.
        let mut drained = Vec::new();
        for class in &mut state.classes {
            while let Some(job) = class.pop() {
                drained.push(job);
            }
        }
        for job in drained {
            let queued = match state.jobs.remove(&job) {
                Some(JobState::Queued(queued)) => queued,
                other => {
                    if let Some(other) = other {
                        state.jobs.insert(job, other);
                    }
                    continue;
                }
            };
            state.counters.cancelled += 1;
            let record = VerdictRecord {
                job,
                request: queued.job.request.clone(),
                outcome: "cancelled".into(),
                property: None,
                iterations: 0,
                nanos: 0,
                attempts: 0,
            };
            self.inner.record_done(&mut state, queued.client, record);
        }
        // Ask running jobs to stop at their next cancellation point.
        for job_state in state.jobs.values_mut() {
            if let JobState::Running {
                cancel,
                cancelled_by_client,
            } = job_state
            {
                *cancelled_by_client = true;
                cancel.cancel();
            }
        }
        state.subscribers.clear();
        self.inner.work_ready.notify_all();
        self.inner.done.notify_all();
    }

    /// Waits for every worker to exit (call after [`Daemon::shutdown`]).
    pub fn join(&self) {
        let handles: Vec<_> = self
            .inner
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// Rebuilds the scheduler state from a journal replay: finished records
/// restore the history verbatim (order, `nanos`, everything — the
/// recovery invariant is *bit-identical* history), unfinished accepted
/// records re-resolve and re-enqueue under their original ids. A job
/// whose scenario no longer resolves gets a terminal `error` verdict,
/// journalled so the next restart does not retry it.
fn replay_daemon_state(
    state: &mut SchedState,
    journal: &mut Journal,
    registry: &JobRegistry,
    replay: &crate::journal::JournalReplay,
    history_limit: usize,
) -> ReplayStats {
    let mut stats = ReplayStats {
        records: replay.records.len(),
        truncated_bytes: replay.truncated_bytes,
        ..ReplayStats::default()
    };
    for record in replay.finished() {
        state.finish(record.clone(), history_limit);
        state.counters.completed += 1;
        stats.finished += 1;
    }
    for record in replay.unfinished() {
        let JournalRecord::Accepted {
            job,
            client,
            priority,
            request,
        } = record
        else {
            continue;
        };
        match registry.resolve(request) {
            Ok(resolved) => {
                state.jobs.insert(
                    *job,
                    JobState::Queued(Box::new(QueuedJob {
                        job: resolved,
                        client: *client,
                        cancel: CancelToken::new(),
                        reply: None,
                    })),
                );
                state.classes[priority.rank()].push(*client, *job);
                *state.per_client.entry(*client).or_insert(0) += 1;
                stats.resubmitted += 1;
            }
            Err(e) => {
                let verdict = VerdictRecord {
                    job: *job,
                    request: request.clone(),
                    outcome: "error".into(),
                    property: None,
                    iterations: 0,
                    nanos: 0,
                    attempts: 0,
                };
                let _ = journal.append(&JournalRecord::Finished {
                    record: verdict.clone(),
                });
                state.finish(verdict, history_limit);
                state.counters.completed += 1;
                eprintln!("muml-serve: journalled job {job} no longer resolves: {e:?}");
            }
        }
    }
    state.counters.submitted = replay
        .records
        .iter()
        .filter(|r| matches!(r, JournalRecord::Accepted { .. }))
        .count() as u64;
    state.next_job = replay.max_job_id() + 1;
    stats
}

fn worker_loop(worker: usize, inner: Arc<DaemonInner>) {
    loop {
        // Pop the next job: highest class first, round-robin within it.
        let (id, queued) = {
            let mut state = inner.lock();
            loop {
                let popped = state.classes.iter_mut().find_map(ClassQueue::pop);
                if let Some(id) = popped {
                    let queued = match state.jobs.remove(&id) {
                        Some(JobState::Queued(queued)) => queued,
                        // Cancelled-while-queued jobs are removed from the
                        // class queues too, so this arm is unreachable —
                        // but a stale id must not kill the worker.
                        other => {
                            if let Some(other) = other {
                                state.jobs.insert(id, other);
                            }
                            continue;
                        }
                    };
                    state.jobs.insert(
                        id,
                        JobState::Running {
                            cancel: queued.cancel.clone(),
                            cancelled_by_client: false,
                        },
                    );
                    state.running += 1;
                    break (id, queued);
                }
                if state.shutdown {
                    return;
                }
                state = inner
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let QueuedJob {
            job,
            client,
            cancel,
            reply,
        } = *queued;
        let request = job.request.clone();
        inner.journal_append(&JournalRecord::Started { job: id });
        inner.broadcast(&Response::Event {
            stream: "fleet".into(),
            job: id,
            payload: FleetEvent::JobStarted {
                job: request.id,
                name: request.name.clone(),
                worker,
            }
            .to_json(),
        });
        let loop_sink = SharedSink::new(ForwardSink {
            inner: Arc::clone(&inner),
            job: id,
        });
        let started = Instant::now();
        let mut attempts = 0usize;
        let (outcome, iterations, stats) = loop {
            attempts += 1;
            // Per-attempt deadline sharing the client-cancellable flag:
            // whichever fires first cancels the attempt.
            let attempt_cancel = match request.deadline {
                Some(deadline) => cancel.deadline_from_now(deadline),
                None => cancel.clone(),
            };
            let context = JobContext {
                cancel: attempt_cancel,
                loop_sink: Some(loop_sink.clone()),
                store: inner.config.store.clone(),
            };
            let run = catch_unwind(AssertUnwindSafe(|| (job.work)(&context)));
            let classified = match run {
                Ok(result) => classify(result),
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| (*s).to_owned())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "job panicked".to_owned());
                    (
                        JobOutcome::Error { message },
                        0,
                        muml_core::IntegrationStats::default(),
                    )
                }
            };
            if classified.0.is_rig_failure()
                && attempts <= request.retries
                && !cancel.is_cancelled()
            {
                continue;
            }
            break classified;
        };
        let nanos = started.elapsed().as_nanos() as u64;
        let mut state = inner.lock();
        let cancelled_by_client = matches!(
            state.jobs.get(&id),
            Some(JobState::Running {
                cancelled_by_client: true,
                ..
            })
        );
        // A deadline expiry and a client cancel both surface as a
        // cooperative stop; only the client-initiated one is `cancelled`.
        let outcome_name = if cancelled_by_client && outcome == JobOutcome::TimedOut {
            "cancelled".to_owned()
        } else {
            outcome.name().to_owned()
        };
        let property = match &outcome {
            JobOutcome::RealFault { property } => Some(property.clone()),
            _ => None,
        };
        let record = VerdictRecord {
            job: id,
            request,
            outcome: outcome_name.clone(),
            property,
            iterations,
            nanos,
            attempts,
        };
        state.running -= 1;
        // Deliver the finish event *before* `record_done` wakes waiters:
        // a client that saw the verdict may immediately shut the daemon
        // down, and subscribers must not lose the event to that race.
        let event = Response::Event {
            stream: "fleet".into(),
            job: id,
            payload: FleetEvent::JobFinished {
                job: record.request.id,
                worker,
                outcome: outcome_name,
                iterations,
                nanos,
            }
            .to_json(),
        };
        state
            .subscribers
            .retain(|tx| tx.send(event.clone()).is_ok());
        let batch = reply.map(|tx| {
            let result = JobResult {
                request: record.request.clone(),
                outcome,
                iterations,
                stats,
                worker,
                nanos,
                attempts,
            };
            (tx, result)
        });
        inner.record_done(&mut state, client, record);
        if let Some((tx, result)) = batch {
            // After `record_done`, so the batch client finds the job's
            // admission slot free when it wakes.
            drop(state);
            let _ = tx.send(result);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_core::{CoreError, IntegrationReport, IntegrationStats, IntegrationVerdict};
    use muml_testkit::TempDir;
    use std::time::Duration;

    /// A registry with a `noop` scenario: `variant == "slow"` sleeps in
    /// cancellable 1ms steps, everything else proves instantly.
    fn test_registry() -> JobRegistry {
        let mut registry = JobRegistry::new();
        registry.register("noop", |request| {
            let slow = request.variant == "slow";
            Ok(Box::new(move |ctx: &JobContext| {
                if slow {
                    for _ in 0..5_000 {
                        if ctx.cancel.is_cancelled() {
                            return Err(CoreError::Cancelled { iterations: 1 });
                        }
                        thread::sleep(Duration::from_millis(1));
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

    fn noop_request(id: usize) -> JobRequest {
        JobRequest::new(id, format!("noop-{id}")).with_scenario("noop")
    }

    fn slow_request(id: usize) -> JobRequest {
        noop_request(id).with_variant("slow")
    }

    #[test]
    fn submit_wait_round_trip() {
        let daemon = Daemon::start(ServeConfig::default(), test_registry());
        let job = daemon
            .submit(1, &noop_request(0), Priority::Normal)
            .unwrap();
        let record = daemon.wait(job).unwrap();
        assert_eq!(record.outcome, "proven");
        assert_eq!(record.attempts, 1);
        assert_eq!(daemon.history().len(), 1);
        let stats = daemon.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.completed, 1);
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn unknown_scenarios_are_rejected_typed() {
        let daemon = Daemon::start(ServeConfig::default(), test_registry());
        let err = daemon
            .submit(1, &noop_request(0).with_scenario("nope"), Priority::Normal)
            .unwrap_err();
        assert_eq!(err.code(), "unknown-scenario");
        assert_eq!(daemon.stats().rejected, 1);
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn admission_control_sheds_bursts_without_hanging() {
        // One worker pinned by a slow job; tiny queue.
        let config = ServeConfig::default()
            .with_workers(1)
            .with_max_pending(4)
            .with_max_pending_per_client(100);
        let daemon = Daemon::start(config, test_registry());
        let pinned = daemon
            .submit(1, &slow_request(0), Priority::Normal)
            .unwrap();
        // Wait for the worker to pick it up so it occupies the worker, not
        // a queue slot — the burst accounting below depends on that, and
        // cancelling it must observe `Signalled`, not `Removed`.
        while daemon.stats().running == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let mut accepted = Vec::new();
        let mut queue_full = 0;
        for i in 1..200 {
            match daemon.submit(1, &noop_request(i), Priority::Normal) {
                Ok(id) => accepted.push(id),
                Err(ServeError::QueueFull { limit, .. }) => {
                    assert_eq!(limit, 4);
                    queue_full += 1;
                }
                Err(other) => panic!("unexpected rejection {other:?}"),
            }
        }
        assert!(queue_full > 150, "almost all of the burst must shed");
        assert_eq!(daemon.stats().rejected, queue_full);
        // The daemon still serves: cancel the pinned job, drain the rest.
        assert_eq!(daemon.cancel(pinned).unwrap(), CancelState::Signalled);
        assert_eq!(daemon.wait(pinned).unwrap().outcome, "cancelled");
        for id in accepted {
            assert_eq!(daemon.wait(id).unwrap().outcome, "proven");
        }
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn per_client_limit_protects_other_clients() {
        let config = ServeConfig::default()
            .with_workers(1)
            .with_max_pending(100)
            .with_max_pending_per_client(2);
        let daemon = Daemon::start(config, test_registry());
        let pinned = daemon
            .submit(7, &slow_request(0), Priority::Normal)
            .unwrap();
        let _second = daemon
            .submit(7, &noop_request(1), Priority::Normal)
            .unwrap();
        let err = daemon
            .submit(7, &noop_request(2), Priority::Normal)
            .unwrap_err();
        assert_eq!(err.code(), "client-limit");
        // A different client is unaffected.
        let other = daemon
            .submit(8, &noop_request(3), Priority::Normal)
            .unwrap();
        daemon.cancel(pinned).unwrap();
        assert_eq!(daemon.wait(other).unwrap().outcome, "proven");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn priority_classes_run_high_before_low() {
        // Single worker pinned; queue Low then High; High must finish
        // first once the worker frees up.
        let daemon = Daemon::start(ServeConfig::default().with_workers(1), test_registry());
        let pinned = daemon
            .submit(1, &slow_request(0), Priority::Normal)
            .unwrap();
        let low = daemon.submit(1, &noop_request(1), Priority::Low).unwrap();
        let high = daemon.submit(1, &noop_request(2), Priority::High).unwrap();
        daemon.cancel(pinned).unwrap();
        daemon.wait(low).unwrap();
        let history: Vec<u64> = daemon.history().iter().map(|r| r.job).collect();
        let high_pos = history.iter().position(|j| *j == high).unwrap();
        let low_pos = history.iter().position(|j| *j == low).unwrap();
        assert!(high_pos < low_pos, "history {history:?}");
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn fairness_interleaves_clients_within_a_class() {
        // Client 1 floods 4 jobs, then client 2 submits 2. With the
        // worker pinned, the round-robin must interleave: between two
        // consecutive client-1 completions, a client-2 job completes
        // (while client 2 has work queued).
        let daemon = Daemon::start(ServeConfig::default().with_workers(1), test_registry());
        let pinned = daemon
            .submit(9, &slow_request(0), Priority::Normal)
            .unwrap();
        let flood: Vec<u64> = (0..4)
            .map(|i| {
                daemon
                    .submit(1, &noop_request(i), Priority::Normal)
                    .unwrap()
            })
            .collect();
        let pair: Vec<u64> = (4..6)
            .map(|i| {
                daemon
                    .submit(2, &noop_request(i), Priority::Normal)
                    .unwrap()
            })
            .collect();
        daemon.cancel(pinned).unwrap();
        for id in flood.iter().chain(&pair) {
            daemon.wait(*id).unwrap();
        }
        let order: Vec<u64> = daemon
            .history()
            .iter()
            .map(|r| r.job)
            .filter(|j| *j != pinned)
            .collect();
        // First four completions alternate between the two clients.
        let owner = |job: &u64| {
            if flood.contains(job) {
                1
            } else {
                2
            }
        };
        let owners: Vec<u64> = order.iter().map(owner).collect();
        assert_eq!(
            &owners[..4],
            &[1, 2, 1, 2],
            "completion order {order:?} (owners {owners:?})"
        );
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn cancelling_a_queued_job_records_a_cancelled_verdict() {
        let daemon = Daemon::start(ServeConfig::default().with_workers(1), test_registry());
        let pinned = daemon
            .submit(1, &slow_request(0), Priority::Normal)
            .unwrap();
        let queued = daemon
            .submit(1, &noop_request(1), Priority::Normal)
            .unwrap();
        assert_eq!(daemon.cancel(queued).unwrap(), CancelState::Removed);
        let record = daemon.wait(queued).unwrap();
        assert_eq!(record.outcome, "cancelled");
        assert_eq!(record.attempts, 0);
        assert_eq!(daemon.cancel(queued).unwrap(), CancelState::AlreadyDone);
        assert!(matches!(
            daemon.cancel(4242).unwrap_err(),
            ServeError::UnknownJob { job: 4242 }
        ));
        daemon.cancel(pinned).unwrap();
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn shutdown_cancels_queued_work_and_stops_workers() {
        let daemon = Daemon::start(ServeConfig::default().with_workers(1), test_registry());
        let pinned = daemon
            .submit(1, &slow_request(0), Priority::Normal)
            .unwrap();
        let queued = daemon
            .submit(1, &noop_request(1), Priority::Normal)
            .unwrap();
        daemon.shutdown();
        daemon.join();
        assert_eq!(daemon.wait(queued).unwrap().outcome, "cancelled");
        assert_eq!(daemon.wait(pinned).unwrap().outcome, "cancelled");
        assert!(matches!(
            daemon.submit(1, &noop_request(2), Priority::Normal),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn subscribers_see_job_lifecycle_events() {
        let daemon = Daemon::start(ServeConfig::default(), test_registry());
        let events = daemon.subscribe();
        let job = daemon
            .submit(1, &noop_request(0), Priority::Normal)
            .unwrap();
        daemon.wait(job).unwrap();
        daemon.shutdown();
        let kinds: Vec<String> = events
            .iter()
            .filter_map(|response| match response {
                Response::Event { payload, .. } => payload
                    .get("event")
                    .and_then(muml_obs::json::Json::as_str)
                    .map(str::to_owned),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&"job_started".to_owned()), "{kinds:?}");
        assert!(kinds.contains(&"job_finished".to_owned()), "{kinds:?}");
        daemon.join();
    }

    #[test]
    fn restart_replays_history_bit_identically() {
        let dir = TempDir::new("serve-journal-history");
        let path = dir.path().join("serve.journal");
        let first_history = {
            let daemon = Daemon::start(ServeConfig::default().with_journal(&path), test_registry());
            assert_eq!(daemon.journal_replay(), Some(ReplayStats::default()));
            for i in 0..5 {
                let id = daemon
                    .submit(1, &noop_request(i), Priority::Normal)
                    .unwrap();
                daemon.wait(id).unwrap();
            }
            let history = daemon.history();
            daemon.shutdown();
            daemon.join();
            history
        };
        // A fresh daemon on the same journal rebuilds the identical
        // history — same order, same nanos, same attempt counts.
        let daemon = Daemon::start(ServeConfig::default().with_journal(&path), test_registry());
        let replay = daemon.journal_replay().expect("journal configured");
        assert_eq!(replay.finished, 5);
        assert_eq!(replay.resubmitted, 0);
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(daemon.history(), first_history);
        // The id counter resumes above every replayed id.
        let next = daemon
            .submit(1, &noop_request(9), Priority::Normal)
            .unwrap();
        assert!(next > first_history.iter().map(|r| r.job).max().unwrap());
        daemon.wait(next).unwrap();
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn finished_verdicts_are_kept_once_and_evicted_together() {
        let daemon = Daemon::start(
            ServeConfig::default().with_history_limit(2),
            test_registry(),
        );
        let mut jobs = Vec::new();
        for i in 0..3 {
            let job = daemon
                .submit(1, &noop_request(i), Priority::Normal)
                .unwrap();
            let record = daemon.wait(job).unwrap();
            // `wait` and `history` hand out equal records…
            assert_eq!(daemon.history().last(), Some(&record));
            jobs.push(job);
        }
        {
            // …because both read one shared allocation.
            let state = daemon.inner.lock();
            assert_eq!(state.history.len(), 2);
            for record in &state.history {
                let Some(JobState::Done(done)) = state.jobs.get(&record.job) else {
                    panic!("job {} has no Done state", record.job);
                };
                assert!(Arc::ptr_eq(done, record));
                assert_eq!(Arc::strong_count(record), 2);
            }
        }
        // Eviction past the limit forgets both copies of the oldest job.
        assert!(matches!(
            daemon.wait(jobs[0]),
            Err(ServeError::UnknownJob { .. })
        ));
        assert_eq!(daemon.wait(jobs[2]).unwrap().job, jobs[2]);
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn restart_requeues_unfinished_jobs_under_original_ids() {
        let dir = TempDir::new("serve-journal-requeue");
        let path = dir.path().join("serve.journal");
        // Build a journal by hand: one finished job, one accepted-only.
        let (accepted_id, finished_record) = {
            let daemon = Daemon::start(ServeConfig::default().with_journal(&path), test_registry());
            let done = daemon
                .submit(1, &noop_request(0), Priority::Normal)
                .unwrap();
            let record = daemon.wait(done).unwrap();
            daemon.shutdown();
            daemon.join();
            // Simulate a crash mid-flight: append an accepted record the
            // dead daemon never finished.
            let (mut journal, _) = crate::journal::Journal::open(&path).unwrap();
            journal
                .append(&JournalRecord::Accepted {
                    job: 42,
                    client: 3,
                    priority: Priority::High,
                    request: noop_request(7),
                })
                .unwrap();
            (42u64, record)
        };
        let daemon = Daemon::start(ServeConfig::default().with_journal(&path), test_registry());
        let replay = daemon.journal_replay().expect("journal configured");
        assert_eq!(replay.finished, 1);
        assert_eq!(replay.resubmitted, 1);
        // The resubmitted job runs to a verdict under its original id.
        let record = daemon.wait(accepted_id).unwrap();
        assert_eq!(record.outcome, "proven");
        assert_eq!(record.request.id, 7);
        // The pre-crash verdict is still first in the history.
        assert_eq!(daemon.history()[0], finished_record);
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn torn_journal_tail_recovers_the_intact_prefix() {
        let dir = TempDir::new("serve-journal-torn");
        let path = dir.path().join("serve.journal");
        {
            let daemon = Daemon::start(ServeConfig::default().with_journal(&path), test_registry());
            for i in 0..3 {
                let id = daemon
                    .submit(1, &noop_request(i), Priority::Normal)
                    .unwrap();
                daemon.wait(id).unwrap();
            }
            daemon.shutdown();
            daemon.join();
        }
        // Tear the tail mid-frame, as a crash during an append would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let daemon = Daemon::start(ServeConfig::default().with_journal(&path), test_registry());
        let replay = daemon.journal_replay().expect("journal configured");
        assert!(replay.truncated_bytes > 0);
        // The torn record was the last `finished`; its `accepted` record
        // survives, so the job re-runs rather than being lost.
        assert_eq!(replay.finished, 2);
        assert_eq!(replay.resubmitted, 1);
        while daemon.history().len() < 3 {
            thread::sleep(Duration::from_millis(1));
        }
        daemon.shutdown();
        daemon.join();
    }

    #[test]
    fn history_is_bounded_and_evicts_oldest() {
        let daemon = Daemon::start(
            ServeConfig::default().with_history_limit(3),
            test_registry(),
        );
        // Wait each job before submitting the next, so a verdict is read
        // before eviction can forget its id.
        let ids: Vec<u64> = (0..6)
            .map(|i| {
                let id = daemon
                    .submit(1, &noop_request(i), Priority::Normal)
                    .unwrap();
                daemon.wait(id).unwrap();
                id
            })
            .collect();
        let history = daemon.history();
        assert_eq!(history.len(), 3);
        // The earliest jobs were evicted; waiting on them is UnknownJob.
        let evicted = ids
            .iter()
            .find(|id| !history.iter().any(|r| r.job == **id))
            .unwrap();
        assert!(matches!(
            daemon.wait(*evicted),
            Err(ServeError::UnknownJob { .. })
        ));
        daemon.shutdown();
        daemon.join();
    }
}
