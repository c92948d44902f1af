//! The durable job journal: crash-safe intent logging for the daemon.
//!
//! Every admitted [`JobRequest`](muml_fleet::JobRequest) is appended to an
//! on-disk journal *before* the submit reply goes back to the client, and
//! every verdict is appended before it enters the in-memory history. After
//! a crash (power loss, OOM-kill, plain SIGKILL) the restarting daemon
//! replays the journal: finished jobs rebuild the verdict history exactly
//! as it was recorded, and accepted-but-unfinished jobs are re-resolved
//! through the [`JobRegistry`](muml_fleet::JobRegistry) and re-enqueued
//! under their original ids.
//!
//! # Record grammar
//!
//! Three record types, mirroring the job lifecycle:
//!
//! - `accepted` — the admission decision: original job id, client id,
//!   priority class, and the full wire [`JobRequest`].
//! - `started` — a worker picked the job up (replay treats a started-but-
//!   unfinished job the same as a queued one: it re-runs).
//! - `finished` — the complete [`VerdictRecord`], including the recorded
//!   `nanos`, so a replayed history is bit-identical to the pre-crash one.
//!
//! # Frame format
//!
//! Each record is a binary frame:
//!
//! ```text
//! [4-byte BE payload length][8-byte BE FNV-1a-64 of payload][payload JSON]
//! ```
//!
//! On open, the journal scans frames from the start. The first frame that
//! is torn (partial header, partial payload, checksum mismatch, or
//! undecodable JSON) marks the *recovery horizon*: the file is truncated
//! back to the last good frame boundary and appends resume there. A torn
//! tail is expected after a crash mid-`append` and is never an error.
//!
//! DESIGN.md §18 documents the recovery invariant and the fault matrix
//! the chaos campaign drives through this module.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use muml_fleet::JobRequest;
use muml_obs::fnv1a64;
use muml_obs::json::{field, object, parse, version, FromJson, Json, ToJson};

use crate::protocol::{Priority, VerdictRecord};

/// Journal format version, stamped into every record payload.
pub const JOURNAL_VERSION: u64 = 1;

/// One journal record: a point on a job's lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// The daemon admitted a job (logged before the submit reply).
    Accepted {
        /// The job id the daemon assigned.
        job: u64,
        /// The submitting client's id (fairness key on replay).
        client: u64,
        /// The admission priority class.
        priority: Priority,
        /// The full wire request (re-resolved through the registry on
        /// replay).
        request: JobRequest,
    },
    /// A worker picked the job up.
    Started {
        /// The job id.
        job: u64,
    },
    /// The job produced a verdict (logged before it enters the history).
    Finished {
        /// The complete verdict record, `nanos` and all.
        record: VerdictRecord,
    },
}

impl JournalRecord {
    /// The record's job id.
    pub fn job(&self) -> u64 {
        match self {
            JournalRecord::Accepted { job, .. } | JournalRecord::Started { job } => *job,
            JournalRecord::Finished { record } => record.job,
        }
    }

    /// Stable type tag (`accepted` / `started` / `finished`).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalRecord::Accepted { .. } => "accepted",
            JournalRecord::Started { .. } => "started",
            JournalRecord::Finished { .. } => "finished",
        }
    }
}

/// The JSON payload of a record's frame: `{"v": 1, "type": ..., <fields>}`.
impl ToJson for JournalRecord {
    fn to_json(&self) -> Json {
        let (v, kind) = (&JOURNAL_VERSION, &self.kind());
        match self {
            JournalRecord::Accepted {
                job,
                client,
                priority,
                request,
            } => object(&[
                ("v", v),
                ("type", kind),
                ("job", job),
                ("client", client),
                ("priority", priority),
                ("request", request),
            ]),
            JournalRecord::Started { job } => object(&[("v", v), ("type", kind), ("job", job)]),
            JournalRecord::Finished { record } => {
                object(&[("v", v), ("type", kind), ("record", record)])
            }
        }
    }
}

/// The journal treats a payload that does not decode as torn tail, not as
/// an error.
impl FromJson for JournalRecord {
    fn from_json(json: &Json) -> Result<Self, String> {
        version(json, "v", JOURNAL_VERSION)?;
        let kind: String = field(json, "type")?;
        Ok(match kind.as_str() {
            "accepted" => JournalRecord::Accepted {
                job: field(json, "job")?,
                client: field(json, "client")?,
                priority: field(json, "priority")?,
                request: field(json, "request")?,
            },
            "started" => JournalRecord::Started {
                job: field(json, "job")?,
            },
            "finished" => JournalRecord::Finished {
                record: field(json, "record")?,
            },
            other => return Err(format!("unknown record type `{other}`")),
        })
    }
}

/// Encodes one record as a binary frame (length + checksum + payload).
fn encode_frame(record: &JournalRecord) -> Vec<u8> {
    let payload = record.to_json().encode();
    let bytes = payload.as_bytes();
    let mut frame = Vec::with_capacity(12 + bytes.len());
    frame.extend_from_slice(&u32::try_from(bytes.len()).unwrap_or(u32::MAX).to_be_bytes());
    frame.extend_from_slice(&fnv1a64(bytes).to_be_bytes());
    frame.extend_from_slice(bytes);
    frame
}

/// What replaying a journal found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JournalReplay {
    /// All intact records, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes of torn tail truncated from the file on open (0 for a clean
    /// shutdown).
    pub truncated_bytes: u64,
}

impl JournalReplay {
    /// The finished verdicts, in append order (the pre-crash history).
    pub fn finished(&self) -> Vec<&VerdictRecord> {
        self.records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Finished { record } => Some(record),
                _ => None,
            })
            .collect()
    }

    /// Accepted records with no matching finished record: the jobs the
    /// crash interrupted, in admission order.
    pub fn unfinished(&self) -> Vec<&JournalRecord> {
        let done: std::collections::HashSet<u64> = self
            .records
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Finished { record } => Some(record.job),
                _ => None,
            })
            .collect();
        self.records
            .iter()
            .filter(|r| matches!(r, JournalRecord::Accepted { .. }) && !done.contains(&r.job()))
            .collect()
    }

    /// The highest job id seen (0 when the journal is empty); the daemon
    /// resumes its id counter above this.
    pub fn max_job_id(&self) -> u64 {
        self.records
            .iter()
            .map(JournalRecord::job)
            .max()
            .unwrap_or(0)
    }
}

/// An append-only, checksummed record log with torn-tail recovery.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, replays every
    /// intact record, truncates any torn tail, and returns the journal
    /// positioned for appends plus what the replay found.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (open, read, truncate) fail; torn frames are
    /// recovered, not reported.
    pub fn open(path: &Path) -> io::Result<(Journal, JournalReplay)> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, good_len) = scan(&bytes);
        let truncated = bytes.len() as u64 - good_len as u64;
        if truncated > 0 {
            file.set_len(good_len as u64)?;
            file.sync_data()?;
        }
        Ok((
            Journal {
                file,
                path: path.to_path_buf(),
            },
            JournalReplay {
                records,
                truncated_bytes: truncated,
            },
        ))
    }

    /// Appends one record and flushes it to stable storage before
    /// returning. The frame's checksum makes a crash mid-append
    /// recoverable: the next open truncates the partial frame.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures (e.g. `ENOSPC`).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        self.file.write_all(&encode_frame(record))?;
        self.file.sync_data()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Scans `bytes` for intact frames; returns the decoded records and the
/// byte offset of the end of the last intact frame.
fn scan(bytes: &[u8]) -> (Vec<JournalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while bytes.len() - offset >= 12 {
        let len = u32::from_be_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]) as usize;
        let Some(end) = offset.checked_add(12).and_then(|s| s.checked_add(len)) else {
            break;
        };
        if end > bytes.len() {
            break; // partial payload: torn tail
        }
        let expected = u64::from_be_bytes([
            bytes[offset + 4],
            bytes[offset + 5],
            bytes[offset + 6],
            bytes[offset + 7],
            bytes[offset + 8],
            bytes[offset + 9],
            bytes[offset + 10],
            bytes[offset + 11],
        ]);
        let payload = &bytes[offset + 12..end];
        if fnv1a64(payload) != expected {
            break; // checksum mismatch: torn tail
        }
        let Ok(text) = std::str::from_utf8(payload) else {
            break;
        };
        let Some(record) = parse(text)
            .ok()
            .and_then(|json| JournalRecord::from_json(&json).ok())
        else {
            break;
        };
        records.push(record);
        offset = end;
    }
    (records, offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_testkit::TempDir;

    fn sample_records() -> Vec<JournalRecord> {
        let request = JobRequest::new(7, "railcab/faulty")
            .with_scenario("railcab-convoy")
            .with_variant("faulty")
            .with_max_iterations(64);
        vec![
            JournalRecord::Accepted {
                job: 1,
                client: 3,
                priority: Priority::High,
                request: request.clone(),
            },
            JournalRecord::Started { job: 1 },
            JournalRecord::Finished {
                record: VerdictRecord {
                    job: 1,
                    request,
                    outcome: "proven".to_owned(),
                    property: None,
                    iterations: 12,
                    nanos: 987_654,
                    attempts: 1,
                },
            },
            JournalRecord::Accepted {
                job: 2,
                client: 3,
                priority: Priority::Normal,
                request: JobRequest::new(8, "railcab/nominal").with_scenario("railcab-convoy"),
            },
        ]
    }

    #[test]
    fn records_round_trip_through_json() {
        for record in sample_records() {
            let json = record.to_json();
            let back = JournalRecord::from_json(&json).expect("decodes");
            assert_eq!(back, record);
        }
    }

    #[test]
    fn append_then_open_replays_in_order() {
        let dir = TempDir::new("journal-replay");
        let path = dir.path().join("serve.journal");
        {
            let (mut journal, replay) = Journal::open(&path).expect("open fresh");
            assert!(replay.records.is_empty());
            assert_eq!(replay.truncated_bytes, 0);
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
        }
        let (_, replay) = Journal::open(&path).expect("reopen");
        assert_eq!(replay.records, sample_records());
        assert_eq!(replay.truncated_bytes, 0);
        assert_eq!(replay.finished().len(), 1);
        let unfinished = replay.unfinished();
        assert_eq!(unfinished.len(), 1);
        assert_eq!(unfinished[0].job(), 2);
        assert_eq!(replay.max_job_id(), 2);
    }

    #[test]
    fn torn_tail_is_truncated_at_every_cut_point() {
        // Write the full journal once to learn its byte length, then for
        // every possible truncation point check that reopen recovers the
        // longest intact prefix and physically truncates the file.
        let dir = TempDir::new("journal-torn");
        let full_path = dir.path().join("full.journal");
        {
            let (mut journal, _) = Journal::open(&full_path).expect("open");
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
        }
        let full = std::fs::read(&full_path).expect("read full journal");
        // Frame boundaries: scan the intact file.
        let (all, good_len) = scan(&full);
        assert_eq!(all.len(), 4);
        assert_eq!(good_len, full.len());

        for cut in 0..full.len() {
            let path = dir.path().join(format!("cut-{cut}.journal"));
            std::fs::write(&path, &full[..cut]).expect("write prefix");
            let (_, replay) = Journal::open(&path).expect("open torn");
            let (expect_records, expect_len) = scan(&full[..cut]);
            assert_eq!(replay.records, expect_records, "cut at {cut}");
            assert_eq!(
                replay.truncated_bytes,
                (cut - expect_len) as u64,
                "cut at {cut}"
            );
            // The file itself was truncated back to the good prefix.
            assert_eq!(
                std::fs::metadata(&path).expect("stat").len(),
                expect_len as u64,
                "cut at {cut}"
            );
            // Reopening after recovery is clean.
            let (_, again) = Journal::open(&path).expect("reopen recovered");
            assert_eq!(again.truncated_bytes, 0, "cut at {cut}");
            assert_eq!(again.records, expect_records, "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_byte_stops_replay_at_the_frame_before() {
        let dir = TempDir::new("journal-corrupt");
        let path = dir.path().join("serve.journal");
        {
            let (mut journal, _) = Journal::open(&path).expect("open");
            for record in sample_records() {
                journal.append(&record).expect("append");
            }
        }
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip a byte inside the *last* frame's payload: checksum must
        // catch it and recovery must keep the first three records.
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("rewrite");
        let (_, replay) = Journal::open(&path).expect("open corrupted");
        assert_eq!(replay.records.len(), 3);
        assert!(replay.truncated_bytes > 0);
    }

    #[test]
    fn appends_resume_after_recovery() {
        let dir = TempDir::new("journal-resume");
        let path = dir.path().join("serve.journal");
        let records = sample_records();
        {
            let (mut journal, _) = Journal::open(&path).expect("open");
            journal.append(&records[0]).expect("append");
            journal.append(&records[1]).expect("append");
        }
        // Tear the second frame.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() - 3]).expect("tear");
        {
            let (mut journal, replay) = Journal::open(&path).expect("recover");
            assert_eq!(replay.records.len(), 1);
            journal.append(&records[2]).expect("append after recovery");
        }
        let (_, replay) = Journal::open(&path).expect("final open");
        assert_eq!(replay.records, vec![records[0].clone(), records[2].clone()]);
    }
}
