//! The store's I/O seam: every byte the store reads or writes goes
//! through a [`StoreIo`] implementation.
//!
//! Production code uses [`RealIo`], which adds the durability discipline
//! the plain `std::fs` calls lacked: temp files are `sync_data`'d before
//! the atomic rename and the parent directory is fsynced after it, so a
//! power loss immediately after `save` cannot leave an empty or missing
//! snapshot behind a successfully-returned call.
//!
//! Tests and the `repro chaos` campaign use [`FaultyIo`], a seeded
//! decorator that injects the faults real filesystems produce — torn
//! writes, short reads, `ENOSPC`, failed renames, failed advisory locks —
//! at configurable per-operation rates. Determinism matters: the same
//! seed yields the same fault schedule, so a chaos failure replays.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;
use std::sync::Mutex;

use muml_legacy::XorShift;

/// Filesystem operations the store performs, abstracted so faults can be
/// injected deterministically. All methods mirror their `std::fs`
/// equivalents except [`StoreIo::write_durable`], which also flushes file
/// contents to stable storage (`sync_data`) before returning.
pub trait StoreIo: Send + Sync + std::fmt::Debug {
    /// Creates `dir` and any missing parents.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// Reads `path` to a string.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Writes `text` to `path` and syncs the file data to disk.
    ///
    /// # Errors
    /// Propagates the underlying I/O error (including `ENOSPC`).
    fn write_durable(&self, path: &Path, text: &str) -> io::Result<()>;

    /// Renames `from` to `to` (atomic when both are on one filesystem).
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Fsyncs the directory itself so a completed rename survives power
    /// loss (directory entries are metadata; the rename alone is not
    /// durable until its directory is synced).
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Opens `path` (creating it) and takes a blocking exclusive advisory
    /// lock. The lock is released when the returned handle drops.
    ///
    /// # Errors
    /// Propagates the underlying I/O error.
    fn lock_exclusive(&self, path: &Path) -> io::Result<File>;
}

/// The production [`StoreIo`]: `std::fs` plus the fsync discipline that
/// makes the temp-file + rename pattern actually crash-safe.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl StoreIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn write_durable(&self, path: &Path, text: &str) -> io::Result<()> {
        let mut file = File::create(path)?;
        file.write_all(text.as_bytes())?;
        // Contents must be stable before the rename publishes the name;
        // otherwise a crash can expose a zero-length "committed" file.
        file.sync_data()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directories can be opened read-only and fsynced on the unix
        // platforms we target; on platforms where this fails (or is
        // meaningless) the rename was already atomic, so degrade quietly.
        match File::open(dir) {
            Ok(handle) => handle.sync_all(),
            Err(_) => Ok(()),
        }
    }

    fn lock_exclusive(&self, path: &Path) -> io::Result<File> {
        let file = File::options()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.lock()?;
        Ok(file)
    }
}

/// Which fault a [`FaultyIo`] injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A write silently persisted only a prefix of its bytes (power loss
    /// between write and sync, bit-for-bit what a torn page looks like).
    TornWrite,
    /// A read silently returned a prefix of the file.
    ShortRead,
    /// A write failed with `ENOSPC`.
    Enospc,
    /// A rename failed.
    RenameFail,
    /// Taking the advisory lock failed.
    LockFail,
}

impl FaultKind {
    /// Stable label for telemetry and the chaos report.
    pub fn describe(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn-write",
            FaultKind::ShortRead => "short-read",
            FaultKind::Enospc => "enospc",
            FaultKind::RenameFail => "rename-fail",
            FaultKind::LockFail => "lock-fail",
        }
    }
}

/// One injected fault: what happened and to which path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The fault class.
    pub kind: FaultKind,
    /// The file it hit.
    pub path: String,
}

/// Per-operation fault probabilities, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Probability that a write persists only a prefix (but reports Ok).
    pub torn_write: f64,
    /// Probability that a read silently truncates.
    pub short_read: f64,
    /// Probability that a write fails with `ENOSPC`.
    pub enospc: f64,
    /// Probability that a rename fails.
    pub rename_fail: f64,
    /// Probability that taking the advisory lock fails.
    pub lock_fail: f64,
}

impl FaultProfile {
    /// All five fault classes at the same rate.
    pub fn uniform(rate: f64) -> FaultProfile {
        FaultProfile {
            torn_write: rate,
            short_read: rate,
            enospc: rate,
            rename_fail: rate,
            lock_fail: rate,
        }
    }
}

/// Seeded fault-injecting [`StoreIo`] decorator around [`RealIo`].
///
/// Every operation rolls the profile's rate on a deterministic xorshift
/// stream; injected faults are recorded and can be drained with
/// [`FaultyIo::take_injected`] so campaigns can report exactly what the
/// store survived.
#[derive(Debug)]
pub struct FaultyIo {
    inner: RealIo,
    state: Mutex<FaultState>,
}

#[derive(Debug)]
struct FaultState {
    rng: XorShift,
    profile: FaultProfile,
    injected: Vec<InjectedFault>,
}

impl FaultyIo {
    /// A fault injector with the given deterministic seed and profile.
    pub fn new(seed: u64, profile: FaultProfile) -> FaultyIo {
        FaultyIo {
            inner: RealIo,
            state: Mutex::new(FaultState {
                rng: XorShift::new(seed),
                profile,
                injected: Vec::new(),
            }),
        }
    }

    /// How many faults have been injected so far.
    pub fn injected_count(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .injected
            .len()
    }

    /// Drains and returns the injected-fault log.
    pub fn take_injected(&self) -> Vec<InjectedFault> {
        std::mem::take(
            &mut self
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .injected,
        )
    }

    /// Rolls `pick(profile)`; on a hit records the fault and returns the
    /// rng draw used for any secondary decision (e.g. where to tear).
    fn roll(
        &self,
        pick: impl Fn(&FaultProfile) -> f64,
        kind: FaultKind,
        path: &Path,
    ) -> Option<u64> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let rate = pick(&state.profile);
        if !state.rng.roll(rate) {
            return None;
        }
        let draw = state.rng.next_u64();
        state.injected.push(InjectedFault {
            kind,
            path: path.display().to_string(),
        });
        Some(draw)
    }
}

impl StoreIo for FaultyIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let text = self.inner.read_to_string(path)?;
        match self.roll(|p| p.short_read, FaultKind::ShortRead, path) {
            Some(draw) if !text.is_empty() => {
                let mut cut = (draw as usize) % text.len();
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                Ok(text[..cut].to_owned())
            }
            _ => Ok(text),
        }
    }

    fn write_durable(&self, path: &Path, text: &str) -> io::Result<()> {
        if self.roll(|p| p.enospc, FaultKind::Enospc, path).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "injected ENOSPC: no space left on device",
            ));
        }
        match self.roll(|p| p.torn_write, FaultKind::TornWrite, path) {
            Some(draw) if !text.is_empty() => {
                // The dangerous case: a prefix lands on disk and the call
                // still reports success, exactly like power loss between
                // a page-cache write and its flush.
                let mut cut = (draw as usize) % text.len();
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                self.inner.write_durable(path, &text[..cut])
            }
            _ => self.inner.write_durable(path, text),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self
            .roll(|p| p.rename_fail, FaultKind::RenameFail, to)
            .is_some()
        {
            return Err(io::Error::other("injected rename failure"));
        }
        self.inner.rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        self.inner.sync_dir(dir)
    }

    fn lock_exclusive(&self, path: &Path) -> io::Result<File> {
        if self
            .roll(|p| p.lock_fail, FaultKind::LockFail, path)
            .is_some()
        {
            return Err(io::Error::other("injected flock failure"));
        }
        self.inner.lock_exclusive(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muml_testkit::TempDir;

    #[test]
    fn real_io_round_trips_durably() {
        let dir = TempDir::new("io-real");
        let path = dir.path().join("file");
        RealIo.write_durable(&path, "hello").unwrap();
        assert_eq!(RealIo.read_to_string(&path).unwrap(), "hello");
        RealIo.sync_dir(path.parent().unwrap()).unwrap();
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let dir = TempDir::new("io-zero");
        let path = dir.path().join("file");
        let io = FaultyIo::new(42, FaultProfile::uniform(0.0));
        for _ in 0..50 {
            io.write_durable(&path, "payload").unwrap();
            assert_eq!(io.read_to_string(&path).unwrap(), "payload");
        }
        assert_eq!(io.injected_count(), 0);
    }

    #[test]
    fn full_rate_faults_every_fallible_op() {
        let dir = TempDir::new("io-full");
        let path = dir.path().join("file");
        let io = FaultyIo::new(7, FaultProfile::uniform(1.0));
        // enospc rolls first, so writes always fail at rate 1.0.
        assert!(io.write_durable(&path, "x").is_err());
        assert!(io.rename(&path, &dir.path().join("to")).is_err());
        assert!(io.lock_exclusive(&path).is_err());
        assert_eq!(io.injected_count(), 3);
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let schedule = |seed: u64| -> Vec<FaultKind> {
            let dir = TempDir::new("io-det");
            let path = dir.path().join("file");
            let io = FaultyIo::new(seed, FaultProfile::uniform(0.3));
            for i in 0..40 {
                let _ = io.write_durable(&path, &format!("payload-{i}"));
                let _ = io.read_to_string(&path);
            }
            io.take_injected().into_iter().map(|f| f.kind).collect()
        };
        let a = schedule(1234);
        assert_eq!(a, schedule(1234));
        assert!(!a.is_empty(), "rate 0.3 over 80 ops must inject something");
        assert_ne!(a, schedule(99), "different seeds should diverge");
    }

    #[test]
    fn torn_write_reports_ok_but_truncates() {
        let dir = TempDir::new("io-torn");
        let path = dir.path().join("file");
        let io = FaultyIo::new(
            3,
            FaultProfile {
                torn_write: 1.0,
                short_read: 0.0,
                enospc: 0.0,
                rename_fail: 0.0,
                lock_fail: 0.0,
            },
        );
        io.write_durable(&path, "0123456789").unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert!(on_disk.len() < 10, "torn write must lose a suffix");
        assert!("0123456789".starts_with(&on_disk));
    }
}
