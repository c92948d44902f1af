//! Cooperative cancellation for the synthesis loop.
//!
//! The loop is a CPU- and harness-bound computation with no natural
//! preemption points, so cancellation is *cooperative*: a [`CancelToken`]
//! is polled at iteration boundaries and before each counterexample test.
//! A cancelled run ends with [`CoreError::Cancelled`](crate::CoreError)
//! carrying the number of iterations completed, and emits a
//! `RunFinished { outcome: Cancelled }` telemetry event — partial learned
//! knowledge is intentionally *not* returned, because an interrupted run
//! gives no Lemma-5 guarantee to build on.
//!
//! Tokens are cheap to clone (an `Arc` plus a copied deadline) and safe to
//! signal from any thread; the daemon's worker loop hands one to every job so
//! per-job wall-clock deadlines and explicit shutdown share one mechanism.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cloneable cancellation signal with an optional wall-clock deadline.
///
/// The token is cancelled when either [`CancelToken::cancel`] has been
/// called (on this token or any clone) or the deadline has passed. Polling
/// is wait-free: one atomic load plus, when a deadline is set, one
/// monotonic-clock read.
///
/// ```
/// use muml_core::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that only cancels on an explicit [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally cancels once `timeout` has elapsed from
    /// now. `Duration::ZERO` yields a token that is already expired —
    /// useful for deterministic timeout tests.
    pub fn with_timeout(timeout: Duration) -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(Instant::now() + timeout),
        }
    }

    /// A token sharing this token's cancellation flag, with a deadline of
    /// `timeout` from now. Cancelling either token (or any clone) cancels
    /// both; the deadline only applies to the returned token. This is how a
    /// job server arms a per-attempt deadline on a job whose base token a
    /// client may cancel at any time: the attempt observes whichever fires
    /// first.
    #[must_use]
    pub fn deadline_from_now(&self, timeout: Duration) -> CancelToken {
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(Instant::now() + timeout),
        }
    }

    /// Signals cancellation to this token and every clone sharing its flag.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// `true` once cancelled explicitly or past the deadline.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
            || self
                .deadline
                .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// The remaining time until the deadline (`None` when no deadline is
    /// set; zero once it has passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|deadline| deadline.saturating_duration_since(Instant::now()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_cancel_propagates_to_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        assert!(token.remaining().is_none());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn deadline_from_now_shares_the_flag() {
        let base = CancelToken::new();
        let armed = base.deadline_from_now(Duration::from_secs(3600));
        assert!(!armed.is_cancelled());
        assert!(armed.remaining().is_some());
        // Cancelling the base token cancels the deadline-armed one too.
        base.cancel();
        assert!(armed.is_cancelled());
        // An expired deadline cancels the armed token without touching the
        // base flag.
        let base = CancelToken::new();
        let expired = base.deadline_from_now(Duration::ZERO);
        assert!(expired.is_cancelled());
        assert!(!base.is_cancelled());
    }

    #[test]
    fn zero_timeout_is_immediately_cancelled() {
        let token = CancelToken::with_timeout(Duration::ZERO);
        assert!(token.is_cancelled());
        assert_eq!(token.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn generous_timeout_is_not_yet_cancelled() {
        let token = CancelToken::with_timeout(Duration::from_secs(3600));
        assert!(!token.is_cancelled());
        assert!(token.remaining().unwrap() > Duration::from_secs(3000));
    }
}
