//! Cooperative cancellation and deadlines for long mining runs.
//!
//! The paper's experiments bound every run by wall-clock time (a deadline
//! here); a production service additionally needs *external* cancellation
//! (a client disconnects, a scheduler preempts the request). Two pieces
//! provide that:
//!
//! * [`CancelToken`] — a cheap, cloneable flag shared between the caller and
//!   the mining algorithms. Firing it makes every plumbed loop stop at its
//!   next check and return a *well-formed partial result* flagged
//!   `truncated`, exactly like a count limit; it is never surfaced as an
//!   error.
//! * [`RunControl`] — the bundle threaded through [`crate::mine_min_seps`],
//!   [`crate::get_full_mvds`], [`crate::mine_schemas`] and the drivers: an
//!   optional token, an optional deadline and an optional
//!   [`obs::StageCollector`] that the stage spans record into (the one
//!   telemetry channel out of a run). [`RunControl::NONE`] is the no-op used
//!   by the convenience entry points.
//!
//! The deadline's clock reads consult the `deadline_clock` failpoint of
//! [`storage::fault`]: armed to skip `k` reads, it reports the deadline as
//! passed on every read after those, so tests can cut a run at an exact
//! poll without sleeping.
//!
//! ```
//! use maimon::{CancelToken, RunControl};
//!
//! let token = CancelToken::new();
//! let ctl = RunControl::new().with_cancel(token.clone());
//! assert!(!ctl.should_stop());
//! token.cancel();
//! assert!(ctl.should_stop());
//! ```

use obs::StageCollector;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`RunControl::should_stop`] polls may elapse between wall-clock
/// reads. The mining loops poll between *every* unit of work (lattice nodes,
/// separator candidates), so an `Instant::now()` per poll shows up in
/// profiles; one clock read per stride bounds the overshoot past a deadline
/// to a few dozen lattice nodes while making the common (not-expired) poll a
/// pair of atomic ops.
const DEADLINE_POLL_STRIDE: u32 = 64;

/// A cloneable cancellation flag.
///
/// All clones observe the same flag: firing any of them cancels every run
/// that carries one. Cancellation is cooperative — the mining loops poll the
/// token between units of work (lattice nodes, separator candidates,
/// attribute pairs, enumerated schemas) and wind down returning whatever they
/// had mined so far, marked `truncated`.
///
/// ```
/// use maimon::CancelToken;
/// let token = CancelToken::new();
/// let handle = token.clone();
/// assert!(!token.is_cancelled());
/// handle.cancel();
/// assert!(token.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// Creates a fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. Idempotent; there is no way to un-cancel.
    pub fn cancel(&self) {
        self.fired.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Acquire)
    }
}

/// An absolute deadline plus the per-handle throttle state that keeps
/// [`RunControl::should_stop`] off the wall clock (see
/// [`DEADLINE_POLL_STRIDE`]).
#[derive(Debug)]
struct DeadlineState {
    at: Instant,
    /// Polls since the last wall-clock read.
    polls: AtomicU32,
    /// Latched once the deadline has been observed as passed, so later polls
    /// stop without touching the clock again.
    passed: AtomicBool,
}

impl DeadlineState {
    fn new(at: Instant) -> Self {
        DeadlineState { at, polls: AtomicU32::new(0), passed: AtomicBool::new(false) }
    }
}

impl Clone for DeadlineState {
    fn clone(&self) -> Self {
        DeadlineState {
            at: self.at,
            // Fresh poll counter (each clone throttles independently), but
            // an already-expired deadline stays expired.
            polls: AtomicU32::new(0),
            passed: AtomicBool::new(self.passed.load(Ordering::Relaxed)),
        }
    }
}

/// Cancellation, deadline and stage-timing plumbing for one mining
/// invocation.
///
/// Built fluently and passed by reference down the call tree. The deadline is
/// an *absolute* instant: it bounds an entire multi-phase run, which is what
/// both the paper's per-dataset time limits and a service boundary need
/// ("this request may use 2 more seconds, wherever it is").
#[derive(Clone, Debug, Default)]
pub struct RunControl<'a> {
    cancel: Option<CancelToken>,
    deadline: Option<DeadlineState>,
    stages: Option<&'a StageCollector>,
}

impl RunControl<'static> {
    /// The no-op control: never cancelled, no deadline, no stage collector.
    pub const NONE: RunControl<'static> = RunControl { cancel: None, deadline: None, stages: None };

    /// Creates an empty control (same as [`RunControl::NONE`], but `self`-
    /// extensible with the `with_*` builders).
    pub fn new() -> Self {
        RunControl::NONE
    }
}

impl<'a> RunControl<'a> {
    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Sets an absolute deadline. A new deadline starts with fresh throttle
    /// state, so it invalidates any previously latched expiry.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(DeadlineState::new(deadline));
        self
    }

    /// Sets the deadline to `timeout` from now.
    pub fn with_timeout(self, timeout: Duration) -> Self {
        self.with_deadline(Instant::now() + timeout)
    }

    /// Attaches a per-run stage collector (borrowed for the duration of the
    /// run). The span instrumentation in the mining loops records each
    /// stage's exclusive self-time into it; drivers read it back as an
    /// [`obs::StageBreakdown`] on `MiningStats::stages`.
    pub fn with_stages<'b>(self, collector: &'b StageCollector) -> RunControl<'b>
    where
        'a: 'b,
    {
        RunControl { cancel: self.cancel, deadline: self.deadline, stages: Some(collector) }
    }

    /// The attached stage collector, if any — passed to [`obs::Span::enter`]
    /// by the instrumented mining loops.
    pub fn stages(&self) -> Option<&'a StageCollector> {
        self.stages
    }

    /// `true` once the attached token (if any) has fired.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// `true` if the run should wind down: cancelled or past the deadline.
    ///
    /// A deadline *equal* to the current instant counts as passed, so a
    /// control built with a deadline of "now" stops on its very first poll.
    /// Wall-clock reads are throttled: the first poll always consults the
    /// clock, subsequent polls only every `DEADLINE_POLL_STRIDE`-th time
    /// (currently 64), and an observed expiry is latched so the clock is
    /// never read again. Each clock read also consults the `deadline_clock`
    /// failpoint (see the module docs).
    pub fn should_stop(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        let Some(state) = &self.deadline else { return false };
        if state.passed.load(Ordering::Relaxed) {
            return true;
        }
        let polls = state.polls.fetch_add(1, Ordering::Relaxed);
        // `%` rather than `u32::is_multiple_of`: the latter needs Rust 1.87
        // and the workspace declares an MSRV of 1.75.
        if polls % DEADLINE_POLL_STRIDE != 0 {
            return false;
        }
        let passed = Instant::now() >= state.at
            || storage::fault::global().should_fail("deadline_clock", "run");
        if passed {
            state.passed.store(true, Ordering::Relaxed);
        }
        passed
    }

    /// Unthrottled variant of [`RunControl::should_stop`]: every call
    /// consults the wall clock (an observed expiry is still latched). The
    /// stride throttle exists for the mining hot loops, which poll hundreds
    /// of thousands of times; low-frequency poll sites — a request waiting
    /// on another request's in-flight computation, a server control loop —
    /// want the exact answer *now*, not up to a stride later.
    pub fn should_stop_now(&self) -> bool {
        if self.is_cancelled() {
            return true;
        }
        let Some(state) = &self.deadline else { return false };
        if state.passed.load(Ordering::Relaxed) {
            return true;
        }
        let passed = Instant::now() >= state.at;
        if passed {
            state.passed.store(true, Ordering::Relaxed);
        }
        passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Stage;

    #[test]
    fn token_clones_share_the_flag() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        // Idempotent.
        clone.cancel();
        assert!(token.is_cancelled());
    }

    #[test]
    fn none_control_never_stops() {
        assert!(!RunControl::NONE.should_stop());
        assert!(!RunControl::NONE.is_cancelled());
    }

    #[test]
    fn deadline_in_the_past_stops() {
        let ctl = RunControl::new().with_timeout(Duration::from_secs(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(ctl.should_stop());
        assert!(!ctl.is_cancelled(), "deadline expiry is not cancellation");
        let generous = RunControl::new().with_timeout(Duration::from_secs(3600));
        assert!(!generous.should_stop());
    }

    #[test]
    fn deadline_of_now_stops_on_the_first_poll() {
        // Regression: the check used `Instant::now() > deadline`, so on a
        // coarse clock a deadline of "now" could survive its first polls.
        let ctl = RunControl::new().with_deadline(Instant::now());
        assert!(ctl.should_stop());
        assert!(!ctl.is_cancelled(), "deadline expiry is not cancellation");
    }

    #[test]
    fn deadline_clock_reads_are_throttled_and_latched() {
        let ctl = RunControl::new().with_timeout(Duration::from_millis(5));
        // Poll 0 always reads the clock: the deadline is still ahead.
        assert!(!ctl.should_stop());
        std::thread::sleep(Duration::from_millis(10));
        // The deadline has passed, but the intermediate polls skip the
        // clock entirely and report "keep going".
        for _ in 1..DEADLINE_POLL_STRIDE {
            assert!(!ctl.should_stop());
        }
        // The stride boundary reads the clock, notices, and latches…
        assert!(ctl.should_stop());
        // …so every later poll (and clones made now) stop immediately.
        assert!(ctl.should_stop());
        assert!(ctl.clone().should_stop());
    }

    #[test]
    fn should_stop_now_skips_the_stride_throttle() {
        let ctl = RunControl::new().with_timeout(Duration::from_millis(5));
        assert!(!ctl.should_stop(), "poll 0: deadline still ahead");
        std::thread::sleep(Duration::from_millis(10));
        // Throttled polls inside the stride still say "keep going"…
        assert!(!ctl.should_stop());
        // …but the unthrottled check reads the clock immediately and
        // latches, so the throttled path stops from here on too.
        assert!(ctl.should_stop_now());
        assert!(ctl.should_stop());
        assert!(!RunControl::NONE.should_stop_now());
    }

    #[test]
    fn setting_a_new_deadline_clears_a_latched_expiry() {
        let mut ctl = RunControl::new().with_deadline(Instant::now());
        assert!(ctl.should_stop());
        ctl = ctl.with_timeout(Duration::from_secs(3600));
        assert!(!ctl.should_stop());
    }

    #[test]
    fn stage_collector_rides_the_control() {
        let collector = StageCollector::new();
        assert!(RunControl::NONE.stages().is_none());
        let ctl = RunControl::new().with_stages(&collector);
        let ctl = ctl.with_cancel(CancelToken::new()).with_timeout(Duration::from_secs(3600));
        ctl.stages().expect("the other builders preserve the collector").add(Stage::Reduce, 42);
        assert_eq!(collector.breakdown().reduce.as_nanos(), 42);
    }
}
