//! Failpoint-based fault injection for the chaos test suite.
//!
//! A [`FaultInjector`] holds named failpoints that storage and serve code
//! consult at their I/O boundaries (CSV stream reads, WAL writes and
//! fsyncs, connection teardown). Each failpoint counts down a number of
//! *skipped* triggers and then fails a number of times — so a test can ask
//! for "the third read of dataset `flights`'s stream fails" and prove the error
//! propagates as a typed [`crate::StorageError`] instead of a process abort.
//!
//! Failpoints come from two places:
//!
//! * the `MAIMON_FAILPOINTS` environment variable, parsed once on first use —
//!   a comma-separated list of `name=skip` or `name=skip:fires` entries
//!   (`fires` defaults to unlimited), where `name` may carry a
//!   `@scope` suffix to target one dataset/op only
//!   (e.g. `MAIMON_FAILPOINTS=csv_read@flights=2:1,wal_fsync=0`);
//! * programmatic [`FaultInjector::arm`] / [`FaultInjector::disarm`] calls,
//!   which in-process tests use so concurrently running tests can scope
//!   their faults to their own dataset.
//!
//! Production code pays one relaxed atomic load per check while no failpoint
//! has ever been armed.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// One armed failpoint: pass `skip` more triggers, then fail `fires` times.
#[derive(Clone, Copy, Debug)]
struct Failpoint {
    skip: u64,
    /// Remaining failures; `u64::MAX` means unlimited.
    fires: u64,
}

/// A registry of named failpoints. See the module docs for the spec syntax;
/// use [`global`] for the process-wide instance every built-in failpoint
/// site consults.
#[derive(Default)]
pub struct FaultInjector {
    /// Fast path: no failpoint was ever armed on this injector.
    any_armed: AtomicBool,
    points: Mutex<HashMap<String, Failpoint>>,
}

impl FaultInjector {
    /// Creates an injector with no failpoints armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms `name` to pass `skip` triggers and then fail `fires` times
    /// (`u64::MAX` for unlimited). `name` may carry a `@scope` suffix to
    /// target one dataset or op. Re-arming replaces any previous state.
    pub fn arm(&self, name: &str, skip: u64, fires: u64) {
        let mut points = self.lock();
        points.insert(name.to_string(), Failpoint { skip, fires });
        self.any_armed.store(true, Ordering::Release);
    }

    /// Removes the failpoint `name` (exact key, including any `@scope`).
    pub fn disarm(&self, name: &str) {
        self.lock().remove(name);
    }

    /// Parses a `MAIMON_FAILPOINTS`-style spec and arms every entry.
    /// Malformed entries are ignored — fault injection must never take the
    /// process down on a typo.
    pub fn arm_from_spec(&self, spec: &str) {
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((name, counts)) = entry.split_once('=') else { continue };
            let (skip, fires) = match counts.split_once(':') {
                Some((skip, fires)) => (skip.parse().ok(), fires.parse().ok()),
                None => (counts.parse().ok(), Some(u64::MAX)),
            };
            if let (Some(skip), Some(fires)) = (skip, fires) {
                self.arm(name.trim(), skip, fires);
            }
        }
    }

    /// Consults the failpoint `name` scoped to `scope` (a dataset or op
    /// label): a `name@scope` entry takes precedence, then a bare `name`
    /// entry matching every scope. Returns `true` when the trigger should
    /// fail, decrementing the matched entry's counters.
    pub fn should_fail(&self, name: &str, scope: &str) -> bool {
        if !self.any_armed.load(Ordering::Acquire) {
            return false;
        }
        let mut points = self.lock();
        let scoped = format!("{name}@{scope}");
        let key = if points.contains_key(&scoped) {
            scoped
        } else if points.contains_key(name) {
            name.to_string()
        } else {
            return false;
        };
        let point = points.get_mut(&key).expect("key was just checked");
        if point.skip > 0 {
            point.skip -= 1;
            return false;
        }
        match point.fires {
            0 => false,
            u64::MAX => true,
            _ => {
                point.fires -= 1;
                true
            }
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, Failpoint>> {
        // A panic while holding this lock leaves at worst a half-updated
        // counter; recovering keeps fault injection usable either way.
        self.points.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// The process-wide injector consulted by every built-in failpoint site,
/// seeded once from the `MAIMON_FAILPOINTS` environment variable.
pub fn global() -> &'static FaultInjector {
    static GLOBAL: OnceLock<FaultInjector> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let injector = FaultInjector::new();
        if let Ok(spec) = std::env::var("MAIMON_FAILPOINTS") {
            injector.arm_from_spec(&spec);
        }
        injector
    })
}

/// Checks the global failpoint `name` under `scope` and manufactures the
/// injected I/O error when it fires.
pub(crate) fn check_io(name: &'static str, scope: &str) -> Result<(), std::io::Error> {
    if global().should_fail(name, scope) {
        Err(injected_io_error(name))
    } else {
        Ok(())
    }
}

/// The `io::Error` an injected fault surfaces as — indistinguishable in kind
/// from a real environment failure, which is the point of the exercise.
pub fn injected_io_error(name: &str) -> std::io::Error {
    std::io::Error::other(format!("injected fault: {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_then_fire_then_exhaust() {
        let injector = FaultInjector::new();
        injector.arm("read", 2, 1);
        assert!(!injector.should_fail("read", "ds"));
        assert!(!injector.should_fail("read", "ds"));
        assert!(injector.should_fail("read", "ds"));
        assert!(!injector.should_fail("read", "ds"), "fires are exhausted");
    }

    #[test]
    fn unlimited_fires_and_disarm() {
        let injector = FaultInjector::new();
        injector.arm("fsync", 0, u64::MAX);
        for _ in 0..10 {
            assert!(injector.should_fail("fsync", "any"));
        }
        injector.disarm("fsync");
        assert!(!injector.should_fail("fsync", "any"));
    }

    #[test]
    fn scoped_entry_shadows_the_bare_name() {
        let injector = FaultInjector::new();
        injector.arm("read", 0, u64::MAX);
        injector.arm("read@safe", 0, 0);
        assert!(!injector.should_fail("read", "safe"), "scoped no-op entry wins");
        assert!(injector.should_fail("read", "other"), "bare entry covers the rest");
    }

    #[test]
    fn spec_parsing_arms_valid_entries_and_ignores_garbage() {
        let injector = FaultInjector::new();
        injector.arm_from_spec("a=1, b@ds=0:2 ,notanentry, c=x:y, =3,");
        assert!(!injector.should_fail("a", "s"), "skip 1");
        assert!(injector.should_fail("a", "s"), "then unlimited fires");
        assert!(injector.should_fail("b", "ds"));
        assert!(injector.should_fail("b", "ds"));
        assert!(!injector.should_fail("b", "ds"), "2 fires exhausted");
        assert!(!injector.should_fail("b", "elsewhere"), "scoped to ds");
        assert!(!injector.should_fail("c", "s"), "malformed counts ignored");
    }

    #[test]
    fn unarmed_injector_never_fails() {
        let injector = FaultInjector::new();
        assert!(!injector.should_fail("anything", "anywhere"));
    }
}
