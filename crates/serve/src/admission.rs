//! Per-tenant admission control.
//!
//! Two independent bounds protect a server whose requests can each burn
//! seconds of CPU:
//!
//! * a **per-tenant in-flight cap** — at most `max_in_flight_per_tenant`
//!   mining requests of one tenant execute concurrently, so a single greedy
//!   client cannot monopolize the worker pool; and
//! * a **connection queue bound** — the server sheds *connections* once its
//!   accept queue holds `max_queue_depth` pending sockets (enforced by the
//!   server loop, counted here).
//!
//! Shed requests receive a well-formed `overloaded` response immediately;
//! they are never silently dropped.

use maimon::obs;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Most distinct tenant labels one server tracks. Clients choose tenant
/// names, so past this many, new names share [`OTHER_TENANT`] in admission
/// and metrics alike, and the per-tenant state stays bounded.
pub const MAX_TENANTS: usize = 256;

/// The label shared by every tenant name past [`MAX_TENANTS`].
pub const OTHER_TENANT: &str = "_other";

/// Knobs of the admission controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Concurrent mining requests allowed per tenant label.
    pub max_in_flight_per_tenant: usize,
    /// Pending (accepted, not yet served) connections before the server
    /// sheds new ones.
    pub max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig { max_in_flight_per_tenant: 2, max_queue_depth: 64 }
    }
}

/// Counters exported by the server's `stats` operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Mining requests admitted past the tenant cap.
    pub admitted: u64,
    /// Mining requests shed because their tenant was at its in-flight cap.
    pub shed_tenant_cap: u64,
    /// Connections shed because the accept queue was full.
    pub shed_queue_full: u64,
}

/// Per-tenant slice of the admission counters, so `stats` can attribute
/// sheds to the tenant that caused them instead of reporting only the
/// server-wide total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantAdmissionStats {
    /// Mining requests of this tenant admitted past the cap.
    pub admitted: u64,
    /// Mining requests of this tenant shed at its in-flight cap.
    pub shed_tenant_cap: u64,
}

/// Tracks in-flight mining work per tenant and the shed counters.
#[derive(Debug, Default)]
pub struct AdmissionController {
    config: AdmissionConfig,
    in_flight: Mutex<HashMap<String, usize>>,
    per_tenant: Mutex<HashMap<String, TenantAdmissionStats>>,
    labels: Mutex<HashSet<String>>,
    admitted: AtomicU64,
    shed_tenant: AtomicU64,
    shed_queue: AtomicU64,
}

/// Proof of admission; releases the tenant slot on drop (including on
/// panic/early return), so the count can never leak.
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
    tenant: String,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        let mut in_flight =
            self.controller.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
        match in_flight.get_mut(&self.tenant) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                in_flight.remove(&self.tenant);
            }
        }
    }
}

impl AdmissionController {
    /// Creates a controller with the given knobs.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController { config, ..AdmissionController::default() }
    }

    /// The configured knobs.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// The label the server tracks `tenant` under: the name itself if it is
    /// one of the first [`MAX_TENANTS`] names seen, else [`OTHER_TENANT`].
    pub fn tenant_label(&self, tenant: &str) -> String {
        let mut labels = self.labels.lock().unwrap_or_else(PoisonError::into_inner);
        if !labels.contains(tenant) {
            if labels.len() >= MAX_TENANTS {
                return OTHER_TENANT.to_string();
            }
            labels.insert(tenant.to_string());
        }
        tenant.to_string()
    }

    /// Tries to admit one mining request for `tenant` (empty string for the
    /// anonymous tenant). `None` means the tenant is at its cap — respond
    /// `overloaded` and count the shed.
    pub fn try_admit(self: &Arc<Self>, tenant: &str) -> Option<AdmissionPermit> {
        {
            let mut in_flight = self.in_flight.lock().unwrap_or_else(PoisonError::into_inner);
            let slot = in_flight.entry(tenant.to_string()).or_insert(0);
            if *slot >= self.config.max_in_flight_per_tenant {
                drop(in_flight);
                self.shed_tenant.fetch_add(1, Ordering::Relaxed);
                self.tenant_entry(tenant, |t| t.shed_tenant_cap += 1);
                let registry = obs::global();
                registry.describe(
                    "maimon_requests_shed_total",
                    "Requests shed by admission control, by reason",
                );
                registry
                    .counter(
                        "maimon_requests_shed_total",
                        &[("reason", "tenant_cap"), ("tenant", tenant)],
                    )
                    .inc();
                return None;
            }
            *slot += 1;
        }
        self.admitted.fetch_add(1, Ordering::Relaxed);
        self.tenant_entry(tenant, |t| t.admitted += 1);
        Some(AdmissionPermit { controller: Arc::clone(self), tenant: tenant.to_string() })
    }

    /// Records a connection shed by the server's queue bound.
    pub fn note_queue_shed(&self) {
        self.shed_queue.fetch_add(1, Ordering::Relaxed);
        let registry = obs::global();
        registry.describe(
            "maimon_requests_shed_total",
            "Requests shed by admission control, by reason",
        );
        registry.counter("maimon_requests_shed_total", &[("reason", "queue_full")]).inc();
    }

    fn tenant_entry(&self, tenant: &str, update: impl FnOnce(&mut TenantAdmissionStats)) {
        let mut per_tenant = self.per_tenant.lock().unwrap_or_else(PoisonError::into_inner);
        update(per_tenant.entry(tenant.to_string()).or_default());
    }

    /// Current in-flight count for a tenant (0 when idle).
    pub fn in_flight(&self, tenant: &str) -> usize {
        self.in_flight
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Per-tenant admission/shed attribution, sorted by tenant label.
    /// Covers every tenant that ever issued a mining request (in-flight maps
    /// forget idle tenants; these counters do not).
    pub fn tenant_stats(&self) -> Vec<(String, TenantAdmissionStats)> {
        let per_tenant = self.per_tenant.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<(String, TenantAdmissionStats)> =
            per_tenant.iter().map(|(name, stats)| (name.clone(), *stats)).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
    }

    /// Current counters.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            shed_tenant_cap: self.shed_tenant.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_cap_is_enforced_and_released() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_in_flight_per_tenant: 2,
            max_queue_depth: 8,
        }));
        let a = ctl.try_admit("alice").expect("first slot");
        let b = ctl.try_admit("alice").expect("second slot");
        assert!(ctl.try_admit("alice").is_none(), "third must shed");
        // Other tenants are unaffected by alice's saturation.
        let c = ctl.try_admit("bob").expect("independent tenant");
        assert_eq!(ctl.in_flight("alice"), 2);

        drop(a);
        assert_eq!(ctl.in_flight("alice"), 1);
        let d = ctl.try_admit("alice").expect("slot released by drop");
        drop((b, c, d));
        assert_eq!(ctl.in_flight("alice"), 0);
        assert_eq!(ctl.in_flight("bob"), 0);

        let stats = ctl.stats();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.shed_tenant_cap, 1);
        assert_eq!(stats.shed_queue_full, 0);

        // The shed is attributed to the tenant that caused it, not only to
        // the server-wide total.
        let tenants = ctl.tenant_stats();
        assert_eq!(
            tenants,
            vec![
                ("alice".to_string(), TenantAdmissionStats { admitted: 3, shed_tenant_cap: 1 }),
                ("bob".to_string(), TenantAdmissionStats { admitted: 1, shed_tenant_cap: 0 }),
            ]
        );
    }

    #[test]
    fn permits_release_even_on_panic() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_in_flight_per_tenant: 1,
            max_queue_depth: 8,
        }));
        let ctl2 = Arc::clone(&ctl);
        let _ = std::panic::catch_unwind(move || {
            let _permit = ctl2.try_admit("t").unwrap();
            panic!("worker died mid-request");
        });
        assert_eq!(ctl.in_flight("t"), 0, "permit must release on unwind");
        assert!(ctl.try_admit("t").is_some());
    }

    #[test]
    fn a_poisoned_lock_keeps_admitting() {
        let ctl = Arc::new(AdmissionController::new(AdmissionConfig {
            max_in_flight_per_tenant: 1,
            max_queue_depth: 8,
        }));
        let ctl2 = Arc::clone(&ctl);
        let _ = std::panic::catch_unwind(move || {
            let _in_flight = ctl2.in_flight.lock();
            let _per_tenant = ctl2.per_tenant.lock();
            panic!("panic while holding both admission locks");
        });
        assert!(ctl.in_flight.is_poisoned() && ctl.per_tenant.is_poisoned());
        let permit = ctl.try_admit("t").expect("admits through the poisoned lock");
        assert_eq!(ctl.in_flight("t"), 1);
        drop(permit);
        assert_eq!(ctl.in_flight("t"), 0);
        assert_eq!(ctl.tenant_stats().len(), 1);
    }
}
