//! Degraded-mode supervision: the per-UAV health state machine.
//!
//! The paper's dependability argument (§II, §V) assumes the platform
//! *notices* when a UAV stops being reachable and falls back to a safe
//! behaviour instead of silently flying on. This module supplies that
//! layer: each UAV is tracked by a [`UavSupervisor`] fed by two
//! freshness signals —
//!
//! * **telemetry staleness** (GCS side): when did the last telemetry
//!   message actually arrive over the bus, and
//! * **GCS heartbeat** (UAV side): when did the UAV last hear the ground
//!   station's periodic heartbeat on its command topic —
//!
//! and a watchdog folds the two into a three-state machine:
//!
//! ```text
//! Nominal ──(stale ≥ degraded_after)──▶ Degraded
//! Degraded ──(stale ≥ fallback_after)──▶ SafeFallback (→ return to base)
//! any ──(both signals fresh)──▶ Nominal
//! any ──(isolated compute fault)──▶ Quarantined (→ RTB + revival probe)
//! ```
//!
//! The orchestrator runs the machine every tick, counts and traces every
//! transition through `sesame-obs`, and commands the minimal-risk
//! fallback when a UAV enters [`HealthState::SafeFallback`].
//!
//! [`HealthState::Quarantined`] is different from the staleness states:
//! it is entered and left *only* through the containment layer
//! ([`crate::containment`]) when a UAV's own compute crashed or emitted
//! non-finite outputs — the watchdog ([`UavSupervisor::assess`]) is
//! suspended while it holds, and release goes through the
//! exponential-backoff revival probe, never through link freshness.

use sesame_types::time::{SimDuration, SimTime};

/// The supervision health of one UAV, as seen by the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Both link directions fresh; full mission authority.
    #[default]
    Nominal,
    /// One or both freshness signals stale past the watchdog window; the
    /// platform treats the UAV's data and reachability as suspect.
    Degraded,
    /// Staleness exceeded the fallback window: the UAV is presumed cut
    /// off and is commanded (or presumed to autonomously execute) the
    /// safe fallback behaviour — return to base.
    SafeFallback,
    /// The UAV's own compute faulted (a panic or non-finite EDDI output
    /// was isolated): it is excised from EDDI evaluation, the airspace
    /// scan and ConSert composition, commanded RTB, and only re-admitted
    /// by the containment layer's revival probe. Entered and left via
    /// [`UavSupervisor::quarantine`] / [`UavSupervisor::release`], never
    /// by the staleness watchdog.
    Quarantined,
}

impl HealthState {
    /// Stable lower-case label for metrics and traces.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Nominal => "nominal",
            HealthState::Degraded => "degraded",
            HealthState::SafeFallback => "safe_fallback",
            HealthState::Quarantined => "quarantined",
        }
    }

    /// Numeric encoding for gauges (0 = nominal, 1 = degraded, 2 = safe
    /// fallback, 3 = quarantined).
    pub fn as_gauge(&self) -> f64 {
        match self {
            HealthState::Nominal => 0.0,
            HealthState::Degraded => 1.0,
            HealthState::SafeFallback => 2.0,
            HealthState::Quarantined => 3.0,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Watchdog windows and retry policy of the supervision layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisionConfig {
    /// Whether the supervision layer runs at all.
    pub enabled: bool,
    /// Staleness (of either signal) that demotes a UAV to
    /// [`HealthState::Degraded`].
    pub degraded_after: SimDuration,
    /// Staleness that triggers [`HealthState::SafeFallback`].
    pub fallback_after: SimDuration,
    /// How often the GCS publishes its heartbeat on `/{uav}/cmd/heartbeat`.
    pub heartbeat_period: SimDuration,
    /// Maximum re-publishes of an unacknowledged command.
    pub max_command_retries: u32,
    /// Base retry backoff; doubles per attempt.
    pub retry_backoff: SimDuration,
    /// Consecutive clean revival-probe ticks required before a
    /// quarantined UAV is re-admitted to the fleet.
    pub revival_clean_ticks: u64,
    /// Base spacing, in ticks, between revival probe attempts after a
    /// failed probe; doubles per failure.
    pub revival_backoff_ticks: u64,
    /// Cap on the revival backoff exponent (spacing saturates at
    /// `revival_backoff_ticks << revival_backoff_cap`).
    pub revival_backoff_cap: u32,
    /// Consecutive faulty ticks of one UAV that trip the tick watchdog
    /// and demote the tick to one shard.
    pub watchdog_trip_after: u64,
    /// Ticks the watchdog keeps the tick demoted to one shard after a trip.
    pub watchdog_cooldown_ticks: u64,
}

impl Default for SupervisionConfig {
    fn default() -> Self {
        SupervisionConfig {
            enabled: true,
            degraded_after: SimDuration::from_secs(2),
            fallback_after: SimDuration::from_secs(6),
            heartbeat_period: SimDuration::from_secs(1),
            max_command_retries: 3,
            retry_backoff: SimDuration::from_millis(400),
            revival_clean_ticks: 8,
            revival_backoff_ticks: 16,
            revival_backoff_cap: 6,
            watchdog_trip_after: 3,
            watchdog_cooldown_ticks: 64,
        }
    }
}

/// A health transition produced by [`UavSupervisor::assess`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Which signal drove the transition (for the trace log).
    pub reason: String,
}

/// Freshness tracking and the state machine for one UAV.
#[derive(Debug, Clone)]
pub struct UavSupervisor {
    state: HealthState,
    last_telemetry_rx: SimTime,
    last_heartbeat_rx: SimTime,
}

impl Default for UavSupervisor {
    fn default() -> Self {
        Self::new()
    }
}

impl UavSupervisor {
    /// A supervisor considering both signals fresh at time zero.
    pub fn new() -> Self {
        UavSupervisor {
            state: HealthState::Nominal,
            last_telemetry_rx: SimTime::ZERO,
            last_heartbeat_rx: SimTime::ZERO,
        }
    }

    /// Records a telemetry delivery at the GCS.
    pub fn record_telemetry(&mut self, now: SimTime) {
        self.last_telemetry_rx = now;
    }

    /// Records a heartbeat reception at the UAV.
    pub fn record_heartbeat(&mut self, now: SimTime) {
        self.last_heartbeat_rx = now;
    }

    /// Current health state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Staleness of the telemetry signal at `now`.
    pub fn telemetry_staleness(&self, now: SimTime) -> SimDuration {
        now.since(self.last_telemetry_rx)
    }

    /// Staleness of the heartbeat signal at `now`.
    pub fn heartbeat_staleness(&self, now: SimTime) -> SimDuration {
        now.since(self.last_heartbeat_rx)
    }

    /// Runs the watchdog: compares both signals against the windows and
    /// returns the transition if the state changed.
    ///
    /// While the UAV is [`HealthState::Quarantined`] the watchdog is
    /// suspended — only [`UavSupervisor::release`] (the containment
    /// layer's revival probe) leaves that state.
    pub fn assess(&mut self, now: SimTime, cfg: &SupervisionConfig) -> Option<HealthTransition> {
        if self.state == HealthState::Quarantined {
            return None;
        }
        let tel = self.telemetry_staleness(now);
        let hb = self.heartbeat_staleness(now);
        let worst = if tel >= hb { tel } else { hb };
        let target = if worst >= cfg.fallback_after {
            HealthState::SafeFallback
        } else if worst >= cfg.degraded_after {
            HealthState::Degraded
        } else {
            HealthState::Nominal
        };
        if target == self.state {
            return None;
        }
        let reason = if target == HealthState::Nominal {
            "links fresh again".to_string()
        } else if tel >= hb {
            format!("telemetry stale {:.1} s", tel.as_secs_f64())
        } else {
            format!("heartbeat stale {:.1} s", hb.as_secs_f64())
        };
        let from = self.state;
        self.state = target;
        Some(HealthTransition {
            from,
            to: target,
            reason,
        })
    }

    /// Forces the UAV into [`HealthState::Quarantined`] (an isolated
    /// compute fault). Returns the transition, or `None` if already
    /// quarantined.
    pub fn quarantine(&mut self, reason: impl Into<String>) -> Option<HealthTransition> {
        if self.state == HealthState::Quarantined {
            return None;
        }
        let from = self.state;
        self.state = HealthState::Quarantined;
        Some(HealthTransition {
            from,
            to: HealthState::Quarantined,
            reason: reason.into(),
        })
    }

    /// Releases a quarantined UAV back to [`HealthState::Nominal`] after
    /// a successful revival probe, refreshing both link signals so the
    /// staleness watchdog doesn't immediately re-demote it for the ticks
    /// it sat out. Returns `None` if the UAV was not quarantined.
    pub fn release(&mut self, now: SimTime, reason: impl Into<String>) -> Option<HealthTransition> {
        if self.state != HealthState::Quarantined {
            return None;
        }
        self.last_telemetry_rx = now;
        self.last_heartbeat_rx = now;
        self.state = HealthState::Nominal;
        Some(HealthTransition {
            from: HealthState::Quarantined,
            to: HealthState::Nominal,
            reason: reason.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisionConfig {
        SupervisionConfig::default()
    }

    #[test]
    fn fresh_signals_stay_nominal() {
        let mut s = UavSupervisor::new();
        for sec in 1..20 {
            let now = SimTime::from_secs(sec);
            s.record_telemetry(now);
            s.record_heartbeat(now);
            assert!(s.assess(now, &cfg()).is_none());
        }
        assert_eq!(s.state(), HealthState::Nominal);
    }

    #[test]
    fn staleness_walks_through_degraded_to_fallback() {
        let mut s = UavSupervisor::new();
        let t0 = SimTime::from_secs(10);
        s.record_telemetry(t0);
        s.record_heartbeat(t0);
        // 2 s stale: degraded.
        let tr = s.assess(SimTime::from_secs(12), &cfg()).expect("degrades");
        assert_eq!(tr.from, HealthState::Nominal);
        assert_eq!(tr.to, HealthState::Degraded);
        // Unchanged until the fallback window.
        assert!(s.assess(SimTime::from_secs(14), &cfg()).is_none());
        // 6 s stale: safe fallback.
        let tr = s
            .assess(SimTime::from_secs(16), &cfg())
            .expect("falls back");
        assert_eq!(tr.to, HealthState::SafeFallback);
        assert_eq!(s.state(), HealthState::SafeFallback);
    }

    #[test]
    fn recovery_returns_to_nominal() {
        let mut s = UavSupervisor::new();
        s.assess(SimTime::from_secs(30), &cfg());
        assert_eq!(s.state(), HealthState::SafeFallback);
        let now = SimTime::from_secs(31);
        s.record_telemetry(now);
        s.record_heartbeat(now);
        let tr = s.assess(now, &cfg()).expect("recovers");
        assert_eq!(tr.from, HealthState::SafeFallback);
        assert_eq!(tr.to, HealthState::Nominal);
        assert_eq!(tr.reason, "links fresh again");
    }

    #[test]
    fn one_stale_signal_is_enough() {
        let mut s = UavSupervisor::new();
        // Heartbeats keep arriving (uplink fine), telemetry dies
        // (downlink partition): the supervisor still degrades.
        for sec in 1..=8 {
            s.record_heartbeat(SimTime::from_secs(sec));
        }
        let tr = s.assess(SimTime::from_secs(8), &cfg()).expect("degrades");
        assert_eq!(tr.to, HealthState::SafeFallback);
        assert!(tr.reason.contains("telemetry"), "{}", tr.reason);
    }

    #[test]
    fn labels_and_gauges_are_stable() {
        assert_eq!(HealthState::Nominal.as_str(), "nominal");
        assert_eq!(HealthState::Degraded.as_str(), "degraded");
        assert_eq!(HealthState::SafeFallback.as_str(), "safe_fallback");
        assert_eq!(HealthState::Quarantined.as_str(), "quarantined");
        assert_eq!(HealthState::Nominal.as_gauge(), 0.0);
        assert_eq!(HealthState::SafeFallback.as_gauge(), 2.0);
        assert_eq!(HealthState::Quarantined.as_gauge(), 3.0);
        assert_eq!(format!("{}", HealthState::Degraded), "degraded");
    }

    #[test]
    fn quarantine_suspends_the_staleness_watchdog() {
        let mut s = UavSupervisor::new();
        let tr = s.quarantine("eddi panic isolated").expect("enters");
        assert_eq!(tr.from, HealthState::Nominal);
        assert_eq!(tr.to, HealthState::Quarantined);
        // Re-entry is idempotent.
        assert!(s.quarantine("again").is_none());
        // Arbitrarily stale signals no longer move the machine …
        assert!(s.assess(SimTime::from_secs(120), &cfg()).is_none());
        assert_eq!(s.state(), HealthState::Quarantined);
        // … and fresh ones don't release it either.
        let now = SimTime::from_secs(121);
        s.record_telemetry(now);
        s.record_heartbeat(now);
        assert!(s.assess(now, &cfg()).is_none());
        assert_eq!(s.state(), HealthState::Quarantined);
    }

    #[test]
    fn release_restores_nominal_with_fresh_signals() {
        let mut s = UavSupervisor::new();
        assert!(s
            .release(SimTime::from_secs(1), "not quarantined")
            .is_none());
        s.quarantine("fault");
        let now = SimTime::from_secs(40);
        let tr = s.release(now, "8 clean probe ticks").expect("releases");
        assert_eq!(tr.from, HealthState::Quarantined);
        assert_eq!(tr.to, HealthState::Nominal);
        assert_eq!(s.state(), HealthState::Nominal);
        // The refreshed signals keep the watchdog from re-demoting the
        // UAV for the quarantine it just served.
        assert!(s.assess(now, &cfg()).is_none());
        assert_eq!(s.state(), HealthState::Nominal);
    }
}
