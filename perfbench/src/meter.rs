//! Timed stepping of a platform, shared by every workload that runs
//! platforms in-process.
//!
//! Untraced, a [`Meter`] records the host time of each step. Traced, it
//! also brackets each step with allocator readings, feeds the shadow
//! EDDI stacks after it, times `Platform::metrics_snapshot` at the
//! service's snapshot cadence, and takes the deltas of the platform's
//! own `tick.phase.*` histograms, `eddi.evals.*` and `bus.*` counters
//! over the window. All traced work happens outside the timed step.

use crate::alloc;
use crate::report::Report;
use crate::shadow::{hit_ratio, LayerTimes, ShadowFleet};
use crate::stats::{self, median_of_few, PhaseSplit};
use sesame_core::orchestrator::{Platform, PlatformConfig};
use sesame_core::Scenario;
use sesame_obs::span::{phase, phase_metric};
use sesame_types::time::SimTime;
use std::hint::black_box;
use std::time::Instant;

/// Anything the meter can step: a bare platform or a scripted scenario.
pub trait Steppable {
    /// One tick; returns the new simulation time.
    fn step(&mut self) -> SimTime;
    /// The platform being stepped.
    fn platform(&self) -> &Platform;
    /// The platform being stepped, mutably (for the shadow's telemetry).
    fn platform_mut(&mut self) -> &mut Platform;
}

impl Steppable for Platform {
    fn step(&mut self) -> SimTime {
        Platform::step(self)
    }
    fn platform(&self) -> &Platform {
        self
    }
    fn platform_mut(&mut self) -> &mut Platform {
        self
    }
}

impl Steppable for Scenario {
    fn step(&mut self) -> SimTime {
        self.step_once()
    }
    fn platform(&self) -> &Platform {
        Scenario::platform(self)
    }
    fn platform_mut(&mut self) -> &mut Platform {
        Scenario::platform_mut(self)
    }
}

/// Every tick the streaming service snapshots metrics this often.
const SNAPSHOT_EVERY_TICKS: u64 = 10;

/// The platform's cumulative counters at one instant.
#[derive(Debug, Clone)]
struct Counters {
    phase_us: [f64; phase::ALL.len()],
    total_us: f64,
    evals: u64,
    delivered: u64,
    dropped: u64,
    /// The platform's own `eddi.cache.hit` / `eddi.cache.miss` totals.
    cache: (u64, u64),
    now: SimTime,
}

impl Counters {
    fn read(p: &Platform) -> Self {
        let m = p.metrics();
        let sum = |name: &str| m.histogram(name).map_or(0.0, |h| h.sum());
        Counters {
            phase_us: phase::ALL.map(|name| sum(&phase_metric(name))),
            total_us: sum("tick.total"),
            evals: m.counters_with_prefix("eddi.evals.").map(|(_, v)| v).sum(),
            delivered: m.counter("bus.delivered"),
            dropped: m.counter("bus.dropped"),
            cache: (m.counter("eddi.cache.hit"), m.counter("eddi.cache.miss")),
            now: p.now(),
        }
    }
}

/// Traced-run accumulators across every window of a workload.
#[derive(Debug, Default)]
struct Traced {
    phase_us: [f64; phase::ALL.len()],
    total_us: f64,
    evals: u64,
    delivered: u64,
    dropped: u64,
    cache: (u64, u64),
    sim_s: f64,
    allocs: u64,
    heap_growth_bytes: i64,
    snapshot_us: Vec<f64>,
    layers: LayerTimes,
}

/// Step timings (and, traced, layer accounting) of one workload.
pub struct Meter {
    /// Host µs of every timed step.
    pub tick_us: Vec<f64>,
    /// Simulated UAV-ticks over the timed steps.
    pub uav_ticks: u64,
    /// Closed segments, in the order of `tick_us`.
    segments: Vec<Segment>,
    /// UAV-ticks and host seconds of the open segment.
    open: (u64, f64),
    traced: Option<Traced>,
}

/// A closed run of timed steps.
#[derive(Debug, Clone, Copy)]
struct Segment {
    /// What the segment ran; the segments of one group repeat the same
    /// work.
    group: usize,
    ticks: usize,
    uav_ticks: u64,
    step_s: f64,
}

/// One group's medians over its segments.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Group {
    /// Median of the segments' p50s; `None` when every segment is under
    /// 20 ticks.
    p50: Option<f64>,
    /// Median of the segments' UAV-ticks per host second.
    rate: f64,
    /// UAVs per tick.
    uavs: f64,
}

/// One platform's window inside a [`Meter`].
pub struct Window<'m> {
    meter: &'m mut Meter,
    start: Counters,
    uavs: u64,
    shadow: Option<ShadowFleet>,
    steps: u64,
}

impl Meter {
    /// A meter; `traced` turns on the layer accounting.
    pub fn new(traced: bool, expected_ticks: usize) -> Self {
        Meter {
            tick_us: Vec::with_capacity(expected_ticks),
            uav_ticks: 0,
            segments: Vec::new(),
            open: (0, 0.0),
            traced: traced.then(Traced::default),
        }
    }

    /// Opens a window over `platform`, built from `config`.
    pub fn window(&mut self, platform: &Platform, config: &PlatformConfig) -> Window<'_> {
        let shadow = self
            .traced
            .is_some()
            .then(|| ShadowFleet::new(config, platform.uav_count()));
        Window {
            start: Counters::read(platform),
            uavs: platform.uav_count() as u64,
            shadow,
            steps: 0,
            meter: self,
        }
    }

    /// Ends a segment of `group`: one scenario's run in a library
    /// pass, or a run of ticks of the fleet. Throughput and the tick p50
    /// come from per-group medians over segments, so a burst of load
    /// from elsewhere on the host moves at most the segments it
    /// overlaps.
    pub fn close_segment(&mut self, group: usize) {
        let (uav_ticks, step_s) = std::mem::take(&mut self.open);
        let ticks = self.tick_us.len() - self.segments.iter().map(|s| s.ticks).sum::<usize>();
        if step_s > 0.0 {
            self.segments.push(Segment {
                group,
                ticks,
                uav_ticks,
                step_s,
            });
        }
    }

    /// Each group's medians over its segments. A segment too short for
    /// [`stats::median`] (under 20 ticks) has no p50.
    fn groups(&mut self) -> Vec<Group> {
        let mut p50s = Vec::with_capacity(self.segments.len());
        let mut rest = self.tick_us.as_mut_slice();
        for s in &self.segments {
            let (segment, tail) = rest.split_at_mut(s.ticks);
            p50s.push(stats::median(segment));
            rest = tail;
        }
        let count = self.segments.iter().map(|s| s.group + 1).max().unwrap_or(0);
        (0..count)
            .filter_map(|g| {
                let members: Vec<usize> = (0..self.segments.len())
                    .filter(|&i| self.segments[i].group == g)
                    .collect();
                let median = |f: &dyn Fn(&Segment) -> f64| {
                    let mut v: Vec<f64> = members.iter().map(|&i| f(&self.segments[i])).collect();
                    median_of_few(&mut v)
                };
                let mut group_p50s: Vec<f64> = members.iter().filter_map(|&i| p50s[i]).collect();
                (!members.is_empty()).then(|| Group {
                    p50: (!group_p50s.is_empty()).then(|| median_of_few(&mut group_p50s)),
                    rate: median(&|s| s.uav_ticks as f64 / s.step_s),
                    uavs: median(&|s| s.uav_ticks as f64 / s.ticks as f64),
                })
            })
            .collect()
    }

    /// The tick p50 and the throughput over segments, as if every
    /// group ran the same number of ticks, so that how long a seed
    /// keeps one scenario running does not change the mix:
    ///
    /// * the p50 is the median of the group p50s;
    /// * the throughput is the UAV-ticks of one tick of every group
    ///   over the host time they take at each group's median rate.
    fn over_segments(&mut self) -> (Option<f64>, Option<f64>, Vec<Group>) {
        let groups = self.groups();
        let mut p50s: Vec<f64> = groups.iter().filter_map(|g| g.p50).collect();
        let p50 = (!p50s.is_empty()).then(|| median_of_few(&mut p50s));
        let rate = (!groups.is_empty()).then(|| {
            let uavs: f64 = groups.iter().map(|g| g.uavs).sum();
            let host_s: f64 = groups.iter().map(|g| g.uavs / g.rate).sum();
            uavs / host_s
        });
        (p50, rate, groups)
    }

    /// Sets the tick latency and throughput metrics on `report`:
    /// `tick_p50_us` and `uav_ticks_per_s` over segments (see
    /// [`Meter::over_segments`]), `tick_p99_us` over all timed ticks.
    pub fn report_ticks(&mut self, report: &mut Report) {
        let n = self.tick_us.len() as u64;
        let (p50, rate, groups) = self.over_segments();
        let p99 = stats::percentile(&mut self.tick_us, 0.99);
        report.set_opt("tick_p50_us", p50, n);
        // Printed, not gated: across runs on a shared host its spread
        // exceeded the largest bound a gated metric may have.
        if let Some(p99) = p99 {
            report.extra("tick_p99_us", p99, "us", n);
        }
        report.set_opt("core.tick_p50_traced_us", p50, n);
        if let Some(rate) = rate {
            let rates: Vec<String> = groups.iter().map(|g| format!("{:.0}", g.rate)).collect();
            report.note(format!("median UAV-ticks/s per group: {}", rates.join(" ")));
            report.set("uav_ticks_per_s", rate, n);
        }
    }

    /// Sets every core and EDDI layer metric of a traced meter.
    pub fn report_layers(&mut self, report: &mut Report) {
        let n = self.tick_us.len() as u64;
        let Some(t) = &mut self.traced else { return };

        let sums: Vec<(&'static str, f64)> = phase::ALL.iter().copied().zip(t.phase_us).collect();
        let split = PhaseSplit::new(&sums, t.total_us, n);
        for (name, us) in &split.phases {
            report.set(phase_metric_name(name), *us, n);
        }
        report.set("core.phase.unattributed_us", split.unattributed_us, n);

        let l = &t.layers;
        let evals = l.evaluations;
        report.set("core.eddi.tick_us", l.per_eval(l.eddi_tick_us), evals);
        let eddi_eval_per_uav = if t.evals == 0 {
            0.0
        } else {
            t.phase_us[phase_index(phase::EDDI_EVAL)] / t.evals as f64
        };
        report.set(
            "core.eddi_glue_us",
            eddi_eval_per_uav - l.per_eval(l.eddi_tick_us),
            t.evals,
        );
        report.set("vision.extract_us", l.per_eval(l.vision_us), evals);
        report.set("safeml.assess_us", l.per_eval(l.safeml_us), evals);
        report.set(
            "deepknowledge.assess_us",
            l.per_eval(l.deepknowledge_us),
            evals,
        );
        report.set("sinadra.assess_us", l.per_eval(l.sinadra_us), evals);
        report.set("safedrones.advance_us", l.per_eval(l.safedrones_us), evals);
        report.set("security.spoof_check_us", l.per_eval(l.spoof_us), evals);
        report.set("conserts.decide_us", l.per_eval(l.conserts_us), evals);
        report.set("sinadra.cache_hit_ratio", hit_ratio(l.sinadra_cache), evals);
        report.set(
            "safedrones.cache_hit_ratio",
            hit_ratio(l.safedrones_cache),
            evals,
        );
        report.set(
            "conserts.cache_hit_ratio",
            hit_ratio(l.conserts_cache),
            evals,
        );
        // The platform's own caches, beside the shadow's: the shadow
        // neither primes nor batches its solves (see `shadow`).
        report.set(
            "core.eddi.cache_hit_ratio",
            hit_ratio(t.cache),
            t.cache.0 + t.cache.1,
        );
        let shadow_cache = [l.sinadra_cache, l.safedrones_cache, l.conserts_cache]
            .iter()
            .fold((0, 0), |acc, c| (acc.0 + c.0, acc.1 + c.1));
        report.note(format!(
            "eddi cache hit ratio: platform {:.4} ({} lookups), shadow {:.4} ({} lookups)",
            hit_ratio(t.cache),
            t.cache.0 + t.cache.1,
            hit_ratio(shadow_cache),
            shadow_cache.0 + shadow_cache.1,
        ));
        report.attempted += 1;
        if l.drifted > 0 {
            report.fail(format!(
                "the shadow's layer-by-layer outputs differed from its UavEddiRuntime on \
                 {} of {evals} UAV-ticks; first {}",
                l.drifted,
                l.first_drift.as_deref().unwrap_or("")
            ));
        }

        let uav_ticks = self.uav_ticks.max(1) as f64;
        report.set("core.allocs_per_uav_tick", t.allocs as f64 / uav_ticks, n);
        let growth_kb = t.heap_growth_bytes as f64 / 1024.0;
        report.set(
            "core.heap_growth_kb_per_sim_s",
            if t.sim_s > 0.0 {
                growth_kb / t.sim_s
            } else {
                0.0
            },
            n,
        );
        let per_tick = |v: u64| v as f64 / n.max(1) as f64;
        report.set("middleware.delivered_per_tick", per_tick(t.delivered), n);
        report.set("middleware.dropped_per_tick", per_tick(t.dropped), n);
        let snapshots = t.snapshot_us.len() as u64;
        let snapshot_p50 = stats::median(&mut t.snapshot_us);
        report.set_opt("obs.snapshot_us", snapshot_p50, snapshots);

        report.note(format!(
            "eddi accounting (us per UAV-tick): eddi_eval {eddi_eval_per_uav:.2} = monitor \
             layers {:.2} + runtime-internal {:.2} + glue {:.2}; conserts decide {:.2} \
             runs in the decide phase",
            l.per_eval(l.monitor_layers_us()),
            l.per_eval(l.eddi_tick_us - l.monitor_layers_us()),
            eddi_eval_per_uav - l.per_eval(l.eddi_tick_us),
            l.per_eval(l.conserts_us),
        ));
    }

    /// The phase split of a traced meter, for the baseline table.
    pub fn phase_split(&self) -> Option<PhaseSplit> {
        let t = self.traced.as_ref()?;
        let sums: Vec<(&'static str, f64)> = phase::ALL.iter().copied().zip(t.phase_us).collect();
        Some(PhaseSplit::new(
            &sums,
            t.total_us,
            self.tick_us.len() as u64,
        ))
    }
}

impl Window<'_> {
    /// One timed step of `s`, plus the traced work after it.
    pub fn step<S: Steppable>(&mut self, s: &mut S) -> SimTime {
        let before = alloc::reading();
        let t = Instant::now();
        let now = s.step();
        let elapsed = t.elapsed().as_secs_f64();
        let after = alloc::reading();
        let meter = &mut *self.meter;
        meter.tick_us.push(elapsed * 1e6);
        meter.uav_ticks += self.uavs;
        meter.open.0 += self.uavs;
        meter.open.1 += elapsed;
        self.steps += 1;
        if let Some(t) = &mut meter.traced {
            t.allocs += after.allocations - before.allocations;
            t.heap_growth_bytes += after.live_bytes as i64 - before.live_bytes as i64;
            if let Some(shadow) = &mut self.shadow {
                shadow.tick(s.platform_mut(), &mut t.layers);
            }
            if self.steps.is_multiple_of(SNAPSHOT_EVERY_TICKS) {
                let t0 = Instant::now();
                black_box(s.platform().metrics_snapshot());
                t.snapshot_us.push(t0.elapsed().as_secs_f64() * 1e6);
            }
        }
        now
    }

    /// Ends a segment of `group` (see [`Meter::close_segment`]).
    pub fn close_segment(&mut self, group: usize) {
        self.meter.close_segment(group);
    }

    /// Closes the window, folding the platform's counter deltas in.
    pub fn close(self, platform: &Platform) {
        let Some(t) = &mut self.meter.traced else {
            return;
        };
        let end = Counters::read(platform);
        for (acc, (e, s)) in t
            .phase_us
            .iter_mut()
            .zip(end.phase_us.iter().zip(self.start.phase_us.iter()))
        {
            *acc += e - s;
        }
        t.total_us += end.total_us - self.start.total_us;
        t.evals += end.evals - self.start.evals;
        t.delivered += end.delivered - self.start.delivered;
        t.dropped += end.dropped - self.start.dropped;
        t.cache.0 += end.cache.0 - self.start.cache.0;
        t.cache.1 += end.cache.1 - self.start.cache.1;
        t.sim_s += end.now.since(self.start.now).as_secs_f64();
        if let Some(shadow) = self.shadow {
            shadow.finish(&mut t.layers);
        }
    }
}

fn phase_index(name: &str) -> usize {
    phase::ALL
        .iter()
        .position(|p| *p == name)
        .expect("a phase::ALL entry")
}

/// The catalogue name of a phase's per-tick mean.
fn phase_metric_name(phase_name: &str) -> &'static str {
    crate::report::PER_LAYER
        .iter()
        .map(|(n, _)| *n)
        .find(|n| {
            n.strip_prefix("core.phase.")
                .and_then(|rest| rest.strip_suffix("_us"))
                == Some(phase_name)
        })
        .expect("every phase::ALL entry has a core.phase metric")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A meter holding `segments` as `(group, UAVs, tick µs)`.
    fn meter(segments: &[(usize, u64, Vec<f64>)]) -> Meter {
        let mut m = Meter::new(false, 0);
        for (group, uavs, ticks) in segments {
            m.open = (uavs * ticks.len() as u64, ticks.iter().sum::<f64>() / 1e6);
            m.tick_us.extend(ticks);
            m.close_segment(*group);
        }
        m
    }

    #[test]
    fn a_group_reports_the_median_of_its_segments() {
        let mut m = meter(&[
            (0, 1, (1..=20).map(f64::from).collect()),
            (0, 1, vec![50.0; 30]),
            (0, 1, vec![100.0; 21]),
            // Under 20 ticks: no p50, but a rate.
            (0, 1, vec![1000.0; 5]),
        ]);
        let groups = m.groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].p50, Some(50.0));
        assert_eq!(groups[0].uavs, 1.0);
        // Rates 1e6/10.5, 2e4, 1e4 and 1e3 UAV-ticks/s.
        assert!((groups[0].rate - 15_000.0).abs() < 1e-6);

        assert_eq!(meter(&[(0, 1, vec![1.0; 19])]).groups()[0].p50, None);
    }

    #[test]
    fn groups_count_as_if_they_ran_the_same_ticks() {
        // Group 0: three segments of 100 ticks of 1 UAV at 10 µs, one
        // disturbed. Group 1: three segments of 300 ticks of 4 UAVs at
        // 40 µs. Group 2: one segment of 50 ticks at 30 µs.
        let mut m = meter(&[
            (0, 1, vec![10.0; 100]),
            (1, 4, vec![40.0; 300]),
            (0, 1, vec![10.0; 100]),
            (1, 4, vec![40.0; 300]),
            (0, 1, vec![90.0; 100]),
            (1, 4, vec![40.0; 300]),
            (2, 1, vec![30.0; 50]),
        ]);
        let (p50, rate, groups) = m.over_segments();
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].p50, Some(10.0));
        assert_eq!(groups[1].uavs, 4.0);
        assert_eq!(p50, Some(30.0));
        // One tick of each group: 6 UAV-ticks in 10 + 40 + 30 µs.
        assert!((rate.unwrap() - 6.0 / 80e-6).abs() < 1e-6);
        let (p50, rate, _) = Meter::new(false, 0).over_segments();
        assert_eq!((p50, rate), (None, None));
    }
}
