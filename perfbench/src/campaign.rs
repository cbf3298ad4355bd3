//! `campaign_service`: an in-process `ServerRuntime` (2 workers) behind
//! a loopback `net::Server`, loaded by closed-loop `Client` connections.
//!
//! Each client submits small DSL campaigns and blocks on `WAIT`, as
//! campaign callers do. The campaign is `serverbench`'s soak campaign:
//! the same scenario source, 3 seeds per campaign, runs clamped at
//! 100 ticks. Every [`REPLAY_EVERY`]-th request is instead a `REPLAY`
//! audit of a seed that already completed, so log-backed audits sit
//! beside appends; that ratio is an assumption, not taken from a
//! measured deployment, and the run reports the share of client time
//! it gives to `REPLAY`s. One in-process stream subscriber keeps the
//! fanout and metric-delta path busy and timestamps
//! `RunStarted`/`RunCompleted`. Only this workload exercises the job
//! queue, the run log, the wire protocol and the stream.
//!
//! Set-up is the restart of a runtime on a log of [`FILL_JOBS`]
//! completed one-seed campaigns, up to the first answered `PING` (chain
//! verification and job rebuild included). The log is fixed-size so
//! that set-up time does not grow with the load phase's throughput.

use crate::alloc;
use crate::expected::Expected;
use crate::meter::Meter;
use crate::report::Report;
use crate::stats::{self, median_of_few};
use sesame_core::checkpoint::digest_platform;
use sesame_server::log::read_all;
use sesame_server::{
    Client, JobId, JobSpec, Record, RunLog, Server, ServerConfig, ServerRuntime, StreamEvent,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The campaign scenario, as `serverbench`'s soak submits it: a fleet
/// of 3 over a compact area.
const SCENARIO: &str = "soak_campaign";
const SOURCE: &str = r#"
scenario "soak_campaign" {
    world { area = (80.0, 60.0), persons = 2 }
    mission { deadline = 120s }
}
"#;

/// Deadline clamp of every run: 100 ticks, as in `serverbench`.
const CLAMP_MS: u64 = 10_000;
/// Seeds per campaign, as in `serverbench`'s full soak.
const SEEDS_PER_CAMPAIGN: u64 = 3;
/// Campaign seed ranges cycle through this many slots, so every run has
/// a direct run to be checked against. The run seeds are the same for
/// every benchmark seed, which only rotates the request sequence: the
/// direct runs then time the same work on every run. Coprime to
/// [`REPLAY_EVERY`], so the `REPLAY` requests skip no slot.
const SEED_SLOTS: u64 = 9;
/// Every run seed a campaign can hold.
const RUN_SEEDS: u64 = SEED_SLOTS * SEEDS_PER_CAMPAIGN;
/// Every this-many-th request is a `REPLAY`.
const REPLAY_EVERY: u64 = 8;
const WORKERS: usize = 2;
/// One-seed campaigns in the log that set-up restarts on.
const FILL_JOBS: u64 = 256;
const RESTARTS: usize = 15;
/// The load phase completes at least this many campaigns; the peak heap
/// is read when the last of them completes, so it covers the same work
/// on every run.
const MIN_CAMPAIGNS: u64 = 200;
/// A client stops at this multiple of the time budget, and no earlier
/// than [`HARD_STOP_FLOOR`], even when fewer than [`MIN_CAMPAIGNS`]
/// campaigns completed, so a broken service ends the run with a failure
/// instead of hanging it.
const HARD_STOP: u32 = 3;
const HARD_STOP_FLOOR: Duration = Duration::from_secs(60);
/// A client stops after this many failed requests.
const MAX_CLIENT_FAILURES: usize = 20;

/// The spec of the `k`-th request, when it is a campaign.
fn campaign(seed: u64, k: u64) -> JobSpec {
    let slot = (k + seed) % SEED_SLOTS;
    JobSpec::new(
        SCENARIO,
        SOURCE,
        slot * SEEDS_PER_CAMPAIGN,
        SEEDS_PER_CAMPAIGN,
    )
    .clamp_ms(CLAMP_MS)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        snapshot_every_ticks: 10,
    }
}

/// Passes of direct runs; the second checks the first.
const DIRECT_PASSES: usize = 2;

/// Direct runs of every seed the load can submit: the reference
/// digests, the UAV count, and compile timings.
struct Direct {
    digests: HashMap<u64, u64>,
    uavs: u64,
    compile_us: Vec<f64>,
}

fn direct_runs(report: &mut Report, expected: &Expected, meter: &mut Meter) -> Direct {
    let mut direct = Direct {
        digests: HashMap::new(),
        uavs: 0,
        compile_us: Vec::new(),
    };
    let spec = campaign(0, 0);
    for pass in 0..DIRECT_PASSES {
        for run_seed in 0..RUN_SEEDS {
            let t = Instant::now();
            let compiled = match spec.compile() {
                Ok(c) => c,
                Err(e) => {
                    report.fail(format!("{SCENARIO} does not compile: {e}"));
                    return direct;
                }
            };
            direct.compile_us.push(t.elapsed().as_secs_f64() * 1e6);
            let builder = compiled.builder(run_seed);
            let config = builder.config().clone();
            let mut scenario = builder.build();
            scenario.launch();
            let mut window = meter.window(scenario.platform(), &config);
            let mut now = scenario.platform().now();
            while !scenario.should_stop(now) {
                now = window.step(&mut scenario);
            }
            window.close(scenario.platform());
            let digest = digest_platform(scenario.platform());
            direct.uavs = scenario.platform().uav_count() as u64;
            if pass == 0 {
                expected.check(report, "campaign_service", SCENARIO, run_seed, digest);
                direct.digests.insert(run_seed, digest);
            } else if direct.digests.get(&run_seed) != Some(&digest) {
                report.fail(format!(
                    "{SCENARIO} seed {run_seed}: direct pass {pass} gave digest {digest:#018x}"
                ));
            }
        }
    }
    direct
}

/// State the client threads share.
struct Shared {
    seed: u64,
    next_request: AtomicU64,
    campaigns_done: AtomicU64,
    /// Completed `(job, seed)` pairs a `REPLAY` can audit.
    replayable: Mutex<Vec<(JobId, u64)>>,
    /// Submit instant of every job.
    jobs: Mutex<HashMap<u64, Instant>>,
    peak_bytes: Mutex<Option<usize>>,
}

#[derive(Default)]
struct ClientLog {
    campaign_ms: Vec<f64>,
    replay_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
}

/// One closed-loop client, sending until `budget` has passed since
/// `start` and [`MIN_CAMPAIGNS`] campaigns are done, or until
/// [`HARD_STOP`] budgets have passed or [`MAX_CLIENT_FAILURES`]
/// requests failed.
fn client_loop(addr: SocketAddr, shared: &Shared, start: Instant, budget: Duration) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.attempted += 1;
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    loop {
        let elapsed = start.elapsed();
        let enough = shared.campaigns_done.load(Ordering::Relaxed) >= MIN_CAMPAIGNS;
        if (elapsed >= budget && enough)
            || elapsed >= (budget * HARD_STOP).max(HARD_STOP_FLOOR)
            || log.failures.len() >= MAX_CLIENT_FAILURES
        {
            return log;
        }
        let k = shared.next_request.fetch_add(1, Ordering::Relaxed);
        log.attempted += 1;
        if k % REPLAY_EVERY == REPLAY_EVERY - 1 {
            let target = {
                let done = shared
                    .replayable
                    .lock()
                    .expect("no client panics holding it");
                (!done.is_empty()).then(|| done[(k / REPLAY_EVERY) as usize % done.len()])
            };
            if let Some((job, seed)) = target {
                let t = Instant::now();
                match client.replay(job, seed) {
                    Ok(true) => log.replay_ms.push(t.elapsed().as_secs_f64() * 1e3),
                    Ok(false) => log
                        .failures
                        .push(format!("replay of {job} seed {seed} mismatched")),
                    Err(e) => log
                        .failures
                        .push(format!("replay of {job} seed {seed}: {e}")),
                }
                continue;
            }
        }
        let spec = campaign(shared.seed, k);
        let t = Instant::now();
        let id = match client.submit(&spec) {
            Ok(id) => id,
            Err(e) => {
                log.failures.push(format!("submit: {e}"));
                continue;
            }
        };
        shared
            .jobs
            .lock()
            .expect("no client panics holding it")
            .insert(id.0, t);
        match client.wait(id) {
            Ok(status) if status.is_completed() && status.completed_runs == SEEDS_PER_CAMPAIGN => {
                log.campaign_ms.push(t.elapsed().as_secs_f64() * 1e3);
                shared
                    .replayable
                    .lock()
                    .expect("no client panics holding it")
                    .extend(spec.seeds().map(|s| (id, s)));
                let done = shared.campaigns_done.fetch_add(1, Ordering::Relaxed) + 1;
                if done == MIN_CAMPAIGNS {
                    *shared
                        .peak_bytes
                        .lock()
                        .expect("no client panics holding it") = Some(alloc::reading().peak_bytes);
                }
            }
            Ok(status) => log
                .failures
                .push(format!("incomplete campaign: {}", status.line)),
            Err(e) => log.failures.push(format!("wait {id}: {e}")),
        }
    }
}

/// Runs `clients` client threads for `budget`, merging their logs.
fn drive(addr: SocketAddr, shared: &Shared, clients: usize, budget: Duration) -> ClientLog {
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(|| client_loop(addr, shared, start, budget)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut merged = ClientLog::default();
    for mut log in logs {
        merged.campaign_ms.append(&mut log.campaign_ms);
        merged.replay_ms.append(&mut log.replay_ms);
        merged.attempted += log.attempted;
        merged.failures.append(&mut log.failures);
    }
    merged
}

/// What the stream subscriber saw during the load phase.
#[derive(Default)]
struct StreamLog {
    started: HashMap<(u64, u64), Instant>,
    /// `(job, seed, ticks, digest, at)` per `RunCompleted`.
    completed: Vec<(u64, u64, u64, u64, Instant)>,
    other_events: u64,
}

fn subscribe(rt: &ServerRuntime, stop: Arc<AtomicBool>) -> std::thread::JoinHandle<StreamLog> {
    let rx = rt.subscribe(None);
    std::thread::spawn(move || {
        let mut log = StreamLog::default();
        loop {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(event) => match &*event {
                    StreamEvent::RunStarted { job, seed } => {
                        log.started.insert((job.0, *seed), Instant::now());
                    }
                    StreamEvent::RunCompleted {
                        job,
                        seed,
                        ticks,
                        digest,
                        ..
                    } => log
                        .completed
                        .push((job.0, *seed, *ticks, *digest, Instant::now())),
                    _ => log.other_events += 1,
                },
                Err(RecvTimeoutError::Timeout) if stop.load(Ordering::Acquire) => return log,
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return log,
            }
        }
    })
}

/// Writes [`FILL_JOBS`] completed one-seed campaigns to a fresh log
/// through an in-process runtime; returns their `(job, seed)` pairs.
fn fill_log(path: &Path, seed: u64) -> Result<Vec<(JobId, u64)>, String> {
    let rt = ServerRuntime::start(path, server_config()).map_err(|e| e.to_string())?;
    let mut jobs = Vec::new();
    for k in 0..FILL_JOBS {
        let one = (seed + k) % RUN_SEEDS;
        let spec = JobSpec::new(SCENARIO, SOURCE, one, 1).clamp_ms(CLAMP_MS);
        jobs.push((rt.submit(spec).map_err(|e| e.to_string())?, one));
    }
    rt.drain_and_shutdown();
    for &(job, _) in &jobs {
        let status = rt.status(job).map_err(|e| e.to_string())?;
        if status.completed_runs != 1 {
            return Err(format!("{job} did not complete: {}", status.render_line()));
        }
    }
    Ok(jobs)
}

/// A runtime and its listener.
struct Service {
    rt: ServerRuntime,
    server: Server,
}

impl Service {
    fn start(log: &Path) -> Result<Service, String> {
        let rt = ServerRuntime::start(log, server_config()).map_err(|e| e.to_string())?;
        let server = Server::bind(rt.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
        Ok(Service { rt, server })
    }

    fn stop(mut self) {
        self.server.stop();
        self.rt.shutdown();
    }
}

/// Checks every run the log holds against the direct runs and every job
/// for completion; the open itself re-verifies the whole digest chain.
fn verify_log(path: &Path, direct: &Direct, report: &mut Report) -> u64 {
    report.attempted += 1;
    let records = match RunLog::open(path) {
        Ok((_, records)) => records,
        Err(e) => {
            report.fail(format!("run log does not re-verify: {e}"));
            return 0;
        }
    };
    let mut seeds_of = HashMap::new();
    let mut runs_of: HashMap<u64, u64> = HashMap::new();
    let mut finished = Vec::new();
    let mut runs = 0;
    for record in &records {
        match record {
            Record::JobSubmitted {
                job,
                name,
                seed_count,
                ..
            } => {
                seeds_of.insert(*job, *seed_count);
                if name != SCENARIO {
                    report.fail(format!("job-{job}: unknown scenario {name}"));
                }
            }
            Record::RunCompleted {
                job, seed, digest, ..
            } => {
                runs += 1;
                *runs_of.entry(*job).or_default() += 1;
                let want = direct.digests.get(seed);
                if want != Some(digest) {
                    report.fail(format!(
                        "job-{job} seed {seed}: logged digest {digest:#018x}, direct run {want:?}"
                    ));
                }
            }
            Record::JobFinished { job } => finished.push(*job),
        }
    }
    for (job, seeds) in &seeds_of {
        if runs_of.get(job) != Some(seeds) || !finished.contains(job) {
            report.fail(format!("job-{job} did not finish all its runs in the log"));
        }
    }
    runs
}

/// Sets a catalogue metric to the median of `values` (or withholds it).
fn set_median(report: &mut Report, name: &'static str, values: &mut [f64]) {
    let n = values.len() as u64;
    let median = stats::median(values);
    report.set_opt(name, median, n);
}

/// Runs the workload.
pub fn run(seed: u64, seconds: u64, report: &mut Report, expected: &Expected) {
    alloc::reset_peak();
    let dir = PathBuf::from(".perfbench").join(format!("campaign-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.fail(format!("cannot create {}: {e}", dir.display()));
        return;
    }
    run_in(&dir, seed, seconds, report, expected);
    let _ = std::fs::remove_dir_all(&dir);
}

fn run_in(dir: &Path, seed: u64, seconds: u64, report: &mut Report, expected: &Expected) {
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);
    report.meta_int("clients", clients as u64);
    report.meta_int("workers", WORKERS as u64);

    let mut meter = Meter::new(report.traced(), 4096);
    let mut direct = direct_runs(report, expected, &mut meter);
    meter.report_layers(report);
    set_median(report, "server.job.compile_us", &mut direct.compile_us);
    if report.failed() > 0 {
        return;
    }

    // A fixed log of completed one-seed campaigns, written in-process.
    let log_path = dir.join("campaigns.runlog");
    let replayable = match fill_log(&log_path, seed) {
        Ok(r) => r,
        Err(e) => {
            report.fail(format!("filling the run log: {e}"));
            return;
        }
    };
    report.attempted += FILL_JOBS;

    // The filled log, measured and restarted on.
    let mut open_ms: Vec<f64> = (0..RESTARTS)
        .map(|_| {
            let t = Instant::now();
            let opened = RunLog::open(&log_path).map(|(_, records)| records.len());
            let ms = t.elapsed().as_secs_f64() * 1e3;
            if let Err(e) = opened {
                report.fail(format!("the filled log does not open: {e}"));
            }
            ms
        })
        .collect();
    report.set(
        "server.log.open_ms",
        median_of_few(&mut open_ms),
        RESTARTS as u64,
    );
    let log_bytes = std::fs::metadata(&log_path).map_or(0, |m| m.len());
    let fill_runs = read_all(&log_path).map_or(0, |records| {
        records
            .iter()
            .filter(|r| matches!(r, Record::RunCompleted { .. }))
            .count()
    });
    report.set(
        "server.log.bytes_per_run",
        log_bytes as f64 / fill_runs.max(1) as f64,
        fill_runs as u64,
    );

    let mut setup_s = Vec::with_capacity(RESTARTS);
    let mut service = None;
    for round in 0..RESTARTS {
        if let Some(s) = service.take() {
            Service::stop(s);
        }
        let t = Instant::now();
        let started = Service::start(&log_path).and_then(|s| {
            let mut client = Client::connect(s.server.addr()).map_err(|e| e.to_string())?;
            client.ping()?;
            Ok(s)
        });
        setup_s.push(t.elapsed().as_secs_f64());
        match started {
            Ok(s) => service = Some(s),
            Err(e) => {
                report.fail(format!("restart {round}: {e}"));
                return;
            }
        }
    }
    report.set("setup_s", median_of_few(&mut setup_s), RESTARTS as u64);
    let service = service.expect("at least one restart");

    // Load.
    let stop = Arc::new(AtomicBool::new(false));
    let subscriber = subscribe(&service.rt, Arc::clone(&stop));
    let shared = Shared {
        seed,
        next_request: AtomicU64::new(0),
        campaigns_done: AtomicU64::new(0),
        replayable: Mutex::new(replayable),
        jobs: Mutex::new(HashMap::new()),
        peak_bytes: Mutex::new(None),
    };
    let started = Instant::now();
    let mut load = drive(
        service.server.addr(),
        &shared,
        clients,
        Duration::from_secs(seconds),
    );
    let load_s = started.elapsed().as_secs_f64();
    let (_, stream_dropped) = service.rt.stream_counters();
    service.stop();
    stop.store(true, Ordering::Release);
    let stream = subscriber.join().expect("the subscriber thread panicked");
    report.attempted += load.attempted;
    for f in std::mem::take(&mut load.failures) {
        report.fail(f);
    }
    let campaigns_done = shared.campaigns_done.load(Ordering::Relaxed);
    if campaigns_done < MIN_CAMPAIGNS {
        report.fail(format!(
            "only {campaigns_done} of the {MIN_CAMPAIGNS} campaigns the load needs completed"
        ));
    }

    // Runs as the stream saw them.
    let jobs = shared
        .jobs
        .into_inner()
        .expect("no client panics holding it");
    let mut tick_us = Vec::with_capacity(stream.completed.len());
    let mut run_ms = Vec::with_capacity(stream.completed.len());
    let mut uav_ticks = 0u64;
    for &(job, seed, ticks, digest, at) in &stream.completed {
        if !jobs.contains_key(&job) {
            report.fail(format!(
                "job-{job}: completed a run the clients never submitted"
            ));
            continue;
        }
        if direct.digests.get(&seed) != Some(&digest) {
            report.fail(format!(
                "job-{job} seed {seed}: streamed digest {digest:#018x} \
                                 differs from the direct run"
            ));
        }
        uav_ticks += ticks * direct.uavs;
        if let Some(begin) = stream.started.get(&(job, seed)) {
            let span = at.duration_since(*begin).as_secs_f64();
            run_ms.push(span * 1e3);
            tick_us.push(span * 1e6 / ticks.max(1) as f64);
        }
    }
    let mut first_start: HashMap<u64, Instant> = HashMap::new();
    for (&(job, _), &at) in &stream.started {
        let slot = first_start.entry(job).or_insert(at);
        *slot = (*slot).min(at);
    }
    let mut queue_wait_ms: Vec<f64> = first_start
        .iter()
        .filter_map(|(job, at)| {
            jobs.get(job)
                .map(|submit| at.saturating_duration_since(*submit))
        })
        .map(|d| d.as_secs_f64() * 1e3)
        .collect();

    let n_runs = stream.completed.len() as u64;
    let timed_runs = tick_us.len() as u64;
    let p50 = stats::median(&mut tick_us);
    report.set_opt("tick_p50_us", p50, timed_runs);
    report.set_opt("core.tick_p50_traced_us", p50, timed_runs);
    if let Some(p99) = stats::percentile(&mut tick_us, 0.99) {
        report.extra("tick_p99_us", p99, "us", timed_runs);
    }
    report.set("uav_ticks_per_s", uav_ticks as f64 / load_s, n_runs);
    let peak = shared
        .peak_bytes
        .into_inner()
        .expect("no client panics holding it")
        .unwrap_or_else(|| alloc::reading().peak_bytes);
    report.set("peak_heap_mb", peak as f64 / 1e6, 1);
    set_median(report, "server.run_ms", &mut run_ms);
    set_median(report, "server.queue_wait_ms", &mut queue_wait_ms);
    let streamed =
        stream.started.len() as u64 + stream.completed.len() as u64 + stream.other_events;
    report.set("server.stream.dropped", stream_dropped as f64, streamed);

    let campaigns = load.campaign_ms.len() as u64;
    let replays = load.replay_ms.len() as u64;
    if let Some(v) = stats::median(&mut load.campaign_ms) {
        report.extra("campaign_p50_ms", v, "ms", campaigns);
    }
    // The campaign tail at the highest percentile the count supports.
    if let Some(q) = stats::highest_reportable(load.campaign_ms.len(), &[0.9, 0.99]) {
        if let Some(v) = stats::percentile(&mut load.campaign_ms, q) {
            let name = format!("campaign_p{}_ms", (q * 100.0).round());
            report.extra(&name, v, "ms", campaigns);
        }
    }
    if let Some(v) = stats::median(&mut load.replay_ms) {
        report.extra("replay_p50_ms", v, "ms", replays);
    }
    // How much of the clients' time the assumed REPLAY ratio buys.
    let replay_total: f64 = load.replay_ms.iter().sum();
    let campaign_total: f64 = load.campaign_ms.iter().sum();
    report.extra(
        "replay_time_share",
        replay_total / (replay_total + campaign_total).max(f64::MIN_POSITIVE),
        "ratio",
        replays + campaigns,
    );
    report.extra("runs_per_s", n_runs as f64 / load_s, "1/s", n_runs);

    // The finished log: re-verified, re-appended and re-read.
    let logged_runs = verify_log(&log_path, &direct, report);
    report.meta_int("timed_campaigns", campaigns as u64);
    report.meta_int("timed_replays", replays as u64);
    report.meta_int("logged_runs", logged_runs);
    let records = read_all(&log_path).unwrap_or_default();
    let mut read_ms: Vec<f64> = (0..RESTARTS)
        .map(|_| {
            let t = Instant::now();
            let n = read_all(&log_path).map_or(0, |r| r.len());
            std::hint::black_box(n);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.set(
        "server.replay.read_all_ms",
        median_of_few(&mut read_ms),
        RESTARTS as u64,
    );
    match RunLog::create(dir.join("reappend.runlog")) {
        Ok(mut fresh) => {
            let mut append_us: Vec<f64> = records
                .iter()
                .map(|r| {
                    let t = Instant::now();
                    let appended = fresh.append(r);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    if let Err(e) = appended {
                        report.fail(format!("re-append: {e}"));
                    }
                    us
                })
                .collect();
            set_median(report, "server.log.append_us", &mut append_us);
        }
        Err(e) => report.fail(format!("cannot create the re-append log: {e}")),
    }
}
