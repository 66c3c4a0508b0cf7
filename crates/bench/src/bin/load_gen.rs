//! `load_gen` — multi-tenant ingestion load generator for `rpr-serve`.
//!
//! Simulates fleets of bursty camera clients streaming `.rpr`
//! containers at one event-loop server over the in-memory transport,
//! and reports the serving metrics that matter at fleet scale:
//! sessions/s, ingest MB/s, accept→deliver latency percentiles, and
//! per-tenant drop rates under overload.
//!
//! ```text
//! load_gen smoke     [--clients N] [--out FILE]
//! load_gen bench     [--clients N] [--frames N] [--out FILE]
//! load_gen overload  [--clients N] [--out FILE]
//! load_gen telemetry [--clients N] [--out FILE]
//! load_gen breach    [--clients N] [--out FILE]
//! ```
//!
//! Every mode writes a `BenchRecord`. `smoke` is the CI gate: a fixed
//! 64-client, two-tenant schedule on a [`ManualClock`], so two runs
//! produce byte-identical records (the `RunReport` embedded, its
//! accuracy, per-tenant delivered fraction gated) — checked against
//! `ci/baseline_serve_smoke.json` with `rpr-report gate`. `bench` runs
//! ≥1k concurrent clients on the wall clock and writes
//! `BENCH_serve.json` (`load.*` metrics, plus `overload.*` from the
//! `overload` scenario, which pits a quota-busting tenant against a
//! compliant one and exits non-zero unless the hog throttles itself).
//!
//! `telemetry` is the live-observability gate: the same deterministic
//! fleet with per-tenant SLOs, scraped by a [`ScrapeClient`]
//! *mid-flight* — the Prometheus page must show non-zero per-tenant
//! counters that never exceed final accounting — and emitting a record
//! with `slo.<tenant>.burn_rate` and `.breaches` gated against
//! `ci/baseline_telemetry.json`. `breach` is its negative check: the
//! same schedule with one tenant's quota zeroed so its SLO burn rate
//! breaches, which must fire the flight recorder (a valid Chrome trace
//! dump) and move `slo.fleet-b.breaches` off zero — CI asserts that
//! `rpr-report gate` fails this record on that metric.

use rpr_bench::record::{BenchRecord, Metric, MODEL_BOUND, TIMING_BOUND};
use rpr_core::{EncMask, EncodedFrame, FrameMetadata, PixelStatus};
use rpr_serve::{
    session_script, Clock, ManualClock, ScrapeClient, ScriptedClient, Server, SloConfig,
    SystemClock, TenantConfig,
};
use rpr_stream::BackpressureMode;
use rpr_trace::{RunReport, REPORT_SCHEMA_VERSION};
use std::collections::BTreeMap;
use std::sync::Arc;

fn frames(n: u64, salt: u64, payload_len: usize) -> Vec<EncodedFrame> {
    // One payload byte per Regional pixel: size the mask to the payload.
    let len = payload_len.max(1) as u32;
    let width = 64u32;
    let height = len.div_ceil(width);
    (0..n)
        .map(|i| {
            let mut mask = EncMask::new(width, height);
            for idx in 0..len {
                mask.set(idx % width, idx / width, PixelStatus::Regional);
            }
            let payload = vec![(i + salt) as u8; len as usize];
            EncodedFrame::new(width, height, i, payload, FrameMetadata::from_mask(mask))
        })
        .collect()
}

/// One planned camera session: which tenant it bills to and at which
/// step of the drive loop it connects (burst waves).
struct Plan {
    tenant: String,
    start_step: u64,
    script: Vec<u8>,
}

/// Everything one drive run produced.
struct LoadOutcome {
    steps: u64,
    wall_s: f64,
    peak_open_sessions: usize,
    delivered: u64,
    latencies_us: Vec<u64>,
}

fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[rank.min(sorted_us.len() - 1)]
}

/// Drives `plans` against `server` until everything drains. Clients
/// connect at their planned step (bursts), flush under transport
/// backpressure, and every tenant queue is drained each step, with
/// accept→pop latency read off the server's own clock.
fn drive(
    server: &mut Server,
    clock: &Arc<dyn Clock>,
    manual: Option<(&ManualClock, u64)>,
    mut plans: Vec<Plan>,
    ring: usize,
) -> LoadOutcome {
    plans.sort_by_key(|p| p.start_step);
    let listener = server.listener();
    let tenants: Vec<String> = {
        let mut t: Vec<String> = plans.iter().map(|p| p.tenant.clone()).collect();
        t.sort();
        t.dedup();
        t
    };
    let queues: Vec<_> = tenants
        .iter()
        .map(|t| server.tenant_queue(t).expect("tenant registered"))
        .collect();

    let started = std::time::Instant::now();
    let mut active: Vec<ScriptedClient> = Vec::new();
    let mut next_plan = 0usize;
    let mut outcome = LoadOutcome {
        steps: 0,
        wall_s: 0.0,
        peak_open_sessions: 0,
        delivered: 0,
        latencies_us: Vec::new(),
    };

    for step in 0..50_000_000u64 {
        outcome.steps = step + 1;
        while next_plan < plans.len() && plans[next_plan].start_step <= step {
            let plan = &plans[next_plan];
            active.push(ScriptedClient::connect(&listener, ring, plan.script.clone()));
            next_plan += 1;
        }
        for c in active.iter_mut() {
            c.flush();
        }
        server.step();
        outcome.peak_open_sessions = outcome.peak_open_sessions.max(server.open_sessions());
        let now = clock.now_micros();
        for q in &queues {
            while let Some(d) = q.try_pop() {
                outcome.delivered += 1;
                outcome.latencies_us.push(now.saturating_sub(d.accepted_micros));
            }
        }
        if let Some((m, advance)) = manual {
            m.advance(advance);
        }
        if next_plan >= plans.len()
            && server.is_idle()
            && active.iter_mut().all(|c| c.done() || c.rejected())
        {
            break;
        }
    }
    server.close_tenant_queues();
    outcome.wall_s = started.elapsed().as_secs_f64();
    outcome.latencies_us.sort_unstable();
    outcome
}

/// Burst-wave plans: `clients` cameras split round-robin over
/// `tenants`, connecting in waves of `wave_size` every `wave_gap`
/// steps, each streaming `n_frames` frames of `payload_len` bytes.
fn make_plans(
    clients: u64,
    tenants: &[&str],
    n_frames: u64,
    payload_len: usize,
    chunk: usize,
    wave_size: u64,
    wave_gap: u64,
) -> Vec<Plan> {
    (0..clients)
        .map(|i| {
            let tenant = tenants[(i % tenants.len() as u64) as usize].to_string();
            let body = rpr_wire::write_container(&frames(n_frames, i, payload_len))
                .expect("container writes");
            let script = session_script(&tenant, i, &body, chunk, true);
            Plan { tenant, start_step: (i / wave_size.max(1)) * wave_gap, script }
        })
        .collect()
}

/// The deterministic CI gate: 64 clients, two tenants (one of them
/// frame-quota-limited so the throttle path is always exercised), a
/// manual clock — emits a `RunReport` stable across runs and machines.
fn smoke(clients: u64, out: Option<String>) {
    let manual = ManualClock::new();
    let clock: Arc<dyn Clock> = Arc::new(manual.clone());
    let mut server = Server::new(Arc::clone(&clock)).with_read_quantum(4096);
    server.add_tenant(
        "fleet-a",
        TenantConfig::unlimited().with_qos(BackpressureMode::Block, 64),
    );
    // fleet-b gets a hard frame budget: its cameras collectively send
    // more than the bucket holds, so quota throttling is part of the
    // gated baseline, not an untested path.
    server.add_tenant(
        "fleet-b",
        TenantConfig::unlimited()
            .with_frame_quota(0, 3 * clients / 2)
            .with_qos(BackpressureMode::Block, 64),
    );

    let plans = make_plans(clients, &["fleet-a", "fleet-b"], 6, 24, 256, 8, 3);
    let outcome = drive(&mut server, &clock, Some((&manual, 200)), plans, 1 << 14);

    let sections = server.tenant_sections();
    let stats = server.stats();
    let accepted: u64 = sections.iter().map(|s| s.frames_accepted).sum();
    let delivered: u64 = sections.iter().map(|s| s.frames_delivered).sum();

    let mut accuracy = BTreeMap::new();
    accuracy.insert("sessions_admitted".to_string(), stats.sessions_clean as f64);
    accuracy.insert("frames_delivered".to_string(), delivered as f64);
    accuracy.insert(
        "delivered_fraction".to_string(),
        if accepted == 0 { 1.0 } else { delivered as f64 / accepted as f64 },
    );

    let report = RunReport {
        schema_version: REPORT_SCHEMA_VERSION,
        task: "serve_smoke".to_string(),
        dataset: format!("{clients} cameras x 6 frames, 2 tenants"),
        baseline: "serve".to_string(),
        frames: delivered,
        fps: 0.0,
        accuracy,
        tenants: sections,
        ..RunReport::default()
    };
    print!("{}", report.render_text());
    println!(
        "smoke: {} steps  {} delivered  peak {} open sessions",
        outcome.steps, outcome.delivered, outcome.peak_open_sessions
    );
    if out.is_some() {
        BenchRecord::from_report(report).emit(out.as_deref());
    }
}

/// Pulls `family{tenant="..."}` off a Prometheus exposition page.
fn scraped_counter(page: &str, family: &str, tenant: &str) -> Option<u64> {
    let prefix = format!("{family}{{tenant=\"{tenant}\"}} ");
    page.lines().find_map(|l| l.strip_prefix(prefix.as_str())).and_then(|v| v.parse().ok())
}

/// The shared deterministic telemetry fleet: two SLO-tracked tenants on
/// a manual clock, `fleet-b` under a frame quota (`fleet_b_burst`
/// frames). Drives to drain with a mid-flight scrape, records every
/// popped delivery into the tenant's live histogram/SLO tracker, and
/// returns the scraped page plus the periodic live-report count.
fn drive_telemetry(
    server: &mut Server,
    manual: &ManualClock,
    clock: &Arc<dyn Clock>,
    plans: Vec<Plan>,
    tenants: &[&str],
) -> (Option<String>, u64, u64) {
    let listener = server.listener();
    let queues: Vec<_> = tenants
        .iter()
        .map(|t| server.tenant_queue(t).expect("tenant registered"))
        .collect();
    let lives: Vec<_> = tenants
        .iter()
        .map(|t| server.tenant_live(t).expect("tenant live handle"))
        .collect();

    let mut plans = plans;
    plans.sort_by_key(|p| p.start_step);
    let mut active: Vec<ScriptedClient> = Vec::new();
    let mut next_plan = 0usize;
    let mut delivered = 0u64;
    let mut scraper: Option<ScrapeClient> = None;
    let mut page: Option<String> = None;
    let mut live_reports = 0u64;

    for step in 0..50_000_000u64 {
        while next_plan < plans.len() && plans[next_plan].start_step <= step {
            active.push(ScriptedClient::connect(&listener, 1 << 14, plans[next_plan].script.clone()));
            next_plan += 1;
        }
        for c in active.iter_mut() {
            c.flush();
        }
        server.step();
        let now = clock.now_micros();
        for (q, live) in queues.iter().zip(&lives) {
            while let Some(d) = q.try_pop() {
                delivered += 1;
                live.record_delivery(now, now.saturating_sub(d.ctx.ingest_micros));
            }
        }
        if server.poll_report().is_some() {
            live_reports += 1;
        }
        // Scrape mid-flight, deterministically: the step after the
        // first delivery, while sessions are still streaming.
        if scraper.is_none() && delivered > 0 {
            scraper = Some(ScrapeClient::connect(&listener, 1 << 16, tenants[0], u64::MAX));
        }
        if let Some(s) = scraper.as_mut() {
            if page.is_none() {
                page = s.poll().map(str::to_string);
            }
        }
        manual.advance(200);
        if next_plan >= plans.len()
            && server.is_idle()
            && page.is_some()
            && active.iter_mut().all(|c| c.done() || c.rejected())
        {
            break;
        }
    }
    server.close_tenant_queues();
    (page, delivered, live_reports)
}

/// Builds the telemetry fleet's server + plans. `fleet_b_burst` is the
/// frame-quota burst for `fleet-b` (zero = the breach scenario).
fn telemetry_fleet(clients: u64, fleet_b_burst: u64) -> (ManualClock, Arc<dyn Clock>, Server, Vec<Plan>) {
    let manual = ManualClock::new();
    let clock: Arc<dyn Clock> = Arc::new(manual.clone());
    let mut server = Server::new(Arc::clone(&clock))
        .with_read_quantum(4096)
        .with_report_interval(1_000);
    // A budget wide enough that quota throttling burns budget visibly
    // without breaching in the healthy run; the breach run (burst 0)
    // turns every fleet-b frame into a bad event and blows through it.
    let slo = SloConfig {
        target_delivery_us: 10_000,
        budget_fraction: 0.75,
        window_micros: 1_000_000,
        min_events: 16,
    };
    server.add_tenant(
        "fleet-a",
        TenantConfig::unlimited().with_qos(BackpressureMode::Block, 64).with_slo(slo),
    );
    server.add_tenant(
        "fleet-b",
        TenantConfig::unlimited()
            .with_frame_quota(0, fleet_b_burst)
            .with_qos(BackpressureMode::Block, 64)
            .with_slo(slo),
    );
    let plans = make_plans(clients, &["fleet-a", "fleet-b"], 6, 24, 256, 8, 3);
    (manual, clock, server, plans)
}

/// Builds the telemetry-gate `RunReport` (tenant sections + SLOs).
fn telemetry_report(server: &Server, clients: u64, delivered: u64, task: &str) -> RunReport {
    let sections = server.tenant_sections();
    let stats = server.stats();
    let mut accuracy = BTreeMap::new();
    accuracy.insert("sessions_admitted".to_string(), stats.sessions_clean as f64);
    accuracy.insert("frames_delivered".to_string(), delivered as f64);
    RunReport {
        schema_version: REPORT_SCHEMA_VERSION,
        task: task.to_string(),
        dataset: format!("{clients} cameras x 6 frames, 2 slo tenants"),
        baseline: "serve".to_string(),
        frames: delivered,
        fps: 0.0,
        accuracy,
        tenants: sections,
        slos: Some(server.slo_sections()),
        ..RunReport::default()
    }
}

/// The live-observability CI gate: scrape the fleet mid-flight, check
/// the page against final accounting, and emit the SLO-bearing report.
fn telemetry(clients: u64, out: Option<String>) {
    let (manual, clock, mut server, plans) = telemetry_fleet(clients, 3 * clients / 2);
    let (page, delivered, live_reports) =
        drive_telemetry(&mut server, &manual, &clock, plans, &["fleet-a", "fleet-b"]);

    let Some(page) = page else {
        eprintln!("telemetry FAILED: scrape never completed");
        std::process::exit(1);
    };
    // Mid-flight consistency: the scraped counters are non-zero (the
    // scrape happened after ingest started) and never exceed final
    // accounting (snapshots are prefixes of the final totals).
    let mut scraped_any = 0u64;
    for s in server.tenant_sections() {
        let snap = scraped_counter(&page, "rpr_frames_accepted_total", &s.tenant).unwrap_or(0);
        if snap > s.frames_accepted {
            eprintln!(
                "telemetry FAILED: scraped {snap} accepted for {} > final {}",
                s.tenant, s.frames_accepted
            );
            std::process::exit(1);
        }
        scraped_any += snap;
    }
    if scraped_any == 0 {
        eprintln!("telemetry FAILED: mid-flight scrape saw zero accepted frames");
        std::process::exit(1);
    }
    if !page.contains("rpr_slo_burn_rate{tenant=\"fleet-b\"}") {
        eprintln!("telemetry FAILED: exposition page is missing the SLO gauge");
        std::process::exit(1);
    }
    let sections = server.slo_sections();
    if sections.iter().any(|s| s.breaches > 0) {
        eprintln!("telemetry FAILED: healthy run breached an SLO: {sections:?}");
        std::process::exit(1);
    }
    if live_reports == 0 {
        eprintln!("telemetry FAILED: periodic live-report emitter never fired");
        std::process::exit(1);
    }

    let report = telemetry_report(&server, clients, delivered, "serve_telemetry");
    print!("{}", report.render_text());
    println!(
        "telemetry: {delivered} delivered  {live_reports} live reports  scrape saw {scraped_any} accepted mid-flight"
    );
    if out.is_some() {
        BenchRecord::from_report(report).emit(out.as_deref());
    }
}

/// The injected-breach negative check: same fleet, `fleet-b` quota
/// zeroed. Every fleet-b frame becomes a bad SLO event, the burn rate
/// crosses 1.0, and the flight recorder must dump a valid Chrome trace.
/// The emitted record's `slo.fleet-b.breaches` moves off the baseline's
/// zero, so `rpr-report gate` against `ci/baseline_telemetry.json` must
/// fail — CI asserts both.
fn breach(clients: u64, out: Option<String>, dump_out: Option<String>) {
    let (manual, clock, mut server, plans) = telemetry_fleet(clients, 0);
    let (_, delivered, _) =
        drive_telemetry(&mut server, &manual, &clock, plans, &["fleet-a", "fleet-b"]);

    let sections = server.slo_sections();
    let b = sections.iter().find(|s| s.tenant == "fleet-b");
    if !b.is_some_and(|s| s.breaches > 0 && s.burn_rate >= 1.0) {
        eprintln!("breach FAILED: zero-quota tenant never breached: {sections:?}");
        std::process::exit(1);
    }
    let Some(dump) = server.take_flight_dump() else {
        eprintln!("breach FAILED: SLO breach did not fire the flight recorder");
        std::process::exit(1);
    };
    if serde_json::from_str::<serde_json::Value>(&dump).is_err()
        || !dump.contains("\"traceEvents\"")
    {
        eprintln!("breach FAILED: flight dump is not a valid Chrome trace");
        std::process::exit(1);
    }
    if let Some(path) = dump_out {
        if let Err(e) = std::fs::write(&path, &dump) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!("wrote flight dump to {path}");
    }

    let report = telemetry_report(&server, clients, delivered, "serve_telemetry");
    println!(
        "breach: flight recorder fired ({} bytes), fleet-b burn {:.2}, {} breach(es)",
        dump.len(),
        b.map(|s| s.burn_rate).unwrap_or(0.0),
        b.map(|s| s.breaches).unwrap_or(0),
    );
    if out.is_some() {
        BenchRecord::from_report(report).emit(out.as_deref());
    }
}

/// Wall-clock load: `clients` concurrent bursty cameras over four
/// tenants. Returns the `load.*` metrics of `BENCH_serve.json`.
fn bench_load(clients: u64, n_frames: u64) -> Vec<Metric> {
    let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
    // A modest read quantum keeps each session alive across many steps,
    // so the whole fleet is genuinely concurrent rather than serialized
    // one session per step.
    let mut server = Server::new(Arc::clone(&clock)).with_read_quantum(2048);
    let tenants = ["fleet-a", "fleet-b", "fleet-c", "fleet-d"];
    for t in tenants {
        server.add_tenant(t, TenantConfig::unlimited().with_qos(BackpressureMode::Block, 4096));
    }
    // Big bursts every step: the fleet is fully connected within a few
    // steps, long before the first sessions drain.
    let wave = (clients / 4).max(1);
    let plans = make_plans(clients, &tenants, n_frames, 4096, 1024, wave, 1);
    let outcome = drive(&mut server, &clock, None, plans, 1 << 15);

    let sections = server.tenant_sections();
    let stats = server.stats();
    let bytes: u64 = sections.iter().map(|s| s.bytes_ingested).sum();
    let accepted: u64 = sections.iter().map(|s| s.frames_accepted).sum();
    let dropped: u64 = sections.iter().map(|s| s.frames_dropped).sum();
    let wall = outcome.wall_s.max(1e-9);
    let sessions = stats.sessions_clean as f64;
    let peak = outcome.peak_open_sessions as f64;
    let p50 = percentile(&outcome.latencies_us, 0.50) as f64;
    let p99 = percentile(&outcome.latencies_us, 0.99) as f64;
    let drop_rate = dropped as f64 / (accepted + dropped).max(1) as f64;
    println!(
        "bench: {clients} clients  peak {peak} open  {:.0} sessions/s  {:.2} MB/s  p50 {p50} µs  p99 {p99} µs  drop {drop_rate:.4}",
        sessions / wall,
        bytes as f64 / wall / 1e6,
    );
    vec![
        Metric::lower("load.steps", outcome.steps as f64, "count", TIMING_BOUND),
        Metric::lower("load.wall_s", outcome.wall_s, "s", TIMING_BOUND),
        Metric::higher("load.peak_open_sessions", peak, "count", TIMING_BOUND),
        Metric::higher("load.sessions_clean", sessions, "count", MODEL_BOUND),
        Metric::higher("load.sessions_per_s", sessions / wall, "1/s", TIMING_BOUND),
        Metric::higher("load.frames_delivered", outcome.delivered as f64, "count", MODEL_BOUND),
        Metric::higher("load.frames_per_s", outcome.delivered as f64 / wall, "1/s", TIMING_BOUND),
        Metric::higher("load.ingest_mb_s", bytes as f64 / wall / 1e6, "MB/s", TIMING_BOUND),
        Metric::lower("load.accept_to_deliver_p50_us", p50, "us", TIMING_BOUND),
        Metric::lower("load.accept_to_deliver_p99_us", p99, "us", TIMING_BOUND),
        Metric::lower("load.drop_rate", drop_rate, "fraction", MODEL_BOUND),
    ]
}

/// Overload isolation: a hog tenant blasting past a tight byte quota
/// into a drop-oldest queue, next to a compliant tenant inside its
/// budget. The hog must throttle itself; the compliant tenant must see
/// a ~zero drop rate; the process exits non-zero otherwise. Returns
/// the `overload.*` metrics, where a hog that throttles harder counts
/// as better isolation.
fn overload(clients: u64) -> Vec<Metric> {
    let manual = ManualClock::new();
    let clock: Arc<dyn Clock> = Arc::new(manual.clone());
    let mut server = Server::new(Arc::clone(&clock)).with_read_quantum(4096);
    server.add_tenant(
        "hog",
        TenantConfig::unlimited()
            // ~one frame's bytes per 10 virtual ms: far below offered.
            .with_byte_quota(10_000, 2_000)
            .with_qos(BackpressureMode::DropOldest, 32),
    );
    server.add_tenant(
        "compliant",
        TenantConfig::unlimited().with_qos(BackpressureMode::Block, 256),
    );

    let half = clients / 2;
    let mut plans = make_plans(half, &["hog"], 12, 24, 256, 8, 1);
    plans.extend(make_plans(half, &["compliant"], 4, 24, 256, 8, 1));
    let outcome = drive(&mut server, &clock, Some((&manual, 100)), plans, 1 << 14);

    let sections = server.tenant_sections();
    let hog = sections.iter().find(|s| s.tenant == "hog").expect("hog section");
    let ok = sections.iter().find(|s| s.tenant == "compliant").expect("compliant section");
    let hog_offered = hog.frames_accepted + hog.frames_dropped;
    let hog_drop_rate = hog.frames_dropped as f64 / hog_offered.max(1) as f64;
    let ok_offered = ok.frames_accepted + ok.frames_dropped;
    let ok_drop_rate = ok.frames_dropped as f64 / ok_offered.max(1) as f64;
    let isolated = hog.quota_throttles > 0 && ok_drop_rate == 0.0 && ok.delivered_fraction == 1.0;
    if !isolated {
        eprintln!("overload isolation FAILED: hog {hog:?} compliant {ok:?}");
        std::process::exit(1);
    }
    println!(
        "overload: hog throttled {} times (drop {:.3}), compliant drop {:.3}",
        hog.quota_throttles, hog_drop_rate, ok_drop_rate,
    );
    let (throttles, hog_delivered) = (hog.quota_throttles as f64, hog.delivered_fraction);
    vec![
        Metric::lower("overload.steps", outcome.steps as f64, "count", MODEL_BOUND),
        Metric::lower("overload.wall_s", outcome.wall_s, "s", TIMING_BOUND),
        Metric::higher("overload.hog_quota_throttles", throttles, "count", MODEL_BOUND),
        Metric::higher("overload.hog_drop_rate", hog_drop_rate, "fraction", MODEL_BOUND),
        Metric::lower("overload.hog_delivered_fraction", hog_delivered, "fraction", MODEL_BOUND),
        Metric::lower("overload.compliant_drop_rate", ok_drop_rate, "fraction", MODEL_BOUND),
        Metric::higher(
            "overload.compliant_delivered_fraction",
            ok.delivered_fraction,
            "fraction",
            MODEL_BOUND,
        ),
    ]
}

struct Args {
    mode: String,
    clients: Option<u64>,
    frames: u64,
    out: Option<String>,
    dump: Option<String>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let mode = it.next().unwrap_or_default();
    let mut args = Args { mode, clients: None, frames: 4, out: None, dump: None };
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--clients" => {
                args.clients = Some(value("--clients").parse().unwrap_or_else(|_| {
                    eprintln!("--clients must be a positive integer");
                    std::process::exit(2);
                }));
            }
            "--frames" => {
                args.frames = value("--frames").parse().unwrap_or_else(|_| {
                    eprintln!("--frames must be a positive integer");
                    std::process::exit(2);
                });
            }
            "--out" => args.out = Some(value("--out")),
            "--dump" => args.dump = Some(value("--dump")),
            "--help" | "-h" => {
                println!(
                    "load_gen smoke|bench|overload|telemetry|breach [--clients N] [--frames N] [--out FILE] [--dump FILE]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other:?}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    match args.mode.as_str() {
        "smoke" => smoke(args.clients.unwrap_or(64), args.out),
        "bench" => {
            let clients = args.clients.unwrap_or(1000);
            let over_clients = clients.clamp(16, 256);
            let mut metrics = bench_load(clients, args.frames);
            metrics.extend(overload(over_clients));
            let bench = format!(
                "serve_load ({clients} clients x {} frames; overload {over_clients} clients)",
                args.frames
            );
            BenchRecord::new(bench, metrics).emit(args.out.as_deref());
        }
        "overload" => {
            let clients = args.clients.unwrap_or(128);
            BenchRecord::new(format!("serve_overload ({clients} clients)"), overload(clients))
                .emit(args.out.as_deref());
        }
        "telemetry" => telemetry(args.clients.unwrap_or(32), args.out),
        "breach" => breach(args.clients.unwrap_or(32), args.out, args.dump),
        other => {
            eprintln!("unknown mode {other:?} (want smoke|bench|overload|telemetry|breach)");
            std::process::exit(2);
        }
    }
}
