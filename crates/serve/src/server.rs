//! The event-loop server: accept, admit, ingest, enforce, deliver.
//!
//! One [`Server`] multiplexes every live session in a single polled
//! loop — [`Server::step`] makes one pass over the accept queue and
//! all sessions, never blocking on any of them. Determinism falls out:
//! driven by a [`ManualClock`](crate::ManualClock) and a fixed client
//! schedule, two runs make byte-identical decisions, which is what
//! lets the CI smoke gate check serving metrics against a committed
//! baseline like any other RunReport.
//!
//! The per-frame path is: session bytes → protocol messages →
//! incremental container decode → **tenant quota** (token buckets;
//! insufficient tokens throttles the frame) → **tenant queue**
//! (bounded [`StageQueue`], whose [`BackpressureMode`] is the tenant's
//! QoS class). A frame refused by a full `Block`/`Degrade` queue parks
//! as the session's *pending* frame, and the server stops reading that
//! session — backpressure propagates to the client through the
//! transport's bounded ring, never to other tenants.

use rpr_core::EncodedFrame;
use rpr_stream::{StageQueue, TryPush};
use rpr_trace::{
    EventKind, FlightRecorder, FrameCtx, LiveMetrics, Provenance, RunReport, SloSection,
    TenantLive, TenantSection, TraceEvent,
};
use rpr_wire::WireError;
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::clock::Clock;
use crate::error::ServeError;
use crate::protocol::{encode_metrics_response, AdmitCode};
use crate::session::{Session, SessionEnd, SessionPhase};
use crate::tenant::{TenantAccounting, TenantConfig};
use crate::transport::{Conn, MemListener};

/// A frame that cleared admission, quota, and queueing: what the
/// serving layer hands to pipelines.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivered {
    /// Tenant the frame billed to.
    pub tenant: Arc<str>,
    /// Camera that produced it (from the session hello).
    pub camera_id: u64,
    /// Server-assigned session id.
    pub session_id: u64,
    /// The decoded, validated frame.
    pub frame: EncodedFrame,
    /// Server clock reading when the frame cleared quota.
    pub accepted_micros: u64,
    /// Trace context: the frame's end-to-end identity, threaded through
    /// the bridge into stage spans and latency accounting.
    pub ctx: FrameCtx,
}

/// Server-wide counters (tenant-agnostic failures live here; per-tenant
/// accounting lives in [`TenantSection`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted off the listener.
    pub sessions_opened: u64,
    /// Sessions that ended cleanly (bye / finished container).
    pub sessions_clean: u64,
    /// Sessions recovered at a chunk boundary (peer vanished).
    pub sessions_recovered: u64,
    /// Sessions ended by a torn final chunk (typed
    /// [`WireError::TruncatedStream`]).
    pub sessions_truncated: u64,
    /// Sessions ended by protocol or other wire errors.
    pub sessions_errored: u64,
    /// Hellos naming a tenant the server does not know.
    pub rejected_unknown_tenant: u64,
    /// Hellos refused because the tenant was at its session limit.
    pub rejected_session_limit: u64,
    /// Hellos refused during shutdown drain.
    pub rejected_shutting_down: u64,
}

/// What one [`Server::step`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepStats {
    /// Connections accepted this step.
    pub accepted: usize,
    /// Bytes read off all sessions this step.
    pub bytes_read: usize,
    /// Frames enqueued toward tenants this step.
    pub frames_enqueued: usize,
    /// Sessions that reached `Closed` this step.
    pub sessions_closed: usize,
}

impl StepStats {
    /// True when the step moved anything at all.
    pub fn progressed(&self) -> bool {
        self.accepted > 0
            || self.bytes_read > 0
            || self.frames_enqueued > 0
            || self.sessions_closed > 0
    }
}

struct TenantEntry {
    name: Arc<str>,
    config: TenantConfig,
    acct: TenantAccounting,
    queue: Arc<StageQueue<Delivered>>,
    live: Arc<TenantLive>,
    /// True while the tenant is inside one SLO-breach episode, so the
    /// flight recorder fires once per episode rather than every step.
    breach_latch: bool,
    breaches: u64,
    flight_dumps: u64,
}

struct Slot {
    session: Session,
    pending: Option<Delivered>,
}

/// The multi-tenant ingestion server.
pub struct Server {
    clock: Arc<dyn Clock>,
    listener: MemListener,
    tenants: BTreeMap<String, TenantEntry>,
    slots: Vec<Option<Slot>>,
    free: Vec<usize>,
    next_session: u64,
    accepting: bool,
    read_quantum: usize,
    stats: ServerStats,
    live: Arc<LiveMetrics>,
    flight: FlightRecorder,
    flight_tids: BTreeMap<(u32, u64), u64>,
    flight_names: Vec<(u64, String)>,
    next_flight_tid: u64,
    flight_dump: Option<String>,
    fault_storm_threshold: u64,
    fault_window_micros: u64,
    fault_window_start: u64,
    faults_in_window: u64,
    report_interval_micros: Option<u64>,
    last_report_micros: u64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("tenants", &self.tenants.len())
            .field("open_sessions", &self.open_sessions())
            .field("accepting", &self.accepting)
            .finish()
    }
}

impl Server {
    /// A server reading time from `clock`, with an empty tenant table
    /// and a fresh in-memory listener.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Server {
            clock,
            listener: MemListener::new(),
            tenants: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_session: 1,
            accepting: true,
            read_quantum: 64 * 1024,
            stats: ServerStats::default(),
            live: Arc::new(LiveMetrics::new()),
            flight: FlightRecorder::new(4096),
            flight_tids: BTreeMap::new(),
            flight_names: Vec::new(),
            next_flight_tid: 1,
            flight_dump: None,
            fault_storm_threshold: 8,
            fault_window_micros: 1_000_000,
            fault_window_start: 0,
            faults_in_window: 0,
            report_interval_micros: None,
            last_report_micros: 0,
        }
    }

    /// Caps the bytes read from any one session per step (fairness
    /// quantum). Default 64 KiB.
    pub fn with_read_quantum(mut self, bytes: usize) -> Self {
        self.read_quantum = bytes.max(1);
        self
    }

    /// Sets the flight recorder's span capacity (default 4096).
    pub fn with_flight_capacity(mut self, events: usize) -> Self {
        self.flight = FlightRecorder::new(events);
        self
    }

    /// Tunes the session-fault storm trigger: `threshold` session
    /// failures within `window_micros` dump the flight recorder
    /// (defaults: 8 faults within one second).
    pub fn with_fault_storm(mut self, threshold: u64, window_micros: u64) -> Self {
        self.fault_storm_threshold = threshold.max(1);
        self.fault_window_micros = window_micros.max(1);
        self
    }

    /// Enables periodic live-RunReport snapshots: once at least
    /// `micros` of server-clock time pass, the next
    /// [`Server::poll_report`] returns a report.
    pub fn with_report_interval(mut self, micros: u64) -> Self {
        self.report_interval_micros = Some(micros.max(1));
        self
    }

    /// Registers `name` with its policy. Sessions for unregistered
    /// tenants are rejected at hello time.
    pub fn add_tenant(&mut self, name: &str, config: TenantConfig) {
        let now = self.clock.now_micros();
        let queue = Arc::new(StageQueue::new(
            &format!("tenant-{name}"),
            config.queue_capacity.max(1),
            config.backpressure,
        ));
        let live = self.live.register(name, config.slo);
        self.tenants.insert(
            name.to_string(),
            TenantEntry {
                name: Arc::from(name),
                acct: TenantAccounting::new(name, &config, now),
                config,
                queue,
                live,
                breach_latch: false,
                breaches: 0,
                flight_dumps: 0,
            },
        );
    }

    /// The listener clients connect to.
    pub fn listener(&self) -> MemListener {
        self.listener.clone()
    }

    /// Adopts an already-established connection (e.g. an accepted
    /// [`TcpConn`](crate::TcpConn)) as a new session.
    pub fn adopt(&mut self, conn: Box<dyn Conn>) -> u64 {
        let id = self.next_session;
        self.next_session += 1;
        self.stats.sessions_opened += 1;
        let slot = Slot { session: Session::new(id, conn), pending: None };
        if let Some(i) = self.free.pop() {
            self.slots[i] = Some(slot);
        } else {
            self.slots.push(Some(slot));
        }
        id
    }

    /// The delivery queue for `tenant` — consumers pop [`Delivered`]
    /// frames from it (blocking `pop` from consumer threads, or
    /// `try_pop` from a driving loop).
    pub fn tenant_queue(&self, tenant: &str) -> Option<Arc<StageQueue<Delivered>>> {
        self.tenants.get(tenant).map(|t| Arc::clone(&t.queue))
    }

    /// Stops admitting new sessions; existing ones drain. Hellos
    /// arriving after this are refused with
    /// [`AdmitCode::ShuttingDown`].
    pub fn begin_shutdown(&mut self) {
        self.accepting = false;
    }

    /// Closes every tenant queue. Call only once ingest is idle;
    /// consumers drain what is queued, then see end-of-stream.
    pub fn close_tenant_queues(&self) {
        for t in self.tenants.values() {
            t.queue.close();
        }
    }

    /// Sessions not yet closed.
    pub fn open_sessions(&self) -> usize {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.session.phase() != SessionPhase::Closed || s.pending.is_some())
            .count()
    }

    /// True when no session can make further progress without new
    /// input and no frame is parked waiting for queue space.
    pub fn is_idle(&self) -> bool {
        self.open_sessions() == 0 && self.listener.backlog() == 0
    }

    /// Server-wide counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The live metrics plane the server writes: scrapeable while
    /// [`Server::step`] runs from the loop's own thread.
    pub fn live(&self) -> Arc<LiveMetrics> {
        Arc::clone(&self.live)
    }

    /// One tenant's live handle (e.g. for a consumer loop that records
    /// delivery latency on pop).
    pub fn tenant_live(&self, tenant: &str) -> Option<Arc<TenantLive>> {
        self.tenants.get(tenant).map(|t| Arc::clone(&t.live))
    }

    /// Renders the Prometheus-format exposition page for the current
    /// live state (what a `METRICS` protocol request returns).
    pub fn render_metrics(&self) -> String {
        let now = self.clock.now_micros();
        rpr_trace::render_prometheus(&self.live.snapshot(), &self.slo_sections(), now)
    }

    /// Per-tenant SLO outcomes at the current server-clock reading, one
    /// section per tenant that declared an SLO.
    pub fn slo_sections(&self) -> Vec<SloSection> {
        let now = self.clock.now_micros();
        self.tenants
            .values()
            .filter_map(|entry| {
                let slo = entry.live.slo()?;
                let (good, bad) = slo.window_totals(now);
                let cfg = slo.config();
                Some(SloSection {
                    tenant: entry.live.name.clone(),
                    target_delivery_us: cfg.target_delivery_us,
                    budget_fraction: cfg.budget_fraction,
                    window_micros: cfg.window_micros,
                    good_events: good,
                    bad_events: bad,
                    burn_rate: slo.burn_rate(now),
                    breaches: entry.breaches,
                    flight_dumps: entry.flight_dumps,
                })
            })
            .collect()
    }

    /// A live [`RunReport`] snapshot of the run so far: per-tenant
    /// accounting plus SLO outcomes, gateable by `rpr-report` like any
    /// finished run.
    pub fn live_report(&self) -> RunReport {
        let frames = self.live.snapshot().iter().map(|t| t.frames_accepted).sum();
        RunReport {
            schema_version: rpr_trace::REPORT_SCHEMA_VERSION,
            task: "serve-live".to_string(),
            dataset: "live".to_string(),
            baseline: "rpr-serve".to_string(),
            frames,
            tenants: self.tenant_sections(),
            slos: Some(self.slo_sections()),
            ..Default::default()
        }
    }

    /// Returns a live report once per configured
    /// [`Server::with_report_interval`] window; `None` between emits or
    /// when no interval was set. Call from the driving loop.
    pub fn poll_report(&mut self) -> Option<RunReport> {
        let every = self.report_interval_micros?;
        let now = self.clock.now_micros();
        if now.saturating_sub(self.last_report_micros) < every {
            return None;
        }
        self.last_report_micros = now;
        Some(self.live_report())
    }

    /// Takes the pending flight-recorder trace dump (Chrome trace-event
    /// JSON), produced automatically on an SLO breach or a
    /// session-fault storm.
    pub fn take_flight_dump(&mut self) -> Option<String> {
        self.flight_dump.take()
    }

    /// Per-tenant accounting, with `delivered_fraction` computed.
    pub fn tenant_sections(&self) -> Vec<TenantSection> {
        self.tenants
            .values()
            .map(|t| {
                let mut s = t.acct.section.clone();
                s.delivered_fraction = if s.frames_accepted == 0 {
                    1.0
                } else {
                    s.frames_delivered as f64 / s.frames_accepted as f64
                };
                s
            })
            .collect()
    }

    /// One non-blocking pass: accept pending connections, then give
    /// every session a fair read-parse-deliver quantum.
    pub fn step(&mut self) -> StepStats {
        let mut stats = StepStats::default();
        while let Some(conn) = self.listener.accept() {
            self.adopt(Box::new(conn));
            stats.accepted += 1;
        }
        for i in 0..self.slots.len() {
            self.step_slot(i, &mut stats);
        }
        // Fold queue pressure into per-tenant degrade accounting once
        // per step (the flag is level-triggered while a producer waits
        // on a full Degrade queue).
        for t in self.tenants.values_mut() {
            if t.queue.take_pressure() {
                t.acct.section.degrade_events += 1;
            }
        }
        // Evaluate SLO burn once per step; a tenant entering a breach
        // episode fires the flight recorder exactly once.
        let now = self.clock.now_micros();
        let mut breach_entered = false;
        for t in self.tenants.values_mut() {
            let Some(slo) = t.live.slo() else { continue };
            if slo.breached(now) {
                if !t.breach_latch {
                    t.breach_latch = true;
                    t.breaches += 1;
                    t.flight_dumps += 1;
                    breach_entered = true;
                }
            } else {
                t.breach_latch = false;
            }
        }
        if breach_entered {
            self.trigger_flight_dump();
        }
        stats
    }

    /// Steps until a full pass makes no progress, up to `max_steps`.
    /// Returns the steps taken. Note that a parked pending frame only
    /// clears when a *consumer* pops the tenant queue, so a driving
    /// loop should interleave queue drains with this call.
    pub fn pump_until_idle(&mut self, max_steps: usize) -> usize {
        for n in 0..max_steps {
            if !self.step().progressed() {
                return n + 1;
            }
        }
        max_steps
    }

    fn step_slot(&mut self, i: usize, stats: &mut StepStats) {
        let Some(mut slot) = self.slots.get_mut(i).and_then(Option::take) else {
            return;
        };
        self.drive_slot(&mut slot, stats);
        if slot.session.phase() == SessionPhase::Closed && slot.pending.is_none() {
            stats.sessions_closed += 1;
            self.free.push(i);
            if let Some(s) = self.slots.get_mut(i) {
                *s = None;
            }
        } else if let Some(s) = self.slots.get_mut(i) {
            *s = Some(slot);
        }
    }

    fn drive_slot(&mut self, slot: &mut Slot, stats: &mut StepStats) {
        // A parked frame must clear before the session reads again:
        // this is the per-tenant backpressure point.
        if let Some(frame) = slot.pending.take() {
            match self.offer(frame) {
                Offer::Delivered => stats.frames_enqueued += 1,
                Offer::Parked(frame) => {
                    slot.pending = Some(frame);
                    return;
                }
                Offer::Gone => {}
            }
        }
        match slot.session.phase() {
            SessionPhase::AwaitHello => {
                stats.bytes_read += slot.session.pump_read(self.read_quantum);
                match slot.session.poll_hello() {
                    Ok(Some(hello)) => self.admit_or_reject(&mut slot.session, &hello),
                    Ok(None) => {}
                    Err(_) => {
                        slot.session.reject(AdmitCode::BadHello);
                        self.stats.sessions_errored += 1;
                    }
                }
                // Fall through so an admitted session's already-read
                // bytes parse this same step.
                if slot.session.phase() == SessionPhase::Ingest {
                    self.ingest(slot, stats);
                }
            }
            SessionPhase::Ingest => {
                stats.bytes_read += slot.session.pump_read(self.read_quantum);
                self.ingest(slot, stats);
            }
            SessionPhase::Closed => {}
        }
    }

    fn ingest(&mut self, slot: &mut Slot, stats: &mut StepStats) {
        loop {
            match slot.session.poll_frame() {
                Ok(Some(frame)) => {
                    let Some(delivered) = self.admit_frame(&slot.session, frame) else {
                        continue; // throttled by quota
                    };
                    match self.offer(delivered) {
                        Offer::Delivered => stats.frames_enqueued += 1,
                        Offer::Parked(frame) => {
                            slot.pending = Some(frame);
                            return; // stop reading: backpressure
                        }
                        Offer::Gone => {}
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.account_session_error(&slot.session, &e);
                    self.release_session(&slot.session);
                    return;
                }
            }
        }
        if slot.session.take_metrics_request() {
            let page = self.render_metrics();
            slot.session.queue_response(&encode_metrics_response(page.as_bytes()));
        }
        slot.session.pump_write();
        if slot.session.input_exhausted() {
            if !slot.session.outbox_drained() {
                // Hold the slot open until the queued response flushes.
                return;
            }
            let end = slot.session.end();
            match &end {
                SessionEnd::Clean(_) => self.stats.sessions_clean += 1,
                SessionEnd::Recovered(_) => self.stats.sessions_recovered += 1,
                SessionEnd::Failed(e) => self.account_session_error(&slot.session, e),
            }
            self.release_session(&slot.session);
        }
    }

    fn admit_or_reject(&mut self, session: &mut Session, hello: &crate::protocol::Hello) {
        let Some(entry) = self.tenants.get_mut(&hello.tenant) else {
            self.stats.rejected_unknown_tenant += 1;
            session.reject(AdmitCode::UnknownTenant);
            return;
        };
        entry.acct.section.sessions_offered += 1;
        if !self.accepting {
            self.stats.rejected_shutting_down += 1;
            session.reject(AdmitCode::ShuttingDown);
            return;
        }
        if entry.acct.sessions_active >= entry.config.max_sessions {
            self.stats.rejected_session_limit += 1;
            session.reject(AdmitCode::SessionLimit);
            return;
        }
        entry.acct.sessions_active += 1;
        entry.acct.section.sessions_admitted += 1;
        session.admit(hello);
    }

    /// Applies the tenant's token buckets to a decoded frame. `None`
    /// means the frame was throttled (counted, discarded).
    fn admit_frame(&mut self, session: &Session, frame: EncodedFrame) -> Option<Delivered> {
        let tenant = session.tenant.as_deref()?;
        let now = self.clock.now_micros();
        let cost = frame.total_bytes() as u64;
        let (accepted, name, live) = {
            let entry = self.tenants.get_mut(tenant)?;
            let frame_ok = entry.acct.frame_bucket.try_take(1, now);
            let bytes_ok = frame_ok && entry.acct.byte_bucket.try_take(cost, now);
            if !frame_ok || !bytes_ok {
                if frame_ok {
                    // The byte bucket vetoed after the frame token was
                    // taken; refund it so the two throttle as one
                    // decision.
                    entry.acct.frame_bucket.refund(1);
                }
                entry.acct.section.frames_dropped += 1;
                entry.acct.section.quota_throttles += 1;
                entry.live.quota_throttles.add(1);
                entry.live.record_drop(now);
                (false, Arc::clone(&entry.name), Arc::clone(&entry.live))
            } else {
                entry.acct.section.frames_accepted += 1;
                entry.acct.section.bytes_ingested += cost;
                entry.live.frames_accepted.add(1);
                entry.live.bytes_ingested.add(cost);
                (true, Arc::clone(&entry.name), Arc::clone(&entry.live))
            }
        };
        let ctx = FrameCtx {
            tenant: live.id,
            camera: session.camera_id,
            session: session.id,
            frame_seq: session.frames_returned().saturating_sub(1),
            ingest_micros: now,
        };
        let tid = self.flight_tid(&name, live.id, session.camera_id);
        let verdict = if accepted { 1.0 } else { 0.0 };
        self.flight_record(rpr_trace::names::SERVE_ADMIT, tid, now, verdict, ctx);
        if !accepted {
            return None;
        }
        rpr_trace::counter_for_ctx(rpr_trace::names::SERVE_ADMIT, "serve", ctx, 1.0);
        Some(Delivered {
            tenant: name,
            camera_id: session.camera_id,
            session_id: session.id,
            frame,
            accepted_micros: now,
            ctx,
        })
    }

    fn offer(&mut self, delivered: Delivered) -> Offer {
        let now = self.clock.now_micros();
        let ctx = delivered.ctx;
        let camera = delivered.camera_id;
        let Some(entry) = self.tenants.get_mut(delivered.tenant.as_ref()) else {
            return Offer::Gone;
        };
        let name = Arc::clone(&entry.name);
        let tenant_id = entry.live.id;
        let result = match entry.queue.try_push(delivered) {
            TryPush::Pushed => {
                entry.acct.section.frames_delivered += 1;
                Offer::Delivered
            }
            TryPush::Dropped => {
                // The new frame is in; an older queued frame was
                // evicted. It had been counted delivered, so the books
                // move one from delivered to dropped; the evicted frame
                // also burns SLO error budget.
                entry.acct.section.frames_dropped += 1;
                entry.live.record_drop(now);
                Offer::Delivered
            }
            TryPush::Full(frame) => Offer::Parked(frame),
            TryPush::Closed(_) => {
                entry.acct.section.frames_dropped += 1;
                entry.live.record_drop(now);
                Offer::Gone
            }
        };
        if matches!(result, Offer::Delivered) {
            let tid = self.flight_tid(&name, tenant_id, camera);
            self.flight_record(rpr_trace::names::SERVE_DELIVER, tid, now, 1.0, ctx);
        }
        result
    }

    /// Compact flight-recorder track id for a `(tenant, camera)` pair,
    /// assigning one (and its `tenant/camera-N` track name) on first
    /// sight.
    fn flight_tid(&mut self, tenant: &str, tenant_id: u32, camera: u64) -> u64 {
        if let Some(tid) = self.flight_tids.get(&(tenant_id, camera)) {
            return *tid;
        }
        let tid = self.next_flight_tid;
        self.next_flight_tid = self.next_flight_tid.saturating_add(1);
        self.flight_tids.insert((tenant_id, camera), tid);
        self.flight_names.push((tid, format!("{tenant}/camera-{camera}")));
        tid
    }

    fn flight_record(&mut self, name: &'static str, tid: u64, now_micros: u64, value: f64, ctx: FrameCtx) {
        self.flight.record(TraceEvent {
            name,
            cat: "serve",
            kind: EventKind::Instant,
            tid,
            ts_ns: now_micros.saturating_mul(1_000),
            dur_ns: 0,
            value,
            provenance: Provenance {
                frame_idx: Some(ctx.frame_seq),
                ctx: Some(ctx),
                ..Default::default()
            },
        });
    }

    fn trigger_flight_dump(&mut self) {
        // A pending dump is the interesting one (first breach of the
        // episode); don't overwrite it before anyone reads it.
        if self.flight_dump.is_some() {
            return;
        }
        let events = self.flight.dump();
        self.flight_dump = Some(rpr_trace::chrome_trace_json_named(
            &events,
            &self.flight_names,
            "rpr-serve",
        ));
    }

    fn release_session(&mut self, session: &Session) {
        if let Some(tenant) = session.tenant.as_deref() {
            if let Some(entry) = self.tenants.get_mut(tenant) {
                entry.acct.sessions_active = entry.acct.sessions_active.saturating_sub(1);
            }
        }
    }

    fn account_session_error(&mut self, _session: &Session, e: &ServeError) {
        match e {
            ServeError::Wire(WireError::TruncatedStream { .. }) => {
                self.stats.sessions_truncated += 1;
            }
            _ => self.stats.sessions_errored += 1,
        }
        // Session-fault storm: a burst of failures inside one window
        // dumps the flight recorder for postmortem.
        let now = self.clock.now_micros();
        if now.saturating_sub(self.fault_window_start) > self.fault_window_micros {
            self.fault_window_start = now;
            self.faults_in_window = 0;
        }
        self.faults_in_window = self.faults_in_window.saturating_add(1);
        if self.faults_in_window >= self.fault_storm_threshold {
            self.faults_in_window = 0;
            self.trigger_flight_dump();
        }
    }
}

enum Offer {
    Delivered,
    Parked(Delivered),
    Gone,
}
