//! The `fleet-ingest` workload: camera sessions replay recorded `.rpr`
//! containers over in-memory connections into one `rpr_serve::Server`;
//! the benchmark's thread steps the server, pops deliveries from the
//! tenant queue and decodes them. No render and no task run here, so
//! wire parsing, the serve event loop and the decoder carry the time.

use crate::probe::{allocs, now, secs};
use crate::stats::{fnv, FNV_START};
use rpr_core::SoftwareDecoder;
use rpr_serve::{session_script, Clock, ScriptedClient, Server, TenantConfig};
use rpr_stream::BackpressureMode;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The one tenant every session bills to; its quotas are unlimited so
/// timing can never change which frames are admitted.
pub const TENANT: &str = "fleet";
/// Container bytes per data message, and the server's per-session read
/// quantum: each step takes about one message from each session, so a
/// frame's latency is its own parse, queueing and decode rather than
/// the wait for a whole multi-frame quantum to be parsed before this
/// single-threaded loop can decode anything.
const CHUNK: usize = 16 * 1024;
/// Per-direction capacity of each in-memory connection.
const RING: usize = 64 * 1024;
/// Tenant queue capacity: larger than any session's frame count, so no
/// delivery ever parks.
const QUEUE: usize = 4096;
/// Loop iterations without any progress before a pass is declared
/// stuck.
const STALL_LIMIT: usize = 10_000;

/// A server clock in microseconds since the pass began.
struct BenchClock(Instant);

impl Clock for BenchClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// One recorded camera session.
pub struct Session {
    pub camera_id: u64,
    pub container: Vec<u8>,
    pub script: Vec<u8>,
    /// Digests of the frames a direct decode of the container yields.
    pub expected: Vec<u64>,
}

impl Session {
    pub fn new(camera_id: u64, container: Vec<u8>) -> Self {
        let script = session_script(TENANT, camera_id, &container, CHUNK, true);
        Session {
            camera_id,
            container,
            script,
            expected: Vec::new(),
        }
    }

    /// Decodes the container directly, without the server: the frames
    /// the fleet must deliver.
    pub fn expect_direct_decode(&mut self) -> Result<(), String> {
        let frames =
            rpr_workloads::replay_task_inputs(&self.container).map_err(|e| e.to_string())?;
        self.expected = frames
            .iter()
            .map(|f| fnv(FNV_START, f.as_slice()))
            .collect();
        Ok(())
    }
}

/// Per-frame timings of one pass, in completion order. A frame's
/// interval runs from the previous frame's decode to its own; the
/// layer fields split it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameTimes {
    pub interval_s: f64,
    pub step_s: f64,
    pub client_s: f64,
    pub decode_s: f64,
    /// Frame accepted by the server → decoded (µs of the server clock).
    pub latency_us: u64,
    /// Delivered into the tenant queue → popped (µs).
    pub queue_wait_us: u64,
    pub step_allocs: u64,
    pub decode_allocs: u64,
}

/// One pass: every session streamed to the end.
pub struct Pass {
    pub frames: Vec<FrameTimes>,
    pub total_s: f64,
    /// (camera, frame index) in delivery order, digested.
    pub order_digest: u64,
    /// Frames whose decoded pixels differed from the direct decode, or
    /// that arrived for an unknown camera or out of range.
    pub mismatched: usize,
    pub steps: u64,
    pub idle_steps: u64,
    pub sessions_clean: u64,
    pub stuck: bool,
}

/// A connection slot: one camera at a time, each replaying its
/// recording, reconnecting for the next once the previous recording is
/// fully decoded.
struct Slot<'a> {
    next: std::collections::VecDeque<(&'a Session, Vec<u8>)>,
    live: Option<(ScriptedClient, &'a Session)>,
}

/// Streams every session once, at most `slots` at a time. With
/// `traced`, the client, step and decode calls are timed and the step
/// and decode calls' allocations counted.
pub fn pass(sessions: &[Session], slots: usize, width: u32, height: u32, traced: bool) -> Pass {
    let started = now();
    let clock = Arc::new(BenchClock(started));
    let mut server = Server::new(clock.clone()).with_read_quantum(CHUNK);
    server.add_tenant(
        TENANT,
        TenantConfig::unlimited().with_qos(BackpressureMode::Block, QUEUE),
    );
    let queue = server.tenant_queue(TENANT).expect("tenant was just added");
    let listener = server.listener();
    let slots = slots.max(1);
    let mut slot_list: Vec<Slot> = (0..slots)
        .map(|j| Slot {
            next: sessions
                .iter()
                .skip(j)
                .step_by(slots)
                .map(|s| (s, s.script.clone()))
                .collect(),
            live: None,
        })
        .collect();
    let mut decoders: BTreeMap<u64, (SoftwareDecoder, usize)> = BTreeMap::new();
    let total: usize = sessions.iter().map(|s| s.expected.len()).sum();
    let mut out = Pass {
        frames: Vec::with_capacity(total),
        total_s: 0.0,
        order_digest: FNV_START,
        mismatched: 0,
        steps: 0,
        idle_steps: 0,
        sessions_clean: 0,
        stuck: false,
    };

    let mut pending = FrameTimes::default();
    let mut excluded_s = 0.0;
    let mut last = now();
    let mut stalled = 0;
    loop {
        let t0 = now();
        let mut flushed = 0;
        for slot in &mut slot_list {
            let finished = slot.live.as_ref().is_none_or(|(c, s)| {
                c.done()
                    && decoders
                        .get(&s.camera_id)
                        .is_some_and(|d| d.1 == s.expected.len())
            });
            if finished {
                slot.live = slot.next.pop_front().map(|(s, script)| {
                    decoders.insert(s.camera_id, (SoftwareDecoder::new(width, height), 0));
                    (ScriptedClient::connect(&listener, RING, script), s)
                });
            }
            if let Some((c, _)) = &mut slot.live {
                flushed += c.flush();
            }
        }
        let t1 = now();
        let a1 = allocs();
        let step = server.step();
        let t2 = now();
        if traced {
            pending.client_s += secs(t0, t1);
            pending.step_s += secs(t1, t2);
            pending.step_allocs += allocs() - a1;
        }
        out.steps += 1;
        let mut popped = 0;
        while let Some(d) = queue.try_pop() {
            popped += 1;
            let popped_us = clock.now_micros();
            let Some((decoder, count)) = decoders.get_mut(&d.camera_id) else {
                out.mismatched += 1;
                continue;
            };
            let a0 = allocs();
            let t3 = now();
            let frame = decoder.decode(&d.frame);
            let t4 = now();
            let done_us = clock.now_micros();
            *count += 1;
            pending.decode_s = secs(t3, t4);
            pending.decode_allocs = allocs() - a0;
            pending.latency_us = done_us.saturating_sub(d.accepted_micros);
            pending.queue_wait_us = popped_us.saturating_sub(d.accepted_micros);
            pending.interval_s = secs(last, t4) - excluded_s;
            out.frames.push(pending);
            pending = FrameTimes::default();
            // Check work, excluded from the next frame's interval.
            let i = usize::try_from(d.frame.frame_idx()).unwrap_or(usize::MAX);
            let ok = sessions
                .iter()
                .find(|s| s.camera_id == d.camera_id)
                .and_then(|s| s.expected.get(i))
                .is_some_and(|&want| want == fnv(FNV_START, frame.as_slice()));
            if !ok {
                out.mismatched += 1;
            }
            out.order_digest = fnv(out.order_digest, &d.camera_id.to_le_bytes());
            out.order_digest = fnv(out.order_digest, &d.frame.frame_idx().to_le_bytes());
            excluded_s = secs(t4, now());
            last = t4;
        }
        if !step.progressed() {
            out.idle_steps += 1;
        }
        let all_sent = slot_list
            .iter()
            .all(|s| s.next.is_empty() && s.live.as_ref().is_none_or(|(c, _)| c.done()));
        if all_sent && server.is_idle() && queue.depth() == 0 {
            break;
        }
        if flushed == 0 && popped == 0 && !step.progressed() {
            stalled += 1;
            if stalled > STALL_LIMIT {
                out.stuck = true;
                break;
            }
        } else {
            stalled = 0;
        }
    }
    out.sessions_clean = server.stats().sessions_clean;
    out.total_s = secs(started, now());
    out
}

/// Per-frame parse times of one replay of every container through
/// `ContainerReader`: the open is spread evenly over the container's
/// frames. Returns `None` if any container fails to parse.
pub fn replay_parse(sessions: &[Session]) -> Option<Vec<f64>> {
    let mut times = Vec::new();
    for s in sessions {
        let t0 = now();
        let reader = rpr_wire::ContainerReader::open(&s.container).ok()?;
        let open_s = secs(t0, now());
        let n = reader.len().max(1) as f64;
        for i in 0..reader.len() {
            let t1 = now();
            let frame = reader.frame(i).ok()?;
            let t2 = now();
            std::hint::black_box(&frame);
            times.push(secs(t1, t2) + open_s / n);
        }
    }
    Some(times)
}
