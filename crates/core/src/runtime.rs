//! The distributed inference runtime (Figure 1d and Section III), with a
//! fault-tolerant protocol layer.
//!
//! One node — the **master** — receives the sensor input, broadcasts it to
//! every peer (**workers**), all nodes run their local expert in parallel,
//! the workers return `(predicted label, predictive entropy)` pairs, and
//! the master selects the least-uncertain answer. Communication happens
//! exactly twice per inference (one broadcast out, one gather back), which
//! is the entire reason TeamNet beats MPI-style model parallelism on WiFi.
//!
//! Robustness (see DESIGN.md §9): every message crosses the wire inside a
//! versioned, round-stamped, CRC-checked [`Envelope`], so the master
//! discards late replies from earlier rounds instead of mis-scoring them
//! against the wrong batch, and flipped bits are caught before they decode
//! into garbage predictions. An [`InferenceSession`] additionally runs a
//! heartbeat-style [`FailureDetector`]: peers that miss
//! `quarantine_after` consecutive rounds are quarantined (no broadcast,
//! no gather wait — their timeout stops taxing every inference) and
//! periodically probed with a 16-byte envelope for readmission. Each round
//! returns an [`InferenceReport`] with per-peer health alongside the
//! predictions.
//!
//! Works over any [`Transport`] — in-process channels for tests and real
//! TCP for deployments.

use crate::entropy::entropy;
use crate::fsm;
use crate::health::{
    ContactPlan, FailureDetector, FailureDetectorConfig, InferenceReport, PeerHealth, PeerReport,
};
use crate::recover::{HostBudget, RecoveryManager, TransferManifest};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use teamnet_net::codec::{decode_f32s, encode_f32s, WireReader};
use teamnet_net::{
    derive_trace_id, peek_trace, Backoff, Clock, Envelope, NetError, PayloadKind, RetryPolicy,
    SystemClock, Tag, Transport, TRACE_EXT_LEN,
};
use teamnet_nn::{Layer, Mode, Sequential};
use teamnet_obs::{AllocMeters, Counter, Obs};
use teamnet_tensor::{MemScope, Tensor};

/// Tag carrying broadcast input batches and probes (master → workers).
pub const TAG_INPUT: Tag = Tag(0x7EA0_0001);
/// Tag carrying per-row `(label, entropy)` results and probe acks
/// (workers → master).
pub const TAG_RESULT: Tag = Tag(0x7EA0_0002);
/// Tag asking workers to exit their serve loop (sent raw, no envelope: a
/// shutdown is not attributable to a round).
pub const TAG_SHUTDOWN: Tag = Tag(0x7EA0_0003);

/// Process-wide round allocator: every inference round in this process
/// gets a unique stamp, so a late reply can never alias a later round even
/// across [`InferenceSession`] instances sharing a transport.
static NEXT_ROUND: AtomicU64 = AtomicU64::new(1);

pub(crate) fn next_round() -> u64 {
    NEXT_ROUND.fetch_add(1, Ordering::Relaxed)
}

/// Largest number of frames parked per `(round, peer)` key: bounds what a
/// duplicate storm can make the router retain.
const MAX_PARKED_PER_KEY: usize = 1024;

/// Cross-session frame router.
///
/// Round stamps are process-unique, but a transport's receive mailbox is
/// keyed `(peer, tag)` only — so when two [`InferenceSession`]s gather
/// concurrently over one shared endpoint, session A's blocking `recv` can
/// consume the frame stamped with session B's round. Before this router,
/// A discarded that frame as stale and B starved until its deadline: a
/// collision *misattribution*, the serving front-end's first casualty.
///
/// Every in-flight gather registers its round here ([`RoundRegistration`]
/// is the RAII handle). A gather that pulls a frame stamped for another
/// **registered** round parks it under `(round, sender)`; the owning
/// session polls [`take_parked`] before each blocking wait and once more
/// after a timeout, so a mis-delivered reply reaches its round instead of
/// the floor. Frames stamped for unregistered rounds remain genuine stale
/// traffic and are dropped as before.
#[derive(Debug)]
struct RoundRouter {
    /// Rounds with a gather currently in flight.
    active: BTreeSet<u64>,
    /// Mis-delivered frames awaiting their owner, FIFO per key.
    parked: BTreeMap<(u64, usize), VecDeque<Vec<u8>>>,
}

static ROUND_ROUTER: Mutex<RoundRouter> = Mutex::new(RoundRouter {
    active: BTreeSet::new(),
    parked: BTreeMap::new(),
});

/// RAII registration of an in-flight round with the [`RoundRouter`]:
/// dropping it (on any exit path from `infer`, including errors)
/// unregisters the round and frees whatever is still parked for it.
#[derive(Debug)]
struct RoundRegistration {
    round: u64,
}

impl RoundRegistration {
    fn new(round: u64) -> Self {
        ROUND_ROUTER.lock().active.insert(round);
        RoundRegistration { round }
    }
}

impl Drop for RoundRegistration {
    fn drop(&mut self) {
        let round = self.round;
        let mut router = ROUND_ROUTER.lock();
        router.active.remove(&round);
        router.parked.retain(|&(r, _), _| r != round);
    }
}

/// Parks a frame from `peer` stamped for `seen` if that round has a
/// registered gather in flight. Returns whether the frame was parked
/// (false means it is genuine stale traffic, or the park bound is hit).
fn park_for_round(seen: u64, peer: usize, bytes: Vec<u8>) -> bool {
    let mut router = ROUND_ROUTER.lock();
    if !router.active.contains(&seen) {
        return false;
    }
    let queue = router.parked.entry((seen, peer)).or_default();
    if queue.len() >= MAX_PARKED_PER_KEY {
        return false;
    }
    queue.push_back(bytes);
    true
}

/// Takes the oldest frame a sibling session parked for (`round`, `peer`),
/// if any.
fn take_parked(round: u64, peer: usize) -> Option<Vec<u8>> {
    let mut router = ROUND_ROUTER.lock();
    let queue = router.parked.get_mut(&(round, peer))?;
    let bytes = queue.pop_front();
    if queue.is_empty() {
        router.parked.remove(&(round, peer));
    }
    bytes
}

/// Master-side inference policy.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Wall-clock budget for one round's gather leg: all workers' replies
    /// (and all discard-and-rewait cycles for stale or corrupt traffic)
    /// share this one deadline.
    pub worker_timeout: Duration,
    /// If `false`, a worker timing out merely removes it from the
    /// candidate set (degraded collaborative inference); if `true`, the
    /// inference fails.
    pub require_all_workers: bool,
    /// Optional per-node entropy weights δ* (Eq. 1 with converged control
    /// variables; see [`crate::TeamNet::set_calibration`]), indexed by
    /// node id. `None` means the plain arg-min of the paper's Figure 4.
    pub calibration: Option<Vec<f32>>,
    /// Failure-detector policy (quarantine threshold, probe cadence).
    pub failure: FailureDetectorConfig,
    /// Retry schedule for broadcast/probe sends.
    pub send_retry: RetryPolicy,
    /// Clock driving deadline budgets and backoff sleeps. Defaults to the
    /// system clock; tests inject a [`teamnet_net::ManualClock`] to walk
    /// timeouts in virtual time instead of sleeping.
    pub clock: Arc<dyn Clock>,
    /// Observability handle. Defaults to [`Obs::disabled`]: spans cost one
    /// branch, while protocol counters (`round.*`, `detector.transitions`)
    /// still accumulate in the registry. Pass an [`Obs::new`] built over
    /// the *same* clock as `clock` for a coherent timeline (DESIGN.md
    /// §12).
    pub obs: Obs,
    /// Seed for the deterministic per-round trace ids
    /// ([`teamnet_net::derive_trace_id`]): two sessions configured with
    /// the same seed emit byte-identical trace ids round for round, so
    /// cross-node traces from identical seeded runs assemble identically.
    pub trace_seed: u64,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            worker_timeout: Duration::from_secs(10),
            require_all_workers: true,
            calibration: None,
            failure: FailureDetectorConfig::default(),
            send_retry: RetryPolicy::default(),
            clock: Arc::new(SystemClock),
            obs: Obs::disabled(),
            trace_seed: 0,
        }
    }
}

/// Runs a local expert on an input batch, producing the `[n, 2]` result
/// matrix of `(label, entropy)` rows that crosses the network.
///
/// A row whose predictive distribution fails validation (a diverged or
/// numerically broken expert) reports infinite entropy: the node stays in
/// the collaboration but can never win a row, instead of panicking
/// mid-inference and taking the whole cluster down with it.
pub fn local_results(expert: &mut Sequential, images: &Tensor) -> Vec<(usize, f32)> {
    let probs = expert.forward(images, Mode::Eval).softmax_rows();
    let n = probs.dims().first().copied().unwrap_or(0);
    (0..n)
        .map(|r| {
            let row = probs.row(r);
            (
                teamnet_tensor::argmax_slice(row),
                entropy(row).unwrap_or(f32::INFINITY),
            )
        })
        .collect()
}

/// Encodes a `(label, entropy)` result matrix for the wire (the payload
/// that travels inside a [`PayloadKind::Result`] envelope).
pub fn encode_results(results: &[(usize, f32)]) -> Vec<u8> {
    let flat: Vec<f32> = results.iter().flat_map(|&(l, h)| [l as f32, h]).collect();
    encode_f32s(&[results.len(), 2], &flat)
}

/// Decodes a result matrix produced by [`encode_results`].
///
/// # Errors
///
/// [`NetError::Malformed`] for anything that is not an `[n, 2]` matrix.
pub fn decode_results(bytes: &[u8]) -> Result<Vec<(usize, f32)>, NetError> {
    let (dims, data) = decode_f32s(bytes)?;
    if dims.len() != 2 || dims.get(1) != Some(&2) {
        return Err(NetError::Malformed(format!("result matrix dims {dims:?}")));
    }
    data.chunks_exact(2)
        .filter_map(|p| p.first_chunk::<2>())
        .map(|&[label, h]| {
            // A label is a class index: a negative, fractional or NaN one
            // is rejected, not silently rounded into some class.
            let class = label as usize;
            if (class as f32).to_bits() == label.to_bits() {
                Ok((class, h))
            } else {
                Err(NetError::Malformed(format!("result label {label}")))
            }
        })
        .collect()
}

/// Marker opening a multi-expert result set on the wire. Unambiguous
/// against the legacy single-matrix encoding, whose leading `u32` is a
/// tensor rank and therefore always tiny.
const RESULT_SET_SENTINEL: u32 = 0xFFFF_FFFF;

/// Encodes results from several experts hosted on one node:
/// `sentinel: u32 | count: u32 | per expert (expert_id: u32 | len: u32 |`
/// [`encode_results`] bytes`)`.
///
/// Workers hosting only their own expert keep sending the legacy
/// [`encode_results`] matrix byte-for-byte — the certified
/// `wire_result_bytes` of DESIGN.md §13 stays honest, and a recovery-free
/// session is wire-identical to the pre-recovery protocol.
pub fn encode_result_set(set: &[(u32, Vec<(usize, f32)>)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&RESULT_SET_SENTINEL.to_le_bytes());
    out.extend_from_slice(&(set.len() as u32).to_le_bytes());
    for (expert, results) in set {
        let bytes = encode_results(results);
        out.extend_from_slice(&expert.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Decodes a result payload into per-expert result matrices. A legacy
/// single-matrix payload (no sentinel) is attributed to `sender` — the
/// worker's own expert.
///
/// # Errors
///
/// [`NetError::Malformed`] for truncated sets or undecodable matrices.
pub fn decode_result_set(
    bytes: &[u8],
    sender: usize,
) -> Result<Vec<(usize, Vec<(usize, f32)>)>, NetError> {
    let mut r = WireReader::new(bytes);
    if r.u32().ok() != Some(RESULT_SET_SENTINEL) {
        return Ok(vec![(sender, decode_results(bytes)?)]);
    }
    let count = r.u32()?;
    if count > 4096 {
        return Err(NetError::Malformed(format!(
            "implausible result set of {count} experts"
        )));
    }
    let mut set = Vec::new();
    for _ in 0..count {
        let expert = r.u32()? as usize;
        set.push((expert, decode_results(r.section()?)?));
    }
    r.finish()?;
    Ok(set)
}

/// Counters kept by a worker's serve loop, returned when the loop exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Input batches answered with a result matrix.
    pub rounds_served: u64,
    /// Readmission probes acknowledged.
    pub probes_answered: u64,
    /// Batches skipped because they failed envelope or tensor decoding
    /// (corrupt or malformed traffic); the loop keeps serving.
    pub malformed_skipped: u64,
    /// Expert-transfer offers this worker admitted (DESIGN.md §14).
    pub loads_accepted: u64,
    /// Expert-transfer offers refused by the local [`HostBudget`].
    pub loads_refused: u64,
    /// Transfer chunks received (including duplicates re-acknowledged by
    /// the stop-and-wait ARQ).
    pub chunks_received: u64,
}

/// Worker-side policy for [`serve_worker_with_config`].
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Observability handle (defaults to [`Obs::disabled`]).
    pub obs: Obs,
    /// Memory honesty check for hosting migrated experts: an offer whose
    /// certified `required_resident_bytes` exceeds this budget's spare is
    /// refused regardless of what the master believed. Defaults to
    /// [`HostBudget::unlimited`].
    pub budget: HostBudget,
}

/// Serves a worker node: waits for input broadcasts from `master`, runs
/// the local `expert`, returns round-stamped results, until a shutdown
/// message arrives. Probes are acknowledged immediately; corrupt or
/// malformed batches are counted and skipped — one bad frame must not
/// take a worker out of the team.
///
/// Equivalent to [`serve_worker_with_config`] with the default
/// [`WorkerConfig`]: the returned [`WorkerStats`] carry the counters
/// either way.
///
/// # Errors
///
/// Returns transport failures other than a clean shutdown/close.
pub fn serve_worker(
    transport: &dyn Transport,
    master: usize,
    expert: &mut Sequential,
) -> Result<WorkerStats, NetError> {
    serve_worker_with_config(transport, master, expert, WorkerConfig::default())
}

/// [`serve_worker`] with full policy control, including multi-expert
/// hosting for the recovery protocol (DESIGN.md §14): besides answering
/// input broadcasts with its own expert, the worker admits
/// [`PayloadKind::LoadExpert`] offers against its [`HostBudget`],
/// reassembles chunked transfers (resumably — the in-flight
/// [`PartialLoad`] survives across loop iterations), and once an expert is
/// resident fans every input through it too, returning a demuxable
/// per-expert result set so the master's argmin-entropy still sees the
/// full team.
///
/// The config's [`Obs`] mirrors every [`WorkerStats`] counter into the
/// registry live (`worker.rounds_served`, `worker.probes_answered`,
/// `worker.malformed_skipped`) and traces each served batch as a
/// `worker.forward` span.
///
/// # Errors
///
/// Returns transport failures other than a clean shutdown/close.
pub fn serve_worker_with_config(
    transport: &dyn Transport,
    master: usize,
    expert: &mut Sequential,
    config: WorkerConfig,
) -> Result<WorkerStats, NetError> {
    const POLL: Duration = Duration::from_millis(50);
    let obs = &config.obs;
    let me = transport.node_id();
    let c_rounds = obs.metrics.counter("worker.rounds_served");
    let c_probes = obs.metrics.counter("worker.probes_answered");
    let c_malformed = obs.metrics.counter("worker.malformed_skipped");
    let c_loads = obs.metrics.counter("worker.loads_accepted");
    let c_refused = obs.metrics.counter("worker.loads_refused");
    let m_alloc = AllocMeters::register(&obs.metrics, &format!("expert.{me}"));
    // All protocol decisions live in the pure state machine (DESIGN.md
    // §15); this shell owns the transport, the shutdown poll, the model
    // forwards/installs behind [`fsm::WorkerHooks`], and mirrors the
    // FSM's counters into the live registry.
    let mut machine = fsm::WorkerFsm::new(master, config.budget);
    let mut hooks = ServeHooks {
        me,
        expert,
        hosted: BTreeMap::new(),
        obs,
        m_alloc: &m_alloc,
    };
    loop {
        // Check for shutdown first so it cannot starve behind inputs.
        match transport.recv(master, TAG_SHUTDOWN, Duration::from_millis(1)) {
            Ok(_) => return Ok(machine.stats()),
            Err(NetError::Timeout { .. }) => {}
            Err(NetError::Closed) => return Ok(machine.stats()),
            Err(e) => return Err(e),
        }
        let bytes = match transport.recv(master, TAG_INPUT, POLL) {
            Ok(bytes) => bytes,
            Err(NetError::Timeout { .. }) => continue,
            Err(NetError::Closed) => return Ok(machine.stats()),
            Err(e) => return Err(e),
        };
        // A traced frame re-parents this worker's handling onto the
        // master's sending span: the `worker.handle` enter event carries
        // the remote parent (`trace`/`rpeer`/`rparent`), which is what
        // `trace-assemble` uses to graft this node's spans into the
        // master's round (DESIGN.md §17). Untraced frames take the
        // wire-identical legacy path.
        let in_ctx = peek_trace(&bytes);
        if let Some(ctx) = in_ctx {
            obs.tracer
                .recv_event("input", master as u64, ctx, bytes.len() as u64);
        }
        let _handle_span = in_ctx.map(|ctx| {
            obs.span(
                "worker.handle",
                &[
                    ("trace", ctx.trace_id),
                    ("rpeer", master as u64),
                    ("rparent", ctx.parent_span),
                ],
            )
        });
        let before = machine.stats();
        let replies = machine.step(&bytes, &mut hooks)?;
        let after = machine.stats();
        c_rounds.add(after.rounds_served - before.rounds_served);
        c_probes.add(after.probes_answered - before.probes_answered);
        c_malformed.add(after.malformed_skipped - before.malformed_skipped);
        c_loads.add(after.loads_accepted - before.loads_accepted);
        c_refused.add(after.loads_refused - before.loads_refused);
        for msg in replies {
            let (payload, reply_ctx) = match in_ctx {
                Some(ctx) => {
                    let reply_ctx = obs.tracer.current_ctx(ctx.trace_id);
                    (msg.encode_traced(reply_ctx), Some(reply_ctx))
                }
                None => (msg.encode(), None),
            };
            match transport.send(msg.to, msg.tag, &payload) {
                Ok(()) => {
                    if let Some(ctx) = reply_ctx {
                        obs.tracer
                            .send_event("result", msg.to as u64, ctx, payload.len() as u64);
                    }
                }
                Err(NetError::Closed) => return Ok(machine.stats()),
                Err(e) => return Err(e),
            }
        }
    }
}

/// The IO side of the worker serve loop, injected into
/// [`fsm::WorkerFsm::step`]: runs the real forward passes and
/// materializes hosted experts, while every protocol decision stays in
/// the state machine.
struct ServeHooks<'a> {
    me: usize,
    expert: &'a mut Sequential,
    /// Migrated experts resident on this node, keyed by expert id (the
    /// FSM tracks their budget charges).
    hosted: BTreeMap<u32, Sequential>,
    obs: &'a Obs,
    m_alloc: &'a AllocMeters,
}

impl fsm::WorkerHooks for ServeHooks<'_> {
    fn forward(&mut self, input_payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let images = decode_f32s(input_payload).and_then(|(dims, data)| {
            Tensor::from_vec(data, dims)
                .map_err(|e| NetError::Malformed(format!("input tensor: {e}")))
        })?;
        // A CRC-valid input can still carry a shape no resident expert
        // accepts; reject it here, where the FSM counts it as malformed,
        // instead of letting a layer's forward panic on it.
        for model in std::iter::once(&*self.expert).chain(self.hosted.values()) {
            model
                .check_shape(images.dims())
                .map_err(|e| NetError::Malformed(format!("input tensor: {e}")))?;
        }
        let rows = images.dims().first().copied().unwrap_or(0);
        let _forward_span = self.obs.span("worker.forward", &[("rows", rows as u64)]);
        // Honesty check against the static certificate: count what this
        // forward actually allocates (DESIGN.md §13).
        let mem = MemScope::begin();
        let results = local_results(self.expert, &images);
        let payload = if self.hosted.is_empty() {
            // Wire-identical to the pre-recovery protocol — and to the
            // certified `wire_result_bytes`.
            encode_results(&results)
        } else {
            // Fan the batch through every hosted expert; the master
            // demuxes by expert id.
            let mut set: Vec<(u32, Vec<(usize, f32)>)> = vec![(self.me as u32, results)];
            for (&id, model) in self.hosted.iter_mut() {
                set.push((id, local_results(model, &images)));
            }
            encode_result_set(&set)
        };
        let mem_stats = mem.stats();
        self.m_alloc
            .record(mem_stats.allocated_bytes, mem_stats.peak_bytes);
        Ok(payload)
    }

    fn install(
        &mut self,
        expert: u32,
        manifest: &TransferManifest,
        state: &[u8],
    ) -> Result<(), NetError> {
        let (model, _resident) = crate::recover::build_from_state(manifest, state)?;
        self.hosted.insert(expert, model);
        Ok(())
    }

    fn evict(&mut self, expert: u32) {
        self.hosted.remove(&expert);
    }
}

/// A multi-round master-side inference session: owns the round counter and
/// the [`FailureDetector`], so peer health carries across rounds.
///
/// Hold one session for a stream of inferences, so that a dead worker
/// stops costing a full timeout on every single round. Round stamps are
/// globally unique, so even a fresh session per call over the same
/// transport can never consume an earlier call's late reply.
#[derive(Debug)]
pub struct InferenceSession {
    config: MasterConfig,
    detector: FailureDetector,
    /// Session-local round index: unlike the process-global stamp it is
    /// identical across identical runs, so it is what trace spans carry.
    rounds: u64,
    c_send_retries: Counter,
    c_stale: Counter,
    c_corrupt: Counter,
    c_malformed: Counter,
    c_parked: Counter,
    c_rescued: Counter,
    m_alloc: AllocMeters,
    recovery: Option<RecoveryManager>,
    /// Per-round latency attribution (DESIGN.md §17): the same
    /// compute / wire / wait / retry split `trace-assemble` derives from
    /// the cross-node DAG, measured locally so it is available even
    /// without per-node sinks.
    h_attr_compute: Arc<teamnet_obs::Histogram>,
    h_attr_wire: Arc<teamnet_obs::Histogram>,
    h_attr_wait: Arc<teamnet_obs::Histogram>,
    h_attr_retry: Arc<teamnet_obs::Histogram>,
}

impl InferenceSession {
    /// Creates a session for the cluster behind `transport`.
    pub fn new(transport: &dyn Transport, config: MasterConfig) -> Self {
        let mut detector = FailureDetector::with_clock(
            transport.num_nodes(),
            config.failure.clone(),
            Arc::clone(&config.clock),
        );
        detector.set_transition_counter(config.obs.metrics.counter("detector.transitions"));
        let c_send_retries = config.obs.metrics.counter("round.send.retries");
        let c_stale = config.obs.metrics.counter("round.stale_discarded");
        let c_corrupt = config.obs.metrics.counter("round.corrupt_discarded");
        let c_malformed = config.obs.metrics.counter("round.malformed_discarded");
        let c_parked = config.obs.metrics.counter("round.cross_session_parked");
        let c_rescued = config.obs.metrics.counter("round.cross_session_rescued");
        let m_alloc = AllocMeters::register(
            &config.obs.metrics,
            &format!("expert.{}", transport.node_id()),
        );
        let h_attr_compute = config.obs.metrics.histogram("round.attr.compute.ns");
        let h_attr_wire = config.obs.metrics.histogram("round.attr.wire.ns");
        let h_attr_wait = config.obs.metrics.histogram("round.attr.wait.ns");
        let h_attr_retry = config.obs.metrics.histogram("round.attr.retry.ns");
        InferenceSession {
            config,
            detector,
            rounds: 0,
            c_send_retries,
            c_stale,
            c_corrupt,
            c_malformed,
            c_parked,
            c_rescued,
            m_alloc,
            recovery: None,
            h_attr_compute,
            h_attr_wire,
            h_attr_wait,
            h_attr_retry,
        }
    }

    /// Read access to peer health between rounds.
    pub fn detector(&self) -> &FailureDetector {
        &self.detector
    }

    /// Arms failure-backtracking expert re-placement (DESIGN.md §14): the
    /// manager's registered experts are migrated to surviving hosts with
    /// certified spare memory whenever the failure detector quarantines
    /// their current host, and handed back on readmission. The recovery
    /// pass runs at the end of every [`InferenceSession::infer`] round.
    pub fn set_recovery(&mut self, manager: RecoveryManager) {
        self.recovery = Some(manager);
    }

    /// Read access to the recovery manager, if armed.
    pub fn recovery(&self) -> Option<&RecoveryManager> {
        self.recovery.as_ref()
    }

    /// Sends `payload` to `peer` with bounded retries + backoff inside
    /// `deadline`. Returns `(delivered, retry_ns)` — whether the send
    /// ever succeeded plus the nanoseconds spent in backoff sleeps, so
    /// the round can attribute that time to `retry` rather than `wire`.
    fn send_retrying(
        &self,
        transport: &dyn Transport,
        peer: usize,
        payload: &[u8],
        round: u64,
        deadline: Instant,
    ) -> Result<(bool, u64), NetError> {
        let seed = round ^ ((peer as u64) << 48);
        let mut backoff = Backoff::with_clock(
            self.config.send_retry.clone(),
            seed,
            deadline,
            Arc::clone(&self.config.clock),
        );
        let mut retry_ns = 0u64;
        loop {
            // Pass-through: `payload` arrives pre-stamped by the caller
            // (the broadcast loop attaches the round's trace context).
            // lint: allow(trace-propagation)
            match transport.send(peer, TAG_INPUT, payload) {
                Ok(()) => return Ok((true, retry_ns)),
                Err(e @ (NetError::UnknownPeer(_) | NetError::Closed)) => {
                    if self.config.require_all_workers {
                        return Err(e);
                    }
                    return Ok((false, retry_ns));
                }
                Err(e) => match backoff.next_delay() {
                    Some(delay) => {
                        self.c_send_retries.inc();
                        // The backoff sleep gets its own span so the
                        // assembled critical path can blame retries, not
                        // the wire, for the stall.
                        let _retry_span = self
                            .config
                            .obs
                            .span("retry.backoff", &[("peer", peer as u64)]);
                        // Measure on the tracer clock so attribution stays
                        // deterministic when the tracer runs virtual time.
                        let before = self.config.obs.tracer.now_ns();
                        self.config.clock.sleep(delay);
                        let slept = self.config.obs.tracer.now_ns().saturating_sub(before);
                        retry_ns = retry_ns.saturating_add(slept);
                    }
                    None => {
                        if self.config.require_all_workers {
                            return Err(e);
                        }
                        return Ok((false, retry_ns));
                    }
                },
            }
        }
    }

    /// One fault-tolerant collaborative inference round.
    ///
    /// Broadcasts `images` to every live peer, probes quarantined peers
    /// whose probe is due, evaluates the local `expert` while workers
    /// compute, gathers round-stamped replies under one deadline budget
    /// (discarding stale and corrupt traffic), folds the evidence into the
    /// failure detector, and returns predictions plus per-peer health.
    ///
    /// # Errors
    ///
    /// With `require_all_workers` set: [`NetError::Timeout`] when a
    /// contacted worker misses the deadline, [`NetError::Malformed`] /
    /// [`NetError::Corrupt`] when a reply is undecodable, and send
    /// failures. In degraded mode those all demote the peer instead.
    pub fn infer(
        &mut self,
        transport: &dyn Transport,
        expert: &mut Sequential,
        images: &Tensor,
    ) -> Result<InferenceReport, NetError> {
        let result = self.infer_inner(transport, expert, images);
        if result.is_err() {
            // Round failed: dump the flight-recorder ring (if armed) with
            // the failure as its final event, so the last N trace events
            // before the anomaly survive even when no full sink is wired.
            let round_idx = self.rounds.saturating_sub(1);
            let _ = self
                .config
                .obs
                .flight_dump("flight.round_failed", &[("round_idx", round_idx)]);
        }
        result
    }

    fn infer_inner(
        &mut self,
        transport: &dyn Transport,
        expert: &mut Sequential,
        images: &Tensor,
    ) -> Result<InferenceReport, NetError> {
        let me = transport.node_id();
        let num_nodes = transport.num_nodes();
        let n = images.dims().first().copied().unwrap_or(0);
        let round = next_round();
        // Register with the cross-session router before any send: once the
        // broadcast is out, a reply can race back — possibly into a
        // concurrent sibling session's recv. The RAII guard unregisters on
        // every exit path.
        let _registration = RoundRegistration::new(round);
        // Spans carry the session-local index, not the process-global
        // stamp: two identical seeded sessions must emit identical traces
        // even when other sessions in the process consumed stamps first.
        let session_round = self.rounds;
        self.rounds += 1;
        let obs = self.config.obs.clone();
        // Trace id for the round: deterministic in (seed, session round),
        // so identical seeded runs stamp identical ids (DESIGN.md §17).
        let traced = obs.enabled();
        let trace_id = derive_trace_id(self.config.trace_seed, session_round);
        // Attribution reads the *tracer's* clock, never `config.clock`:
        // the two may differ (deterministic soaks pin the tracer to a
        // ManualClock), and a wall-clock read here would make the traced
        // metrics diverge between identical seeded runs.
        let t_round = obs.tracer.now_ns();
        let mut attr_retry_ns = 0u64;
        // The `trace` field on the round span is what the assembler's
        // critical-path sweep keys cross-node membership on.
        let _round_span = obs.span(
            "round",
            &[
                ("round_idx", session_round),
                ("rows", n as u64),
                ("trace", trace_id),
            ],
        );

        // Plan and broadcast. Quarantined peers are skipped outright;
        // probe-due peers get a 16-byte probe instead of the full batch.
        let send_deadline = self.config.clock.now() + self.config.worker_timeout;
        let mut plans: Vec<ContactPlan> = vec![ContactPlan::Skip; num_nodes];
        let mut sent: Vec<bool> = vec![false; num_nodes];
        // Untraced runs share one pre-encoded frame per kind —
        // byte-identical to wire v1 and to the certified cost model.
        // Traced runs re-encode per peer so each frame carries a
        // [`TraceContext`] parented on that peer's `round.send` span
        // (`with_trace`), making the worker's handling span a causal
        // child of this round in the assembled cross-node DAG.
        let input_env = Envelope::new(
            round,
            PayloadKind::Input,
            encode_f32s(images.dims(), images.data()),
        );
        let probe_env = Envelope::new(round, PayloadKind::Probe, Vec::new());
        let input_payload = input_env.encode();
        let probe_payload = probe_env.encode();
        let t_broadcast = obs.tracer.now_ns();
        {
            let _broadcast_span = obs.span("round.broadcast", &[]);
            for peer in 0..num_nodes {
                if peer == me {
                    continue;
                }
                let plan = self.detector.plan(peer);
                let (env, shared, kind_name) = match plan {
                    ContactPlan::Full => (&input_env, &input_payload, "input"),
                    ContactPlan::Probe => (&probe_env, &probe_payload, "probe"),
                    ContactPlan::Skip => {
                        if let Some(p) = plans.get_mut(peer) {
                            *p = plan;
                        }
                        continue;
                    }
                };
                let ok = if traced {
                    let _send_span = obs.span(
                        "round.send",
                        &[
                            ("peer", peer as u64),
                            ("bytes", (shared.len() + TRACE_EXT_LEN) as u64),
                        ],
                    );
                    let ctx = obs.tracer.current_ctx(trace_id);
                    let payload = env.clone().with_trace(ctx).encode();
                    let (ok, retry_ns) =
                        self.send_retrying(transport, peer, &payload, round, send_deadline)?;
                    attr_retry_ns = attr_retry_ns.saturating_add(retry_ns);
                    if ok {
                        obs.tracer
                            .send_event(kind_name, peer as u64, ctx, payload.len() as u64);
                    }
                    ok
                } else {
                    let _send_span = obs.span(
                        "round.send",
                        &[("peer", peer as u64), ("bytes", shared.len() as u64)],
                    );
                    let (ok, retry_ns) =
                        self.send_retrying(transport, peer, shared, round, send_deadline)?;
                    attr_retry_ns = attr_retry_ns.saturating_add(retry_ns);
                    ok
                };
                if let (Some(p), Some(s)) = (plans.get_mut(peer), sent.get_mut(peer)) {
                    *p = plan;
                    *s = ok;
                }
            }
        }
        let broadcast_ns = obs.tracer.now_ns().saturating_sub(t_broadcast);

        // Local expert runs while the workers compute. Selection compares
        // δ*-weighted entropies; reported entropy stays raw.
        let t_forward = obs.tracer.now_ns();
        let local = {
            let _forward_span = obs.span("expert.forward", &[("rows", n as u64)]);
            // Honesty check against the static certificate: count what the
            // local expert's forward actually allocates (DESIGN.md §13).
            let mem = MemScope::begin();
            let local = local_results(expert, images);
            let stats = mem.stats();
            self.m_alloc.record(stats.allocated_bytes, stats.peak_bytes);
            local
        };
        let compute_ns = obs.tracer.now_ns().saturating_sub(t_forward);
        // Frame classification and the running argmin fold live in the
        // pure gather state machine (DESIGN.md §15); this shell owns the
        // transport waits, the deadline budget and the counters.
        let mut gather = fsm::GatherFsm::new(
            round,
            me,
            n,
            local,
            self.config.calibration.clone(),
            self.config.require_all_workers,
        );

        // Gather leg: one deadline budget shared by every wait, including
        // re-waits after discarding stale/corrupt/malformed traffic.
        let deadline = self.config.clock.now() + self.config.worker_timeout;
        let mut responded: Vec<bool> = vec![false; num_nodes];
        let mut stale_discarded = 0u64;
        let mut corrupt_discarded = 0u64;
        let mut malformed_discarded = 0u64;
        let _gather_span = obs.span("round.gather", &[]);
        for peer in 0..num_nodes {
            let plan = plans.get(peer).copied().unwrap_or(ContactPlan::Skip);
            if peer == me || plan == ContactPlan::Skip {
                continue;
            }
            if !sent.get(peer).copied().unwrap_or(false) {
                continue; // send never went out: counts as a miss below
            }
            let _await_span = obs.span("gather.await", &[("peer", peer as u64)]);
            let got = loop {
                // A sibling session may already have consumed this peer's
                // reply and parked it for us; the router is checked before
                // every blocking wait and once more after a timeout.
                let bytes = match take_parked(round, peer) {
                    Some(bytes) => {
                        self.c_rescued.inc();
                        bytes
                    }
                    None => {
                        let remaining = deadline.saturating_duration_since(self.config.clock.now());
                        match transport.recv(peer, TAG_RESULT, remaining) {
                            Ok(bytes) => bytes,
                            Err(NetError::Timeout { .. }) => match take_parked(round, peer) {
                                Some(bytes) => {
                                    self.c_rescued.inc();
                                    bytes
                                }
                                None => break false,
                            },
                            Err(e) => return Err(e),
                        }
                    }
                };
                // A traced reply carries the worker's sending span; the
                // recv event is the receive half of the wire edge.
                if let Some(ctx) = peek_trace(&bytes) {
                    obs.tracer
                        .recv_event("result", peer as u64, ctx, bytes.len() as u64);
                }
                match gather.step(peer, &bytes) {
                    fsm::GatherVerdict::Fatal(e) => return Err(e),
                    fsm::GatherVerdict::Discarded(fsm::GatherDiscard::Stale { seen }) => {
                        // Stamped for a concurrent sibling session's round?
                        // Route it there instead of dropping it.
                        if park_for_round(seen, peer, bytes) {
                            self.c_parked.inc();
                        } else {
                            stale_discarded += 1;
                            self.c_stale.inc();
                        }
                    }
                    fsm::GatherVerdict::Discarded(fsm::GatherDiscard::Corrupt) => {
                        corrupt_discarded += 1;
                        self.c_corrupt.inc();
                    }
                    fsm::GatherVerdict::Discarded(fsm::GatherDiscard::Malformed) => {
                        malformed_discarded += 1;
                        self.c_malformed.inc();
                    }
                    fsm::GatherVerdict::Accepted { folded } => {
                        if folded {
                            // The argmin fold ran inside the pure state
                            // machine; emit the span here so traces keep
                            // the per-peer fold event.
                            let _argmin_span = obs.span("entropy.argmin", &[("peer", peer as u64)]);
                        }
                        break true;
                    }
                }
            };
            if let Some(r) = responded.get_mut(peer) {
                *r = got;
            }
            if !got && self.config.require_all_workers {
                return Err(NetError::Timeout {
                    waiting_for: format!("results from worker {peer} (round {round})"),
                });
            }
        }
        drop(_gather_span);
        let best = gather.into_predictions();

        // Fold the round's evidence into the detector.
        for peer in 0..num_nodes {
            let plan = plans.get(peer).copied().unwrap_or(ContactPlan::Skip);
            let contacted = peer != me && plan != ContactPlan::Skip;
            let answered = responded.get(peer).copied().unwrap_or(false);
            if contacted {
                if answered {
                    self.detector.record_success(peer);
                } else {
                    let before = self.detector.health(peer);
                    self.detector.record_miss(peer);
                    if before != PeerHealth::Quarantined
                        && self.detector.health(peer) == PeerHealth::Quarantined
                    {
                        // A peer just crossed into quarantine: dump the
                        // flight-recorder ring (if armed) with this
                        // transition as its final event.
                        let _ = obs.flight_dump(
                            "flight.quarantine",
                            &[("peer", peer as u64), ("round_idx", session_round)],
                        );
                    }
                }
            }
        }

        // Recovery pass (DESIGN.md §14): with the round's quarantine
        // decisions made, hand experts back to readmitted homes and
        // re-place orphans of quarantined hosts, so the *next* round's
        // gather already sees full team coverage.
        let health: Vec<PeerHealth> = (0..num_nodes)
            .map(|p| {
                if p == me {
                    PeerHealth::Live
                } else {
                    self.detector.health(p)
                }
            })
            .collect();
        if let Some(recovery) = self.recovery.as_mut() {
            // Recovery transfers inherit the round's trace id, so their
            // frames (and the worker spans handling them) stay causal
            // children of this round in the assembled DAG.
            recovery.tick_traced(transport, me, &health, traced.then_some(trace_id));
        }
        let expert_hosts = self
            .recovery
            .as_ref()
            .map(RecoveryManager::expert_hosts)
            .unwrap_or_default();
        let migrations = self
            .recovery
            .as_ref()
            .map_or(0, RecoveryManager::migrations);

        // Snapshot per-peer health for the report.
        let mut peers = BTreeMap::new();
        for peer in 0..num_nodes {
            let plan = plans.get(peer).copied().unwrap_or(ContactPlan::Skip);
            let contacted = peer != me && plan != ContactPlan::Skip;
            let answered = responded.get(peer).copied().unwrap_or(false);
            peers.insert(
                peer,
                PeerReport {
                    health: health.get(peer).copied().unwrap_or(PeerHealth::Quarantined),
                    contacted: contacted || peer == me,
                    probed: plan == ContactPlan::Probe,
                    responded: answered || peer == me,
                    consecutive_misses: self.detector.misses(peer),
                    hosted_experts: expert_hosts
                        .iter()
                        .filter(|&(&e, &h)| h == peer && e != peer)
                        .map(|(&e, _)| e)
                        .collect(),
                },
            );
        }

        // Local latency attribution for the round (the cheap, single-node
        // counterpart of `trace-assemble`'s cross-node critical path):
        // wire = broadcast minus backoff sleeps, compute = the local
        // forward, wait = everything else (dominated by the gather leg).
        let wall_ns = obs.tracer.now_ns().saturating_sub(t_round);
        let wire_ns = broadcast_ns.saturating_sub(attr_retry_ns);
        let wait_ns = wall_ns
            .saturating_sub(broadcast_ns)
            .saturating_sub(compute_ns);
        // Only traced sessions feed these: a disabled tracer falls back
        // to wall time, which would poison deterministic metric pins.
        if traced {
            self.h_attr_compute.observe(compute_ns);
            self.h_attr_wire.observe(wire_ns);
            self.h_attr_wait.observe(wait_ns);
            self.h_attr_retry.observe(attr_retry_ns);
        }

        Ok(InferenceReport {
            round,
            predictions: best,
            peers,
            stale_discarded,
            corrupt_discarded,
            malformed_discarded,
            expert_hosts,
            migrations,
        })
    }
}

/// Asks every worker served by [`serve_worker`] to exit.
///
/// # Errors
///
/// Propagates transport send failures.
pub fn shutdown_workers(transport: &dyn Transport) -> Result<(), NetError> {
    let me = transport.node_id();
    for peer in 0..transport.num_nodes() {
        if peer != me {
            transport.send(peer, TAG_SHUTDOWN, &[])?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert::build_expert;
    use crate::recover::{AckStatus, LoadAckMsg, LoadChunkMsg, LoadExpertMsg};
    use crossbeam::thread;
    use teamnet_net::ChannelTransport;
    use teamnet_nn::ModelSpec;

    fn expert(seed: u64) -> Sequential {
        build_expert(&ModelSpec::mlp(2, 16), seed)
    }

    #[test]
    fn results_codec_roundtrip() {
        let results = vec![(3usize, 0.5f32), (9, 1.25)];
        let decoded = decode_results(&encode_results(&results)).unwrap();
        assert_eq!(decoded, results);
        assert!(decode_results(&[1, 2, 3]).is_err());
    }

    #[test]
    fn round_stamps_are_process_unique() {
        let a = next_round();
        let b = next_round();
        assert!(b > a);
    }

    #[test]
    fn distributed_matches_local_team() {
        // A 3-node cluster must produce exactly the same predictions as an
        // in-process TeamNet with the same experts.
        let nodes = ChannelTransport::mesh(3);
        let images = Tensor::rand_uniform(
            [4, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9),
        );

        let mut local_team = crate::team::TeamNet::from_experts(
            ModelSpec::mlp(2, 16),
            vec![expert(0), expert(1), expert(2)],
        );
        let expected = local_team.predict(&images);

        let got = thread::scope(|scope| {
            for (i, node) in nodes.iter().enumerate().skip(1) {
                let mut worker_expert = expert(i as u64);
                scope.spawn(move |_| serve_worker(node, 0, &mut worker_expert).unwrap());
            }
            let mut master_expert = expert(0);
            let preds = InferenceSession::new(&nodes[0], MasterConfig::default())
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap()
                .predictions;
            shutdown_workers(&nodes[0]).unwrap();
            preds
        })
        .unwrap();

        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.label, e.label);
            assert_eq!(g.expert, e.expert);
            assert!((g.entropy - e.entropy).abs() < 1e-5);
        }
    }

    #[test]
    fn calibrated_distributed_matches_calibrated_local() {
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::rand_uniform(
            [3, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11),
        );
        let weights = vec![3.0f32, 0.4];
        let mut local_team =
            crate::team::TeamNet::from_experts(ModelSpec::mlp(2, 16), vec![expert(0), expert(1)]);
        local_team.set_calibration(weights.clone());
        let expected = local_team.predict(&images);

        let got = thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve_worker(&nodes[1], 0, &mut worker_expert).unwrap();
            });
            let mut master_expert = expert(0);
            let config = MasterConfig {
                calibration: Some(weights),
                ..MasterConfig::default()
            };
            let preds = InferenceSession::new(&nodes[0], config)
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap()
                .predictions;
            shutdown_workers(&nodes[0]).unwrap();
            preds
        })
        .unwrap();

        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.expert, e.expert);
            assert_eq!(g.label, e.label);
        }
    }

    #[test]
    fn missing_worker_times_out_when_required() {
        let nodes = ChannelTransport::mesh(2);
        let mut master_expert = expert(0);
        let images = Tensor::zeros([1, 1, 28, 28]);
        let config = MasterConfig {
            worker_timeout: Duration::from_millis(50),
            require_all_workers: true,
            ..MasterConfig::default()
        };
        let res =
            InferenceSession::new(&nodes[0], config).infer(&nodes[0], &mut master_expert, &images);
        assert!(matches!(res, Err(NetError::Timeout { .. })), "{res:?}");
    }

    #[test]
    fn missing_worker_degrades_gracefully_when_optional() {
        let nodes = ChannelTransport::mesh(2);
        let mut master_expert = expert(0);
        let images = Tensor::zeros([2, 1, 28, 28]);
        let config = MasterConfig {
            worker_timeout: Duration::from_millis(50),
            require_all_workers: false,
            ..MasterConfig::default()
        };
        let preds = InferenceSession::new(&nodes[0], config)
            .infer(&nodes[0], &mut master_expert, &images)
            .unwrap()
            .predictions;
        assert_eq!(preds.len(), 2);
        // All predictions fall back to the master's own expert.
        assert!(preds.iter().all(|p| p.expert == 0));
    }

    #[test]
    fn works_over_real_tcp() {
        let nodes = teamnet_net::TcpTransport::mesh_localhost(2).unwrap();
        let images = Tensor::rand_uniform(
            [2, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3),
        );
        thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve_worker(&nodes[1], 0, &mut worker_expert).unwrap();
            });
            let mut master_expert = expert(0);
            let preds = InferenceSession::new(&nodes[0], MasterConfig::default())
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap()
                .predictions;
            assert_eq!(preds.len(), 2);
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn worker_survives_multiple_rounds() {
        let nodes = ChannelTransport::mesh(2);
        thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                let stats = serve_worker(&nodes[1], 0, &mut worker_expert).unwrap();
                assert_eq!(stats.rounds_served, 5);
                assert_eq!(stats.malformed_skipped, 0);
            });
            let mut master_expert = expert(0);
            let mut session = InferenceSession::new(&nodes[0], MasterConfig::default());
            for round in 0..5 {
                let images = Tensor::full([1, 1, 28, 28], round as f32 * 0.1);
                let report = session
                    .infer(&nodes[0], &mut master_expert, &images)
                    .unwrap();
                assert_eq!(report.predictions.len(), 1);
            }
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn worker_skips_malformed_batches_and_keeps_serving() {
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::full([1, 1, 28, 28], 0.5);
        thread::scope(|scope| {
            let worker = scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve_worker(&nodes[1], 0, &mut worker_expert).unwrap()
            });
            // Garbage that fails envelope decoding entirely.
            nodes[0].send(1, TAG_INPUT, b"not an envelope").unwrap();
            // A well-formed envelope whose tensor payload is broken.
            let bad_tensor = Envelope::new(999, PayloadKind::Input, vec![7; 9]).encode();
            nodes[0].send(1, TAG_INPUT, &bad_tensor).unwrap();
            // A healthy round must still be answered after both.
            let mut master_expert = expert(0);
            let preds = InferenceSession::new(&nodes[0], MasterConfig::default())
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap()
                .predictions;
            assert_eq!(preds.len(), 1);
            shutdown_workers(&nodes[0]).unwrap();
            let stats = worker.join().unwrap();
            assert_eq!(stats.malformed_skipped, 2);
            assert_eq!(stats.rounds_served, 1);
        })
        .unwrap();
    }

    #[test]
    fn session_report_tracks_peer_health() {
        let nodes = ChannelTransport::mesh(2);
        let images = Tensor::full([1, 1, 28, 28], 0.3);
        thread::scope(|scope| {
            scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve_worker(&nodes[1], 0, &mut worker_expert).unwrap();
            });
            let config = MasterConfig {
                require_all_workers: false,
                ..MasterConfig::default()
            };
            let mut session = InferenceSession::new(&nodes[0], config);
            let mut master_expert = expert(0);
            let report = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(report.predictions.len(), 1);
            assert_eq!(report.peers.len(), 2);
            assert_eq!(report.peers[&1].health, PeerHealth::Live);
            assert!(report.peers[&1].responded);
            assert_eq!(report.responsive_peers(), vec![0, 1]);
            assert_eq!(report.stale_discarded, 0);
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    #[test]
    fn result_set_codec_roundtrip_and_legacy_fallback() {
        let set: Vec<(u32, Vec<(usize, f32)>)> = vec![
            (2, vec![(3, 0.5), (1, 0.25)]),
            (5, vec![(0, 1.5), (9, 0.125)]),
        ];
        let bytes = encode_result_set(&set);
        let decoded = decode_result_set(&bytes, 2).unwrap();
        assert_eq!(
            decoded,
            vec![
                (2usize, vec![(3usize, 0.5f32), (1, 0.25)]),
                (5, vec![(0, 1.5), (9, 0.125)]),
            ]
        );
        // A legacy single-matrix payload attributes to the sender.
        let legacy = encode_results(&[(7, 2.0)]);
        assert_eq!(
            decode_result_set(&legacy, 4).unwrap(),
            vec![(4, vec![(7, 2.0)])]
        );
        // Truncation and trailing garbage are rejected.
        assert!(decode_result_set(&bytes[..bytes.len() - 2], 0).is_err());
        let mut long = bytes.clone();
        long.push(0);
        assert!(decode_result_set(&long, 0).is_err());
    }

    fn recovery_manager(chunk_bytes: usize) -> RecoveryManager {
        let mut mgr = RecoveryManager::new(crate::recover::RecoveryConfig {
            chunk_bytes,
            ack_timeout: Duration::from_secs(2),
            transfer_timeout: Duration::from_secs(10),
            ..crate::recover::RecoveryConfig::default()
        });
        let mut e1 = expert(1);
        let state = teamnet_nn::state_vec(&mut e1);
        mgr.register_expert(1, 1, ModelSpec::mlp(2, 16), &state, 50_000);
        mgr
    }

    fn recovery_master_config() -> MasterConfig {
        MasterConfig {
            worker_timeout: Duration::from_millis(300),
            require_all_workers: false,
            failure: FailureDetectorConfig {
                suspect_after: 1,
                quarantine_after: 1,
                probe_interval: 1,
            },
            ..MasterConfig::default()
        }
    }

    #[test]
    fn quarantined_expert_is_replaced_then_handed_back() {
        let nodes = ChannelTransport::mesh(3);
        let images = Tensor::rand_uniform(
            [2, 1, 28, 28],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(21),
        );
        let mut local_team = crate::team::TeamNet::from_experts(
            ModelSpec::mlp(2, 16),
            vec![expert(0), expert(1), expert(2)],
        );
        let expected = local_team.predict(&images);

        thread::scope(|scope| {
            let worker1 = scope.spawn(|_| {
                let mut e = expert(1);
                serve_worker(&nodes[1], 0, &mut e).unwrap()
            });
            let worker2 = scope.spawn(|_| {
                let mut e = expert(2);
                serve_worker_with_config(
                    &nodes[2],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 1 << 20),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });

            let mut session = InferenceSession::new(&nodes[0], recovery_master_config());
            let mut mgr = recovery_manager(4 * 1024);
            mgr.register_budget(1, HostBudget::new(1 << 30, 1 << 20));
            mgr.register_budget(2, HostBudget::new(1 << 30, 1 << 20));
            session.set_recovery(mgr);
            let mut master_expert = expert(0);

            // Round 1: everyone healthy, no migrations.
            let r1 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(r1.migrations, 0);
            assert_eq!(r1.expert_hosts, [(1, 1)].into_iter().collect());

            // Worker 1 dies; the next round quarantines it and the
            // recovery pass migrates its expert onto worker 2.
            nodes[0].send(1, TAG_SHUTDOWN, &[]).unwrap();
            worker1.join().unwrap();
            let r2 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(r2.peers[&1].health, PeerHealth::Quarantined);
            assert_eq!(r2.migrations, 1);
            assert_eq!(r2.expert_hosts, [(1, 2)].into_iter().collect());
            assert_eq!(r2.peers[&2].hosted_experts, vec![1]);

            // Round 3: full team coverage is restored — the distributed
            // answer matches the 3-expert local team exactly even though
            // node 1 is still being probed, because node 2 now answers
            // for both experts. Node 1 is respawned and acks the probe,
            // so the same round's recovery pass hands the expert back.
            let respawned = scope.spawn(|_| {
                let mut e = expert(1);
                serve_worker(&nodes[1], 0, &mut e).unwrap()
            });
            let r3 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(r3.predictions.len(), expected.len());
            for (g, e) in r3.predictions.iter().zip(&expected) {
                assert_eq!(g.label, e.label);
                assert_eq!(g.expert, e.expert);
                assert!((g.entropy - e.entropy).abs() < 1e-5);
            }
            assert_eq!(r3.peers[&1].health, PeerHealth::Live);
            assert_eq!(r3.expert_hosts, [(1, 1)].into_iter().collect());
            assert_eq!(session.recovery().unwrap().handbacks(), 1);
            assert_eq!(session.recovery().unwrap().migrations(), 1);

            // Round 4: steady state — the home node answers for its own
            // expert again and the team is byte-for-byte itself.
            let r4 = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            for (g, e) in r4.predictions.iter().zip(&expected) {
                assert_eq!(g.label, e.label);
                assert_eq!(g.expert, e.expert);
            }
            assert_eq!(r4.migrations, 1);

            shutdown_workers(&nodes[0]).unwrap();
            let stats2 = worker2.join().unwrap();
            assert_eq!(stats2.loads_accepted, 1);
            assert!(stats2.chunks_received >= 12, "{stats2:?}");
            assert_eq!(stats2.loads_refused, 0);
            respawned.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn refused_offer_backtracks_to_admissible_candidate() {
        // Node 2 has no master-side budget (ranks first as "unknown")
        // but its own HostBudget refuses the expert; node 3 is certified
        // and admits. The master must backtrack 2 → 3 without OOMing
        // anyone.
        let nodes = ChannelTransport::mesh(4);
        let images = Tensor::full([1, 1, 28, 28], 0.4);
        thread::scope(|scope| {
            let tight = scope.spawn(|_| {
                let mut e = expert(2);
                serve_worker_with_config(
                    &nodes[2],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(60_000, 59_000), // spare 1 000 < 50 000
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });
            let roomy = scope.spawn(|_| {
                let mut e = expert(3);
                serve_worker_with_config(
                    &nodes[3],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 0),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });

            let mut session = InferenceSession::new(&nodes[0], recovery_master_config());
            let mut mgr = recovery_manager(8 * 1024);
            mgr.register_budget(3, HostBudget::new(1 << 30, 0));
            session.set_recovery(mgr);
            let mut master_expert = expert(0);

            // Worker 1 never existed: one round quarantines it and runs
            // the refuse → backtrack → admit sequence.
            let report = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(report.peers[&1].health, PeerHealth::Quarantined);
            assert_eq!(report.migrations, 1);
            assert_eq!(report.expert_hosts, [(1, 3)].into_iter().collect());
            let recovery = session.recovery().unwrap();
            assert_eq!(recovery.backtracks(), 1);
            assert_eq!(recovery.migrations(), 1);

            shutdown_workers(&nodes[0]).unwrap();
            let tight_stats = tight.join().unwrap();
            assert_eq!(tight_stats.loads_refused, 1);
            assert_eq!(tight_stats.loads_accepted, 0);
            let roomy_stats = roomy.join().unwrap();
            assert_eq!(roomy_stats.loads_accepted, 1);
        })
        .unwrap();
    }

    #[test]
    fn mid_transfer_failure_rolls_back_and_backtracks() {
        // Node 2 (ranked first by certified spare) accepts the offer but
        // reports failure on the first chunk; the master must abandon it
        // and complete the migration on node 3.
        let nodes = ChannelTransport::mesh(4);
        let images = Tensor::full([1, 1, 28, 28], 0.6);
        thread::scope(|scope| {
            let saboteur = scope.spawn(|_| {
                // Hand-rolled protocol peer: serves round 1 honestly
                // (with hopeless entropy so it never wins a row), accepts
                // the transfer offer, then fails it on the first chunk.
                let node = &nodes[2];
                loop {
                    let bytes = node.recv(0, TAG_INPUT, Duration::from_secs(5)).unwrap();
                    let env = Envelope::decode(&bytes).unwrap();
                    match env.kind {
                        PayloadKind::Input => {
                            let reply = Envelope::new(
                                env.round,
                                PayloadKind::Result,
                                encode_results(&[(0, 1.0e9)]),
                            );
                            node.send(0, TAG_RESULT, &reply.encode()).unwrap();
                        }
                        PayloadKind::LoadExpert => {
                            let msg = LoadExpertMsg::decode(&env.payload).unwrap();
                            let LoadExpertMsg::Offer { expert: id, .. } = msg else {
                                panic!("expected an offer, got {msg:?}");
                            };
                            let accept = LoadAckMsg {
                                expert: id,
                                status: AckStatus::Accept,
                                arg: 0,
                            };
                            let env_out =
                                Envelope::new(env.round, PayloadKind::LoadAck, accept.encode());
                            node.send(0, TAG_RESULT, &env_out.encode()).unwrap();
                        }
                        PayloadKind::LoadChunk => {
                            let msg = LoadChunkMsg::decode(&env.payload).unwrap();
                            let failed = LoadAckMsg {
                                expert: msg.expert,
                                status: AckStatus::Failed,
                                arg: 0,
                            };
                            let env_out =
                                Envelope::new(env.round, PayloadKind::LoadAck, failed.encode());
                            node.send(0, TAG_RESULT, &env_out.encode()).unwrap();
                            return;
                        }
                        other => panic!("unexpected kind {other:?}"),
                    }
                }
            });
            let survivor = scope.spawn(|_| {
                let mut e = expert(3);
                serve_worker_with_config(
                    &nodes[3],
                    0,
                    &mut e,
                    WorkerConfig {
                        budget: HostBudget::new(1 << 30, 0),
                        ..WorkerConfig::default()
                    },
                )
                .unwrap()
            });

            let mut session = InferenceSession::new(&nodes[0], recovery_master_config());
            let mut mgr = recovery_manager(8 * 1024);
            mgr.register_budget(2, HostBudget::new(1 << 30, 0)); // spare ≈ 1 GiB
            mgr.register_budget(3, HostBudget::new(1 << 29, 0)); // spare ≈ 512 MiB
            session.set_recovery(mgr);
            let mut master_expert = expert(0);

            let report = session
                .infer(&nodes[0], &mut master_expert, &images)
                .unwrap();
            assert_eq!(report.migrations, 1);
            assert_eq!(report.expert_hosts, [(1, 3)].into_iter().collect());
            let recovery = session.recovery().unwrap();
            assert_eq!(recovery.backtracks(), 1);

            saboteur.join().unwrap();
            shutdown_workers(&nodes[0]).unwrap();
            let survivor_stats = survivor.join().unwrap();
            assert_eq!(survivor_stats.loads_accepted, 1);
        })
        .unwrap();
    }

    #[test]
    fn probe_ack_is_cheap_and_counted() {
        let nodes = ChannelTransport::mesh(2);
        thread::scope(|scope| {
            let worker = scope.spawn(|_| {
                let mut worker_expert = expert(1);
                serve_worker(&nodes[1], 0, &mut worker_expert).unwrap()
            });
            let probe = Envelope::new(123, PayloadKind::Probe, Vec::new());
            nodes[0].send(1, TAG_INPUT, &probe.encode()).unwrap();
            let ack_bytes = nodes[0]
                .recv(1, TAG_RESULT, Duration::from_secs(2))
                .unwrap();
            let ack = Envelope::decode(&ack_bytes).unwrap();
            assert_eq!(ack.kind, PayloadKind::ProbeAck);
            assert_eq!(ack.round, 123);
            shutdown_workers(&nodes[0]).unwrap();
            let stats = worker.join().unwrap();
            assert_eq!(stats.probes_answered, 1);
        })
        .unwrap();
    }
}
