//! The workloads: real loopback clusters driven through the program's
//! public entry points. Every team is K=4 MLP-2 experts (hidden 128, the
//! COST.json MLP-2 row; the paper's K=4 MNIST team).
//!
//! * `round_mlp` — one caller in a closed loop calling
//!   `InferenceSession::infer` with 1-row inputs over
//!   `TcpTransport::mesh_localhost(4)`; `serve` is bypassed.
//! * `serve_open_mlp` — Poisson arrivals at 400 req/s submitted through
//!   `ServeHandle::submit` by one generator thread, tickets collected on
//!   a second, alternating 1- and 2-row requests, over `ChannelTransport`
//!   with the default `BatcherConfig`: batches of several requests.

use crate::oracle::Oracle;
use crate::stats::mean;
use crate::tap::{NodeRound, TapLayer, TapTransport};
use crate::trace::{Kind, Recorder, Span};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use teamnet_core::build_expert;
use teamnet_core::runtime::{serve_worker, shutdown_workers, InferenceSession, MasterConfig};
use teamnet_core::TeamPrediction;
use teamnet_net::{ChannelTransport, TcpTransport, Transport};
use teamnet_nn::{ModelSpec, Sequential};
use teamnet_serve::{BatcherConfig, ServeConfig, ServeEngine, ServeError, ServeHandle};
use teamnet_tensor::Tensor;

/// A correct reply slower than this does not count toward goodput.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// How long a collector waits on one ticket before counting it timed out.
const TICKET_TIMEOUT: Duration = Duration::from_secs(10);
/// Distinct input rows per run; requests draw from this pool.
const POOL_ROWS: usize = 512;
/// Pool rows the warm-up uses, and the negative control re-checks.
pub const WARM_ROWS: usize = 16;

/// Which cluster and traffic a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Direct `InferenceSession::infer`, one caller.
    Round,
    /// `ServeHandle::submit` on a Poisson schedule at `rate_hz`.
    ServeOpen {
        /// Offered requests per second.
        rate_hz: f64,
    },
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it runs.
    pub family: Family,
}

/// Every workload, in `BENCHMARK.json` order. At 400 req/s a round of
/// the open loop carries about four requests on a 2-core host, and the
/// queue stays flat.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "round_mlp",
        family: Family::Round,
    },
    Workload {
        name: "serve_open_mlp",
        family: Family::ServeOpen { rate_hz: 400.0 },
    },
];

/// Team size: the master and three workers.
const TEAM: usize = 4;

/// Every node's expert architecture: MLP-2, hidden 128.
fn model() -> ModelSpec {
    ModelSpec::mlp(2, 128)
}

impl Family {
    /// Benchmark threads generating or waiting on requests.
    pub fn bench_threads(self) -> usize {
        match self {
            Family::Round => 1,
            // The open loop's generator and collector.
            Family::ServeOpen { .. } => 2,
        }
    }
}

/// Seed of node `node`'s expert for workload seed `seed`.
pub fn expert_seed(seed: u64, node: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (node as u64 + 1)
}

/// Inputs and expected answers, made from the workload seed before any
/// cluster exists.
pub struct Inputs {
    family: Family,
    seed: u64,
    pool: Tensor,
    oracle: Oracle,
    /// Built from wrong expert seeds over the warm-up rows: it must
    /// reject the warm-up replies, or the oracle proves nothing.
    wrong: Oracle,
}

impl Inputs {
    /// Draws the input pool from `teamnet_data`'s generators and replays
    /// the team rule over it.
    pub fn new(family: Family, seed: u64) -> Inputs {
        let mut rng = StdRng::seed_from_u64(seed);
        let pool = teamnet_data::synth_digits(POOL_ROWS, &mut rng)
            .images()
            .clone();
        let model = model();
        let team = |seed: u64| -> Vec<Sequential> {
            (0..TEAM)
                .map(|i| build_expert(&model, expert_seed(seed, i)))
                .collect()
        };
        let oracle = Oracle::new(&mut team(seed), &pool);
        let warm: Vec<usize> = (0..WARM_ROWS).collect();
        let wrong = Oracle::new(&mut team(seed ^ 0x5EED), &pool.select_rows(&warm));
        Inputs {
            family,
            seed,
            pool,
            oracle,
            wrong,
        }
    }

    fn rows(&self) -> usize {
        self.pool.dims()[0]
    }

    fn request(&self, rows: &[usize]) -> Tensor {
        self.pool.select_rows(rows)
    }

    fn expert(&self, node: usize) -> Sequential {
        build_expert(&model(), expert_seed(self.seed, node))
    }
}

/// What one measured phase saw.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Mesh build through warm-up, in seconds.
    pub setup_s: f64,
    /// `(completion second, latency ms)` of each correct reply, ordered
    /// by completion; seconds count from the start of measurement, and an
    /// open-loop latency counts from the request's due time.
    pub samples: Vec<(f64, f64)>,
    /// Requests issued.
    pub attempted: u64,
    /// Rejected, errored, timed-out and wrong replies.
    pub failed: u64,
    /// Of `failed`, the ones admission control refused.
    pub rejected: u64,
    /// Seconds the throughput is measured over.
    pub elapsed_s: f64,
    /// Rows queued at the end of the arrival schedule.
    pub backlog_rows: u64,
    /// Whether the queue grew across the schedule.
    pub backlog_growing: bool,
    /// Whether the warm-up replies failed the wrong-seed oracle, as they
    /// must.
    pub control_rejected: bool,
}

impl Phase {
    /// Latencies of the correct replies, in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.1).collect()
    }

    /// Takes over the collector thread's tally.
    fn absorb(&mut self, other: Phase) {
        self.samples = other.samples;
        self.attempted = other.attempted;
        self.failed = other.failed;
        self.rejected = other.rejected;
    }
}

/// Per-node wrappers when tracing: shared round cells and the recorder.
struct Taps {
    rec: Option<Arc<Recorder>>,
    rounds: Vec<Arc<NodeRound>>,
}

impl Taps {
    fn new(rec: Option<Arc<Recorder>>, nodes: usize) -> Taps {
        Taps {
            rec,
            rounds: (0..nodes).map(|_| Arc::default()).collect(),
        }
    }

    fn transports<T: Transport + 'static>(&self, raw: Vec<T>) -> Vec<Box<dyn Transport>> {
        raw.into_iter()
            .enumerate()
            .map(|(i, t)| -> Box<dyn Transport> {
                match &self.rec {
                    Some(rec) => Box::new(TapTransport::new(
                        t,
                        Arc::clone(rec),
                        Arc::clone(&self.rounds[i]),
                    )),
                    None => Box::new(t),
                }
            })
            .collect()
    }

    fn expert(&self, inputs: &Inputs, node: usize) -> Sequential {
        let expert = inputs.expert(node);
        match &self.rec {
            Some(rec) => TapLayer::wrap(
                expert,
                node as u32,
                Arc::clone(rec),
                Arc::clone(&self.rounds[node]),
            ),
            None => expert,
        }
    }

    fn now_ns(&self) -> u64 {
        self.rec.as_ref().map_or(0, |r| r.now_ns())
    }

    fn request(&self, client: u32, req: u64, rows: u64, due: u64, start: u64, end: u64) {
        if let Some(rec) = &self.rec {
            rec.record(Span {
                kind: Kind::Request,
                node: client,
                peer: 0,
                round: 0,
                req,
                start_ns: start,
                end_ns: end,
                n: rows,
                aux: due,
                cause: 0,
            });
        }
    }

    fn arm(&self, on: bool) {
        if let Some(rec) = &self.rec {
            rec.set_armed(on);
        }
    }
}

/// Tallies one reply into `phase`. Returns whether the request entered a
/// round (everything but an admission refusal), so its span is kept.
fn tally(
    phase: &mut Phase,
    inputs: &Inputs,
    rows: &[usize],
    reply: Result<Vec<TeamPrediction>, ServeError>,
    done_s: f64,
    latency_ms: f64,
) -> bool {
    phase.attempted += 1;
    match reply {
        Ok(preds) if inputs.oracle.matches(rows, &preds) => {
            phase.samples.push((done_s, latency_ms));
            true
        }
        Err(ServeError::Overloaded { .. }) => {
            phase.rejected += 1;
            phase.failed += 1;
            false
        }
        _ => {
            phase.failed += 1;
            true
        }
    }
}

/// Runs the workload once: builds the cluster, warms it up, measures for
/// `seconds` (0: set-up only), tears it down. With a recorder, the
/// wrappers are installed and armed for the measured window only.
pub fn run(inputs: &Inputs, seconds: f64, rec: Option<Arc<Recorder>>) -> Result<Phase, String> {
    let taps = Taps::new(rec, TEAM);
    match inputs.family {
        Family::Round => round_mlp(inputs, seconds, &taps),
        Family::ServeOpen { rate_hz } => serve_open(inputs, seconds, rate_hz, &taps),
    }
}

/// Spawns a `serve_worker` per non-master node inside `scope`.
fn spawn_workers<'s>(
    scope: &'s thread::Scope<'s, '_>,
    nodes: &'s [Box<dyn Transport>],
    taps: &Taps,
    inputs: &Inputs,
) -> Vec<thread::ScopedJoinHandle<'s, Result<(), String>>> {
    nodes
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, node)| {
            let mut expert = taps.expert(inputs, i);
            scope.spawn(move || {
                serve_worker(&**node, 0, &mut expert)
                    .map(|_| ())
                    .map_err(|e| format!("worker {i}: {e}"))
            })
        })
        .collect()
}

fn join_all(handles: Vec<thread::ScopedJoinHandle<'_, Result<(), String>>>) -> Result<(), String> {
    for h in handles {
        h.join()
            .map_err(|_| "bench thread panicked".to_string())??;
    }
    Ok(())
}

fn round_mlp(inputs: &Inputs, seconds: f64, taps: &Taps) -> Result<Phase, String> {
    let t_setup = Instant::now();
    let raw = TcpTransport::mesh_localhost(TEAM).map_err(|e| e.to_string())?;
    let nodes = taps.transports(raw);
    let mut phase = Phase::default();
    thread::scope(|scope| -> Result<(), String> {
        let workers = spawn_workers(scope, &nodes, taps, inputs);
        let master = &*nodes[0];
        let mut expert = taps.expert(inputs, 0);
        let mut session = InferenceSession::new(master, MasterConfig::default());
        let mut infer = |rows: &[usize]| {
            session
                .infer(master, &mut expert, &inputs.request(rows))
                .map(|r| r.predictions)
                .map_err(|e| ServeError::Net(e.to_string()))
        };
        for i in 0..WARM_ROWS * 16 {
            let row = [i % WARM_ROWS];
            let got = infer(&row).map_err(|e| format!("warm-up: {e}"))?;
            if !inputs.oracle.matches(&row, &got) {
                return Err(format!("warm-up reply for row {} is wrong", row[0]));
            }
            phase.control_rejected |= !inputs.wrong.matches(&row, &got);
        }
        phase.setup_s = t_setup.elapsed().as_secs_f64();

        let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x4D4C50);
        taps.arm(true);
        let t0 = Instant::now();
        let mut due = taps.now_ns();
        while t0.elapsed().as_secs_f64() < seconds {
            let row = [rng.gen_range(0..inputs.rows())];
            let start = taps.now_ns();
            let t = Instant::now();
            let reply = infer(&row);
            let latency = t.elapsed().as_secs_f64() * 1e3;
            let end = taps.now_ns();
            let done_s = t0.elapsed().as_secs_f64();
            if tally(&mut phase, inputs, &row, reply, done_s, latency) {
                taps.request(0, phase.attempted, 1, due, start, end);
            }
            due = end;
        }
        phase.elapsed_s = t0.elapsed().as_secs_f64();
        taps.arm(false);
        shutdown_workers(master).map_err(|e| e.to_string())?;
        join_all(workers)
    })?;
    Ok(phase)
}

/// Builds the engine for `nodes`, runs it on a scoped thread, and hands
/// back its submission handle.
fn start_engine<'s>(
    scope: &'s thread::Scope<'s, '_>,
    nodes: &'s [Box<dyn Transport>],
    taps: &Taps,
    inputs: &Inputs,
) -> (
    ServeHandle,
    thread::ScopedJoinHandle<'s, Result<(), String>>,
) {
    let config = ServeConfig {
        batch: BatcherConfig::default(),
        input_dims: inputs.pool.dims()[1..].to_vec(),
        master: MasterConfig::default(),
    };
    let mut engine = ServeEngine::new(&*nodes[0], taps.expert(inputs, 0), config);
    let handle = engine.handle();
    let master = &*nodes[0];
    let join = scope.spawn(move || {
        engine.run(master);
        Ok(())
    });
    (handle, join)
}

/// Warm-up through the in-process handle: one request at a time over the
/// warm-up rows, checking the negative control.
fn warm_up(
    handle: &ServeHandle,
    inputs: &Inputs,
    count: usize,
    phase: &mut Phase,
) -> Result<(), String> {
    for i in 0..count {
        let row = [i % WARM_ROWS];
        let got = handle
            .submit(&inputs.request(&row))
            .and_then(|t| t.wait())
            .map_err(|e| format!("warm-up: {e}"))?;
        if !inputs.oracle.matches(&row, &got) {
            return Err(format!("warm-up reply for row {} is wrong", row[0]));
        }
        phase.control_rejected |= !inputs.wrong.matches(&row, &got);
    }
    Ok(())
}

/// One submitted request on its way from generator to collector.
struct Issued {
    id: u64,
    rows: Vec<usize>,
    due: Instant,
    due_ns: u64,
    issue_ns: u64,
    ticket: Result<teamnet_serve::Ticket, ServeError>,
}

/// `n` Poisson arrival offsets (seconds) spanning `seconds`: the
/// `teamnet_simnet` schedule, rescaled so arrival `n+1` lands exactly at
/// the end — a Poisson process conditioned on `n` arrivals in the window,
/// so every seed offers exactly the nominal rate.
pub fn arrivals(rate_hz: f64, seconds: f64, rng: &mut StdRng) -> Vec<f64> {
    let n = (rate_hz * seconds).round().max(1.0) as usize;
    let raw = teamnet_simnet::poisson_schedule(rate_hz, n + 1, rng);
    let span = raw[n].as_secs_f64();
    raw[..n]
        .iter()
        .map(|t| t.as_secs_f64() * seconds / span)
        .collect()
}

fn serve_open(inputs: &Inputs, seconds: f64, rate_hz: f64, taps: &Taps) -> Result<Phase, String> {
    let t_setup = Instant::now();
    let nodes = taps.transports(ChannelTransport::mesh(TEAM));
    let mut phase = Phase::default();
    thread::scope(|scope| -> Result<(), String> {
        let workers = spawn_workers(scope, &nodes, taps, inputs);
        let (handle, engine) = start_engine(scope, &nodes, taps, inputs);
        warm_up(&handle, inputs, WARM_ROWS * 2, &mut phase)?;
        phase.setup_s = t_setup.elapsed().as_secs_f64();

        if seconds > 0.0 {
            let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x0BE9);
            let schedule = arrivals(rate_hz, seconds, &mut rng);
            let picks: Vec<Vec<usize>> = (0..schedule.len())
                .map(|i| {
                    (0..1 + i % 2)
                        .map(|_| rng.gen_range(0..inputs.rows()))
                        .collect()
                })
                .collect();
            let (tx, rx) = mpsc::channel::<Issued>();
            taps.arm(true);
            let t0 = Instant::now() + Duration::from_millis(5);
            let t0_ns = taps.now_ns() + 5_000_000;
            let generator = {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut depths = Vec::with_capacity(schedule.len());
                    for (i, (offset, rows)) in schedule.iter().zip(picks).enumerate() {
                        let due = t0 + Duration::from_secs_f64(*offset);
                        let x = inputs.request(&rows);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            thread::sleep(wait);
                        }
                        let issue_ns = taps.now_ns();
                        let ticket = handle.submit(&x);
                        if let Some(rec) = &taps.rec {
                            rec.record(Span {
                                kind: Kind::Submit,
                                node: 0,
                                peer: 0,
                                round: 0,
                                req: i as u64,
                                start_ns: issue_ns,
                                end_ns: rec.now_ns(),
                                n: rows.len() as u64,
                                aux: 0,
                                cause: 0,
                            });
                        }
                        depths.push(handle.queue_depth() as f64);
                        let due_ns = t0_ns + (offset * 1e9) as u64;
                        let sent = tx.send(Issued {
                            id: i as u64,
                            rows,
                            due,
                            due_ns,
                            issue_ns,
                            ticket,
                        });
                        if sent.is_err() {
                            break;
                        }
                    }
                    (handle.queue_depth() as u64, depths)
                })
            };
            let collector = scope.spawn(move || {
                let mut mine = Phase::default();
                let mut last_done = t0;
                for item in rx {
                    let reply = match item.ticket {
                        Ok(ticket) => ticket
                            .wait_timeout(TICKET_TIMEOUT)
                            .unwrap_or_else(|| Err(ServeError::Net("ticket timed out".into()))),
                        Err(e) => Err(e),
                    };
                    let done = Instant::now();
                    let end_ns = taps.now_ns();
                    last_done = last_done.max(done);
                    let latency = done.saturating_duration_since(item.due).as_secs_f64() * 1e3;
                    let done_s = done.saturating_duration_since(t0).as_secs_f64();
                    if tally(&mut mine, inputs, &item.rows, reply, done_s, latency) {
                        let rows = item.rows.len() as u64;
                        taps.request(0, item.id, rows, item.due_ns, item.issue_ns, end_ns);
                    }
                }
                mine.elapsed_s = last_done.saturating_duration_since(t0).as_secs_f64();
                mine
            });
            let (backlog, depths) = generator
                .join()
                .map_err(|_| "generator thread panicked".to_string())?;
            let mine = collector
                .join()
                .map_err(|_| "collector thread panicked".to_string())?;
            taps.arm(false);
            phase.elapsed_s = mine.elapsed_s;
            phase.absorb(mine);
            phase.backlog_rows = backlog;
            let quarter = (depths.len() / 4).max(1);
            let first = mean(&depths[..quarter.min(depths.len())]);
            let last = mean(&depths[depths.len().saturating_sub(quarter)..]);
            phase.backlog_growing = last > first + BatcherConfig::default().max_batch_rows as f64;
        }
        handle.close();
        engine
            .join()
            .map_err(|_| "engine thread panicked".to_string())??;
        shutdown_workers(&*nodes[0]).map_err(|e| e.to_string())?;
        join_all(workers)
    })?;
    Ok(phase)
}
