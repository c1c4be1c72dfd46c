//! Benchmark-side spans: recording, the span file, and the one function
//! that rebuilds every per-layer metric from that file.
//!
//! Spans are recorded only from the benchmark's own code — the
//! [`crate::tap`] wrappers around each node's `Transport` and expert, and
//! the request loops in [`crate::workloads`]. The program is unchanged.
//!
//! A round is identified by the envelope round stamp its frames carry.
//! The master is node 0: it sends `input` frames stamped `R` to every
//! worker, runs its own forward, then receives one `result` frame per
//! worker stamped `R`. [`join_rounds`] links those frames across nodes;
//! [`layer_metrics`] derives every per-layer number from the joined view.

use crate::stats::{mean, quantile, Quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The master's node id in every cluster the benchmark builds.
pub const MASTER: u32 = 0;
/// Largest cluster the recorder keeps per-node counters for.
pub const MAX_NODES: usize = 8;

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `Transport::send` of a round's input frame (master → worker).
    SendInput,
    /// `Transport::send` of a result frame (worker → master).
    SendResult,
    /// Any other `Transport::send` (shutdown, probes).
    SendOther,
    /// A `Transport::recv` that returned an input frame (worker).
    RecvInput,
    /// A `Transport::recv` on the result tag (master), returned or timed out.
    RecvResult,
    /// A `Transport::recv` that returned any other frame.
    RecvOther,
    /// One forward of a node's expert (`n` rows, `aux` FLOPs).
    Forward,
    /// One request, from issue until the caller holds the result
    /// (`n` rows, `aux` the instant it was due).
    Request,
    /// One `ServeHandle::submit` call.
    Submit,
}

impl Kind {
    const ALL: [Kind; 9] = [
        Kind::SendInput,
        Kind::SendResult,
        Kind::SendOther,
        Kind::RecvInput,
        Kind::RecvResult,
        Kind::RecvOther,
        Kind::Forward,
        Kind::Request,
        Kind::Submit,
    ];

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SendInput => "net.send.input",
            Kind::SendResult => "net.send.result",
            Kind::SendOther => "net.send.other",
            Kind::RecvInput => "net.recv.input",
            Kind::RecvResult => "net.recv.result",
            Kind::RecvOther => "net.recv.other",
            Kind::Forward => "nn.forward",
            Kind::Request => "bench.request",
            Kind::Submit => "serve.submit",
        }
    }

    fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One timed call. Times are nanoseconds from the recorder's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was timed.
    pub kind: Kind,
    /// Node (or client, for requests) that made the call.
    pub node: u32,
    /// The other end of a network call.
    pub peer: u32,
    /// Envelope round stamp (0 when the call carried none).
    pub round: u64,
    /// Request id (requests and submits only).
    pub req: u64,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
    /// Bytes for network spans, rows for forwards and requests.
    pub n: u64,
    /// Rows of an input frame, FLOPs of a forward, due instant of a request.
    pub aux: u64,
    /// 1-based index of the span that caused this one (0: none), set by
    /// [`link_causes`] from the round-stamp join.
    pub cause: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by every wrapper of one traced cluster.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    armed: AtomicBool,
    spans: Mutex<Vec<Span>>,
    recv_calls: [AtomicU64; MAX_NODES],
    recv_frames: [AtomicU64; MAX_NODES],
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            armed: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            recv_calls: Default::default(),
            recv_frames: Default::default(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Starts (or stops) keeping spans and counts. The benchmark arms the
    /// recorder only while the cluster is idle, so every kept round and
    /// every kept request belong to the same measured window.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Whether spans are being kept.
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Keeps `span` if armed.
    pub fn record(&self, span: Span) {
        if self.armed() {
            self.spans.lock().expect("span store poisoned").push(span);
        }
    }

    /// Counts one `recv` call on `node`, and whether it returned a frame.
    pub fn count_recv(&self, node: u32, got_frame: bool) {
        if !self.armed() {
            return;
        }
        let i = (node as usize).min(MAX_NODES - 1);
        self.recv_calls[i].fetch_add(1, Ordering::Relaxed);
        if got_frame {
            self.recv_frames[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Everything kept so far, as a [`Dump`] with `meta` attached.
    pub fn snapshot(&self, meta: BTreeMap<String, String>) -> Dump {
        let mut counts = BTreeMap::new();
        for node in 0..MAX_NODES {
            let calls = self.recv_calls[node].load(Ordering::Relaxed);
            if calls > 0 {
                let frames = self.recv_frames[node].load(Ordering::Relaxed);
                counts.insert(("net.recv_calls".to_string(), node as u32), calls);
                counts.insert(("net.recv_frames".to_string(), node as u32), frames);
            }
        }
        let mut spans = self.spans.lock().expect("span store poisoned").clone();
        spans.sort_by_key(|s| (s.start_ns, s.end_ns));
        link_causes(&mut spans);
        Dump {
            meta,
            counts,
            spans,
        }
    }
}

/// The content of one span file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dump {
    /// Run facts the metrics need (untraced latency, rejections, ...).
    pub meta: BTreeMap<String, String>,
    /// `(counter, node) → value`.
    pub counts: BTreeMap<(String, u32), u64>,
    /// Every kept span, ordered by start.
    pub spans: Vec<Span>,
}

impl Dump {
    /// Tab-separated text: one `meta`, `count` or `span` record a line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta\t{k}\t{v}");
        }
        for ((name, node), v) in &self.counts {
            let _ = writeln!(out, "count\t{name}\t{node}\t{v}");
        }
        for s in &self.spans {
            let _ = writeln!(
                out,
                "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.kind.name(),
                s.node,
                s.peer,
                s.round,
                s.req,
                s.start_ns,
                s.end_ns,
                s.n,
                s.aux,
                s.cause
            );
        }
        out
    }

    /// Parses [`Dump::to_text`] output.
    pub fn parse(text: &str) -> Result<Dump, String> {
        let mut dump = Dump::default();
        for (lineno, line) in text.lines().enumerate() {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("span file line {}: {line:?}", lineno + 1);
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            match f.as_slice() {
                ["meta", k, v] => {
                    dump.meta.insert((*k).to_string(), (*v).to_string());
                }
                ["count", name, node, v] => {
                    let node = u32::try_from(num(node)?).map_err(|_| bad())?;
                    dump.counts.insert(((*name).to_string(), node), num(v)?);
                }
                ["span", name, node, peer, round, req, start, end, n, aux, cause] => {
                    dump.spans.push(Span {
                        kind: Kind::from_name(name).ok_or_else(bad)?,
                        node: u32::try_from(num(node)?).map_err(|_| bad())?,
                        peer: u32::try_from(num(peer)?).map_err(|_| bad())?,
                        round: num(round)?,
                        req: num(req)?,
                        start_ns: num(start)?,
                        end_ns: num(end)?,
                        n: num(n)?,
                        aux: num(aux)?,
                        cause: num(cause)?,
                    });
                }
                [] | [""] => {}
                _ => return Err(bad()),
            }
        }
        Ok(dump)
    }

    fn meta_f64(&self, key: &str) -> f64 {
        self.meta
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }
}

/// Fills each span's `cause` from the round-stamp join: a worker's input
/// receive is caused by the master's send to it, the worker's forward and
/// reply by that receive, and the master's result receive by the reply.
pub fn link_causes(spans: &mut [Span]) {
    // (round, worker) → index of the span each link points back to.
    let mut sent_input = BTreeMap::new();
    let mut got_input = BTreeMap::new();
    let mut sent_result = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let id = i as u64 + 1;
        match s.kind {
            Kind::SendInput if s.node == MASTER => {
                sent_input.entry((s.round, s.peer)).or_insert(id);
            }
            Kind::RecvInput => {
                got_input.entry((s.round, s.node)).or_insert(id);
            }
            Kind::SendResult => {
                sent_result.entry((s.round, s.node)).or_insert(id);
            }
            _ => {}
        }
    }
    for s in spans.iter_mut() {
        let link = match s.kind {
            Kind::RecvInput => sent_input.get(&(s.round, s.node)),
            Kind::Forward | Kind::SendResult if s.node != MASTER => {
                got_input.get(&(s.round, s.node))
            }
            Kind::RecvResult if s.node == MASTER => sent_result.get(&(s.round, s.peer)),
            _ => None,
        };
        s.cause = link.copied().unwrap_or(0);
    }
}

/// One collaborative round, joined across nodes by its round stamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundView {
    /// Envelope round stamp.
    pub round: u64,
    /// Rows in the round's input frame.
    pub rows: u64,
    /// Master's first input send start → last input send end.
    pub broadcast: (u64, u64),
    /// Input bytes the master sent.
    pub input_bytes: u64,
    /// Master's forward `(start, end, rows, flops)`.
    pub master_forward: Option<(u64, u64, u64, u64)>,
    /// Master's result receives, in call order: `(peer, start, end)`.
    pub gather: Vec<(u32, u64, u64)>,
    /// Per worker: master's input send end.
    pub input_sent: BTreeMap<u32, u64>,
    /// Per worker: the worker's input receive end.
    pub input_got: BTreeMap<u32, u64>,
    /// Per worker: the worker's result send end, and bytes sent.
    pub result_sent: BTreeMap<u32, (u64, u64)>,
    /// Per worker: forward `(start, end, rows, flops)`.
    pub worker_forward: BTreeMap<u32, (u64, u64, u64, u64)>,
}

impl RoundView {
    /// Round start (first broadcast send) to the master's last result
    /// receive — every leg the master waits on; the fold of the final
    /// reply and the hand-back to the caller fall in the reply tail.
    pub fn round_ns(&self) -> Option<u64> {
        let end = self.gather.iter().map(|g| g.2).max()?;
        Some(end.saturating_sub(self.broadcast.0))
    }

    /// Master's time blocked in result receives.
    pub fn gather_wait_ns(&self) -> u64 {
        self.gather.iter().map(|g| g.2.saturating_sub(g.1)).sum()
    }

    /// Master's time between one result receive returning and the next
    /// starting: folding that reply into the running argmin.
    pub fn fold_ns(&self) -> u64 {
        self.gather
            .windows(2)
            .map(|w| w[1].1.saturating_sub(w[0].2))
            .sum()
    }

    /// Last result ready minus first, over the master's own forward and
    /// each worker's reply.
    pub fn straggler_ns(&self) -> Option<u64> {
        let ready: Vec<u64> = self
            .master_forward
            .map(|f| f.1)
            .into_iter()
            .chain(self.result_sent.values().map(|r| r.0))
            .collect();
        if ready.len() < 2 {
            return None;
        }
        Some(ready.iter().max()? - ready.iter().min()?)
    }

    /// Whether every leg of the round was recorded.
    pub fn complete(&self) -> bool {
        self.master_forward.is_some()
            && !self.gather.is_empty()
            && self.input_sent.len() == self.result_sent.len()
            && self.input_sent.len() == self.gather.len()
    }
}

/// Joins the spans of each round across nodes by round stamp. Returns the
/// rounds in broadcast order; rounds the master never broadcast (and
/// traffic outside rounds) are left out.
pub fn join_rounds(spans: &[Span]) -> Vec<RoundView> {
    let mut rounds: BTreeMap<u64, RoundView> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.kind == Kind::SendInput && s.node == MASTER)
    {
        let r = rounds.entry(s.round).or_insert_with(|| RoundView {
            round: s.round,
            rows: s.aux,
            broadcast: (s.start_ns, s.end_ns),
            ..RoundView::default()
        });
        r.broadcast = (r.broadcast.0.min(s.start_ns), r.broadcast.1.max(s.end_ns));
        r.input_bytes += s.n;
        r.input_sent.insert(s.peer, s.end_ns);
    }
    for s in spans {
        let Some(r) = rounds.get_mut(&s.round) else {
            continue;
        };
        let fwd = (s.start_ns, s.end_ns, s.n, s.aux);
        match s.kind {
            Kind::Forward if s.node == MASTER => {
                r.master_forward.get_or_insert(fwd);
            }
            Kind::Forward => {
                r.worker_forward.entry(s.node).or_insert(fwd);
            }
            Kind::RecvResult if s.node == MASTER => r.gather.push((s.peer, s.start_ns, s.end_ns)),
            Kind::RecvInput => {
                r.input_got.entry(s.node).or_insert(s.end_ns);
            }
            Kind::SendResult => {
                r.result_sent.entry(s.node).or_insert((s.end_ns, s.n));
            }
            _ => {}
        }
    }
    let mut out: Vec<RoundView> = rounds.into_values().collect();
    for r in &mut out {
        r.gather.sort_by_key(|g| g.1);
    }
    out.sort_by_key(|r| r.broadcast.0);
    out
}

/// Requests matched to the rounds that served them, in FIFO order: the
/// engine flushes whole requests oldest first, so walking requests by
/// issue time and rounds by broadcast time, each round takes requests
/// until their rows add up to its input frame's rows.
///
/// Returns `(request, round)` index pairs; a round whose rows cannot be
/// matched ends the walk.
pub fn match_requests(requests: &[Span], rounds: &[RoundView]) -> Vec<(usize, usize)> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (requests[i].start_ns, requests[i].req));
    let mut pairs = Vec::with_capacity(requests.len());
    let mut next = order.into_iter().peekable();
    for (ri, round) in rounds.iter().enumerate() {
        let mut rows = 0;
        while rows < round.rows {
            let Some(qi) = next.next() else {
                return pairs;
            };
            rows += requests[qi].n;
            pairs.push((qi, ri));
        }
        if rows != round.rows {
            pairs.pop();
            return pairs;
        }
    }
    pairs
}

/// One per-layer metric as rebuilt from a span file.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerMetric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (`NaN` when the workload has no samples for it).
    pub value: f64,
    /// Samples behind the value.
    pub count: usize,
    /// `false` for a percentile without ten samples beyond it, or for a
    /// metric with no samples at all.
    pub supported: bool,
}

struct Out(Vec<LayerMetric>);

impl Out {
    fn q(&mut self, name: &'static str, unit: &'static str, scale: f64, q: Quantile) {
        self.0.push(LayerMetric {
            name,
            unit,
            value: q.value * scale,
            count: q.count,
            supported: q.supported,
        });
    }

    fn v(&mut self, name: &'static str, unit: &'static str, value: f64, count: usize) {
        self.0.push(LayerMetric {
            name,
            unit,
            value,
            count,
            supported: count > 0 && value.is_finite(),
        });
    }
}

/// Modeled round of serve_bench's service model: fixed overhead in ms.
pub const MODEL_ROUND_OVERHEAD_MS: f64 = 2.0;
/// Modeled round of serve_bench's service model: ms per batched row.
pub const MODEL_PER_ROW_MS: f64 = 0.2;

/// Rebuilds every per-layer metric from one span file.
pub fn layer_metrics(dump: &Dump) -> Vec<LayerMetric> {
    const US: f64 = 1e-3;
    const MS: f64 = 1e-6;
    let spans = &dump.spans;
    let rounds: Vec<RoundView> = join_rounds(spans)
        .into_iter()
        .filter(RoundView::complete)
        .collect();
    let n_rounds = rounds.len();
    let mut out = Out(Vec::new());
    let of = |f: &dyn Fn(&RoundView) -> Option<f64>| -> Vec<f64> {
        rounds.iter().filter_map(f).collect()
    };

    // net: every frame a node sent, and every receive call it made.
    let sends: Vec<&Span> = spans
        .iter()
        .filter(|s| matches!(s.kind, Kind::SendInput | Kind::SendResult))
        .collect();
    let send_us: Vec<f64> = sends.iter().map(|s| s.dur_ns() as f64).collect();
    out.q("net.send_us.p50", "us", US, quantile(&send_us, 0.5));
    out.q("net.send_us.p99", "us", US, quantile(&send_us, 0.99));
    let round_bytes: f64 = rounds
        .iter()
        .map(|r| (r.input_bytes + r.result_sent.values().map(|x| x.1).sum::<u64>()) as f64)
        .sum();
    out.v(
        "net.bytes_per_round",
        "bytes",
        round_bytes / n_rounds as f64,
        n_rounds,
    );
    let counted = |name: &str| -> u64 {
        dump.counts
            .iter()
            .filter(|((n, _), _)| n == name)
            .map(|(_, v)| v)
            .sum()
    };
    let (calls, frames) = (counted("net.recv_calls"), counted("net.recv_frames"));
    out.v(
        "net.recv_calls_per_round",
        "count",
        calls as f64 / n_rounds as f64,
        n_rounds,
    );
    out.v(
        "net.recv_useful_frac",
        "frac",
        frames as f64 / calls as f64,
        calls as usize,
    );

    // core: the round legs, master side and across nodes.
    let round_ns = of(&|r| r.round_ns().map(|v| v as f64));
    out.q("core.round_ms.p50", "ms", MS, quantile(&round_ns, 0.5));
    out.q("core.round_ms.p99", "ms", MS, quantile(&round_ns, 0.99));
    let bcast = of(&|r| Some(r.broadcast.1.saturating_sub(r.broadcast.0) as f64));
    out.q("core.broadcast_us.p50", "us", US, quantile(&bcast, 0.5));
    let gather = of(&|r| Some(r.gather_wait_ns() as f64));
    out.q("core.gather_wait_ms.p50", "ms", MS, quantile(&gather, 0.5));
    let fold = of(&|r| Some(r.fold_ns() as f64));
    out.q("core.fold_us.p50", "us", US, quantile(&fold, 0.5));
    let residual = of(&|r| {
        let legs = r.broadcast.1.saturating_sub(r.broadcast.0)
            + r.master_forward.map_or(0, |f| f.1.saturating_sub(f.0))
            + r.gather_wait_ns()
            + r.fold_ns();
        Some(r.round_ns()? as f64 - legs as f64)
    });
    out.q("core.residual_us.p50", "us", US, quantile(&residual, 0.5));
    let input_pickup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.input_got.iter().filter_map(|(w, got)| {
                let sent = r.input_sent.get(w)?;
                Some(*got as f64 - *sent as f64)
            })
        })
        .collect();
    out.q(
        "core.input_pickup_us.p50",
        "us",
        US,
        quantile(&input_pickup, 0.5),
    );
    out.q(
        "core.input_pickup_us.p99",
        "us",
        US,
        quantile(&input_pickup, 0.99),
    );
    let reply_pickup: Vec<f64> = rounds
        .iter()
        .flat_map(|r| {
            r.gather.iter().filter_map(|(w, _, got)| {
                let sent = r.result_sent.get(w)?.0;
                Some(*got as f64 - sent as f64)
            })
        })
        .collect();
    out.q(
        "core.reply_pickup_us.p50",
        "us",
        US,
        quantile(&reply_pickup, 0.5),
    );
    let straggler = of(&|r| r.straggler_ns().map(|v| v as f64));
    out.q("core.straggler_ms.p50", "ms", MS, quantile(&straggler, 0.5));

    // nn: every forward, master and workers.
    let forwards: Vec<&Span> = spans.iter().filter(|s| s.kind == Kind::Forward).collect();
    let fwd_of = |master: bool| -> Vec<f64> {
        forwards
            .iter()
            .filter(|s| (s.node == MASTER) == master)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    out.q(
        "nn.forward_ms.master",
        "ms",
        MS,
        quantile(&fwd_of(true), 0.5),
    );
    out.q(
        "nn.forward_ms.worker",
        "ms",
        MS,
        quantile(&fwd_of(false), 0.5),
    );
    let fwd_ns: u64 = forwards.iter().map(|s| s.dur_ns()).sum();
    let fwd_rows: u64 = forwards.iter().map(|s| s.n).sum();
    let fwd_flops: u64 = forwards.iter().map(|s| s.aux).sum();
    out.v(
        "nn.forward_us_per_row",
        "us",
        fwd_ns as f64 * US / fwd_rows as f64,
        forwards.len(),
    );
    out.v(
        "nn.gflops",
        "GFLOP/s",
        fwd_flops as f64 / fwd_ns as f64,
        forwards.len(),
    );

    // serve: requests matched FIFO to the rounds that carried them.
    let requests: Vec<Span> = spans
        .iter()
        .filter(|s| s.kind == Kind::Request)
        .copied()
        .collect();
    let all_rounds = join_rounds(spans);
    let pairs = match_requests(&requests, &all_rounds);
    let queue_wait: Vec<f64> = pairs
        .iter()
        .map(|&(q, r)| all_rounds[r].broadcast.0 as f64 - requests[q].start_ns as f64)
        .collect();
    out.q(
        "serve.queue_wait_ms.p50",
        "ms",
        MS,
        quantile(&queue_wait, 0.5),
    );
    out.q(
        "serve.queue_wait_ms.p99",
        "ms",
        MS,
        quantile(&queue_wait, 0.99),
    );
    let batch_rows: Vec<f64> = all_rounds.iter().map(|r| r.rows as f64).collect();
    out.v(
        "serve.batch_rows.mean",
        "rows",
        mean(&batch_rows),
        batch_rows.len(),
    );
    out.q(
        "serve.batch_rows.p99",
        "rows",
        1.0,
        quantile(&batch_rows, 0.99),
    );
    out.v(
        "serve.requests_per_round.mean",
        "count",
        pairs.len() as f64 / all_rounds.len() as f64,
        all_rounds.len(),
    );
    let submit_us: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == Kind::Submit)
        .map(|s| s.dur_ns() as f64)
        .collect();
    out.q("serve.submit_us.p50", "us", US, quantile(&submit_us, 0.5));
    out.q("serve.submit_us.p99", "us", US, quantile(&submit_us, 0.99));
    let reply_tail: Vec<f64> = pairs
        .iter()
        .filter_map(|&(q, r)| {
            let last = all_rounds[r].gather.iter().map(|g| g.2).max()?;
            Some(requests[q].end_ns as f64 - last as f64)
        })
        .collect();
    out.q(
        "serve.reply_tail_us.p50",
        "us",
        US,
        quantile(&reply_tail, 0.5),
    );
    let attempted = dump.meta_f64("attempted");
    out.v(
        "serve.rejected_frac",
        "frac",
        dump.meta_f64("rejected") / attempted,
        attempted as usize,
    );

    // bench: the harness's own health.
    let overhead = dump.meta_f64("traced_p50_ms") / dump.meta_f64("untraced_p50_ms") - 1.0;
    out.v("bench.trace_overhead_frac", "frac", overhead, 2);
    let late: Vec<f64> = requests
        .iter()
        .map(|s| s.start_ns as f64 - s.aux as f64)
        .collect();
    out.q("bench.gen_late_ms.p99", "ms", MS, quantile(&late, 0.99));
    out.v(
        "bench.backlog_rows",
        "rows",
        dump.meta_f64("backlog_rows"),
        1,
    );

    // Model check: measured round over serve_bench's modeled round at the
    // measured mean batch. A check on the model, never a headline.
    let modeled_ms = MODEL_ROUND_OVERHEAD_MS + MODEL_PER_ROW_MS * mean(&batch_rows);
    out.v(
        "model.round_ratio",
        "ratio",
        mean(&round_ns) * MS / modeled_ms,
        round_ns.len(),
    );

    let unsupported = out.0.iter().filter(|m| !m.supported).count();
    out.v(
        "bench.unsupported_metrics",
        "count",
        unsupported as f64,
        out.0.len(),
    );
    out.0
}

/// Mean of each leg of the master's round over complete rounds:
/// broadcast, master forward, gather wait, fold, and the residual that
/// none of them covers. The five add up to the mean round exactly.
pub fn round_accounting(dump: &Dump) -> Vec<(&'static str, f64)> {
    let rounds: Vec<RoundView> = join_rounds(&dump.spans)
        .into_iter()
        .filter(RoundView::complete)
        .collect();
    let avg = |f: &dyn Fn(&RoundView) -> u64| -> f64 {
        mean(
            &rounds
                .iter()
                .map(|r| f(r) as f64 * 1e-3)
                .collect::<Vec<_>>(),
        )
    };
    let broadcast = avg(&|r| r.broadcast.1.saturating_sub(r.broadcast.0));
    let forward = avg(&|r| r.master_forward.map_or(0, |f| f.1.saturating_sub(f.0)));
    let gather = avg(&|r| r.gather_wait_ns());
    let fold = avg(&|r| r.fold_ns());
    let round = avg(&|r| r.round_ns().unwrap_or(0));
    vec![
        ("core.round", round),
        ("core.broadcast", broadcast),
        ("nn.forward.master", forward),
        ("core.gather_wait", gather),
        ("core.fold", fold),
        ("residual", round - broadcast - forward - gather - fold),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, node: u32, peer: u32, round: u64, start: u64, end: u64) -> Span {
        Span {
            kind,
            node,
            peer,
            round,
            req: 0,
            start_ns: start,
            end_ns: end,
            n: 100,
            aux: 1,
            cause: 0,
        }
    }

    /// Round 7 on a master and two workers, with hand-picked instants.
    fn round7() -> Vec<Span> {
        vec![
            span(Kind::SendInput, 0, 1, 7, 1_000, 1_100),
            span(Kind::SendInput, 0, 2, 7, 1_100, 1_300),
            span(Kind::Forward, 0, 0, 7, 1_300, 2_000),
            span(Kind::RecvInput, 1, 0, 7, 900, 1_150),
            span(Kind::RecvInput, 2, 0, 7, 1_000, 1_400),
            span(Kind::Forward, 1, 0, 7, 1_200, 1_900),
            span(Kind::Forward, 2, 0, 7, 1_450, 2_300),
            span(Kind::SendResult, 1, 0, 7, 1_900, 1_950),
            span(Kind::SendResult, 2, 0, 7, 2_300, 2_400),
            span(Kind::RecvResult, 0, 1, 7, 2_050, 2_100),
            span(Kind::RecvResult, 0, 2, 7, 2_150, 2_500),
            // Traffic of another round must not leak in.
            span(Kind::RecvInput, 1, 0, 8, 3_000, 3_100),
        ]
    }

    #[test]
    fn round_stamp_join_links_send_recv_reply() {
        let mut spans = round7();
        link_causes(&mut spans);
        let idx = |k: Kind, node: u32, round: u64| {
            spans
                .iter()
                .position(|s| s.kind == k && s.node == node && s.round == round)
                .unwrap() as u64
                + 1
        };
        // worker recv ← master send to that worker
        let send_to_2 = spans
            .iter()
            .position(|s| s.kind == Kind::SendInput && s.peer == 2)
            .unwrap() as u64
            + 1;
        assert_eq!(
            spans[idx(Kind::RecvInput, 2, 7) as usize - 1].cause,
            send_to_2
        );
        // worker reply ← worker recv
        assert_eq!(
            spans[idx(Kind::SendResult, 1, 7) as usize - 1].cause,
            idx(Kind::RecvInput, 1, 7)
        );
        // master recv ← worker reply
        let recv_from_2 = spans
            .iter()
            .position(|s| s.kind == Kind::RecvResult && s.peer == 2)
            .unwrap();
        assert_eq!(spans[recv_from_2].cause, idx(Kind::SendResult, 2, 7));
        // A receive of an unsent round links to nothing.
        assert_eq!(spans[idx(Kind::RecvInput, 1, 8) as usize - 1].cause, 0);

        let rounds = join_rounds(&spans);
        assert_eq!(rounds.len(), 1);
        let r = &rounds[0];
        assert!(r.complete());
        assert_eq!(r.broadcast, (1_000, 1_300));
        assert_eq!(r.input_got[&1] - r.input_sent[&1], 50);
        assert_eq!(r.input_got[&2] - r.input_sent[&2], 100);
        assert_eq!(r.round_ns(), Some(1_500));
        assert_eq!(r.gather_wait_ns(), 50 + 350);
        assert_eq!(r.fold_ns(), 50);
        // ready: master 2000, worker 1 1950, worker 2 2400
        assert_eq!(r.straggler_ns(), Some(450));
    }

    #[test]
    fn dump_round_trips_and_rebuilds_the_same_metrics() {
        let rec = Recorder::default();
        rec.set_armed(true);
        for s in round7() {
            rec.record(s);
        }
        rec.count_recv(1, true);
        rec.count_recv(1, false);
        let mut meta = BTreeMap::new();
        meta.insert("attempted".to_string(), "1".to_string());
        meta.insert("rejected".to_string(), "0".to_string());
        let dump = rec.snapshot(meta);
        let parsed = Dump::parse(&dump.to_text()).unwrap();
        assert_eq!(parsed, dump);
        let metrics = layer_metrics(&parsed);
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().clone();
        assert_eq!(get("core.round_ms.p50").value, 1_500.0 * 1e-6);
        assert_eq!(get("core.input_pickup_us.p50").value, 0.05);
        assert_eq!(get("net.recv_useful_frac").value, 0.5);
        assert!(!get("core.round_ms.p99").supported, "one round is no p99");
        assert!(Dump::parse("span\tbogus").is_err());
    }

    #[test]
    fn requests_map_fifo_onto_rounds_by_rows() {
        let req = |id: u64, start: u64, rows: u64| Span {
            kind: Kind::Request,
            req: id,
            start_ns: start,
            end_ns: start + 10,
            n: rows,
            ..span(Kind::Request, 0, 0, 0, 0, 0)
        };
        let requests = vec![req(3, 30, 2), req(1, 10, 1), req(2, 20, 1)];
        let round = |rows: u64, at: u64| RoundView {
            rows,
            broadcast: (at, at),
            ..RoundView::default()
        };
        let pairs = match_requests(&requests, &[round(2, 25), round(2, 35)]);
        assert_eq!(pairs, vec![(1, 0), (2, 0), (0, 1)]);
        // A round whose rows split a request ends the walk.
        let pairs = match_requests(&requests, &[round(1, 15), round(1, 25), round(1, 35)]);
        assert_eq!(pairs, vec![(1, 0), (2, 1)]);
    }
}
