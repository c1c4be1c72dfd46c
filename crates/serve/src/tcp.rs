//! Framed TCP front-end: many client connections feeding one engine.
//!
//! The accept loop hands each connection to its own thread; a connection
//! carries one in-flight request at a time (submit → block on the
//! [`Ticket`] → write the reply), so slow clients self-throttle and the
//! engine's admission control is the only queue. All [`ServeMsgKind`]
//! dispatch lives in this file — `cargo xtask protocol` audits that every
//! kind is handled here, so a new wire message cannot be silently
//! dropped.
//!
//! [`Ticket`]: crate::engine::Ticket

use crate::engine::ServeHandle;
use crate::error::ServeError;
use crate::wire::{
    decode_predictions, decode_reject, encode_predictions, encode_reject, read_serve_frame,
    write_serve_frame, write_serve_frame_traced, ServeMsgKind,
};
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;
use teamnet_core::TeamPrediction;
use teamnet_net::codec::{decode_f32s, encode_f32s};
use teamnet_net::{derive_trace_id, TraceContext};
use teamnet_tensor::Tensor;

/// How often the non-blocking accept loop polls for the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Each live connection's serving thread, with a duplicate of its socket.
type Conns = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// A running TCP listener feeding a [`ServeHandle`].
///
/// Dropping (or [`TcpServeFront::shutdown`]) stops accepting, joins the
/// accept thread, force-closes every accepted socket, then joins the
/// connection threads. The force-close matters: a connection thread
/// blocks in a frame read between requests, so without it shutdown
/// would wait forever on any client that is connected but idle.
///
/// Every accept joins the finished connection threads and closes their
/// socket duplicates, so a long-running front holds descriptors only for
/// the connections still open.
#[derive(Debug)]
pub struct TcpServeFront {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Conns,
}

impl TcpServeFront {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts accepting serving connections for `handle`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] when the bind fails.
    pub fn bind(addr: &str, handle: ServeHandle) -> Result<TcpServeFront, ServeError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| ServeError::Net(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServeError::Net(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Net(format!("set_nonblocking: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let conns = Conns::default();
        let accept = {
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            // Keep a duplicate handle so shutdown can
                            // force-close the socket under a blocked read;
                            // a connection that cannot be force-closed is
                            // refused rather than risk wedging shutdown.
                            let Ok(dup) = stream.try_clone() else {
                                continue;
                            };
                            let handle = handle.clone();
                            let worker =
                                std::thread::spawn(move || handle_connection(stream, &handle));
                            let mut conns = conns.lock();
                            for (done, _) in conns.extract_if(.., |(t, _)| t.is_finished()) {
                                let _ = done.join();
                            }
                            conns.push((worker, dup));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(TcpServeFront {
            addr: local,
            stop,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins all serving threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Unblock connection threads parked in a frame read: an idle
        // client that never says goodbye must not wedge shutdown.
        let conns = std::mem::take(&mut *self.conns.lock());
        for (_, sock) in &conns {
            let _ = sock.shutdown(Shutdown::Both);
        }
        for (thread, _) in conns {
            let _ = thread.join();
        }
    }
}

impl Drop for TcpServeFront {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Serves one connection: reads frames, dispatches by kind, writes the
/// reply. Returns when the client says goodbye, disconnects, or breaks
/// the protocol.
fn handle_connection(mut stream: TcpStream, handle: &ServeHandle) {
    loop {
        let frame = match read_serve_frame(&mut stream) {
            Ok(frame) => frame,
            Err(e @ ServeError::Malformed(_)) => {
                // The stream may be desynchronized after a bad frame:
                // reject and hang up rather than mis-parse what follows.
                let _ = write_serve_frame(&mut stream, ServeMsgKind::Reject, 0, &encode_reject(&e));
                return;
            }
            Err(_) => return, // EOF / closed
        };
        match frame.kind {
            ServeMsgKind::Request => {
                // A traced request gets an end-to-end `serve.request`
                // span covering admission → round → reply, and the reply
                // frame echoes the trace (parented on that span) so the
                // tenant can correlate its request with the cluster's
                // cross-node DAG (DESIGN.md §17).
                let obs = handle.obs().clone();
                let req_span = frame.trace.map(|ctx| {
                    obs.span(
                        "serve.request",
                        &[("req", frame.req_id), ("trace", ctx.trace_id)],
                    )
                });
                let (kind, payload) = match process_request(handle, &frame.payload) {
                    Ok(preds) => (ServeMsgKind::Reply, encode_predictions(&preds)),
                    Err(e) => (ServeMsgKind::Reject, encode_reject(&e)),
                };
                let reply_ctx = frame.trace.map(|ctx| obs.tracer.current_ctx(ctx.trace_id));
                drop(req_span);
                if write_serve_frame_traced(&mut stream, kind, frame.req_id, reply_ctx, &payload)
                    .is_err()
                {
                    return;
                }
            }
            ServeMsgKind::Goodbye => return,
            ServeMsgKind::Reply | ServeMsgKind::Reject => {
                let err = ServeError::Malformed("client sent a server-side frame".into());
                let _ = write_serve_frame(
                    &mut stream,
                    ServeMsgKind::Reject,
                    frame.req_id,
                    &encode_reject(&err),
                );
                return;
            }
        }
    }
}

/// Decodes a request tensor, submits it, and blocks until the engine
/// resolves the ticket.
fn process_request(
    handle: &ServeHandle,
    payload: &[u8],
) -> Result<Vec<TeamPrediction>, ServeError> {
    let (dims, data) =
        decode_f32s(payload).map_err(|e| ServeError::Malformed(format!("request tensor: {e}")))?;
    let tensor = Tensor::from_vec(data, dims)
        .map_err(|e| ServeError::Malformed(format!("request tensor: {e}")))?;
    handle.submit(&tensor)?.wait()
}

/// A blocking client for the framed TCP serving protocol: the quickstart
/// path in README "Serving".
#[derive(Debug)]
pub struct ServeClient {
    stream: TcpStream,
    next_id: u64,
    trace_seed: Option<u64>,
}

impl ServeClient {
    /// Connects to a [`TcpServeFront`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Net`] when the connection fails.
    pub fn connect(addr: &SocketAddr) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| ServeError::Net(format!("connect {addr}: {e}")))?;
        Ok(ServeClient {
            stream,
            next_id: 1,
            trace_seed: None,
        })
    }

    /// Stamps every subsequent request with a deterministic trace id
    /// derived from `seed` and the request id, so the server opens a
    /// `serve.request` span for it and echoes the trace on the reply.
    /// Untraced clients (the default) stay wire-identical to the
    /// pre-tracing protocol.
    pub fn set_trace_seed(&mut self, seed: u64) {
        self.trace_seed = Some(seed);
    }

    /// One blocking inference: sends the `[rows, features...]` tensor,
    /// returns the per-row winning predictions.
    ///
    /// # Errors
    ///
    /// The server's typed rejection ([`ServeError::Overloaded`],
    /// [`ServeError::Malformed`], ...), or [`ServeError::Closed`] when
    /// the connection drops.
    pub fn infer(&mut self, input: &Tensor) -> Result<Vec<TeamPrediction>, ServeError> {
        let id = self.next_id;
        self.next_id += 1;
        let trace = self.trace_seed.map(|seed| TraceContext {
            trace_id: derive_trace_id(seed, id),
            parent_span: 0,
        });
        write_serve_frame_traced(
            &mut self.stream,
            ServeMsgKind::Request,
            id,
            trace,
            &encode_f32s(input.dims(), input.data()),
        )?;
        loop {
            let frame = read_serve_frame(&mut self.stream)?;
            if frame.req_id != id {
                continue; // stray frame from an abandoned request
            }
            if let (Some(sent), Some(echo)) = (trace, frame.trace) {
                debug_assert_eq!(sent.trace_id, echo.trace_id);
            }
            return match frame.kind {
                ServeMsgKind::Reply => decode_predictions(&frame.payload),
                ServeMsgKind::Reject => Err(decode_reject(&frame.payload)?),
                ServeMsgKind::Request | ServeMsgKind::Goodbye => Err(ServeError::Malformed(
                    "server sent a client-side frame".into(),
                )),
            };
        }
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        // Best-effort clean goodbye so the server thread exits promptly.
        let _ = write_serve_frame(&mut self.stream, ServeMsgKind::Goodbye, 0, &[]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatcherConfig;
    use crate::engine::{ServeConfig, ServeEngine};
    use teamnet_core::runtime::{serve_worker, shutdown_workers, MasterConfig};
    use teamnet_net::ChannelTransport;
    use teamnet_nn::{ModelSpec, Sequential};

    fn expert(seed: u64) -> Sequential {
        teamnet_core::build_expert(&ModelSpec::mlp(2, 16), seed)
    }

    #[test]
    fn tcp_round_trip_reply_and_reject() {
        let nodes = ChannelTransport::mesh(2);
        crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                let mut e = expert(1);
                serve_worker(&nodes[1], 0, &mut e).unwrap();
            });
            let config = ServeConfig {
                batch: BatcherConfig {
                    max_batch_rows: 8,
                    max_delay_ns: 2_000_000, // 2 ms: keep the test quick
                    queue_cap_rows: 32,
                },
                input_dims: vec![1, 28, 28],
                master: MasterConfig::default(),
            };
            let mut engine = ServeEngine::new(&nodes[0], expert(0), config);
            let handle = engine.handle();
            let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
            let addr = front.local_addr();
            let master_node = &nodes[0];
            let engine_thread = scope.spawn(move |_| engine.run(master_node));

            let mut client = ServeClient::connect(&addr).unwrap();
            let preds = client
                .infer(&teamnet_tensor::Tensor::full([2, 1, 28, 28], 0.3))
                .unwrap();
            assert_eq!(preds.len(), 2);
            // A mis-shaped tensor comes back as a typed rejection, not a
            // dead connection: the same client keeps working after.
            let err = client
                .infer(&teamnet_tensor::Tensor::full([1, 9, 9], 0.3))
                .unwrap_err();
            assert!(matches!(err, ServeError::Malformed(_)), "{err:?}");
            let preds = client
                .infer(&teamnet_tensor::Tensor::full([1, 1, 28, 28], 0.9))
                .unwrap();
            assert_eq!(preds.len(), 1);

            drop(client); // goodbye
            handle.close();
            engine_thread.join().unwrap();
            front.shutdown();
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    /// Regression: `shutdown()` used to join connection threads that
    /// were still parked in a frame read, so any client that stayed
    /// connected without sending `Goodbye` wedged shutdown forever.
    /// Shutdown now force-closes accepted sockets first.
    #[test]
    fn shutdown_unblocks_idle_connections() {
        let nodes = ChannelTransport::mesh(2);
        crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                let mut e = expert(1);
                serve_worker(&nodes[1], 0, &mut e).unwrap();
            });
            let config = ServeConfig {
                batch: BatcherConfig {
                    max_batch_rows: 8,
                    max_delay_ns: 2_000_000,
                    queue_cap_rows: 32,
                },
                input_dims: vec![1, 28, 28],
                master: MasterConfig::default(),
            };
            let mut engine = ServeEngine::new(&nodes[0], expert(0), config);
            let handle = engine.handle();
            let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
            let addr = front.local_addr();
            let master_node = &nodes[0];
            let engine_thread = scope.spawn(move |_| engine.run(master_node));

            // One client completes a request then idles mid-connection;
            // another connects and never sends a single frame. Neither
            // says goodbye before shutdown.
            let mut chatty = ServeClient::connect(&addr).unwrap();
            let preds = chatty
                .infer(&teamnet_tensor::Tensor::full([1, 1, 28, 28], 0.4))
                .unwrap();
            assert_eq!(preds.len(), 1);
            let idle = ServeClient::connect(&addr).unwrap();

            handle.close();
            engine_thread.join().unwrap();

            let (tx, rx) = std::sync::mpsc::channel();
            let shutter = scope.spawn(move |_| {
                front.shutdown();
                let _ = tx.send(());
            });
            rx.recv_timeout(Duration::from_secs(10))
                .expect("shutdown wedged on idle connections");
            shutter.join().unwrap();

            drop(chatty); // goodbye onto a closed socket: best-effort, ignored
            drop(idle);
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }

    /// Regression: every accepted connection used to leave its socket
    /// duplicate and thread handle tracked until shutdown, so a front
    /// serving many short-lived clients leaked one descriptor each until
    /// `accept` hit the fd limit and the accept loop quietly ended.
    #[cfg(target_os = "linux")]
    #[test]
    fn finished_connections_release_their_descriptors() {
        fn open_fds() -> usize {
            std::fs::read_dir("/proc/self/fd").unwrap().count()
        }
        let nodes = ChannelTransport::mesh(2);
        // Measured inside the cluster scope, asserted after it: a failed
        // assertion inside would leave the worker and engine unjoined.
        let (before, after, answered) = crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                let mut e = expert(1);
                serve_worker(&nodes[1], 0, &mut e).unwrap();
            });
            let config = ServeConfig {
                batch: BatcherConfig {
                    max_batch_rows: 8,
                    max_delay_ns: 100_000,
                    queue_cap_rows: 32,
                },
                input_dims: vec![1, 28, 28],
                master: MasterConfig::default(),
            };
            let mut engine = ServeEngine::new(&nodes[0], expert(0), config);
            let handle = engine.handle();
            let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
            let addr = front.local_addr();
            let master_node = &nodes[0];
            let engine_thread = scope.spawn(move |_| engine.run(master_node));

            let before = open_fds();
            let x = teamnet_tensor::Tensor::full([1, 1, 28, 28], 0.5);
            // A round trip proves the server accepted the connection; the
            // drop says goodbye.
            let answered = (0..200)
                .take_while(|_| {
                    ServeClient::connect(&addr)
                        .and_then(|mut c| c.infer(&x))
                        .is_ok()
                })
                .count();
            let after = open_fds();

            handle.close();
            engine_thread.join().unwrap();
            front.shutdown();
            shutdown_workers(&nodes[0]).unwrap();
            (before, after, answered)
        })
        .unwrap();
        assert_eq!(answered, 200);
        // Other tests in this process open sockets concurrently, so
        // allow some slack — the leak this guards against is +200.
        assert!(
            after <= before + 32,
            "descriptors grew from {before} to {after} over 200 clients"
        );
    }

    #[test]
    fn concurrent_clients_share_batches() {
        let nodes = ChannelTransport::mesh(2);
        crossbeam::thread::scope(|scope| {
            scope.spawn(|_| {
                let mut e = expert(1);
                serve_worker(&nodes[1], 0, &mut e).unwrap();
            });
            let config = ServeConfig {
                batch: BatcherConfig {
                    max_batch_rows: 16,
                    max_delay_ns: 4_000_000,
                    queue_cap_rows: 64,
                },
                input_dims: vec![1, 28, 28],
                master: MasterConfig::default(),
            };
            let mut engine = ServeEngine::new(&nodes[0], expert(0), config);
            let handle = engine.handle();
            let front = TcpServeFront::bind("127.0.0.1:0", handle.clone()).unwrap();
            let addr = front.local_addr();
            let master_node = &nodes[0];
            let engine_thread = scope.spawn(move |_| engine.run(master_node));

            let clients: Vec<_> = (0..4)
                .map(|i| {
                    scope.spawn(move |_| {
                        let mut client = ServeClient::connect(&addr).unwrap();
                        for r in 0..3 {
                            let x = teamnet_tensor::Tensor::full(
                                [1, 1, 28, 28],
                                (i as f32) * 0.2 + (r as f32) * 0.05,
                            );
                            let preds = client.infer(&x).unwrap();
                            assert_eq!(preds.len(), 1);
                        }
                    })
                })
                .collect();
            for c in clients {
                c.join().unwrap();
            }
            handle.close();
            engine_thread.join().unwrap();
            front.shutdown();
            shutdown_workers(&nodes[0]).unwrap();
        })
        .unwrap();
    }
}
