//! A minimal unary RPC layer — the stand-in for gRPC in the paper's
//! SG-MoE-G configuration.
//!
//! Requests carry `request_id | method | payload`; responses echo the
//! request id with either a payload or an error string. The server loop
//! ([`serve`]) dispatches to a handler closure until asked to stop, and
//! [`RpcClient`] issues blocking calls.

use crate::codec::WireReader;
use crate::error::NetError;
use crate::transport::{NodeId, Tag, Transport};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tag carrying RPC requests.
pub const RPC_REQUEST: Tag = Tag(0xC100_0000);
/// Tag carrying RPC responses.
pub const RPC_RESPONSE: Tag = Tag(0xC100_0001);

const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Encodes a request: `request_id: u64 | method: u32 | payload`.
pub fn encode_request(request_id: u64, method: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.extend_from_slice(&request_id.to_le_bytes());
    buf.extend_from_slice(&method.to_le_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Decodes a request written by [`encode_request`]
/// ([`NetError::Malformed`] when shorter than its 12-byte header).
pub fn decode_request(bytes: &[u8]) -> Result<(u64, u32, &[u8]), NetError> {
    let mut r = WireReader::new(bytes);
    Ok((r.u64()?, r.u32()?, r.rest()))
}

/// Encodes a response: `request_id: u64 | status: u8 | payload or error
/// text`.
pub fn encode_response(request_id: u64, result: &Result<Vec<u8>, String>) -> Vec<u8> {
    let mut buf = Vec::with_capacity(9);
    buf.extend_from_slice(&request_id.to_le_bytes());
    match result {
        Ok(payload) => {
            buf.push(STATUS_OK);
            buf.extend_from_slice(payload);
        }
        Err(msg) => {
            buf.push(STATUS_ERR);
            buf.extend_from_slice(msg.as_bytes());
        }
    }
    buf
}

/// Decodes a response written by [`encode_response`]
/// ([`NetError::Malformed`] when shorter than its 9-byte header or
/// carrying an unknown status byte).
pub fn decode_response(bytes: &[u8]) -> Result<(u64, Result<Vec<u8>, String>), NetError> {
    let mut r = WireReader::new(bytes);
    let request_id = r.u64()?;
    let result = match r.u8()? {
        STATUS_OK => Ok(r.rest().to_vec()),
        STATUS_ERR => Err(String::from_utf8_lossy(r.rest()).into_owned()),
        other => return Err(NetError::Malformed(format!("unknown rpc status {other}"))),
    };
    Ok((request_id, result))
}

/// Client side of the RPC layer.
///
/// Calls are matched to responses by request id, so one client may be used
/// from one thread at a time (clone the transport's endpoint per thread for
/// concurrency).
pub struct RpcClient<'a> {
    transport: &'a dyn Transport,
    timeout: Duration,
    next_id: AtomicU64,
}

impl<'a> RpcClient<'a> {
    /// Creates a client with a 30 s call timeout.
    pub fn new(transport: &'a dyn Transport) -> Self {
        RpcClient {
            transport,
            timeout: Duration::from_secs(30),
            next_id: AtomicU64::new(1),
        }
    }

    /// Creates a client with a custom call timeout.
    pub fn with_timeout(transport: &'a dyn Transport, timeout: Duration) -> Self {
        RpcClient {
            transport,
            timeout,
            next_id: AtomicU64::new(1),
        }
    }

    /// Issues a blocking unary call of `method` on node `to`.
    ///
    /// # Errors
    ///
    /// * [`NetError::Remote`] if the handler returned an error;
    /// * [`NetError::Timeout`] if no response arrived in time;
    /// * transport errors otherwise.
    pub fn call(&self, to: NodeId, method: u32, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.transport.send(
            to,
            RPC_REQUEST,
            &encode_request(request_id, method, payload),
        )?;
        let deadline = std::time::Instant::now() + self.timeout;
        loop {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                return Err(NetError::Timeout {
                    waiting_for: format!("rpc response {request_id}"),
                });
            }
            let bytes = self.transport.recv(to, RPC_RESPONSE, remaining)?;
            let (rid, result) = decode_response(&bytes)?;
            if rid != request_id {
                // Stale response from an earlier timed-out call; skip it.
                continue;
            }
            return result.map_err(NetError::Remote);
        }
    }
}

impl std::fmt::Debug for RpcClient<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RpcClient(node {})", self.transport.node_id())
    }
}

/// Handle to stop a running [`serve`] loop.
#[derive(Debug, Clone, Default)]
pub struct ServerControl {
    stop: Arc<AtomicBool>,
}

impl ServerControl {
    /// Creates a control handle in the running state.
    pub fn new() -> Self {
        ServerControl {
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Asks the server loop to exit after its current poll interval.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// True once [`ServerControl::stop`] has been called.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Runs an RPC server loop on `transport`, dispatching every request to
/// `handler(from, method, payload)` until `control.stop()` is called.
///
/// Handler errors are reported back to the caller as
/// [`NetError::Remote`]; they do not stop the loop.
///
/// # Errors
///
/// Returns early only on transport failure (closed mailbox).
pub fn serve(
    transport: &dyn Transport,
    control: &ServerControl,
    mut handler: impl FnMut(NodeId, u32, &[u8]) -> Result<Vec<u8>, String>,
) -> Result<(), NetError> {
    const POLL: Duration = Duration::from_millis(50);
    while !control.is_stopped() {
        match transport.recv_any(RPC_REQUEST, POLL) {
            Ok((from, bytes)) => {
                let (request_id, method, payload) = match decode_request(&bytes) {
                    Ok(parts) => parts,
                    Err(_) => continue, // drop malformed requests
                };
                let result = handler(from, method, payload);
                transport.send(from, RPC_RESPONSE, &encode_response(request_id, &result))?;
            }
            Err(NetError::Timeout { .. }) => continue,
            Err(NetError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use crossbeam::thread;

    #[test]
    fn request_codec_roundtrip() {
        let buf = encode_request(42, 7, b"abc");
        let (id, method, payload) = decode_request(&buf).unwrap();
        assert_eq!((id, method, payload), (42, 7, &b"abc"[..]));
        assert!(matches!(
            decode_request(&buf[..5]),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn response_codec_roundtrip() {
        let ok = encode_response(1, &Ok(b"yes".to_vec()));
        assert_eq!(decode_response(&ok).unwrap(), (1, Ok(b"yes".to_vec())));
        let err = encode_response(2, &Err("boom".to_string()));
        assert_eq!(decode_response(&err).unwrap(), (2, Err("boom".to_string())));
        assert!(matches!(
            decode_response(&[0; 3]),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn call_and_response() {
        let nodes = ChannelTransport::mesh(2);
        let control = ServerControl::new();
        let control2 = control.clone();
        thread::scope(|scope| {
            scope.spawn(|_| {
                serve(&nodes[1], &control2, |from, method, payload| {
                    assert_eq!(from, 0);
                    let mut out = payload.to_vec();
                    out.push(method as u8);
                    Ok(out)
                })
                .unwrap();
            });
            let client = RpcClient::new(&nodes[0]);
            let reply = client.call(1, 9, b"hi").unwrap();
            assert_eq!(reply, b"hi\x09");
            let reply2 = client.call(1, 1, b"again").unwrap();
            assert_eq!(reply2, b"again\x01");
            control.stop();
        })
        .unwrap();
    }

    #[test]
    fn handler_errors_surface_as_remote() {
        let nodes = ChannelTransport::mesh(2);
        let control = ServerControl::new();
        let control2 = control.clone();
        thread::scope(|scope| {
            scope.spawn(|_| {
                serve(&nodes[1], &control2, |_, _, _| Err("nope".to_string())).unwrap();
            });
            let client = RpcClient::new(&nodes[0]);
            let err = client.call(1, 0, b"").unwrap_err();
            assert!(
                matches!(err, NetError::Remote(ref m) if m == "nope"),
                "{err}"
            );
            control.stop();
        })
        .unwrap();
    }

    #[test]
    fn call_times_out_without_server() {
        let nodes = ChannelTransport::mesh(2);
        let client = RpcClient::with_timeout(&nodes[0], Duration::from_millis(50));
        assert!(matches!(
            client.call(1, 0, b""),
            Err(NetError::Timeout { .. })
        ));
    }

    #[test]
    fn rpc_over_tcp() {
        let nodes = crate::tcp::TcpTransport::mesh_localhost(2).unwrap();
        let control = ServerControl::new();
        let control2 = control.clone();
        thread::scope(|scope| {
            scope.spawn(|_| {
                serve(&nodes[1], &control2, |_, _, payload| {
                    Ok(payload.iter().rev().copied().collect())
                })
                .unwrap();
            });
            let client = RpcClient::new(&nodes[0]);
            assert_eq!(client.call(1, 0, b"abc").unwrap(), b"cba");
            control.stop();
        })
        .unwrap();
    }
}
