//! # teamnet-net
//!
//! The message-passing substrate of the TeamNet (ICDCS 2019) reproduction:
//! the stand-in for the paper's three communication stacks — raw TCP
//! sockets (TeamNet itself), MPI (the model-parallel baselines) and gRPC
//! (SG-MoE-G).
//!
//! * [`Transport`] — `(source, tag)`-matched point-to-point messaging with
//!   two implementations: [`ChannelTransport`] (in-process, used by the
//!   simulator and tests) and [`TcpTransport`] (framed sockets over real
//!   TCP, loopback or multi-host);
//! * [`Communicator`] — MPI-style collectives (broadcast / scatter /
//!   gather / all-gather / all-reduce / barrier);
//! * [`rpc`] — a minimal unary RPC layer (the gRPC stand-in);
//! * [`ChaosTransport`] — seeded, deterministic fault injection (drop /
//!   delay / corruption / duplication / black-holing) for resilience
//!   tests;
//! * [`Envelope`] — versioned, round-stamped, CRC-checked message
//!   envelopes for the fault-tolerant inference protocol;
//! * [`RetryPolicy`] / [`Backoff`] — bounded retries with exponential
//!   backoff and deterministic jitter under a deadline budget;
//! * [`codec`] — the wire formats, including the raw-`f32` tensor payload
//!   encoding whose byte counts drive the WiFi cost model.
//!
//! # Examples
//!
//! ```
//! use teamnet_net::{ChannelTransport, Communicator};
//!
//! // A 2-node in-process cluster: rank 0 broadcasts to rank 1.
//! let nodes = ChannelTransport::mesh(2);
//! let result = crossbeam::thread::scope(|scope| {
//!     scope.spawn(|_| {
//!         Communicator::new(&nodes[1]).broadcast(0, None).unwrap()
//!     });
//!     Communicator::new(&nodes[0]).broadcast(0, Some(b"sensor data")).unwrap()
//! });
//! assert_eq!(result.unwrap(), b"sensor data");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
pub mod codec;
mod collective;
mod envelope;
mod error;
mod faults;
mod mailbox;
mod retry;
pub mod rpc;
mod tcp;
mod transport;

pub use clock::{Clock, ManualClock, SystemClock};
pub use collective::{Communicator, COLLECTIVE_TAG_BASE};
pub use envelope::{
    crc32, derive_trace_id, peek_trace, Envelope, PayloadKind, TraceContext, ENVELOPE_HEADER_LEN,
    ENVELOPE_VERSION, FLAG_TRACE, TRACE_EXT_LEN,
};
pub use error::NetError;
pub use faults::{plan_fates, ChaosConfig, ChaosTransport, FaultFate};
pub use mailbox::Mailbox;
pub use retry::{Backoff, DetRng, RetryPolicy};
pub use tcp::TcpTransport;
pub use transport::{ChannelTransport, NodeId, Tag, Transport, TransportStats};
