//! Benchmark-side wrappers that time calls into the `net` and `nn` layers
//! without touching the program: a [`Transport`] around each node's
//! endpoint and a [`Layer`] around each node's expert (handed to the
//! runtime as a one-child `Sequential`).

use crate::trace::{Kind, Recorder, Span};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use teamnet_core::runtime::{TAG_INPUT, TAG_RESULT};
use teamnet_net::{NetError, NodeId, Tag, Transport, TransportStats, ENVELOPE_HEADER_LEN};
use teamnet_nn::{CostNode, Layer, LayerProfile, Mode, Sequential, ShapeError};
use teamnet_tensor::Tensor;

/// Envelope round stamp: bytes 4..12 of the header, little-endian.
fn peek_round(frame: &[u8]) -> u64 {
    frame
        .get(4..12)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Leading dimension of the `f32` tensor inside an untraced input frame:
/// the envelope header, then `rank: u32`, then `dims[0]: u32`.
fn peek_rows(frame: &[u8]) -> u64 {
    let at = ENVELOPE_HEADER_LEN + 4;
    frame
        .get(at..at + 4)
        .and_then(|b| b.try_into().ok())
        .map_or(0, |b| u64::from(u32::from_le_bytes(b)))
}

/// The round a node is working on: the stamp of the last input frame it
/// sent (master) or received (worker). Shared by a node's two wrappers so
/// a forward is attributed to its round.
#[derive(Debug, Default)]
pub struct NodeRound(AtomicU64);

impl NodeRound {
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn set(&self, round: u64) {
        self.0.store(round, Ordering::Relaxed);
    }
}

/// A [`Transport`] that times every send and receive of the endpoint it
/// wraps.
pub struct TapTransport<T> {
    inner: T,
    rec: Arc<Recorder>,
    round: Arc<NodeRound>,
}

impl<T: Transport> TapTransport<T> {
    /// Wraps `inner`; `round` is shared with the same node's [`TapLayer`].
    pub fn new(inner: T, rec: Arc<Recorder>, round: Arc<NodeRound>) -> Self {
        TapTransport { inner, rec, round }
    }

    fn after_recv(&self, from: NodeId, tag: Tag, start: u64, got: Option<&[u8]>) {
        let end = self.rec.now_ns();
        let node = self.inner.node_id() as u32;
        self.rec.count_recv(node, got.is_some());
        let kind = match tag {
            TAG_INPUT => Kind::RecvInput,
            TAG_RESULT => Kind::RecvResult,
            _ => Kind::RecvOther,
        };
        // Every result receive is a leg of the gather, frame or timeout;
        // other receives count only when they return a frame (the
        // worker's 1 ms shutdown polls would otherwise swamp the store).
        let round = match got {
            Some(frame) => peek_round(frame),
            None if kind == Kind::RecvResult => self.round.get(),
            None => return,
        };
        if kind == Kind::RecvInput {
            self.round.set(round);
        }
        self.rec.record(Span {
            kind,
            node,
            peer: from as u32,
            round,
            req: 0,
            start_ns: start,
            end_ns: end,
            n: got.map_or(0, |f| f.len() as u64),
            aux: 0,
            cause: 0,
        });
    }
}

impl<T: Transport> Transport for TapTransport<T> {
    fn node_id(&self) -> NodeId {
        self.inner.node_id()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn send(&self, to: NodeId, tag: Tag, payload: &[u8]) -> Result<(), NetError> {
        let start = self.rec.now_ns();
        let result = self.inner.send(to, tag, payload);
        let end = self.rec.now_ns();
        let (kind, round, aux) = match tag {
            TAG_INPUT => {
                let round = peek_round(payload);
                self.round.set(round);
                (Kind::SendInput, round, peek_rows(payload))
            }
            TAG_RESULT => (Kind::SendResult, peek_round(payload), 0),
            _ => (Kind::SendOther, 0, 0),
        };
        self.rec.record(Span {
            kind,
            node: self.inner.node_id() as u32,
            peer: to as u32,
            round,
            req: 0,
            start_ns: start,
            end_ns: end,
            n: payload.len() as u64,
            aux,
            cause: 0,
        });
        result
    }

    fn recv(&self, from: NodeId, tag: Tag, timeout: Duration) -> Result<Vec<u8>, NetError> {
        let start = self.rec.now_ns();
        let result = self.inner.recv(from, tag, timeout);
        self.after_recv(from, tag, start, result.as_deref().ok());
        result
    }

    fn recv_any(&self, tag: Tag, timeout: Duration) -> Result<(NodeId, Vec<u8>), NetError> {
        let start = self.rec.now_ns();
        let result = self.inner.recv_any(tag, timeout);
        match &result {
            Ok((from, frame)) => self.after_recv(*from, tag, start, Some(frame)),
            Err(_) => self.after_recv(self.inner.node_id(), tag, start, None),
        }
        result
    }

    fn stats(&self) -> TransportStats {
        self.inner.stats()
    }
}

/// A [`Layer`] that times every forward of the expert it wraps and prices
/// it with `Sequential::per_layer_profile` at the call's dims.
pub struct TapLayer {
    inner: Sequential,
    node: u32,
    rec: Arc<Recorder>,
    round: Arc<NodeRound>,
    /// FLOPs per input dims seen so far.
    flops: Vec<(Vec<usize>, u64)>,
}

impl TapLayer {
    /// Wraps `expert` as the only child of a new `Sequential`, the shape
    /// the runtime takes.
    pub fn wrap(
        expert: Sequential,
        node: u32,
        rec: Arc<Recorder>,
        round: Arc<NodeRound>,
    ) -> Sequential {
        let mut seq = Sequential::new();
        seq.push(TapLayer {
            inner: expert,
            node,
            rec,
            round,
            flops: Vec::new(),
        });
        seq
    }

    fn flops_at(&mut self, dims: &[usize]) -> u64 {
        if let Some((_, f)) = self.flops.iter().find(|(d, _)| d == dims) {
            return *f;
        }
        let f = self
            .inner
            .per_layer_profile(dims)
            .iter()
            .map(|l| l.flops)
            .sum();
        self.flops.push((dims.to_vec(), f));
        f
    }
}

impl Layer for TapLayer {
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor {
        let start = self.rec.now_ns();
        let out = self.inner.forward(input, mode);
        let end = self.rec.now_ns();
        if self.rec.armed() {
            let flops = self.flops_at(input.dims());
            self.rec.record(Span {
                kind: Kind::Forward,
                node: self.node,
                peer: self.node,
                round: self.round.get(),
                req: 0,
                start_ns: start,
                end_ns: end,
                n: input.dims().first().map_or(0, |&r| r as u64),
                aux: flops,
                cause: 0,
            });
        }
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.inner.backward(grad_out)
    }

    fn visit_params(&mut self, visitor: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        self.inner.visit_params(visitor);
    }

    fn zero_grad(&mut self) {
        self.inner.zero_grad();
    }

    fn out_dims(&self, in_dims: &[usize]) -> Vec<usize> {
        self.inner.out_dims(in_dims)
    }

    fn check_shape(&self, in_dims: &[usize]) -> Result<Vec<usize>, ShapeError> {
        self.inner.check_shape(in_dims)
    }

    fn flops(&self, in_dims: &[usize]) -> u64 {
        self.inner.flops(in_dims)
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn name(&self) -> &'static str {
        "TapLayer"
    }

    fn workspace_bytes(&self, in_dims: &[usize]) -> u64 {
        self.inner.workspace_bytes(in_dims)
    }

    fn cost_node(&self, in_dims: &[usize]) -> CostNode {
        self.inner.cost_node(in_dims)
    }

    fn profile_into(&self, in_dims: &[usize], out: &mut Vec<LayerProfile>) -> Vec<usize> {
        self.inner.profile_into(in_dims, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamnet_net::{Envelope, PayloadKind};

    #[test]
    fn peeks_match_the_envelope_codec() {
        let payload = teamnet_net::codec::encode_f32s(&[3, 2], &[0.0; 6]);
        let frame = Envelope::new(0xABCD_0042, PayloadKind::Input, payload).encode();
        assert_eq!(peek_round(&frame), 0xABCD_0042);
        assert_eq!(peek_rows(&frame), 3);
        assert_eq!(peek_round(&[1, 2]), 0);
    }
}
