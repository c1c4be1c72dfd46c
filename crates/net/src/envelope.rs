//! Versioned, round-stamped, checksummed message envelopes.
//!
//! The fault-tolerant inference protocol wraps every application payload
//! (input batches, result matrices, probes) in an [`Envelope`] so the
//! receiver can (a) reject traffic from an incompatible protocol version,
//! (b) attribute a message to the inference round that produced it —
//! discarding late replies instead of mis-scoring them against the wrong
//! batch — and (c) detect bit corruption in flight via a CRC-32 over the
//! payload.
//!
//! Wire layout (little-endian), 16 bytes of header:
//!
//! ```text
//! version: u16 | kind: u8 | flags: u8 | round: u64 | crc32(ext || payload): u32 | [ext] | payload
//! ```
//!
//! Byte 3 (written as zero since v1, never previously validated) is now a
//! flags byte. The only assigned bit is [`FLAG_TRACE`]: when set, a
//! 16-byte trace extension ([`TraceContext`]: trace id + parent span id)
//! sits between the header and the payload, and the CRC covers the
//! extension *and* the payload. A frame with no flags set is
//! byte-for-byte identical to a v1 frame, so the certified wire-cost
//! model (DESIGN.md §13) stays honest for untraced traffic. Unknown flag
//! bits are rejected on decode — they are this header's versioning lane.

use crate::codec::WireReader;
use crate::error::NetError;

/// Current envelope wire version. Bumped on incompatible layout changes;
/// a receiver rejects any other value with [`NetError::Malformed`].
pub const ENVELOPE_VERSION: u16 = 1;

/// Size of the fixed envelope header in bytes.
pub const ENVELOPE_HEADER_LEN: usize = 16;

/// Flags-byte bit marking the presence of a [`TraceContext`] extension
/// between the header and the payload.
pub const FLAG_TRACE: u8 = 0x01;

/// All flag bits this node understands; anything else is rejected.
const KNOWN_FLAGS: u8 = FLAG_TRACE;

/// Size of the serialized [`TraceContext`] extension in bytes.
pub const TRACE_EXT_LEN: usize = 16;

/// The causal trace context a frame can carry: which distributed trace
/// the message belongs to and which span on the *sender* caused it.
///
/// Both ids are deterministically derived (see [`derive_trace_id`]) — no
/// wall clock, no unseeded randomness — so two identical seeded runs
/// stamp identical contexts. The receiver uses `parent_span` to parent
/// its own processing span on the sender's, which is how
/// `cargo xtask trace-assemble` stitches per-node traces into one
/// cross-node causal DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Distributed trace id (one per inference round or serve request).
    pub trace_id: u64,
    /// Span id, in the sender's tracer, of the span that sent the frame.
    pub parent_span: u64,
}

impl TraceContext {
    /// The 16-byte wire form, `trace_id: u64 | parent_span: u64`
    /// (little-endian), shared by the envelope and the serve frame.
    pub fn to_wire(self) -> [u8; TRACE_EXT_LEN] {
        let mut out = [0u8; TRACE_EXT_LEN];
        let (id_half, span_half) = out.split_at_mut(8);
        id_half.copy_from_slice(&self.trace_id.to_le_bytes());
        span_half.copy_from_slice(&self.parent_span.to_le_bytes());
        out
    }

    /// Reads the wire form written by [`TraceContext::to_wire`].
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] when fewer than 16 bytes remain.
    pub fn from_wire(r: &mut WireReader<'_>) -> Result<Self, NetError> {
        Ok(TraceContext {
            trace_id: r.u64()?,
            parent_span: r.u64()?,
        })
    }
}

/// Reads the trace context off an encoded envelope without a full decode
/// (no CRC pass, no payload copy). `None` when the frame is untraced,
/// truncated, or not an envelope at all — callers wanting validation use
/// [`Envelope::decode`]; this is for IO shells annotating recv events.
pub fn peek_trace(bytes: &[u8]) -> Option<TraceContext> {
    let mut r = WireReader::new(bytes);
    let (version, _kind, flags) = (r.u16().ok()?, r.u8().ok()?, r.u8().ok()?);
    r.bytes(ENVELOPE_HEADER_LEN - 4).ok()?; // round + crc
    let traced = version == ENVELOPE_VERSION && flags & FLAG_TRACE != 0;
    traced
        .then(|| TraceContext::from_wire(&mut r).ok())
        .flatten()
}

/// Derives a trace id from a session seed and a session-local round
/// index with a SplitMix64 finalizer: deterministic, well-mixed, and
/// collision-free for distinct `(seed, round)` pairs up to mixing.
pub fn derive_trace_id(seed: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an envelope carries. The kind travels on the wire as one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PayloadKind {
    /// A broadcast input batch (master → worker).
    Input,
    /// A per-row result matrix (worker → master).
    Result,
    /// A liveness probe sent to a quarantined peer (master → worker).
    /// Carries no payload; deliberately tiny so probing stays cheap.
    Probe,
    /// Acknowledgement of a [`PayloadKind::Probe`] (worker → master).
    ProbeAck,
    /// Recovery control message (master → worker): offer to host a
    /// migrated expert (architecture spec + transfer manifest), release a
    /// hosted expert on hand-back, or abort an in-flight transfer.
    LoadExpert,
    /// One chunk of a migrated expert's serialized parameter state
    /// (master → worker), part of a chunked, resumable transfer.
    LoadChunk,
    /// Worker's acknowledgement in the expert-transfer protocol
    /// (worker → master): accept/refuse an offer, per-chunk progress
    /// cursor, completion, or a mid-transfer error.
    LoadAck,
}

impl PayloadKind {
    fn to_wire(self) -> u8 {
        match self {
            PayloadKind::Input => 0,
            PayloadKind::Result => 1,
            PayloadKind::Probe => 2,
            PayloadKind::ProbeAck => 3,
            PayloadKind::LoadExpert => 4,
            PayloadKind::LoadChunk => 5,
            PayloadKind::LoadAck => 6,
        }
    }

    fn from_wire(b: u8) -> Result<Self, NetError> {
        match b {
            0 => Ok(PayloadKind::Input),
            1 => Ok(PayloadKind::Result),
            2 => Ok(PayloadKind::Probe),
            3 => Ok(PayloadKind::ProbeAck),
            4 => Ok(PayloadKind::LoadExpert),
            5 => Ok(PayloadKind::LoadChunk),
            6 => Ok(PayloadKind::LoadAck),
            other => Err(NetError::Malformed(format!(
                "unknown envelope payload kind {other}"
            ))),
        }
    }
}

/// A decoded protocol message: round stamp, payload kind and the verified
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Monotonic inference-round identifier assigned by the master. A
    /// worker echoes the round of the input it is answering.
    pub round: u64,
    /// What the payload is.
    pub kind: PayloadKind,
    /// The application payload (already checksum-verified on decode).
    pub payload: Vec<u8>,
    /// Causal trace context, when the frame carries the [`FLAG_TRACE`]
    /// extension. `None` encodes byte-identically to a v1 frame.
    pub trace: Option<TraceContext>,
}

impl Envelope {
    /// Builds an envelope around `payload` for `round`.
    pub fn new(round: u64, kind: PayloadKind, payload: Vec<u8>) -> Self {
        Envelope {
            round,
            kind,
            payload,
            trace: None,
        }
    }

    /// Attaches a trace context, consuming and returning the envelope so
    /// send sites can stamp inline: `Envelope::new(..).with_trace(ctx)`.
    #[must_use]
    pub fn with_trace(mut self, ctx: TraceContext) -> Self {
        self.trace = Some(ctx);
        self
    }

    /// Serializes the envelope into a fresh buffer.
    pub fn encode(&self) -> Vec<u8> {
        let ext = self.trace.map(TraceContext::to_wire);
        let ext_bytes = ext.as_ref().map(|e| e.as_slice()).unwrap_or_default();
        let mut buf =
            Vec::with_capacity(ENVELOPE_HEADER_LEN + ext_bytes.len() + self.payload.len());
        buf.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        buf.push(self.kind.to_wire());
        buf.push(if ext.is_some() { FLAG_TRACE } else { 0 });
        buf.extend_from_slice(&self.round.to_le_bytes());
        let mut crc: u32 = !0;
        for &b in ext_bytes.iter().chain(&self.payload) {
            crc = crc32_step(crc, b);
        }
        buf.extend_from_slice(&(!crc).to_le_bytes());
        buf.extend_from_slice(ext_bytes);
        buf.extend_from_slice(&self.payload);
        buf
    }

    /// Checks that this envelope belongs to the round the receiver is
    /// currently collecting.
    ///
    /// # Errors
    ///
    /// [`NetError::Stale`] when the stamp disagrees — a late reply from an
    /// earlier round, or a duplicate of one already consumed. Receivers
    /// discard such traffic instead of scoring it against the wrong batch.
    pub fn expect_round(&self, current: u64) -> Result<(), NetError> {
        if self.round == current {
            Ok(())
        } else {
            Err(NetError::Stale {
                got: self.round,
                current,
            })
        }
    }

    /// Parses and integrity-checks an envelope.
    ///
    /// # Errors
    ///
    /// * [`NetError::Malformed`] for a truncated header, an unknown
    ///   version, an unknown payload kind, an unknown flag bit, or a
    ///   flagged trace extension the frame is too short to carry;
    /// * [`NetError::Corrupt`] when the CRC disagrees with the header (a
    ///   flipped bit anywhere in the extension or payload).
    pub fn decode(bytes: &[u8]) -> Result<Envelope, NetError> {
        let mut r = WireReader::new(bytes);
        let version = r.u16()?;
        if version != ENVELOPE_VERSION {
            return Err(NetError::Malformed(format!(
                "envelope version {version}, this node speaks {ENVELOPE_VERSION}"
            )));
        }
        let kind = PayloadKind::from_wire(r.u8()?)?;
        let flags = r.u8()?;
        if flags & !KNOWN_FLAGS != 0 {
            return Err(NetError::Malformed(format!(
                "envelope carries unknown flag bits {:#04x}",
                flags & !KNOWN_FLAGS
            )));
        }
        let round = r.u64()?;
        let expected = r.u32()?;
        // The CRC covers everything after the header — extension included
        // — so corruption is caught before the extension is interpreted.
        let got = crc32(r.clone().rest());
        if got != expected {
            return Err(NetError::Corrupt { expected, got });
        }
        let trace = if flags & FLAG_TRACE != 0 {
            Some(TraceContext::from_wire(&mut r)?)
        } else {
            None
        };
        Ok(Envelope {
            round,
            kind,
            payload: r.rest().to_vec(),
            trace,
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the same
/// checksum Ethernet and zlib use. Bitwise implementation: the payloads
/// here are small enough that a lookup table buys nothing.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc = crc32_step(crc, b);
    }
    !crc
}

/// One byte of the CRC-32 state machine, for callers hashing
/// non-contiguous regions without concatenating them first.
fn crc32_step(mut crc: u32, b: u8) -> u32 {
    crc ^= u32::from(b);
    for _ in 0..8 {
        let mask = (crc & 1).wrapping_neg();
        crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
    }
    crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip() {
        let env = Envelope::new(42, PayloadKind::Result, vec![1, 2, 3, 255]);
        let decoded = Envelope::decode(&env.encode()).unwrap();
        assert_eq!(decoded, env);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let env = Envelope::new(7, PayloadKind::Probe, Vec::new());
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn flipped_bit_is_corrupt() {
        let mut bytes = Envelope::new(3, PayloadKind::Input, vec![0u8; 32]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x10;
        let res = Envelope::decode(&bytes);
        assert!(matches!(res, Err(NetError::Corrupt { .. })), "{res:?}");
    }

    #[test]
    fn wrong_version_rejected() {
        let mut bytes = Envelope::new(1, PayloadKind::Input, vec![9]).encode();
        bytes[0] = 0xFF;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = Envelope::new(1, PayloadKind::Input, Vec::new()).encode();
        bytes[2] = 200;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let bytes = Envelope::new(1, PayloadKind::Result, vec![5; 8]).encode();
        assert!(matches!(
            Envelope::decode(&bytes[..10]),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn expect_round_rejects_other_rounds() {
        let env = Envelope::new(41, PayloadKind::Result, Vec::new());
        assert!(env.expect_round(41).is_ok());
        let err = env.expect_round(42).unwrap_err();
        assert!(
            matches!(
                err,
                NetError::Stale {
                    got: 41,
                    current: 42
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn recovery_kinds_roundtrip() {
        for kind in [
            PayloadKind::LoadExpert,
            PayloadKind::LoadChunk,
            PayloadKind::LoadAck,
        ] {
            let env = Envelope::new(17, kind, vec![0xAB; 5]);
            let back = Envelope::decode(&env.encode()).unwrap();
            assert_eq!(back.kind, kind);
            assert_eq!(back, env);
        }
    }

    #[test]
    fn round_stamp_survives() {
        for round in [0u64, 1, u64::MAX] {
            let env = Envelope::new(round, PayloadKind::ProbeAck, vec![1]);
            assert_eq!(Envelope::decode(&env.encode()).unwrap().round, round);
        }
    }

    #[test]
    fn untraced_encoding_is_byte_identical_to_v1() {
        // The certified wire-cost model (DESIGN.md §13) pins the v1
        // layout; an untraced envelope must not drift from it.
        let env = Envelope::new(42, PayloadKind::Result, vec![1, 2, 3, 255]);
        let bytes = env.encode();
        let mut v1 = Vec::new();
        v1.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        v1.push(1); // Result
        v1.push(0); // no flags
        v1.extend_from_slice(&42u64.to_le_bytes());
        v1.extend_from_slice(&crc32(&[1, 2, 3, 255]).to_le_bytes());
        v1.extend_from_slice(&[1, 2, 3, 255]);
        assert_eq!(bytes, v1);
    }

    #[test]
    fn traced_roundtrip() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            parent_span: 31,
        };
        let env = Envelope::new(9, PayloadKind::Input, vec![7; 11]).with_trace(ctx);
        let bytes = env.encode();
        assert_eq!(bytes.len(), ENVELOPE_HEADER_LEN + TRACE_EXT_LEN + 11);
        let back = Envelope::decode(&bytes).unwrap();
        assert_eq!(back, env);
        assert_eq!(back.trace, Some(ctx));
        assert_eq!(back.payload, vec![7; 11]);
    }

    #[test]
    fn traced_empty_payload_roundtrip() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span: 0,
        };
        let env = Envelope::new(3, PayloadKind::Probe, Vec::new()).with_trace(ctx);
        assert_eq!(Envelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn unknown_flag_bits_rejected() {
        let mut bytes = Envelope::new(1, PayloadKind::Input, vec![9]).encode();
        bytes[3] = 0x80;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn corrupt_trace_extension_detected() {
        let ctx = TraceContext {
            trace_id: 55,
            parent_span: 8,
        };
        let mut bytes = Envelope::new(2, PayloadKind::Result, vec![4; 6])
            .with_trace(ctx)
            .encode();
        // Flip a bit inside the extension region, not the payload.
        bytes[ENVELOPE_HEADER_LEN + 2] ^= 0x01;
        assert!(matches!(
            Envelope::decode(&bytes),
            Err(NetError::Corrupt { .. })
        ));
    }

    #[test]
    fn flagged_but_truncated_extension_rejected() {
        // A frame whose flags claim a trace extension but whose body is
        // shorter than one. CRC must be made consistent so the length
        // check is what fires.
        let mut buf = Vec::new();
        buf.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
        buf.push(0); // Input
        buf.push(FLAG_TRACE);
        buf.extend_from_slice(&5u64.to_le_bytes());
        let body = [0xAAu8; 4];
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);
        assert!(matches!(
            Envelope::decode(&buf),
            Err(NetError::Malformed(_))
        ));
    }

    #[test]
    fn peek_trace_reads_without_full_decode() {
        let ctx = TraceContext {
            trace_id: 12,
            parent_span: 34,
        };
        let traced = Envelope::new(1, PayloadKind::Input, vec![5]).with_trace(ctx);
        assert_eq!(peek_trace(&traced.encode()), Some(ctx));
        let plain = Envelope::new(1, PayloadKind::Input, vec![5]);
        assert_eq!(peek_trace(&plain.encode()), None);
        assert_eq!(peek_trace(&[1, 2, 3]), None);
        // Truncated right after the header: flagged but no extension.
        assert_eq!(peek_trace(&traced.encode()[..ENVELOPE_HEADER_LEN]), None);
    }

    #[test]
    fn derive_trace_id_is_deterministic_and_mixes() {
        assert_eq!(derive_trace_id(7, 3), derive_trace_id(7, 3));
        assert_ne!(derive_trace_id(7, 3), derive_trace_id(7, 4));
        assert_ne!(derive_trace_id(7, 3), derive_trace_id(8, 3));
        // Zero inputs still yield a non-trivial id.
        assert_ne!(derive_trace_id(0, 0), 0);
    }
}
