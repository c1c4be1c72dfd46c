//! The framed client protocol: how serving requests and replies cross a
//! byte stream.
//!
//! This is deliberately *not* the cluster's [`teamnet_net::Envelope`]
//! protocol: clients are outside the trust and versioning boundary of the
//! master↔worker mesh, so they get their own minimal framing —
//! `magic | kind | request id | length | crc32 | payload` — with the same
//! defensive posture (length bound before allocation, CRC before decode).
//! `cargo xtask protocol` audits that every [`ServeMsgKind`] is
//! constructed by real producers and dispatched in the TCP front-end
//! (`crates/serve/src/tcp.rs`).

use crate::error::ServeError;
use std::io::{Read, Write};
use teamnet_core::TeamPrediction;
use teamnet_net::codec::{read_exact_vec, WireReader};
use teamnet_net::{crc32, NetError, TraceContext, TRACE_EXT_LEN};

/// Frame magic: `b"TSRV"` little-endian, so a stray connection speaking
/// the wrong protocol fails fast instead of mis-decoding.
pub const SERVE_MAGIC: u32 = 0x5652_5354;

/// Frame header length: magic(4) | kind(1) | req_id(8) | len(4) | crc(4).
pub const SERVE_HEADER_LEN: usize = 21;

/// High bit of the kind byte: the header is followed by a 16-byte trace
/// extension (`trace_id: u64 | parent_span: u64`, little-endian), covered
/// by the frame CRC together with the payload. Untraced frames stay
/// byte-identical to the pre-tracing protocol (DESIGN.md §17).
pub const SERVE_TRACE_FLAG: u8 = 0x80;

/// Length of the optional trace extension ([`TraceContext`]'s wire form).
pub const SERVE_TRACE_EXT_LEN: usize = TRACE_EXT_LEN;

/// Largest accepted payload: a 64-row batch of 28×28 images is ~200 KiB;
/// 16 MiB leaves room for generous feature dims while bounding what a
/// malicious length field can make the server allocate.
pub const MAX_SERVE_PAYLOAD: usize = 16 * 1024 * 1024;

/// Message kinds on a serving connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMsgKind {
    /// Client → server: one inference request carrying a tensor payload
    /// ([`teamnet_net::codec::encode_f32s`]).
    Request,
    /// Server → client: per-row winning predictions for a request.
    Reply,
    /// Server → client: a typed [`ServeError`] rejection.
    Reject,
    /// Client → server: clean end of session; the connection closes.
    Goodbye,
}

impl ServeMsgKind {
    fn to_byte(self) -> u8 {
        match self {
            ServeMsgKind::Request => 1,
            ServeMsgKind::Reply => 2,
            ServeMsgKind::Reject => 3,
            ServeMsgKind::Goodbye => 4,
        }
    }

    fn from_byte(b: u8) -> Result<Self, ServeError> {
        match b {
            1 => Ok(ServeMsgKind::Request),
            2 => Ok(ServeMsgKind::Reply),
            3 => Ok(ServeMsgKind::Reject),
            4 => Ok(ServeMsgKind::Goodbye),
            other => Err(ServeError::Malformed(format!(
                "unknown serve message kind {other}"
            ))),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeFrame {
    /// What the frame is.
    pub kind: ServeMsgKind,
    /// Which request it belongs to (client-chosen, echoed by the server).
    pub req_id: u64,
    /// Trace context carried by the [`SERVE_TRACE_FLAG`] extension, if
    /// the sender stamped one.
    pub trace: Option<TraceContext>,
    /// Kind-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Encodes one untraced frame (byte-identical to the pre-tracing
/// protocol).
pub fn encode_serve_frame(kind: ServeMsgKind, req_id: u64, payload: &[u8]) -> Vec<u8> {
    encode_serve_frame_traced(kind, req_id, None, payload)
}

/// Encodes one frame, stamping the [`SERVE_TRACE_FLAG`] extension when
/// `trace` is given; the CRC covers the extension and the payload.
pub fn encode_serve_frame_traced(
    kind: ServeMsgKind,
    req_id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> Vec<u8> {
    let ext = trace.map(TraceContext::to_wire);
    let ext_bytes = if ext.is_some() {
        SERVE_TRACE_EXT_LEN
    } else {
        0
    };
    let mut out = Vec::with_capacity(SERVE_HEADER_LEN + ext_bytes + payload.len());
    out.extend_from_slice(&SERVE_MAGIC.to_le_bytes());
    out.push(kind.to_byte() | if ext.is_some() { SERVE_TRACE_FLAG } else { 0 });
    out.extend_from_slice(&req_id.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let crc = match &ext {
        Some(ext) => {
            let mut body = Vec::with_capacity(ext.len() + payload.len());
            body.extend_from_slice(ext);
            body.extend_from_slice(payload);
            crc32(&body)
        }
        None => crc32(payload),
    };
    out.extend_from_slice(&crc.to_le_bytes());
    if let Some(ext) = &ext {
        out.extend_from_slice(ext);
    }
    out.extend_from_slice(payload);
    out
}

/// Writes one untraced frame to a byte stream.
///
/// # Errors
///
/// [`ServeError::Closed`] when the stream is gone.
pub fn write_serve_frame(
    writer: &mut dyn Write,
    kind: ServeMsgKind,
    req_id: u64,
    payload: &[u8],
) -> Result<(), ServeError> {
    write_serve_frame_traced(writer, kind, req_id, None, payload)
}

/// Writes one frame, stamping the trace extension when `trace` is given.
///
/// # Errors
///
/// [`ServeError::Closed`] when the stream is gone.
pub fn write_serve_frame_traced(
    writer: &mut dyn Write,
    kind: ServeMsgKind,
    req_id: u64,
    trace: Option<TraceContext>,
    payload: &[u8],
) -> Result<(), ServeError> {
    let bytes = encode_serve_frame_traced(kind, req_id, trace, payload);
    writer
        .write_all(&bytes)
        .and_then(|()| writer.flush())
        .map_err(|_| ServeError::Closed)
}

/// Reads one frame from a byte stream, validating magic, length bound
/// and CRC before handing the payload out.
///
/// # Errors
///
/// [`ServeError::Closed`] on EOF / stream errors;
/// [`ServeError::Malformed`] for wrong magic, oversized length, bad CRC
/// or an unknown kind byte.
pub fn read_serve_frame(reader: &mut dyn Read) -> Result<ServeFrame, ServeError> {
    let mut header = [0u8; SERVE_HEADER_LEN];
    reader
        .read_exact(&mut header)
        .map_err(|_| ServeError::Closed)?;
    let mut r = WireReader::new(&header);
    let (magic, raw_kind, req_id, len, crc) =
        (|| Ok((r.u32()?, r.u8()?, r.u64()?, r.u32()? as usize, r.u32()?)))().map_err(malformed)?;
    if magic != SERVE_MAGIC {
        return Err(ServeError::Malformed("bad frame magic".into()));
    }
    let traced = raw_kind & SERVE_TRACE_FLAG != 0;
    let kind = ServeMsgKind::from_byte(raw_kind & !SERVE_TRACE_FLAG)?;
    if len > MAX_SERVE_PAYLOAD {
        return Err(ServeError::Malformed(format!(
            "frame payload of {len} bytes exceeds the {MAX_SERVE_PAYLOAD}-byte bound"
        )));
    }
    // The CRC covers the optional extension and the payload together.
    let ext_len = if traced { SERVE_TRACE_EXT_LEN } else { 0 };
    let mut body = read_exact_vec(reader, ext_len + len).map_err(|_| ServeError::Closed)?;
    if crc32(&body) != crc {
        return Err(ServeError::Malformed("frame crc mismatch".into()));
    }
    let trace = if traced {
        Some(TraceContext::from_wire(&mut WireReader::new(&body)).map_err(malformed)?)
    } else {
        None
    };
    body.drain(..ext_len);
    Ok(ServeFrame {
        kind,
        req_id,
        trace,
        payload: body,
    })
}

/// Wire-reader failures are tenant-facing malformed input, not a failed
/// round.
fn malformed(e: NetError) -> ServeError {
    ServeError::Malformed(match e {
        NetError::Malformed(what) => what,
        other => other.to_string(),
    })
}

/// Encodes a [`ServeMsgKind::Reply`] payload: per-row winners as
/// `count: u32 | per row (label: u32 | expert: u32 | entropy: f32)`.
pub fn encode_predictions(preds: &[TeamPrediction]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + preds.len() * 12);
    out.extend_from_slice(&(preds.len() as u32).to_le_bytes());
    for p in preds {
        out.extend_from_slice(&(p.label as u32).to_le_bytes());
        out.extend_from_slice(&(p.expert as u32).to_le_bytes());
        out.extend_from_slice(&p.entropy.to_le_bytes());
    }
    out
}

/// Decodes a [`ServeMsgKind::Reply`] payload.
///
/// # Errors
///
/// [`ServeError::Malformed`] for truncated or over-declared payloads.
pub fn decode_predictions(bytes: &[u8]) -> Result<Vec<TeamPrediction>, ServeError> {
    let decode = || {
        let mut r = WireReader::new(bytes);
        let count = r.u32()?;
        let mut preds = Vec::new();
        for _ in 0..count {
            preds.push(TeamPrediction {
                label: r.u32()? as usize,
                expert: r.u32()? as usize,
                entropy: r.f32()?,
            });
        }
        r.finish()?;
        Ok(preds)
    };
    decode().map_err(malformed)
}

/// Encodes a [`ServeMsgKind::Reject`] payload: `code: u8 | detail utf-8`.
pub fn encode_reject(err: &ServeError) -> Vec<u8> {
    let mut out = vec![err.wire_code()];
    out.extend_from_slice(err.wire_detail().as_bytes());
    out
}

/// Decodes a [`ServeMsgKind::Reject`] payload back into the
/// client-visible [`ServeError`].
///
/// # Errors
///
/// [`ServeError::Malformed`] for an empty payload.
pub fn decode_reject(bytes: &[u8]) -> Result<ServeError, ServeError> {
    let mut r = WireReader::new(bytes);
    let code = r.u8().map_err(malformed)?;
    Ok(ServeError::from_wire(
        code,
        &String::from_utf8_lossy(r.rest()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let bytes = encode_serve_frame(ServeMsgKind::Request, 42, b"payload");
        let frame = read_serve_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(frame.kind, ServeMsgKind::Request);
        assert_eq!(frame.req_id, 42);
        assert_eq!(frame.trace, None);
        assert_eq!(frame.payload, b"payload");
    }

    #[test]
    fn traced_frame_round_trip_and_untraced_stays_byte_identical() {
        let ctx = TraceContext {
            trace_id: 0xDEAD_BEEF_0123_4567,
            parent_span: 99,
        };
        let bytes = encode_serve_frame_traced(ServeMsgKind::Request, 7, Some(ctx), b"xyz");
        assert_eq!(bytes.len(), SERVE_HEADER_LEN + SERVE_TRACE_EXT_LEN + 3);
        let frame = read_serve_frame(&mut bytes.as_slice()).unwrap();
        assert_eq!(frame.kind, ServeMsgKind::Request);
        assert_eq!(frame.req_id, 7);
        assert_eq!(frame.trace, Some(ctx));
        assert_eq!(frame.payload, b"xyz");
        // `None` takes exactly the legacy encoding path.
        assert_eq!(
            encode_serve_frame_traced(ServeMsgKind::Request, 7, None, b"xyz"),
            encode_serve_frame(ServeMsgKind::Request, 7, b"xyz"),
        );
    }

    #[test]
    fn trace_ext_is_crc_covered() {
        let ctx = TraceContext {
            trace_id: 1,
            parent_span: 2,
        };
        let mut bytes = encode_serve_frame_traced(ServeMsgKind::Reply, 3, Some(ctx), b"abc");
        // Flip a bit inside the trace extension (just past the header).
        bytes[SERVE_HEADER_LEN] ^= 0xFF;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_and_bad_crc_rejected() {
        let mut bytes = encode_serve_frame(ServeMsgKind::Reply, 1, b"abc");
        bytes[0] ^= 0xFF;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
        let mut bytes = encode_serve_frame(ServeMsgKind::Reply, 1, b"abc");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_kind_rejected_truncation_is_closed() {
        let mut bytes = encode_serve_frame(ServeMsgKind::Goodbye, 7, &[]);
        bytes[4] = 99;
        assert!(matches!(
            read_serve_frame(&mut bytes.as_slice()),
            Err(ServeError::Malformed(_))
        ));
        let bytes = encode_serve_frame(ServeMsgKind::Request, 7, b"xyz");
        assert!(matches!(
            read_serve_frame(&mut bytes[..bytes.len() - 1].as_ref()),
            Err(ServeError::Closed)
        ));
    }

    #[test]
    fn predictions_round_trip() {
        let preds = vec![
            TeamPrediction {
                label: 3,
                expert: 1,
                entropy: 0.25,
            },
            TeamPrediction {
                label: 9,
                expert: 0,
                entropy: 1.5,
            },
        ];
        let decoded = decode_predictions(&encode_predictions(&preds)).unwrap();
        assert_eq!(decoded, preds);
        assert!(decode_predictions(&[1, 2]).is_err());
        assert!(decode_predictions(&[2, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn reject_round_trip() {
        let err = ServeError::Malformed("bad dims".into());
        let back = decode_reject(&encode_reject(&err)).unwrap();
        assert_eq!(back, err);
        assert!(decode_reject(&[]).is_err());
    }
}
