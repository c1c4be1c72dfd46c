//! Wire codecs: length-prefixed frames and raw `f32` payloads.
//!
//! The frame layout is `src: u32 | tag: u32 | len: u32 | payload`, all
//! little-endian. Activations and model weights travel as raw `f32` slices
//! with a dimension header, which is what makes the byte counts in the
//! traffic statistics physically meaningful.
//!
//! Every decoder of bytes from a peer or a tenant — here, in the envelope
//! and RPC layers, and in `teamnet-core` and `teamnet-serve` — reads
//! through one bounded cursor, [`WireReader`] (DESIGN.md §9, "Decoding
//! untrusted bytes").

use crate::error::NetError;
use crate::transport::{NodeId, Tag};
use bytes::{BufMut, Bytes, BytesMut};
use std::io::Read;

/// Upper bound on a single frame payload (guards against malformed length
/// headers taking down a node).
pub const MAX_FRAME_LEN: usize = 256 * 1024 * 1024;

/// Size of the fixed frame header in bytes.
pub const FRAME_HEADER_LEN: usize = 12;

/// A decoded frame: `(source node, tag, payload)`.
pub type Frame = (NodeId, Tag, Bytes);

/// Encodes a frame into a fresh buffer.
///
/// # Panics
///
/// Panics if `src` does not fit the `u32` header field or the payload
/// exceeds [`MAX_FRAME_LEN`] — both are sender-side programming errors
/// that would otherwise truncate on the wire and mis-frame every byte
/// that follows.
pub fn encode_frame(src: NodeId, tag: Tag, payload: &[u8]) -> BytesMut {
    assert!(
        u32::try_from(src).is_ok(),
        "node id {src} does not fit the u32 frame header"
    );
    assert!(
        payload.len() <= MAX_FRAME_LEN,
        "payload of {} bytes exceeds MAX_FRAME_LEN",
        payload.len()
    );
    let mut buf = BytesMut::with_capacity(FRAME_HEADER_LEN + payload.len());
    // In range by the asserts above. lint: allow(cast-truncate)
    buf.put_u32_le(src as u32);
    buf.put_u32_le(tag.0);
    // MAX_FRAME_LEN < u32::MAX, asserted above. lint: allow(cast-truncate)
    buf.put_u32_le(payload.len() as u32);
    buf.put_slice(payload);
    buf
}

/// Reads exactly one frame from a blocking reader.
///
/// # Errors
///
/// * [`NetError::Closed`] on clean EOF at a frame boundary;
/// * [`NetError::Malformed`] for an oversized length header or EOF inside a
///   frame;
/// * [`NetError::Io`] for transport errors.
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, NetError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    // Distinguish clean EOF (no bytes) from a truncated header.
    let mut filled = 0usize;
    while filled < FRAME_HEADER_LEN {
        // filled < FRAME_HEADER_LEN by the loop condition. lint: allow(no-index)
        let n = reader.read(&mut header[filled..])?;
        if n == 0 {
            return if filled == 0 {
                Err(NetError::Closed)
            } else {
                Err(NetError::Malformed(format!(
                    "eof after {filled} header bytes"
                )))
            };
        }
        filled += n;
    }
    let mut r = WireReader::new(&header);
    let src = r.u32()? as NodeId;
    let tag = Tag(r.u32()?);
    let len = r.u32()? as usize;
    if len > MAX_FRAME_LEN {
        return Err(NetError::Malformed(format!(
            "frame length {len} exceeds cap {MAX_FRAME_LEN}"
        )));
    }
    let payload = read_exact_vec(reader, len).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => {
            NetError::Malformed(format!("eof inside {len}-byte payload"))
        }
        _ => NetError::Io(e),
    })?;
    Ok((src, tag, Bytes::from(payload)))
}

/// How far ahead of the bytes received [`read_exact_vec`] allocates.
const READ_STEP: usize = 64 * 1024;

/// Reads exactly `len` bytes, `len` being a length field from outside the
/// program: the buffer grows as bytes arrive, so a header that declares
/// more than its sender delivers cannot make this node allocate it.
///
/// # Errors
///
/// The reader's error (`UnexpectedEof` when the stream ends early).
pub fn read_exact_vec(reader: &mut (impl Read + ?Sized), len: usize) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    while buf.len() < len {
        let start = buf.len();
        buf.resize(start + (len - start).min(READ_STEP), 0);
        reader.read_exact(buf.get_mut(start..).unwrap_or_default())?;
    }
    Ok(buf)
}

/// Encodes a shaped `f32` buffer: `rank: u32 | dims: u32×rank | data`.
///
/// # Panics
///
/// Panics if `data` disagrees with the `dims` volume, the rank exceeds
/// the decoder's plausibility cap of 8, or a dimension does not fit the
/// `u32` header field — each would otherwise truncate in the header and
/// decode as a different shape.
pub fn encode_f32s(dims: &[usize], data: &[f32]) -> Vec<u8> {
    let volume: usize = dims.iter().product();
    assert_eq!(volume, data.len(), "data length must match dims volume");
    assert!(dims.len() <= 8, "rank {} exceeds decoder cap 8", dims.len());
    let mut buf = Vec::with_capacity(4 + dims.len() * 4 + data.len() * 4);
    // Rank ≤ 8, asserted above. lint: allow(cast-truncate)
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        assert!(
            u32::try_from(d).is_ok(),
            "dimension {d} does not fit the u32 header field"
        );
        // In range by the assert above. lint: allow(cast-truncate)
        buf.extend_from_slice(&(d as u32).to_le_bytes());
    }
    for &x in data {
        buf.extend_from_slice(&x.to_le_bytes());
    }
    buf
}

/// Decodes a buffer produced by [`encode_f32s`] into `(dims, data)`.
///
/// # Errors
///
/// Returns [`NetError::Malformed`] for truncated or inconsistent buffers.
pub fn decode_f32s(bytes: &[u8]) -> Result<(Vec<usize>, Vec<f32>), NetError> {
    let mut r = WireReader::new(bytes);
    let tensor = r.f32s()?;
    r.finish()?;
    Ok(tensor)
}

/// Encodes `parts` as consecutive `len: u32 | bytes` sections — the
/// payload of the all-gather broadcast leg.
///
/// # Panics
///
/// Panics if a part exceeds [`MAX_FRAME_LEN`] (no frame could carry it).
pub fn encode_sections(parts: &[Vec<u8>]) -> Vec<u8> {
    let mut buf = Vec::new();
    for part in parts {
        assert!(
            part.len() <= MAX_FRAME_LEN,
            "all-gather part of {} bytes exceeds MAX_FRAME_LEN",
            part.len()
        );
        // MAX_FRAME_LEN < u32::MAX, asserted above. lint: allow(cast-truncate)
        buf.extend_from_slice(&(part.len() as u32).to_le_bytes());
        buf.extend_from_slice(part);
    }
    buf
}

/// Decodes exactly `count` sections written by [`encode_sections`].
///
/// # Errors
///
/// [`NetError::Malformed`] for an overrun or trailing bytes.
pub fn decode_sections(bytes: &[u8], count: usize) -> Result<Vec<Vec<u8>>, NetError> {
    let mut r = WireReader::new(bytes);
    let parts = (0..count)
        .map(|_| r.section().map(<[u8]>::to_vec))
        .collect::<Result<Vec<_>, _>>()?;
    r.finish()?;
    Ok(parts)
}

/// Largest tensor rank [`WireReader::f32s`] accepts (as [`encode_f32s`]
/// asserts).
const MAX_RANK: usize = 8;

/// A bounded little-endian cursor over bytes from a peer or a tenant —
/// the one mechanism every wire decoder reads through. Its contract:
/// * every read checks that its bytes are present, and every offset and
///   length product uses checked arithmetic: a hostile length field
///   yields [`NetError::Malformed`], never a panic or a silent wrap;
/// * nothing is allocated for a field before the bytes it covers are
///   present, so a decoder's allocation is bounded by its input length;
/// * a closed format ends with [`WireReader::finish`], which rejects
///   trailing bytes.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    rest: &'a [u8],
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { rest: bytes }
    }

    fn truncated(&self, wanted: usize) -> NetError {
        NetError::Malformed(format!(
            "truncated: {wanted} bytes wanted, {} present",
            self.rest.len()
        ))
    }

    /// The next `len` bytes.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], NetError> {
        let (head, tail) = self
            .rest
            .split_at_checked(len)
            .ok_or_else(|| self.truncated(len))?;
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], NetError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.truncated(N))?;
        self.rest = tail;
        Ok(*head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, NetError> {
        self.array().map(u8::from_le_bytes)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, NetError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, NetError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, NetError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, NetError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Reads a `len: u32 | bytes` section.
    pub fn section(&mut self) -> Result<&'a [u8], NetError> {
        let len = self.u32()?;
        self.bytes(len as usize)
    }

    /// Reads one tensor in the [`encode_f32s`] layout — the only place
    /// tensor bytes are decoded. Rejects a rank above 8 and dims whose
    /// byte size overflows `usize`.
    pub fn f32s(&mut self) -> Result<(Vec<usize>, Vec<f32>), NetError> {
        let rank = self.u32()? as usize;
        if rank > MAX_RANK {
            return Err(NetError::Malformed(format!(
                "implausible tensor rank {rank}"
            )));
        }
        let dims = (0..rank)
            .map(|_| self.u32().map(|d| d as usize))
            .collect::<Result<Vec<_>, _>>()?;
        let data_len = dims
            .iter()
            .try_fold(4usize, |acc, &d| acc.checked_mul(d))
            .ok_or_else(|| NetError::Malformed(format!("tensor dims {dims:?} overflow")))?;
        let (words, _) = self.bytes(data_len)?.as_chunks::<4>();
        Ok((dims, words.iter().map(|w| f32::from_le_bytes(*w)).collect()))
    }

    /// Consumes everything that remains (an open-ended payload).
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// Ends a closed format.
    ///
    /// # Errors
    ///
    /// [`NetError::Malformed`] when bytes remain unread.
    pub fn finish(self) -> Result<(), NetError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(NetError::Malformed(format!(
                "{} trailing bytes",
                self.rest.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let buf = encode_frame(3, Tag(99), b"payload");
        let (src, tag, payload) = read_frame(&mut Cursor::new(&buf[..])).unwrap();
        assert_eq!(src, 3);
        assert_eq!(tag, Tag(99));
        assert_eq!(&payload[..], b"payload");
    }

    #[test]
    fn consecutive_frames_parse_in_order() {
        let mut buf = encode_frame(0, Tag(1), b"a");
        buf.extend_from_slice(&encode_frame(1, Tag(2), b"bb"));
        let mut cursor = Cursor::new(&buf[..]);
        assert_eq!(read_frame(&mut cursor).unwrap().2.as_ref(), b"a");
        assert_eq!(read_frame(&mut cursor).unwrap().2.as_ref(), b"bb");
        assert!(matches!(read_frame(&mut cursor), Err(NetError::Closed)));
    }

    #[test]
    fn truncated_header_is_malformed() {
        let buf = encode_frame(0, Tag(1), b"abc");
        let res = read_frame(&mut Cursor::new(&buf[..5]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }

    #[test]
    fn truncated_payload_is_malformed() {
        let buf = encode_frame(0, Tag(1), b"abcdef");
        let res = read_frame(&mut Cursor::new(&buf[..buf.len() - 2]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = encode_frame(0, Tag(1), b"");
        // Overwrite the length field with a huge value.
        buf[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        let res = read_frame(&mut Cursor::new(&buf[..]));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }

    #[test]
    fn empty_payload_frame() {
        let buf = encode_frame(1, Tag(0), b"");
        let (_, _, payload) = read_frame(&mut Cursor::new(&buf[..])).unwrap();
        assert!(payload.is_empty());
    }

    #[test]
    fn f32_roundtrip() {
        let dims = vec![2, 3];
        let data = vec![1.0f32, -2.5, 0.0, 3.25, f32::MIN_POSITIVE, 1e30];
        let buf = encode_f32s(&dims, &data);
        let (d2, x2) = decode_f32s(&buf).unwrap();
        assert_eq!(d2, dims);
        assert_eq!(x2, data);
    }

    #[test]
    fn f32_scalar_rank0() {
        let buf = encode_f32s(&[], &[7.5]);
        let (dims, data) = decode_f32s(&buf).unwrap();
        assert!(dims.is_empty());
        assert_eq!(data, vec![7.5]);
    }

    #[test]
    fn f32_rejects_truncation_and_excess() {
        let buf = encode_f32s(&[2], &[1.0, 2.0]);
        assert!(matches!(
            decode_f32s(&buf[..buf.len() - 1]),
            Err(NetError::Malformed(_))
        ));
        let mut extended = buf.clone();
        extended.push(0);
        assert!(matches!(
            decode_f32s(&extended),
            Err(NetError::Malformed(_))
        ));
        assert!(matches!(decode_f32s(&[]), Err(NetError::Malformed(_))));
    }

    #[test]
    fn f32_rejects_implausible_rank() {
        let mut buf = vec![];
        buf.extend_from_slice(&100u32.to_le_bytes());
        assert!(matches!(decode_f32s(&buf), Err(NetError::Malformed(_))));
    }

    #[test]
    #[should_panic(expected = "must match dims volume")]
    fn encode_validates_volume() {
        encode_f32s(&[3], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds decoder cap")]
    fn encode_rejects_implausible_rank() {
        encode_f32s(&[1; 9], &[1.0]);
    }

    #[test]
    fn framed_tensor_size_matches_the_static_wire_model() {
        // The static cost model (`teamnet_nn::cost::WireModel`) prices a
        // framed, enveloped tensor as
        //     12 (frame) + 16 (envelope) + 4 (rank) + 4·rank + 4·volume.
        // Assert that arithmetic against the real encoders so the two can
        // never drift apart silently; `tests/cost_honesty.rs` closes the
        // loop from the nn side.
        for dims in [vec![1usize, 784], vec![1, 3, 32, 32], vec![7, 2]] {
            let volume: usize = dims.iter().product();
            let payload = encode_f32s(&dims, &vec![0.0; volume]);
            let enveloped =
                crate::envelope::Envelope::new(3, crate::envelope::PayloadKind::Input, payload)
                    .encode();
            let framed = encode_frame(1, Tag(4), &enveloped);
            assert_eq!(
                framed.len(),
                12 + 16 + 4 + 4 * dims.len() + 4 * volume,
                "dims {dims:?}"
            );
        }
    }
}
