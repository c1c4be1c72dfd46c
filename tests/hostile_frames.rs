//! Hostile-frame harness: every decoder that reads bytes from a peer or a
//! tenant, fed seeded, structure-aware mutations of valid encodings.
//!
//! * **Inputs.** Each target starts from valid encodings and gets up
//!   to three of its length/rank/dim/count fields rewritten to 0, 1, 2³¹
//!   or `u32::MAX`, then up to two byte-level mutations: a bit flip, a
//!   truncation, appended bytes, or any 4-byte window rewritten the same
//!   way. Envelope and serve frames get their CRC (and serve/transport
//!   frames their length field) re-stamped most of the time, so the
//!   decoder *behind* the checksum is what gets exercised.
//! * **Assertions.** No decoder panics. An `Ok` result re-encodes to
//!   exactly the bytes it was decoded from — except the two fields whose
//!   decoding is lossy by design (RPC error text and serve rejections,
//!   which keep only the client-visible variant), where the decoded value
//!   must instead be a fixed point of encode-then-decode. Heap bytes
//!   allocated by a decode stay under [`ALLOC_PER_BYTE`] × input length
//!   plus [`ALLOC_SLACK`], and tensor bytes metered by `MemScope` stay
//!   under the input length.
//! * **Budget.** The vendored proptest runner's fixed seed, [`CASES`]
//!   cases per target; the whole file runs in seconds in either profile.
//!   CI runs it in release too, where integer overflow wraps silently
//!   instead of panicking.
//!
//! The file also pins the three hostile inputs that used to break a node:
//! an overflowing tensor header, a CRC-valid input of the wrong shape, and
//! a transfer offer declaring a terabyte.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use teamnet_core::recover::{
    state_from_bytes, state_to_bytes, AckStatus, LoadAckMsg, LoadChunkMsg, LoadExpertMsg,
    TransferManifest,
};
use teamnet_core::runtime::{
    decode_result_set, decode_results, encode_result_set, encode_results, serve_worker,
    shutdown_workers, TAG_INPUT, TAG_RESULT,
};
use teamnet_core::{build_expert, TeamPrediction};
use teamnet_net::codec::{
    decode_f32s, decode_sections, encode_f32s, encode_frame, encode_sections, read_frame,
    WireReader,
};
use teamnet_net::rpc::{decode_request, decode_response, encode_request, encode_response};
use teamnet_net::{
    crc32, peek_trace, ChannelTransport, Envelope, NetError, PayloadKind, Tag, TraceContext,
    Transport,
};
use teamnet_nn::ModelSpec;
use teamnet_serve::wire::{
    decode_predictions, decode_reject, encode_predictions, encode_reject,
    encode_serve_frame_traced, read_serve_frame, SERVE_HEADER_LEN, SERVE_TRACE_EXT_LEN,
    SERVE_TRACE_FLAG,
};
use teamnet_serve::{ServeError, ServeMsgKind};
use teamnet_tensor::{MemScope, Tensor, TensorError};

/// Mutated inputs per target.
const CASES: u32 = 4000;
/// Heap bytes a decode may allocate per input byte.
const ALLOC_PER_BYTE: usize = 32;
/// Fixed allowance on top: error messages, plus the 64 KiB a stream
/// reader may allocate ahead of the bytes it has received.
const ALLOC_SLACK: usize = 68 * 1024;

// ---------------------------------------------------------------------
// Per-thread heap meter. `MemScope` sees only tensor buffers; the byte
// vectors a decoder allocates are counted here.

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(bytes: usize) {
    let _ = ALLOCATED.try_with(|c| c.set(c.get().saturating_add(bytes)));
}

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its result and the heap bytes it allocated on
/// this thread (growth included, frees ignored).
fn metered<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

// ---------------------------------------------------------------------
// Targets.

/// A valid encoding plus the offsets of its `u32` length, rank, dim and
/// count fields — what makes the mutator structure-aware.
struct Seed {
    bytes: Vec<u8>,
    fields: Vec<usize>,
}

/// Which checksum the mutator re-stamps after mutating.
#[derive(Clone, Copy)]
enum Framing {
    /// No checksum.
    Plain,
    /// `Envelope`: CRC-32 at bytes 12..16 over everything after byte 16.
    Envelope,
    /// Transport frame: length field at bytes 8..12.
    Frame,
    /// Serve frame: length at 13..17, CRC at 17..21 over extension and
    /// payload.
    Serve,
}

struct Target {
    name: &'static str,
    seeds: Vec<Seed>,
    framing: Framing,
    check: fn(&[u8]) -> Verdict,
}

/// What a target's check makes of one input: `Ok(true)` when the
/// innermost decoder accepted it and the result re-encoded faithfully,
/// `Ok(false)` when a decoder rejected it with a typed error, `Err` when
/// an accepted input did not re-encode.
type Verdict = Result<bool, String>;

fn same(what: &str, got: &[u8], want: &[u8]) -> Verdict {
    if got == want {
        Ok(true)
    } else {
        Err(format!(
            "{what}: accepted bytes do not re-encode identically"
        ))
    }
}

fn fixed_point<T: PartialEq + std::fmt::Debug>(what: &str, first: &T, again: &T) -> Verdict {
    if first == again {
        Ok(true)
    } else {
        Err(format!("{what}: {first:?} re-decodes as {again:?}"))
    }
}

/// `rank | dims` offsets of an `encode_f32s` tensor starting at `at`.
fn tensor_fields(at: usize, rank: usize) -> Vec<usize> {
    (0..=rank).map(|i| at + 4 * i).collect()
}

fn shifted(fields: Vec<usize>, by: usize) -> Vec<usize> {
    fields.into_iter().map(|f| f + by).collect()
}

fn ctx() -> TraceContext {
    TraceContext {
        trace_id: 0x0123_4567_89AB_CDEF,
        parent_span: 42,
    }
}

/// Wraps inner seeds in envelopes of `kind`, untraced and traced.
fn enveloped(kind: PayloadKind, inner: Vec<Seed>) -> Vec<Seed> {
    let mut out = Vec::new();
    for seed in inner {
        let plain = Envelope::new(9, kind, seed.bytes.clone());
        out.push(Seed {
            bytes: plain.encode(),
            fields: shifted(seed.fields.clone(), 16),
        });
        out.push(Seed {
            bytes: plain.with_trace(ctx()).encode(),
            fields: shifted(seed.fields, 32),
        });
    }
    out
}

fn tensor_seeds() -> Vec<Seed> {
    [vec![2usize, 3], vec![], vec![1, 2, 2, 2], vec![0, 5]]
        .into_iter()
        .map(|dims| {
            let volume: usize = dims.iter().product();
            let data: Vec<f32> = (0..volume).map(|i| i as f32 * 0.5 - 1.0).collect();
            Seed {
                bytes: encode_f32s(&dims, &data),
                fields: tensor_fields(0, dims.len()),
            }
        })
        .collect()
}

fn check_f32s(bytes: &[u8]) -> Verdict {
    let Ok((dims, data)) = decode_f32s(bytes) else {
        return Ok(false);
    };
    same("f32s", &encode_f32s(&dims, &data), bytes)?;
    Tensor::from_vec(data, dims)
        .map(|_| true)
        .map_err(|e| format!("decoded tensor rejected by from_vec: {e}"))
}

fn check_envelope(bytes: &[u8]) -> Result<Option<Envelope>, String> {
    let peeked = peek_trace(bytes);
    let Ok(env) = Envelope::decode(bytes) else {
        return Ok(None);
    };
    same("envelope", &env.encode(), bytes)?;
    if peeked != env.trace {
        return Err(format!("peek_trace {peeked:?} vs decoded {:?}", env.trace));
    }
    Ok(Some(env))
}

fn check_input(bytes: &[u8]) -> Verdict {
    match check_envelope(bytes)? {
        Some(env) => check_f32s(&env.payload),
        None => Ok(false),
    }
}

fn result_seeds() -> Vec<Seed> {
    let rows = vec![(3usize, 0.25f32), (0, 1.5)];
    let single = encode_results(&rows);
    let set = encode_result_set(&[(1, rows.clone()), (7, vec![(9, 0.0)])]);
    // Set layout: sentinel | count | (expert | len | matrix)…
    let second = 8 + 8 + encode_results(&rows).len();
    let mut set_fields = vec![0, 4, 8, 12];
    set_fields.extend(tensor_fields(16, 2));
    set_fields.extend([second, second + 4]);
    set_fields.extend(tensor_fields(second + 8, 2));
    vec![
        Seed {
            bytes: single,
            fields: tensor_fields(0, 2),
        },
        Seed {
            bytes: set,
            fields: set_fields,
        },
    ]
}

fn check_results(bytes: &[u8]) -> Verdict {
    let Some(env) = check_envelope(bytes)? else {
        return Ok(false);
    };
    let Ok(set) = decode_result_set(&env.payload, 1) else {
        return Ok(false);
    };
    let legacy = decode_results(&env.payload).ok();
    let reencoded = match legacy {
        Some(rows) => encode_results(&rows),
        None => encode_result_set(
            &set.into_iter()
                .map(|(expert, rows)| (expert as u32, rows))
                .collect::<Vec<_>>(),
        ),
    };
    same("result set", &reencoded, &env.payload)
}

fn frame_seeds() -> Vec<Seed> {
    [b"".as_slice(), b"abc", &[7u8; 40]]
        .into_iter()
        .map(|payload| Seed {
            bytes: encode_frame(2, Tag(0x7EA0_0001), payload).to_vec(),
            fields: vec![0, 4, 8],
        })
        .collect()
}

fn check_frame(bytes: &[u8]) -> Verdict {
    let mut stream = bytes;
    let Ok((src, tag, payload)) = read_frame(&mut stream) else {
        return Ok(false);
    };
    let consumed = bytes.len() - stream.len();
    same(
        "frame",
        &encode_frame(src, tag, &payload),
        &bytes[..consumed],
    )
}

fn section_seeds() -> Vec<Seed> {
    let parts = vec![b"ab".to_vec(), Vec::new(), b"cdef".to_vec()];
    vec![Seed {
        bytes: encode_sections(&parts),
        fields: vec![0, 6, 10],
    }]
}

fn check_sections(bytes: &[u8]) -> Verdict {
    match decode_sections(bytes, 3) {
        Ok(parts) => same("all-gather sections", &encode_sections(&parts), bytes),
        Err(_) => Ok(false),
    }
}

fn rpc_seeds() -> Vec<Seed> {
    let seed = |bytes: Vec<u8>| Seed {
        bytes,
        fields: vec![0, 4, 8],
    };
    vec![
        seed(encode_request(5, 17, b"payload")),
        seed(encode_response(5, &Ok(b"yes".to_vec()))),
        seed(encode_response(6, &Err("boom".into()))),
    ]
}

fn check_rpc(bytes: &[u8]) -> Verdict {
    let request = match decode_request(bytes) {
        Ok((id, method, payload)) => {
            same("rpc request", &encode_request(id, method, payload), bytes)?
        }
        Err(_) => false,
    };
    let response = match decode_response(bytes) {
        Ok((id, Ok(body))) => same("rpc response", &encode_response(id, &Ok(body)), bytes)?,
        // Error text is decoded lossily (invalid UTF-8 is replaced).
        Ok(decoded @ (_, Err(_))) => {
            let again = decode_response(&encode_response(decoded.0, &decoded.1))
                .map_err(|e| format!("rpc error response does not re-decode: {e}"))?;
            fixed_point("rpc error response", &decoded, &again)?
        }
        Err(_) => false,
    };
    Ok(request || response)
}

fn manifest() -> TransferManifest {
    TransferManifest {
        spec: ModelSpec::mlp(2, 16),
        num_chunks: 3,
        total_bytes: 4096,
        state_crc: 0xDEAD_BEEF,
        required_resident_bytes: 1 << 20,
    }
}

fn recovery_seeds() -> Vec<Seed> {
    let offer = LoadExpertMsg::Offer {
        expert: 3,
        manifest: manifest(),
    }
    .encode();
    let spec_len = offer.len() - 5 - 4 - 24;
    let after_spec = 9 + spec_len;
    let seeds = vec![
        Seed {
            bytes: offer,
            fields: vec![
                1,
                5,
                after_spec,
                after_spec + 4,
                after_spec + 12,
                after_spec + 16,
            ],
        },
        Seed {
            bytes: LoadExpertMsg::Release { expert: 3 }.encode(),
            fields: vec![1],
        },
        Seed {
            bytes: LoadExpertMsg::Abort { expert: 3 }.encode(),
            fields: vec![1],
        },
    ];
    let chunk = vec![Seed {
        bytes: LoadChunkMsg {
            expert: 3,
            index: 1,
            data: vec![0xAB; 24],
        }
        .encode(),
        fields: vec![0, 4],
    }];
    let ack = vec![Seed {
        bytes: LoadAckMsg {
            expert: 3,
            status: AckStatus::ChunkOk,
            arg: 2,
        }
        .encode(),
        fields: vec![0, 5, 9],
    }];
    let mut out = enveloped(PayloadKind::LoadExpert, seeds);
    out.extend(enveloped(PayloadKind::LoadChunk, chunk));
    out.extend(enveloped(PayloadKind::LoadAck, ack));
    out
}

fn check_recovery(bytes: &[u8]) -> Verdict {
    let Some(env) = check_envelope(bytes)? else {
        return Ok(false);
    };
    let p = &env.payload;
    let mut accepted = false;
    if let Ok(msg) = LoadExpertMsg::decode(p) {
        accepted |= same("load-expert", &msg.encode(), p)?;
    }
    if let Ok(msg) = LoadChunkMsg::decode(p) {
        accepted |= same("load-chunk", &msg.encode(), p)?;
    }
    if let Ok(msg) = LoadAckMsg::decode(p) {
        accepted |= same("load-ack", &msg.encode(), p)?;
    }
    Ok(accepted)
}

fn state_seeds() -> Vec<Seed> {
    let state = vec![
        Tensor::from_vec(vec![0.5; 6], vec![2, 3]).unwrap(),
        Tensor::from_vec(vec![-1.0, 2.0], vec![2]).unwrap(),
        Tensor::from_vec(vec![3.0], Vec::<usize>::new()).unwrap(),
    ];
    let mut fields = vec![0];
    fields.extend(tensor_fields(4, 2));
    fields.extend(tensor_fields(4 + 12 + 24, 1));
    fields.extend(tensor_fields(4 + 36 + 16, 0));
    vec![
        Seed {
            bytes: state_to_bytes(&state),
            fields,
        },
        Seed {
            bytes: state_to_bytes(&[]),
            fields: vec![0],
        },
    ]
}

fn check_state(bytes: &[u8]) -> Verdict {
    match state_from_bytes(bytes) {
        Ok(state) => same("model state", &state_to_bytes(&state), bytes),
        Err(_) => Ok(false),
    }
}

fn serve_seeds() -> Vec<Seed> {
    let preds = [
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
    let inner: Vec<(ServeMsgKind, Vec<u8>, Vec<usize>)> = vec![
        (
            ServeMsgKind::Request,
            encode_f32s(&[2, 2], &[1.0, 2.0, 3.0, 4.0]),
            tensor_fields(0, 2),
        ),
        (
            ServeMsgKind::Reply,
            encode_predictions(&preds),
            vec![0, 4, 8],
        ),
        (
            ServeMsgKind::Reject,
            encode_reject(&ServeError::Malformed("bad dims".into())),
            vec![],
        ),
        (ServeMsgKind::Goodbye, Vec::new(), vec![]),
    ];
    let mut out = Vec::new();
    for (kind, payload, fields) in inner {
        for trace in [None, Some(ctx())] {
            let ext = if trace.is_some() {
                SERVE_TRACE_EXT_LEN
            } else {
                0
            };
            let mut all = vec![0, 13, 17];
            all.extend(shifted(fields.clone(), SERVE_HEADER_LEN + ext));
            out.push(Seed {
                bytes: encode_serve_frame_traced(kind, 77, trace, &payload),
                fields: all,
            });
        }
    }
    out
}

fn check_serve(bytes: &[u8]) -> Verdict {
    let mut stream = bytes;
    let Ok(frame) = read_serve_frame(&mut stream) else {
        return Ok(false);
    };
    let consumed = bytes.len() - stream.len();
    same(
        "serve frame",
        &encode_serve_frame_traced(frame.kind, frame.req_id, frame.trace, &frame.payload),
        &bytes[..consumed],
    )?;
    let p = &frame.payload;
    match frame.kind {
        ServeMsgKind::Request => check_f32s(p),
        ServeMsgKind::Reply => match decode_predictions(p) {
            Ok(preds) => same("predictions", &encode_predictions(&preds), p),
            Err(_) => Ok(false),
        },
        // A rejection keeps only its client-visible variant.
        ServeMsgKind::Reject => match decode_reject(p) {
            Ok(err) => {
                let again = decode_reject(&encode_reject(&err))
                    .map_err(|e| format!("reject does not re-decode: {e}"))?;
                fixed_point("reject", &err, &again)
            }
            Err(_) => Ok(false),
        },
        ServeMsgKind::Goodbye => Ok(true),
    }
}

fn targets() -> Vec<Target> {
    vec![
        Target {
            name: "tensor (decode_f32s)",
            seeds: tensor_seeds(),
            framing: Framing::Plain,
            check: check_f32s,
        },
        Target {
            name: "envelope + input tensor",
            seeds: enveloped(PayloadKind::Input, tensor_seeds()),
            framing: Framing::Envelope,
            check: check_input,
        },
        Target {
            name: "envelope + result matrix / set",
            seeds: enveloped(PayloadKind::Result, result_seeds()),
            framing: Framing::Envelope,
            check: check_results,
        },
        Target {
            name: "transport frame (read_frame)",
            seeds: frame_seeds(),
            framing: Framing::Frame,
            check: check_frame,
        },
        Target {
            name: "all-gather sections",
            seeds: section_seeds(),
            framing: Framing::Plain,
            check: check_sections,
        },
        Target {
            name: "rpc request / response",
            seeds: rpc_seeds(),
            framing: Framing::Plain,
            check: check_rpc,
        },
        Target {
            name: "envelope + recovery messages",
            seeds: recovery_seeds(),
            framing: Framing::Envelope,
            check: check_recovery,
        },
        Target {
            name: "model state (state_from_bytes)",
            seeds: state_seeds(),
            framing: Framing::Plain,
            check: check_state,
        },
        Target {
            name: "serve frame + payloads",
            seeds: serve_seeds(),
            framing: Framing::Serve,
            check: check_serve,
        },
    ]
}

// ---------------------------------------------------------------------
// Mutator.

const SPECIAL: [u32; 4] = [0, 1, 1 << 31, u32::MAX];

fn put_u32(bytes: &mut [u8], at: usize, v: u32) {
    if let Some(w) = bytes.get_mut(at..at + 4) {
        w.copy_from_slice(&v.to_le_bytes());
    }
}

fn get_u32(bytes: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?))
}

fn special(rng: &mut StdRng) -> u32 {
    SPECIAL[rng.gen_range(0..SPECIAL.len())]
}

/// Up to three field rewrites (several fields at once is what makes a
/// product of dims overflow), then up to two byte-level mutations.
fn mutate(seed: &Seed, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = seed.bytes.clone();
    for _ in 0..rng.gen_range(0..=seed.fields.len().min(3)) {
        let at = seed.fields[rng.gen_range(0..seed.fields.len())];
        put_u32(&mut bytes, at, special(rng));
    }
    for _ in 0..rng.gen_range(0..3usize) {
        match rng.gen_range(0..4u32) {
            0 if !bytes.is_empty() => {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1 << rng.gen_range(0..8u32);
            }
            1 => bytes.truncate(rng.gen_range(0..=bytes.len())),
            2 => {
                for _ in 0..rng.gen_range(1..17usize) {
                    bytes.push(rng.gen::<u8>());
                }
            }
            _ if bytes.len() >= 4 => {
                let at = rng.gen_range(0..=bytes.len() - 4);
                put_u32(&mut bytes, at, special(rng));
            }
            _ => {}
        }
    }
    bytes
}

/// Re-stamps the checksum (and length field) so the mutated frame gets
/// past its integrity check.
fn restamp(framing: Framing, bytes: &mut [u8]) {
    match framing {
        Framing::Plain => {}
        Framing::Envelope if bytes.len() >= 16 => {
            let crc = crc32(&bytes[16..]);
            put_u32(bytes, 12, crc);
        }
        Framing::Frame if bytes.len() >= 12 => {
            let len = (bytes.len() - 12) as u32;
            put_u32(bytes, 8, len);
        }
        Framing::Serve if bytes.len() >= SERVE_HEADER_LEN => {
            let ext = if bytes[4] & SERVE_TRACE_FLAG != 0 {
                SERVE_TRACE_EXT_LEN
            } else {
                0
            };
            let body = bytes.len() - SERVE_HEADER_LEN;
            if body >= ext {
                put_u32(bytes, 13, (body - ext) as u32);
            }
            let crc = crc32(&bytes[SERVE_HEADER_LEN..]);
            put_u32(bytes, 17, crc);
        }
        _ => {}
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs one input through a target's decoders under both meters;
/// `Ok(accepted)` when every assertion holds.
fn run_case(target: &Target, input: &[u8]) -> Result<bool, TestCaseError> {
    let mem = MemScope::begin();
    let (outcome, heap) = metered(|| catch_unwind(AssertUnwindSafe(|| (target.check)(input))));
    let tensor_bytes = mem.stats().allocated_bytes;
    let fail = |what: String| {
        TestCaseError::fail(format!("{}: {what}; input {}", target.name, hex(input)))
    };
    let accepted = match outcome {
        Err(_) => return Err(fail("decoder panicked".into())),
        Ok(Err(msg)) => return Err(fail(msg)),
        Ok(Ok(accepted)) => accepted,
    };
    let bound = ALLOC_PER_BYTE * input.len() + ALLOC_SLACK;
    if heap > bound {
        return Err(fail(format!("allocated {heap} heap bytes, bound {bound}")));
    }
    if tensor_bytes > input.len() as u64 {
        return Err(fail(format!(
            "allocated {tensor_bytes} tensor bytes from a {}-byte input",
            input.len()
        )));
    }
    Ok(accepted)
}

#[test]
fn every_decoder_survives_mutated_frames() {
    for target in targets() {
        // Unmutated seeds must decode and re-encode cleanly first, or
        // the mutations below would prove nothing.
        for seed in &target.seeds {
            let accepted = run_case(&target, &seed.bytes).unwrap_or_else(|e| panic!("{e}"));
            assert!(accepted, "{}: a valid seed was rejected", target.name);
        }
        let mut accepted = 0u32;
        let mut runner = TestRunner::new(ProptestConfig::with_cases(CASES));
        let outcome = runner.run(&any::<u64>(), |case_seed| {
            let mut rng = StdRng::seed_from_u64(case_seed);
            let seed = &target.seeds[rng.gen_range(0..target.seeds.len())];
            let mut input = mutate(seed, &mut rng);
            if rng.gen_range(0..8u32) != 0 {
                restamp(target.framing, &mut input);
            }
            accepted += u32::from(run_case(&target, &input)?);
            Ok(())
        });
        if let Err(e) = outcome {
            panic!("{e}");
        }
        // Mutations that are all rejected (or all accepted) would leave
        // one side of every decoder untested.
        assert!(
            (CASES / 100..CASES - CASES / 100).contains(&accepted),
            "{}: {accepted} of {CASES} mutated inputs accepted",
            target.name
        );
    }
}

#[test]
fn seeds_accept_and_field_offsets_point_at_real_fields() {
    // Guards the harness itself: a stale offset would silently turn a
    // structure-aware rewrite into a random one.
    for target in targets() {
        for seed in &target.seeds {
            for &at in &seed.fields {
                assert!(
                    get_u32(&seed.bytes, at).is_some(),
                    "{}: field offset {at} past a {}-byte seed",
                    target.name,
                    seed.bytes.len()
                );
            }
        }
    }
    // Spot-check one layout by value: count 3, then ranks 2, 1 and 0.
    let state = &state_seeds()[0];
    let words: Vec<Option<u32>> = state
        .fields
        .iter()
        .map(|&at| get_u32(&state.bytes, at))
        .collect();
    assert_eq!(
        words,
        [3, 2, 2, 3, 1, 2, 0].map(Some).to_vec(),
        "state seed field offsets"
    );
}

#[test]
fn wire_reader_checks_presence_and_trailing_bytes() {
    let mut buf = vec![7u8];
    buf.extend_from_slice(&3u32.to_le_bytes());
    buf.extend_from_slice(b"abc");
    buf.extend_from_slice(&2u32.to_le_bytes());
    let mut r = WireReader::new(&buf);
    assert_eq!(r.u8().unwrap(), 7);
    assert_eq!(r.section().unwrap(), b"abc");
    assert!(matches!(r.clone().finish(), Err(NetError::Malformed(_))));
    assert!(matches!(r.bytes(5), Err(NetError::Malformed(_))));
    assert!(matches!(r.bytes(usize::MAX), Err(NetError::Malformed(_))));
    assert_eq!(r.u32().unwrap(), 2);
    assert!(r.u8().is_err());
    r.finish().unwrap();
}

// ---------------------------------------------------------------------
// The three hostile inputs that used to break a node.

/// `rank | dims` with no data.
fn tensor_header(dims: &[u32]) -> Vec<u8> {
    let mut buf = (dims.len() as u32).to_le_bytes().to_vec();
    for d in dims {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    buf
}

#[test]
fn overflowing_tensor_headers_are_malformed() {
    // Rank 3 with every dim 2^31 (the volume overflows) and rank 2 with
    // 2^31 × 2^31 (4 × volume wraps to 0). Unchecked, the first decoded
    // in release to an empty tensor claiming dims [2^31; 3].
    for dims in [[1u32 << 31; 3].as_slice(), &[1 << 31; 2]] {
        let res = decode_f32s(&tensor_header(dims));
        assert!(matches!(res, Err(NetError::Malformed(_))), "{res:?}");
    }
    // Nor may the tensor constructor accept such a shape for empty data.
    for dims in [vec![1usize << 31; 3], vec![usize::MAX, 2]] {
        let err = Tensor::from_vec(Vec::new(), dims.clone()).unwrap_err();
        assert_eq!(err, TensorError::VolumeOverflow { dims });
    }
    assert!(Tensor::from_vec(Vec::new(), vec![1usize << 31, 0]).is_ok());
}

fn expert() -> teamnet_nn::Sequential {
    build_expert(&ModelSpec::mlp(2, 16), 5)
}

fn input_frame(round: u64, dims: &[usize]) -> Vec<u8> {
    let volume: usize = dims.iter().product();
    Envelope::new(
        round,
        PayloadKind::Input,
        encode_f32s(dims, &vec![0.5; volume]),
    )
    .encode()
}

/// Receives the worker's next reply on `master`, asserting its round.
fn reply(master: &ChannelTransport, round: u64) -> Envelope {
    let bytes = master
        .recv(1, TAG_RESULT, Duration::from_secs(10))
        .expect("worker reply");
    let env = Envelope::decode(&bytes).expect("reply envelope");
    assert_eq!(env.round, round);
    env
}

#[test]
fn worker_skips_a_crc_valid_input_of_the_wrong_shape_and_keeps_serving() {
    let nodes = ChannelTransport::mesh(2);
    let (master, worker) = (&nodes[0], &nodes[1]);
    let mut model = expert();
    let stats = std::thread::scope(|s| {
        let served = s.spawn(|| serve_worker(worker, 0, &mut model));
        // An MLP wants [n, 1, 28, 28]; [1, 5] used to panic its Dense
        // forward and take the worker down.
        master.send(1, TAG_INPUT, &input_frame(1, &[1, 5])).unwrap();
        master
            .send(1, TAG_INPUT, &input_frame(2, &[1, 1, 28, 28]))
            .unwrap();
        let env = reply(master, 2);
        assert_eq!(decode_results(&env.payload).unwrap().len(), 1);
        shutdown_workers(master).unwrap();
        served.join().unwrap().unwrap()
    });
    assert_eq!(stats.malformed_skipped, 1);
    assert_eq!(stats.rounds_served, 1);
}

#[test]
fn transfer_offer_declaring_a_terabyte_allocates_nothing_of_the_kind() {
    let nodes = ChannelTransport::mesh(2);
    let (master, worker) = (&nodes[0], &nodes[1]);
    let mut model = expert();
    std::thread::scope(|s| {
        let driver = s.spawn(|| {
            let offer = LoadExpertMsg::Offer {
                expert: 7,
                manifest: TransferManifest {
                    spec: ModelSpec::mlp(2, 16),
                    num_chunks: 1,
                    total_bytes: 1 << 40,
                    state_crc: 0,
                    required_resident_bytes: 0,
                },
            };
            let frame = Envelope::new(1, PayloadKind::LoadExpert, offer.encode()).encode();
            master.send(1, TAG_INPUT, &frame).unwrap();
            let ack = LoadAckMsg::decode(&reply(master, 1).payload).unwrap();
            // The default unlimited budget admits it: nothing resident
            // is required.
            assert_eq!(ack.status, AckStatus::Accept);
            master
                .send(1, TAG_INPUT, &input_frame(2, &[1, 1, 28, 28]))
                .unwrap();
            reply(master, 2);
            shutdown_workers(master).unwrap();
        });
        // The worker runs on this thread so both meters see it.
        let mem = MemScope::begin();
        let (stats, heap) = metered(|| serve_worker(worker, 0, &mut model).unwrap());
        driver.join().unwrap();
        assert_eq!((stats.loads_accepted, stats.rounds_served), (1, 1));
        assert!(heap < 64 << 20, "worker allocated {heap} heap bytes");
        assert!(mem.stats().peak_bytes < 1 << 20, "{:?}", mem.stats());
    });
}
