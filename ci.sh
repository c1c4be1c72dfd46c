#!/usr/bin/env sh
# Full CI gate, in dependency order, failing fast:
#   1. formatting        (cheap, catches accidental diffs)
#   2. release build     (also builds the xtask binary)
#   3. invariant audit   (lint + manifest + static shape checks)
#   4. concurrency audit (lock order, determinism taint, protocol
#                         exhaustiveness, narrowing casts — symbol/
#                         call-graph analysis)
#   4b. model checking   (cargo xtask mc: bounded exhaustive exploration
#                         of the recovery-transfer and session-gather
#                         FSMs under a drop/dup/reorder/crash/deadline
#                         adversary, with a compiled-in protocol mutant
#                         as negative control and a seeded cross-check of
#                         the fault model against ChaosTransport; fails
#                         loudly if a budget truncates exploration —
#                         acknowledging that requires --allow-truncation)
#   5. resource certs    (cargo xtask cost --check: the static per-expert
#                         resource certification of the paper model grid
#                         must match the checked-in COST.json; the
#                         allocation-honesty test in stage 6 asserts the
#                         certified peaks against instrumented forwards)
#   6. test suite        (unit + property + integration), run twice:
#                         TEAMNET_THREADS=1 pins the sequential kernels,
#                         TEAMNET_THREADS=4 forces the parallel paths —
#                         the pool determinism contract says both runs
#                         must see bit-identical numerics
#   6b. hostile frames  (tests/hostile_frames.rs again, in release: integer
#                         overflow panics in debug but wraps silently in
#                         release, so the decoders' checked arithmetic is
#                         exercised in both profiles)
#   7. kernel-bench smoke (parallel-vs-sequential bit-identity on every
#                         kernel, plus the JSON artifact plumbing)
#   7b. perfbench tests  (perfbench is a workspace of its own, so the
#                         root build never compiles it; it implements
#                         Transport and Layer and imports runtime names,
#                         so an API change that breaks the measured
#                         benchmark fails here)
#   8. chaos soak        (50 seeded fault-injected inference rounds)
#   8b. recovery soak    (seeded session that permanently black-holes one
#                         worker mid-run: its expert must migrate to a
#                         survivor with certified spare memory and the
#                         whole recovery must replay byte-for-byte)
#   8c. serve soak       (seeded multi-tenant serving run on a ManualClock
#                         with chaos transports and a mid-run worker
#                         blackhole: quarantine must shrink the admission
#                         window, and two identical seeds must emit
#                         byte-identical trace + metrics + prediction
#                         transcripts)
#   9. traced smoke      (chaos_inference with TEAMNET_TRACE -> JsonlSink,
#                         piped through `cargo xtask trace-report`, which
#                         exits non-zero on a parse error or an empty span
#                         table; the workspace tests in stage 5 cover the
#                         default NullSink path)
#   9b. cross-node trace (trace_soak example: every node of a 3-node
#                         cluster records its own JSONL sink; the three
#                         files go through `cargo xtask trace-assemble`,
#                         which exits non-zero on orphan spans — the
#                         stage additionally asserts zero warnings on
#                         stderr and a non-empty critical-path table)
#
# Opt-in stage (not part of the default gate):
#   ./ci.sh tsan         runs the fault-tolerance, chaos-soak and
#                        recovery-soak suites under ThreadSanitizer. Requires a nightly
#                        toolchain with the rust-src component; exits 0
#                        with a notice when none is installed so the
#                        default gate never depends on nightly.
set -eu
cd "$(dirname "$0")"

if [ "${1:-}" = "tsan" ]; then
    # ThreadSanitizer needs -Zbuild-std so std itself is instrumented;
    # `xtask audit` covers the lock-order and lock-across-io classes
    # statically, this stage covers the dynamic interleavings the static
    # pass documents as out of scope (DESIGN.md §10).
    if ! rustup toolchain list 2>/dev/null | grep -q nightly ||
        ! rustup component list --toolchain nightly 2>/dev/null |
        grep -q 'rust-src.*(installed)'; then
        echo "ci.sh tsan: nightly toolchain with rust-src not installed; skipping (static audit still covers lock order)"
        exit 0
    fi
    host="$(rustc -vV | sed -n 's/^host: //p')"
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std --target "$host" \
        --test fault_tolerance --test chaos_soak --test recovery_soak
    exit 0
fi

cargo fmt --check
cargo build --release
cargo xtask check
cargo xtask audit
cargo xtask mc
cargo xtask cost --check
TEAMNET_THREADS=1 cargo test -q --workspace
TEAMNET_THREADS=4 cargo test -q --workspace
cargo test -q --release --test hostile_frames
cargo run -q --release -p teamnet-bench --bin kernel_bench -- --smoke --out /tmp/BENCH_kernels_smoke.json
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --release --test chaos_soak
cargo test -q --release --test recovery_soak
cargo test -q --release --test serve_soak
TEAMNET_TRACE=/tmp/ci_trace.jsonl cargo run -q --release --example chaos_inference >/dev/null
cargo xtask trace-report /tmp/ci_trace.jsonl
cargo run -q --release --example trace_soak >/dev/null
# trace-assemble hard-fails on orphan spans; unmatched send/recv events
# (possible only if a worker's file were truncated) surface as warnings
# on stderr, which this stage also treats as fatal.
assemble_out="$(cargo xtask trace-assemble \
    0=target/trace-soak/node0.jsonl \
    1=target/trace-soak/node1.jsonl \
    2=target/trace-soak/node2.jsonl 2>/tmp/ci_assemble_warnings.txt)"
if [ -s /tmp/ci_assemble_warnings.txt ]; then
    echo "trace-assemble produced warnings:" >&2
    cat /tmp/ci_assemble_warnings.txt >&2
    exit 1
fi
echo "$assemble_out" | grep -q '^  all' || {
    echo "trace-assemble critical-path table is empty:" >&2
    echo "$assemble_out" >&2
    exit 1
}
