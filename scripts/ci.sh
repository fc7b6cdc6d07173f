#!/usr/bin/env bash
# Full CI gate: formatting, the client-driver, router/protocol,
# hosted-driver, one-read-loop and no-event-kernel layering greps,
# lint (warnings denied), release build (all targets, so bench breakage
# is caught), the complete test suite including ignored tests, the
# benchmark package's own tests (it links crates/*), a warning-clean
# rustdoc build, a self-inval smoke through the CLI, and the non-test
# line count per crate. It times nothing: performance is measured by
# `bash benchmark/run.sh` and compared with a parent commit by
# `scripts/bench_pairs.sh`. The gate fails if it leaves
# `git status --porcelain` different from how it found it.
# Run from anywhere; exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# Hung tests must fail the gate, not wedge it. Overridable for slow
# machines; `timeout` is coreutils, present everywhere CI runs.
TEST_TIMEOUT="${VL_TEST_TIMEOUT:-900}"

tree_before=$(git status --porcelain)

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> vl-client driver names no protocol message (DESIGN.md §7)"
# One Figure 4 on the live path: outside its tests the driver may match
# WRONG_SHARD (routing) and nothing else, and builds no request itself.
leak=$(for f in crates/client/src/*.rs; do sed '/#\[cfg(test)\]/,$d' "$f"; done |
    grep -E 'ClientMsg::|ServerMsg::' | grep -v 'ServerMsg::WrongShard' || true)
if [ -n "$leak" ]; then
    echo "error: vl-client driver handles a protocol message itself: $leak" >&2
    exit 1
fi

echo "==> vl-core::machine keeps routing and protocol apart (DESIGN.md §7)"
# One machine per volume: volume.rs is the paper's single-volume server
# and knows nothing of peers, shard maps or redirects; server.rs routes
# and touches no lease, link state or invalidation queue.
nontest() { sed '/#\[cfg(test)\]/,$d' "$1"; }
leak=$(nontest crates/core/src/machine/volume.rs |
    grep -nE 'PeerMsg|ShardMap|WrongShard|departed' || true)
if [ -n "$leak" ]; then
    echo "error: machine/volume.rs names routing state: $leak" >&2
    exit 1
fi
leak=$(nontest crates/core/src/machine/server.rs |
    grep -nE 'Link::|LeaseSet|Inactive|awaiting_ack' || true)
if [ -n "$leak" ]; then
    echo "error: machine/server.rs names per-volume protocol state: $leak" >&2
    exit 1
fi
# A volume owns its writes — queue, gate, fan-out, wait, commit — and
# the router schedules nothing: a write queue or an active-write marker
# in server.rs, or a pipeline stage of volume.rs the router can call,
# is the global FIFO growing back.
leak=$(nontest crates/core/src/machine/server.rs |
    grep -nE 'queued_writes|writing|VecDeque' || true)
if [ -n "$leak" ]; then
    echo "error: machine/server.rs schedules writes: $leak" >&2
    exit 1
fi
leak=$(nontest crates/core/src/machine/volume.rs |
    grep -nE 'pub(\(super\))? +(fn +(start_write|advance_write)|wait_until)\b' || true)
if [ -n "$leak" ]; then
    echo "error: machine/volume.rs exposes a stage of its write pipeline: $leak" >&2
    exit 1
fi

echo "==> every driver is hosted; vl-net owns every consumer thread (DESIGN.md §7, §11)"
# The server and the client are handlers their endpoint hosts: neither
# starts a thread nor blocks in a receive of its own. `Channel::host`
# cannot fail, so nothing hands a handler back for its caller to run.
leak=$(for f in crates/server/src/*.rs crates/client/src/*.rs; do nontest "$f"; done |
    grep -nE 'thread::(spawn|Builder)|recv_event' || true)
if [ -n "$leak" ]; then
    echo "error: a driver runs a thread or a receive loop of its own: $leak" >&2
    exit 1
fi
leak=$(for f in crates/net/src/*.rs; do nontest "$f"; done |
    grep -nE 'Result<\(\), Box<dyn Handler>>|Err\((handler|hosted)' || true)
if [ -n "$leak" ]; then
    echo "error: Channel::host has a fallback: $leak" >&2
    exit 1
fi
if [ -e crates/parking_lot ]; then
    echo "error: crates/parking_lot is back; locks are std::sync's" >&2
    exit 1
fi

echo "==> the hosted path reads in one loop and encodes in place (DESIGN.md §12)"
# A frame is handled where it was read and its reply built where it is
# written from. The driver has one way to encode, into the buffer its
# Outbox hands it (rebalance.rs is the coordinator, not the driver, and
# sends whole messages); the reactor has one read loop whose per-frame
# step picks the sink. A second `stream.read(` is a second loop.
leak=$(nontest crates/server/src/server.rs |
    grep -nE 'codec::encode_(server|peer)\(' || true)
if [ -n "$leak" ]; then
    echo "error: the server driver encodes a reply aside: $leak" >&2
    exit 1
fi
reads=$(nontest crates/net/src/poll.rs | grep -c 'stream\.read(' || true)
if [ "$reads" != 1 ]; then
    echo "error: crates/net/src/poll.rs has $reads read loops, not 1" >&2
    exit 1
fi

echo "==> no crate schedules through an event queue (DESIGN.md §2)"
# The trace engine is a loop over the trace and the machine fault
# harness keeps its own agenda; vl-sim's queue is left only for
# benchmark/'s queue probe, and goes with it. An event kernel that grows
# back in a crate is one the docs and the benchmark do not know.
leak=$(grep -rnE 'vl[_-]sim' crates/*/src crates/*/tests Cargo.toml src/lib.rs |
    grep -v '^crates/sim/' || true)
if [ -n "$leak" ]; then
    echo "error: vl-sim named outside crates/sim: $leak" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --workspace --all-targets --release"
cargo build --workspace --all-targets --release

echo "==> cargo test -q --workspace -- --include-ignored (timeout ${TEST_TIMEOUT}s)"
timeout --kill-after=30 "$TEST_TIMEOUT" cargo test -q --workspace -- --include-ignored

echo "==> cargo test --offline --manifest-path benchmark/Cargo.toml"
# benchmark/ is a workspace of its own linking crates/*: a public-API
# change that stops it compiling must fail here, not in the benchmark
# driver. Built under target/ so nothing is left inside benchmark/.
cargo test -q --offline --manifest-path benchmark/Cargo.toml --target-dir target/benchmark

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> self-inval smoke (simulator column + chaos harness run)"
si_trace=$(mktemp)
cargo run --release -q -p vl-cli -- gen --out "$si_trace" --preset smoke --seed 7 >/dev/null
si_out=$(cargo run --release -q -p vl-cli -- sim --trace "$si_trace" \
    --protocol self-inval --t 100000)
rm -f "$si_trace"
echo "$si_out"
echo "$si_out" | grep -Eq 'stale reads: +0 ' || {
    echo "error: self-inval simulator column reported stale reads" >&2
    exit 1
}
# Exits non-zero if any consistency invariant is violated while every
# client clock stays within the skew bound. This is the one harness run
# CI makes through the CLI: the volume-lease protocol under all four
# shipped mixes x 40 seeds is machine_faults.rs in the test suite above
# (every_shipped_mix_upholds_both_invariants), which calls the same
# FaultConfig constructors `vl sim --chaos-profile` does.
cargo run --release -q -p vl-cli -- sim --chaos-profile havoc --chaos-seed 17 \
    --steps 600 --self-inval --skew-bound-ms 800 --clock-skew-ms 800

echo "==> scripts/loc.sh (non-test lines per crate)"
./scripts/loc.sh

echo "==> the gate leaves the working tree as it found it"
if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "error: scripts/ci.sh changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "==> CI gate passed"
