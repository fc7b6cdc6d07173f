#!/usr/bin/env bash
# Where one benchmark workload spends its CPU time, on a machine with no
# perf and no debugger:
#
#   scripts/profile.sh --workload W [--seconds S] [--within REGEX] [--exclude REGEX] [--lines]
#
# Builds benchmark/ as benchmark/run.sh does (same manifest, target
# directory and release profile, which keeps debug info), then runs the
# one workload at seed 1, pinned to the last CPU, with
# scripts/profile/sampler.c preloaded: a SIGPROF records the call stack
# every millisecond of CPU time, or every tick where the kernel's tick
# is longer. Samples are resolved with `addr2line -i`, so inlined Rust
# frames count as frames of their own, and the report prints the 25
# largest entries of
#   self       the innermost (inlined) function at the sampled pc;
#   outermost  the function the sampled pc was compiled into;
#   inclusive  every function on the stack, counted once per sample,
#              leaving out those on every sample (main and its callers);
# each as a share of all samples kept, and libc's share of the leaves.
# --within keeps only samples with a frame matching REGEX; --exclude
# drops those with one. For example, wire_scale's write fan-out without
# the refetching reads around it:
#   scripts/profile.sh --workload wire_scale --within write_cycle --exclude 'WireRig::read'
#
# --lines prints, instead of the three tables, the 25 most sampled leaf
# instructions as `function file:line 0xaddr` (innermost inlined frame,
# ELF-relative address). A load that misses in cache is charged to the
# instruction after it, which retires only when the data arrives, so a
# hot address right behind a load names the miss; `objdump -d
# --start-address` on the binary shows the instruction before it.
#
# The system libc is stripped of symbols: its frames resolve to no name and
# are counted as `[libc.so.6]`, so what libc spends (memmove, malloc)
# shows as libc's share of the leaves and under its callers in the
# inclusive table. Needs gcc and binutils' addr2line. Writes only under
# target/profile/; edits nothing under benchmark/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

usage="usage: $0 --workload W [--seconds S] [--within REGEX] [--exclude REGEX] [--lines]"
workload=""
seconds=10
within=""
exclude=""
lines=""
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="$2"; shift 2 ;;
        --seconds) seconds="$2"; shift 2 ;;
        --within) within="$2"; shift 2 ;;
        --exclude) exclude="$2"; shift 2 ;;
        --lines) lines=1; shift ;;
        *) echo "$usage" >&2; exit 2 ;;
    esac
done
[ -n "$workload" ] || { echo "$usage" >&2; exit 2; }

out="$root/target/profile"
mkdir -p "$out"
gcc -O2 -shared -fPIC -Wall -o "$out/libvlsampler.so" "$here/profile/sampler.c"

target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" --target-dir "$target" >&2

pin=()
if command -v taskset >/dev/null && command -v nproc >/dev/null; then
    pin=(taskset -c "$(($(nproc) - 1))")
fi

rm -f "$out/samples".*
VL_PROF_OUT="$out/samples" LD_PRELOAD="$out/libvlsampler.so" ${pin[@]+"${pin[@]}"} \
    "$target/release/vl-benchmark" --workload "$workload" --seed 1 --seconds "$seconds" \
    --trace 0 --bench-dir "$root/benchmark" --out-dir "$target/out" >"$out/run.txt"
tail -n 1 "$out/run.txt"

python3 - "$within" "$exclude" "$lines" "$out"/samples.* <<'EOF'
import collections, re, subprocess, sys

within, exclude, lines = sys.argv[1], sys.argv[2], sys.argv[3]
within = re.compile(within) if within else None
exclude = re.compile(exclude) if exclude else None

stacks, dropped = [], 0
for path in sys.argv[4:]:
    local = {}
    for line in open(path):
        if line.startswith("# object "):
            _, _, idx, obj = line.rstrip("\n").split(" ", 3)
            local[idx] = obj
        elif line.startswith("# samples "):
            dropped += int(line.split()[4])
        elif line.strip():
            frames = []
            for k, f in enumerate(line.split()):
                idx, addr = f.split(":")
                # A return address points past its call: step back into it.
                frames.append((local.get(idx, "?"), int(addr, 16) - (1 if k else 0)))
            stacks.append(frames)

def short(obj):
    return "[" + obj.rsplit("/", 1)[-1] + "]"

def clean(name):
    return re.sub(r"::h[0-9a-f]{16}$", "", name)

# pc -> inline chain, innermost first; pc -> innermost file:line.
chains, where = {}, {}
for obj in {o for s in stacks for o, _ in s}:
    addrs = sorted({a for s in stacks for o, a in s if o == obj})
    if obj == "?" or "libc.so" in obj or "linux-vdso" in obj:
        for a in addrs:
            chains[(obj, a)] = [short(obj)]
        continue
    run = subprocess.run(["addr2line", "-a", "-i", "-f", "-C", "-e", obj],
                         input="\n".join(hex(a) for a in addrs), capture_output=True, text=True)
    # Per address: the address, then a function line and a location
    # line for each frame of its inline chain.
    cur, pos = None, 0
    for line in run.stdout.splitlines():
        if re.fullmatch(r"0x[0-9a-f]+", line):
            cur, pos = (obj, int(line, 16)), 0
            chains[cur] = []
            continue
        if cur is not None and pos % 2 == 0:
            name = clean(line)
            chains[cur].append(short(obj) if name == "??" else name)
        elif cur is not None and pos == 1:
            where[cur] = line
        pos += 1

kept = []
for s in stacks:
    names = [n for f in s for n in chains.get(f, ["?"])]
    if within and not any(within.search(n) for n in names):
        continue
    if exclude and any(exclude.search(n) for n in names):
        continue
    kept.append(s)
if not kept:
    sys.exit(f"no samples kept of {len(stacks)}")

selfs, outers, incl = collections.Counter(), collections.Counter(), collections.Counter()
libc = 0
for s in kept:
    leaf = chains.get(s[0], ["?"])
    selfs[leaf[0]] += 1
    outers[leaf[-1]] += 1
    libc += "libc.so" in s[0][0]
    incl.update({n for f in s for n in chains.get(f, ["?"])})

n = len(kept)
print(f"{n} samples kept of {len(stacks)} ({dropped} dropped at the buffer's end)")
print(f"libc share of leaves: {100 * libc / n:.1f} %")
if lines:
    print("\nleaf instructions:")
    for (obj, addr), count in collections.Counter(s[0] for s in kept).most_common(25):
        name = chains.get((obj, addr), ["?"])[0]
        print(f"  {100 * count / n:6.2f} %  {name} {where.get((obj, addr), '?')} {addr:#x}")
    sys.exit(0)
for title, table in (("self", selfs), ("outermost", outers), ("inclusive", incl)):
    print(f"\n{title}:")
    rows = [(name, count) for name, count in table.most_common() if count < n or table is not incl]
    for name, count in rows[:25]:
        print(f"  {100 * count / n:6.2f} %  {name}")
EOF
