#!/usr/bin/env bash
# The benchmark trajectory: one BENCH_<pr>.json per PR at the repository
# root, outside benchmark/.
#
#   ci/trajectory.sh <pr> [<pr>:<checkout> ...]
#       Build the benchmark once in this checkout (and in each other
#       checkout), then run the four BENCHMARK.json workloads with that
#       binary, untraced, at full scale on seeds 1-5. Within each seed the workloads run
#       one after another, and for each workload the checkouts take
#       turns, in an order that alternates from seed to seed, so every
#       head sees the same host. Then run `all --quick` (seed 1) in each
#       checkout for the exact figures. Writes BENCH_<pr>.json for each
#       head into that head's own checkout, so only the first head's
#       file lands here and no committed record here is overwritten:
#       its commit, whether tracked files differed from it before the
#       build or after the last run, the seeds, the median
#       driver.host_slowdown, and per workload and end-to-end metric the
#       median, the quartiles (Python's statistics.quantiles, n=4), n
#       and the values by seed; plus the seed-1 --quick write_amp,
#       space_amp and dth_worst_age_frac.
#
#   ci/trajectory.sh --check [<output>]
#       Compare the exact figures of an `all --quick` run at HEAD with
#       the newest BENCH_*.json: the run whose output was saved in
#       <output> (of an `all --quick --traced` run, the untraced half),
#       or else a fresh untraced one. Fails on any
#       difference: a change that moves them must commit its own file
#       recording the new figures.
#
# SEEDS (default "1 2 3 4 5") and RUN_SECONDS (default 10) override the
# seeds and the per-run length.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)
workloads=(ingest-delete read-aged wire-perop wire-pipelined-sharded)
seeds=(${SEEDS:-1 2 3 4 5})
run_seconds=${RUN_SECONDS:-10}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Build the benchmark in <checkout> and copy the binary to <bin>, so
# every run measures this build: `cargo run` would rebuild silently if
# a source file changed mid-measurement. The binary is where cargo puts
# it: under CARGO_TARGET_DIR when set (a relative one is taken from the
# checkout, as cargo takes it), else under benchmark/target.
build() { # <checkout> <bin>
    (cd "$1" && cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml &&
        cp "${CARGO_TARGET_DIR:-benchmark/target}/release/acheron-benchmark" "$2")
}

bench() { # <checkout> <bin> <args...>
    local dir=$1 bin=$2
    shift 2
    (cd "$dir" && "$bin" "$@")
}

# Tracked files that differ from the checkout's commit, BENCH_*.json
# aside.
dirty() { # <checkout>
    git -C "$1" status --porcelain --untracked-files=no -- . ':!BENCH_*.json' 2>/dev/null | wc -l
}

if [[ "${1:-}" == "--check" ]]; then
    newest=$(ls BENCH_*.json 2>/dev/null | sed 's/BENCH_\([0-9]*\)\.json/\1/' | sort -n | tail -1)
    if [[ -z "$newest" ]]; then
        echo "no BENCH_*.json to check against" >&2
        exit 1
    fi
    quick=${2:-$tmp/quick.txt}
    if [[ $# -lt 2 ]]; then
        build "$root" "$tmp/acheron-benchmark"
        bench "$root" "$tmp/acheron-benchmark" all --quick > "$quick"
    fi
    python3 - "$quick" "BENCH_$newest.json" <<'EOF'
import json, sys
quick_path, bench_path = sys.argv[1:]
EXACT = ["write_amp", "space_amp", "dth_worst_age_frac"]
got = {}
workload = None
for line in open(quick_path):
    if line.startswith("== "):
        workload = line.split()[1]
    elif line.startswith("{") and workload:
        metrics = json.loads(line)["metrics"]
        # A traced run's result holds only per-layer figures.
        if all(m in metrics for m in EXACT):
            got[workload] = {m: metrics[m]["value"] for m in EXACT}
want = json.load(open(bench_path))["quick_seed1"]
bad = [
    f"{w} {m}: {bench_path} records {want.get(w, {}).get(m)}, HEAD gives {got.get(w, {}).get(m)}"
    for w in sorted(set(want) | set(got))
    for m in EXACT
    if want.get(w, {}).get(m) != got.get(w, {}).get(m)
]
if bad:
    print("exact --quick figures differ from the newest trajectory file:")
    print("\n".join(bad))
    sys.exit(1)
print(f"exact --quick figures match {bench_path} on {len(got)} workloads")
EOF
    exit 0
fi

if [[ $# -lt 1 || ! "$1" =~ ^[0-9]+$ ]]; then
    echo "usage: ci/trajectory.sh <pr> [<pr>:<checkout> ...] | --check [<output>]" >&2
    exit 2
fi
heads=("$1:$root")
shift
for head in "$@"; do
    heads+=("$head")
done

for head in "${heads[@]}"; do
    pr=${head%%:*}
    dir=${head#*:}
    mkdir -p "$tmp/$pr"
    dirty "$dir" > "$tmp/$pr/dirty"
    build "$dir" "$tmp/$pr/acheron-benchmark"
done

n=${#heads[@]}
for s in "${!seeds[@]}"; do
    seed=${seeds[$s]}
    for w in "${workloads[@]}"; do
        for i in $(seq 0 $((n - 1))); do
            # Seed by seed, the heads swap their order.
            head=${heads[$(((i + s) % n))]}
            pr=${head%%:*}
            dir=${head#*:}
            echo "seed $seed $w: $pr" >&2
            bench "$dir" "$tmp/$pr/acheron-benchmark" --workload "$w" --seed "$seed" \
                --seconds "$run_seconds" --trace 0 > "$tmp/$pr/$w-$seed.txt"
        done
    done
done
for head in "${heads[@]}"; do
    pr=${head%%:*}
    dir=${head#*:}
    bench "$dir" "$tmp/$pr/acheron-benchmark" all --quick > "$tmp/$pr/quick.txt"
    # The tree counts as dirty if it was before the build or is now.
    commit=$(git -C "$dir" rev-parse HEAD 2>/dev/null || echo unknown)
    echo "$commit $(($(cat "$tmp/$pr/dirty") + $(dirty "$dir")))" > "$tmp/$pr/commit"
done

for head in "${heads[@]}"; do
    pr=${head%%:*}
    dir=${head#*:}
    python3 - "$tmp/$pr" "$pr" "${seeds[*]}" "${workloads[*]}" > "$dir/BENCH_$pr.json" <<'EOF'
import json, re, statistics, sys
out_dir, pr, seeds, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3].split(), sys.argv[4].split()
bench = json.load(open("BENCHMARK.json"))
end_to_end = [m["name"] for m in bench["end_to_end"]]
EXACT = ["write_amp", "space_amp", "dth_worst_age_frac"]
commit, dirty = open(f"{out_dir}/commit").read().split()

def result(path):
    """The run's result object and its timed-phase host_slowdown."""
    text = open(path).read()
    slowdown = float(re.search(r"^# timed phase:.*host_slowdown ([0-9.]+)", text, re.M).group(1))
    obj = json.loads([l for l in text.splitlines() if l.startswith("{")][-1])
    if not obj["correct"]:
        sys.exit(f"{path}: the run was not correct")
    return obj, slowdown

def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "by_seed": values}

slowdowns, figures = [], {}
for w in workloads:
    runs = [result(f"{out_dir}/{w}-{s}.txt") for s in seeds]
    slowdowns += [sd for _, sd in runs]
    figures[w] = {
        m: dict(summary([obj["metrics"][m]["value"] for obj, _ in runs]),
                unit=runs[0][0]["metrics"][m]["unit"])
        for m in end_to_end
    }
    figures[w]["failed_share"] = summary([obj["failed"] / obj["attempted"] for obj, _ in runs])

quick, workload = {}, None
for line in open(f"{out_dir}/quick.txt"):
    if line.startswith("== "):
        workload = line.split()[1]
    elif line.startswith("{") and workload:
        metrics = json.loads(line)["metrics"]
        quick[workload] = {m: metrics[m]["value"] for m in EXACT}

cpu = next((l.split(":", 1)[1].strip() for l in open("/proc/cpuinfo") if l.startswith("model name")), "unknown")
json.dump({
    "pr": pr,
    "commit": commit,
    "uncommitted_changes": int(dirty) > 0,
    "host": {"cpu": cpu, "cpus": len([l for l in open("/proc/cpuinfo") if l.startswith("processor")])},
    "seeds": [int(s) for s in seeds],
    "run_seconds": int(re.search(r"seconds (\d+)", open(f"{out_dir}/{workloads[0]}-{seeds[0]}.txt").read()).group(1)),
    "host_slowdown_median": statistics.median(slowdowns),
    "workloads": figures,
    "quick_seed1": quick,
}, sys.stdout, indent=1)
print()
EOF
    echo "wrote $dir/BENCH_$pr.json" >&2
done
