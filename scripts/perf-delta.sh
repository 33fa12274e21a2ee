#!/usr/bin/env bash
# Parent-vs-change comparison of the repo benchmark, by the rule of the
# choosing-metrics guide (section 8): alternating pairs, medians with
# quartiles, and the win count.
#
#   scripts/perf-delta.sh                      # all five workloads
#   scripts/perf-delta.sh read_hot read_cold   # only these
#
# The *change* is the working tree; the *parent* is $BASE (default HEAD —
# uncommitted work against the last commit; after committing, BASE=HEAD~1).
# The parent is checked out into a `git worktree` under $WORK, each side
# builds benchmark/ into its own CARGO_TARGET_DIR, and every run is the
# command BENCHMARK.json names, with its run_seconds, untraced — nothing
# under benchmark/ is edited or needed beyond what the contract names.
#
# Environment:
#   BASE        commit to compare against                    (HEAD)
#   PAIRS       parent/change pairs per workload, >= 10      (10)
#   SEED        first seed; pair i runs both sides on SEED+i (the clock:
#               fresh seeds every time; printed, so a run can be repeated)
#   WORK        scratch directory, git-ignored               (.perf-delta)
#   PARENT_DIR  an existing checkout of the parent to use instead of
#               creating (and afterwards removing) the worktree
#
# A full run is 5 workloads x 10 pairs x 2 sides x ~30 s: about an hour.
# Leave the machine idle and the tree alone meanwhile: the contract command
# is `cargo run`, which rebuilds a side whose sources changed under it.
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

base="${BASE:-HEAD}"
pairs="${PAIRS:-10}"
seed0="${SEED:-$(date +%s)}"
work="${WORK:-$root/.perf-delta}"
if ((pairs < 10)); then
    echo "perf-delta: PAIRS must be at least 10 (choosing-metrics section 8)" >&2
    exit 2
fi

contract() { python3 -c "import json,sys; b=json.load(open('$root/BENCHMARK.json')); print($1)"; }
read -r -a command <<<"$(contract "' '.join(b['command'])")"
seconds="$(contract "b['run_seconds']")"
if (($# > 0)); then
    workloads=("$@")
else
    read -r -a workloads <<<"$(contract "' '.join(w['name'] for w in b['workloads'])")"
fi

mkdir -p "$work/runs"
if [[ -n "${PARENT_DIR:-}" ]]; then
    parent="$PARENT_DIR"
else
    parent="$work/parent"
    git worktree remove --force "$parent" 2>/dev/null || true
    git worktree add --detach --force "$parent" "$base" >/dev/null
    trap 'git worktree remove --force "$parent"' EXIT
fi
echo "# parent: $(git -C "$parent" rev-parse --short HEAD) in $parent"
echo "# change: working tree of $root ($(git rev-parse --short HEAD)$(git diff --quiet || echo ' + uncommitted'))"
echo "# pairs: $pairs, seeds $seed0..$((seed0 + pairs - 1)), ${seconds} s per run, cores: $(nproc)"

# One side's run of the contract command; its last stdout line is the
# result object.  `cargo run` finds the binary built and starts it.
run() { # side dir workload seed
    (cd "$2" && CARGO_TARGET_DIR="$work/target-$1" "${command[@]}" \
        --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
}
for side in parent change; do
    dir="$root"
    [[ $side == parent ]] && dir="$parent"
    (cd "$dir" && CARGO_TARGET_DIR="$work/target-$side" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        order=(parent change)
        ((i % 2)) && order=(change parent)
        for side in "${order[@]}"; do
            dir="$root"
            [[ $side == parent ]] && dir="$parent"
            run "$side" "$dir" "$workload" "$((seed0 + i))" >"$work/runs/$workload.$side.$i.json"
        done
        echo "# $workload pair $((i + 1))/$pairs done" >&2
    done
done

python3 - "$root/BENCHMARK.json" "$work/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
runs, pairs, workloads = sys.argv[2], int(sys.argv[3]), sys.argv[4:]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

for workload in workloads:
    side = {}
    for name in ("parent", "change"):
        side[name] = [json.load(open(f"{runs}/{workload}.{name}.{i}.json")) for i in range(pairs)]
    failed = {n: sum(r["failed"] for r in rs) for n, rs in side.items()}
    wrong = {n: sum(not r["correct"] for r in rs) for n, rs in side.items()}
    attempted = {n: statistics.median(r["attempted"] for r in rs) for n, rs in side.items()}
    print(f"\n## {workload}: failed operations parent {failed['parent']}, change {failed['change']};"
          f" incorrect runs parent {wrong['parent']}, change {wrong['change']};"
          f" median attempted parent {attempted['parent']:.0f}, change {attempted['change']:.0f}")
    print(f"{'metric':<30}{'parent q1 / median / q3':>36}{'change q1 / median / q3':>36}"
          f"{'delta':>9}{'wins':>7}  verdict")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        sign = 1 if m["better"] == "lower" else -1
        p = [r["metrics"][name]["value"] for r in side["parent"]]
        c = [r["metrics"][name]["value"] for r in side["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
        wins = sum(sign * (a - b) > 0 for a, b in zip(p, c))
        losses = sum(sign * (a - b) < 0 for a, b in zip(p, c))
        delta = (cm - pm) / pm if pm else 0.0
        gain = sign * (pm - cm)
        if wins * 10 >= 9 * pairs and gain > (p3 - p1):
            verdict = "better (>= 9/10 pairs, median gain > parent IQR)"
        elif sign * delta > bound:
            verdict = f"WORSE than the {bound:.0%} bound"
        elif max(p3 - p1, c3 - c1) > bound * pm and not all(sign * (a - b) >= 0 for a in p for b in c):
            verdict = "unresolved (spread wider than the bound)"
        else:
            verdict = "no regression"
        fmt = lambda a, b, c_: f"{a:>11.4g} /{b:>11.4g} /{c_:>11.4g}"
        print(f"{name:<30}{fmt(p1, pm, p3)}{fmt(c1, cm, c3)}{delta:>+9.1%}{wins:>4}/{wins + losses:<2}  {verdict}")
        if (workload, name) == ("write_commit", "peak_rss_mb") and cm > pm and attempted["change"] > attempted["parent"]:
            op_log_mb = (attempted["change"] - attempted["parent"]) * 60 / 1e6
            print("note: peak_rss_mb and attempted rose together: the benchmark's op log grows"
                  f" ≈ 60 B per operation, so it alone explains {op_log_mb:+.2f} MB"
                  f" ({op_log_mb / (cm - pm):.0%}) of the median's {cm - pm:+.2f} MB; see ROADMAP F")
EOF
