#!/usr/bin/env bash
# Parent-vs-change comparison of the figure harness: `run_all` prints
# every deterministic number on a line that does not start with `#`, so a
# change that claims to move no figure must leave those lines
# byte-identical.  The figure counterpart of scripts/perf-delta.sh.
#
#   scripts/figure-delta.sh                          # run_all --quick, all figures
#   scripts/figure-delta.sh fig19_write_concurrency  # only these figures
#   QUICK=0 scripts/figure-delta.sh fig20_group_commit fig22_commit_latency
#
# The *change* is the working tree, built where `cargo` builds it anyway;
# the *parent* is $BASE (default HEAD — uncommitted work against the last
# commit; after committing, BASE=HEAD~1), checked out into a `git worktree`
# under $WORK and built into its own target directory there.
#
# Environment:
#   BASE        commit to compare against                     (HEAD)
#   QUICK       1: `run_all --quick`; 0: full size            (1)
#   WORK        scratch directory, git-ignored                (.figure-delta)
#   PARENT_DIR  an existing checkout of the parent to use instead of
#               creating (and afterwards removing) the worktree
#
# Exit status: 0 when both outputs agree outside `#` lines, 1 when they
# differ (the unified diff, parent first, is printed), and whatever
# `run_all` or the build exits with if either fails (2 for an unknown
# figure name).
set -euo pipefail
cd "$(dirname "$0")/.."
root="$PWD"

base="${BASE:-HEAD}"
work="${WORK:-$root/.figure-delta}"
args=()
[[ "${QUICK:-1}" != 0 ]] && args+=(--quick)
args+=("$@")

mkdir -p "$work"
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
echo "# run_all ${args[*]}"

# One side's `run_all` output without its `#` lines, built in `dir` with
# the given environment assignments.
figures() { # dir [VAR=value...]
    local dir="$1"
    shift
    (cd "$dir" && env "$@" cargo run --release --offline --quiet --bin run_all -- "${args[@]}") |
        grep -v '^#'
}
figures "$parent" CARGO_TARGET_DIR="$work/target-parent" >"$work/parent.txt"
figures "$root" >"$work/change.txt"

if diff -u "$work/parent.txt" "$work/change.txt"; then
    echo "# identical outside '#' lines: $(wc -l <"$work/change.txt") lines"
else
    echo "figure-delta: the figures differ outside '#' lines (diff above)" >&2
    exit 1
fi
