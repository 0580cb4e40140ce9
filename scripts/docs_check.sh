#!/bin/sh
# docs_check.sh — fail if a Markdown file or a recorded BENCH_*.json
# result referenced from Go sources or from Markdown links is missing
# from the repository root. This is what keeps doc citations in code
# comments (e.g. "see DESIGN.md §4", "recorded in BENCH_comm.json")
# honest: the repo shipped for months citing DESIGN.md/EXPERIMENTS.md
# files that were never committed. Run via `make docs-check` (CI runs it
# too).
set -eu
cd "$(dirname "$0")/.."

status=0
refs=$(
    {
        # Bare references in Go comments/strings: DESIGN.md, BENCH_comm.json, ...
        grep -rhoE '[A-Za-z0-9][A-Za-z0-9_.-]*\.md|BENCH_[A-Za-z0-9_]+\.json' --include='*.go' . 2>/dev/null
        # Markdown link targets in the top-level docs: [text](FILE.md),
        # [text](BENCH_comm.json). Inline code spans are stripped first:
        # link syntax quoted inside backticks does not render as a link.
        sed -e 's/`[^`]*`//g' ./*.md 2>/dev/null |
            grep -oE '\]\(([A-Za-z0-9][A-Za-z0-9_./-]*\.md|BENCH_[A-Za-z0-9_]+\.json)\)' |
            sed -e 's/^](//' -e 's/)$//'
    } | sort -u
)

for f in $refs; do
    if [ ! -e "$f" ]; then
        echo "docs-check: '$f' is referenced but does not exist" >&2
        grep -rln --include='*.go' "$f" . 2>/dev/null | sed 's/^/  referenced from /' >&2 || true
        grep -ln "]($f)" ./*.md 2>/dev/null | sed 's/^/  referenced from /' >&2 || true
        status=1
    fi
done

if [ "$status" -eq 0 ]; then
    echo "docs-check: all $(printf '%s\n' "$refs" | wc -l | tr -d ' ') referenced Markdown and BENCH files exist"
fi
exit $status
