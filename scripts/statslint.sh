#!/bin/sh
# statslint: the unified observability plane (internal/obs) is the only
# place metric storage may be declared. Every component keeps its counts
# in one exported struct of obs.Counter/obs.Gauge cells (bus.Counters,
# dma.Counters, ...), which is its live storage, its snapshot state and
# its read API at once. A *Stats struct anywhere outside internal/obs
# means a component grew a second copy of its counters — this script
# fails `make ci` when that happens. There is no allowlist.
set -eu
cd "$(dirname "$0")/.."

found=$(grep -rn 'type [A-Za-z0-9_]*Stats struct' --include='*.go' internal cmd examples \
    | grep -v '_test\.go:' \
    | grep -v '^internal/obs/' \
    || true)

if [ -n "$found" ]; then
    echo "statslint: *Stats structs outside internal/obs:" >&2
    echo "$found" >&2
    echo "statslint: keep counters in the component's obs-cell Counters struct instead." >&2
    exit 1
fi
echo "statslint: ok (no Stats structs outside internal/obs)"
