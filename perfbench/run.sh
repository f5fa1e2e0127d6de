#!/usr/bin/env bash
# Build the benchmark and the qroute CLI from source, then run one workload:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a qroute checkout.  Stdout ends with one JSON line
# holding the result; build output and diagnostics go to stderr.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a qroute checkout" >&2
  exit 2
fi
dune build --root . ./perfbench/perfbench.exe ./bin/qroute_cli.exe >&2
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec ./_build/default/perfbench/perfbench.exe \
  --qroute ./_build/default/bin/qroute_cli.exe --commit "$commit" "$@"
