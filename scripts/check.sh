#!/bin/sh
# Full local gate: runs `make check`, which holds the gate list. FUZZTIME
# in the environment sets the fuzz-smoke duration (default 10s).
set -eu
cd "$(dirname "$0")/.."
exec make check
