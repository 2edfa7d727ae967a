#!/usr/bin/env bash
# Smoke test for CI: unit tests, then every workload on a 16-step slice,
# untraced and traced, all gates on. Results are labelled "quick": true and
# `benchmark compare` refuses them. Under a minute once built.
set -euo pipefail
cd "$(dirname "$0")"
cargo test --release --offline --quiet
cargo run --release --offline --quiet -- run --quick --seconds 5 --out out/quick
echo "check.sh: ok"
