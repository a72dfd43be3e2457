#!/usr/bin/env bash
# Smoke test of the benchmark itself: unit tests, then every workload
# for one second untraced and traced (`run --quick`), then `check` of the
# result file against itself. About a minute; run from the repository
# root. Fails on a wrong answer, a failed gate or a malformed result.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
cargo test --release --quiet --manifest-path "$manifest"
cargo run --release --quiet --manifest-path "$manifest" -- run --quick --label smoke
cargo run --release --quiet --manifest-path "$manifest" -- \
    check benchmark/results/smoke.json benchmark/results/smoke.json
echo "smoke: ok"
