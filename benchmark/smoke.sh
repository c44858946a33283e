#!/usr/bin/env bash
# Smoke test for CI: the crate's unit tests, then every workload in
# --quick mode (3 samples a metric, one set-up), traced and untraced, and
# a run with deliberately wrong references, which must fail.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$(dirname "$here")"
cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
for workload in matmul_dense imbalanced_fold compile_wide serve_mixed; do
    bash benchmark/run.sh --workload "$workload" --quick --seconds 1 --trace 0 | tail -n 1
    bash benchmark/run.sh --workload "$workload" --quick --seconds 1 --trace 1 | tail -n 1
done
if bash benchmark/run.sh --workload compile_wide --quick --seconds 1 --corrupt-reference >/dev/null 2>&1; then
    echo "smoke: a wrong reference went unnoticed" >&2
    exit 1
fi
echo "smoke: ok"
