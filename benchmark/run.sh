#!/usr/bin/env bash
# The BENCHMARK.json command: build `cmmc` and the benchmark from source
# (release, offline), then run one workload. Run from the repository
# root: bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
# Without CARGO_TARGET_DIR the root package builds into target/ and this
# crate, a workspace of its own, into benchmark/target/.
# Explicit manifests: cargo must not wander into a parent directory's.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin cmmc
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/cmm-benchmark" --root "$root" "$@"
