#!/usr/bin/env bash
# CI entry point for the benchmark package: format, lint, unit tests,
# and a 1/10-scale smoke run of every workload (untraced and traced).
# Everything is offline; nothing outside benchmark/ is built or touched
# except through the path dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

cargo fmt --manifest-path "$manifest" -- --check
cargo clippy --offline --release --all-targets --manifest-path "$manifest" -- -D warnings
cargo test --offline --release --manifest-path "$manifest"
cargo run --offline --release --quiet --manifest-path "$manifest" -- all --quick --traced
