#!/usr/bin/env bash
# Builds the benchmark and the campaign worker (`mlpwin-sim`) from the
# sources of this checkout, then runs the benchmark with the given
# arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload ilp --seed 1 --seconds 35 --trace 0
#
# Cargo output goes to stderr; the last line of stdout is the result.
set -euo pipefail
here="$(dirname "$0")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --quiet --manifest-path "$here/Cargo.toml" \
    -p mlpwin-simbench -p mlpwin-sim >&2
exec "$target/release/mlpwin-simbench" "$@"
