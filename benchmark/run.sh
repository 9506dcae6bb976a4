#!/usr/bin/env bash
# Builds the benchmark package (release, offline) and passes every argument
# through to it; `--help` lists the modes. Run from anywhere: paths below
# are taken from this script's place, the build directory from
# CARGO_TARGET_DIR when the caller sets one.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac

# Cargo's progress goes to stderr only, so stdout stays the benchmark's own
# and its last line is the result.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/gp-benchmark" --out-dir "$here/out" "$@"
