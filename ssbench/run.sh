#!/usr/bin/env bash
# Builds the release daemon (from the repository's workspace) and the
# benchmark client (this package) from source, then runs one benchmark:
#
#   bash ssbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
/*) ;;
*) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path "$root/Cargo.toml" -p ssync-service --bin ssync-serviced >&2
cargo build --release --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/ssbench" --daemon "$target/release/ssync-serviced" --out "$here/out" "$@"
