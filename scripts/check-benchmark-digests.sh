#!/usr/bin/env bash
# Compares the digests a benchmark/ run printed with the ones recorded
# for its workload and seed in scripts/benchmark-digests.txt.
#
# Usage:
#   cargo run --quiet --release --offline --locked \
#       --manifest-path benchmark/Cargo.toml -- \
#       --workload WORKLOAD --seed 42 --seconds 3 \
#       | scripts/check-benchmark-digests.sh WORKLOAD
#
# Reads the run's stdout on stdin. The seed comes from the run's header
# line ("benchmark WORKLOAD (run), seed N, ..."). Exits non-zero when the
# table has no digest for the workload at that seed, or when a recorded
# digest is missing from the output or differs from it.

set -euo pipefail

workload="${1:?usage: check-benchmark-digests.sh WORKLOAD < benchmark-output}"
table="$(dirname "$0")/benchmark-digests.txt"
output="$(cat)"
seed="$(printf '%s\n' "${output}" \
    | sed -n "s/^benchmark ${workload} ([a-z]*), seed \([0-9]*\),.*/\1/p" | head -n 1)"
if [ -z "${seed}" ]; then
    echo "benchmark digests: no '${workload}' header line with a seed in the output" >&2
    exit 1
fi

checked=0
while read -r name row_seed digest_name expected; do
    case "${name}" in '' | '#'*) continue ;; esac
    if [ "${name}" != "${workload}" ] || [ "${row_seed}" != "${seed}" ]; then
        continue
    fi
    printed="$(printf '%s\n' "${output}" \
        | sed -n "s/^ *${digest_name}: \([0-9a-f]*\)\$/\1/p")"
    if [ "${printed}" != "${expected}" ]; then
        echo "benchmark digests: ${workload} seed ${seed} ${digest_name}" \
            "printed '${printed:-nothing}', recorded ${expected}" >&2
        exit 1
    fi
    echo "benchmark digests: ${workload} seed ${seed} ${digest_name} ${printed} (recorded)"
    checked=$((checked + 1))
done < "${table}"

if [ "${checked}" -eq 0 ]; then
    echo "benchmark digests: no digest recorded for ${workload} at seed ${seed}" >&2
    exit 1
fi
