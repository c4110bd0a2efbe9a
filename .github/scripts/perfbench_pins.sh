#!/usr/bin/env bash
# Runs the perfbench workloads traced (`--trace 1`) and checks their work
# counters against the pins below.
#
# `--trace 1` replays through the self-profiler and the delegating
# TimedPolicy handed to `Scenario::policy`: a path the untimed runs never
# take. The profiler's work counters are exact for a given revision, so
# the two leapfrog workloads pin them, prefix_cache_aware pins its cache
# and coordination counts too, and wfq_overload pins its single
# `order_queue` call (the trace is ranked once per replay): `=` must
# match, `<=` is a ceiling. A change to the shape of the replay loops, or
# to any prefix-cache decision, fails here naming the counter; re-pin it
# deliberately in the same change.
#
# Usage, from the repository root: .github/scripts/perfbench_pins.sh [workload...]
# (all four workloads when none is named). Needs cargo and python3.
set -euo pipefail

pins_for() {
  case "$1" in
    fleet64_central) echo "engine.admission_rounds=120000 engine.decode_iterations=2398723
      events.stretches=129148 events.stretched_iterations=2278723 events.single_steps=120000
      events.leapfrogs=119989 events.heap_ops=0 events.stretch_plans<=189148" ;;
    prefix_cache_aware) echo "engine.admission_rounds=52576 engine.decode_iterations=83718
      events.stretches=31142 events.stretched_iterations=31142 events.single_steps=52576
      kv.evictions=1323 kv.wasted_tokens=11498 prefix.hits=13854 prefix.misses=3174
      prefix.cache_evictions=133175 prefix.tokens_saved=10785315
      coord.remote_hits=3093 coord.remote_streams=3008 events.stretch_plans<=44534
      coord.cache_residency_skew=1453326336 policy.key_calls=20000 cluster.routing_calls=1" ;;
    disagg_telemetry) echo "engine.admission_rounds=87943 engine.decode_iterations=314303
      events.stretches=75101 events.stretched_iterations=226360 events.single_steps=87943
      events.leapfrogs=85525 events.heap_ops=0 events.stretch_plans<=78221" ;;
    wfq_overload) echo "engine.admission_rounds=7551 engine.decode_iterations=65294
      events.stretches=5212 events.stretched_iterations=57743 events.single_steps=7551
      events.stretch_plans<=8884 policy.order_calls<=1" ;;
    *) echo "unknown perfbench workload: $1" >&2; return 1 ;;
  esac
}

if [ "$#" -eq 0 ]; then
  set -- fleet64_central prefix_cache_aware disagg_telemetry wfq_overload
fi
for w in "$@"; do
  pins=$(pins_for "$w")
  line=$(cargo run --release --offline --locked --quiet \
    --manifest-path perfbench/Cargo.toml -- --workload "$w" --trace 1 --seconds 1 | grep '^{' | tail -n 1)
  echo "$w: $line"
  echo "$line" | grep -q '"failed": 0' || { echo "perfbench $w (traced) reported failed replays"; exit 1; }
  # shellcheck disable=SC2086 # one argument per pin
  echo "$line" | python3 -c '
import json, re, sys
metrics = json.load(sys.stdin)["metrics"]
for pin in sys.argv[2:]:
    name, op, want = re.fullmatch(r"([\w.]+)(<?=)(\d+)", pin).groups()
    got = metrics[name]["value"]
    if not (got <= int(want) if op == "<=" else got == int(want)):
        sys.exit(f"perfbench {sys.argv[1]}: counter {name} = {got}, pinned {op} {want}")
' "$w" $pins
done
