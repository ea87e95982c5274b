#!/usr/bin/env bash
# Does the benchmark repeat? Runs it as two sets of runs on one build
# (seeds differing) and, for every workload and end-to-end metric, takes
# the spread of each set - inter-quartile range over median, as Python's
# statistics.quantiles(values, n=4) gives it - and the two sets' medians.
#
# Fails if a spread exceeds the metric's bound (the driver's acceptance
# rule; setup_s is exempt from it), if the two medians differ by more than
# half the bound, if any run reports a failure, or if a traced run does
# not report exactly the per-layer metrics BENCHMARK.json lists. Warns
# when a spread exceeds a third of the bound. Prints the table that is
# committed in RESULTS.md. About 30 minutes.
#
#   benchmark/selfcheck.sh [runs-per-set, default 10]
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
out="benchmark/out/selfcheck"
rm -rf "$out"
mkdir -p "$out"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"

field() { python3 -c "import json; b = json.load(open('BENCHMARK.json')); print($1)"; }
readarray -t command < <(field '"\n".join(b["command"])')
seconds=$(field 'b["run_seconds"]')
workloads=$(field '" ".join(w["name"] for w in b["workloads"])')

run() { # workload seed trace; a failing run still leaves its result line
  "${command[@]}" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" \
    2>>"$out/stderr.log" | tail -n 1 || true
}

for set in 1 2; do
  for w in $workloads; do
    for i in $(seq 1 "$runs"); do
      run "$w" $(( set * 1000 + i )) 0 >"$out/$w.$set.$i.json"
    done
    echo "set $set: $w done" >&2
  done
done
for w in $workloads; do
  run "$w" 15 1 >"$out/$w.traced.json"
  echo "traced: $w done" >&2
done

python3 - "$out" "$runs" <<'PY'
import json, statistics, sys
out, runs = sys.argv[1], int(sys.argv[2])
bench = json.load(open("BENCHMARK.json"))
names = [w["name"] for w in bench["workloads"]]
ok = True

def complain(kind, text):
    global ok
    ok = False
    print(f"{kind}: {text}", file=sys.stderr)

print("| workload | metric | unit | bound | set 1 median | set 1 spread | set 2 median | set 2 spread | medians differ |")
print("|---|---|---|---|---|---|---|---|---|")
for w in names:
    sets = []
    for s in (1, 2):
        results = [json.load(open(f"{out}/{w}.{s}.{i}.json")) for i in range(1, runs + 1)]
        for r in results:
            if not r["correct"] or r["failed"]:
                complain("FAILED RUN", f"{w} set {s}: {r['failed']} of {r['attempted']} failed")
        sets.append(results)
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cells, medians = [], []
        for results in sets:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            medians.append(med)
            cells += [f"{med:.4g}", f"{spread:.2%}"]
            if name == "setup_s":
                continue  # gated on its medians only
            if spread > bound:
                complain("TOO NOISY", f"{w} {name}: spread {spread:.2%} > bound {bound:.0%}")
            elif spread > bound / 3:
                print(f"warning: {w} {name}: spread {spread:.2%} > a third of {bound:.0%}", file=sys.stderr)
        diff = abs(medians[1] - medians[0]) / medians[0]
        if diff > bound / 2:
            complain("DOES NOT REPEAT", f"{w} {name}: medians differ {diff:.2%} > half of {bound:.0%}")
        print(f"| {w} | {name} | {m['unit']} | {bound:.0%} | " + " | ".join(cells) + f" | {diff:.2%} |")

want = {m["name"]: m["unit"] for m in bench["per_layer"]}
print()
print("| per-layer metric | unit | " + " | ".join(names) + " |")
print("|---|---|" + "---|" * len(names))
traced = {w: json.load(open(f"{out}/{w}.traced.json")) for w in names}
for w, r in traced.items():
    got = {k: v["unit"] for k, v in r["metrics"].items()}
    if got != want:
        complain("PER-LAYER MISMATCH", f"{w}: {sorted(set(got.items()) ^ set(want.items()))}")
    if not r["correct"] or r["failed"]:
        complain("FAILED RUN", f"{w} traced: {r['failed']} of {r['attempted']} failed")
for name, unit in want.items():
    cells = [f"{traced[w]['metrics'].get(name, {}).get('value', float('nan')):.4g}" for w in names]
    print(f"| {name} | {unit} | " + " | ".join(cells) + " |")
sys.exit(0 if ok else 1)
PY
