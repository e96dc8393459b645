#!/usr/bin/env python3
"""Run sets of the benchmark and compare them by BENCHMARK.json's bounds.

Run from the repository root:

  python3 perfbench/compare.py runs --workload W --seeds 1-10 --out A.jsonl
        [--seconds S] [--canary 1]     run one run per seed, append results
  python3 perfbench/compare.py spread A.jsonl
        per workload and metric: median, quartiles, spread against the bound
  python3 perfbench/compare.py compare A.jsonl B.jsonl
        B against A; exit 1 when a metric regressed by more than its bound
  python3 perfbench/compare.py self-check --workload W [--runs 5]
        an A/A pair of run sets must pass, and a set with the canary must
        be reported as a regression on the canary's metric
  python3 perfbench/compare.py unit-tests
        hand-worked cases for the arithmetic below

The spread of a set is the distance between the first and third quartile
(Python's statistics.quantiles, n=4) as a share of the median. A metric
regresses when the new median is worse than the old by more than its
bound; it is unresolved when either set spreads wider than the bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The metric each canary must trip (harness.h gives the canary sizes).
CANARY_TARGETS = {
    "train_dar_beer": ["items_per_s", "p50_ms"],
    "serve_unique_mixed": ["p50_ms"],
    "serve_repeat_short": ["p50_ms"],
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worse_share(metric, base, new):
    """How much worse `new` is than `base`, as a share of `base`."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def verdicts(spec, base_runs, new_runs):
    """[(metric name, base median, new median, worse share, verdict)]."""
    rows = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        base = [r["metrics"][name]["value"] for r in base_runs]
        new = [r["metrics"][name]["value"] for r in new_runs]
        worse = worse_share(metric, statistics.median(base), statistics.median(new))
        if worse > bound:
            verdict = "regression"
        elif len(base) > 1 and len(new) > 1 and (
                spread(base) > bound or spread(new) > bound):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append((name, statistics.median(base), statistics.median(new),
                     worse, verdict))
    return rows


def failed_share(runs):
    return (sum(r["failed"] for r in runs), sum(r["attempted"] for r in runs))


def read_records(path):
    by_workload = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                by_workload.setdefault(record["workload"], []).append(record["result"])
    return by_workload


def parse_seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_set(workload, seeds, seconds, canary, out):
    results = []
    for seed in seeds:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--trace", "0", "--canary",
               str(canary)]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            raise SystemExit("run failed: " + " ".join(cmd))
        result = json.loads(lines[-1])
        results.append(result)
        record = {"workload": workload, "seed": seed, "canary": canary,
                  "result": result}
        if out:
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
        summary = " ".join("%s=%.5g" % (k, v["value"])
                           for k, v in result["metrics"].items())
        print("%s seed=%d canary=%d correct=%s %s" % (
            workload, seed, canary, result["correct"], summary), flush=True)
    return results


def print_spread(spec, runs):
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        s = (q3 - q1) / q2
        print("  %-16s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.2f%% "
              "bound %5.1f%% %s" % (
                  metric["name"], q2, q1, q3, 100 * s, 100 * metric["bound"],
                  "ok" if s <= metric["bound"] / 3 else
                  "within bound" if s <= metric["bound"] else "WIDE"))
    failed, attempted = failed_share(runs)
    print("  failed %d of %d attempted; correct in %d of %d runs" % (
        failed, attempted, sum(r["correct"] for r in runs), len(runs)))


def print_verdicts(rows):
    for name, base, new, worse, verdict in rows:
        print("  %-16s %-12.6g -> %-12.6g worse by %6.2f%%  %s" % (
            name, base, new, 100 * worse, verdict))


def self_check(spec, workload, runs, seconds):
    seeds = list(range(1, runs + 1))
    print("A/A: first set", flush=True)
    first = run_set(workload, seeds, seconds, 0, None)
    print("A/A: second set", flush=True)
    second = run_set(workload, seeds, seconds, 0, None)
    print("canary set", flush=True)
    canary = run_set(workload, seeds, seconds, 1, None)
    aa = verdicts(spec, first, second)
    print("A/A:")
    print_verdicts(aa)
    against = verdicts(spec, first, canary)
    print("canary:")
    print_verdicts(against)
    aa_passes = all(v != "regression" for *_, v in aa) and (
        failed_share(first)[0] * failed_share(second)[1] ==
        failed_share(second)[0] * failed_share(first)[1])
    tripped = {name for name, *_, v in against if v == "regression"}
    caught = all(t in tripped for t in CANARY_TARGETS[workload])
    print("A/A %s; canary %s" % ("passes" if aa_passes else "FAILS",
                                 "detected" if caught else "MISSED"))
    return 0 if aa_passes and caught else 1


def unit_tests():
    spec = {"end_to_end": [
        {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]}

    def runs(lat, rate):
        return [{"metrics": {"lat": {"value": a}, "rate": {"value": b}},
                 "failed": 0, "attempted": 1} for a, b in zip(lat, rate)]

    base = runs([10, 10.2, 9.8, 10.1, 9.9], [100, 101, 99, 100.5, 99.5])
    failures = []
    # statistics.quantiles(n=4), 'exclusive': for 1..10, m = 11 and
    # q1 = (2*1 + 3*3)/4 = 2.75, q2 = (5*2 + 6*2)/4 = 5.5,
    # q3 = (8*3 + 9*1)/4 = 8.25, so the spread is (8.25-2.75)/5.5 = 1.
    if statistics.quantiles(list(range(1, 11)), n=4) != [2.75, 5.5, 8.25]:
        failures.append("quartiles of 1..10 are 2.75, 5.5, 8.25")
    if abs(spread(list(range(1, 11))) - 1.0) > 1e-12:
        failures.append("spread of 1..10 is 1")
    # Two values extrapolate: q1 = (1*5 + 2*(-1))/4 = 0.75.
    if statistics.quantiles([2, 1], n=4) != [0.75, 1.5, 2.25]:
        failures.append("quartiles of {1, 2} are 0.75, 1.5, 2.25")
    if statistics.median([4, 1, 3, 2]) != 2.5:
        failures.append("median of an even count is the mean of the middle two")
    # Worse by exactly the bound is not a regression; 10 % + 1e-9 is.
    if abs(worse_share(spec["end_to_end"][0], 10.0, 11.0) - 0.1) > 1e-12:
        failures.append("latency 10 -> 11 is 10 % worse")
    if abs(worse_share(spec["end_to_end"][1], 100.0, 90.0) - 0.1) > 1e-12:
        failures.append("rate 100 -> 90 is 10 % worse")
    same = verdicts(spec, base, base)
    if any(v != "ok" for *_, v in same):
        failures.append("a set compared with itself passes")
    slow = runs([12, 12.2, 11.8, 12.1, 11.9], [100, 101, 99, 100.5, 99.5])
    rows = dict((n, v) for n, *_, v in verdicts(spec, base, slow))
    if rows != {"lat": "regression", "rate": "ok"}:
        failures.append("a 20 % slower median latency is a regression")
    wide = runs([5, 10, 15, 10, 10], [100, 101, 99, 100.5, 99.5])
    rows = dict((n, v) for n, *_, v in verdicts(spec, base, wide))
    if rows["lat"] != "unresolved":
        failures.append("a set wider than the bound is unresolved")
    for f in failures:
        print("FAIL: " + f)
    print("%s: %d failure(s)" % ("FAIL" if failures else "ok", len(failures)))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--canary", type=int, default=0)
    p.add_argument("--out", required=True)
    p = sub.add_parser("spread")
    p.add_argument("file")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    p = sub.add_parser("self-check")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=float)
    sub.add_parser("unit-tests")
    args = parser.parse_args()

    if args.command == "unit-tests":
        return unit_tests()
    spec = load_spec()
    if args.command == "runs":
        run_set(args.workload, parse_seeds(args.seeds), args.seconds,
                args.canary, args.out)
        return 0
    if args.command == "spread":
        for workload, runs in read_records(args.file).items():
            print("%s (%d runs)" % (workload, len(runs)))
            print_spread(spec, runs)
        return 0
    if args.command == "compare":
        base, new = read_records(args.base), read_records(args.new)
        regressed = False
        for workload in base:
            if workload not in new:
                continue
            print(workload)
            rows = verdicts(spec, base[workload], new[workload])
            print_verdicts(rows)
            regressed |= any(v == "regression" for *_, v in rows)
            if (failed_share(base[workload])[0] * failed_share(new[workload])[1] !=
                    failed_share(new[workload])[0] * failed_share(base[workload])[1]):
                print("  failed share differs")
                regressed = True
        return 1 if regressed else 0
    return self_check(spec, args.workload, args.runs, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
