"""Alternated parent/change runs of the benchmark, summarized into a BENCH file.

    python3 tools/alternate_bench.py --parent ../parent --change . \\
        --workloads corr1000 --seeds 0-9 --claim run_s --out BENCH_21.json

``--parent`` and ``--change`` are two checkouts of the repository. For each
workload and seed, ``python3 benchmarks/run.py --workload W --seed S
--seconds N --trace 0`` runs once in each checkout, from its root, one run at
a time: the parent first at even seeds, the change first at odd ones. The
last stdout line of each run is its result. ``--env NAME=VALUE`` (repeatable)
sets an environment variable for both sides' runs, for example
``--env MALLOC_MMAP_THRESHOLD_=131072`` to fix glibc's allocator layout; each
run records its settings, and the summary keeps runs under different
settings apart, as workload "corr1000 MALLOC_MMAP_THRESHOLD_=131072".
``--append`` adds the runs to an existing file instead of replacing it; the
summary covers every run in the file.

Per workload and end-to-end metric the summary gives each side's median and
quartiles, the change/parent ratio of every pair and of the medians, and how
many pairs the change won (lower is better for every end-to-end metric).
``--claim METRIC`` (on the first workload, or ``--claim-workload``) adds
the verdict of the claim rule: the change wins at least nine tenths of the
pairs, ties counting for neither, the parent median minus the change
median exceeds the parent's interquartile range, and the change fails no
larger share of its attempted operations than the parent.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

METRICS = ("setup_s", "run_s", "peak_rss_mb")
QUARTILES = "statistics.quantiles(n=4, method='inclusive')"
COMMAND = ("python3 benchmarks/run.py --workload <w> --seed <s> --seconds {seconds} "
           "--trace 0 (run from each checkout's root)")
WIN_SHARE = 0.9


def parse_seeds(text):
    """'0-3,7' -> [0, 1, 2, 3, 7]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def parse_env(text):
    """'NAME=VALUE' -> ("NAME", "VALUE")."""
    name, sep, value = text.partition("=")
    if not name or not sep:
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def env_label(env):
    """The suffix a run's ``env`` adds to its workload in the summary."""
    return "".join(f" {name}={value}" for name, value in sorted(env.items()))


def run_once(checkout, workload, seed, seconds, env=None):
    """One benchmark run in ``checkout``, with ``env`` added to this
    process's environment: its parsed last stdout line."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False,
                          env={**os.environ, **(env or {})})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"alternate_bench: {workload} seed {seed} in {checkout} exited "
                         f"{done.returncode}: {done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs):
    """Per workload: every metric's medians, quartiles, pair ratios and the
    pairs the change won, and each side's ``failed`` and ``attempted``
    counts. ``runs`` lists {"side", "workload", "seed", "env", "result"}
    ("env" may be missing); a pair is the parent and change run of one
    workload, seed and env, and the env's settings follow the workload's name."""
    pairs = {}
    for run in runs:
        workload = run["workload"] + env_label(run.get("env", {}))
        pairs.setdefault((workload, run["seed"]), {})[run["side"]] = run["result"]
    summary = {}
    for (workload, _), sides in pairs.items():
        if set(sides) != {"parent", "change"}:
            continue
        entry = summary.setdefault(workload, {
            count: {"parent": [], "change": []} for count in ("failed", "attempted")})
        for side in ("parent", "change"):
            for count in ("failed", "attempted"):
                entry[count][side].append(sides[side][count])
        for metric in METRICS:
            parent = sides["parent"]["metrics"][metric]["value"]
            change = sides["change"]["metrics"][metric]["value"]
            values = entry.setdefault(metric, {"parent": [], "change": []})
            values["parent"].append(parent)
            values["change"].append(change)
    for entry in summary.values():
        for metric in METRICS:
            parent, change = entry[metric]["parent"], entry[metric]["change"]
            ratios = [c / p for p, c in zip(parent, change)]
            wins = sum(c < p for p, c in zip(parent, change))
            entry[metric] = {
                "parent_median": round(statistics.median(parent), 4),
                "change_median": round(statistics.median(change), 4),
                "parent_quartiles": [round(q, 4) for q in _quartiles(parent)],
                "change_quartiles": [round(q, 4) for q in _quartiles(change)],
                "change_over_parent": round(statistics.median(change) / statistics.median(parent), 3),
                "pair_ratios": [round(r, 3) for r in ratios],
                "median_pair_ratio": round(statistics.median(ratios), 3),
                "pairs_change_lower": f"{wins} of {len(ratios)}",
            }
    return summary


def _fail_share(entry, side):
    return sum(entry["failed"][side]) / max(1, sum(entry["attempted"][side]))


def verdict(summary, workload, metric):
    """The claim rule for ``metric`` on ``workload`` (lower is better)."""
    entry = summary[workload][metric]
    parent_fails, change_fails = (_fail_share(summary[workload], side)
                                  for side in ("parent", "change"))
    wins, pairs = (int(part) for part in entry["pairs_change_lower"].split(" of "))
    low, _, high = entry["parent_quartiles"]
    gap = entry["parent_median"] - entry["change_median"]
    return {
        "metric": metric, "workload": workload,
        "rule": ("change lower in at least 9 of 10 pairs, parent median minus change "
                 "median greater than the parent's interquartile range, and a change "
                 "share of failed operations no larger than the parent's"),
        "pairs_won": f"{wins} of {pairs}",
        "median_gap": round(gap, 4),
        "parent_iqr": round(high - low, 4),
        "median_pair_ratio": entry["median_pair_ratio"],
        "failed_share": {"parent": round(parent_fails, 4),
                         "change": round(change_fails, 4)},
        "met": (pairs > 0 and wins >= WIN_SHARE * pairs and gap > high - low
                and change_fails <= parent_fails),
    }


def machine(checkout):
    """The machine record ``benchmarks/run.py`` of ``checkout`` makes."""
    sys.path.insert(0, os.path.join(checkout, "benchmarks"))
    import run

    return run.machine_record()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", required=True, help="seeds, e.g. 0-9 or 0-3,7")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", required=True, help="BENCH file to write")
    parser.add_argument("--append", action="store_true", help="add to the runs in --out")
    parser.add_argument("--claim", help="end-to-end metric the change claims")
    parser.add_argument("--claim-workload", help="workload of the claim (default: the first)")
    parser.add_argument("--env", type=parse_env, action="append", default=[],
                        metavar="NAME=VALUE", help="environment setting of every run (repeatable)")
    parser.add_argument("--what", default="benchmarks/run.py results, parent vs change, "
                                          "alternated run by run")
    args = parser.parse_args(argv)
    workloads, seeds = args.workloads.split(","), parse_seeds(args.seeds)
    env = dict(args.env)

    bench = {"runs": []}
    if args.append:
        with open(args.out, encoding="utf-8") as fh:
            bench = json.load(fh)
    checkouts = {"parent": args.parent, "change": args.change}
    for workload in workloads:
        for seed in seeds:
            order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds, env)
                bench["runs"].append({"side": side, "workload": workload, "seed": seed,
                                      "env": env, "result": result})
                print(side, workload + env_label(env), seed, json.dumps(result["metrics"]),
                      flush=True)
    bench.setdefault("what", args.what)
    bench["command"] = COMMAND.format(seconds=args.seconds)
    bench.setdefault("order", "per workload and seed one pair, the parent first at even "
                              "seeds and the change first at odd seeds, one run at a time")
    bench["quartiles"] = QUARTILES
    bench.setdefault("machine", machine(args.change))
    bench["summary"] = summarize(bench["runs"])
    if args.claim:
        claimed = (args.claim_workload or workloads[0]) + env_label(env)
        bench["claim"] = verdict(bench["summary"], claimed, args.claim)
    else:
        bench.setdefault("claim", None)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    if bench["claim"]:
        print(json.dumps(bench["claim"]))


if __name__ == "__main__":
    main()
