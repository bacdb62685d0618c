#!/usr/bin/env python3
"""Same-machine A/B of the end-to-end benchmark: a base revision vs this tree.

    tools/bench_ab.py BASE_REV [--pairs N] [--workloads a,b] [--work DIR]
    tools/bench_ab.py --from RESULTS.jsonl

Exports BASE_REV with `git archive` (the committed files only; no worktree is
registered in the repository) into the work directory and records the
resolved commit there; a work directory that holds another commit's export
is refused. For every BENCHMARK.json workload it runs N alternating pairs
through perfbench/run.py for BENCHMARK.json's run_seconds (seeds 1..N; odd
pairs run the base first, even pairs the change first, so slow drift
cancels), each side with its own CARGO_TARGET_DIR, so run.py builds the two
trees apart. Every run starts a new RESULTS.jsonl in the work directory; each
row names the base commit.

Per BENCHMARK.json end-to-end metric it prints the parent and change
medians with their quartiles, the median of the per-pair change/parent
ratios with a bootstrap 95% CI, and the pairs the change won. The verdict is
"no change" while the CI contains 1, "change (better|worse)" when it
excludes 1, and "REGRESSION" only when the whole CI lies past the metric's
bound on the worse side. ", gain" marks a metric the change won on at least
nine tenths of the pairs with medians further apart than the parent's
interquartile range. Exits 1 when any metric regressed. --from recomputes the
report from a results file without running anything; a file that mixes base
commits or repeats a (workload, side, seed) run is refused.
"""
import argparse
import json
import os
import pathlib
import random
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
BOOTSTRAP_SAMPLES = 2000
BOOTSTRAP_SEED = 12345


# ---- verdict logic (pure; tools/test_bench_ab.py covers it) ----

def parse_result_line(stdout):
    """Metric name -> value from a perfbench run's output (its last line)."""
    lines = [l for l in stdout.strip().splitlines() if l.strip()]
    if not lines:
        raise ValueError("empty benchmark output")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        raise ValueError("benchmark run failed its correctness checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def ratio(change, parent):
    if parent == change:
        return 1.0
    if parent == 0:
        return float("inf")
    return change / parent


def bootstrap_ci(ratios, samples=BOOTSTRAP_SAMPLES, seed=BOOTSTRAP_SEED):
    """95% percentile-bootstrap CI of the median of `ratios` (pairs resampled)."""
    rng = random.Random(seed)
    n = len(ratios)
    medians = sorted(statistics.median(rng.choices(ratios, k=n)) for _ in range(samples))
    return medians[int(0.025 * samples)], medians[int(0.975 * samples) - 1]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(metric, parent, change):
    """Compares paired samples of one metric. `metric` is its BENCHMARK.json
    entry (name, better, bound); parent[i] and change[i] ran with seed i+1."""
    if len(parent) != len(change) or not parent:
        raise ValueError(f"{metric['name']}: need equally many paired samples")
    lower_better = metric["better"] == "lower"
    ratios = [ratio(c, p) for p, c in zip(parent, change)]
    lo, hi = bootstrap_ci(ratios)
    wins = sum(1 for p, c in zip(parent, change) if (c < p if lower_better else c > p))
    bound = metric["bound"]
    if (lo > 1 + bound) if lower_better else (hi < 1 - bound):
        word = "REGRESSION"
    elif lo <= 1 <= hi:
        word = "no change"
    else:
        better = hi < 1 if lower_better else lo > 1
        word = "change (better)" if better else "change (worse)"
    # A gain may be claimed when the change wins >= 9/10 of the pairs and the
    # medians differ by more than the parent's interquartile range.
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q1, p_q3 = quartiles(parent)
    gain = wins * 10 >= 9 * len(parent) and abs(c_med - p_med) > p_q3 - p_q1
    return {
        "metric": metric["name"],
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": (p_q1, p_q3),
        "change_quartiles": quartiles(change),
        "gain": gain,
        "ratio": statistics.median(ratios),
        "ci": (lo, hi),
        "wins": wins,
        "pairs": len(parent),
        "verdict": word,
    }


def check_results(results):
    """Raises ValueError unless the rows share one base commit and no
    (workload, side, seed) run appears twice."""
    bases = {r.get("base") for r in results}
    if len(bases) > 1:
        raise ValueError(f"results mix base commits: {sorted(map(str, bases))}")
    seen = set()
    for r in results:
        key = (r["workload"], r["side"], r["seed"])
        if key in seen:
            raise ValueError(f"repeated run {key}")
        seen.add(key)


def report(spec, results, out=sys.stdout):
    """Prints one row per (workload, metric); returns True when nothing regressed."""
    check_results(results)
    ok = True
    out.write(f"{'workload':<13} {'metric':<14} {'parent [q1, q3]':<33} {'change [q1, q3]':<33}"
              f" {'ratio':>6}  {'95% CI':<16} {'wins':>5}  verdict\n")
    for w in spec["workloads"]:
        runs = [r for r in results if r["workload"] == w["name"]]
        seeds = sorted({r["seed"] for r in runs})
        by = {(r["side"], r["seed"]): r["metrics"] for r in runs}
        paired = [s for s in seeds if ("base", s) in by and ("head", s) in by]
        if not paired:
            continue
        for m in spec["end_to_end"]:
            parent = [by[("base", s)].get(m["name"]) for s in paired]
            change = [by[("head", s)].get(m["name"]) for s in paired]
            if None in parent or None in change:
                continue
            v = verdict(m, parent, change)
            ok = ok and v["verdict"] != "REGRESSION"
            lo, hi = v["ci"]
            cells = []
            for med, (q1, q3) in ((v["parent_median"], v["parent_quartiles"]),
                                  (v["change_median"], v["change_quartiles"])):
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            word = v["verdict"] + (", gain" if v["gain"] else "")
            out.write(f"{w['name']:<13} {m['name']:<14} {cells[0]:<33} {cells[1]:<33}"
                      f" {v['ratio']:>6.3f}  [{lo:.3f}, {hi:.3f}] {v['wins']:>2}/{v['pairs']:<2}  {word}\n")
    return ok


# ---- running ----

def resolve(rev):
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", rev + "^{commit}"],
                          check=True, capture_output=True, text=True).stdout.strip()


def export_base(sha, work):
    """Exports commit `sha` to work/base-src once; refuses another commit's export."""
    dest, stamp = work / "base-src", work / "BASE_COMMIT"
    if dest.exists():
        held = stamp.read_text().strip() if stamp.exists() else "an unrecorded commit"
        if held != sha:
            raise SystemExit(f"bench_ab: {work} holds an export of {held}, not {sha}; "
                             "use another --work directory")
        return dest
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    stamp.write_text(sha + "\n")
    return dest


def run_one(tree, target, workload, seed, seconds, command):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return parse_result_line(proc.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="git revision to compare against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", help="comma-separated subset of BENCHMARK.json's workloads")
    ap.add_argument("--work", help="work directory (default: a new temporary directory)")
    ap.add_argument("--from", dest="from_file", help="report on an earlier RESULTS.jsonl")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.from_file:
        results = [json.loads(l) for l in pathlib.Path(args.from_file).read_text().splitlines()
                   if l.strip()]
        try:
            return 0 if report(spec, results) else 1
        except ValueError as e:
            raise SystemExit(f"bench_ab: {args.from_file}: {e}")
    if not args.base:
        ap.error("BASE_REV is required unless --from is given")
    if args.pairs < 1:
        ap.error("--pairs must be positive")

    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = sorted(set(wanted) - set(names))
        if unknown:
            ap.error(f"unknown workloads: {', '.join(unknown)}")
        names = [n for n in names if n in wanted]
    base_sha = resolve(args.base)

    work = pathlib.Path(args.work or tempfile.mkdtemp(prefix="bench_ab-")).resolve()
    work.mkdir(parents=True, exist_ok=True)
    sides = {"base": (export_base(base_sha, work), work / "base-target"),
             "head": (ROOT, work / "head-target")}

    results_path = work / "RESULTS.jsonl"
    results = []
    with results_path.open("w") as log:
        for name in names:
            for seed in range(1, args.pairs + 1):
                order = ("base", "head") if seed % 2 else ("head", "base")
                for side in order:
                    tree, target = sides[side]
                    metrics = run_one(tree, target, name, seed, spec["run_seconds"],
                                      spec["command"])
                    row = {"workload": name, "seed": seed, "side": side, "base": base_sha,
                           "metrics": metrics}
                    results.append(row)
                    log.write(json.dumps(row) + "\n")
                    log.flush()
                print(f"bench_ab: {name} pair {seed}/{args.pairs} done", file=sys.stderr)
    print(f"bench_ab: results in {results_path}", file=sys.stderr)
    return 0 if report(spec, results) else 1


if __name__ == "__main__":
    sys.exit(main())
