#!/usr/bin/env python3
"""HEAD against the work tree on the unmodified benchmark.

Extracts HEAD, the parent, with `git archive` into one temporary
directory and copies the work tree (tracked files and untracked ones
that .gitignore does not name) into another.  Then, one process at a
time, it runs `perfbench/run.py --trace 0` in both over seeds 1..N of
each workload, the side that runs first alternating from pair to pair;
one `perfbench/run.py --trace 1` run per side and workload (seed 1) for
the work counts; and the work tree's `scripts/fingerprint.py` on each
side's `src`, so that a digest the parent's copy of the script lacks is
compared too.

Writes one JSON file in BENCH_16.json's layout.  Under "end_to_end", per
workload and per end-to-end metric of BENCHMARK.json:
- each side's median, q1 and q3 (`statistics.quantiles`, exclusive) and
  its runs in seed order;
- the ratio of the change's median to the parent's;
- how many pairs the change wins (ties win for neither side);
- worse_by, the share by which the change's median is worse than the
  parent's (negative when better), and within_bound, worse_by <= bound;
- parent_iqr and beyond_parent_iqr, whether the medians differ by more
  than the parent's q3 - q1;
and each run's [attempted, failed], to read peak_rss_mb against the op
count.  "work_counts" holds the count metrics of the traced runs, and
"fingerprint" each side's four digests.  It gates nothing: a pair's
timings are evidence only when both sides ran interleaved on one machine.
Exits 1 when a run fails or reports a wrong output.

Usage (from anywhere inside the repository):

    python scripts/bench_compare.py --out BENCH_37.json --seeds 3 maps_closed=10
    python scripts/bench_compare.py --out /tmp/b.json --workloads maps_closed --seeds 1 --seconds 1

Set TMPDIR to choose where the two copies go.  A run of --seconds 20
takes about 25 s (constant_sweep 30-60 s, whatever --seconds), so the
first line above takes about 25 minutes.
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
DIGESTS = ("constants", "solves", "maps", "reads")


def _git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def _extract_parent(root: Path, dest: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git(root, "archive", "--format=tar", "HEAD"))) as tar:
        tar.extractall(dest, filter="data")


def _copy_work_tree(root: Path, dest: Path) -> None:
    listed = _git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        src = root / name
        if src.is_file():   # a tracked file deleted in the work tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _run(cwd: Path, args: list, env_src: bool = False) -> list:
    """The JSON lines that `args` (a script and its options) prints in cwd."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if env_src:
        env["PYTHONPATH"] = "src"
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} in {cwd.name} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def _bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result, record) of one perfbench run."""
    *_, record, result = _run(cwd, ["perfbench/run.py", "--workload", workload, "--seed",
                                    str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {cwd.name}: wrong output")
    return result, record["record"]


def _stats(runs: list) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else runs * 3
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def summarize(parent: list, change: list, better: str, bound: float) -> dict:
    """One metric's entry from the runs of each side, paired by index."""
    p, c = _stats(parent), _stats(change)
    ratio = c["median"] / p["median"]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    worse_by = sign * (ratio - 1.0)
    iqr = p["q3"] - p["q1"]
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "parent_runs": parent, "change_runs": change,
            "ratio_change_over_parent": ratio, "change_wins": f"{wins}/{len(parent)}",
            "worse_by": worse_by, "within_bound": worse_by <= bound,
            "parent_iqr": iqr, "beyond_parent_iqr": abs(c["median"] - p["median"]) > iqr}


def _seeds(specs: list, workloads: list) -> dict:
    """Seeds per workload from ["N", "workload=N", ...]: N for every
    workload, workload=N for one."""
    counts = {}
    for spec in sorted(specs, key=lambda s: "=" in s):   # N first, then workload=N
        name, _, n = spec.rpartition("=")
        for w in ([name] if name else workloads):
            counts[w] = int(n)
    if min(counts.values()) < 1 or not set(counts) <= set(workloads):
        raise ValueError(f"--seeds: counts of at least 1 for {workloads}, got {specs}")
    return counts


def compare(root: Path, workloads: list, seeds: dict, seconds: float,
            log=print) -> dict:
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    with tempfile.TemporaryDirectory(prefix="bench_compare_") as tmp:
        dirs = {side: Path(tmp) / side for side in SIDES}
        for d in dirs.values():
            d.mkdir()
        _extract_parent(root, dirs["parent"])
        _copy_work_tree(root, dirs["change"])
        end_to_end, counts, env = {}, {}, None
        for wi, workload in enumerate(workloads):
            runs = {side: [] for side in SIDES}
            for seed in range(1, seeds[workload] + 1):
                for side in (SIDES if (seed + wi) % 2 else SIDES[::-1]):
                    result, record = _bench(dirs[side], workload, seed, seconds, 0)
                    env = env or record["environment"]
                    runs[side].append(result)
                    log(f"{workload} seed {seed} {side}: "
                        + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                        flush=True)
            end_to_end[workload] = {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                                     [r["metrics"][m["name"]]["value"] for r in runs["change"]],
                                     m["better"], m["bound"])
                for m in declared}
            end_to_end[workload]["attempted_failed"] = {
                side: [[r["attempted"], r["failed"]] for r in runs[side]] for side in SIDES}
            counts[workload] = {"traced_totals": {}}
            for side in (SIDES if wi % 2 else SIDES[::-1]):
                result, _ = _bench(dirs[side], workload, 1, seconds, 1)
                counts[workload]["traced_totals"][side] = [
                    {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}]
        script = str(dirs["change"] / "scripts" / "fingerprint.py")
        prints = {side: _run(dirs[side], [script], True)[-1] for side in SIDES}
        fingerprint = {side: {k: prints[side][k] for k in DIGESTS} for side in SIDES}
    counts["note"] = ("One traced run per side and workload, at seed 1. Traced runs are "
                      "time-bounded, so the faster side fits more ops and its totals are "
                      "larger; compare counts per bench.ops.")
    head = _git(root, "rev-parse", "--short", "HEAD").decode().strip()
    dirty = bool(_git(root, "status", "--porcelain", "--untracked-files=no").strip())
    return {
        "what": (f"alternating parent/change runs of the unchanged perfbench/run.py "
                 f"(--seconds {seconds:g}), seeds 1..N per workload "
                 f"({', '.join(f'{w}: {seeds[w]}' for w in workloads)}); in each pair the "
                 "side that runs first alternates. Times are perfbench's rescaled ones."),
        "parent": head,
        "change": f"work tree at {head}" + (" with uncommitted changes" if dirty else ""),
        "machine": {k: env[k] for k in ("nproc", "python", "numpy", "machine")}
                   | {"platform": platform.platform()},
        "end_to_end": end_to_end,
        "work_counts": counts,
        "fingerprint": {"command": ("PYTHONPATH=src python <change>/scripts/fingerprint.py, "
                                    "in each side's directory"),
                        **fingerprint, "equal": fingerprint["parent"] == fingerprint["change"]},
    }


def main(argv=None) -> int:
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="path of the JSON file to write")
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--seeds", nargs="+", required=True,
                    help="pairs per workload: N for all, workload=N for one")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"],
                    help=f"perfbench's --seconds ({bench['run_seconds']})")
    args = ap.parse_args(argv)
    try:
        seeds = _seeds(args.seeds, args.workloads)
    except ValueError as exc:
        ap.error(str(exc))
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        out = compare(root, args.workloads, seeds, args.seconds)
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"bench_compare: {exc}", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for workload, metrics in out["end_to_end"].items():
        for name, m in metrics.items():
            if name != "attempted_failed":
                print(f"{workload:15} {name:12} parent {m['parent']['median']:10.4g} "
                      f"change {m['change']['median']:10.4g} ratio "
                      f"{m['ratio_change_over_parent']:.3f} wins {m['change_wins']:6} "
                      f"within_bound {m['within_bound']}")
    print(f"fingerprint equal: {out['fingerprint']['equal']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
