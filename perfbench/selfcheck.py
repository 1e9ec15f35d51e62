"""Self-check of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py

1. A tiny run of every workload, untraced and traced, through the
   command line: each prints every metric BENCHMARK.json names, with
   its unit, and reports a correct run.
2. One pinned value corrupted by one part in a million makes the run
   report failed > 0 (fail_frac > 0).
3. A leak-guard probe that stops raising makes the run report
   failed > 0.
4. Without the package source next to it, the benchmark exits non-zero
   and prints no result.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
TINY_SECONDS = "0.5"


def cli_tiny_runs(root, spec, problems):
    for name in workloads.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(SEED), "--seconds", TINY_SECONDS,
                 "--trace", str(trace), "--tiny"],
                cwd=root, capture_output=True, text=True, timeout=300)
            label = f"tiny {name} trace={trace}"
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}\n"
                                f"{out.stderr[-2000:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            found = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                found.append(f"result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                found.append("run not correct")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if want != got:
                wrong = [k for k in want if k in got and got[k] != want[k]]
                found.append(f"metrics differ from {group}: missing "
                             f"{sorted(set(want) - set(got))}, extra "
                             f"{sorted(set(got) - set(want))}, wrong unit "
                             f"{wrong}")
            problems.extend(f"{label}: {f}" for f in found)
            print(f"{'FAIL' if found else 'ok  '} {label}: {len(got)} "
                  f"metrics, {result['attempted']} requests")


def first_request(reference, name):
    wl = workloads.WORKLOADS[name]
    entries = reference["workloads"][name]["entries"]
    by_class = {c: [e for e in entries if e["class"] == c] for c in wl.tiny}
    weights = {c: wl.classes[c][0] for c in wl.tiny}
    return next(workloads.deck_sequence(by_class, weights, SEED))[0]


def corrupt(expect):
    """Move the first pinned number the checker compares by 1e-6."""
    for key in ("max_ratio", "value", "half", "eigenvalue"):
        if key in expect:
            expect[key] *= 1.0 + 1e-6
            return key
    if "checksum" in expect:
        expect["checksum"][0] *= 1.0 + 1e-6
        return "checksum"
    raise ValueError(f"nothing to corrupt in {expect}")


def tiny_failures(hs, reference, name):
    records, _, _ = run.run_benchmark(hs, 0.0, name, SEED, 0.0, 0, True,
                                      reference)
    return sum(1 for r in records if r[2] is not None), len(records)


def in_process_checks(root, problems):
    hs = run.load_package(root)
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    for name in workloads.WORKLOADS:
        failed, attempted = tiny_failures(hs, reference, name)
        if failed:
            problems.append(f"clean tiny {name}: {failed} failures")
        bad = copy.deepcopy(reference)
        target = first_request(reference, name)["id"]
        entry = next(e for e in bad["workloads"][name]["entries"]
                     if e["id"] == target)
        key = corrupt(entry["expect"])
        failed, attempted = tiny_failures(hs, bad, name)
        status = "ok  " if failed else "FAIL"
        if not failed:
            problems.append(f"corrupted {name} {target}.{key} not detected")
        print(f"{status} corrupted {name} {target}.{key}: fail_frac = "
              f"{failed}/{attempted}")

    # switch the spectral leak guard off: probes must now count as failures
    saved = hs.norms._LEAK_TOL
    hs.norms._LEAK_TOL = float("inf")
    try:
        failed, attempted = tiny_failures(hs, reference, "besov_bank_2d")
    finally:
        hs.norms._LEAK_TOL = saved
    status = "ok  " if failed else "FAIL"
    if not failed:
        problems.append("a guard probe that did not raise was not counted")
    print(f"{status} leak guard disabled: fail_frac = {failed}/{attempted}")


def bare_directory_check(root, problems):
    bare = os.path.join(root, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
             "--workload", "sweep_ladder_1d", "--seed", "1", "--seconds",
             "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    printed = '"metrics"' in out.stdout
    if out.returncode == 0 or printed:
        problems.append(f"bare directory: exit {out.returncode}, result "
                        f"printed: {printed}")
    print(f"{'ok  ' if out.returncode and not printed else 'FAIL'} bare "
          f"directory: exit {out.returncode}, no result printed")


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    cli_tiny_runs(root, spec, problems)
    in_process_checks(root, problems)
    bare_directory_check(root, problems)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selfcheck " + ("passed" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
