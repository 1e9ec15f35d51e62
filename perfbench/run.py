"""Benchmark of the halfspace_spectral package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_ladder_1d --seed 1 \
        --seconds 30 --trace 0

One process, one closed-loop client: each request is one top-level
public call (a ``ratio_sweep``, a norm evaluation or an operator
application), issued only after the previous one returned, using the
package's default arguments and no thread settings.  Every outcome is
checked against ``reference.json``.  The last line of standard output
is the JSON result; the line before it records the environment.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` every second deck of requests runs under the layer
tracer; the metrics are per layer, the tracing overhead is the traced
decks' requests per second minus the untraced decks', and the spans
are written to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import check
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

#: at least ten latency samples must lie beyond p90
MIN_REQUESTS = 100
TINY_MIN_REQUESTS = 5
SETUP_REPEATS = 3
#: a request's top-level spans must cover this share of its wall time
MIN_COVERAGE = 0.9


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="cheapest request classes and 5 requests: the "
                         "self-check's smoke run")
    return ap.parse_args(argv)


_IMPORT_PROBE = """import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import halfspace_spectral
print(time.perf_counter() - t0)
"""


def load_package(root):
    """Import halfspace_spectral from ``root/src``.  Refuses to fall back
    on any other installed copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "halfspace_spectral",
                                       "__init__.py")):
        raise SystemExit(f"error: no package source under {src}; run from "
                         "the root of a checkout")
    sys.path.insert(0, src)
    import halfspace_spectral as hs
    if not os.path.abspath(hs.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported {hs.__file__}, not the checkout")
    return hs


def import_seconds(root, repeats):
    """Median cold import time of the package, numpy and scipy included,
    each measured in a fresh interpreter that this call waits for."""
    times = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, os.path.join(root, "src")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment():
    import numpy as np
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    llc = None
    cache = "/sys/devices/system/cpu/cpu0/cache"
    try:
        levels = []
        for idx in os.listdir(cache):
            if idx.startswith("index"):
                with open(os.path.join(cache, idx, "level")) as fh:
                    level = int(fh.read())
                with open(os.path.join(cache, idx, "size")) as fh:
                    levels.append((level, fh.read().strip()))
        llc = max(levels)[1] if levels else None
    except (OSError, ValueError):
        pass
    fft = "numpy.fft (pocketfft)" if hasattr(np.fft, "_pocketfft") \
        else "numpy.fft"
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "llc_size": llc,
            "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "fft_backend": fft}


def _llc_mib(size):
    if not size:
        return None
    units = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}
    return float(size[:-1]) * units[size[-1]] if size[-1] in units \
        else float(size) / 2 ** 20


def notes(env):
    llc = _llc_mib(env["llc_size"])
    need = f"{4 * llc:.0f} MiB" if llc else "four times the LLC"
    return {
        "computed": "fft.flops_computed counts 5 N log2 N per transform of "
                    "N points and fft.bytes_computed the input plus the "
                    "complex128 output; both come from array shapes, not "
                    "from hardware counters",
        "roofline": "no roofline ratio: a bandwidth probe needs arrays of at "
                    f"least four times the last-level cache ({need}), more "
                    "memory than a benchmark on a shared host may take",
        "fail_frac": "fail_frac = failed / attempted in the result line",
        "latency": "latency percentiles are taken over all attempted "
                   "requests, failed ones included; attempted is the sample "
                   "count",
    }


# ---------------------------------------------------------------------------

def set_up(hs, workload, entries):
    """Input generation and warm-up; the bank cache starts empty, so bank
    construction is part of it."""
    hs.get_bank.cache_clear()
    gc.collect()
    t0 = time.perf_counter()
    inputs = workloads.Inputs(hs, workload, entries)
    inputs.warm_up()
    return inputs, time.perf_counter() - t0


def closed_loop(inputs, decks, seconds, min_requests, tracer=None):
    """Issue requests back to back; stop at the first deck boundary after
    ``seconds`` once ``min_requests`` have run.  With a tracer, every
    second deck runs traced, so traced and untraced requests share the
    same mix and the same warm state.  Returns one record per request:
    (entry id, latency s, failure reason or None, name of the exception
    raised or None, traced)."""
    records = []
    gc.collect()
    deadline = time.perf_counter() + seconds
    for index, deck in enumerate(decks):
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            for entry in deck:
                records.append(_one_request(inputs, entry, len(records),
                                            tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        if (time.perf_counter() >= deadline and len(records) >= min_requests
                and (tracer is None or index >= 1)):
            break
    return records


def _one_request(inputs, entry, rid, tracer):
    call = inputs.calls[entry["id"]]
    spec = entry["spec"]
    exc = None
    t0 = time.perf_counter()
    try:
        result = tracer.request(rid, call) if tracer else call()
    except Exception as err:   # an outcome to check, not a crash
        exc = err
    dt = time.perf_counter() - t0
    try:
        if exc is not None:
            got = check.raised(exc)
        else:
            field = inputs.field_of(spec) if spec["kind"] == "op3d" else None
            got = check.summarize(spec, result, field)
        reason = check.compare(entry["expect"], got)
    except Exception as err:
        reason = f"checking the outcome raised {err!r}"
    return (entry["id"], dt, reason,
            type(exc).__name__ if exc is not None else None,
            tracer is not None)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run_benchmark(hs, import_s, name, seed, seconds, trace, tiny, reference):
    """Set up, run and check one workload.  Returns the request records,
    the metrics and the tracer (None in an untraced run)."""
    wl = workloads.WORKLOADS[name]
    entries = reference["workloads"][name]["entries"]
    classes = wl.tiny if tiny else tuple(wl.classes)
    weights = {c: wl.classes[c][0] for c in classes}
    by_class = {c: [e for e in entries if e["class"] == c] for c in classes}
    for c, es in by_class.items():
        if not es:
            raise SystemExit(f"error: reference has no entries of class {c}")
    used = [e for es in by_class.values() for e in es]
    min_requests = TINY_MIN_REQUESTS if tiny else MIN_REQUESTS

    setups = []
    for _ in range(1 if tiny else SETUP_REPEATS):
        inputs, dt = set_up(hs, wl, used)
        setups.append(dt)
    setup_s = import_s + statistics.median(setups)

    def decks():
        return workloads.deck_sequence(by_class, weights, seed)

    if not trace:
        records = closed_loop(inputs, decks(), seconds, min_requests)
        lat = [r[1] for r in records]
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        metrics = {
            "requests_per_s": _metric(len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": _metric(deciles[4] * 1e3, "ms"),
            "latency_p90_ms": _metric(deciles[8] * 1e3, "ms"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        }
        return records, metrics, None

    info0 = hs.get_bank.cache_info()
    tr = tracing.Tracer()
    records = closed_loop(inputs, decks(), seconds, min_requests, tr)
    info1 = hs.get_bank.cache_info()

    calls, self_s = tr.layer_totals()
    metrics = {}
    for span in tracing.LAYER_SPANS:
        metrics[f"{span}.calls"] = _metric(calls.get(span, 0), "count")
        metrics[f"{span}.self_s"] = _metric(self_s.get(span, 0.0), "s")
    metrics["spectral.bank_phi.points"] = _metric(
        int(tr.counters["spectral.bank_phi.points"]), "count")
    metrics["fft.points"] = _metric(int(tr.counters["fft.points"]), "count")
    metrics["fft.flops_computed"] = _metric(
        tr.counters["fft.flops_computed"], "flop")
    metrics["fft.bytes_computed"] = _metric(
        int(tr.counters["fft.bytes_computed"]), "B")
    hits = info1.hits - info0.hits
    lookups = hits + info1.misses - info0.misses
    metrics["experiments.get_bank.hit_ratio"] = _metric(
        hits / lookups if lookups else 0.0, "ratio")
    metrics["experiments.get_bank.lookups"] = _metric(lookups, "count")
    by_id = {e["id"]: e for e in used}
    metrics["norms.guard_trips"] = _metric(
        sum(1 for r in records if r[3] == "NumericalGuardError"), "count")
    metrics["norms.guard_trips_pinned"] = _metric(
        sum(1 for r in records if "raises" in by_id[r[0]]["expect"]), "count")
    plain = [r[1] for r in records if not r[4]]
    traced = [r[1] for r in records if r[4]]
    metrics["trace.overhead_rps"] = _metric(
        len(traced) / sum(traced) - len(plain) / sum(plain), "1/s")
    cover = tr.coverage()
    metrics["trace.coverage_min"] = _metric(min(cover), "ratio")
    metrics["trace.spans"] = _metric(len(tr.spans), "count")
    return records, metrics, tr


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    hs = load_package(root)
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; have "
                         f"{', '.join(workloads.WORKLOADS)}")
    try:
        with open(REFERENCE) as fh:
            reference = json.load(fh)
    except OSError as exc:
        raise SystemExit(f"error: cannot read the pinned reference: {exc}")

    env = environment()
    # set-up time is an end-to-end metric; the traced run does not report it
    import_s = 0.0 if args.trace else import_seconds(
        root, 1 if args.tiny else SETUP_REPEATS)
    records, metrics, tr = run_benchmark(
        hs, import_s, args.workload, args.seed, args.seconds, args.trace,
        args.tiny, reference)
    failures = [r for r in records if r[2] is not None]
    for rid, _, reason, _, _ in failures[:20]:
        print(f"FAIL {rid}: {reason}", file=sys.stderr)
    correct = not failures
    if tr is not None:
        low = metrics["trace.coverage_min"]["value"]
        if low < MIN_COVERAGE:
            print(f"FAIL top-level spans cover only {low:.3f} of a request",
                  file=sys.stderr)
            correct = False
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir,
                            f"trace-{args.workload}-seed{args.seed}.jsonl")
        tr.write(path, {"workload": args.workload, "seed": args.seed,
                        "environment": env})
        print(f"# spans written to {path}", file=sys.stderr)

    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(records)} requests, {len(failures)} failed, fail_frac="
          f"{len(failures) / len(records):.6g}", file=sys.stderr)
    for key, m in metrics.items():
        print(f"#   {key} = {m['value']!r} {m['unit']}", file=sys.stderr)
    print(json.dumps({"environment": env, "notes": notes(env)},
                     sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
