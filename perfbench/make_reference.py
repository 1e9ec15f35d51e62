"""Draw the request catalogue and pin every outcome in reference.json.

Run from the root of a checkout, with the package source whose
behaviour the benchmark must preserve:

    python3 perfbench/make_reference.py            # refuses to overwrite
    python3 perfbench/make_reference.py --force    # replaces the reference

Each class of each workload gets its catalogue entries drawn from
``workloads.CATALOGUE_SEED``.  A sweep is kept only when its verdict
survives relative perturbations of 1e-8 in the per-resolution maxima,
so an exact verdict comparison never hinges on digits the 1e-9 value
tolerance allows to move.  The script also asserts the paper's pinned
verdicts: ``diverging`` at s = 2 + 1/p, p = 2, for the Dirichlet
counterexample and boundary_adversarial bilinear sweeps, and a
NumericalGuardError from every out-of-band probe.  At p = 3 the
coarsest rung of these ladders still sits before the asymptotic climb,
so the critical-order verdict there is pinned as the package reports
it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

PERTURBATIONS = 16
PERTURBATION = 1e-8


def source_digest(root):
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "halfspace_spectral")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def verdict_is_stable(hs, report, rng):
    res = [e["N"] for e in report.per_resolution]
    maxima = [e["max_ratio"] for e in report.per_resolution]
    if not all(m == m and m > 0 for m in maxima):
        return False
    for _ in range(PERTURBATIONS):
        bumped = [m * (1.0 + PERTURBATION * rng.uniform(-1.0, 1.0))
                  for m in maxima]
        if hs.classify_growth(res, bumped)[0] != report.verdict:
            return False
    return True


def pin(hs, inputs, spec, rng):
    """Outcome to pin for ``spec``, or None when the draw is unusable."""
    call = inputs.prepare(spec)
    try:
        result = call()
    except hs.NumericalGuardError as exc:
        if spec.get("field", {}).get("alias"):
            return check.raised(exc)
        raise
    if spec.get("field", {}).get("alias"):
        raise SystemExit(f"out-of-band probe did not raise: {spec}")
    field = inputs.field_of(spec) if spec["kind"] == "op3d" else None
    got = check.summarize(spec, result, field)

    if spec["kind"] == "sweep":
        if not verdict_is_stable(hs, result, rng):
            return None
        critical = spec["p"] == 2.0 and spec["s"] == 2.5
        if (critical and spec["arity"] == 2 and spec["op"] == "dirichlet"
                and spec["family"] in ("counterexample",
                                       "boundary_adversarial")
                and got["verdict"] != "diverging"):
            raise SystemExit(f"critical-order sweep reads "
                             f"{got['verdict']}, not diverging: {spec}")
    elif spec["kind"] == "besov" and spec["route"] == "semigroup":
        bspec = hs.SpaceSpec("besov", spec["s"],
                             workloads.decode_exp(spec["p"]),
                             workloads.decode_exp(spec["q"]),
                             spec["homogeneous"], inputs.field_of(spec).bc)
        dyadic = hs.besov_norm(inputs.field_of(spec), bspec,
                               hs.get_bank(inputs.grids[spec["N"]]))
        got["dyadic_value"] = dyadic
        got["route_ratio"] = got["value"] / dyadic
    elif spec.get("op") == "eigen":
        k = np.pi * spec["field"]["m"] / inputs.grids[spec["N"]].L
        exact = {"eigenvalue": k ** spec["s"], "bc": got["bc"]}
        if check.compare(exact, got) is not None:
            raise SystemExit(f"eigenmode probe misses k^s: {got} {spec}")
        got = exact
    return got


def build(hs, root):
    out = {
        "meta": {
            "package_version": hs.__version__,
            "source_sha256": source_digest(root),
            "python": platform.python_version(),
            "catalogue_seed": workloads.CATALOGUE_SEED,
            "tolerances": {"value_rtol": check.VALUE_RTOL,
                           "eigen_tol": check.EIGEN_TOL},
        },
        "workloads": {},
    }
    out["meta"].update({k: v for k, v in run.environment().items()
                        if k in ("numpy", "scipy", "fft_backend")})
    for w_index, (name, wl) in enumerate(workloads.WORKLOADS.items()):
        t0 = time.perf_counter()
        rng = np.random.default_rng(
            [workloads.CATALOGUE_SEED, w_index])
        inputs = workloads.Inputs(hs, wl, [])
        entries, rejected = [], 0
        for cls, (_, size, draw) in wl.classes.items():
            kept = 0
            while kept < size:
                spec = draw(rng)
                expect = pin(hs, inputs, spec, rng)
                if expect is None:
                    rejected += 1
                    if rejected > 10 * sum(c[1] for c in wl.classes.values()):
                        raise SystemExit(f"{name}: too many unstable draws")
                    continue
                entries.append({"id": f"{cls}-{kept:03d}", "class": cls,
                                "spec": spec, "expect": expect})
                kept += 1
        out["workloads"][name] = {"entries": entries,
                                  "rejected_unstable": rejected}
        print(f"# {name}: {len(entries)} entries, {rejected} unstable draws "
              f"rejected, {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--force", action="store_true",
                    help="overwrite an existing reference")
    args = ap.parse_args(argv)
    if os.path.exists(run.REFERENCE) and not args.force:
        raise SystemExit(f"error: {run.REFERENCE} exists; it pins the "
                         "behaviour of the commit that made it.  Pass "
                         "--force to replace it.")
    root = os.getcwd()
    hs = run.load_package(root)
    ref = build(hs, root)
    tmp = run.REFERENCE + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"),
                  allow_nan=False)
        fh.write("\n")
    os.replace(tmp, run.REFERENCE)
    print(f"# wrote {run.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
