"""The command line's output against a pinned copy.

``tests/data/cli_golden.json`` holds, for each quick command below, its
arguments, its INI text if any, its exit code and the JSON it printed.
Keys, strings, types and verdicts must match exactly, and numbers to a
relative 1e-9.  Every pinned sweep's verdict survives relative
perturbations of 1e-8 in its per-resolution maxima, so an exact verdict
comparison never hinges on digits that tolerance lets move.

After a deliberate change of output, regenerate the file from the root
of a checkout with

    PYTHONPATH=src python tests/test_cli_golden.py

and list every changed entry, with its reason, in CHANGES.md.
"""

import contextlib
import functools
import io
import json
import math
import os
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from halfspace_spectral import classify_growth
from halfspace_spectral.cli import _ENV_SEED, main

GOLDEN = pathlib.Path(__file__).with_name("data") / "cli_golden.json"
RTOL = 1e-9
PERTURBATIONS = 16
PERTURBATION = 1e-8

_INI = ("[bilinear]\ns = 1.5\np = 2\nfamily = bump_random\ncount = 3\n"
        "resolutions = 1024,2048,4096\nL = 12\n")

# name -> (arguments, INI text or None); each runs in well under 0.1 s
COMMANDS = {
    "bilinear": (["bilinear", "--s", "1.0"], None),
    "bilinear_neumann_band_p3": (
        ["bilinear", "--s", "1.0", "--p", "3", "--op", "neumann",
         "--family", "band_random"], None),
    "bilinear_explicit_exponents": (
        ["bilinear", "--s", "1.0", "--p", "2", "--p1", "4", "--p2", "4",
         "--p3", "inf", "--p4", "2"], None),
    "bilinear_ini": (["bilinear"], _INI),
    "bilinear_adversarial_critical": (
        ["bilinear", "--s", "2.5", "--family", "boundary_adversarial",
         "--count", "3"], None),
    "trilinear": (["trilinear", "--s", "1.0"], None),
    "trilinear_counterexample": (
        ["trilinear", "--s", "2.5", "--family", "counterexample"], None),
    "trilinear_besov_inhomogeneous": (
        ["trilinear", "--s", "1.0", "--kind", "besov", "--q", "2",
         "--inhomogeneous", "--family", "band_random", "--count", "2"],
        None),
    "counterexample_quick": (["counterexample", "--quick"], None),
    "partial_exponents": (["bilinear", "--s", "1.0", "--p1", "4"], None),
    "unknown_family": (["bilinear", "--s", "1.0", "--family", "perlin"],
                       None),
    "rung_not_a_power_of_two": (
        ["bilinear", "--s", "1.0", "--resolutions", "1000,2048"], None),
}


def _run(args, ini, tmp):
    """(exit code, parsed stdout or None) of one command."""
    if ini is not None:
        path = pathlib.Path(tmp) / "run.ini"
        path.write_text(ini)
        args = args + ["--config", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(args))
    return rc, json.loads(out.getvalue()) if out.getvalue() else None


def _sweeps(doc):
    """Every sweep report inside a payload."""
    if isinstance(doc, dict):
        if "verdict" in doc and "per_resolution" in doc:
            yield doc
        for v in doc.values():
            yield from _sweeps(v)


def _verdict_is_stable(report, rng):
    res = [e["N"] for e in report["per_resolution"]]
    maxima = [e["max_ratio"] for e in report["per_resolution"]]
    if not all(isinstance(m, float) and m > 0 for m in maxima):
        return False
    return all(
        classify_growth(res, [m * (1.0 + PERTURBATION * rng.uniform(-1, 1))
                              for m in maxima])[0] == report["verdict"]
        for _ in range(PERTURBATIONS))


def _mismatch(want, got, where="$"):
    """None when ``got`` matches the pinned ``want``, else where and how
    they first differ."""
    if type(want) is not type(got):
        return f"{where}: {got!r} is not a {type(want).__name__}"
    if isinstance(want, dict):
        if set(want) != set(got):
            return f"{where}: keys {sorted(got)} != {sorted(want)}"
        pairs = [(want[k], got[k], f"{where}.{k}") for k in sorted(want)]
    elif isinstance(want, list):
        if len(want) != len(got):
            return f"{where}: length {len(got)} != {len(want)}"
        pairs = [(w, g, f"{where}[{i}]")
                 for i, (w, g) in enumerate(zip(want, got))]
    elif isinstance(want, float):
        close = math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
        return None if close else f"{where}: {got!r} != {want!r}"
    else:
        return None if got == want else f"{where}: {got!r} != {want!r}"
    return next((m for m in (_mismatch(*p) for p in pairs) if m), None)


def regenerate():
    os.environ.pop(_ENV_SEED, None)
    rng = np.random.default_rng(0)
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (args, ini) in COMMANDS.items():
            rc, doc = _run(args, ini, tmp)
            unstable = [r["verdict"] for r in _sweeps(doc)
                        if not _verdict_is_stable(r, rng)]
            if unstable:
                raise SystemExit(f"{name}: verdict {unstable} moves under "
                                 "a 1e-8 perturbation; pin another command")
            golden[name] = {"args": args, "ini": ini, "exit": rc,
                            "json": doc}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)


@functools.lru_cache(maxsize=1)
def _pinned():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_the_golden_copy(name, tmp_path, monkeypatch):
    monkeypatch.delenv(_ENV_SEED, raising=False)
    args, ini = COMMANDS[name]
    pinned = _pinned()[name]
    assert (pinned["args"], pinned["ini"]) == (args, ini), \
        "the command changed; regenerate the golden copy"
    rc, doc = _run(args, ini, tmp_path)
    assert rc == pinned["exit"]
    assert (diff := _mismatch(pinned["json"], doc)) is None, diff


if __name__ == "__main__":
    regenerate()
