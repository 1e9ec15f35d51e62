"""Outcome summaries and their comparison with the pinned reference.

An outcome is a small JSON-able dict: the verdict and maximum ratio of
a sweep, norm values and route ratios, checksums of an operator's
output, or the name of the exception a request raised.  Verdicts and
exception names compare exactly, values to a relative 1e-9, and
eigenmode probes must reproduce k^s to a relative 1e-10.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

VALUE_RTOL = 1e-9
EIGEN_TOL = 1e-10


@lru_cache(maxsize=8)
def _checksum_weights(size):
    """Fixed weights bounded by 1, so a weighted sum moves by at most
    sum|delta v| and can be checked against 1e-9 * sum|v|."""
    return np.cos(0.6180339887 * np.arange(size))


def checksum(values):
    v = np.ravel(values)
    return [float(np.sum(np.abs(v))), float(np.sqrt(np.sum(v * v))),
            float(np.dot(v, _checksum_weights(v.size)))]


def summarize(spec, result, field=None):
    """Outcome of a request that returned ``result``."""
    kind = spec["kind"]
    if kind == "sweep":
        return {"verdict": result.verdict,
                "max_ratio": float(result.meta["max_ratio"])}
    if kind == "besov":
        route = spec["route"]
        if route == "dyadic":
            return {"value": float(result["value"])}
        if route == "semigroup":
            return {"value": float(result)}
        return {"half": float(result["half_norm"]),
                "full": float(result["full_norm"]),
                "ratio": float(result["ratio"])}
    if spec["op"] == "sobolev":
        return {"value": float(result)}
    if spec["op"] == "eigen":
        # Rayleigh quotient, plus the pointwise residual against the
        # exact k^s of the sampled mode
        k = np.pi * spec["field"]["m"] / field.grid.L
        lam = k ** spec["s"]
        f, out = field.values, result.values
        resid = np.max(np.abs(out - lam * f)) / (lam * np.max(np.abs(f)))
        return {"eigenvalue": float(np.sum(out * f) / np.sum(f * f)),
                "eigen_err": float(resid), "bc": result.bc}
    return {"checksum": checksum(result.values), "bc": result.bc}


def raised(exc):
    return {"raises": type(exc).__name__}


def _close(a, b, rtol=VALUE_RTOL):
    if a == b:
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(expect, got):
    """None when ``got`` matches the pinned ``expect``, else a reason."""
    if "raises" in expect or "raises" in got:
        if expect.get("raises") != got.get("raises"):
            return (f"expected {expect.get('raises') or 'a result'}, "
                    f"got {got.get('raises') or 'a result'}")
        return None
    if "verdict" in expect and expect["verdict"] != got["verdict"]:
        return f"verdict {got['verdict']} != pinned {expect['verdict']}"
    if "bc" in expect and expect["bc"] != got["bc"]:
        return f"boundary tag {got['bc']} != pinned {expect['bc']}"
    if "eigenvalue" in expect:
        lam = expect["eigenvalue"]
        if not (abs(got["eigenvalue"] - lam) <= EIGEN_TOL * lam
                and got["eigen_err"] <= EIGEN_TOL):
            return (f"eigenmode gives {got['eigenvalue']!r} (pointwise "
                    f"residual {got['eigen_err']:.3e}), k^s = {lam!r}")
        return None
    if "checksum" in expect:
        (r1, r2, r3), (g1, g2, g3) = expect["checksum"], got["checksum"]
        if not (_close(r1, g1) and _close(r2, g2)
                and abs(r3 - g3) <= VALUE_RTOL * r1):
            return f"checksum {got['checksum']} != pinned {expect['checksum']}"
        return None
    for key in ("max_ratio", "value", "half", "full", "ratio"):
        if key in expect and not _close(expect[key], got[key]):
            return f"{key} {got[key]!r} != pinned {expect[key]!r}"
    if "route_ratio" in expect:
        ratio = got["value"] / expect["dyadic_value"]
        if not _close(ratio, expect["route_ratio"]):
            return f"route ratio {ratio!r} != pinned {expect['route_ratio']!r}"
    return None
