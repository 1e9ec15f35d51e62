"""The three benchmark workloads: request classes, the pinned request
catalogue, the seeded request order, and the inputs requests run on.

Every request is one top-level public call into ``halfspace_spectral``:
one ``ratio_sweep``, one norm evaluation or one operator application.
Requests come from a fixed catalogue whose outcomes are pinned in
``reference.json``; the benchmark's ``--seed`` only chooses which
catalogue entries run and in what order.  That is what lets a pinned
reference check a run made with any seed.

Requests are grouped into classes of similar cost.  A run is a sequence
of decks, each holding a fixed number of requests of every class in a
seeded shuffle, and the closed loop stops only at a deck boundary, so
every run executes the same mix of work whatever the seed.
"""

from __future__ import annotations

import math

import numpy as np

INF = float("inf")

#: draws the catalogue; changing it means regenerating the reference
CATALOGUE_SEED = 19050285

LADDER_LO = (8192, 16384, 32768)
LADDER_HI = (16384, 32768, 65536)
LADDER_4 = (8192, 16384, 32768, 65536)
LADDER_CEX = (8192, 16384, 32768, 65536, 131072)

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def encode_exp(p: float):
    """JSON has no infinity; exponents travel as numbers or "inf"."""
    return "inf" if math.isinf(p) else p


def decode_exp(p) -> float:
    return INF if p == "inf" else float(p)


# ---------------------------------------------------------------------------
# catalogue entries: plain dicts, so they round-trip through JSON

def _critical_or_uniform(rng, p, critical_share, lo=0.5, hi=3.0):
    if rng.random() < critical_share:
        return 2.0 + 1.0 / p
    return float(rng.uniform(lo, hi))


def _sweep_class(family, arity, count, ladder, ops, critical_share):
    def draw(rng):
        p = float(rng.choice([2.0, 3.0]))
        fam = family if isinstance(family, str) else str(rng.choice(family))
        return {
            "kind": "sweep", "arity": arity, "family": fam,
            "op": str(rng.choice(ops)),
            "s": _critical_or_uniform(rng, p, critical_share),
            "p": p, "count": count, "seed": int(rng.integers(0, 1000)),
            "resolutions": list(ladder),
        }
    return draw


def _besov_params(rng):
    return {
        "s": float(rng.uniform(-0.5, 2.5)),
        "p": encode_exp(float(rng.choice([1.0, 2.0, INF]))),
        "q": encode_exp(float(rng.choice([1.0, 2.0, INF]))),
        "homogeneous": bool(rng.random() < 0.5),
    }


BESOV_FIELD_SEEDS = (0, 1, 2)


def _besov_class(route, N, probe=False):
    def draw(rng):
        spec = {"kind": "besov", "route": route, "N": N,
                **_besov_params(rng)}
        if probe:
            spec["field"] = {"alias": True}
        else:
            spec["field"] = {"family": "band_random",
                             "op": str(rng.choice([DIRICHLET, NEUMANN])),
                             "seed": int(rng.choice(BESOV_FIELD_SEEDS))}
        return spec
    return draw


#: pool of 3-D inputs per grid: (family, op, seed)
OP3D_FIELDS = (("bump_random", DIRICHLET, 0), ("bump_random", NEUMANN, 0),
               ("boundary_adversarial", DIRICHLET, 1),
               ("counterexample", DIRICHLET, 0),
               ("counterexample", NEUMANN, 0))
OP3D_OPS = ("frac_power", "semigroup", "normal_derivative",
            "tangential_derivative", "sobolev")


def eigen_modes(N):
    """Mode numbers of the sine/cosine probes on an N-point 3-D grid."""
    return (1, N // 8)


def _op3d_class(N, eigen_share=0.125):
    def draw(rng):
        if rng.random() < eigen_share:
            parity = str(rng.choice(["sine", "cosine"]))
            lo = -1.5 if parity == "sine" else 0.1
            return {"kind": "op3d", "op": "eigen", "N": N,
                    "field": {"eigen": parity,
                              "m": int(rng.choice(eigen_modes(N)))},
                    "s": float(rng.uniform(lo, 3.0))}
        fam, op, seed = OP3D_FIELDS[int(rng.integers(len(OP3D_FIELDS)))]
        spec = {"kind": "op3d", "op": str(rng.choice(OP3D_OPS)), "N": N,
                "field": {"family": fam, "op": op, "seed": seed}}
        if spec["op"] == "frac_power":
            # negative orders need the zero-mean odd extension
            spec["s"] = float(rng.uniform(-1.5 if op == DIRICHLET else 0.1,
                                          3.0))
        elif spec["op"] == "semigroup":
            spec["t"] = float(np.exp(rng.uniform(np.log(1e-3), 0.0)))
            spec["s"] = float(rng.uniform(0.2, 2.0))
        elif spec["op"] == "tangential_derivative":
            spec["k"] = int(rng.choice([1, 2]))
        elif spec["op"] == "sobolev":
            spec["s"] = float(rng.uniform(-1.0, 3.0))
            spec["p"] = float(rng.choice([2.0, 3.0]))
        return spec
    return draw


class Workload:
    """Request classes with their deck weights and catalogue sizes.

    ``classes`` maps a class name to (deck weight, catalogue entries,
    draw function).  ``tiny`` lists the classes of the self-check run.
    ``warm_up(inputs, N, grid)`` makes the first call on one grid.
    """

    def __init__(self, name, n, L, grids, classes, tiny, warm_up):
        self.name = name
        self.n = n
        self.L = L
        self.grids = grids
        self.classes = classes
        self.tiny = tiny
        self.warm_up = warm_up


def _warm_sweep(inputs, N, grid):
    hs = inputs.hs
    for op in (DIRICHLET, NEUMANN):
        f = hs.make_family("bump_random", grid, op, 0, 1)[0]
        hs.sobolev_norm(f, hs.SpaceSpec("sobolev", 1.0, 2.0, None, True, op))


def _warm_besov(inputs, N, grid):
    hs = inputs.hs
    f = inputs.field(N, ("family", "band_random", DIRICHLET, 0))
    hs.besov_norm_report(
        f, hs.SpaceSpec("besov", 1.0, 2.0, 2.0, True, DIRICHLET),
        hs.get_bank(grid))


def _warm_op3d(inputs, N, grid):
    f = inputs.field(N, ("family", "bump_random", DIRICHLET, 0))
    inputs.hs.frac_power(f, DIRICHLET, 1.0)


WORKLOADS = {
    # The paper's main experiment.  Every field lives on one of five 1-D
    # grids, so per-call overhead, symbol rebuilds, lp_norm and family
    # sampling dominate and no bank is ever built.
    "sweep_ladder_1d": Workload(
        "sweep_ladder_1d", 1, 16.0, LADDER_CEX, {
            "bump_lo": (3, 80, _sweep_class(
                "bump_random", 2, 2, LADDER_LO, (DIRICHLET, NEUMANN), 0.2)),
            "band_lo": (5, 120, _sweep_class(
                "band_random", 2, 2, LADDER_LO, (DIRICHLET, NEUMANN), 0.2)),
            "bump_hi": (1, 40, _sweep_class(
                "bump_random", 2, 1, LADDER_HI, (DIRICHLET, NEUMANN), 0.2)),
            "band_4": (2, 40, _sweep_class(
                "band_random", 2, 1, LADDER_4, (DIRICHLET, NEUMANN), 0.2)),
            "adversarial": (2, 40, _sweep_class(
                "boundary_adversarial", 2, 1, LADDER_4, (DIRICHLET,), 0.5)),
            "counterexample": (3, 48, _sweep_class(
                "counterexample", 2, 1, LADDER_CEX, (DIRICHLET, NEUMANN),
                0.5)),
            "tri_band": (1, 40, _sweep_class(
                "band_random", 3, 1, LADDER_LO, (DIRICHLET, NEUMANN), 0.2)),
            "tri_boundary": (2, 40, _sweep_class(
                ("counterexample", "boundary_adversarial"), 3, 1, LADDER_4,
                (DIRICHLET,), 0.5)),
        }, tiny=("bump_lo",), warm_up=_warm_sweep),
    # Dyadic-bank Besov norms: per-octave inverse FFTs and the spline
    # evaluation of DyadicBank.phi dominate; after warm-up every get_bank
    # call hits the cache.  frac_power and the families layer stay idle.
    "besov_bank_2d": Workload(
        "besov_bank_2d", 2, 16.0, (256, 512, 1024), {
            "dyadic_256": (16, 160, _besov_class("dyadic", 256)),
            "dyadic_512": (4, 48, _besov_class("dyadic", 512)),
            "dyadic_1024": (1, 16, _besov_class("dyadic", 1024)),
            "semigroup_256": (2, 32, _besov_class("semigroup", 256)),
            "extension_256": (2, 32, _besov_class("extension", 256)),
            "probe_256": (1, 12, _besov_class("dyadic", 256, probe=True)),
            "probe_512": (1, 12, _besov_class("extension", 512, probe=True)),
        }, tiny=("dyadic_256", "probe_256"), warm_up=_warm_besov),
    # Single operator applications on 3-D fields of 0.5 MB to 32 MB: no
    # bank, no sweep logic, no repeated order s, so extension,
    # apply_multiplier and the FFT carry the work.
    "operator_stream_3d": Workload(
        "operator_stream_3d", 3, 8.0, (32, 64, 128), {
            "n32": (10, 400, _op3d_class(32)),
            "n64": (3, 200, _op3d_class(64)),
            "n128": (3, 60, _op3d_class(128)),
        }, tiny=("n32",), warm_up=_warm_op3d),
}


# ---------------------------------------------------------------------------
# the seeded request order

def deck_sequence(entries_by_class, weights, seed):
    """Endless list of decks; each deck holds ``weights[c]`` entries of
    class ``c`` in a seeded shuffle.  Within a class the entries are
    drawn without replacement until the class is exhausted."""
    rng = np.random.default_rng(seed)
    queues = {c: [] for c in weights}

    def take(c):
        if not queues[c]:
            queues[c] = list(rng.permutation(len(entries_by_class[c])))
        return entries_by_class[c][int(queues[c].pop())]

    while True:
        deck = [take(c) for c in sorted(weights) for _ in range(weights[c])]
        order = rng.permutation(len(deck))
        yield [deck[i] for i in order]


# ---------------------------------------------------------------------------
# inputs: grids, field pools and the callables that run one request

class Inputs:
    """Everything a workload's requests need, built during set-up.

    ``calls[entry id]`` is a zero-argument callable that makes exactly
    the request's public call; ``field_of(spec)`` gives the input field
    for checks that need it.
    """

    def __init__(self, hs, workload, entries):
        self.hs = hs
        self.workload = workload
        self.grids = {N: hs.make_grid(workload.n, workload.L, N)
                      for N in workload.grids}
        self.fields = {}
        self.calls = {}
        for e in entries:
            self.calls[e["id"]] = self.prepare(e["spec"])

    def field(self, N, key):
        """Pool lookup; fields are sampled once per (grid, key)."""
        if (N, key) not in self.fields:
            self.fields[N, key] = self._sample(N, key)
        return self.fields[N, key]

    def _sample(self, N, key):
        hs, grid = self.hs, self.grids[N]
        kind = key[0]
        if kind == "alias":
            # the selftest's out-of-band mode: two cells below Nyquist
            return hs.sample_half(
                grid, lambda *c: np.sin(np.pi * (N - 2) / 2 * c[-1] / grid.L),
                bc=hs.BC_DIRICHLET)
        if kind == "eigen":
            _, parity, m = key
            k = np.pi * m / grid.L
            if parity == "sine":
                return hs.sample_half(grid, lambda *c: np.sin(k * c[-1]),
                                      bc=hs.BC_DIRICHLET)
            return hs.sample_half(grid, lambda *c: np.cos(k * c[-1]),
                                  bc=hs.BC_NEUMANN)
        _, family, op, seed = key
        return hs.make_family(family, grid, op, seed, 1)[0]

    @staticmethod
    def field_key(spec):
        f = spec.get("field")
        if f is None:
            return None
        if f.get("alias"):
            return ("alias",)
        if "eigen" in f:
            return ("eigen", f["eigen"], f["m"])
        return ("family", f["family"], f["op"], f["seed"])

    def field_of(self, spec):
        return self.field(spec["N"], self.field_key(spec))

    def prepare(self, spec):
        hs = self.hs
        kind = spec["kind"]
        if kind == "sweep":
            p = spec["p"]
            common = dict(s=spec["s"], p=p, op=spec["op"],
                          family=spec["family"], count=spec["count"],
                          seed=spec["seed"],
                          resolutions=tuple(spec["resolutions"]),
                          L=self.workload.L)
            if spec["arity"] == 2:
                cfg = hs.BilinearConfig(p1=p, p2=INF, p3=INF, p4=p, **common)
            else:
                cfg = hs.TrilinearConfig(
                    exponents=((p, INF, INF), (INF, p, INF), (INF, INF, p)),
                    **common)
            return lambda: hs.ratio_sweep(cfg)

        grid = self.grids[spec["N"]]
        f = self.field_of(spec)
        if kind == "besov":
            op = f.bc
            bspec = hs.SpaceSpec("besov", spec["s"], decode_exp(spec["p"]),
                                 decode_exp(spec["q"]), spec["homogeneous"],
                                 op)
            route = spec["route"]
            if route == "dyadic":
                return lambda: hs.besov_norm_report(f, bspec,
                                                    hs.get_bank(grid))
            if route == "semigroup":
                return lambda: hs.besov_norm_semigroup(
                    f, bspec, bank=hs.get_bank(grid))
            return lambda: hs.extension_norm_equivalence(
                f, bspec, hs.get_bank(grid))

        op = spec["op"]
        if op in ("eigen", "frac_power"):
            return lambda: hs.frac_power(f, f.bc, spec["s"])
        if op == "semigroup":
            return lambda: hs.semigroup(f, f.bc, spec["t"], spec["s"])
        if op == "normal_derivative":
            return lambda: hs.normal_derivative(f)
        if op == "tangential_derivative":
            return lambda: hs.tangential_derivative(f, spec["k"])
        sspec = hs.SpaceSpec("sobolev", spec["s"], spec["p"], None, False,
                             f.bc)
        return lambda: hs.sobolev_norm(f, sspec)

    def warm_up(self):
        """First call on every distinct grid, bank construction included."""
        for N, grid in self.grids.items():
            self.workload.warm_up(self, N, grid)
