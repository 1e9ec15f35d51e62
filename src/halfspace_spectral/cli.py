"""Command line front end.

JSON goes to stdout (or --out FILE) and is byte-identical across runs
of the same configuration: keys are sorted, arrays are emitted in a
fixed order, and timing information never enters the payload.  Humans
get progress and wall time on stderr.

Each subcommand's options live in one table of name -> (cast,
default).  The table drives the argparse flags (``--name``), the INI
merge (key ``name``) and, for the sweeps, the config fields of the same
name.

Exit codes: 0 success, 2 configuration error, 3 numerical guard
tripped (aliasing, band leakage, unresolved singularity).
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalGuardError
from .experiments import (BilinearConfig, TrilinearConfig, besov_block_floor,
                          get_bank, ratio_sweep, singularity_profile,
                          wall_rate)
from .extension import odd_extend, restrict
from .families import counterexample_expr, make_family
from .grid import (BC_DIRICHLET, HalfField, load_field, lp_norm, make_grid,
                   sample, sample_half, save_field)
from .halfspace_ops import OP_DIRICHLET, OP_NEUMANN, frac_power
from .norms import (SpaceSpec, besov_norm_report, besov_norm_semigroup,
                    sobolev_norm)
from .spectral import build_bank, fractional_laplacian, \
    singular_integral_frac_lap

_ENV_SEED = "HALFSPACE_SPECTRAL_SEED"


def _rung(token):
    """An integer token as int, any other number as a float for GridSpec."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def _res_list(text):
    return tuple(_rung(t) for t in str(text).split(",") if t.strip())


def _bool(text):
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"not a boolean: {text!r}")


def _triples(text):
    """Exponent tuples as 'p1,p2,p3;p4,p5,p6;p7,p8,p9'; the config
    checks how many there are."""
    return tuple(tuple(float(v) for v in g.split(","))
                 for g in str(text).split(";"))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if np.isnan(x):
            return "nan"
        if np.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _emit(payload, out_path):
    text = json.dumps(_jsonable(payload), sort_keys=True, indent=2)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path!r}: "
                              f"{exc.strerror or exc}") from exc
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        sys.stdout.write(text + "\n")


def _say(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# config file merging: CLI flag > [command] section > [DEFAULT] > built-in

def _load_ini(path):
    cp = configparser.ConfigParser()
    # keys are case sensitive: N is the resolution, n the dimension
    cp.optionxform = str
    try:
        found = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from exc
    if not found:
        raise ConfigError(f"cannot read config file {path!r}")
    return cp


def _resolve(ns):
    section = ns.command
    cp = _load_ini(ns.config) if ns.config else None
    out = {}
    for name, (cast, default) in _SUBCOMMANDS[section][0].items():
        v = getattr(ns, name)
        if v is None and cp is not None:
            where = next((sec for sec in (section, "DEFAULT")
                          if cp.has_option(sec, name)), None)
            if where is not None:
                raw = cp.get(where, name)
                try:
                    v = cast(raw)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(
                        f"[{where}] {name} = {raw!r}: {exc}") from exc
        if v is None:
            v = default
        out[name] = v
    out["seed"] = _seed_of(ns, out)
    return out


def _seed_of(ns, opts):
    """The seed from the flag, else the environment, else the config
    file or the default; refused when negative, whether or not the
    field draws from it."""
    seed = ns.seed
    env = os.environ.get(_ENV_SEED)
    if seed is None and env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ConfigError(f"{_ENV_SEED}={env!r} is not an integer")
    if seed is None:
        seed = opts["seed"]
    if seed < 0:
        raise ConfigError(f"seed {seed} must be >= 0")
    return seed


# ---------------------------------------------------------------------------
# norm

_NORM_SPECS = {
    "field": (str, "xphi"),
    "kind": (str, "sobolev"),
    "s": (float, 1.0),
    "p": (float, 2.0),
    "q": (float, None),
    "op": (str, OP_DIRICHLET),
    "inhomogeneous": (_bool, False),
    "semigroup": (_bool, False),
    "N": (int, 4096),
    "L": (float, 16.0),
    "n": (int, 1),
    "seed": (int, 0),
}


def _field_option(kwargs, name, key, cast, default):
    """Pop and cast one inline field option; a failed cast names it."""
    raw = kwargs.pop(key, None)
    try:
        return default if raw is None else cast(raw)
    except ValueError as exc:
        raise ConfigError(f"field {name}: option {key}={raw!r}: {exc}") \
            from exc


def _build_field(spec_text, grid, op, seed):
    name, _, rest = str(spec_text).partition(":")
    kwargs = {}
    if rest and name != "file":
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise ConfigError(f"malformed field option {item!r}")
            kwargs[k.strip()] = v.strip()
    if name == "file":
        obj = load_field(rest)
        if not isinstance(obj, HalfField):
            raise ConfigError(
                f"{rest!r} holds a full-box field; norms take half-space "
                "samples")
        if obj.grid != grid:
            raise ConfigError(
                f"{rest!r} was sampled on n={obj.grid.n} N={obj.grid.N} "
                f"L={obj.grid.L}, not the requested grid")
        return obj
    if grid.n != 1:
        raise ConfigError("inline field specs are 1-D; use file:PATH")
    if name in ("sine", "cosine"):
        k = _field_option(kwargs, name, "k", int, 1)
        if kwargs:
            raise ConfigError(f"unknown options {sorted(kwargs)}")
        if k < 1:
            raise ConfigError("mode number k must be >= 1")
        fun = np.sin if name == "sine" else np.cos
        kappa = np.pi * k / grid.L
        return sample_half(grid, lambda x: fun(kappa * x), bc=op)
    if name == "bump":
        from .families import bump
        center = _field_option(kwargs, name, "center", float, grid.L / 4)
        width = _field_option(kwargs, name, "width", float, 1.0)
        amp = _field_option(kwargs, name, "amp", float, 1.0)
        if kwargs:
            raise ConfigError(f"unknown options {sorted(kwargs)}")
        return sample_half(grid, lambda x: amp * bump(x, center, width),
                           bc=op)
    if name == "xphi":
        if kwargs:
            raise ConfigError("xphi takes no options")
        return sample_half(grid, counterexample_expr(), bc=op)
    if name == "random":
        fam = kwargs.pop("family", "bump_random")
        if kwargs:
            raise ConfigError(f"unknown options {sorted(kwargs)}")
        return make_family(fam, grid, op, seed, 1)[0]
    raise ConfigError(f"unknown field spec {name!r}")


def cmd_norm(ns):
    o = _resolve(ns)
    if o["semigroup"] and o["kind"] != "besov":
        raise ConfigError("--semigroup needs --kind besov")
    grid = make_grid(o["n"], o["L"], o["N"])
    hf = _build_field(o["field"], grid, o["op"], o["seed"])
    homogeneous = not o["inhomogeneous"]
    space = SpaceSpec(o["kind"], o["s"], o["p"], o["q"], homogeneous,
                      o["op"])
    payload = {
        "field": o["field"],
        "space": {"kind": o["kind"], "s": o["s"], "p": o["p"],
                  "homogeneous": homogeneous, "op": o["op"]},
        "meta": {"version": __version__, "seed": o["seed"],
                 "grid": {"n": o["n"], "L": o["L"], "N": o["N"]}},
    }
    if o["q"] is not None:
        payload["space"]["q"] = o["q"]
    t0 = time.perf_counter()
    if o["kind"] == "sobolev":
        payload["value"] = sobolev_norm(hf, space)
    else:
        bank = get_bank(grid)
        report = besov_norm_report(hf, space, bank)
        payload["value"] = report["value"]
        payload["report"] = report
        payload["meta"]["bank_hash"] = bank.table_hash
        if o["semigroup"]:
            payload["semigroup_value"] = besov_norm_semigroup(
                hf, space, bank=bank)
            v = payload["value"]
            payload["route_ratio"] = (payload["semigroup_value"] / v
                                      if v > 0 else "nan")
    _say(f"# norm computed in {time.perf_counter() - t0:.3f}s")
    _emit(payload, ns.out)
    return 0


# ---------------------------------------------------------------------------
# bilinear / trilinear sweeps

# an unset option takes the config's default; the CLI keeps its own
# shorter ladder and p = 2
_SWEEP_SPECS = {
    "s": (float, None),
    "p": (float, 2.0),
    "op": (str, None),
    "kind": (str, None),
    "q": (float, None),
    "inhomogeneous": (_bool, False),
    "family": (str, None),
    "count": (int, None),
    "seed": (int, 0),
    "resolutions": (_res_list, (2048, 4096, 8192)),
    "L": (float, None),
    "n": (int, None),
}


def cmd_sweep(ns):
    """The bilinear and trilinear sweeps.  Each option is the config
    field of the same name, except the negated ``homogeneous``; the
    config checks every field and fills in what is unset."""
    o = _resolve(ns)
    if o["s"] is None:
        raise ConfigError(f"{ns.command} sweep needs --s")
    o["homogeneous"] = not o.pop("inhomogeneous")
    make = TrilinearConfig if ns.command == "trilinear" else BilinearConfig
    report = ratio_sweep(make(**{k: v for k, v in o.items()
                                 if v is not None}))
    _say(f"# sweep finished in {report.wall_time_s:.2f}s, "
         f"verdict: {report.verdict}")
    _emit(report.to_json_dict(), ns.out)
    return 0


# ---------------------------------------------------------------------------
# counterexample

_CEX_SPECS = {
    "p": (float, 2.0),
    "resolutions": (_res_list, (4096, 8192, 16384, 32768)),
    "L": (float, 16.0),
    "seed": (int, 0),
    "quick": (_bool, False),
}


def cmd_counterexample(ns):
    o = _resolve(ns)
    p = o["p"]
    if not 1 < p < np.inf:
        raise ConfigError("counterexample needs 1 < p < inf")
    s = 2.0 + 1.0 / p
    _say(f"# probing s = 2 + 1/p = {s} at N in {list(o['resolutions'])}")
    common = dict(s=s, p=p, family="counterexample", seed=o["seed"],
                  resolutions=o["resolutions"], L=o["L"])
    cfg = BilinearConfig(**common)
    payload = {"regularity": s, "p": p,
               "meta": {"version": __version__, "seed": o["seed"]}}
    if not o["quick"]:
        # first, so that a ladder of one rung is refused before any draw
        payload["wall_rate"] = wall_rate(p, o["L"], o["resolutions"])
    report = ratio_sweep(cfg)
    payload["sweep"] = report.to_json_dict()
    _say(f"# bilinear sweep verdict: {report.verdict} "
         f"({report.wall_time_s:.2f}s)")
    if not o["quick"]:
        grid = cfg.grids[-1]
        t0 = time.perf_counter()
        payload["block_floor"] = besov_block_floor(p, grid)
        _say(f"# block floor done ({time.perf_counter() - t0:.2f}s)")
        t0 = time.perf_counter()
        payload["profile"] = singularity_profile(p, grid)
        _say(f"# singularity profile done ({time.perf_counter() - t0:.2f}s)")
        tri_report = ratio_sweep(TrilinearConfig(**common))
        payload["trilinear_contrast"] = tri_report.to_json_dict()
        _say(f"# trilinear contrast verdict: {tri_report.verdict}")
    _emit(payload, ns.out)
    return 0


# ---------------------------------------------------------------------------
# selftest

def _selftest_checks(quick):
    checks = []

    def record(name, ok, **detail):
        checks.append({"name": name, "ok": bool(ok), **detail})
        _say(f"  [{'ok' if ok else 'FAIL'}] {name}")

    N = 1024 if quick else 4096
    grid = make_grid(1, 16.0, N)

    hf = sample_half(grid, lambda x: np.sin(np.pi * x / grid.L),
                     bc=BC_DIRICHLET)
    ext = odd_extend(hf)
    back = restrict(ext, bc=BC_DIRICHLET)
    record("reflection_roundtrip",
           np.array_equal(back.values, hf.values))

    k = np.pi * 4 / grid.L
    eig = sample_half(grid, lambda x: np.sin(4 * np.pi * x / grid.L),
                      bc=BC_DIRICHLET)
    out = frac_power(eig, OP_DIRICHLET, 1.0)
    err = float(np.max(np.abs(out.values - k * eig.values)) / k)
    record("eigenfunction_exact", err < 1e-12, max_rel_err=err)

    p = 3.0
    lhs = 2.0 ** (1.0 / p) * lp_norm(frac_power(eig, OP_DIRICHLET, 0.5), p)
    rhs_field = fractional_laplacian(odd_extend(eig), 0.5)
    rhs = (grid.cell_volume
           * np.sum(np.abs(rhs_field.values) ** p)) ** (1.0 / p)
    gap = abs(lhs - rhs) / rhs
    record("extension_norm_identity", gap < 1e-12, rel_gap=gap)

    bank = get_bank(grid)
    lam = np.geomspace(2.0 ** (bank.j_min + 1), 2.0 ** (bank.j_max - 1),
                       1024)
    total = np.zeros_like(lam)
    for j in bank.octaves:
        total += bank.phi(j, lam)
    resid = float(np.max(np.abs(total - 1.0)))
    record("partition_of_unity", resid < 1e-12, residual=resid,
           bank_hash=bank.table_hash)

    bad_bank = build_bank(grid, phi0_scale=1.01)
    bad_total = np.zeros_like(lam)
    for j in bad_bank.octaves:
        bad_total += bad_bank.phi(j, lam)
    bad_resid = float(np.max(np.abs(bad_total - 1.0)))
    record("fault_injection_detected", bad_resid > 1e-3,
           injected_residual=bad_resid)

    f1 = make_family("band_random", grid, OP_DIRICHLET, 7, 3, N)
    f2 = make_family("band_random", grid, OP_DIRICHLET, 7, 3, N)
    record("family_determinism",
           all(np.array_equal(a.values, b.values)
               for a, b in zip(f1, f2)))

    if not quick:
        a, t = 1.0, 0.3
        g0 = sample(grid, lambda x: np.exp(-x ** 2 / (2 * a ** 2)))
        from .spectral import semigroup_symbol
        evolved = semigroup_symbol(g0, t, 2.0)
        sig2 = a ** 2 + 2 * t
        exact = (a / np.sqrt(sig2)) * np.exp(
            -grid.axis_coords() ** 2 / (2 * sig2))
        herr = float(np.max(np.abs(evolved.values - exact))
                     / np.max(np.abs(exact)))
        record("gaussian_heat_closed_form", herr < 1e-10, max_rel_err=herr)

        from .families import bump
        # zero mean keeps the free-space tail convention of the
        # quadrature compatible with the periodic symbol route
        smooth = sample(grid, lambda x: bump(x, 0.0, 1.5) * x)
        v_spec = fractional_laplacian(smooth, 0.5).values
        v_quad = singular_integral_frac_lap(smooth, 0.5).values
        qerr = float(np.linalg.norm(v_spec - v_quad)
                     / np.linalg.norm(v_spec))
        record("quadrature_vs_spectral", qerr < 1e-3, rel_l2=qerr)

        import tempfile
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "f.hsf")
            save_field(hf, path)
            loaded = load_field(path)
            record("serialization_roundtrip",
                   isinstance(loaded, HalfField)
                   and loaded.grid == hf.grid
                   and loaded.bc == hf.bc
                   and np.array_equal(loaded.values, hf.values))

    try:
        alias = sample_half(
            grid, lambda x: np.sin(np.pi * (N - 2) / 2 * x / grid.L),
            bc=BC_DIRICHLET)
        from .norms import besov_norm
        besov_norm(alias, SpaceSpec("besov", 0.5, 2.0, 2.0, True,
                                    OP_DIRICHLET), bank)
        record("leak_guard_fires", False)
    except NumericalGuardError:
        record("leak_guard_fires", True)

    return checks


def cmd_selftest(ns):
    quick = bool(ns.quick)
    _say(f"# selftest ({'quick' if quick else 'full'})")
    t0 = time.perf_counter()
    checks = _selftest_checks(quick)
    ok = all(c["ok"] for c in checks)
    _say(f"# selftest {'passed' if ok else 'FAILED'} "
         f"in {time.perf_counter() - t0:.2f}s")
    _emit({"ok": ok, "quick": quick, "checks": checks,
           "meta": {"version": __version__}}, ns.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------

# subcommand -> (option table, help)
_SUBCOMMANDS = {
    "norm": (_NORM_SPECS, "one norm of one field"),
    "bilinear": ({**_SWEEP_SPECS,
                  **dict.fromkeys(("p1", "p2", "p3", "p4"), (float, None))},
                 "two-factor product ratio sweep"),
    "trilinear": ({**_SWEEP_SPECS, "exponents": (_triples, None)},
                  "three-factor product ratio sweep"),
    "counterexample": (_CEX_SPECS, "exhibit the breakdown at s = 2 + 1/p"),
}

_CHOICES = {
    "kind": ["sobolev", "besov"],
    "op": [OP_DIRICHLET, OP_NEUMANN],
}

_HELP = {
    "config": "INI file; flags override it",
    "out": "write JSON here instead of stdout",
    "seed": f"RNG seed (or set {_ENV_SEED})",
    "field": "xphi | sine:k=4 | cosine:k=2 | bump:center=4,width=1 | "
             "random:family=NAME | file:PATH",
    "semigroup": "also run the heat-semigroup route (besov only)",
    "exponents": "'p1,p2,p3;p4,p5,p6;p7,p8,p9'",
    "quick": "ratio sweep only, skip the profile diagnostics",
}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="halfspace-spectral",
        description="Fractional calculus for the Dirichlet and Neumann "
                    "Laplacian on the half-space, with experiment sweeps.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    for command, (specs, help_text) in _SUBCOMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help=_HELP["config"])
        sp.add_argument("--out", help=_HELP["out"])
        for key, (cast, _) in specs.items():
            if cast is _bool:
                sp.add_argument(f"--{key}", action="store_true",
                                default=None, help=_HELP.get(key))
            else:
                sp.add_argument(f"--{key}", type=cast,
                                choices=_CHOICES.get(key),
                                help=_HELP.get(key))

    st = sub.add_parser("selftest", help="numerical invariants check")
    st.add_argument("--out", help=_HELP["out"])
    st.add_argument("--quick", action="store_true", default=False)

    return ap


_COMMANDS = {
    "norm": cmd_norm,
    "bilinear": cmd_sweep,
    "trilinear": cmd_sweep,
    "counterexample": cmd_counterexample,
    "selftest": cmd_selftest,
}


def main(argv=None):
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return _COMMANDS[ns.command](ns)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
