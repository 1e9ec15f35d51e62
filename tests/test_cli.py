"""Command line interface: exit codes, determinism and config plumbing."""

import argparse
import contextlib
import io
import itertools
import json
import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import halfspace_spectral
from halfspace_spectral import (BC_DIRICHLET, BilinearConfig, ConfigError,
                                cli, make_grid, sample, sample_half,
                                save_field)
from halfspace_spectral.cli import (_CHOICES, _SUBCOMMANDS, _resolve,
                                    build_parser, main)


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(args))
    return rc, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# norm

def test_norm_of_eigenmode_analytic_value():
    rc, out, _ = run_cli(["norm", "--field", "sine:k=4", "--kind",
                          "sobolev", "--s", "1.0", "--p", "2",
                          "--N", "1024", "--L", "16"])
    assert rc == 0
    doc = json.loads(out)
    k = 4.0 * np.pi / 16.0
    assert doc["value"] == pytest.approx(k * np.sqrt(8.0), rel=1e-12)
    assert doc["meta"]["version"]
    assert doc["space"]["kind"] == "sobolev"


def test_norm_output_is_byte_deterministic():
    args = ["norm", "--field", "random:family=bump_random", "--kind",
            "sobolev", "--s", "0.8", "--p", "2", "--N", "1024",
            "--L", "16", "--seed", "5"]
    _, first, _ = run_cli(args)
    _, second, _ = run_cli(args)
    assert first == second
    assert first.endswith("\n")


def test_norm_timing_goes_to_stderr_not_stdout():
    rc, out, err = run_cli(["norm", "--field", "xphi", "--kind", "sobolev",
                            "--s", "0.5", "--p", "2", "--N", "1024",
                            "--L", "16"])
    assert rc == 0
    json.loads(out)              # stdout is pure JSON
    assert "computed" in err


def test_besov_norm_reports_blocks_and_bank():
    rc, out, _ = run_cli(["norm", "--field", "xphi", "--kind", "besov",
                          "--s", "0.5", "--p", "2", "--q", "2",
                          "--N", "4096", "--L", "16", "--inhomogeneous"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["report"]["blocks"]
    assert doc["meta"]["bank_hash"]
    assert doc["value"] > 0.0


def test_semigroup_route_flag():
    rc, out, _ = run_cli(["norm", "--field", "sine:k=24", "--kind", "besov",
                          "--s", "0.8", "--p", "2", "--q", "2",
                          "--N", "4096", "--L", "16", "--semigroup"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["semigroup_value"] > 0.0
    assert 0.1 < doc["route_ratio"] < 10.0


def test_semigroup_route_needs_besov():
    rc, out, err = run_cli(["norm", "--field", "xphi", "--kind", "sobolev",
                            "--N", "512", "--semigroup"])
    assert rc == 2
    assert out == ""
    assert "--semigroup" in err


def test_field_spec_bump_and_file_roundtrip(tmp_path):
    g = make_grid(1, 16.0, 1024)
    hf = sample_half(g, lambda x: np.sin(np.pi * x / 16.0),
                     bc=BC_DIRICHLET)
    path = tmp_path / "mode.hsf"
    save_field(hf, path)
    # the file spec checks the stored grid against the requested one, so
    # the flags must match what the container was sampled on
    rc, from_file, _ = run_cli(["norm", "--field", f"file:{path}",
                                "--kind", "sobolev", "--s", "1.0",
                                "--p", "2", "--N", "1024", "--L", "16"])
    rc2, from_spec, _ = run_cli(["norm", "--field", "sine:k=1", "--kind",
                                 "sobolev", "--s", "1.0", "--p", "2",
                                 "--N", "1024", "--L", "16"])
    assert rc == rc2 == 0
    assert (json.loads(from_file)["value"]
            == pytest.approx(json.loads(from_spec)["value"], rel=1e-13))

    rc3, out3, _ = run_cli(["norm", "--field", "bump:center=4,width=1",
                            "--kind", "sobolev", "--s", "0.5", "--p", "2",
                            "--N", "1024", "--L", "16"])
    assert rc3 == 0
    assert json.loads(out3)["value"] > 0.0


def test_out_flag_writes_the_payload(tmp_path):
    target = tmp_path / "report.json"
    rc, out, _ = run_cli(["norm", "--field", "xphi", "--kind", "sobolev",
                          "--s", "0.5", "--p", "2", "--N", "1024",
                          "--L", "16", "--out", str(target)])
    assert rc == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["value"] > 0.0


# ---------------------------------------------------------------------------
# exit codes

def test_unwritable_out_exits_two(tmp_path):
    rc, out, err = run_cli(["norm", "--field", "xphi", "--N", "512",
                            "--out", str(tmp_path / "absent" / "x.json")])
    assert rc == 2
    assert out == ""
    assert "configuration error" in err


def test_config_errors_exit_two():
    rc, _, err = run_cli(["norm", "--field", "xphi", "--kind", "sobolev",
                          "--s", "0.5", "--p", "0.5", "--N", "1024",
                          "--L", "16"])
    assert rc == 2
    assert "config" in err.lower() or "error" in err.lower()


def test_missing_field_file_exits_two(tmp_path):
    rc, _, err = run_cli(["norm", "--field",
                          f"file:{tmp_path / 'absent.hsf'}",
                          "--s", "1.0", "--p", "2", "--N", "1024",
                          "--L", "16"])
    assert rc == 2
    assert "configuration error" in err


def test_bad_ini_value_exits_two(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[norm]\nN = lots\n")
    rc, _, err = run_cli(["norm", "--config", str(ini), "--kind",
                          "sobolev", "--s", "1.0", "--p", "2"])
    assert rc == 2
    assert "[norm] N" in err


def test_bad_ini_boolean_exits_two(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[norm]\nsemigroup = maybe\n")
    rc, out, err = run_cli(["norm", "--config", str(ini), "--N", "512"])
    assert rc == 2
    assert out == ""
    assert "[norm] semigroup" in err and "not a boolean" in err


def test_malformed_exponents_exit_two(tmp_path):
    # the config alone checks the table's shape, from a flag or a file
    rc, out, err = run_cli(["trilinear", "--s", "1.0",
                            "--exponents", "2,inf;inf,2"])
    assert rc == 2
    assert out == ""
    assert "trilinear exponents are three triples" in err
    ini = tmp_path / "run.ini"
    ini.write_text("[trilinear]\ns = 1.0\nexponents = 2,inf;inf,2\n")
    rc, out, err = run_cli(["trilinear", "--config", str(ini)])
    assert rc == 2
    assert out == ""
    assert "trilinear exponents are three triples" in err
    rc, out, err = run_cli(["trilinear", "--s", "1.0",
                            "--exponents", "2,inf,inf;inf,2;inf,inf,2"])
    assert rc == 2
    assert "3 factors need 3 exponents per term" in err


@pytest.mark.parametrize("command", ["bilinear", "trilinear"])
def test_sweep_without_s_exits_two(command):
    rc, out, err = run_cli([command, "--resolutions", "512"])
    assert rc == 2
    assert out == ""
    assert "needs --s" in err


def test_malformed_ini_file_exits_two(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[norm\nN = 512\n")
    rc, _, err = run_cli(["norm", "--config", str(ini)])
    assert rc == 2
    assert str(ini) in err


def test_malformed_field_file_exits_two(tmp_path):
    path = tmp_path / "bad.hsf"
    path.write_bytes(struct.pack("<8sBBBBQQdQ", b"HSFIELD1", 1, 9, 1, 0, 1,
                                 1024, 16.0, 512) + b"\x00" * 4096)
    rc, _, err = run_cli(["norm", "--field", f"file:{path}", "--s", "1.0",
                          "--p", "2", "--N", "1024", "--L", "16"])
    assert rc == 2
    assert "configuration error" in err


@pytest.mark.parametrize("command", ["norm", "selftest"])
def test_threads_flag_only_on_sweeping_commands(command):
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            main([command, "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("args", [
    ["bilinear", "--threads", "2"], ["trilinear", "--threads", "2"],
    ["counterexample", "--threads", "2"], ["selftest", "--seed", "3"],
    ["selftest", "--config", "x.ini"]], ids=lambda a: a[0] + a[1])
def test_removed_flags_exit_two(args):
    with pytest.raises(SystemExit) as exc:
        with contextlib.redirect_stderr(io.StringIO()):
            main(args)
    assert exc.value.code == 2


def test_numerical_guards_exit_three():
    # sub-band energy in a homogeneous besov norm trips the leak guard
    rc, _, err = run_cli(["norm", "--field", "bump:center=8,width=6",
                          "--kind", "besov", "--s", "0.5", "--p", "2",
                          "--q", "2", "--N", "4096", "--L", "16"])
    assert rc == 3
    assert "guard" in err.lower()


def test_unknown_field_spec_exits_two():
    rc, _, _ = run_cli(["norm", "--field", "perlin:x=1", "--kind",
                        "sobolev", "--s", "0.5", "--p", "2",
                        "--N", "1024", "--L", "16"])
    assert rc == 2


@pytest.mark.parametrize("field, named", [
    ("sine:k=x", "k='x'"), ("cosine:k=2.5", "k='2.5'"),
    ("bump:center=y", "center='y'"), ("bump:amp=", "amp=''"),
    ("bump:width=0", "width"), ("bump:width=-1", "width"),
    ("bump:width=nan", "width")])
def test_bad_inline_field_option_exits_two(field, named):
    rc, out, err = run_cli(["norm", "--field", field, "--N", "512"])
    assert rc == 2
    assert out == ""
    assert "configuration error" in err and named in err


def _field_file(tmp_path, kind):
    """A saved field that the 1-D, N = 512, L = 16 norm request refuses."""
    path = tmp_path / f"{kind}.hsf"
    grid = make_grid(1, 16.0, 512)
    if kind == "full_box":
        save_field(sample(grid, lambda x: x), path)
    elif kind == "other_grid":
        save_field(sample_half(make_grid(1, 16.0, 1024), lambda x: x,
                               bc=BC_DIRICHLET), path)
    else:
        save_field(sample_half(grid, lambda x: x, bc=BC_DIRICHLET), path)
    return f"file:{path}"


@pytest.mark.parametrize("field, extra, named", [
    ("full_box", [], "full-box field"),
    ("other_grid", [], "not the requested grid"),
    ("dirichlet_tag", ["--op", "neumann"], "is tagged 'dirichlet'"),
    ("sine:k", [], "malformed field option 'k'"),
    ("sine:k=2", ["--n", "2", "--N", "64"], "inline field specs are 1-D"),
    ("sine:k=2,z=1", [], "unknown options ['z']"),
    ("sine:k=0", [], "k must be >= 1"),
    ("bump:depth=1", [], "unknown options ['depth']"),
    ("xphi:a=1", [], "xphi takes no options"),
    ("random:family=bump_random,x=1", [], "unknown options ['x']"),
    ("random:family=perlin", [], "unknown family 'perlin'"),
], ids=["full_box", "other_grid", "other_tag", "no_equals", "inline_2d",
        "sine_option", "k_zero", "bump_option", "xphi_option",
        "random_option", "random_family"])
def test_bad_field_spec_exits_two(tmp_path, field, extra, named):
    if ":" not in field:
        field = _field_file(tmp_path, field)
    rc, out, err = run_cli(["norm", "--field", field, "--N", "512"] + extra)
    assert rc == 2
    assert out == ""
    assert "configuration error" in err and named in err


def test_bad_holder_exponents_exit_two():
    rc, _, _ = run_cli(["bilinear", "--s", "1.0", "--p", "2",
                        "--p1", "4", "--p2", "inf", "--p3", "inf",
                        "--p4", "2", "--count", "1",
                        "--resolutions", "512"])
    assert rc == 2


@pytest.mark.parametrize("given", [
    c for k in (1, 2, 3)
    for c in itertools.combinations(("p1", "p2", "p3", "p4"), k)],
    ids="+".join)
def test_partial_bilinear_exponents_exit_two(given):
    # only none or all four of p1..p4; a subset is not completed from
    # the defaults
    args = ["bilinear", "--s", "1.0", "--p", "2", "--count", "1",
            "--resolutions", "512"]
    for k in given:
        args += [f"--{k}", "4"]
    rc, out, err = run_cli(args)
    assert rc == 2
    assert out == ""
    assert "p1..p4" in err


# ---------------------------------------------------------------------------
# sweeps via the CLI

def test_bilinear_sweep_roundtrip():
    args = ["bilinear", "--s", "1.0", "--p", "2", "--count", "2",
            "--resolutions", "512,1024", "--family", "bump_random",
            "--L", "16"]
    rc, out, _ = run_cli(args)
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] == "bounded"
    assert doc["config"]["family"] == "bump_random"
    assert len(doc["per_resolution"]) == 2
    _, again, _ = run_cli(args)
    assert out == again


def test_trilinear_sweep_default_exponents():
    rc, out, _ = run_cli(["trilinear", "--s", "1.0", "--p", "2",
                          "--count", "1", "--resolutions", "512,1024",
                          "--family", "bump_random"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["verdict"] in ("bounded", "inconclusive")
    assert len(doc["config"]["exponents"]) == 3


def test_counterexample_quick_structure():
    rc, out, _ = run_cli(["counterexample", "--p", "2",
                          "--resolutions", "512,1024,2048", "--quick"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["regularity"] == pytest.approx(2.5)
    assert doc["sweep"]["verdict"] in ("bounded", "diverging",
                                       "inconclusive")
    assert doc["p"] == 2.0


def test_counterexample_needs_finite_p_above_one():
    for p in ("1", "inf", "nan"):
        rc, _, err = run_cli(["counterexample", "--p", p,
                              "--resolutions", "512,1024"])
        assert rc == 2
        assert "probing" not in err      # refused before any work starts


def _no_sweep(*args, **kwargs):
    raise AssertionError("swept before refusing the ladder")


def test_counterexample_of_one_rung_is_refused_before_its_diagnostics(
        monkeypatch):
    # the wall rate reads increments over the ladder, so it goes first,
    # before the sweep draws a field
    monkeypatch.setattr(cli, "ratio_sweep", _no_sweep)
    rc, out, err = run_cli(["counterexample", "--resolutions", "4096"])
    assert rc == 2
    assert out == ""
    assert "ladder [4096], which needs two rungs" in err


def _ladder_args(route, ladder, tmp_path):
    if route == "flag":
        return ["bilinear", "--s", "1", "--resolutions", ladder]
    ini = tmp_path / "run.ini"
    ini.write_text(f"[bilinear]\nresolutions = {ladder}\n")
    return ["bilinear", "--s", "1", "--config", str(ini)]


@pytest.mark.parametrize("route", ["flag", "ini", "config"])
def test_a_non_integer_rung_has_one_message(route, tmp_path):
    # the flag, the INI file and the config all leave the rung to GridSpec
    message = "N=512.7 must be a power of two >= 8"
    if route == "config":
        with pytest.raises(ConfigError, match=message):
            BilinearConfig(s=1.0, p=2.0, resolutions=(512.7, 1024))
        return
    rc, out, err = run_cli(_ladder_args(route, "512.7,1024", tmp_path))
    assert (rc, out) == (2, "")
    assert message in err
    # a token that is no number at all still exits 2, from the cast
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = main(_ladder_args(route, "512,1k", tmp_path))
        except SystemExit as exc:
            rc = exc.code
    assert rc == 2


# ---------------------------------------------------------------------------
# config file and environment

def test_ini_sections_and_flag_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[DEFAULT]\nL = 16\nN = 512\n\n"
        "[norm]\nkind = sobolev\ns = 1.0\np = 2\nfield = sine:k=4\n"
        "N = 1024\n")
    rc, out, _ = run_cli(["norm", "--config", str(ini)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["meta"]["grid"]["N"] == 1024      # section beats DEFAULT
    assert doc["meta"]["grid"]["L"] == 16.0

    rc2, out2, _ = run_cli(["norm", "--config", str(ini), "--N", "2048"])
    assert json.loads(out2)["meta"]["grid"]["N"] == 2048   # flag beats file


# one value per table key, each unlike its default; booleans are flags
_OPTION_VALUES = {
    "field": "sine:k=3", "kind": "besov", "s": "0.7", "p": "3", "q": "inf",
    "op": "neumann", "N": "2048", "L": "8", "n": "2", "seed": "5",
    "p1": "6", "p2": "inf", "p3": "Infinity", "p4": "4",
    "family": "band_random", "count": "3", "resolutions": "1024,512",
    "exponents": "3,inf,inf;inf,3,inf;inf,inf,3",
}


def _subparsers():
    ap = build_parser()
    action = next(a for a in ap._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_option_tables_own_the_flags(command):
    specs, _ = _SUBCOMMANDS[command]
    sp = _subparsers()[command]
    flags = {f for a in sp._actions for f in a.option_strings}
    flags -= {"-h", "--help"}
    assert flags == {f"--{k}" for k in specs} | {"--config", "--out"}
    choices = {a.dest: a.choices for a in sp._actions}
    for key in ("kind", "op"):
        if key in specs:
            assert choices[key] == _CHOICES[key]


@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_every_ini_key_resolves_like_its_flag(command, tmp_path,
                                              monkeypatch):
    monkeypatch.delenv("HALFSPACE_SPECTRAL_SEED", raising=False)
    specs = _SUBCOMMANDS[command][0]
    ap = build_parser()
    for key, (cast, default) in specs.items():
        is_bool = key not in _OPTION_VALUES
        raw = "true" if is_bool else _OPTION_VALUES[key]
        ini = tmp_path / f"{key}.ini"
        ini.write_text(f"[{command}]\n{key} = {raw}\n")
        by_flag = _resolve(ap.parse_args(
            [command, f"--{key}"] + ([] if is_bool else [raw])))[key]
        by_ini = _resolve(ap.parse_args(
            [command, "--config", str(ini)]))[key]
        assert by_flag == by_ini != default, key


def test_environment_seed_is_honored(monkeypatch):
    args = ["norm", "--field", "random:family=bump_random", "--kind",
            "sobolev", "--s", "0.5", "--p", "2", "--N", "1024",
            "--L", "16"]
    monkeypatch.setenv("HALFSPACE_SPECTRAL_SEED", "11")
    _, with_env, _ = run_cli(args)
    assert json.loads(with_env)["meta"]["seed"] == 11
    monkeypatch.delenv("HALFSPACE_SPECTRAL_SEED")
    _, explicit, _ = run_cli(args + ["--seed", "11"])
    assert with_env == explicit


def test_flag_seed_beats_environment(monkeypatch):
    monkeypatch.setenv("HALFSPACE_SPECTRAL_SEED", "11")
    args = ["norm", "--field", "random:family=bump_random", "--kind",
            "sobolev", "--s", "0.5", "--p", "2", "--N", "1024",
            "--L", "16", "--seed", "3"]
    _, out, _ = run_cli(args)
    assert json.loads(out)["meta"]["seed"] == 3


@pytest.mark.parametrize("args", [
    ["norm", "--field", "random", "--N", "512", "--seed", "-1"],
    ["counterexample", "--quick", "--seed", "-2"]], ids=lambda a: a[0])
def test_negative_seed_exits_two(args):
    rc, out, err = run_cli(args)
    assert rc == 2
    assert out == ""
    assert "configuration error: seed -" in err


@pytest.mark.parametrize("source", ["flag", "environment", "config"])
def test_negative_seed_exits_two_for_a_deterministic_field(
        source, tmp_path, monkeypatch):
    # the seed is refused by the command line, whether or not the field
    # draws from it
    monkeypatch.delenv("HALFSPACE_SPECTRAL_SEED", raising=False)
    args = ["norm", "--field", "xphi", "--N", "512"]
    if source == "flag":
        args, seed = args + ["--seed", "-1"], -1
    elif source == "environment":
        monkeypatch.setenv("HALFSPACE_SPECTRAL_SEED", "-3")
        seed = -3
    else:
        ini = tmp_path / "seed.ini"
        ini.write_text("[norm]\nseed = -2\n")
        args, seed = args + ["--config", str(ini)], -2
    rc, out, err = run_cli(args)
    assert rc == 2
    assert out == ""
    assert f"configuration error: seed {seed} must be >= 0" in err


def test_non_integer_environment_seed_exits_two(monkeypatch):
    monkeypatch.setenv("HALFSPACE_SPECTRAL_SEED", "eleven")
    rc, out, err = run_cli(["norm", "--field", "random", "--N", "512"])
    assert rc == 2
    assert out == ""
    assert "HALFSPACE_SPECTRAL_SEED='eleven' is not an integer" in err


def test_negative_environment_seed_exits_two(monkeypatch):
    monkeypatch.setenv("HALFSPACE_SPECTRAL_SEED", "-4")
    rc, out, err = run_cli(["norm", "--field", "random", "--N", "512"])
    assert rc == 2
    assert out == ""
    assert "configuration error: seed -4" in err


# ---------------------------------------------------------------------------
# selftest and the module entry point

def test_quick_selftest_passes():
    rc, out, err = run_cli(["selftest", "--quick"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"]
    names = {c["name"] for c in doc["checks"]}
    assert {"reflection_roundtrip", "eigenfunction_exact",
            "extension_norm_identity", "partition_of_unity",
            "fault_injection_detected", "family_determinism",
            "leak_guard_fires"} <= names
    assert all(c["ok"] for c in doc["checks"])


def test_module_is_executable():
    # the child finds the package where this process imported it from
    path = [str(pathlib.Path(halfspace_spectral.__file__).parents[1]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "halfspace_spectral.cli", "--version"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0


def test_cli_help_mentions_all_subcommands():
    with pytest.raises(SystemExit) as exc:
        run_cli(["--help"])
    assert exc.value.code == 0
