"""AST scans of ``src/``: every name the package imports is used, every
private name it defines is read, every name it re-exports is listed by
its module, every transform it makes is
one the benchmark's tracer counts, only ``spectral.py`` calls a
transform, touches the half-space coefficient layout or builds a
``Multiplier``, only ``apply_multiplier`` and the tangential derivative
check a symbol's Hermitian symmetry, the modules of the hot paths call
no BLAS-backed numpy function, and only ``experiments._growth`` calls
the growth classifier."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "halfspace_spectral"


def _dunder_all(tree: ast.Module):
    """The names of the module's ``__all__``; None when it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never loaded, in order of import.

    A name listed in the module's ``__all__`` counts as used: that is
    how a package re-exports what it imports.
    """
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_dunder_all(tree) or ())
    return [(line, name) for line, name in bound if name not in used]


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c\nprint(c)\n"
                     "__all__ = ['d']\nfrom e import d\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "b")]


def test_package_imports_no_unused_name():
    files = sorted(SRC.rglob("*.py"))
    assert files
    unused = {str(path.relative_to(SRC)): found for path in files
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def test_package_exports_are_listed_by_their_modules():
    """Each name of the package ``__all__`` imported from a module that
    has an ``__all__`` is in that list too, so that the module's own
    star-import gives what the package re-exports.  A module without
    one exports every public name."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = set(_dunder_all(init))
    missing = []
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            listed = _dunder_all(
                ast.parse((PACKAGE / f"{node.module}.py").read_text()))
            if listed is not None:
                missing += [f"{node.module}.{alias.name}"
                            for alias in node.names
                            if alias.name in exported
                            and alias.name not in listed]
    assert missing == []


def _private_definitions(tree: ast.Module) -> list:
    """(line, name) of each private name the module binds at its top
    level: a function, a class or an assigned constant whose name starts
    with one underscore, dunders aside."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            found += [(node.lineno, t.id) for t in targets
                      if isinstance(t, ast.Name)]
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def _names_read(trees) -> set:
    """Every name the modules load, bare or as an attribute, or import
    from another module, whose own use the unused-import scan checks."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _dead_private(sources: dict) -> dict:
    """{module: [(line, name), ...]} of the private top-level names that
    no module of ``sources``, {module: source}, reads."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = _names_read(trees.values())
    return {name: dead for name, tree in trees.items()
            if (dead := [(line, private) for line, private
                         in _private_definitions(tree)
                         if private not in read])}


def test_scan_finds_dead_private_code():
    sources = {
        "a": "_TOL = 1\n__all__ = []\ndef _used():\n    return _TOL\n"
             "def _dead():\n    pass\nclass _Gone:\n    pass\n"
             "_cache: dict = {}\ndef public():\n    _local = 2\n",
        "b": "from . import a\nfrom .a import _used as u\nu()\n",
    }
    assert _dead_private(sources) == {
        "a": [(5, "_dead"), (7, "_Gone"), (9, "_cache")]}


def test_package_private_names_are_all_read():
    files = sorted(SRC.rglob("*.py"))
    assert files
    dead = _dead_private({str(path.relative_to(SRC)): path.read_text()
                          for path in files})
    assert dead == {}


#: the numpy.fft names that the benchmark's tracer wraps, or that
#: compute no transform
_TRACED_FFT = {"fftn", "ifftn", "fftfreq"}


def _dotted(node, aliases: dict):
    """The dotted name of a Name or Attribute chain, its root resolved
    through the import ``aliases``; None for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id))
    return ".".join(reversed(parts))


def _import_aliases(tree: ast.Module) -> dict:
    """{bound name: dotted name it stands for} of the module's imports
    that bind a name other than the one imported."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname, alias.name)
                           for alias in node.names if alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            aliases.update((alias.asname or alias.name,
                            f"{node.module}.{alias.name}")
                           for alias in node.names)
    return aliases


def _untraced_transforms(tree: ast.Module) -> list:
    """(line, name) of each use of a numpy.fft name outside
    ``_TRACED_FFT`` and of anything from scipy.fft: transforms that the
    tracer, which wraps numpy.fft.fftn and ifftn, would not count."""
    aliases = _import_aliases(tree)
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inner:
            continue
        name = _dotted(node, aliases)
        parts = name.split(".") if name else []
        if parts[:2] == ["scipy", "fft"] or (
                parts[:2] == ["numpy", "fft"] and len(parts) > 2
                and parts[2] not in _TRACED_FFT):
            found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_an_untraced_transform():
    tree = ast.parse(
        "import numpy as np\nimport scipy.fft\nfrom numpy import fft as nf\n"
        "from numpy.fft import rfftn, fftn\nfrom scipy.fft import dct\n"
        "np.fft.fftn(a).real\nnp.fft.ifft(a)\nnf.irfftn(a)\nnf.fftfreq(8)\n"
        "rfftn(a)\nfftn(a)\nscipy.fft.fft(a)\ndct(a)\n"
        "np.fft.ifftn(a, axes=(0,))\n")
    assert _untraced_transforms(tree) == [
        (7, "numpy.fft.ifft"), (8, "numpy.fft.irfftn"),
        (10, "numpy.fft.rfftn"), (12, "scipy.fft.fft"), (13, "scipy.fft.dct")]


def test_package_transforms_are_all_traced():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): hits for path in files
             if (hits := _untraced_transforms(ast.parse(path.read_text())))}
    assert found == {}


#: the numpy.fft names that the package calls and that compute no
#: transform
_NOT_TRANSFORMS = {"fftfreq"}


def _numpy_transform_calls(tree: ast.Module) -> list:
    """(line, name) of each call of a numpy.fft function outside
    ``_NOT_TRANSFORMS``, however the module imported it."""
    aliases = _import_aliases(tree)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func, aliases)
        parts = name.split(".") if name else []
        if (parts[:2] == ["numpy", "fft"] and len(parts) > 2
                and parts[2] not in _NOT_TRANSFORMS):
            found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_a_numpy_transform_call():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import fft as nf\n"
        "from numpy.fft import ifftn as inverse\n"
        "np.fft.fftn(a).real\nnf.fftfreq(8)\ninverse(a, axes=(0,))\n"
        "np.fft.fftfreq(8, 1.0)\nnp.sqrt(np.fft.ifftn(a))\n"
        "forward = np.fft.fftn\n")
    assert _numpy_transform_calls(tree) == [
        (4, "numpy.fft.fftn"), (6, "numpy.fft.ifftn"),
        (8, "numpy.fft.ifftn")]


def test_only_spectral_calls_a_transform():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): hits for path in files
             if path.name != "spectral.py"
             and (hits := _numpy_transform_calls(ast.parse(path.read_text())))}
    assert found == {}


#: the spectral internals that read or write half-space coefficients or
#: know their layout: two contiguous halves along the normal, (2, *T, M/2)
_COEFFICIENT_INTERNALS = {"_half_forward", "_half_inverse",
                          "_half_inverse_rows", "_packed_spectrum",
                          "_unpacked", "_by_rows",
                          "_half_mesh", "_normal_wavenumbers",
                          "_parseval_power"}


def _coefficient_internals(tree: ast.Module) -> list:
    """(line, name) of each import of a name in ``_COEFFICIENT_INTERNALS``
    and of each attribute access to one, such as spectral._unpacked."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names
                      if alias.name in _COEFFICIENT_INTERNALS]
        elif (isinstance(node, ast.Attribute)
              and node.attr in _COEFFICIENT_INTERNALS):
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_scan_finds_a_coefficient_internal():
    tree = ast.parse(
        "from .spectral import _half_inverse, _half_band\n"
        "from halfspace_spectral.spectral import _unpacked as u\n"
        "from . import spectral\nspectral._half_forward(a)\n"
        "_packed_spectrum = spectral._half_spectrum\n")
    assert _coefficient_internals(tree) == [
        (1, "_half_inverse"), (2, "_unpacked"), (4, "_half_forward")]


def test_only_spectral_touches_half_space_coefficients():
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = {str(path.relative_to(SRC)): hits for path in files
             if path.name != "spectral.py"
             and (hits := _coefficient_internals(ast.parse(path.read_text())))}
    assert found == {}


#: numpy functions that call BLAS, whose threads stall for milliseconds
#: on products the size of the package's
_BLAS = {"vdot", "dot", "inner", "matmul", "tensordot"}

#: the modules on the hot paths of the norms and operators
_NO_BLAS_MODULES = ("spectral.py", "norms.py", "halfspace_ops.py", "grid.py")


def _blas_calls(tree: ast.Module) -> list:
    """(line, name) of each use of a BLAS-backed numpy function: a
    numpy name in ``_BLAS`` however the module imported it, anything of
    numpy.linalg, the ``dot`` method of an array and the @ operator."""
    aliases = _import_aliases(tree)
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
            continue
        if id(node) in inner:
            continue
        name = _dotted(node, aliases)
        parts = name.split(".") if name else []
        if (parts[:2] == ["numpy", "linalg"]
                or (len(parts) == 2 and parts[0] == "numpy"
                    and parts[1] in _BLAS)
                or (isinstance(node, ast.Attribute) and node.attr == "dot")):
            found.append((node.lineno, name))
    return sorted(found)


def test_scan_finds_a_blas_call():
    tree = ast.parse(
        "import numpy as np\nfrom numpy import vdot as v\n"
        "from numpy.linalg import norm\nnp.vdot(a, b)\nv(a, b)\n"
        "a.dot(b)\na @ b\nnp.linalg.norm(a)\nnorm(a)\n"
        "np.einsum('i,i', a, b)\nc @= d\n"
        "np.inner(a, b) + np.matmul(a, b) + np.tensordot(a, b)\n")
    assert _blas_calls(tree) == [
        (4, "numpy.vdot"), (5, "numpy.vdot"), (6, "a.dot"), (7, "@"),
        (8, "numpy.linalg.norm"), (9, "numpy.linalg.norm"), (11, "@"),
        (12, "numpy.inner"), (12, "numpy.matmul"), (12, "numpy.tensordot")]


def test_hot_modules_call_no_blas():
    found = {name: hits for name in _NO_BLAS_MODULES
             if (hits := _blas_calls(ast.parse(
                 (PACKAGE / name).read_text())))}
    assert found == {}


def _callers(tree: ast.Module, name: str) -> list:
    """(line, owner) of each call of ``name``, however the module
    imported it, with the top-level function or class that makes it;
    the owner is None for a call at module level."""
    aliases = _import_aliases(tree)
    found = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                called = _dotted(node.func, aliases)
                if called and called.split(".")[-1] == name:
                    found.append((node.lineno, owner))
    return sorted(found)


def test_scan_finds_a_classifier_call():
    tree = ast.parse(
        "from .experiments import classify_growth as cg\n"
        "from . import experiments\n"
        "def _growth(m):\n    return classify_growth(m)\n"
        "class Sweep:\n    def run(self):\n"
        "        return experiments.classify_growth(1)\n"
        "cg(2)\nverdict = classify_growth\n")
    assert _callers(tree, "classify_growth") == [
        (4, "_growth"), (7, "Sweep"), (8, None)]


def test_only_growth_calls_the_classifier():
    """One owner of the verdict: the one call of ``classify_growth`` in
    ``src/`` is in ``experiments._growth``, which both sweeps use."""
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [(str(path.relative_to(SRC)), owner) for path in files
             for _, owner in _callers(ast.parse(path.read_text()),
                                      "classify_growth")]
    assert found == [("halfspace_spectral/experiments.py", "_growth")]


def test_only_spectral_builds_a_multiplier_and_two_owners_check_one():
    """One route per operator: the half-space operators are profiles of
    |xi|^2, so no module but ``spectral.py`` constructs a ``Multiplier``,
    and the exact Hermitian guard ``_symbol`` runs only where a symbol
    can lack the symmetry: in ``apply_multiplier`` and in the tangential
    derivative."""
    files = sorted(SRC.rglob("*.py"))
    assert files
    built = [(str(path.relative_to(SRC)), owner) for path in files
             if path.name != "spectral.py"
             for _, owner in _callers(ast.parse(path.read_text()),
                                      "Multiplier")]
    assert built == []
    spectral = ast.parse((PACKAGE / "spectral.py").read_text())
    checked = {owner for _, owner in _callers(spectral, "_symbol")}
    assert checked == {"apply_multiplier", "_half_tangential_derivative"}
