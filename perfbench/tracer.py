"""Span tracing of the package's layers, installed from outside it.

``Tracer.install`` wraps each listed public function at every module
namespace of ``halfspace_spectral`` that binds it (``norms`` imports
``frac_power`` directly, ``experiments`` imports ``make_family``, and
so on), wraps the ``DyadicBank.phi`` method, and wraps
``numpy.fft.fftn``/``ifftn``.  ``uninstall`` puts every original back.

A span records name, start, end, parent span and request id.  Spans
stay in memory until ``write``.  Self time is a span's duration minus
the durations of its direct children, accumulated as spans close.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: span name -> (module, attribute) of each function it covers
TRACED = {
    "families.make_family": [("families", "make_family")],
    "grid.sample_half": [("grid", "sample_half")],
    "grid.lp_norm": [("grid", "lp_norm")],
    "extension.extend": [("extension", "odd_extend"),
                         ("extension", "even_extend")],
    "extension.restrict": [("extension", "restrict")],
    "spectral.apply_multiplier": [("spectral", "apply_multiplier")],
    "spectral.build_bank": [("spectral", "build_bank")],
    "halfspace_ops.frac_power": [("halfspace_ops", "frac_power")],
    "halfspace_ops.semigroup": [("halfspace_ops", "semigroup")],
    "halfspace_ops.derivative": [("halfspace_ops", "normal_derivative"),
                                 ("halfspace_ops", "tangential_derivative")],
    "norms.sobolev_norm": [("norms", "sobolev_norm")],
    "norms.besov_norm_report": [("norms", "besov_norm_report")],
    "norms.besov_norm_semigroup": [("norms", "besov_norm_semigroup")],
    "norms.extension_norm_equivalence": [("norms",
                                          "extension_norm_equivalence")],
    "experiments.ratio_sweep": [("experiments", "ratio_sweep")],
    "experiments.bilinear_ratio": [("experiments", "bilinear_ratio")],
    "experiments.trilinear_ratio": [("experiments", "trilinear_ratio")],
    "experiments.classify_growth": [("experiments", "classify_growth")],
}
BANK_PHI = "spectral.bank_phi"
FFT = "fft"
REQUEST = "request"
PACKAGE = "halfspace_spectral"

#: every span name the per-layer report covers, in report order
LAYER_SPANS = list(TRACED) + [BANK_PHI, FFT]


class Tracer:
    def __init__(self):
        # (id, name, start, end, parent, request, self time)
        self.spans = []
        self._stack = []          # [span id, start, child time]
        self._next_id = 0
        self.request_id = None
        self.counters = defaultdict(float)
        self._patches = []

    # -- span bookkeeping -------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, time.perf_counter(), 0.0])

    def _exit(self, name):
        end = time.perf_counter()
        sid, start, child = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        self.spans.append((sid, name, start, end,
                           parent[0] if parent else None, self.request_id,
                           dur - child))

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(args)
            self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name)
        return traced

    def request(self, rid, thunk):
        """Run one request under a root span of its own."""
        self.request_id = rid
        self._enter()
        try:
            return thunk()
        finally:
            self._exit(REQUEST)
            self.request_id = None

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE
                                      or name.startswith(PACKAGE + "."))]
        for span, targets in TRACED.items():
            for mod_name, attr in targets:
                orig = getattr(sys.modules[f"{PACKAGE}.{mod_name}"],
                               attr)
                wrapped = self.wrap(span, orig)
                for m in mods:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._set(m, key, wrapped)

        bank_cls = sys.modules[f"{PACKAGE}.spectral"].DyadicBank

        def count_phi(args):
            self.counters["spectral.bank_phi.points"] += np.size(args[2])
        self._set(bank_cls, "phi", self.wrap(BANK_PHI, bank_cls.phi,
                                             count_phi))

        def count_fft(args):
            a = args[0]
            pts = np.size(a)
            self.counters["fft.points"] += pts
            # 5 N log2 N per complex transform; input plus complex128
            # output; both computed from the shapes, not measured
            self.counters["fft.flops_computed"] += 5.0 * pts * math.log2(
                max(pts, 2))
            self.counters["fft.bytes_computed"] += np.asarray(a).nbytes \
                + 16 * pts
        for attr in ("fftn", "ifftn"):
            self._set(np.fft, attr, self.wrap(FFT, getattr(np.fft, attr),
                                              count_fft))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- reports ----------------------------------------------------------

    def layer_totals(self):
        """(calls, self seconds) per span name."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for _, name, _, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def coverage(self):
        """Per request: share of its wall time inside top-level spans."""
        roots = {sid: (end - start) for sid, name, start, end, _, _, _
                 in self.spans if name == REQUEST}
        covered = defaultdict(float)
        for _, name, start, end, parent, _, _ in self.spans:
            if parent in roots:
                covered[parent] += end - start
        return [covered[sid] / dur for sid, dur in roots.items() if dur > 0]

    def write(self, path, header):
        """One JSON header line, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({**header, "span_fields": [
                "id", "name", "start_s", "end_s", "parent", "request",
                "self_s"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
