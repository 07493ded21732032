"""Spans around focktomo's layers, recorded from outside the program.

``Tracer`` replaces each traced function at every binding the loaded
``focktomo`` modules hold: module attributes and values of module-level
dicts (``tomography.GENERATORS`` holds the Haar generator that the rank scan
calls).  Calls that one layer makes into another therefore pass through the
wrapper, because Python looks module globals up at call time.  Spans
(name, start, end, parent) stay in memory; ``totals`` sums them per
function and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Defining module and name of each traced function.  newton_young_configs and
# response_matrix are traced so that the protocol build and the detector
# matrix show up in the span tree and in the call counts.
TRACED = (
    "combinatorics.enumerate_fock_basis",
    "linear_optics.lift_unitary",
    "linear_optics.haar_random_unitary",
    "tomography.gramian_rank",
    "tomography.find_min_configs",
    "tomography.build_superoperator",
    "tomography.reconstruct",
    "tomography.project_to_state",
    "tomography.outcome_probabilities",
    "tomography.sample_shots",
    "imperfections.detector_response",
    "imperfections.response_matrix",
    "imperfections.invert_detector_response",
    "analytic_m2.choose_theta",
    "analytic_m2.newton_young_configs",
    "analytic_m2.reconstruct_m2",
    "cli.main",
)

OPERATION = "operation"


def _svd_mflop(args, kwargs) -> float:
    """Computed cost of gramian_rank's values-only complex SVD of an m x n map.

    Golub-Van Loan count for singular values alone, 4 m n^2 - 4 n^3 / 3 real
    flops with m >= n, times 4 for complex arithmetic.  It is derived from
    the argument's shape, not measured.
    """
    superop = args[0] if args else kwargs["superop"]
    m, n = getattr(superop, "matrix", superop).shape
    m, n = max(m, n), min(m, n)
    return 4.0 * (4.0 * m * n * n - 4.0 * n**3 / 3.0) / 1e6


WORK = {"tomography.gramian_rank": _svd_mflop}


class Tracer:
    """Wraps the traced functions during ``run`` and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, mflop]
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, object, object]] = []
        for qualified in TRACED:
            importlib.import_module(f"focktomo.{qualified.split('.')[0]}")
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "focktomo"]
        for qualified in TRACED:
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"focktomo.{module_name}"], attr)
            wrapper = self._wrap(qualified, original)
            for module in modules:
                for key, value in vars(module).items():
                    if value is original:
                        self._sites.append((module, key, original, wrapper))
                    elif isinstance(value, dict) and not key.startswith("__"):
                        for entry, item in value.items():
                            if item is original:
                                self._sites.append((value, entry, original, wrapper))

    def _wrap(self, name: str, original):
        work = WORK.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            mflop = work(args, kwargs) if work else 0.0
            return self._record(name, mflop, original, args, kwargs)

        return traced

    def _record(self, name, mflop, function, args, kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, mflop]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def _patch(self, install: bool) -> None:
        for container, key, original, wrapper in self._sites:
            value = wrapper if install else original
            if isinstance(container, dict):
                container[key] = value
            else:
                setattr(container, key, value)

    def run(self, function, *args):
        """Call ``function`` as one traced operation with every wrapper in place."""
        self._patch(True)
        try:
            return self._record(OPERATION, 0.0, function, args, {})
        finally:
            self._patch(False)

    def binding_count(self) -> int:
        return len(self._sites)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total ms, self ms and computed Mflop, over all spans."""
        child_ms = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, mflop) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "mflop": 0.0})
            duration = (end - start) * 1e3
            entry["calls"] += 1
            entry["ms"] += duration
            entry["self_ms"] += duration - child_ms[index]
            entry["mflop"] += mflop
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "mflop"], "spans": self.spans},
                handle,
            )
