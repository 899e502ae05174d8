"""Span recorder for the traced run.

The recorder wraps public nmhl functions from outside the package: each
wrapped call appends one span ``[name, start, end, parent, extra]`` to an
in-memory list, and the worker writes the list out when its run ends.  The
wrappers are rebound under every name that refers to the original function
in every loaded ``nmhl`` module, so calls between modules are seen too.
"""

from __future__ import annotations

import functools
import os
import sys
import time


def _csv_bytes(summary) -> int:
    return sum(os.path.getsize(p) for p in summary.csv_paths)


def _iterations(result) -> int:
    return int(result.iterations)


#: (module, function, span name, extra recorded from the return value)
TARGETS = (
    ("nmhl.config", "parse_config", "config.parse", None),
    ("nmhl.runner", "run", "runner.run", _csv_bytes),
    ("nmhl.spectral", "build_symbol", "spectral.build_symbol", None),
    ("nmhl.spectral", "auto_cutoff", "spectral.auto_cutoff", None),
    ("nmhl.spectral", "levy_symbol", "spectral.levy_symbol", None),
    ("nmhl.semigroup", "heat_kernel", "semigroup.heat_kernel", None),
    ("nmhl.semigroup", "kernel_values", "semigroup.kernel_values", None),
    ("nmhl.semigroup", "log_abs_kernel", "semigroup.log_abs_kernel", None),
    ("nmhl.malliavin", "ibp_check", "malliavin.ibp_check", None),
    ("nmhl.malliavin", "aux_moment", "malliavin.aux_moment", None),
    ("nmhl.ldp", "legendre", "ldp.legendre", None),
    ("nmhl.ldp", "lagrangian_table", "ldp.lagrangian_table", None),
    ("nmhl.ldp", "rate_function", "ldp.rate_function", _iterations),
    ("nmhl.varadhan", "varadhan_curve", "varadhan.varadhan_curve", None),
    ("nmhl.varadhan", "tilted_bound_check", "varadhan.tilted_bound_check", None),
    ("nmhl.varadhan", "exit_bound_check", "varadhan.exit_bound_check", None),
)


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[4] = extra(result)
            return result

        return traced

    def install(self):
        """Rebind every target in every loaded nmhl module."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "nmhl" or n.startswith("nmhl."))]
        for module_name, attr, span_name, extra in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(span_name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
