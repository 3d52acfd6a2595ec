"""Per-function spans recorded from outside the program.

``Tracer.install`` wraps each function named in ``TRACED`` and rebinds the
wrapper under every name that refers to the original in any loaded
``picardfuchs`` module, so calls through ``from .x import f`` and through
function-local imports are both seen.  The program's source is untouched;
``uninstall`` puts the originals back.

``bipoly`` and ``forms`` are arithmetic called at fine grain: they are not
wrapped, their time shows as the self time of their callers.
"""

import functools
import importlib
import sys
import time

# (module, function, has traced children): the last flag adds a .self_s metric
TRACED = (
    ("cli", "main", True),
    ("parsing", "parse_polynomial", False),
    ("milnor", "check_regular_at_infinity", False),
    ("milnor", "monomial_basis", True),
    ("milnor", "reduce_mod_gradient", True),
    ("milnor", "divide_two_form", True),
    ("petrov", "petrov_decompose", True),
    ("linalg", "solve_with_nullspace", False),
    ("linalg", "determinant", False),
    ("linalg", "resultant", True),
    ("linalg", "char_poly", False),
    ("linalg", "min_poly", True),
    ("linalg", "pencil_determinant", True),
    ("unipoly", "lagrange_interpolate", False),
    ("unipoly", "squarefree_decomposition", False),
    ("unipoly", "roots_with_multiplicity", True),
    ("critical", "critical_points_numeric", True),
    ("system", "build_system", True),
    ("system", "validate_system", True),
    ("system", "classify_singularities", True),
    ("serialize", "serialize_system", True),
    ("periods", "trace_cycle", True),
    ("periods", "system_residual", True),
    ("periods", "integrate_form", False),
    ("periods", "gelfand_leray_derivative", False),
)

# the one count taken from a result: the summed length of the traced cycles
SAMPLES = "periods.trace_cycle"

PACKAGE = "picardfuchs"


def metric_names(prefix=""):
    """Names of the per-function metrics, in a fixed order."""
    names = []
    for module, function, has_children in TRACED:
        base = f"{prefix}{module}.{function}"
        names.append(f"{base}.s")
        if has_children:
            names.append(f"{base}.self_s")
        names.append(f"{base}.calls")
        if f"{module}.{function}" == SAMPLES:
            names.append(f"{base}.samples")
    return names


class Tracer:
    """Inclusive time, self time and call count per wrapped function."""

    def __init__(self):
        self.stats = {}
        self._stack = []
        self.spans = None
        self._rebound = []

    def install(self):
        # import every traced module first: ``cli`` is not loaded by the package
        owners = [importlib.import_module(f"{PACKAGE}.{module}") for module, _, _ in TRACED]
        modules = [m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for owner, (module, function, _) in zip(owners, TRACED):
            original = getattr(owner, function)
            wrapper = self._wrap(f"{module}.{function}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._rebound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound = []

    def reset(self, record_spans=False):
        """Start a new measurement window; spans are kept only when asked."""
        self.stats = {}
        self.spans = [] if record_spans else None

    def snapshot(self, prefix=""):
        """Metric name -> value for the current window, zero where not called."""
        out = {}
        for module, function, has_children in TRACED:
            name = f"{module}.{function}"
            calls, total, self_time, samples = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{prefix}{name}.s"] = total
            if has_children:
                out[f"{prefix}{name}.self_s"] = self_time
            out[f"{prefix}{name}.calls"] = calls
            if name == SAMPLES:
                out[f"{prefix}{name}.samples"] = samples
        return out

    def _wrap(self, name, fn):
        count_samples = name == SAMPLES
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span_id = None
            if spans is not None:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                entry = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[0]
                if count_samples and result is not None:
                    entry[3] += len(result)
                if span_id is not None:
                    spans[span_id] = {"name": name, "start": start, "end": end, "parent": parent}

        return traced
