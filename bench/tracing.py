"""Span tracing of nullheat from outside the package.

The traced run wraps the public functions of each nullheat module, every
`KernelSpec.evaluate`, each registered certificate check and the CLI's
`run_command`, and records one span per call in memory: name, start, end,
parent span and thread.  Nothing under `src/` is edited; a wrapper replaces
the function in *every* nullheat module that bound the name, because most
modules import their helpers by name (`restricted_mass_matrix` is bound in
`basis`, `observability`, `control`, `cli` and `certify`).

Ridge fallbacks are counted from the `RuntimeWarning`s the library already
emits; each warning is attached to the innermost open span of the thread
that raised it.
"""

import contextlib
import functools
import inspect
import itertools
import json
import math
import threading
import time
import warnings

LAYERS = ("basis", "kernels", "evolution", "_highprec", "observability",
          "control", "oracles", "certify", "config", "cli")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "thread", "attrs")

    def __init__(self, sid, name, parent, attrs):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.attrs = attrs
        self.end = None
        self.start = time.perf_counter()


class Tracer:
    """In-memory span recorder; `install` wraps the package, `uninstall` undoes it."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []
        self._paused = False

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, **attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1].sid
        elif self._main_stack:
            # a pool worker's span belongs to the call blocked on the pool
            parent = self._main_stack[-1].sid
        else:
            parent = None
        span = Span(next(self._ids), name, parent, attrs)
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span):
        span.end = time.perf_counter()
        self._stack().pop()

    def current(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside this block record no spans."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def wrap(self, fn, name, attrs_of=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            span = self.begin(name, **(attrs_of(*args, **kwargs) if attrs_of else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import importlib

        import nullheat
        from nullheat import certify, kernels

        modules = {name: importlib.import_module(f"nullheat.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [nullheat, importlib.import_module("nullheat.bundled")]
        special = {
            "_highprec.generalized_min_eig_mp": _mp_dps_attrs,
            "cli.run_command": lambda verb, *a, **k: {"verb": verb},
        }
        for layer, mod in modules.items():
            if layer == "certify":
                continue  # checks are traced through the registry below
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(fn, name, special.get(name))
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            self._set(ns, bound, traced)
        for cls in _subclasses(kernels.KernelSpec):
            if "evaluate" in vars(cls):
                self._set(cls, "evaluate", self.wrap(vars(cls)["evaluate"], "kernels.evaluate"))
        original = list(certify.CHECKS)
        self._undo.append((certify.CHECKS, slice(None), original))
        certify.CHECKS[:] = [(name, self.wrap(fn, f"certify.{name}")) for name, fn in original]
        self._set(warnings, "showwarning", self._record_warning)
        self._filters = warnings.filters[:]
        warnings.simplefilter("always", RuntimeWarning)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(attr, slice):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        warnings.filters[:] = self._filters

    def _record_warning(self, message, category, filename, lineno, file=None, line=None):
        span = self.current()
        if span is not None:
            span.attrs.setdefault("warnings", []).append(str(message))

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "thread": s.thread, **s.attrs}) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def _mp_dps_attrs(mus, modes, m_omega, t, dps=None):
    # the working precision generalized_min_eig_mp will choose
    if dps is None:
        spread = 2.0 * t * float(mus[0] - mus[-1])
        dps = int(max(40, spread / math.log(10.0) + 30))
    return {"dps": dps}


# ---------------------------------------------------------------------------
# per-layer metrics

CHECK_NAMES = (
    "eigenvalues-exact", "mode-normalization", "mass-identity-full-domain",
    "mass-gram-consistency", "mass-spectrum-bounds", "mass-monotonicity",
    "hs-domination", "truncation-monotone", "separable-exact",
    "projection-symmetric-bitwise", "gaussian-projection-oracle",
    "grid-projection-oracle", "semigroup-law", "growth-bound", "weyl-shift",
    "left-inverse", "propagation-oracle", "backward-roundtrip",
    "packet-constants", "packet-inequality", "packet-fit", "gramian-psd-taylor",
    "gramian-oracle", "cost-scalar-oracle", "cost-inequality-witness",
    "cost-monotonicity", "chain-dominance", "null-control-unstable",
    "duality-sharpness", "control-linearity", "control-cost-quadrature",
    "staged-control", "blowup-sweep",
)
VERBS = ("basis", "kernel-project", "evolve", "zeta", "obs-constant", "obs-sweep",
         "gramian", "cost", "cost-sweep", "control-hum", "control-lr", "certify-all")

# (span name, statistics); metric names drop the leading "_" of `_highprec`
# because a metric name must start with a letter
_SPAN_STATS = (
    ("basis.restricted_mass_matrix", ("calls", "self_s")),
    ("kernels.project_kernel", ("calls", "self_s")),
    ("kernels.hs_norm", ("self_s",)),
    ("kernels.evaluate", ("calls", "self_s")),
    ("evolution.decompose", ("calls", "self_s")),
    ("evolution.left_inverse_constant", ("calls", "self_s", "mp_escalations")),
    ("_highprec.generalized_min_eig_mp", ("calls", "self_s", "max_dps")),
    ("_highprec.smallest_eigenpair_mp", ("calls", "self_s")),
    ("_highprec.mass_matrix_mp", ("calls", "self_s")),
    ("_highprec.rayleigh_quotient_mp", ("self_s",)),
    ("observability.spectral_obs_constant", ("calls", "self_s")),
    ("observability.observability_gramian", ("self_s",)),
    ("observability.observability_cost", ("calls", "self_s", "ridge_fallbacks")),
    ("observability.cost_sweep", ("self_s",)),
    ("observability.proof_chain_report", ("self_s",)),
    ("control.hum_control", ("calls", "self_s", "ridge_fallbacks")),
    ("control.simulate_controlled", ("self_s",)),
    ("control.control_cost", ("self_s",)),
    ("control.lr_staged_control", ("self_s",)),
    ("oracles.midpoint_project_kernel", ("self_s",)),
    ("oracles.midpoint_hs_norm", ("self_s",)),
    ("oracles.crank_nicolson_propagate", ("self_s",)),
    ("oracles.gramian_time_quadrature", ("self_s",)),
    ("config.parse_config", ("self_s",)),
    ("config.format_config", ("self_s",)),
    ("cli.run_command", ("self_s",)),
)
_UNITS = {"calls": "count", "self_s": "s", "s": "s", "mp_escalations": "count",
          "ridge_fallbacks": "count", "max_dps": "digits"}


def metric_specs():
    """Every per-layer metric as (name, unit), in the order BENCHMARK.json lists them."""
    specs = [(f"{span.lstrip('_')}.{stat}", _UNITS[stat])
             for span, stats in _SPAN_STATS for stat in stats]
    specs += [(f"certify.{name}.s", "s") for name in CHECK_NAMES]
    specs += [(f"cli.{verb}.s", "s") for verb in VERBS]
    specs.append(("trace.pass_s", "s"))
    return specs


def _union_length(intervals, lo, hi):
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def layer_metrics(spans, passes, traced_pass_s):
    """Per-pass per-layer metrics from a finished span list.

    self_s is a span's duration minus the part of it its child spans cover
    (children on pool threads overlap, so the union is taken).
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    calls, self_s, total_s, warned, escalations = {}, {}, {}, {}, {}
    max_dps = 0
    for s in spans:
        dur = s.end - s.start
        covered = _union_length([(c.start, c.end) for c in children.get(s.sid, ())],
                                s.start, s.end)
        key = s.name
        if s.name == "cli.run_command":
            verb_key = f"cli.{s.attrs['verb']}"
            total_s[verb_key] = total_s.get(verb_key, 0.0) + dur
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + dur - covered
        total_s[key] = total_s.get(key, 0.0) + dur
        warned[key] = warned.get(key, 0) + len(s.attrs.get("warnings", ()))
        if s.name == "_highprec.generalized_min_eig_mp":
            max_dps = max(max_dps, s.attrs["dps"])
        if s.name == "evolution.left_inverse_constant" and any(
                c.name == "_highprec.generalized_min_eig_mp" for c in children.get(s.sid, ())):
            escalations[key] = escalations.get(key, 0) + 1
    stat_of = {
        "calls": lambda k: calls.get(k, 0) / passes,
        "self_s": lambda k: self_s.get(k, 0.0) / passes,
        "ridge_fallbacks": lambda k: warned.get(k, 0) / passes,
        "mp_escalations": lambda k: escalations.get(k, 0) / passes,
        "max_dps": lambda k: max_dps,
    }
    out = {}
    for span, stats in _SPAN_STATS:
        for stat in stats:
            out[f"{span.lstrip('_')}.{stat}"] = stat_of[stat](span)
    for name in CHECK_NAMES:
        out[f"certify.{name}.s"] = total_s.get(f"certify.{name}", 0.0) / passes
    for verb in VERBS:
        out[f"cli.{verb}.s"] = total_s.get(f"cli.{verb}", 0.0) / passes
    out["trace.pass_s"] = traced_pass_s
    return out
