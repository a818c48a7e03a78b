"""Span tracing of one study call, installed from outside the package.

The tracer wraps, at run time, the public functions of each ``ltmlab``
module plus the few private entry points the per-layer metrics name (the
dense and Clifford LTM paths).  Every wrapped call is a span; a span's self
time is its duration minus the durations of its direct children, so the
self times of all spans in one call add up to the root span (``cli.main``).
Counts are taken at the same boundaries from the call arguments, which makes
them exact functions of the inputs.

Nothing is recorded while no call is open, so the benchmark's own output
checks, which use the same package, stay out of the numbers.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "ltm", "channels", "partitions", "montecarlo", "spectral", "variance")

# Span names that differ from "<layer>.<function>".  Private functions are
# listed here because the LTM path split lives below the public ltm_exact.
RENAMED = {
    ("cli", "write_csv"): "cli.write",
    ("cli", "write_sidecar"): "cli.write",
    ("ltm", "_ltm_dense"): "ltm.dense",
    ("ltm", "_ltm_clifford"): "ltm.clifford",
    ("partitions", "locality_vectors"): "partitions.locality",
    ("montecarlo", "estimate_variance"): "montecarlo.estimate",
    ("montecarlo", "haar_unitaries"): "montecarlo.haar",
    ("spectral", "deep_limit_matrix"): "spectral.deep_limit",
    ("variance", "variance_deep"): "variance.deep",
    ("variance", "variance_exact"): "variance.exact",
}

# Metrics whose value is a count of work, repeated bit for bit by two calls
# on the same inputs.
EXACT_COUNTS = (
    "ltm.dense.calls",
    "ltm.dense.basis",
    "ltm.clifford.calls",
    "ltm.refused",
    "channels.apply_fwd.matrices",
    "channels.apply_adj.matrices",
    "montecarlo.sample_layers",
    "spectral.perron.calls",
    "spectral.perron.blocks",
    "spectral.contractive_radius.calls",
)


class Tracer:
    """Records spans and counts of the study call that is open."""

    def __init__(self) -> None:
        self._open = False
        self._stack: list[list] = []  # [name, start, child seconds]
        self._restore: list[tuple[object, str, object]] = []
        self.calls: list[dict] = []

    # -- recording --------------------------------------------------------

    def begin(self) -> None:
        self._open = True
        self._self: defaultdict[str, float] = defaultdict(float)
        self._outer: defaultdict[str, float] = defaultdict(float)
        self._counts: Counter[str] = Counter()
        self._distinct: defaultdict[str, set] = defaultdict(set)

    def end(self) -> None:
        if self._stack:
            raise RuntimeError(f"spans left open: {[s[0] for s in self._stack]}")
        self._open = False
        for name, keys in self._distinct.items():
            self._counts[name] = len(keys)
        self.calls.append({"self": dict(self._self), "outer": dict(self._outer), "counts": dict(self._counts)})

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def count(self, name: str, amount: int = 1) -> None:
        self._counts[name] += amount

    def count_distinct(self, name: str, key) -> None:
        """``name`` ends up as the number of distinct keys seen in the call."""
        self._distinct[name].add(key)

    def _span(self, name: str, fn, count, args, kwargs):
        if not self._open:
            return fn(*args, **kwargs)
        parent = self.parent()
        if count is not None:
            count(self, parent, args, kwargs)
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except ValueError:
            # ltm_exact refuses a dimension it cannot handle by raising.
            if name == "ltm.ltm_exact":
                self._counts["ltm.refused"] += 1
            raise
        finally:
            duration = time.perf_counter() - frame[1]
            self._stack.pop()
            self._self[name] += duration - frame[2]
            if self._stack:
                self._stack[-1][2] += duration
            if not any(s[0] == name for s in self._stack):
                self._outer[name] += duration

    # -- installation -----------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._span(name, fn, count, args, kwargs)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every traced callable; rebinds names other modules imported."""
        import ltmlab  # noqa: F401  (loads every layer module)

        modules = {layer: sys.modules[f"ltmlab.{layer}"] for layer in LAYERS}
        rebind: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and (layer, attr) not in RENAMED:
                    continue
                name = RENAMED.get((layer, attr), f"{layer}.{attr}")
                rebind[id(obj)] = self._wrap(name, obj, _COUNTERS.get(name))
        for module in [m for k, m in sys.modules.items() if k == "ltmlab" or k.startswith("ltmlab.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in rebind and inspect.isfunction(obj):
                    self._set(module, attr, rebind[id(obj)])

        channels = modules["channels"]
        for cls in vars(channels).values():
            if inspect.isclass(cls) and issubclass(cls, channels.Channel) and "apply_batch" in vars(cls):
                self._set(cls, "apply_batch", self._wrap_apply(vars(cls)["apply_batch"]))
        mixture = channels.MixtureWithReplacement
        self._set(mixture, "__init__", self._wrap("channels.mixture_init", mixture.__init__))
        dec_cls = modules["spectral"].CanonicalDecomposition
        radius = vars(dec_cls)["contractive_radius"]
        self._set(
            dec_cls,
            "contractive_radius",
            property(self._wrap("spectral.contractive_radius", radius.fget, _count_calls("spectral.contractive_radius"))),
        )

    def _wrap_apply(self, fn):
        fwd = self._wrap("channels.apply_fwd", fn, _count_matrices("channels.apply_fwd"))
        adj = self._wrap("channels.apply_adj", fn, _count_matrices("channels.apply_adj"))

        @functools.wraps(fn)
        def apply_batch(channel, mats, adjoint=False):
            return (adj if adjoint else fwd)(channel, mats, adjoint=adjoint)

        return apply_batch

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)


# -- counters: (tracer, parent span, args, kwargs) -> None -------------------


def _count_calls(name: str):
    def count(tracer: Tracer, parent, args, kwargs) -> None:
        tracer.count(f"{name}.calls")

    return count


def _count_matrices(name: str):
    # Only matrices handed in from outside the channels layer: a noise
    # mixture passing its batch on to the inner channel is the same work.
    def count(tracer: Tracer, parent, args, kwargs) -> None:
        if parent is None or not parent.startswith("channels."):
            tracer.count(f"{name}.matrices", len(args[1]))

    return count


def _count_dense(tracer: Tracer, parent, args, kwargs) -> None:
    tracer.count("ltm.dense.calls")
    tracer.count("ltm.dense.basis", args[1].total_dim ** 2)


def _count_sample_layers(tracer: Tracer, parent, args, kwargs) -> None:
    spec, n_samples = args[0], args[1]
    tracer.count("montecarlo.sample_layers", n_samples * (spec.layers + 1))


def _count_perron(tracer: Tracer, parent, args, kwargs) -> None:
    block = np.ascontiguousarray(args[0] if args else kwargs["block"], dtype=float)
    tracer.count("spectral.perron.calls")
    tracer.count_distinct("spectral.perron.blocks", hashlib.blake2b(block.tobytes() + repr(block.shape).encode()).digest())


_COUNTERS = {
    "ltm.dense": _count_dense,
    "ltm.clifford": _count_calls("ltm.clifford"),
    "montecarlo.estimate": _count_sample_layers,
    "spectral.perron": _count_perron,
}


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics of one traced call, keyed by metric name."""
    self_s, outer, counts = record["self"], record["outer"], record["counts"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for span in (
        "cli.write",
        "ltm.dense",
        "ltm.clifford",
        "channels.apply_fwd",
        "channels.apply_adj",
        "channels.mixture_init",
        "partitions.locality",
        "montecarlo.estimate",
        "montecarlo.haar",
        "spectral.decompose",
        "spectral.perron",
        "spectral.period_of",
        "spectral.deep_limit",
        "spectral.contractive_radius",
        "variance.deep",
        "variance.exact",
        "variance.lower_bound",
        "variance.noise_model_deep",
    ):
        out[f"{span}_s"] = self_s.get(span, 0.0)
    for name in EXACT_COUNTS:
        out[name] = counts.get(name, 0)
    out["ltm.dense.basis_per_s"] = _rate(counts.get("ltm.dense.basis", 0), outer.get("ltm.dense", 0.0))
    out["montecarlo.sample_layers_per_s"] = _rate(
        counts.get("montecarlo.sample_layers", 0), outer.get("montecarlo.estimate", 0.0)
    )
    blocks = counts.get("spectral.perron.blocks", 0)
    out["spectral.perron.calls_per_block"] = counts.get("spectral.perron.calls", 0) / blocks if blocks else 0.0
    return out


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0
