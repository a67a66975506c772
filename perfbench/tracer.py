"""In-memory span tracer that wraps the package's public functions.

A target is wrapped in every module that binds it, so from-imports
(``experiments`` binding ``stage_conditionals``) and bare-name calls
inside the defining module (``qcore.project`` calling ``is_projector``)
both go through the wrapper.  Each call records a span (function, start,
end, parent).  Spans stay in memory until ``summary`` is called; a
span's self time is its duration minus the durations of its child
spans, which nest because the traced code runs on one thread.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Target:
    layer: str            # metric prefix: the package module, "kernels" or "io"
    module: str           # module that defines the function
    qualname: str         # "function" or "Class.method"
    mb: str | None = None  # "result" or "arg1": the text whose size to add up
    distinct: bool = False  # count distinct arguments per operation

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.qualname}"


def _t(layer, qualname, module=None, **kw):
    return Target(layer, module or f"toolate.{layer}", qualname, **kw)


TARGETS: tuple[Target, ...] = (
    _t("cli", "main"),
    _t("experiments", "run_epr"),
    _t("experiments", "run_toolate"),
    _t("experiments", "run_interference"),
    _t("experiments", "run_erasure"),
    _t("experiments", "run_lhv_compare"),
    _t("experiments", "run_verify"),
    _t("experiments", "sample_protocol"),
    _t("experiments", "records_text", mb="result"),
    _t("experiments", "json_report_text"),
    _t("experiments", "EstimateTable.to_csv_text"),
    _t("kernels", "protocol_outcomes", "toolate._kernels"),
    _t("kernels", "categorical_counts", "toolate._kernels"),
    _t("kernels", "trial_seeds", "toolate._kernels"),
    _t("kernels", "cumulative", "toolate._kernels"),
    _t("kernels", "trial_seed", "toolate.rng"),
    _t("kernels", "uniform_at", "toolate.rng"),
    _t("protocol", "prepare_joint"),
    _t("protocol", "stage_conditionals", distinct=True),
    _t("protocol", "composed_distribution"),
    _t("protocol", "joint_distribution"),
    _t("protocol", "value_projectors"),
    _t("protocol", "exit_projector"),
    _t("protocol", "measure_value"),
    _t("protocol", "measure_orientation"),
    _t("protocol", "run_trial"),
    _t("qcore", "project"),
    _t("qcore", "is_projector"),
    _t("qcore", "projection_probability"),
    _t("qcore", "validate_partition", distinct=True),
    _t("qcore", "sample"),
    _t("audit", "verify_states"),
    _t("audit", "oracle_conditional_state"),
    _t("interference", "swap_report"),
    _t("interference", "erase_paths"),
    _t("interference", "recombine"),
    _t("lhv", "conspiracy_predictions"),
    _t("lhv", "enumerate_chsh_max"),
    _t("spinlab", "correlation_exact"),
    _t("spinlab", "chsh_value"),
    Target("io", "pathlib", "Path.write_text", mb="arg1"),
)

LAYERS = ("cli", "experiments", "kernels", "protocol", "qcore", "audit",
          "interference", "lhv", "spinlab", "io")


def _arg_key(obj):
    """Hashable stand-in for an argument; arrays compare by content."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype.str, hashlib.blake2b(obj.tobytes(), digest_size=16).digest())
    if isinstance(obj, (list, tuple)):
        return tuple(_arg_key(x) for x in obj)
    return obj


def _text_mb(text) -> float:
    return len(text) / 1e6 if isinstance(text, (str, bytes)) else 0.0


class Tracer:
    """Wraps TARGETS on ``install`` and restores them on ``uninstall``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []      # [target index, start, end, parent span]
        self.mb = [0.0] * len(targets)
        self.distinct = [0] * len(targets)
        self.op_walls: list[float] = []
        self._stack: list[int] = []
        self._op_keys: dict[int, set] = {}
        self._bindings = self._resolve()

    def _resolve(self):
        """(owner, attribute, original, wrapper, owned) for every binding of every target."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "toolate" or name.startswith("toolate.")]
        bindings = []
        for index, target in enumerate(self.targets):
            owner = importlib.import_module(target.module)
            *outer, attr = target.qualname.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(index, original)
            if outer:
                bindings.append((owner, attr, original, wrapper, attr in vars(owner)))
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, name, original, wrapper, True))
        return bindings

    def _wrap(self, index, fn):
        spans, stack, mb, keys = self.spans, self._stack, self.mb, self._op_keys
        target = self.targets[index]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.distinct:
                keys.setdefault(index, set()).add(_arg_key((args, tuple(sorted(kwargs.items())))))
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if target.mb == "result":
                mb[index] += _text_mb(result)
            elif target.mb == "arg1" and len(args) > 1:
                mb[index] += _text_mb(args[1])
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper, _ in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _, owned in self._bindings:
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def begin_op(self) -> None:
        self._op_keys.clear()

    def end_op(self, wall_s: float) -> None:
        self.op_walls.append(wall_s)
        for index, keys in self._op_keys.items():
            self.distinct[index] += len(keys)

    def summary(self) -> dict:
        """Per-operation calls, self seconds, MB and distinct ratio for each target,
        per-layer self seconds, and the op wall time no root span covers."""
        n = len(self.targets)
        calls = [0] * n
        child = [0.0] * len(self.spans)
        covered = 0.0
        for index, start, end, parent in self.spans:
            dur = end - start
            calls[index] += 1
            if parent >= 0:
                child[parent] += dur
            else:
                covered += dur
        self_s = [0.0] * n
        for i, (index, start, end, _) in enumerate(self.spans):
            self_s[index] += (end - start) - child[i]
        ops = max(1, len(self.op_walls))
        functions = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for index, target in enumerate(self.targets):
            layers[target.layer] += self_s[index] / ops
            functions[target.name] = {
                "calls": calls[index] / ops,
                "self_s": self_s[index] / ops,
                "mb": self.mb[index] / ops,
                "distinct_ratio": self.distinct[index] / calls[index] if calls[index] else 0.0,
            }
        return {
            "ops": len(self.op_walls),
            "functions": functions,
            "layers": layers,
            "untraced_s": (sum(self.op_walls) - covered) / ops,
        }

