"""Outside-in span tracer for featmod.

``Tracer.install`` replaces the listed featmod functions, in every
``featmod.*`` namespace and dispatch table that binds them, with wrappers
that record a span per call: name, parent span, start and end in
nanoseconds, and for tensor ops the multiply-accumulates (taken from operand
shapes) and output bytes. ``uninstall`` puts the originals back. Spans stay
in memory; ``round_metrics`` turns one round of them into per-layer numbers.

Modules import functions by name (``from .tensors import matmul``), so a
function is wrapped wherever the same object is bound: ``silu`` is
``swish``, and ``gradcheck_conditioner`` reaches the backward passes through
the ``_BACKWARDS`` table.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "tensors": ("matmul", "depthwise_conv1d", "softmax_lastdim", "gelu", "swish"),
    "norm": ("layer_norm", "viln_apply", "project_deltas", "central_difference"),
    "conditioning": ("cond_attn", "cond_conv", "cond_mlp", "gradcheck_conditioner"),
    "model": (
        "init_model", "block_forward_base", "block_forward_fmi",
        "_causal_self_attention", "_ffn", "_insert_forward",
    ),
    "vision": ("encode_stub", "pool_adaptive_2x2", "temporal_encode"),
    "diagnostics": ("modulation_influence", "feature_drift", "cosine_distance"),
    "costs": ("measured_flops", "cost_paradigm"),
}
BACKWARDS = ("cond_mlp_backward", "cond_conv_backward", "cond_attn_backward")
BACKWARD_SPAN = "conditioning.backward"
FUNCTION_SPANS = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)

COMPONENTS = ("self_attention", "ffn", "projections", "conditioner", "connector", "inserted_crossattn")
_COMPONENT_OF = {
    "model._causal_self_attention": "self_attention",
    "model._ffn": "ffn",
    "conditioning.cond_attn": "conditioner",
    "conditioning.cond_conv": "conditioner",
    "conditioning.cond_mlp": "conditioner",
    "norm.project_deltas": "conditioner",
}
_MAC_OPS = ("tensors.matmul", "tensors.depthwise_conv1d")
_OUTPUT_OPS = ("tensors.matmul", "tensors.depthwise_conv1d", "tensors.softmax_lastdim", "tensors.gelu", "tensors.swish")
_ROOT = "op:"
_PREFIX = "@prefix"  # inside an incontext forward, outside every block
_BLOCKS = ("model.block_forward_base", "model.block_forward_fmi")
_MB = float(1 << 20)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.missing: list[str] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._originals: dict[int, object] = {}
        self._patches: list[tuple[object, object, object]] = []
        # span columns, cleared in place by reset()
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.macs: list[int] = []
        self.out_bytes: list[int] = []
        self.is_projection: list[bool] = []
        self._stack: list[int] = []
        self._weights: list[tuple[int, ...]] = []
        self.loss_evals = 0
        self.captures: list[object] = []
        self.root_macs: dict[int, int] = {}
        self.root_component: dict[int, str] = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"featmod.{layer}")
            for fn in fns:
                self._add_target(module, fn, f"{layer}.{fn}")
        conditioning = importlib.import_module("featmod.conditioning")
        for fn in BACKWARDS:
            self._add_target(conditioning, fn, BACKWARD_SPAN)
        capture_cls = getattr(importlib.import_module("featmod.model"), "ForwardCapture", None)
        if capture_cls is not None:
            def capture(*args, **kwargs):
                cap = capture_cls(*args, **kwargs)
                self.captures.append(cap)
                return cap
            self._originals[id(capture_cls)] = capture_cls
            self._wrappers[id(capture_cls)] = capture

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _add_target(self, module, fn: str, span: str) -> None:
        original = getattr(module, fn, None)
        if not callable(original):
            self.missing.append(span)
            return
        self._originals[id(original)] = original
        self._wrappers[id(original)] = self._wrap(original, span)

    def _wrap(self, fn, span: str):
        name_id = self._name_id(span)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        macs, out_bytes, is_proj = self.macs, self.out_bytes, self.is_projection
        stack, weights, clock = self._stack, self._weights, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            macs.append(0)
            out_bytes.append(0)
            is_proj.append(False)
            ends.append(0)
            stack.append(idx)
            if span == "model._causal_self_attention":
                p = args[1]
                weights.append((id(p.wq), id(p.wk), id(p.wv), id(p.wo)))
            elif span == "norm.central_difference":
                loss_fn = args[0] if args else kwargs.pop("loss_fn")

                def counted():
                    tracer.loss_evals += 1
                    return loss_fn()

                args = (counted,) + args[1:]
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if span == "model._causal_self_attention":
                    weights.pop()
            if span in _OUTPUT_OPS:
                out_bytes[idx] = out.nbytes
                if span == "tensors.matmul":
                    macs[idx] = out.size * np.shape(args[0])[-1]
                    is_proj[idx] = bool(weights) and id(args[1]) in weights[-1]
                elif span == "tensors.depthwise_conv1d":
                    macs[idx] = out.size * np.shape(args[1])[-1]
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "featmod" and not modname.startswith("featmod."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None and self._originals[id(value)] is value:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, item in list(value.items()):
                        wrapper = self._wrappers.get(id(item))
                        if wrapper is not None and self._originals[id(item)] is item:
                            value[key] = wrapper
                            self._patches.append((value, key, item))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    # -- spans ------------------------------------------------------------

    def reset(self) -> None:
        for column in (self.name, self.parent, self.start, self.end, self.macs, self.out_bytes, self.is_projection):
            column.clear()
        self.loss_evals = 0
        self.captures.clear()
        self.root_macs.clear()
        self.root_component.clear()

    def open_root(self, op: str) -> int:
        """Span for one benchmark operation; featmod spans nest under it."""
        idx = len(self.name)
        self.name.append(self._name_id(_ROOT + op))
        self.parent.append(-1)
        self.macs.append(0)
        self.out_bytes.append(0)
        self.is_projection.append(False)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close_root(self, idx: int, counted_macs: int | None = None, incontext: bool = False) -> None:
        """counted_macs marks the root as a forward whose MACs are attributed."""
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()
        if counted_macs is not None:
            self.root_macs[idx] = counted_macs
            self.root_component[idx] = _PREFIX if incontext else ""

    def capture_bytes(self) -> int:
        total = 0
        for cap in self.captures:
            total += sum(h.nbytes for h in cap.hidden)
            total += sum(a.nbytes + b.nbytes for pairs in cap.modulation.values() for a, b in pairs)
        return total

    def spans(self) -> list[tuple]:
        return list(zip(
            range(len(self.name)), self.parent, (self.names[n] for n in self.name),
            self.start, self.end, self.macs, self.out_bytes,
        ))

    def round_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer numbers of the spans recorded since reset(), and failures
        of the check that component MACs sum to each forward's counted total."""
        n = len(self.name)
        names = [self.names[i] for i in self.name]
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                children[p] += duration[i]
        self_ns = [duration[i] - children[i] for i in range(n)]

        # component of each span, top-down (a parent always precedes its children)
        component: list[str | None] = [None] * n
        root_of = [-1] * n
        for i, p in enumerate(self.parent):
            if p < 0:
                root_of[i] = i
                component[i] = self.root_component.get(i)
                continue
            root_of[i] = root_of[p]
            inherited = component[p]
            name = names[i]
            if inherited is None or inherited == "inserted_crossattn":
                component[i] = inherited
            elif name == "model._insert_forward":
                component[i] = "inserted_crossattn"
            elif name in _COMPONENT_OF:
                component[i] = _COMPONENT_OF[name]
            elif inherited == _PREFIX:
                component[i] = "connector" if name in _MAC_OPS else "" if name in _BLOCKS else _PREFIX
            elif name == "tensors.matmul" and inherited == "self_attention" and self.is_projection[i]:
                component[i] = "projections"
            else:
                component[i] = inherited

        calls: dict[str, int] = defaultdict(int)
        self_ms: dict[str, float] = defaultdict(float)
        comp_ms: dict[str, float] = defaultdict(float)
        comp_macs: dict[str, int] = defaultdict(int)
        root_sum: dict[int, int] = defaultdict(int)
        matmul_macs = 0
        out_bytes = 0
        for i in range(n):
            name = names[i]
            if name.startswith(_ROOT):
                continue
            calls[name] += 1
            self_ms[name] += self_ns[i] / 1e6
            out_bytes += self.out_bytes[i]
            if name == "tensors.matmul":
                matmul_macs += self.macs[i]
            comp = component[i]
            if comp:  # "" marks forward time outside every component
                comp_ms[comp] += self_ns[i] / 1e6
                if name in _MAC_OPS:
                    comp_macs[comp] += self.macs[i]
                    root_sum[root_of[i]] += self.macs[i]

        failures = [
            f"component MACs {root_sum[idx]} != count_macs total {total} in {names[idx]}"
            for idx, total in self.root_macs.items()
            if total <= 0 or root_sum[idx] != total
        ]
        metrics: dict[str, float] = {}
        for span in FUNCTION_SPANS:
            metrics[f"{span}.calls"] = calls[span]
            metrics[f"{span}.self_ms"] = self_ms[span]
        matmul_ms = self_ms["tensors.matmul"]
        metrics["tensors.matmul.gflops"] = 2 * matmul_macs / (matmul_ms * 1e6) if matmul_ms else 0.0
        metrics["tensors.out_mb"] = out_bytes / _MB
        metrics["norm.central_difference.loss_evals"] = self.loss_evals
        metrics[f"{BACKWARD_SPAN}.calls"] = calls[BACKWARD_SPAN]
        metrics[f"{BACKWARD_SPAN}.self_ms"] = self_ms[BACKWARD_SPAN]
        metrics["model.capture_mb"] = self.capture_bytes() / _MB
        for comp in COMPONENTS:
            metrics[f"component.{comp}.ms"] = comp_ms[comp]
            metrics[f"component.{comp}.macs"] = comp_macs[comp]
            ms = comp_ms[comp]
            metrics[f"component.{comp}.gflops"] = 2 * comp_macs[comp] / (ms * 1e6) if ms else 0.0
        return metrics, failures
