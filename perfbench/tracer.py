"""In-memory span tracer that wraps the stereomatch layers from outside.

:class:`Tracer` replaces, for the duration of a traced run, every reference
that the loaded ``stereomatch`` modules hold to a traced function, and the
``forward``/``step`` methods of the traced classes, with timing wrappers.
Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts every
original object back.

Three families of spans are timed, each with its own self time (a span's
duration minus the spans of the same family nested inside it):

* ``component`` -- the model's parts (backbone, merge, ..., loss);
* ``op`` -- the public ops of ``stereomatch.autodiff`` and the hand-written
  ops that build graph nodes with ``_node`` directly;
* ``layer`` -- the reverse sweep, Adam, file codecs, evaluation and the
  synthetic generator.

Every graph node made while tracing gets its ``_backward`` closure wrapped,
so reverse-sweep time is charged to the op and the component whose forward
created the node.  Component and op totals (times, calls, multiply-adds,
nodes) accumulate only while :attr:`Tracer.in_op` is set, so work done
between timed ops, such as a held-out evaluation, stays out of the per-op
figures; layer totals accumulate always.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from math import prod

COMPONENTS = ("backbone", "merge", "correlation", "lift", "afv", "encoder",
              "decoder", "regression", "upsampler", "loss")
OP_BUCKETS = ("conv2d", "conv3d", "conv_transpose2d", "conv_transpose3d",
              "batch_norm", "leaky_relu", "mul", "concat", "narrow", "sigmoid",
              "other")
CONV_OPS = OP_BUCKETS[:4]

# Ops that live outside the autodiff package but build nodes with _node.
_CUSTOM_OPS = (
    ("stereomatch.regression", "top2_softargmax"),
    ("stereomatch.regression", "unfold3x3"),
    ("stereomatch.regression", "pixel_shuffle"),
    ("stereomatch.losses", "bilinear_upsample"),
)
_NOT_OPS = {"Tensor", "no_grad", "is_grad_enabled", "backward", "grad_check"}

_MARK = "__perfbench_wrapper__"


def _component_targets():
    from stereomatch import (aggregation, backbone, correlation, losses,
                             regression)
    methods = (
        (backbone.Backbone, "forward", "backbone"),
        (backbone.MergeUpsample, "forward", "merge"),
        (correlation.CorrelationLift, "forward", "lift"),
        (correlation.AttentionFeatureVolume, "forward", "afv"),
        (aggregation.Encoder, "forward", "encoder"),
        (aggregation.Decoder, "forward", "decoder"),
        (regression.SuperpixelUpsample, "forward", "upsampler"),
    )
    functions = (
        (correlation.build_correlation, "correlation"),
        (regression.top2_regression, "regression"),
        (losses.upsample_disparity, "loss"),
        (losses.smooth_l1, "loss"),
        (losses.total_loss, "loss"),
    )
    return methods, functions


def _op_targets():
    import stereomatch.autodiff as ad
    ops = [(getattr(ad, name), name) for name in ad.__all__ if name not in _NOT_OPS]
    for module, name in _CUSTOM_OPS:
        ops.append((getattr(sys.modules[module], name), name))
    return ops


def _layer_targets():
    from stereomatch import autodiff, fileio, metrics, synthetic, training
    methods = ((training.Adam, "step", "training.adam"),)
    functions = (
        (autodiff.backward, "autodiff.backward"),
        (fileio.read_ppm, "fileio.decode"),
        (fileio.write_pfm, "fileio.encode"),
        (fileio.write_ppm, "fileio.encode"),
        (metrics.evaluate, "metrics.evaluate"),
        (synthetic.synth_stereo, "synthetic.generate"),
    )
    return methods, functions


def _conv_macs(name, args, out) -> int:
    """Useful multiply-adds of one forward conv call, computed from shapes."""
    x, w = args[0], args[1]
    per_tap = w.shape[1] * prod(w.shape[2:])
    if name.startswith("conv_transpose"):
        return prod(x.shape) * per_tap      # every input tap reaches Cout*K outputs
    return prod(out.shape) * per_tap        # every output sums Ci*K products


class Totals:
    """Per-name accumulators for one window of traced ops."""

    def __init__(self):
        self.comp_fwd = defaultdict(float)
        self.comp_bwd = defaultdict(float)
        self.op_fwd = defaultdict(float)
        self.op_bwd = defaultdict(float)
        self.op_calls = defaultdict(int)
        self.op_macs = defaultdict(int)
        self.layer = defaultdict(float)
        self.nodes = 0


class Tracer:
    """Wraps the stereomatch layers while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []      # (name, family, parent, t0, t1)
        self.totals = Totals()
        self._open: list[int] = []        # span ids of the calls in progress
        self._family_stack = {"component": [], "op": [], "layer": []}
        self._patches: list[tuple] = []   # (owner, attribute, original)
        self.in_op = False

    # -- spans ----------------------------------------------------------------

    def _enter(self, family: str, name: str) -> list:
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, name, self._open[-1] if self._open else -1,
                 time.perf_counter(), 0.0]
        self._open.append(sid)
        self._family_stack[family].append(frame)
        return frame

    def _exit(self, family: str, frame: list) -> float:
        t1 = time.perf_counter()
        sid, name, parent, t0, nested = frame
        self._open.pop()
        stack = self._family_stack[family]
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][4] += duration
        self.spans[sid] = (name, family, parent, t0, t1)
        return duration - nested

    def reset(self) -> Totals:
        """Start a fresh window; returns the totals of the previous one."""
        done, self.totals = self.totals, Totals()
        return done

    # -- wrappers -------------------------------------------------------------

    def _wrap_component(self, fn, name):
        def wrapper(*args, **kwargs):
            frame = self._enter("component", name)
            try:
                return fn(*args, **kwargs)
            finally:
                self_s = self._exit("component", frame)
                if self.in_op:
                    self.totals.comp_fwd[name] += self_s
        return wrapper

    def _wrap_op(self, fn, name):
        bucket = name if name in OP_BUCKETS else "other"
        is_conv = bucket in CONV_OPS

        def wrapper(*args, **kwargs):
            frame = self._enter("op", bucket)
            try:
                out = fn(*args, **kwargs)
            finally:
                self_s = self._exit("op", frame)
            if self.in_op:
                self.totals.op_fwd[bucket] += self_s
                self.totals.op_calls[bucket] += 1
                if is_conv:
                    self.totals.op_macs[bucket] += _conv_macs(bucket, args, out)
            return out
        return wrapper

    def _wrap_layer(self, fn, name):
        def wrapper(*args, **kwargs):
            frame = self._enter("layer", name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.totals.layer[name] += self._exit("layer", frame)
        return wrapper

    def _wrap_node(self, fn):
        def wrapper(data, parents, backward_fn):
            out = fn(data, parents, backward_fn)
            if out._backward is not None:
                ops = self._family_stack["op"]
                comps = self._family_stack["component"]
                op = ops[-1][1] if ops else "other"
                comp = comps[-1][1] if comps else "none"
                out._backward = self._timed_backward(out._backward, op, comp)
                self.totals.nodes += self.in_op
            return out
        return wrapper

    def _timed_backward(self, bw, op, comp):
        def timed(g):
            t0 = time.perf_counter()
            grads = bw(g)
            t1 = time.perf_counter()
            if self.in_op:
                self.totals.op_bwd[op] += t1 - t0
                self.totals.comp_bwd[comp] += t1 - t0
            self.spans.append((f"{comp}/{op}", "backward",
                               self._open[-1] if self._open else -1, t0, t1))
            return grads
        return timed

    # -- install / uninstall --------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        """Point every stereomatch module global that is `original` at `wrapper`."""
        setattr(wrapper, _MARK, True)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("stereomatch"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_method(self, cls, attr, wrapper) -> None:
        setattr(wrapper, _MARK, True)
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> "Tracer":
        import stereomatch.autodiff.tensor as tensor
        if self._patches:
            raise RuntimeError("tracer is already installed")
        methods, functions = _component_targets()
        for cls, attr, name in methods:
            self._replace_method(cls, attr, self._wrap_component(getattr(cls, attr), name))
        for fn, name in functions:
            self._replace_everywhere(fn, self._wrap_component(fn, name))
        for fn, name in _op_targets():
            self._replace_everywhere(fn, self._wrap_op(fn, name))
        methods, functions = _layer_targets()
        for cls, attr, name in methods:
            self._replace_method(cls, attr, self._wrap_layer(getattr(cls, attr), name))
        for fn, name in functions:
            self._replace_everywhere(fn, self._wrap_layer(fn, name))
        self._replace_everywhere(tensor._node, self._wrap_node(tensor._node))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write_spans(self, path) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for sid, (name, family, parent, t0, t1) in enumerate(self.spans):
                f.write(f'{{"id": {sid}, "name": "{name}", "family": "{family}", '
                        f'"parent": {parent}, "start": {t0!r}, "end": {t1!r}}}\n')


def leftover_wrappers() -> list[str]:
    """Names of any tracer wrapper still reachable from a stereomatch module
    global or a class attribute defined in one (empty after uninstall)."""
    found = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("stereomatch"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append(f"{mod_name}.{attr}")
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    if getattr(cvalue, _MARK, False):
                        found.append(f"{mod_name}.{attr}.{cattr}")
    return found
