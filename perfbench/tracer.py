"""Spans around calls into the program's public functions, installed from
the benchmark's side by replacing each name where callers look it up.

Callers reach the autodiff ops through ``ad.<op>`` attribute lookups, and
some modules import functions by name (``forward`` in pipeline and
latent_map, ``save_snapshot`` in several modules), so a wrapper replaces
every module attribute of the package that is the original function. PET
hooks and ``MapNet.forward`` are replaced on their classes. Local gradient
rules are timed by wrapping the ``grad_fn`` that ``autodiff._make`` stores
on each graph node, so their spans sit inside ``backward``.

A span records name, start, end, parent span and the current step (number
of ``adam_step`` calls so far) and sample (number of ``forward`` calls so
far). Spans stay in memory until ``write``. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from bridgetune import analysis, bridges, latent_map, pets, pipeline, snapshot, spline, tasks
from bridgetune import autodiff as ad
from bridgetune import backbone

PET_HOOKS = ("attach_input", "qv_delta", "bias", "adapt")
# Per-layer metrics counted by the wrappers rather than read off the spans.
COUNTERS = ("autodiff.backward.nodes", "autodiff.clip_gradients.clipped",
            "backbone.forward.columns", "snapshot.save.bytes", "snapshot.load.bytes")
# Op kinds whose function in autodiff has another name.
OP_FUNCTIONS = {"sum": "tensor_sum"}


def op_function(kind):
    name = OP_FUNCTIONS.get(kind, kind)
    if not callable(getattr(ad, name, None)):
        raise LookupError(f"autodiff has no function for op kind {kind!r}")
    return name


def layer_metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for kind in ad.op_kinds():
        units[f"autodiff.op.{kind}.calls"] = "count"
        units[f"autodiff.op.{kind}.self_s"] = "s"
        units[f"autodiff.grad.{kind}.s"] = "s"
    units.update({
        "autodiff.backward.calls": "count", "autodiff.backward.self_s": "s",
        "autodiff.backward.nodes": "count",
        "autodiff.adam_step.self_s": "s", "autodiff.clip_gradients.self_s": "s",
        "autodiff.clip_gradients.clipped": "count",
    })
    for mode in ("grad", "nograd"):
        units[f"backbone.forward.{mode}.calls"] = "count"
        units[f"backbone.forward.{mode}.self_s"] = "s"
    units["backbone.forward.columns"] = "count"
    for hook in PET_HOOKS:
        units[f"pets.{hook}.calls"] = "count"
        units[f"pets.{hook}.self_s"] = "s"
    for name in ("goodness_pdf", "goodness_sde", "mapnet_forward"):
        units[f"latent_map.{name}.calls"] = "count"
        units[f"latent_map.{name}.self_s"] = "s"
    units.update({
        "latent_map.collect_traces.self_s": "s",
        "latent_map.spline_weights.hit_ratio": "ratio",
        "spline.interp_weights.calls": "count",
        "bridges.mean_coeff.calls": "count", "bridges.marginal_variance.calls": "count",
        "pipeline.train_pet.self_s": "s", "pipeline.total_loss.self_s": "s",
        "pipeline.evaluate.calls": "count", "pipeline.evaluate.self_s": "s",
        "pipeline.dump_probe_traces.self_s": "s",
        "analysis.bridge_distance.calls": "count", "analysis.bridge_distance.self_s": "s",
        "analysis.trace_from_arrays.self_s": "s",
    })
    for name in ("save", "load"):
        units[f"snapshot.{name}.calls"] = "count"
        units[f"snapshot.{name}.bytes"] = "B"
        units[f"snapshot.{name}.self_s"] = "s"
    units["tasks.self_s"] = "s"
    return units


def spline_cache_clear():
    """Empty the cache behind goodness_sde's spline weights, statistics
    included; the runner does so at the start of every round."""
    clear = getattr(latent_map._spline_feature_weights, "cache_clear", None)
    if clear is not None:
        clear()


def _spline_cache():
    """(hits, misses) of that cache since it was last cleared; (0, 0) when
    the program keeps no such cache."""
    info = getattr(latent_map._spline_feature_weights, "cache_info", None)
    if info is None:
        return 0, 0
    i = info()
    return i.hits, i.misses


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_step = array("i")
        self.span_sample = array("i")
        self._stack = []
        self.step = 0
        self.sample = 0
        self._calls = defaultdict(int)
        self._self = defaultdict(float)
        self.counts = defaultdict(int)
        self._undo = []

    # ------------------------------------------------------------ spans

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _enter(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_step.append(self.step)
        self.span_sample.append(self.sample)
        self.span_end.append(0.0)
        self._stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def _exit(self):
        end = time.perf_counter()
        idx, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        nid = self.span_name[idx]
        self._calls[nid] += 1
        self._self[nid] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def _wrap(self, name, fn, after=None):
        nid = self._id(name)
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # ------------------------------------------------------------ install

    def _replace(self, orig, new):
        """Point every bridgetune module attribute that is orig at new."""
        found = False
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bridgetune" or mod_name.startswith("bridgetune.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))
                    found = True
        if not found:
            raise LookupError(f"{orig!r} is not reachable from the bridgetune package")

    def _replace_method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def _function(self, module, attr, name, after=None):
        orig = getattr(module, attr)
        self._replace(orig, self._wrap(name, orig, after))

    def install(self):
        counts = self.counts
        for kind in ad.op_kinds():
            self._function(ad, op_function(kind), f"autodiff.op.{kind}")
        grad_ids = {kind: self._id(f"autodiff.grad.{kind}") for kind in ad.op_kinds()}
        make = ad._make
        enter, exit_ = self._enter, self._exit

        def traced_make(op_kind, parents, out_data, grad_fn):
            nid = grad_ids[op_kind]

            def timed_grad_fn(g):
                counts["autodiff.backward.nodes"] += 1
                enter(nid)
                try:
                    return grad_fn(g)
                finally:
                    exit_()

            return make(op_kind, parents, out_data, timed_grad_fn)

        self._replace(make, traced_make)
        self._function(ad, "backward", "autodiff.backward")

        def count_step(args, kwargs, out):
            self.step += 1

        self._function(ad, "adam_step", "autodiff.adam_step", after=count_step)

        def count_clip(args, kwargs, norm):
            max_norm = args[2] if len(args) > 2 else kwargs["max_norm"]
            if norm > max_norm:
                counts["autodiff.clip_gradients.clipped"] += 1

        self._function(ad, "clip_gradients", "autodiff.clip_gradients", after=count_clip)

        forward = backbone.forward
        grad_id = self._id("backbone.forward.grad")
        nograd_id = self._id("backbone.forward.nograd")

        @functools.wraps(forward)
        def traced_forward(state, tokens, mask_position, pet=None):
            tokens = list(tokens)
            self.sample += 1
            counts["backbone.forward.columns"] += len(tokens)
            enter(grad_id if ad.grad_enabled() else nograd_id)
            try:
                return forward(state, tokens, mask_position, pet=pet)
            finally:
                exit_()

        self._replace(forward, traced_forward)
        self._function(backbone, "pretrain_mlm", "backbone.pretrain_mlm")

        def count_prompt_columns(args, kwargs, out):
            counts["backbone.forward.columns"] += out.data.shape[1] - args[1].data.shape[1]

        for cls in [pets.PetParams, *pets.PetParams.__subclasses__()]:
            for hook in PET_HOOKS:
                if hook in cls.__dict__:
                    after = count_prompt_columns if hook == "attach_input" else None
                    self._replace_method(cls, hook, self._wrap(
                        f"pets.{hook}", cls.__dict__[hook], after))
        self._replace_method(latent_map.MapNet, "forward", self._wrap(
            "latent_map.mapnet_forward", latent_map.MapNet.forward))
        for attr in ("goodness_pdf", "goodness_sde", "collect_traces", "fit_map"):
            self._function(latent_map, attr, f"latent_map.{attr}")
        self._function(spline, "interp_weights", "spline.interp_weights")
        for attr in ("mean_coeff", "marginal_variance"):
            self._function(bridges, attr, f"bridges.{attr}")
        for attr in ("train_pet", "total_loss", "evaluate", "dump_probe_traces"):
            self._function(pipeline, attr, f"pipeline.{attr}")
        for attr in ("bridge_distance", "trace_from_arrays"):
            self._function(analysis, attr, f"analysis.{attr}")

        def count_bytes(key):
            def after(args, kwargs, out):
                counts[key] += os.path.getsize(args[0])
            return after

        self._function(snapshot, "save_snapshot", "snapshot.save",
                       after=count_bytes("snapshot.save.bytes"))
        self._function(snapshot, "load_snapshot", "snapshot.load",
                       after=count_bytes("snapshot.load.bytes"))
        for attr, value in list(vars(tasks).items()):
            if callable(value) and not attr.startswith("_") and not isinstance(value, type) \
                    and getattr(value, "__module__", None) == tasks.__name__:
                self._function(tasks, attr, f"tasks.{attr}")
        self.take()

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ metrics

    def take(self):
        """Per-layer metrics since the previous call, then start afresh."""
        calls = {self.names[i]: n for i, n in self._calls.items()}
        self_s = {self.names[i]: s for i, s in self._self.items()}
        hits, misses = _spline_cache()
        counts = dict(self.counts)
        self._calls.clear()
        self._self.clear()
        self.counts.clear()

        m = {}
        for name in layer_metric_units():
            span, _, field = name.rpartition(".")
            if name in COUNTERS:
                m[name] = counts.get(name, 0)
            elif field == "calls":
                m[name] = calls.get(span, 0)
            else:  # self_s, or s for the grad rules
                m[name] = self_s.get(span, 0.0)
        m["latent_map.spline_weights.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        m["tasks.self_s"] = sum((s for name, s in self_s.items() if name.startswith("tasks.")), 0.0)
        return m

    def write(self, path):
        """All spans as numpy columns; ``names`` maps the name ids."""
        np.savez(path, names=np.asarray(self.names), name=np.frombuffer(self.span_name, np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 step=np.frombuffer(self.span_step, np.int32),
                 sample=np.frombuffer(self.span_sample, np.int32))
