"""Spans around the calls into each crossfuse module, recorded from outside.

``Tracer.install`` swaps each traced public function for a wrapper in
every crossfuse module namespace that holds it.  ``dmff``, ``icfe``,
``train`` and ``gradcheck`` import their callees by name, so patching only
the defining module would miss those calls.

A span records its name, start, end, parent span and the op window it
started in.  Spans stay in flat in-memory arrays while the run lasts and
are written out by ``save``.  ``layer_times`` turns them into self and
total times over the sampled op windows: a span's time inside the windows
is its overlap with them, and its self time is that overlap minus its
children's overlap.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

TC_OPS = (
    "matmul", "transpose", "add", "sub", "mul", "scalar_mul", "const_scale",
    "relu", "sigmoid", "sum_all", "mean_all", "reshape", "col_slice",
    "concat_cols", "softmax_rows", "pool2d", "bilinear_resize",
    "space_to_channel", "backward", "read_rawtensor", "write_rawtensor",
)
MODULE_FUNCS = {
    "tensor_core": TC_OPS,
    "token_codec": ("tokenize", "detokenize"),
    "sfs": ("shrink",),
    "cfe": ("cross_attention", "ffn", "cfe_forward"),
    "icfe": ("icfe_forward",),
    "dmff": ("dmff_fuse", "nin_fuse", "replace_parameters", "init_dmff_weights"),
    "train": ("sgd_update", "train_toy"),
    "gradcheck": ("grad_check",),
    "weights_io": ("load_weights", "save_weights"),
    "synth": ("gen_synthetic_pair",),
}
GROUPS = {
    "tensor_core.layout": ("reshape", "transpose", "col_slice", "concat_cols",
                           "space_to_channel"),
    "tensor_core.elementwise": ("add", "sub", "mul", "scalar_mul", "relu",
                                "sigmoid", "mean_all", "sum_all"),
}
# Their self time is harness glue between the traced layers, not layer work.
HARNESS_SPANS = ("train.train_toy", "gradcheck.grad_check")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.windows = []  # (start, end, sample index or -1)
        self._current = [-1]  # sample index of the open op window, -1 outside samples
        self.softmax_bytes = 0
        self.tape_steps = 0
        self.mults = {}  # multiplies per op_stage, summed over sampled windows
        self.counter = None
        self._stack = [-1]
        self._stage = ["other"]
        self._patched = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, note=None):
        nid = self._id(name)
        name_id, parent, op, start, end = (self.name_id, self.parent, self.op,
                                           self.start, self.end)
        stack, current, clock = self._stack, self._current, time.perf_counter
        if name == "tensor_core.matmul":
            # matmul spans are named per op_stage, so GMAC/s can be split by stage
            stage, ids = self._stage, {}

            def span_name():
                key = stage[-1]
                if key not in ids:
                    ids[key] = self._id(f"{name}@{key}")
                return ids[key]
        else:
            def span_name():
                return nid

        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(span_name())
            parent.append(stack[-1])
            op.append(current[0])
            if note is not None and current[0] >= 0:
                note(args)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _staged(self, fn):
        stage = self._stage

        @contextmanager
        def op_stage(name):
            stage.append(name)
            try:
                with fn(name):
                    yield
            finally:
                stage.pop()

        return op_stage

    def _note_softmax(self, args):
        self.softmax_bytes += 2 * args[0].data.nbytes  # computed: input read + output written

    def _note_backward(self, args):
        self.tape_steps += args[1].num_steps

    def install(self, pkg):
        """Wrap the traced functions of the imported crossfuse package `pkg`."""
        replace = {}
        notes = {"softmax_rows": self._note_softmax, "backward": self._note_backward}
        for mod, funcs in MODULE_FUNCS.items():
            module = getattr(pkg, mod)
            for f in funcs:
                orig = getattr(module, f)
                replace[id(orig)] = self._wrap(f"{mod}.{f}", orig, notes.get(f))
        self.counter = pkg.tensor_core.MultiplyCounter()
        stage_fn = pkg.tensor_core.op_stage
        replace[id(stage_fn)] = self._staged(stage_fn)
        prefix = pkg.__name__ + "."
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == pkg.__name__ or n.startswith(prefix))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                new = replace.get(id(value))
                if new is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, new)

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- op windows (driven by the workload's recorder) --------------------

    def open_window(self, t: float, sample_index: int):
        self._current[0] = sample_index
        self._window = [t, None, dict(self.counter.counts), None, sample_index]

    def end_window(self, t: float):
        """The op's own work is over; checks that follow stay outside the window."""
        self._window[1] = t
        self._window[3] = dict(self.counter.counts)
        self._current[0] = -1

    def close_window(self, sample: bool):
        start, end, at_open, at_end, index = self._window
        self.windows.append((start, end, index if sample else -1))
        if sample:
            for stage, n in at_end.items():
                self.mults[stage] = self.mults.get(stage, 0) + n - at_open.get(stage, 0)

    # -- analysis -----------------------------------------------------------

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int32), op=np.frombuffer(self.op, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end),
            windows=np.array(self.windows, dtype=np.float64).reshape(-1, 3))

    def durations(self, name: str) -> np.ndarray:
        """Durations of every span called `name`, sampled window or not."""
        if name not in self._ids:
            return np.zeros(0)
        mask = np.frombuffer(self.name_id, np.int32) == self._ids[name]
        return np.frombuffer(self.end)[mask] - np.frombuffer(self.start)[mask]

    def layer_times(self):
        """Per-name (total, self, calls) inside sampled windows, and the time
        covered by spans other than the self time of HARNESS_SPANS."""
        start = np.frombuffer(self.start)
        end = np.frombuffer(self.end)
        name_id = np.frombuffer(self.name_id, np.int32)
        parent = np.frombuffer(self.parent, np.int32)
        op = np.frombuffer(self.op, np.int32)
        wins = np.array([(s, e) for s, e, i in self.windows if i >= 0]).reshape(-1, 2)
        # cumulative sampled time up to each window edge; in_windows(t) interpolates
        edges = wins.reshape(-1)
        cum = np.concatenate([[0.0], np.cumsum(wins[:, 1] - wins[:, 0])])
        cum_edges = np.repeat(cum, 2)[1:-1]

        def in_windows(t):
            return np.interp(t, edges, cum_edges) if len(edges) else np.zeros_like(t)

        inside = in_windows(end) - in_windows(start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=inside[has_parent],
                            minlength=len(start))
        own = inside - child
        n = len(self.names)
        total = np.bincount(name_id, weights=inside, minlength=n)
        self_t = np.bincount(name_id, weights=own, minlength=n)
        calls = np.bincount(name_id, weights=(op >= 0), minlength=n)
        top = np.bincount(name_id[~has_parent], weights=inside[~has_parent], minlength=n)
        out = {name: (total[i], self_t[i], calls[i]) for i, name in enumerate(self.names)}
        harness_self = sum(out.get(d, (0, 0, 0))[1] for d in HARNESS_SPANS)
        covered = top.sum() - harness_self
        return out, covered
