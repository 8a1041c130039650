"""Span tracer for palnet, installed from outside the package.

`installed(tracer)` swaps the public functions that palnet's modules call
through their namespaces (`palnet.autodiff.gather`, `palnet.train.augment`,
...) and the entries of `palnet.autodiff._VJP` for timing wrappers, and puts
the originals back on exit.  The wrappers only time and count; arguments and
results pass through untouched, so a traced run computes the same bits as an
untraced one.

A span's self time is its duration minus the durations of the spans it
encloses.  Totals are kept per span name; `StepWindows` adds the per-step
view used for the phase shares of a training step.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

OP_KINDS = ("matmul", "gather", "scatter_add", "mul", "add", "sum",
            "transpose", "broadcast_to", "other")

# public op function in palnet.autodiff -> the op kind it records on the tape
OP_FUNCS = {
    "add": "add", "sub": "sub", "mul": "mul", "div": "div", "neg": "neg",
    "relu": "relu", "absolute": "abs", "exp": "exp", "log": "log", "sqrt": "sqrt",
    "reshape": "reshape", "transpose": "transpose", "broadcast_to": "broadcast_to",
    "gather": "gather", "scatter_add": "scatter_add", "reduce_sum": "sum",
    "matmul": "matmul",
}

# where an op runs: outside any backward, inside a recorded (create_graph)
# backward, or inside a paused (plain) backward
CONTEXTS = ("fwd", "bwd_graph", "bwd_plain")

# (module, attribute) -> span name; the attribute is looked up at call time
# by the caller, so replacing it on the module intercepts every call
LAYER_SPANS = {
    ("train", "load_sample"): "data.load_sample",
    ("train", "augment"): "data.augment",
    ("train", "build_prior"): "heatmap.build_prior",
    ("gradcheck", "build_prior"): "heatmap.build_prior",
    ("train", "forward"): "model.forward",
    ("train", "softmax_cross_entropy"): "model.ce",
    ("train", "save_checkpoint"): "model.checkpoint",
    ("train", "load_checkpoint"): "model.checkpoint",
    ("train", "attribution"): "attribution.attribution",
    ("train", "reduce_channels"): "attribution.reduce_channels",
    ("train", "pal_loss"): "losses.pal_loss",
    ("autodiff", "conv2d"): "autodiff.conv2d",
    ("autodiff", "maxpool2d"): "autodiff.maxpool2d",
}


def op_group(kind: str) -> str:
    return kind if kind in OP_KINDS else "other"


class Tracer:
    """Span totals for one traced stretch of work.

    `totals[name]` is `[calls, inclusive_s, self_s, out_bytes]`.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}
        self.stack: list[list] = []          # one [child_s] cell per open span
        self.toplevel_s = 0.0                # summed durations of outermost spans
        self.mode = "fwd"
        self.eval_depth = 0
        self.index_bytes = 0
        self.tape_nodes: list[int] = []      # tape length at each training backward
        self.steps = StepWindows(self)

    def _close(self, name, dt, child_s, out_bytes=0):
        stack = self.stack
        if stack:
            stack[-1][0] += dt
        else:
            self.toplevel_s += dt
        acc = self.totals.get(name)
        if acc is None:
            acc = self.totals[name] = [0, 0.0, 0.0, 0]
        acc[0] += 1
        acc[1] += dt
        acc[2] += dt - child_s
        acc[3] += out_bytes

    def wrap(self, name, fn):
        stack, clock, close = self.stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                close(name, dt, cell[0])

        return traced

    def wrap_kind(self, prefix, group, fn, is_op=False, index_arg=False):
        """Wrap an op (`is_op`) or a VJP rule; the span name carries the context."""
        names = {ctx: f"{prefix}.{group}@{ctx}" for ctx in CONTEXTS}
        stack, clock, close = self.stack, time.perf_counter, self._close

        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                if index_arg:
                    self.index_bytes += args[1].nbytes
                out_bytes = out.data.nbytes if is_op and out is not None else 0
                close(names[self.mode], dt, cell[0], out_bytes)

        return traced

    def wrap_backward(self, fn):
        graph = self.wrap("autodiff.backward_graph", fn)
        plain = self.wrap("autodiff.backward_plain", fn)

        def traced(out, wrt, create_graph=False):
            prev = self.mode
            self.mode = "bwd_graph" if create_graph else "bwd_plain"
            try:
                return (graph if create_graph else plain)(out, wrt, create_graph)
            finally:
                self.mode = prev
                if not create_graph and not self.eval_depth:
                    self.tape_nodes.append(len(out.tape))

        return traced

    def wrap_evaluate(self, fn):
        inner = self.wrap("train.evaluate", fn)

        def traced(*args, **kwargs):
            self.eval_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.eval_depth -= 1

        return traced

    def wrap_finite_diff(self, fn):
        def traced(f, x, eps=1e-5):
            return fn(self.wrap("gradcheck.objective", f), x, eps)

        return traced

    def wrap_adam(self, fn):
        inner = self.wrap("optim.adam_step", fn)

        def traced(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.steps.boundary()
            return out

        return traced

    def snapshot(self):
        return {k: list(v) for k, v in self.totals.items()}, self.toplevel_s


class StepWindows:
    """Per-step totals of training steps that ran back to back.

    A step window runs from the end of one `adam_step` to the end of the
    next, which is the interval between two consecutive step rows of
    `metrics.csv`.  Windows that hold an evaluation or a checkpoint (an
    epoch boundary) are left out, as the untraced step times leave them out.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.last = None                 # (time, totals snapshot, toplevel_s)
        self.count = 0
        self.wall_s = 0.0
        self.toplevel_s = 0.0
        self.sums: dict[str, list] = {}  # name -> [calls, incl_s, self_s, bytes]

    def reset(self):
        """Forget the previous boundary; call at the start of each train()."""
        self.last = None

    def boundary(self):
        now = time.perf_counter()
        totals, toplevel = self.tracer.snapshot()
        prev, self.last = self.last, (now, totals, toplevel)
        if prev is None:
            return
        t_prev, prev_totals, prev_toplevel = prev
        diff = {}
        for name, acc in totals.items():
            base = prev_totals.get(name, (0, 0.0, 0.0, 0))
            if acc[0] != base[0]:
                diff[name] = [a - b for a, b in zip(acc, base)]
        if "train.evaluate" in diff or "model.checkpoint" in diff:
            return
        self.count += 1
        wall = now - t_prev
        self.wall_s += wall
        self.toplevel_s += toplevel - prev_toplevel
        for name, d in diff.items():
            acc = self.sums.setdefault(name, [0, 0.0, 0.0, 0])
            for i in range(4):
                acc[i] += d[i]


@contextmanager
def installed(tracer: Tracer):
    """Install the tracer's wrappers into palnet for the duration of the block."""
    # `palnet.train` the attribute is the train() function; take the module
    ad, gc, tr = (importlib.import_module(f"palnet.{m}") for m in ("autodiff", "gradcheck", "train"))
    modules = {"autodiff": ad, "train": tr, "gradcheck": gc}
    patches = []   # (owner, key, original); owner is a module or the _VJP dict

    def patch_attr(module, attr, wrapper):
        patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    try:
        for func, kind in OP_FUNCS.items():
            patch_attr(ad, func, tracer.wrap_kind("autodiff.op", op_group(kind), getattr(ad, func),
                                                  is_op=True,
                                                  index_arg=kind in ("gather", "scatter_add")))
        for kind, rule in list(ad._VJP.items()):
            patches.append((ad._VJP, kind, rule))
            ad._VJP[kind] = tracer.wrap_kind("autodiff.vjp", op_group(kind), rule)
        for (mod, attr), name in LAYER_SPANS.items():
            patch_attr(modules[mod], attr, tracer.wrap(name, getattr(modules[mod], attr)))
        patch_attr(ad, "backward", tracer.wrap_backward(ad.backward))
        patch_attr(ad, "finite_diff", tracer.wrap_finite_diff(ad.finite_diff))
        patch_attr(tr, "evaluate", tracer.wrap_evaluate(tr.evaluate))
        patch_attr(tr, "adam_step", tracer.wrap_adam(tr.adam_step))
        yield tracer
    finally:
        for owner, key, original in reversed(patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
