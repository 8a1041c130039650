"""Dense float64 tensors on a reverse-mode differentiation tape.

`backward` differentiates with respect to any tensor tracked on the tape,
and runs backward rules only on the nodes that lie on a path from one of
those tensors to the output.  The backward pass can itself be recorded
(``create_graph=True``), so a loss that contains a gradient, such as an
attribution map, stays differentiable and a second backward pass yields
correct second-order derivatives.  Every primitive's backward rule is written
with the same public ops, which is what makes the higher-order path work
without special cases.

Conventions baked in here:
  * everything is float64,
  * d|x|/dx at 0 is 0, dReLU/dx at 0 is 0,
  * max-pool routes gradient to the first argmax in row-major window order
    and treats that selection as locally constant,
  * non-finite values raise instead of propagating: every op that can make
    NaN/Inf checks its own output (`_all_finite`, a sum of squares) and
    raises `NonFiniteError` naming itself.  NumPy's floating-point warnings
    are silenced for that check with one ``np.errstate`` per op, or one per
    `backward` pass and per `train.training_loss` (`_fp_scope`), inside
    which ops skip their own,
  * a constant is any operand that is not a Tensor; every op checks its
    constants for NaN/Inf, recorded or not, and a recorded op also checks an
    untracked Tensor as it puts it on the tape,
  * constants are converted to float64, except that `add`, `sub`, `mul` and
    `div` take a boolean array as is (finite by type, cast in NumPy's loop).
"""

from __future__ import annotations

import math
import mmap
import os
import sys
import weakref
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np


class EngineError(Exception):
    """Base class for failures inside the differentiation engine."""


class ShapeError(EngineError):
    pass


class NonFiniteError(EngineError):
    pass


class TapeError(EngineError):
    pass


class Node:
    """One recorded op.  `value` is None unless a backward rule reads it."""

    __slots__ = ("op", "inputs", "value", "shape", "ctx")

    def __init__(self, op, inputs, value, shape, ctx):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.shape = shape
        self.ctx = ctx


class Tape:
    """Append-only record of operations; node inputs always precede the node.

    A node keeps its value only when a backward rule reads it: its own rule
    (see `_Op.keep_output`) or a recorded consumer's (see `_Op.keep_inputs`).
    Every other value is freed as soon as the caller drops its Tensor.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self.recording = True

    def __len__(self):
        return len(self.nodes)

    def leaf(self, value) -> "Tensor":
        arr = np.asarray(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError("leaf value contains NaN/Inf")
        self.nodes.append(Node("leaf", (), None, arr.shape, None))
        return Tensor(arr, self, len(self.nodes) - 1)

    def tensor(self, node_id: int) -> "Tensor":
        node = self.nodes[node_id]
        if node.value is None:
            raise TapeError(f"node {node_id} ('{node.op}') kept no value on the tape")
        return Tensor(node.value, self, node_id)

    @contextmanager
    def paused(self):
        """Context manager: ops compute values but record nothing."""
        prev, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = prev


class Tensor:
    """A dense float64 array, optionally tracked on a tape."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Tape | None = None, node: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node = node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def tracked(self) -> bool:
        return self.tape is not None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = f", node={self.node}" if self.tracked else ""
        return f"Tensor(shape={self.shape}{tag})"


# ---------------------------------------------------------------------------
# op plumbing
# ---------------------------------------------------------------------------


class _Op(NamedTuple):
    """What `_apply` needs to run and record one op kind."""

    eval: Callable
    keep_output: bool = False           # its backward rule reads its own output
    keep_inputs: tuple[int, ...] = ()   # positions of the inputs its backward rule reads
    check_finite: bool = True           # False for data movement: finite in, finite out
    takes_bool: bool = False            # its eval casts a boolean constant in NumPy's loop


_OPS: dict[str, _Op] = {}
# kind -> backward rule, looked up at call time: perfbench/tracer.py swaps entries
_VJP: dict[str, Callable] = {}


def _register(kind: str, eval: Callable, vjp: Callable, **facts) -> None:
    _OPS[kind] = _Op(eval, **facts)
    _VJP[kind] = vjp


# set inside `_fp_scope`; a ContextVar is per thread and per task, as errstate is
_FP_QUIET: ContextVar[bool] = ContextVar("_FP_QUIET", default=False)


@contextmanager
def _fp_scope():
    """Silence NumPy's floating-point warnings once for a whole pass of ops.

    Each op still checks its own output and raises `NonFiniteError` naming
    itself; inside this scope it only skips entering ``np.errstate`` again.
    """
    token = _FP_QUIET.set(True)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            yield
    finally:
        _FP_QUIET.reset(token)


# ---------------------------------------------------------------------------
# workspace: planned buffers for the large outputs of a repeated pass
# ---------------------------------------------------------------------------

# op outputs at least this large come from the active Workspace
_ARENA_MIN_BYTES = 256 * 1024
_ALIGN = 64

# the Workspace whose ``with`` block is running, process-wide: a plain global
# costs the ops run outside any workspace less than a ContextVar lookup
_ACTIVE: "Workspace | None" = None


def _nbytes(shape) -> int:
    """A float64 buffer's bytes, rounded up to whole `_ALIGN` blocks."""
    return -(-8 * math.prod(shape) // _ALIGN) * _ALIGN


def _fit(taken, size: int) -> int:
    """Offset of the smallest gap between the byte ranges `taken` that holds
    `size` bytes, else of their top."""
    best, best_gap, top = None, None, 0
    for lo, hi in sorted(taken):
        if lo - top >= size and (best_gap is None or lo - top < best_gap):
            best, best_gap = top, lo - top
        top = max(top, hi)
    return top if best is None else best


def _reserve() -> mmap.mmap | None:
    """Address space for a recording pass, as large as the machine's memory,
    which no pass outgrows; only the pages it touches take memory."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
    except (OSError, ValueError):
        return None               # an address-space limit: record into fresh blocks


class Workspace:
    """One arena for the large op outputs of a pass that repeats, such as a
    training step, planned from the first pass run inside ``with workspace:``.

    The first pass records every output of at least `_ARENA_MIN_BYTES` that
    an eval asks for (see `take`): its shape, and how many requests had been
    made when a weakref saw it die.  It places them as it goes in one
    anonymous mapping.  On exit the lifetimes are laid out again, greedily by
    size, so that buffers alive at the same time never share bytes; the same
    mapping holds the layout, so the pages the first pass touched are not
    faulted in again, and the rest are touched once.  Each later pass hands
    request k its planned slot if the shape matches and no array lives on
    that slot or on any slot sharing its bytes (NumPy views hold their base,
    so reference counts see them); any other request gets a fresh block.  A
    stale plan costs speed, never bits.  `close` drops the arena.
    """

    def __init__(self):
        self.nbytes = 0          # the arena's size once planned
        self.high_water = 0      # the top byte the recording pass placed in its mapping
        self._count = 0          # requests made in the current pass
        self._map = None         # the mapping recorded into, then the arena
        self._log = []           # recording: [shape, requests made when it died]
        self._watch = []         # recording: the weakrefs that fill in deaths
        self._live = {}          # recording: request -> its live byte range in _map
        self._slots = None       # planned: (shape, requests sharing its bytes) per request
        self._roots = []         # planned: the array on each slot
        self._idle = 0           # reference count of a slot array nobody holds
        self._outer = None       # the workspace active around this one's block

    def __enter__(self):
        global _ACTIVE
        self._count = 0
        if self._slots is None and self._map is None:
            self._map = _reserve()
        self._outer, _ACTIVE = _ACTIVE, self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _ACTIVE
        _ACTIVE, self._outer = self._outer, None
        if self._slots is not None:
            return
        if exc_type is None:
            self._plan()
        else:
            # the failed pass's arrays may outlive it: record afresh elsewhere
            self._map, self._log, self._watch, self._live = None, [], [], {}
            self.high_water = 0

    def close(self):
        """Drop the arena; it is unmapped once no array on it is alive."""
        self._map, self._slots, self._roots, self.nbytes = None, None, [], 0
        self.high_water = 0
        self._log, self._watch, self._live = [], [], {}

    def _died(self, k, _ref):
        self._log[k][1] = self._count
        self._live.pop(k, None)

    def _refs(self, k) -> int:
        return sys.getrefcount(self._roots[k])

    def take(self, shape) -> np.ndarray:
        """An uninitialised float64 buffer for an op output; one below
        `_ARENA_MIN_BYTES` is neither recorded nor planned."""
        if 8 * math.prod(shape) < _ARENA_MIN_BYTES:
            return np.empty(shape)
        k = self._count
        self._count += 1
        if self._slots is None:
            size = _nbytes(shape)
            at = _fit(self._live.values(), size)
            if self._map is not None and at + size <= len(self._map):
                out = np.ndarray(shape, buffer=self._map, offset=at)
                self._live[k] = (at, at + size)
                self.high_water = max(self.high_water, at + size)
            else:
                out = np.empty(shape)
            self._log.append([shape, None])
            self._watch.append(weakref.ref(out, partial(self._died, k)))
            return out
        if k < len(self._slots):
            slot_shape, shares = self._slots[k]
            if slot_shape == shape and all(self._refs(j) == self._idle for j in shares):
                return self._roots[k]
        return np.empty(shape)

    def _plan(self):
        # request k lives over [k, death); two requests may share bytes only
        # if one died before the other was made
        n = len(self._log)
        spans = [(k, n if death is None else death) for k, (_, death) in enumerate(self._log)]
        sizes = [_nbytes(shape) for shape, _ in self._log]
        offsets = [0] * n
        placed = []
        for k in sorted(range(n), key=lambda k: -sizes[k]):
            offsets[k] = _fit([(offsets[j], offsets[j] + sizes[j]) for j in placed
                               if spans[j][0] < spans[k][1] and spans[k][0] < spans[j][1]],
                              sizes[k])
            placed.append(k)
        self.nbytes = max((o + s for o, s in zip(offsets, sizes)), default=0)
        self._slots = [(shape, [j for j in range(n) if offsets[j] < offsets[k] + sizes[k]
                                and offsets[k] < offsets[j] + sizes[j]])
                       for k, (shape, _) in enumerate(self._log)]
        if self.nbytes:
            if self._live or self._map is None or self.nbytes > len(self._map):
                # a recorded array still lives on the mapping, or there is none
                self._map = mmap.mmap(-1, self.nbytes, flags=mmap.MAP_PRIVATE)
            elif self.high_water > self.nbytes:
                # give back the pages the recording pass touched above the arena
                top = -(-self.nbytes // mmap.PAGESIZE) * mmap.PAGESIZE
                if self.high_water > top:
                    self._map.madvise(mmap.MADV_DONTNEED, top, self.high_water - top)
            # touch every page now, so that no later pass faults
            np.frombuffer(self._map, dtype=np.uint8, count=self.nbytes)[:: mmap.PAGESIZE] = 0
            self._roots = [np.ndarray(shape, buffer=self._map, offset=o)
                           for (shape, _), o in zip(self._slots, offsets)]
            self._idle = self._refs(0)
        self._log, self._watch, self._live = [], [], {}


def _out(shape) -> np.ndarray | None:
    """The active Workspace's buffer for an op output, or None outside one:
    an eval passes it as ``out=`` and NumPy then allocates as it always did."""
    ws = _ACTIVE
    return None if ws is None else ws.take(shape)


def _all_finite(a: np.ndarray) -> bool:
    """Whether `a` holds no NaN/Inf, without a boolean copy of it.

    NaN or Inf in `a` makes its sum of squares non-finite, so a finite sum
    proves `a` finite; only a non-finite sum (which huge finite entries also
    give) is settled entry by entry.  Call it under an errstate that ignores
    overflow: the squares may overflow.
    """
    flat = a.ravel(order="K")
    return math.isfinite(flat @ flat) or bool(np.isfinite(flat).all())


def _value(x) -> np.ndarray:
    if isinstance(x, Tensor):
        return x.data
    return np.asarray(x, dtype=np.float64)


def _apply(kind: str, inputs: Sequence, ctx=None) -> Tensor:
    # one pass finds the operands' tape, collects their values and checks
    # every constant (an operand that is not a Tensor), recorded or not
    op = _OPS[kind]
    tape = None
    values = []
    bad_constant = False
    for x in inputs:
        if isinstance(x, Tensor):
            if x.tape is not None:
                if tape is None:
                    tape = x.tape
                elif tape is not x.tape:
                    raise TapeError("operands live on different tapes")
            values.append(x.data)
        elif op.takes_bool and isinstance(x, np.ndarray) and x.dtype == np.bool_:
            values.append(x)                   # finite by type
        else:
            v = np.asarray(x, dtype=np.float64)
            values.append(v)
            if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(v).all()):
                bad_constant = True
    if not op.check_finite or _FP_QUIET.get():
        # data movement raises no floating-point warning on NaN/Inf operands,
        # and inside `_fp_scope` the errstate is already entered
        out = op.eval(values, ctx)
        finite = not op.check_finite or _all_finite(out)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = op.eval(values, ctx)
            finite = _all_finite(out)
    if not finite:
        raise NonFiniteError(f"op '{kind}' produced non-finite values")
    if bad_constant:
        raise NonFiniteError("leaf value contains NaN/Inf")
    if tape is None or not tape.recording:
        return Tensor(out)
    nodes = tape.nodes
    ids = []
    for x, v in zip(inputs, values):
        if isinstance(x, Tensor) and x.tape is tape and x.node is not None:
            ids.append(x.node)
        else:
            # a constant operand: the leaf `Tape.leaf` would record, with no
            # Tensor; an untracked Tensor is checked as it becomes one
            if isinstance(x, Tensor) and not np.isfinite(v).all():
                raise NonFiniteError("leaf value contains NaN/Inf")
            ids.append(len(nodes))
            nodes.append(Node("leaf", (), None, v.shape, None))
    for i in op.keep_inputs:
        nodes[ids[i]].value = values[i]
    nodes.append(Node(kind, tuple(ids), out if op.keep_output else None, out.shape, ctx))
    return Tensor(out, tape, len(nodes) - 1)


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _binary(kind: str, fn: Callable) -> Callable:
    """The eval of `fn(a, b)` in float64, raising NumPy's refused broadcast as
    ShapeError; a boolean operand is cast to 0.0/1.0 in the ufunc's loop."""

    def eval_binary(v, ctx):
        a, b = v
        try:
            ws = _ACTIVE
            # the output is at least as large as either operand
            if ws is None or 8 * max(a.size, b.size) < _ARENA_MIN_BYTES:
                return fn(a, b, dtype=np.float64)
            return fn(a, b, dtype=np.float64, out=ws.take(np.broadcast_shapes(a.shape, b.shape)))
        except ValueError:
            msg = f"{kind}: shapes {a.shape} and {b.shape} do not broadcast"
            raise ShapeError(msg) from None

    return eval_binary


def _sum_to(g: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Undo broadcasting: reduce g back down to `shape`."""
    if g.shape == tuple(shape):
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(
        lead + i for i, s in enumerate(shape) if s == 1 and g.shape[lead + i] != 1
    )
    return reshape(reduce_sum(g, axes, keepdims=True), shape)


def _in(tape, node, i) -> Tensor:
    return tape.tensor(node.inputs[i])


def _in_shape(tape, node, i) -> tuple[int, ...]:
    return tape.nodes[node.inputs[i]].shape


def _vjp_add(tape, node, out_id, g, needs):
    return [
        _sum_to(g, _in_shape(tape, node, 0)) if needs[0] else None,
        _sum_to(g, _in_shape(tape, node, 1)) if needs[1] else None,
    ]


_register("add", _binary("add", np.add), _vjp_add, takes_bool=True)


def _vjp_sub(tape, node, out_id, g, needs):
    return [
        _sum_to(g, _in_shape(tape, node, 0)) if needs[0] else None,
        _sum_to(neg(g), _in_shape(tape, node, 1)) if needs[1] else None,
    ]


_register("sub", _binary("sub", np.subtract), _vjp_sub, takes_bool=True)


def _vjp_mul(tape, node, out_id, g, needs):
    a, b = _in(tape, node, 0), _in(tape, node, 1)
    return [
        _sum_to(mul(g, b), a.shape) if needs[0] else None,
        _sum_to(mul(g, a), b.shape) if needs[1] else None,
    ]


_register("mul", _binary("mul", np.multiply), _vjp_mul, keep_inputs=(0, 1), takes_bool=True)
_divide = _binary("div", np.true_divide)


def _eval_div(v, ctx):
    out = _divide(v, ctx)
    # an empty divisor has no degenerate entry
    if v[1].size and np.abs(v[1]).min() < 1e-300:
        raise EngineError("degenerate divisor")
    return out


def _vjp_div(tape, node, out_id, g, needs):
    b, out = _in(tape, node, 1), tape.tensor(out_id)
    return [
        _sum_to(div(g, b), _in_shape(tape, node, 0)) if needs[0] else None,
        _sum_to(neg(div(mul(g, out), b)), b.shape) if needs[1] else None,
    ]


_register("div", _eval_div, _vjp_div, keep_output=True, keep_inputs=(1,), takes_bool=True)


def _vjp_neg(tape, node, out_id, g, needs):
    return [neg(g)]


_register("neg", lambda v, ctx: -v[0], _vjp_neg, check_finite=False)


def add(a, b) -> Tensor:
    return _apply("add", [a, b])


def sub(a, b) -> Tensor:
    return _apply("sub", [a, b])


def mul(a, b) -> Tensor:
    return _apply("mul", [a, b])


def div(a, b) -> Tensor:
    return _apply("div", [a, b])


def neg(a) -> Tensor:
    return _apply("neg", [a])


# ---------------------------------------------------------------------------
# unary nonlinearities
# ---------------------------------------------------------------------------

def _vjp_relu(tape, node, out_id, g, needs):
    # for finite x, max(x, 0) > 0 exactly when x > 0; mul casts the boolean
    # mask in its loop, so no float mask is made
    return [mul(g, tape.nodes[out_id].value > 0.0)]


# C order whatever the input's layout: relu's output is every tap, the relu
# VJP's mask and max-pool's input, and conv2d hands it the transposed matmul
# result, with or without a bias
_register("relu", lambda v, ctx: np.maximum(v[0], 0.0, order="C", out=_out(v[0].shape)),
          _vjp_relu, keep_output=True, check_finite=False)


def _vjp_abs(tape, node, out_id, g, needs):
    sign = np.sign(tape.nodes[node.inputs[0]].value)  # sign(0) == 0
    return [mul(g, sign)]


_register("abs", lambda v, ctx: np.abs(v[0]), _vjp_abs, keep_inputs=(0,), check_finite=False)


def _vjp_exp(tape, node, out_id, g, needs):
    return [mul(g, tape.tensor(out_id))]


_register("exp", lambda v, ctx: np.exp(v[0]), _vjp_exp, keep_output=True)


def _eval_log(v, ctx):
    if not (v[0] > 0).all():
        raise NonFiniteError("log of non-positive value")
    return np.log(v[0])


def _vjp_log(tape, node, out_id, g, needs):
    return [div(g, _in(tape, node, 0))]


_register("log", _eval_log, _vjp_log, keep_inputs=(0,))


def _eval_sqrt(v, ctx):
    if not (v[0] >= 0).all():
        raise NonFiniteError("sqrt of negative value")
    return np.sqrt(v[0])


def _vjp_sqrt(tape, node, out_id, g, needs):
    # clamp the denominator so that d(sqrt)/dx at exactly 0 stays finite;
    # callers at 0 always multiply this branch by 0 anyway
    y = tape.tensor(out_id)
    denom = add(relu(sub(y, 1e-150)), 1e-150)
    return [div(mul(g, 0.5), denom)]


_register("sqrt", _eval_sqrt, _vjp_sqrt, keep_output=True)


def relu(x) -> Tensor:
    return _apply("relu", [x])


def absolute(x) -> Tensor:
    return _apply("abs", [x])


def exp(x) -> Tensor:
    return _apply("exp", [x])


def log(x) -> Tensor:
    return _apply("log", [x])


def sqrt(x) -> Tensor:
    return _apply("sqrt", [x])


# ---------------------------------------------------------------------------
# shape and indexing ops
# ---------------------------------------------------------------------------


def _vjp_reshape(tape, node, out_id, g, needs):
    return [reshape(g, _in_shape(tape, node, 0))]


_register("reshape", lambda v, ctx: np.reshape(v[0], ctx["shape"]), _vjp_reshape,
          check_finite=False)


def _vjp_transpose(tape, node, out_id, g, needs):
    inverse = tuple(np.argsort(node.ctx["axes"]))
    return [transpose(g, inverse)]


_register("transpose", lambda v, ctx: np.transpose(v[0], ctx["axes"]), _vjp_transpose,
          check_finite=False)


def _eval_broadcast(v, ctx):
    if v[0].shape == tuple(ctx["shape"]):
        return v[0]
    return np.broadcast_to(v[0], ctx["shape"])


def _vjp_broadcast(tape, node, out_id, g, needs):
    return [_sum_to(g, _in_shape(tape, node, 0))]


_register("broadcast_to", _eval_broadcast, _vjp_broadcast, check_finite=False)


def _vjp_gather(tape, node, out_id, g, needs):
    return [scatter_add(g, node.ctx["idx"], _in_shape(tape, node, 0))]


_register("gather", lambda v, ctx: np.take(v[0], ctx["idx"]), _vjp_gather, check_finite=False)


def _eval_scatter_add(v, ctx):
    size = int(np.prod(ctx["out_shape"], dtype=np.int64))
    flat = np.bincount(ctx["idx"].ravel(), weights=v[0].ravel(), minlength=size)
    return flat.reshape(ctx["out_shape"])


def _vjp_scatter_add(tape, node, out_id, g, needs):
    return [reshape(gather(g, node.ctx["idx"]), _in_shape(tape, node, 0))]


_register("scatter_add", _eval_scatter_add, _vjp_scatter_add)


def _vjp_sum(tape, node, out_id, g, needs):
    in_shape = _in_shape(tape, node, 0)
    axes, keepdims = node.ctx["axes"], node.ctx["keepdims"]
    if axes is None:
        kd_shape = (1,) * len(in_shape)
    elif keepdims:
        kd_shape = g.shape
    else:
        kd_shape = tuple(1 if i in axes else s for i, s in enumerate(in_shape))
    return [broadcast_to(reshape(g, kd_shape), in_shape)]


_register("sum", lambda v, ctx: np.sum(v[0], axis=ctx["axes"], keepdims=ctx["keepdims"]),
          _vjp_sum)


def _eval_matmul(v, ctx):
    a, b = v
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    return np.matmul(a, b, out=_out((a.shape[0], b.shape[1])))


def _vjp_matmul(tape, node, out_id, g, needs):
    a, b = _in(tape, node, 0), _in(tape, node, 1)
    return [
        matmul(g, transpose(b, (1, 0))) if needs[0] else None,
        matmul(transpose(a, (1, 0)), g) if needs[1] else None,
    ]


_register("matmul", _eval_matmul, _vjp_matmul, keep_inputs=(0, 1))


def reshape(x, shape) -> Tensor:
    return _apply("reshape", [x], {"shape": tuple(shape)})


def transpose(x, axes) -> Tensor:
    return _apply("transpose", [x], {"axes": tuple(axes)})


def broadcast_to(x, shape) -> Tensor:
    return _apply("broadcast_to", [x], {"shape": tuple(shape)})


def gather(x, idx: np.ndarray) -> Tensor:
    """Pick flat indices out of x; the index array is a constant."""
    return _apply("gather", [x], {"idx": np.asarray(idx, dtype=np.int64)})


def scatter_add(src, idx: np.ndarray, out_shape) -> Tensor:
    """Adjoint of gather: accumulate src entries into a zeroed array."""
    idx = np.asarray(idx, dtype=np.int64)
    src_size = _value(src).size
    if idx.size != src_size:
        raise ShapeError(f"scatter_add: {idx.size} indices for {src_size} values")
    return _apply("scatter_add", [src], {"idx": idx, "out_shape": tuple(out_shape)})


def reduce_sum(x, axes=None, keepdims=False) -> Tensor:
    if axes is not None:
        nd = _value(x).ndim
        if isinstance(axes, int):
            axes = (axes,)
        axes = tuple(sorted(a % nd for a in axes))
    return _apply("sum", [x], {"axes": axes, "keepdims": keepdims})


def reduce_mean(x, axes=None, keepdims=False) -> Tensor:
    arr = _value(x)
    if axes is None:
        n = arr.size
    else:
        ax = (axes,) if isinstance(axes, int) else axes
        n = int(np.prod([arr.shape[a % arr.ndim] for a in ax]))
    return mul(reduce_sum(x, axes, keepdims), 1.0 / n)


def matmul(a, b) -> Tensor:
    return _apply("matmul", [a, b])


# ---------------------------------------------------------------------------
# convolution and pooling
# ---------------------------------------------------------------------------
#
# Index tables describe one sample and are applied along the batch axis, so
# they do not grow with the batch.  im2col and col2im are an adjoint pair that
# carries the conv's whole geometry (kernel, stride, zero padding): each one's
# VJP is the other, which keeps higher orders free.


@lru_cache(maxsize=256)
def _im2col_indices(c, hp, wp, k, s):
    """Flat indices into one (c, hp, wp) sample; row (oi, oj), column (ci, ki, kj)."""
    oh = (hp - k) // s + 1
    ow = (wp - k) // s + 1
    oi = np.arange(oh, dtype=np.int64)[:, None, None, None, None] * s
    oj = np.arange(ow, dtype=np.int64)[None, :, None, None, None] * s
    ci = np.arange(c, dtype=np.int64)[None, None, :, None, None]
    ki = np.arange(k, dtype=np.int64)[None, None, None, :, None]
    kj = np.arange(k, dtype=np.int64)[None, None, None, None, :]
    idx = ((ci * hp + oi + ki) * wp + oj + kj).reshape(oh * ow, c * k * k)
    # checked once here: im2col's evals may take it with mode="clip"
    if idx.size and (idx.min() < 0 or idx.max() >= c * hp * wp):
        raise ShapeError(f"im2col: {k}x{k} windows at stride {s} leave the {hp}x{wp} input")
    idx.setflags(write=False)              # shared by every caller through the cache
    return idx


def _eval_im2col(v, ctx):
    (n, c, h, w), idx, p = ctx["shape"], ctx["idx"], ctx["ksp"][2]
    x = v[0]
    if p:
        padded = (n, c, h + 2 * p, w + 2 * p)
        x = _out(padded)
        if x is None:
            x = np.zeros(padded)
        else:
            x.fill(0.0)
        # += into zeros, not =, maps -0.0 to +0.0 like any sum into zeros does;
        # tests/test_conv_parity.py holds the border to the bits of a scatter_add
        x[:, :, p : p + h, p : p + w] += v[0]
    # "clip" writes straight into a given `out` ("raise" would buffer a copy);
    # the table's range was checked when it was built
    cols = np.take(x.reshape(n, -1), idx, axis=1, out=_out((n,) + idx.shape), mode="clip")
    return cols.reshape(n * idx.shape[0], idx.shape[1])


def _vjp_im2col(tape, node, out_id, g, needs):
    return [col2im(g, node.ctx["shape"], *node.ctx["ksp"])]


_register("im2col", _eval_im2col, _vjp_im2col, check_finite=False)


def _eval_col2im(v, ctx):
    # one bincount per sample over the padded geometry: a pixel sums only its
    # own sample's columns, in (oi, oj) order, so its bits do not depend on the
    # batch it came in; only the interior is kept
    (n, c, h, w), p = ctx["shape"], ctx["ksp"][2]
    hp, wp = h + 2 * p, w + 2 * p
    idx, cols = ctx["idx"].ravel(), v[0].reshape(n, -1)
    out = _out((n, c, h, w))
    if out is None:
        out = np.empty((n, c, h, w))
    for i in range(n):
        summed = np.bincount(idx, weights=cols[i], minlength=c * hp * wp)
        out[i] = summed.reshape(c, hp, wp)[:, p : p + h, p : p + w]
    return out


def _vjp_col2im(tape, node, out_id, g, needs):
    return [im2col(g, *node.ctx["ksp"])]


_register("col2im", _eval_col2im, _vjp_col2im)


def im2col(x, k: int, s: int, p: int) -> Tensor:
    """(n, c, h, w) -> (n*oh*ow, c*k*k): every k x k window at stride s of the
    input zero-padded by p on every side, as a row."""
    shape = _value(x).shape
    idx = _im2col_indices(shape[1], shape[2] + 2 * p, shape[3] + 2 * p, k, s)
    return _apply("im2col", [x], {"shape": shape, "idx": idx, "ksp": (k, s, p)})


def col2im(cols, shape, k: int, s: int, p: int) -> Tensor:
    """Adjoint of im2col: sum each row back into the window it came from and
    drop the padding."""
    shape = tuple(shape)
    idx = _im2col_indices(shape[1], shape[2] + 2 * p, shape[3] + 2 * p, k, s)
    if _value(cols).size != shape[0] * idx.size:
        raise ShapeError(f"col2im: {_value(cols).shape} columns do not fit {shape}")
    return _apply("col2im", [cols], {"shape": shape, "idx": idx, "ksp": (k, s, p)})


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of an NCHW batch with an OIkk kernel (no flip)."""
    xv, wv = _value(x), _value(weight)
    if xv.ndim != 4 or wv.ndim != 4:
        raise ShapeError(f"conv2d expects 4-D input/weight, got {xv.shape}, {wv.shape}")
    n, c, h, w = xv.shape
    o, i, kh, kw = wv.shape
    if kh != kw:
        raise ShapeError("conv2d kernels must be square")
    k = kh
    if c != i:
        raise ShapeError(f"conv2d: input has {c} channels, weight expects {i}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if k > hp or k > wp:
        raise ShapeError(f"conv2d: kernel {k} larger than padded input {hp}x{wp}")
    oh, ow = (hp - k) // stride + 1, (wp - k) // stride + 1
    cols = im2col(x, k, stride, padding)                   # (n*oh*ow, c*k*k)
    wmat = transpose(reshape(weight, (o, c * k * k)), (1, 0))
    out = matmul(cols, wmat)                               # (n*oh*ow, o)
    out = transpose(reshape(out, (n, oh, ow, o)), (0, 3, 1, 2))
    if bias is not None:
        out = add(out, reshape(bias, (1, o, 1, 1)))
    return out


def _pool_argmax(xv: np.ndarray, k: int, s: int) -> np.ndarray:
    """Flat index into xv of the first maximum, in row-major order, of every window."""
    n, c, h, w = xv.shape
    oh, ow = (h - k) // s + 1, (w - k) // s + 1
    span_h, span_w = s * (oh - 1) + 1, s * (ow - 1) + 1
    views = [xv[:, :, ki : ki + span_h : s, kj : kj + span_w : s]
             for ki in range(k) for kj in range(k)]
    top = views[0]
    for view in views[1:]:
        top = np.maximum(top, view)
    # the first maximum's position in the window = how many offsets before it
    # are all below the maximum; equal values count as maxima, so ties go to
    # the earliest offset
    below = views[0] < top
    first = below.astype(np.int64, order="C")
    for view in views[1:-1]:
        below &= view < top
        first += below
    first += first // k * (w - k)                          # (ki, kj) -> ki * w + kj
    first += (np.arange(oh, dtype=np.int64) * (s * w))[:, None] + np.arange(ow, dtype=np.int64) * s
    first += (np.arange(n * c, dtype=np.int64) * (h * w)).reshape(n, c, 1, 1)
    return first


def maxpool2d(x, k: int, s: int) -> Tensor:
    """Max pooling; gradient flows to the first argmax in each window."""
    xv = _value(x)
    if xv.ndim != 4:
        raise ShapeError(f"maxpool2d expects 4-D input, got {xv.shape}")
    n, c, h, w = xv.shape
    if k > h or k > w:
        raise ShapeError(f"pooling window {k} exceeds spatial extent {h}x{w}")
    return gather(x, _pool_argmax(xv, k, s))


# ---------------------------------------------------------------------------
# reverse pass
# ---------------------------------------------------------------------------


def backward(out: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Gradients of a scalar `out` with respect to each tensor in `wrt`.

    With ``create_graph=True`` every arithmetic step of this pass is itself
    recorded on the tape, so a later backward over a function of the returned
    gradients produces correct second-order derivatives.  With
    ``create_graph=False`` the returned tensors are untracked.
    """
    if out.tape is None or out.node is None:
        raise TapeError("backward target is not tracked on a tape")
    if out.size != 1:
        raise ShapeError(f"backward target must be a scalar, got shape {out.shape}")
    tape = out.tape
    for t in wrt:
        if t.tape is not tape or t.node is None:
            raise TapeError("wrt tensor is not tracked on the same tape")

    limit = out.node
    nodes = tape.nodes
    wrt_ids = {t.node for t in wrt}

    # a node needs a gradient iff some wrt tensor is reachable from it
    needed = bytearray(limit + 1)
    for nid in wrt_ids:
        if nid <= limit:
            needed[nid] = 1
    for nid in range(limit + 1):
        if needed[nid]:
            continue
        for i in nodes[nid].inputs:
            if needed[i]:
                needed[nid] = 1
                break

    def _zero(t: Tensor) -> Tensor:
        z = np.zeros(t.shape)
        return tape.leaf(z) if create_graph else Tensor(z)

    results: dict[int, Tensor] = {}
    if needed[limit]:
        with _fp_scope(), nullcontext() if create_graph else tape.paused():
            seed = np.ones(out.shape)
            grads: dict[int, Tensor] = {limit: tape.leaf(seed) if create_graph else Tensor(seed)}
            for nid in range(limit, -1, -1):
                g = grads.pop(nid, None)
                if g is None:
                    continue
                if nid in wrt_ids:
                    results[nid] = g
                node = nodes[nid]
                if node.op == "leaf":
                    continue
                needs = tuple(bool(needed[i]) for i in node.inputs)
                if not any(needs):
                    continue
                contribs = _VJP[node.op](tape, node, nid, g, needs)
                for i, contrib in zip(node.inputs, contribs):
                    if contrib is None or not needed[i]:
                        continue
                    prev = grads.get(i)
                    grads[i] = contrib if prev is None else add(prev, contrib)

    out_list = []
    for t in wrt:
        got = results.get(t.node)
        out_list.append(got if got is not None else _zero(t))
    return out_list


# ---------------------------------------------------------------------------
# finite differences (verification oracle)
# ---------------------------------------------------------------------------


def finite_diff(f: Callable, x, eps: float = 1e-5) -> Tensor:
    """Central-difference gradient of scalar-valued `f` at `x`.

    `f` receives an untracked Tensor and must return a scalar Tensor or float.
    Deliberately independent of the tape machinery above.
    """
    if eps <= 0:
        raise EngineError("finite_diff step must be positive")
    x0 = np.array(_value(x), dtype=np.float64)
    grad = np.zeros_like(x0)
    buf = x0.copy()
    bf, xf, gf = buf.ravel(), x0.ravel(), grad.ravel()

    def _eval_at() -> float:
        r = f(Tensor(buf.copy()))
        val = float(r.data) if isinstance(r, Tensor) else float(r)
        if not np.isfinite(val):
            raise NonFiniteError("finite_diff: objective returned non-finite value")
        return val

    for i in range(xf.size):
        bf[i] = xf[i] + eps
        fp = _eval_at()
        bf[i] = xf[i] - eps
        fm = _eval_at()
        bf[i] = xf[i]
        gf[i] = (fp - fm) / (2.0 * eps)
    return Tensor(grad)
