"""The training step's arena (`autodiff.Workspace`): it holds no more than a
step needs, never overwrites a live array, keeps every bit, gives a repeated
pass the first one's offsets and leaves the steps after an epoch's first
without page faults; a stateful fuzz runs random op sequences through it.  A
step runs in chunks, so its arena does not grow with the batch, and the
chunks' weighted gradients match one call over the whole batch."""

import contextlib
import importlib
import mmap
import resource
import tracemalloc

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule, run_state_machine_as_test

from palnet import autodiff as ad
from palnet.attribution import ChannelStrategy
from palnet.data import generate_dataset, manifest_path
from palnet.heatmap import LandmarkSet, build_prior
from palnet.model import init_params, toy64
from palnet.train import CHUNK, TrainConfig, loss_and_grads, step_loss_and_grads, training_loss

# the attribute `palnet.train` is the train() function; take the module
train_module = importlib.import_module("palnet.train")

SPEC = toy64()
PARAMS = init_params(SPEC, 0)
STRATEGY = ChannelStrategy.parse("mean_of_half")
RAGGED = 2 * CHUNK + CHUNK // 2     # a batch that ends in a chunk of CHUNK // 2


def _step_args(method: str, n: int, seed: int = 0) -> tuple:
    """`loss_and_grads` arguments for a toy64 batch of n at the relu4 tap."""
    rng = np.random.default_rng(seed)
    images = rng.uniform(size=(n, 1, 64, 64))
    labels = np.arange(n) % SPEC.n_classes
    priors = None
    if method != "none":
        tap_hw = SPEC.tap_shapes()["relu4"][1:]
        priors = np.stack([build_prior(LandmarkSet(rng.uniform(8.0, 56.0, size=(5, 2))),
                                       64, 64, tap_hw, 3.0) for _ in range(n)])
    return SPEC, PARAMS, images, labels, priors, "relu4", method, STRATEGY, 0.1


def _same_bytes(got, want) -> bool:
    (floats, grads), (floats0, grads0) = got, want
    return floats == floats0 and grads.keys() == grads0.keys() and all(
        grads[k].tobytes() == grads0[k].tobytes() for k in grads)


@pytest.mark.parametrize("method", ["none", "grad_input"])
def test_arena_holds_no_more_than_a_plain_step_peak(method):
    # tracemalloc cannot see the arena's mmap, so a traced train() could
    # grow it unseen; bound it by what a step without a workspace peaks at
    args = _step_args(method, 16)
    tracemalloc.start()
    try:
        loss_and_grads(*args)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    workspace = ad.Workspace()
    with workspace:
        loss_and_grads(*args)
    mb = (workspace.high_water / 2**20, step_peak / 2**20)
    assert 0 < workspace.high_water <= 1.2 * step_peak, mb
    workspace.close()
    assert workspace.high_water == 0


def _first_columns(breakdown) -> np.ndarray:
    """The first conv's im2col columns, which the tape keeps for matmul's
    rule and the arena serves."""
    return next(node.value for node in breakdown.tensor.tape.nodes if node.op == "im2col")


def _in_arena(a: np.ndarray) -> bool:
    """Whether `a` is an arena array, whose base is the mapping, or a view
    of one, whose base NumPy ends at that array."""
    return isinstance(a.base, mmap.mmap) or (
        isinstance(a.base, np.ndarray) and isinstance(a.base.base, mmap.mmap))


def test_an_array_held_across_passes_is_never_overwritten():
    workspace = ad.Workspace()
    batches = [_step_args("none", 16, seed) for seed in range(4)]

    def step(args):
        breakdown, trace = training_loss(*args)
        names = sorted(trace.params)
        grads = ad.backward(breakdown.tensor, [trace.params[k] for k in names])
        # a view of the first conv's columns, whose base is an arena array
        return _first_columns(breakdown)[:, 1:], {k: g.data for k, g in zip(names, grads)}

    with workspace:
        first, _ = step(batches[0])
    with workspace:
        held, _ = step(batches[1])
    assert _in_arena(first) and _in_arena(held)
    kept = [first.copy(), held.copy()]
    for args in batches[2:]:
        with workspace:
            _, grads = step(args)
        assert [first.tobytes(), held.tobytes()] == [a.tobytes() for a in kept]
        _, want = step(args)
        assert all(grads[k].tobytes() == want[k].tobytes() for k in want)


def test_the_bytes_of_a_dead_array_are_reused_and_a_held_ones_are_not():
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(64, 1024))   # 512 KiB outputs
    held = []

    def run(x, hold=False):
        a = ad.relu(x)
        b = ad.mul(a, 2.0)
        if hold:
            held.append(a.data)
        first = a.data.ctypes.data
        del a
        out = ad.relu(b).data
        return out, out.ctypes.data == first

    workspace = ad.Workspace()
    with workspace:
        _, reused = run(x)
    # the first relu's output died before the last relu asked for a buffer
    assert reused
    with workspace:
        _, reused = run(x, hold=True)
    assert not reused
    kept = held[0].copy()
    with workspace:
        got, _ = run(-x)
    assert held[0].tobytes() == kept.tobytes()
    assert got.tobytes() == run(-x)[0].tobytes()


def test_repeated_passes_keep_the_first_passes_offsets(monkeypatch):
    offsets = []                   # per pass: each large request's offset
    take = ad.Workspace.take

    def spy(self, shape):
        out = take(self, shape)
        if 8 * np.prod(shape) >= ad._ARENA_MIN_BYTES:
            offsets[-1].append(out.ctypes.data)
        return out

    monkeypatch.setattr(ad.Workspace, "take", spy)
    workspace = ad.Workspace()
    high_water = []
    for seed in range(3):
        offsets.append([])
        with workspace:
            step_loss_and_grads(*_step_args("grad_input", 16, seed))
        high_water.append(workspace.high_water)
    assert offsets[0] and offsets[1] == offsets[0] and offsets[2] == offsets[0]
    assert high_water == [high_water[0]] * 3


def test_changing_batch_shapes_keep_the_bytes():
    workspace = ad.Workspace()
    for i, n in enumerate([16, 16, 7, 16, 3]):
        args = _step_args("grad_input", n, seed=i)
        with workspace:
            got = loss_and_grads(*args)
        assert _same_bytes(got, loss_and_grads(*args)), n


def test_a_failed_pass_leaves_its_arrays_alone():
    workspace = ad.Workspace()
    args = _step_args("none", 16)
    held = []

    def failing_step():
        breakdown, _ = training_loss(*args)
        held.append(_first_columns(breakdown))
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError), workspace:
        failing_step()
    assert _in_arena(held[0])
    kept = held[0].copy()
    for _ in range(2):
        with workspace:
            got = loss_and_grads(*args)
        assert held[0].tobytes() == kept.tobytes()
    assert _same_bytes(got, loss_and_grads(*args))


def test_without_an_address_space_reserve_there_is_no_arena(monkeypatch):
    # where the reserve cannot be mapped, evals allocate as outside a workspace
    monkeypatch.setattr(ad, "_reserve", lambda: None)
    workspace = ad.Workspace()
    args = _step_args("grad_input", 16)
    for _ in range(2):
        with workspace:
            got = loss_and_grads(*args)
        assert _same_bytes(got, loss_and_grads(*args))
    assert workspace.high_water == 0


def _step_faults(tmp_path, monkeypatch, n: int, batch_size: int) -> list:
    """Minor faults of each step of a one-epoch grad_input run on n samples."""
    root = str(tmp_path / "ds")
    generate_dataset(root, seed=3, n=n, split="train")
    generate_dataset(root, seed=3, n=7, split="test")
    config = TrainConfig(train_manifest=manifest_path(root, "train"),
                         test_manifest=manifest_path(root, "test"),
                         method="grad_input", batch_size=batch_size, epochs=1, seed=3)
    faults = []
    step = train_module.step_loss_and_grads

    def counted(*args):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        out = step(*args)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        return out

    monkeypatch.setattr(train_module, "step_loss_and_grads", counted)
    # the first run in a process also settles the C allocator's thresholds
    train_module.train(config, str(tmp_path / "warm"))
    faults.clear()
    train_module.train(config, str(tmp_path / "run"))
    return faults


def test_steps_after_an_epochs_first_take_no_page_faults(tmp_path, monkeypatch):
    # 63 samples keep 56 for training: 7 full batches of 8
    faults = _step_faults(tmp_path, monkeypatch, 63, 8)
    assert len(faults) == 7
    assert all(f < 100 for f in faults[1:]), faults


def test_a_chunked_steps_ragged_last_chunk_faults_no_pages_either(tmp_path, monkeypatch):
    # 134 samples keep 120 for training: whole batches of RAGGED, each run in
    # two full chunks and a half one, all inside one workspace block
    assert RAGGED % CHUNK and 120 % RAGGED == 0
    faults = _step_faults(tmp_path, monkeypatch, 134, RAGGED)
    assert len(faults) == 120 // RAGGED
    assert all(f < 100 for f in faults[1:]), faults


@pytest.mark.parametrize("n", [64, RAGGED])
@pytest.mark.parametrize("method,strategy", [("none", "mean_of_half"),
                                             ("grad_input", "mean_of_half"),
                                             ("grad", "all")])
def test_a_chunked_step_matches_one_call_over_the_whole_batch(method, strategy, n):
    args = _step_args(method, n)[:7] + (ChannelStrategy.parse(strategy), 0.1)
    floats, grads = step_loss_and_grads(*args)
    floats0, grads0 = loss_and_grads(*args)
    assert floats == pytest.approx(floats0, rel=1e-14, abs=0.0)
    assert grads.keys() == grads0.keys()
    for k in grads0:
        err = np.abs(grads[k] - grads0[k]).max()
        assert err <= 1e-13 * np.abs(grads0[k]).max(), (k, err)


@pytest.mark.parametrize("n", [CHUNK, 5])
def test_a_batch_of_one_chunk_is_one_plain_call(n, monkeypatch):
    args = _step_args("grad_input", n)
    returned = []

    def spy(*a):
        returned.append(loss_and_grads(*a))
        return returned[-1]

    monkeypatch.setattr(train_module, "loss_and_grads", spy)
    got = step_loss_and_grads(*args)
    assert len(returned) == 1 and got is returned[0]     # nothing weighted or copied
    assert _same_bytes(got, loss_and_grads(*args))


def test_a_chunked_steps_arena_does_not_grow_with_the_batch():
    arenas = []
    for n in (CHUNK, 4 * CHUNK):
        workspace = ad.Workspace()
        with workspace:
            step_loss_and_grads(*_step_args("none", n))
        arenas.append(workspace.high_water)
        workspace.close()
    assert 0 < arenas[1] <= 1.05 * arenas[0], [a / 2**20 for a in arenas]


def test_a_chunked_paper_arm_step_takes_about_half_the_arena_of_one_call():
    # the paper's arm, B=16 at relu4, runs as two chunks of 8
    arenas = []
    for step in (step_loss_and_grads, loss_and_grads):
        workspace = ad.Workspace()
        with workspace:
            step(*_step_args("grad_input", 16))
        arenas.append(workspace.high_water)
        workspace.close()
    assert 0 < arenas[0] <= 0.55 * arenas[1], [a / 2**20 for a in arenas]


def test_an_out_of_range_im2col_table_raises_a_palnet_error():
    # a negative stride walks the windows off a 2x2 input; im2col may read
    # the table with mode="clip", which would not raise
    with pytest.raises(ad.ShapeError, match="leave the 2x2 input"):
        ad._im2col_indices(1, 2, 2, 3, -1)
    with pytest.raises(ad.EngineError):
        ad.im2col(np.ones((1, 1, 2, 2)), 3, -1, 0)


# a stateful fuzz of the arena: random relu/mul/add/matmul sequences on
# arrays of at least 256 KiB, pass after pass through one workspace, with
# outputs and views held across passes and the rows changing between passes

FUZZ_COLS = 4096               # 8 rows of float64 make 256 KiB
# "matmul" goes down to 64 columns and back up, so its output is large too
FUZZ_DOWN, FUZZ_UP = (np.random.default_rng(0).uniform(-1.0, 1.0, shape) / shape[0]
                      for shape in ((FUZZ_COLS, 64), (64, FUZZ_COLS)))

# (kind, first operand, second operand, value to drop after it); positions
# are taken modulo the number of values alive
FUZZ_OPS = st.tuples(st.sampled_from(["relu", "mul", "add", "matmul"]), st.integers(0, 15),
                     st.integers(0, 15), st.none() | st.integers(0, 15))


def _fuzz_run(program, x, tracked: bool) -> list:
    """The program's ops on the start values `x`: the values still alive at
    its end and, on a tape, the gradients of the last one's sum."""
    if tracked:
        tape = ad.Tape()
        leaves = [tape.leaf(v) for v in x]
    else:
        leaves = [ad.Tensor(v) for v in x]
    values = list(leaves)
    for kind, i, j, drop in program:
        a, b = values[i % len(values)], values[j % len(values)]
        if kind == "relu":
            values.append(ad.relu(a))
        elif kind == "matmul":
            values.append(ad.matmul(ad.matmul(a, FUZZ_DOWN), FUZZ_UP))
        else:
            values.append(getattr(ad, kind)(a, b))
        if drop is not None:
            del values[drop % len(values)]
    out = [v.data for v in values]
    if tracked:
        out += [g.data for g in ad.backward(ad.reduce_sum(values[-1]), leaves)]
    return out


class ArenaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.workspace = ad.Workspace()
        self.held = []             # (an array held across passes, a copy of it)

    @rule(rows=st.sampled_from([3, 8, 12, 16]), program=st.lists(FUZZ_OPS, min_size=1, max_size=12),
          seed=st.integers(0, 2**16), tracked=st.booleans(), fail=st.booleans(),
          hold=st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=3))
    def run_pass(self, rows, program, seed, tracked, fail, hold):
        x = np.random.default_rng(seed).uniform(-1.0, 1.0, (2, rows, FUZZ_COLS))
        want = _fuzz_run(program, x, tracked)
        got = []
        with contextlib.suppress(RuntimeError), self.workspace:
            got = _fuzz_run(program, x, tracked)
            if fail:
                raise RuntimeError("a failed pass")
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert self.workspace.high_water > 0 or 8 * rows * FUZZ_COLS < ad._ARENA_MIN_BYTES
        for i, as_view in hold:
            a = got[i % len(got)]
            a = a[1:, ::2] if as_view else a
            self.held.append((a, a.copy()))

    @rule(data=st.data())
    def release_one(self, data):
        if self.held:
            del self.held[data.draw(st.integers(0, len(self.held) - 1))]

    @invariant()
    def held_arrays_keep_their_bytes(self):
        for a, kept in self.held:
            assert a.tobytes() == kept.tobytes()

    def teardown(self):
        self.workspace.close()


def test_fuzzed_passes_keep_every_held_array_and_the_bytes_of_no_workspace():
    run_state_machine_as_test(ArenaMachine, settings=settings(
        derandomize=True, database=None, deadline=None, max_examples=40,
        stateful_step_count=8))
