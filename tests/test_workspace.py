"""The training step's arena (`autodiff.Workspace`): it holds no more than a
step needs, never overwrites a live array, keeps every bit, and leaves the
steps after an epoch's first without page faults.  A step runs in chunks, so
its arena does not grow with the batch, and the chunks' weighted gradients
match one call over the whole batch."""

import importlib
import resource
import tracemalloc

import numpy as np
import pytest

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
    # the recording pass places its arrays as they come, so the top of what
    # it touched may lie above the planned arena; both count towards the RSS
    mb = (workspace.nbytes / 2**20, workspace.high_water / 2**20, step_peak / 2**20)
    assert 0 < workspace.nbytes <= 1.2 * step_peak, mb
    assert 0 < workspace.high_water <= 1.2 * step_peak, mb
    # the first pass places arrays as they come; arrays that die early keep
    # its top near the plan's, where arrays held to the step's end spread it
    assert workspace.high_water <= 1.05 * workspace.nbytes, mb
    workspace.close()
    assert workspace.nbytes == workspace.high_water == 0


def _first_columns(breakdown) -> np.ndarray:
    """The first conv's im2col columns, which the tape keeps for matmul's
    rule and the arena serves."""
    return next(node.value for node in breakdown.tensor.tape.nodes if node.op == "im2col")


def test_an_array_held_across_passes_is_never_overwritten():
    workspace = ad.Workspace()
    batches = [_step_args("none", 16, seed) for seed in range(4)]

    def step(args):
        breakdown, trace = training_loss(*args)
        names = sorted(trace.params)
        grads = ad.backward(breakdown.tensor, [trace.params[k] for k in names])
        # a view of the first conv's columns: a slot array is its base
        return _first_columns(breakdown)[:, 1:], {k: g.data for k, g in zip(names, grads)}

    with workspace:
        recorded, _ = step(batches[0])     # records; held past its pass
    with workspace:
        held, _ = step(batches[1])
    assert any(held.base is root for root in workspace._roots)
    kept = [recorded.copy(), held.copy()]
    for args in batches[2:]:
        with workspace:
            _, grads = step(args)
        assert [recorded.tobytes(), held.tobytes()] == [a.tobytes() for a in kept]
        _, want = step(args)
        assert all(grads[k].tobytes() == want[k].tobytes() for k in want)


def test_no_slot_sharing_bytes_with_a_held_array_is_handed_out():
    x = np.random.default_rng(0).uniform(-1.0, 1.0, size=(64, 1024))   # 512 KiB outputs
    held = []

    def run(x, hold=False):
        a = ad.relu(x)
        b = ad.mul(a, 2.0)
        if hold:
            held.append(a.data)
        del a
        return ad.relu(b).data

    workspace = ad.Workspace()
    with workspace:
        run(x)
    # the first relu's output died before the last relu asked for a buffer
    assert 0 in workspace._slots[2][1]
    with workspace:
        run(x, hold=True)
    kept = held[0].copy()
    with workspace:
        got = run(-x)
    assert held[0].tobytes() == kept.tobytes()
    assert got.tobytes() == run(-x).tobytes()


def test_a_changed_request_sequence_gets_fresh_blocks_and_the_same_bytes(monkeypatch):
    served = []                    # per large request: was it a planned slot
    take = ad.Workspace.take

    def spy(self, shape):
        out = take(self, shape)
        if 8 * np.prod(shape) >= ad._ARENA_MIN_BYTES and self._slots is not None:
            served.append(any(out is root for root in self._roots))
        return out

    monkeypatch.setattr(ad.Workspace, "take", spy)
    workspace = ad.Workspace()
    for i, n in enumerate([16, 16, 7, 16]):
        args = _step_args("grad_input", n, seed=i)
        served.clear()
        with workspace:
            got = loss_and_grads(*args)
        assert _same_bytes(got, loss_and_grads(*args)), n
        if i == 0:
            assert served == []                            # the recording pass
        else:
            assert served and all(s == (n == 16) for s in served), (n, served)


def test_a_failed_recording_pass_leaves_its_arrays_alone():
    workspace = ad.Workspace()
    args = _step_args("none", 16)
    held = []

    def failing_step():
        breakdown, _ = training_loss(*args)
        held.append(_first_columns(breakdown))
        raise RuntimeError("stop")

    with pytest.raises(RuntimeError), workspace:
        failing_step()
    kept = held[0].copy()
    for _ in range(2):
        with workspace:
            got = loss_and_grads(*args)
        assert held[0].tobytes() == kept.tobytes()
    assert _same_bytes(got, loss_and_grads(*args))


def test_recording_without_an_address_space_reserve_keeps_the_bytes(monkeypatch):
    # where the reserve cannot be mapped, the first pass records into fresh
    # blocks and the arena is mapped on its own
    monkeypatch.setattr(ad, "_reserve", lambda: None)
    workspace = ad.Workspace()
    args = _step_args("grad_input", 16)
    for _ in range(2):
        with workspace:
            got = loss_and_grads(*args)
        assert _same_bytes(got, loss_and_grads(*args))
    assert workspace.nbytes > 0


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


def test_a_chunked_steps_ragged_last_chunk_is_planned_too(tmp_path, monkeypatch):
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
        arenas.append(workspace.nbytes)
        workspace.close()
    assert 0 < arenas[1] <= 1.05 * arenas[0], [a / 2**20 for a in arenas]


def test_a_chunked_paper_arm_step_plans_about_half_the_arena_of_one_call():
    # the paper's arm, B=16 at relu4, runs as two chunks of 8
    arenas = []
    for step in (step_loss_and_grads, loss_and_grads):
        workspace = ad.Workspace()
        with workspace:
            step(*_step_args("grad_input", 16))
        arenas.append(workspace.nbytes)
        workspace.close()
    assert 0 < arenas[0] <= 0.55 * arenas[1], [a / 2**20 for a in arenas]


def test_an_out_of_range_im2col_table_raises_a_palnet_error():
    # a negative stride walks the windows off a 2x2 input; im2col may read
    # the table with mode="clip", which would not raise
    with pytest.raises(ad.ShapeError, match="leave the 2x2 input"):
        ad._im2col_indices(1, 2, 2, 3, -1)
    with pytest.raises(ad.EngineError):
        ad.im2col(np.ones((1, 1, 2, 2)), 3, -1, 0)
