"""Same bits: the bytes that training and the gradient check produce are pinned.

A speedup or a refactor must leave every digest here as it is.  A change meant
to alter these bits updates the pins in the same diff and says why in
CHANGES.md.  Like the dataset digests in test_data.py, the pins hold on one
machine and one BLAS build (README.md, "Determinism").
"""

import hashlib

import numpy as np
import pytest

from palnet.attribution import ChannelStrategy
from palnet.data import generate_dataset, manifest_path
from palnet.gradcheck import COMBOS, gradcheck_inputs
from palnet.train import TrainConfig, loss_and_grads, train, training_loss


def _digest(*parts) -> str:
    """SHA-256 over arrays' bytes and other values' repr (exact for floats)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()


# the benchmark's training workloads (perfbench/run.py), one epoch at seed 1
RUNS = {
    "pal_relu4_b16": dict(n_train=252, method="grad_input", strategy="mean_of_half",
                          pal_weight=0.1, batch_size=16, augment=True),
    "ce_b64_noaug": dict(n_train=497, method="none", batch_size=64, augment=False),
}


@pytest.mark.parametrize("name,ckpt_sha256,record_digest", [
    ("pal_relu4_b16",
     "882855a177fab43e56b70bbbe8286002ae180570c6fe1d065923582b62e4fcc6",
     "a732b580beb5705b97b1af813abf617e2a4725b97115b7a128d660b7b1752242"),
    ("ce_b64_noaug",
     "7ecfb5079c027406af522906130964fa6f19370d222ad94acd7d5421035d4882",
     "8cd1f9af27548d1d946285032c95005665588d8e1c614736241ef29be6d87e09"),
])
def test_one_epoch_bits_are_pinned(tmp_path, name, ckpt_sha256, record_digest):
    config = dict(RUNS[name])
    root = str(tmp_path / "data")
    generate_dataset(root, seed=1, n=config.pop("n_train"), split="train")
    generate_dataset(root, seed=1, n=64, split="test")
    cfg = TrainConfig(train_manifest=manifest_path(root, "train"),
                      test_manifest=manifest_path(root, "test"),
                      seed=1, epochs=1, tap="relu4", **config)
    record = train(cfg, str(tmp_path / "run"))
    with open(record.checkpoint, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == ckpt_sha256
    # the step rows, and the three evaluations that run in chunks of 16
    assert _digest(record.steps, record.test_acc, record.test_corr,
                   record.corr_start, record.corr_end) == record_digest


def _combos():
    spec, tap, images, labels, priors, params = gradcheck_inputs()
    for method, strategy in COMBOS:
        yield (spec, params, images, labels, priors if method != "none" else None, tap,
               method, ChannelStrategy.parse(strategy), 1.0)


def test_gradcheck_objective_bits_are_pinned():
    # `run_gradcheck`'s default inputs: its report rests on these values
    parts = []
    for args in _combos():
        floats, grads = loss_and_grads(*args)
        parts += [floats] + [part for k in sorted(grads) for part in (k, grads[k])]
    assert _digest(*parts) == "1f4f55b0e780de4059739f5e4c1c4c49771e0c021202092f635e28d8773b3d8c"
    totals = [training_loss(*args, create_graph=False)[0].total for args in _combos()]
    assert _digest(totals) == "a8e9e61e103f222a8fff34f09c2af41d1a49f8c0d6c74ef4d68ba6f35e33550e"
