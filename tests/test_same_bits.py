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
     "65fab3bb8f63ae518cd8a0d9e65c1b1dae33df8906551358d269511923784afb",
     "8ee1dcd730661dc934ddd74b5d1be09c3dc5fdd7168d5cdb847c8ff9095fc249"),
    ("ce_b64_noaug",
     "b38fd213057adf4ccd3e01661d1adc8c45614763a39fd8dfa01ab3997b885c17",
     "1233ce5be368dabe79fccbd71d7f27e163389d13f7a3e26b4f6b881d202a6736"),
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
    # the step rows, and the three evaluations; steps and evaluations both
    # run in chunks of `palnet.train.CHUNK` = 8, so B=16 is two chunks
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
    assert _digest(*parts) == "279c9f533e3ff34dcc804536cd5e6fa486cc2a465b34e61578d1fa17aea060e0"
    totals = [training_loss(*args, create_graph=False)[0].total for args in _combos()]
    assert _digest(totals) == "ad5886b94ac32c3533de99a99f13504505b07620f8253d2d280251512748431a"
