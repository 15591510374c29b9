"""Fixed-seed golden runs: the learners' curves and saved state, bit for bit.

Each short run's curve rows (without wall-clock) are compared by ``repr`` and
its final checkpoint by a digest of every array, against values recorded
before the flat-parameter nets landed. A refactor that is meant to keep
behaviour must keep these; a change that moves them on purpose says why and
records new values.
"""

import hashlib
import os

import numpy as np
import pytest

from dialab import harness
from dialab.corpus import generate_corpus, save_corpus
from dialab.harness import config_from_dict, train_run

SMALL_AGENT = {"hidden": [16, 12], "warmup": 30, "target_sync": 50}

GOLDEN = {
    "dqn": ([(0, 0.0, -1.0299999999999998, 1.0),
             (20, 0.0, -1.9000000000000008, 30.0),
             (40, 0.8, -0.018000000000000328, 20.6)],
            "4b3dcc659cfb0c6066c8a317b7d7a2f3bf0be71d9fc9f1e9f0a2d9274f28e5c8"),
    "da2c": ([(0, 0.0, -1.0299999999999998, 1.0),
              (20, 0.4, -0.6560000000000002, 15.2),
              (40, 0.0, -1.0630000000000002, 2.1)],
             "040048ef84dc19b72be46761a0c2d5c15426b14fc90557e2cec6733feb4db9ee"),
    "tda2c": ([(0, 0.0, -1.0299999999999998, 1.0),
               (20, 0.0, -1.0630000000000002, 2.1),
               (40, 0.7, 0.259, 4.7)],
              "1506c832c5e5625f27746de8f4edb74cd969fca0cae2497e827012bd1396ab75"),
    "gpsarsa": ([(0, 0.0, -1.9000000000000006, 30.0),
                 (20, 0.75, 0.0574999999999998, 14.75),
                 (40, 0.75, 0.20749999999999993, 9.75)],
                "e6ea5ecfd571cabb4e2b197981eb62fe2c5a393716755c1126054454175e03fa"),
}


def golden_config(algorithm: str, tmp_path) -> dict:
    out = str(tmp_path / "run")
    if algorithm == "gpsarsa":
        return {"algorithm": "gpsarsa", "space": "summary", "seed": 1,
                "dialogues": 40, "eval_period": 20, "eval_episodes": 8,
                "gp": {"nu": 0.3, "max_dictionary": 200}, "out": out}
    if algorithm == "tda2c":
        _, _, env = harness.build_world(
            config_from_dict({"space": "original", "seed": 4}))
        corpus = str(tmp_path / "corpus.jsonl")
        save_corpus(generate_corpus(env, 40, seed=4), corpus)
        return {"algorithm": "tda2c", "space": "original", "seed": 4,
                "dialogues": 40, "eval_period": 20, "eval_episodes": 10,
                "agent": {**SMALL_AGENT, "sup_epochs": 3},
                "pretrain": {"mode": "sup_full_batch", "corpus": corpus},
                "out": out}
    return {"algorithm": algorithm, "space": "original", "seed": 3,
            "dialogues": 40, "eval_period": 20, "eval_episodes": 10,
            "agent": SMALL_AGENT, "out": out}


def checkpoint_digest(path: str) -> str:
    digest = hashlib.sha256()
    with np.load(path) as data:
        for name in sorted(data.files):
            digest.update(name.encode())
            digest.update(data[name].tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_fixed_seed_run_matches_recorded(tmp_path, algorithm):
    cfg = config_from_dict(golden_config(algorithm, tmp_path))
    rows = train_run(cfg)
    curve, digest = GOLDEN[algorithm]
    assert [repr(row[:4]) for row in rows] == [repr(row) for row in curve]
    assert checkpoint_digest(os.path.join(cfg.out, "checkpoint.npz")) == digest
