"""Fixed-seed golden runs: the learners' curves and saved state, bit for bit.

Each short run's curve rows (without wall-clock) are compared by ``repr``,
against values recorded before the flat-parameter nets landed, and its final
snapshot by a digest of every array and the ``__meta__`` record, recorded
when the snapshot took in the replay pool and the run counters. A refactor
that is meant to keep behaviour must keep these; a change that moves them on
purpose says why and records new values.
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
            "05be49227b72eb09533c8c81716ba3afd07c93488bae8cd9a630ee4cdc76a889"),
    "da2c": ([(0, 0.0, -1.0299999999999998, 1.0),
              (20, 0.4, -0.6560000000000002, 15.2),
              (40, 0.0, -1.0630000000000002, 2.1)],
             "8e2d26addbf8c8c04a92735de8ff454057c7d47d761e06896943ce6845f4e08d"),
    "tda2c": ([(0, 0.0, -1.0299999999999998, 1.0),
               (20, 0.0, -1.0630000000000002, 2.1),
               (40, 0.7, 0.259, 4.7)],
              "1e00b11698590c48b76cf87f94aca35c84d98b03ff7370667f7334b8623b40fe"),
    "gpsarsa": ([(0, 0.0, -1.9000000000000006, 30.0),
                 (20, 0.75, 0.0574999999999998, 14.75),
                 (40, 0.75, 0.20749999999999993, 9.75)],
                "0d97210d0323484ee2e51c1f6781fcd32a0092b5f7db90d8e8c7ba447331a8e8"),
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
