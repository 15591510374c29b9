import json

import numpy as np
import pytest

from dialab.checkpoint import CheckpointError
from dialab.environment import Transition
from dialab.value_agents import QAgent, QAgentConfig, ReplayPool

RNG = np.random.default_rng


def transition(i, dim=4):
    rng = RNG(i)
    return Transition(rng.normal(size=dim), i % 3, float(rng.normal()),
                      rng.normal(size=dim), False, False)


def q_agent(hidden, seed=0):
    cfg = QAgentConfig(hidden=hidden, minibatch=4, warmup=4)
    return QAgent(n_features=4, n_actions=3, config=cfg, rng=RNG(seed))


def test_pool_capacity_mismatch_fails_naming_both(tmp_path):
    pool = ReplayPool(capacity=8, n_features=4)
    pool.extend([transition(i) for i in range(12)])
    path = str(tmp_path / "pool.npz")
    pool.save(path)
    with pytest.raises(CheckpointError,
                       match="capacity is 8 in the checkpoint, expected 4"):
        ReplayPool(capacity=4, n_features=4).load(path)


def test_architecture_mismatch_fails(tmp_path):
    # a (8, 1) net's arrays would broadcast into an (8, 6) net
    path = str(tmp_path / "agent.npz")
    q_agent(hidden=(8, 1)).save(path)
    with pytest.raises(CheckpointError, match="layer_sizes"):
        q_agent(hidden=(8, 6)).load(path)


def test_version_1_file_refused(tmp_path):
    agent = q_agent(hidden=(8, 6))
    arrays = {f"q_w{i}": w for i, w in enumerate(agent.qnet.weights)}
    meta = json.dumps({"format": "dialab-qagent", "version": 1,
                       "train_steps": 0})
    path = str(tmp_path / "old.npz")
    np.savez(path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8),
             **arrays)
    with pytest.raises(CheckpointError,
                       match="version is 1 in the checkpoint, expected 2"):
        agent.load(path)
