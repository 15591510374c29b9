import json
import os

import numpy as np
import pytest

from dialab import checkpoint
from dialab.checkpoint import CheckpointError
from dialab.environment import Transition
from dialab.value_agents import AgentConfig, QAgent, ReplayPool

RNG = np.random.default_rng


def transition(i, dim=4):
    rng = RNG(i)
    return Transition(rng.normal(size=dim), i % 3, float(rng.normal()),
                      rng.normal(size=dim), False, False)


def q_agent(hidden, seed=0):
    cfg = AgentConfig(hidden=hidden, minibatch=4, warmup=4)
    return QAgent(n_features=4, n_actions=3, config=cfg, rng=RNG(seed))


def test_pool_capacity_mismatch_fails_naming_both(tmp_path):
    pool = ReplayPool(capacity=8, n_features=4)
    pool.extend([transition(i) for i in range(12)])
    path = str(tmp_path / "pool.npz")
    pool.save(path)
    with pytest.raises(CheckpointError,
                       match="capacity is 8 in the checkpoint, expected 4"):
        ReplayPool(capacity=4, n_features=4).load(path)


def test_pool_writes_only_the_filled_rows(tmp_path):
    pool = ReplayPool(capacity=8, n_features=4)
    pool.extend([transition(i) for i in range(3)])
    path = str(tmp_path / "pool.npz")
    pool.save(path)
    with np.load(path) as data:
        assert data["features"].shape == (3, 4)
        assert data["terminal"].shape == (3,)
    restored = ReplayPool(capacity=8, n_features=4)
    restored.extend([transition(i) for i in range(10, 15)])
    restored.load(path)
    assert len(restored) == 3
    for mine, theirs in zip(restored.batch(np.arange(3)),
                            pool.batch(np.arange(3))):
        assert np.array_equal(mine, theirs)
    # the next transition goes to the saved write position
    restored.add(transition(3))
    pool.add(transition(3))
    assert np.array_equal(restored.batch(np.arange(4))[0],
                          pool.batch(np.arange(4))[0])


def test_pool_row_count_must_equal_size(tmp_path):
    pool = ReplayPool(capacity=8, n_features=4)
    pool.extend([transition(i) for i in range(3)])
    state = pool.state()
    state.counters["size"] = 4
    path = str(tmp_path / "pool.npz")
    checkpoint.save(path, "replay-pool", state)
    with pytest.raises(CheckpointError, match="has shape \\(3, 4\\), "
                       "expected \\('size', 4\\), where {'size': 4}"):
        ReplayPool(capacity=8, n_features=4).load(path)


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


def test_save_writes_exactly_the_given_path(tmp_path):
    path = tmp_path / "agent"
    q_agent(hidden=(8, 6)).save(str(path))
    assert sorted(os.listdir(tmp_path)) == ["agent"]
    q_agent(hidden=(8, 6), seed=1).load(str(path))


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "agent.npz")
    saved = q_agent(hidden=(8, 6))
    saved.save(path)

    def killed(fh, **arrays):
        fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint.np, "savez", killed)
    with pytest.raises(KeyboardInterrupt):
        q_agent(hidden=(8, 6), seed=1).save(path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["agent.npz"]
    restored = q_agent(hidden=(8, 6), seed=1)
    restored.load(path)
    assert np.array_equal(restored.qnet.params, saved.qnet.params)


def test_per_layer_v2_arrays_load_into_flat_parameters(tmp_path):
    # the v2 layout names each layer's W and b; they land in the flat
    # vector as every W, then every b
    agent = q_agent(hidden=(8, 6))
    state = agent.state()
    rng = RNG(5)
    arrays = {name: rng.normal(size=a.shape) for name, a in state.arrays.items()}
    meta = json.dumps({"format": "dialab", "version": 2, "kind": "qagent",
                       **state.spec, **state.counters, "train_steps": 7})
    path = str(tmp_path / "v2.npz")
    np.savez(path, __meta__=np.frombuffer(meta.encode(), dtype=np.uint8),
             **arrays)
    agent.load(path)
    layers = range(3)
    for prefix, params in (("q.", agent.qnet.params),
                           ("target.", agent.target.params),
                           ("opt.grad.", agent.opt.acc_grad.vector),
                           ("opt.update.", agent.opt.acc_update.vector)):
        expected = np.concatenate(
            [arrays[f"{prefix}w{i}"].ravel() for i in layers]
            + [arrays[f"{prefix}b{i}"] for i in layers])
        assert np.array_equal(params, expected), prefix
    assert agent.train_steps == 7
