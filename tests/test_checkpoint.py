import json
import os
import re
import time
import tracemalloc
import zipfile
from types import SimpleNamespace

import numpy as np
import pytest

from dialab import checkpoint
from dialab.actor_critic import ActorCriticAgent
from dialab.checkpoint import CheckpointError
from dialab.environment import Transition
from dialab.nets import layer_views
from dialab.value_agents import AgentConfig, QAgent, ReplayPool
from reference import TwoArrayPool, assert_same_rows

RNG = np.random.default_rng


def transition(i, dim=4, terminal=False):
    """Turn i of one long dialogue, whose next state is turn i+1's."""
    rng = RNG(i)
    return Transition(rng.normal(size=dim), i % 3, float(rng.normal()),
                      RNG(i + 1).normal(size=dim), terminal, False)


def q_agent(hidden, seed=0):
    cfg = AgentConfig(hidden=hidden, minibatch=4, warmup=4)
    return QAgent(n_features=4, n_actions=3, config=cfg, rng=RNG(seed),
                  gamma=0.99)


@pytest.fixture
def frozen_zip_clock(monkeypatch):
    # a zip member records the time it was written; pin it so two
    # snapshots written in different seconds can be compared byte for byte
    monkeypatch.setattr(zipfile, "time", SimpleNamespace(
        time=lambda: 0.0, localtime=time.localtime))


def test_pool_capacity_mismatch_fails_naming_both(tmp_path):
    pool = ReplayPool(capacity=8, n_features=4)
    for i in range(12):
        pool.add(transition(i))
    path = str(tmp_path / "pool.npz")
    pool.save(path)
    with pytest.raises(CheckpointError,
                       match="capacity is 8 in the checkpoint, expected 4"):
        ReplayPool(capacity=4, n_features=4).load(path)


def test_pool_writes_only_the_filled_rows(tmp_path):
    pool = ReplayPool(capacity=8, n_features=4)
    for i in range(3):
        pool.add(transition(i))
    path = str(tmp_path / "pool.npz")
    pool.save(path)
    with np.load(path) as data:
        assert data["features"].shape == (3, 4)
        assert data["terminal"].shape == (3,)
    restored = ReplayPool(capacity=8, n_features=4)
    for i in range(10, 15):
        restored.add(transition(i))
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
    for i in range(3):
        pool.add(transition(i))
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


def flip_middle_byte(data):
    data = bytearray(data)
    data[len(data) // 2] ^= 0xFF
    return bytes(data)


@pytest.mark.parametrize("damage, message", [
    (lambda data: data[:len(data) // 2], "not an npz archive"),
    (lambda data: data[:-10], "not an npz archive"),
    (lambda data: b"", "not an npz archive"),
    (lambda data: b"text, not a checkpoint\n", "not an npz archive"),
    (flip_middle_byte, "damaged: Bad CRC-32")],
    ids=["half", "cut-10", "empty", "text", "flipped-byte"])
def test_unreadable_file_is_refused_naming_the_path(tmp_path, damage,
                                                    message):
    path = tmp_path / "agent.npz"
    q_agent(hidden=(8, 6)).save(str(path))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: {message}")):
        q_agent(hidden=(8, 6)).load(str(path))


def test_save_writes_exactly_the_given_path(tmp_path):
    path = tmp_path / "agent"
    q_agent(hidden=(8, 6)).save(str(path))
    assert sorted(os.listdir(tmp_path)) == ["agent"]
    q_agent(hidden=(8, 6), seed=1).load(str(path))


def test_failed_write_keeps_previous_file(tmp_path, monkeypatch):
    path = str(tmp_path / "agent.npz")
    saved = q_agent(hidden=(8, 6))
    saved.save(path)

    def killed(fh, arrays):
        fh.write(b"partial")
        raise KeyboardInterrupt

    monkeypatch.setattr(checkpoint, "write_npz", killed)
    with pytest.raises(KeyboardInterrupt):
        q_agent(hidden=(8, 6), seed=1).save(path)
    monkeypatch.undo()
    assert sorted(os.listdir(tmp_path)) == ["agent.npz"]
    restored = q_agent(hidden=(8, 6), seed=1)
    restored.load(path)
    assert np.array_equal(restored.qnet.params, saved.qnet.params)


def test_written_bytes_are_np_savez_bytes(tmp_path, frozen_zip_clock):
    # np.savez is the reference, on a seekable file as a snapshot is
    # written, for each kind of array a snapshot could hold
    rng = RNG(3)
    square = rng.normal(size=(6, 5))
    arrays = {"__meta__": np.frombuffer(b'{"kind": "x"}', dtype=np.uint8),
              "empty": np.zeros((0, 4)), "empty_bool": np.zeros(0, bool),
              "strided": square[::2, 1::2], "fortran": np.asfortranarray(square),
              "bool": rng.random(7) > 0.5, "int": np.arange(-4, 9),
              "float": square, "scalar": np.float64(2.5),
              "rows": square[1:4]}
    assert not arrays["strided"].flags.c_contiguous
    for name, write in (("reference", lambda fh: np.savez(fh, **arrays)),
                        ("written", lambda fh: checkpoint.write_npz(fh,
                                                                   arrays))):
        with open(tmp_path / name, "wb") as fh:
            write(fh)
    assert ((tmp_path / "written").read_bytes()
            == (tmp_path / "reference").read_bytes())


def ac_agent(hidden, seed=0):
    cfg = AgentConfig(hidden=hidden, minibatch=4, warmup=4, target_sync=5)
    return ActorCriticAgent(n_features=4, n_actions=3, config=cfg,
                            rng=RNG(seed), explored=(0, 1, 2), gamma=0.99)


# each agent's nets and Adadelta optimisers by snapshot part, as attributes
AGENTS = {"dqn": (q_agent, {"q": "qnet", "target": "target"}, {"opt": "opt"}),
          "actor-critic": (ac_agent, {"policy": "policy", "value": "value"},
                           {"policy_opt": "policy_opt",
                            "value_opt": "value_opt"})}


@pytest.mark.parametrize("kind", sorted(AGENTS))
def test_snapshot_holds_each_net_and_optimiser_as_one_vector(tmp_path, kind):
    make, nets_, opts = AGENTS[kind]
    agent = make(hidden=(8, 6))
    rng = RNG(1)
    for i in range(12):     # one dialogue, for the actor-critic's steps
        agent.observe(transition(i, terminal=i == 11), rng, 0.3)
    vectors = {f"{part}.params": getattr(agent, attr).params
               for part, attr in nets_.items()}
    for part, attr in opts.items():
        opt = getattr(agent, attr)
        vectors.update({f"{part}.grad": opt.acc_grad,
                        f"{part}.update": opt.acc_update})
    path = str(tmp_path / "agent.npz")
    agent.save(path)
    with np.load(path) as data:
        held = {n for n in data.files if not n.startswith(("pool.", "__"))}
    assert held == vectors.keys()
    fresh = make(hidden=(8, 6), seed=1)
    fresh.load(path)
    restored = fresh.state().arrays
    for name, vector in vectors.items():
        assert np.any(vector != 0), name
        assert restored[name].shape == vector.shape, name
        assert restored[name].tobytes() == vector.tobytes(), name


def test_per_layer_arrays_are_refused_naming_the_path(tmp_path):
    # the layout that stored each layer's W and b as q.w0, q.b0, ...
    agent = q_agent(hidden=(8, 6))
    state = agent.state()
    for part, prefix in (("q.params", "q."), ("target.params", "target."),
                         ("opt.grad", "opt.grad."),
                         ("opt.update", "opt.update.")):
        weights, biases = layer_views(state.arrays.pop(part),
                                      agent.qnet.layer_sizes)
        for i, (w, b) in enumerate(zip(weights, biases)):
            state.arrays.update({f"{prefix}w{i}": w, f"{prefix}b{i}": b})
    path = str(tmp_path / "per-layer.npz")
    checkpoint.save(path, "qagent", state)
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: missing counters []; arrays [")) as refused:
        q_agent(hidden=(8, 6)).load(path)
    assert "'q.w0'" in str(refused.value)
    assert "'q.params'" in str(refused.value)


def dialogues(pools, n_dialogues, turns=5, dim=4, seed=0):
    """Feed ``n_dialogues`` chained dialogues of ``turns`` turns, each
    ending in a final belief of its own, one ``add`` a turn."""
    rng = RNG(seed)
    for _ in range(n_dialogues):
        states = rng.normal(size=(turns + 1, dim))
        for k in range(turns):
            t = Transition(states[k], k % 3, float(rng.normal()),
                           states[k + 1], k == turns - 1, False)
            for pool in pools:
                pool.add(t)


@pytest.mark.parametrize("n_dialogues", [0, 3, 9], ids=["empty", "partly",
                                                       "wrapped"])
def test_pool_snapshot_restores_the_two_array_pool(tmp_path, n_dialogues):
    # the snapshot holds the filled rows and the newest row's next state,
    # and the restored pool goes on as the two-array pool does; 9
    # dialogues of 5 turns wrap a pool of 32 rows
    pool, oracle = ReplayPool(32, 4), TwoArrayPool(32, 4)
    dialogues([pool, oracle], n_dialogues)
    path = str(tmp_path / "pool.npz")
    pool.save(path)
    with np.load(path) as data:
        assert set(data.files) == {checkpoint.META, *ReplayPool.FIELDS,
                                   "newest_next"}
        assert data["features"].shape == (len(oracle), 4)
    restored = ReplayPool(32, 4)
    restored.load(path)
    for more in (0, 2):
        dialogues([restored, oracle], more, seed=7)
        assert_same_rows(restored, oracle)


def test_pool_saves_next_states_without_the_whole_column(tmp_path):
    # 4000 dialogues of 10 turns fill the pool, each ending in a final
    # belief of its own; the snapshot holds the newest one's
    capacity, n, turns = 40000, 16, 10
    column = capacity * n * 8
    pool = ReplayPool(capacity, n)
    states = RNG(1).normal(size=(capacity // turns, turns + 1, n))
    for dialogue in states:
        for k in range(turns):
            pool.add(Transition(dialogue[k], 0, 0.0, dialogue[k + 1],
                                k == turns - 1, False))
    path = str(tmp_path / "pool.npz")
    tracemalloc.start()
    try:
        pool.save(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < column / 4, (peak, column)
    with np.load(path) as data:
        assert np.array_equal(data["newest_next"], states[-1, -1])
    restored = ReplayPool(capacity, n)
    restored.load(path)
    nxt = restored.batch(np.arange(capacity))[3].reshape(-1, turns, n)
    assert np.array_equal(nxt[:, :-1], states[:, 1:-1])
    assert np.array_equal(nxt[-1, -1], states[-1, -1])


def test_agent_newest_next_state_of_another_length_is_refused(tmp_path):
    agent = q_agent(hidden=(8, 6))
    dialogues([agent.pool], 2)
    state = agent.state()
    state.arrays["pool.newest_next"] = np.zeros(3)
    path = str(tmp_path / "agent.npz")
    checkpoint.save(path, "qagent", state)
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: array 'pool.newest_next' has shape (3,), expected "
            f"(4,)")):
        q_agent(hidden=(8, 6)).load(path)


@pytest.mark.parametrize("size, cursor, field", [
    (3, 7, "cursor"), (3, 12, "cursor"), (3, -1, "cursor"),
    (3, 2, "cursor"), (8, 8, "cursor"), (0, 1, "cursor")])
def test_pool_counters_outside_the_pool_are_refused(tmp_path, size, cursor,
                                                    field):
    pool = ReplayPool(capacity=8, n_features=4)
    for i in range(size):
        pool.add(transition(i))
    state = pool.state()
    state.counters["cursor"] = cursor
    path = str(tmp_path / "pool.npz")
    checkpoint.save(path, "replay-pool", state)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: {field}={cursor} "
                                       "does not fit")):
        ReplayPool(capacity=8, n_features=4).load(path)


def test_pool_size_above_capacity_is_refused(tmp_path):
    pool = ReplayPool(capacity=10, n_features=4)
    for i in range(10):
        pool.add(transition(i))
    state = pool.state()
    state.spec["capacity"] = 8
    state.counters["cursor"] = 0
    path = str(tmp_path / "pool.npz")
    checkpoint.save(path, "replay-pool", state)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: size=10 exceeds the "
                                       "capacity 8")):
        ReplayPool(capacity=8, n_features=4).load(path)


def test_agent_pool_counters_are_checked_at_load(tmp_path):
    agent = q_agent(hidden=(8, 6))
    for i in range(3):
        agent.pool.add(transition(i))
    state = agent.state()
    state.counters["pool.cursor"] = 7
    path = str(tmp_path / "agent.npz")
    checkpoint.save(path, "qagent", state)
    with pytest.raises(CheckpointError,
                       match=re.escape(f"{path}: pool.cursor=7 does not "
                                       "fit pool.size=3")):
        q_agent(hidden=(8, 6)).load(path)


def misplaced_cursor(state):
    state.counters["pool.cursor"] = 7
    return "pool.cursor=7 does not fit pool.size=6"


def short_value_net(state):
    state.arrays["value.params"] = state.arrays["value.params"][:-1]
    return "array 'value.params' has shape (100,), expected (101,)"


@pytest.mark.parametrize("make, kind, spoil", [
    (q_agent, "qagent", misplaced_cursor),
    (ac_agent, "actor-critic", short_value_net)])
def test_refused_agent_load_changes_nothing(tmp_path, make, kind, spoil):
    def trained(seed, turns):
        agent = make(hidden=(8, 6), seed=seed)
        for i in turns:
            agent.observe(transition(i, terminal=i == turns[-1]), RNG(i),
                          0.3)
        return agent

    state = trained(0, range(6)).state()
    message = spoil(state)
    path = str(tmp_path / "agent.npz")
    checkpoint.save(path, kind, state)
    agent = trained(1, range(10, 15))
    before = agent.state()
    arrays = {k: a.tobytes() for k, a in before.arrays.items()}
    with pytest.raises(CheckpointError, match=re.escape(
            f"{path}: {message}")):
        agent.load(path)
    after = agent.state()
    assert {k: a.tobytes() for k, a in after.arrays.items()} == arrays
    assert after.counters == before.counters
