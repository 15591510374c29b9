"""Fixed-seed golden runs: the learners' curves and saved state, bit for bit.

Each short run's curve rows (without wall-clock) are compared by ``repr``,
against values recorded before the flat-parameter nets landed, and its final
snapshot by a digest of every array and the ``__meta__`` record, recorded
when the snapshot took in the replay pool and the run counters. The capped
gpsarsa curve was recorded before the GP kept and reused its projections,
so it checks that reuse at the dictionary cap. The two gpsarsa snapshot
digests were recorded again when the GP began to fold its covariance terms
into ``Sigma`` in batches, which moves the last bits of ``mu`` and
``Sigma`` but no curve row. They were recorded once more when the GP's
projections and ``Kinv @ mu`` began to take one action block of ``Kinv``
at a time: that reorders their sums, so the last bits of ``mu``, ``Sigma``
and ``Kinv`` move but no curve row does (gpsarsa ``f0f784dd...`` ->
``c036d579...``, gpsarsa-capped ``2b43ccb5...`` -> ``2f263ae6...``). The
dqn, da2c and tda2c digests were recorded again when the pool's snapshot
took in the pool's own layout: in place of the ``pool.next_features``
column it holds ``pool.held_slots`` and ``pool.held_next``, the next states
that the following slot does not hold (one a dialogue), and every other
array is unchanged bit for bit (dqn ``05be4922...`` -> ``9bced126...``,
da2c ``8e2d26ad...`` -> ``4b1fed08...``, tda2c ``1e00b116...`` ->
``be67236c...``). They were recorded once more when each net and each
Adadelta optimiser took one array in the snapshot, the vector it holds in
memory (``<part>.params``, ``<part>.grad``, ``<part>.update``), in place
of per-layer ``w{i}``/``b{i}`` arrays: each vector is those arrays' values,
every W then every b, bit for bit, and every other array and the meta
record are unchanged (dqn ``9bced126...`` -> ``db2452ed...``, da2c
``4b1fed08...`` -> ``818b53a0...``, tda2c ``be67236c...`` ->
``eba6fc7f...``). They were recorded once more when the pool stopped
holding the next states that the following slot does not: a row's next
state is the following row's, and the snapshot holds only the newest
row's, as ``pool.newest_next`` in place of ``pool.held_slots`` and
``pool.held_next``. That array is the newest slot's held next state bit
for bit, and every other array and the meta record are unchanged (dqn
``db2452ed...`` -> ``9781d33e...``, da2c ``818b53a0...`` ->
``2e3de0aa...``, tda2c ``eba6fc7f...`` -> ``2d14c52b...``). The da2c and
tda2c records, curves and digests, were recorded again when the
actor-critic began to learn once per dialogue (a critic step toward the
dialogue's returns, then one actor step over its turns, each TD error
weighted by pi(a) / mu(a)) in place of a critic replay step and an actor
step every turn, and its snapshot dropped the pool and the critic's target
copy (da2c ``2e3de0aa...`` -> ``a9265a9d...``, tda2c ``2d14c52b...`` ->
``a16149b2...``). The dqn, da2c and tda2c digests were recorded once
more when the nets lost their ``head`` setting and the actor-critic
stopped saving pretraining's step count: the meta record no longer holds
``<net>.head`` or ``value_steps``, and every array is unchanged bit for
bit (a digest over the arrays alone reads dqn ``b5a0d6e5...``, da2c
``4f933f44...`` and tda2c ``316e67ed...`` before and after; dqn
``9781d33e...`` -> ``1167c47d...``, da2c ``a9265a9d...`` ->
``543b3b32...``, tda2c ``a16149b2...`` -> ``f1f7b8b4...``). A refactor that is meant to keep behaviour must keep
these; a change that moves them on purpose says why and records new
values.
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
            "1167c47d7a6f34e6e4d04497d5842c20d3fac5c849190c20edf8556be5f5c778"),
    "da2c": ([(0, 0.0, -1.0299999999999998, 1.0),
              (20, 0.0, -1.1110000000000002, 3.7),
              (40, 0.0, -1.6390000000000005, 21.3)],
             "543b3b325d8c910052bcafe6f17adb2d6b6fedd89bf226a986d13f6ff5c4ec07"),
    "tda2c": ([(0, 0.0, -1.0299999999999998, 1.0),
               (20, 0.0, -1.0690000000000002, 2.3),
               (40, 0.3, -0.586, 6.2)],
              "f1f7b8b425862ed5c90c9c375dc02b844560ba90b78e74f2a57f4e4d6c995d45"),
    "gpsarsa": ([(0, 0.0, -1.9000000000000006, 30.0),
                 (20, 0.75, 0.0574999999999998, 14.75),
                 (40, 0.75, 0.20749999999999993, 9.75)],
                "c036d5795dd095aebcef669932c77f8d9173277a9677505d7a0525c06f13a2e9"),
    # the gpsarsa run with its dictionary capped at 40 points, so the last
    # half of the run projects onto a full dictionary
    "gpsarsa-capped": ([(0, 0.0, -1.9000000000000006, 30.0),
                        (20, 0.625, -0.23750000000000018, 16.25),
                        (40, 0.5, -0.48375000000000024, 16.125)],
                       "2f263ae62fcfed6237378194a1a0945bc047e552bc8c33a35b4338f2db6f7341"),
}


def golden_config(algorithm: str, tmp_path) -> dict:
    out = str(tmp_path / "run")
    if algorithm.startswith("gpsarsa"):
        cap = 40 if algorithm == "gpsarsa-capped" else 200
        return {"algorithm": "gpsarsa", "space": "summary", "seed": 1,
                "dialogues": 40, "eval_period": 20, "eval_episodes": 8,
                "gp": {"nu": 0.3, "max_dictionary": cap}, "out": out}
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
