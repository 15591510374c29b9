"""The benchmark's workloads, why each was chosen, and what they predict.

Every workload is one closed-loop training pipeline: one process, one
trainer, no extra threads, BLAS pinned to one thread. The workload seed is
a benchmark argument; the library only sees the experiment config built
from it below (``experiment_config``), so the same seed always gives the
same DB, goals, corpus, agent initialisation and curve.

Layers are module names under ``src/dialab/``.

``tda2c-original``
    The paper's headline pipeline. ``corpus.generate_corpus`` runs the
    handcrafted controller with the default blunder schedule and rates
    every dialogue; this stage uses only the environment (``ontology``,
    ``usersim``, ``tracker``, ``environment``, ``corpus``), no learner.
    ``train_run`` then pretrains (supervised cross-entropy plus batch value
    RL, ``nets`` in batches) and learns online by actor-critic, where
    ``nets`` runs one sample at a time with two Adadelta steps per turn.

``dqn-original``
    A replay-minibatch learner: ``nets`` does a 32-row forward/backward/
    Adadelta on every transition, and ``value_agents`` samples replay and
    syncs the target. Each eval point writes a full-capacity pool
    (50 000 rows x 31 features x 2 arrays, about 25 MB). ``gpsarsa`` idles.

``gpsarsa-summary``
    Posterior updates cost O(n^2) in the dictionary size n and dominate;
    ``nets`` idles. Also the only workload on the summary featurizer and
    the min-max slot realization. Uncapped, the dictionary keeps growing
    (seeds ended between 666 and 804 points after 700 dialogues), so the
    cost of a dialogue depends on how fast a seed's dictionary grew as much
    as on the code. Every seed tried reached the cap of 400 points between
    training dialogues 173 and 243, so the second half of the 1000 training
    dialogues, which ``train_turn_cost`` measures, runs at a fixed n:
    the capped regime long GPSARSA runs end in. At n = 400 ``Sigma`` and
    ``Kinv`` hold 1.3 MB each; the current update also allocates an outer
    product and a new ``Sigma`` per measurement, about 5 MB in all, more
    than a 4 MiB per-core L2, while an in-place update (ROADMAP 2c) would
    fit. A cap of 650 points was tried first, to put even the two matrices
    beyond L2: it needs 700+ dialogues to reach for some seeds, so the
    capped part of a 30 s run was too short to measure, and identical runs
    of it differed by up to 1.8x on a shared host. Whether the update's
    temporaries were page-faulted afresh also depended on glibc's moving
    mmap threshold, hence on the seed; ``run.py`` pins it.

Predictions recorded before any speed work (ROADMAP item 2). Training
throughput is gated as ``train_turn_cost`` and printed as
``train_turns_per_s`` and ``train_dialogues_per_s``; for a fixed seed all
three time the same dialogues of the same training loop, so a change
moves them together (the cost the other way).

* 2a, DB index: raises ``corpus_dialogues_per_s`` on ``tda2c-original``
  (and ``eval_episodes_per_s`` there); leaves ``gpsarsa-summary``'s
  ``train_dialogues_per_s`` flat. Per-layer: ``ontology.query.self_s`` and
  ``ontology.sample_goal.self_s`` fall.
* 2b, flat-parameter Adadelta: raises ``train_dialogues_per_s`` on
  ``tda2c-original`` (single sample) and ``dqn-original`` (batched); no
  change on ``gpsarsa-summary``. Per-layer: ``nets.adadelta.self_s``.
* 2c, in-place GP posterior: raises ``gpsarsa-summary``'s
  ``train_dialogues_per_s`` and ``eval_episodes_per_s``; preallocated
  buffers may raise its ``peak_rss_mb``, and that cost should be visible.
  No change on the other two.

Which per-layer metric should move which end-to-end metric:

* ``ontology.*``, ``usersim.respond``, ``tracker.*``, ``environment.*``:
  ``corpus_dialogues_per_s`` and ``eval_episodes_per_s`` on
  ``tda2c-original``; barely ``train_dialogues_per_s`` on
  ``gpsarsa-summary``.
* ``nets.*``: ``train_dialogues_per_s`` on ``tda2c-original`` and
  ``dqn-original``, and ``pretrain_s``; nothing on ``gpsarsa-summary`` or
  the corpus stage.
* ``value_agents.*``: ``train_dialogues_per_s`` on ``dqn-original``;
  nothing on ``gpsarsa-summary``.
* ``actor_critic.*``: ``train_dialogues_per_s`` and ``pretrain_s`` on
  ``tda2c-original``; nothing on ``dqn-original``.
* ``gpsarsa.*``: ``train_dialogues_per_s``, ``eval_episodes_per_s`` and
  ``peak_rss_mb`` on ``gpsarsa-summary``; nothing on the other two.
* ``corpus.*``: ``corpus_dialogues_per_s`` and ``pretrain_s`` on
  ``tda2c-original``.
* ``harness.evaluate``/``pretrain``/``checkpoint``: ``run_s`` on
  ``dqn-original``; never ``train_dialogues_per_s``.

Left out on purpose:

* DDQN adds one forward pass to DQN's step; ``dqn-original`` already
  covers the code.
* DA2C shares ``tda2c-original``'s online stage and currently collapses
  to one action (ROADMAP item 4), so its curve measures a defect.
* The ROADMAP's 5 algorithms x 2 spaces grid would give ten short
  workloads instead of three long ones; short runs are noisier and never
  reach the GP working-set regime.

Metrics. ``BENCHMARK.json`` gates the end-to-end metrics that apply to
every workload and whose spread over ten seeds stays within a bound:

* ``train_turn_cost`` (unit ``ref``): the steady-state cost of a training
  turn. The second half of training is cut into blocks of ``BLOCK``
  dialogues. Before every block a fixed reference computation runs
  (``workload.make_reference``: interpreted Python and 64 x 64 numpy
  products, about 3 ms, no dialab code); a block's cost is its wall time
  per turn over the mean time of the reference runs on either side of it,
  and the figure is the median over blocks. The reference's own time is
  kept out of every training time. The benchmark shares a host whose speed
  changes from minute to minute: identical runs of one seed took up to
  1.8x as long as each other, and ``setup_s`` moved with them, so a figure
  in seconds measured the host. Dividing by a reference timed within half
  a second of the block takes much of that out: over ten seeds (101-110)
  the spread of ``train_turns_per_s`` was 0.18 / 0.30 / 0.16 (tda2c / dqn
  / gp) and that of ``train_turn_cost`` 0.12 / 0.11 / 0.07. Counting
  turns, not dialogues, takes out how long a seed's dialogues are; the
  second half takes out the DQN warm-up and the GP dictionary's growth.
  The reference stands for the host only as far as the program slows down
  the way it does: a change that makes training more or less sensitive to
  a busy host (fewer passes over memory, say) shows more in
  ``train_turns_per_s``;
* ``peak_rss_mb``;
* ``setup_s``: the median of six fresh interpreters, started at
  evaluation points spread over the run. It is a time in seconds, not
  divided by the reference, so a host that runs slower for a whole set of
  runs shows in it.

Every run also prints, and records in ``.perfbench/results``:

* ``train_turns_per_s``: the same blocks' turns per second, undivided: the
  figure a user waits on, which ``train_turn_cost`` stands for;
* ``train_dialogues_per_s``: training dialogues over the whole training
  loop's time as ``harness.train_run`` times it, less the reference's
  time. Its spread over the same ten seeds was 0.30 / 0.31 / 0.14: it
  carries each seed's dialogue lengths, the GP growth phase and the host;
* ``run_s``: on a shared 2-core x86-64 host its ``dqn-original`` median
  moved by 26% between two sets (the host ran about 10% slower during the
  second, and the seeds differ);
* ``eval_episodes_per_s``: eval is about 4 s of a run, and its spread
  across ten seeds reached 0.29 on ``gpsarsa-summary``;
* ``corpus_dialogues_per_s`` and ``pretrain_s``: ``tda2c-original`` only,
  so they are also per-layer figures of the traced run;
* ``final_success`` and ``success_auc``: exact for a seed but far apart
  between seeds, since some TDA2C seeds fall to 0 success during online
  learning. The curve digest is the check that behaviour did not change.

``final_success`` is reported as measured; a falling TDA2C curve is
recorded, not tuned away by picking another seed or size.
"""

from __future__ import annotations

# Training dialogues per block: the reference computation runs before every
# BLOCK-th training dialogue, and the steady-state figures are medians over
# blocks of the second half of training.
BLOCK = 25

# Spans every workload must record at least one call of.
ENV_SPANS = ("environment.reset", "environment.step", "environment.realize",
             "ontology.sample_goal", "ontology.query", "usersim.respond",
             "tracker.corrupt", "tracker.update_belief", "tracker.featurize",
             "harness.evaluate", "harness.checkpoint")

NET_SPANS = ("nets.forward", "nets.backward", "nets.adadelta",
             "value_agents.replay_add", "value_agents.replay_sample",
             "value_agents.target_sync")

WORKLOADS = {
    "tda2c-original": {
        "config": {"algorithm": "tda2c", "space": "original",
                   "dialogues": 1000, "eval_period": 100,
                   "eval_episodes": 100,
                   "pretrain": {"mode": "sup_full_batch"}},
        "corpus_dialogues": 1000,
        "expected_spans": ENV_SPANS + NET_SPANS + (
            "corpus.rate", "corpus.io", "harness.pretrain",
            "actor_critic.policy_step", "actor_critic.value_step",
            "actor_critic.supervised_step"),
    },
    "dqn-original": {
        "config": {"algorithm": "dqn", "space": "original",
                   "dialogues": 1400, "eval_period": 200,
                   "eval_episodes": 100},
        "corpus_dialogues": 0,
        "expected_spans": ENV_SPANS + NET_SPANS + (
            "value_agents.train_step",),
    },
    "gpsarsa-summary": {
        "config": {"algorithm": "gpsarsa", "space": "summary",
                   "dialogues": 1000, "eval_period": 100,
                   "eval_episodes": 100, "gp": {"max_dictionary": 400}},
        "corpus_dialogues": 0,
        "expected_spans": ENV_SPANS + (
            "gpsarsa.sarsa_update", "gpsarsa.admit_test",
            "gpsarsa.q_values"),
    },
}


def experiment_config(name: str, seed: int, out: str,
                      corpus_path: str | None) -> dict:
    """The config dict (README layout) the library receives for a run."""
    cfg = {key: (dict(value) if isinstance(value, dict) else value)
           for key, value in WORKLOADS[name]["config"].items()}
    cfg["seed"] = seed
    cfg["out"] = out
    if "pretrain" in cfg:
        cfg["pretrain"]["corpus"] = corpus_path
    return cfg
