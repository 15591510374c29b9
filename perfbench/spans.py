"""In-memory span tracer that wraps dialab's public functions from outside.

A span is (name, start, end, parent span, dialogue id); the dialogue id is
the number of the dialogue most recently started (corpus, training and
eval dialogues counted together), -1 before the first. Spans are kept in
flat arrays while the workload runs and written out once at the end. A
span's self time is its duration minus the time its direct child spans
cover; in one thread children nest inside their parent, so that is the sum
of the children's durations.

Functions are patched at every lookup site: ``environment`` binds ``query``
and ``sample_goal`` by name, and ``value_agents``/``actor_critic`` bind
``copy_params`` by name, so patching only the defining module would miss
those calls. Methods are patched on their class.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.dialogue = array("i")
        self._stack: list[int] = []
        self.dialogue_id = -1
        self.rows = 0               # rows through nets.forward

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.dialogue.append(self.dialogue_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
        return traced

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        dur = np.frombuffer(self.end, dtype=float, count=n) \
            - np.frombuffer(self.start, dtype=float, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int32, count=n)
        covered = np.zeros(n)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        ids = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        own = np.bincount(ids, weights=dur - covered, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child: str, parent: str) -> int:
        """Calls of ``child`` whose direct parent span is ``parent``."""
        if child not in self._ids or parent not in self._ids:
            return 0
        ids = np.asarray(self.name_id)
        par = np.asarray(self.parent)
        mine = ids == self._ids[child]
        nested = mine & (par >= 0)
        return int(np.sum(ids[par[nested]] == self._ids[parent]))

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.asarray(self.name_id),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent),
            dialogue=np.asarray(self.dialogue))


def _lookup_sites(fn) -> list[tuple[object, str]]:
    """Every (dialab module, attribute) that binds ``fn``."""
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod_name == "dialab" or mod_name.startswith("dialab."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    sites.append((mod, attr))
    return sites


def patch_function(module, attr: str, wrapper) -> None:
    """Replace ``module.attr`` everywhere dialab looks it up."""
    original = getattr(module, attr)
    wrapped = wrapper(original)
    for mod, name in _lookup_sites(original):
        setattr(mod, name, wrapped)


def patch_method(cls, attr: str, wrapper) -> None:
    setattr(cls, attr, wrapper(vars(cls)[attr]))


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from dialab import (actor_critic, corpus, environment, gpsarsa, harness,
                        nets, ontology, tracker, usersim, value_agents)

    def span(name):
        return lambda fn: tracer.wrap(name, fn)

    functions = [
        (ontology, "query", "ontology.query"),
        (ontology, "sample_goal", "ontology.sample_goal"),
        (usersim, "respond", "usersim.respond"),
        (tracker, "corrupt", "tracker.corrupt"),
        (tracker, "update_belief", "tracker.update_belief"),
        (tracker, "summarize", "tracker.featurize"),
        (tracker, "vectorize_original", "tracker.featurize"),
        (nets, "adadelta_step", "nets.adadelta"),
        (nets, "copy_params", "value_agents.target_sync"),
        (corpus, "rate", "corpus.rate"),
        (corpus, "generate_corpus", "corpus.generate"),
        (corpus, "save_corpus", "corpus.io"),
        (corpus, "load_corpus", "corpus.io"),
        (harness, "train_run", "harness.train_run"),
        (harness, "run_pretraining", "harness.pretrain"),
        (harness, "evaluate", "harness.evaluate"),
    ]
    for module, attr, name in functions:
        patch_function(module, attr, span(name))
    # lookup sites that bind a function by name and must see the wrapper
    for module, attr in ((environment, "query"), (environment, "sample_goal"),
                         (value_agents, "copy_params"),
                         (actor_critic, "copy_params")):
        if not hasattr(vars(module)[attr], "__wrapped__"):
            raise RuntimeError(f"{module.__name__}.{attr} was not patched")

    methods = [
        (environment.DialogueEnv, "reset", "environment.reset"),
        (environment.DialogueEnv, "step", "environment.step"),
        (environment.DialogueEnv, "realize", "environment.realize"),
        (nets.FeedForwardNet, "backward_batch", "nets.backward"),
        (value_agents.ReplayPool, "add", "value_agents.replay_add"),
        (value_agents.ReplayPool, "sample_indices",
         "value_agents.replay_sample"),
        (value_agents.ReplayPool, "batch", "value_agents.replay_sample"),
        (value_agents.QAgent, "train_step", "value_agents.train_step"),
        (actor_critic.ActorCriticAgent, "policy_gradient_step",
         "actor_critic.policy_step"),
        (actor_critic.ActorCriticAgent, "value_train_step",
         "actor_critic.value_step"),
        (actor_critic.ActorCriticAgent, "supervised_step",
         "actor_critic.supervised_step"),
        # GPSarsaAgent.select_action runs the pending update; wrapping the
        # GP method itself charges that time to sarsa_update
        (gpsarsa.SparseGP, "sarsa_update", "gpsarsa.sarsa_update"),
        (gpsarsa.SparseGP, "admit_test", "gpsarsa.admit_test"),
        (gpsarsa.SparseGP, "q_values", "gpsarsa.q_values"),
        (value_agents.QAgent, "save", "harness.checkpoint"),
        (actor_critic.ActorCriticAgent, "save", "harness.checkpoint"),
        (gpsarsa.GPSarsaAgent, "save", "harness.checkpoint"),
        (value_agents.ReplayPool, "save", "harness.checkpoint"),
    ]
    for cls, attr, name in methods:
        patch_method(cls, attr, span(name))

    forward = tracer.wrap("nets.forward",
                          vars(nets.FeedForwardNet)["forward_batch"])

    def forward_batch(net, x):
        tracer.rows += len(x)
        return forward(net, x)
    nets.FeedForwardNet.forward_batch = forward_batch
