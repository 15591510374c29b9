"""Dialogue-corpus tooling.

Corpora are generated by a handcrafted controller (optionally degraded by
random action substitutions), rated 0-3 by a deterministic rubric that
replays the controller's rule table against the logged features, filtered to
expert subsets, and converted into supervised (features, action) pairs and
RL transitions for the two-stage pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .environment import (SPACES, DialogueEnv, EpisodeLog, Transition,
                          run_episode)
from .ontology import CONSTRAINT_SLOTS
from .seeding import rng_stream

CORPUS_SCHEMA = "dialab-corpus"
SCHEMA_VERSION = 1

PROVENANCES = ("handcrafted", "noisy-handcrafted", "agent")

REQUEST_BAR = 0.05
CONFIRM_THRESHOLD = 0.7
GROUNDED = 0.5


class CorpusFormatError(ValueError):
    pass


@dataclass
class CorpusDialogue:
    log: EpisodeLog
    rating: int
    provenance: str = "handcrafted"

    def __post_init__(self):
        if self.rating not in (0, 1, 2, 3):
            raise CorpusFormatError(f"rating {self.rating} outside 0..3")
        if self.provenance not in PROVENANCES:
            raise CorpusFormatError(f"unknown provenance '{self.provenance}'")


@dataclass
class Corpus:
    dialogues: list
    space: str
    feature_names: list

    def __len__(self) -> int:
        return len(self.dialogues)


class HandcraftedPolicy:
    """Deterministic rule table over belief features.

    Each constraint slot's top-value probability is read through the
    space's ``slot_confidence``. Request each slot (canonical order) while
    that probability is essentially zero; explicitly confirm slots still below
    the confidence threshold; offer once every slot clears it. Repeated
    offers answer the user's outstanding requests. With p_blunder, a turn's
    action is replaced by a uniformly random one drawn from ``rng``.
    """

    def __init__(self, space: str, p_blunder: float = 0.0,
                 rng: np.random.Generator | None = None):
        if not 0.0 <= p_blunder <= 1.0:
            raise ValueError(f"p_blunder={p_blunder} outside [0,1]")
        if p_blunder > 0.0 and rng is None:
            raise ValueError(f"p_blunder={p_blunder} needs an rng to draw "
                             f"blunders from")
        self.space = SPACES[space]
        self.p_blunder = p_blunder
        self.rng = rng
        self.request = [self.space.action("request", s)
                        for s in CONSTRAINT_SLOTS]
        self.confirm = [self.space.action("expl-conf", s)
                        for s in CONSTRAINT_SLOTS]
        self.offer = self.space.action("offer")

    def decide(self, features: np.ndarray) -> int:
        """The blunder-free rule action for one feature vector."""
        confidence = self.space.slot_confidence(features)
        for i, p in enumerate(confidence):
            if p < REQUEST_BAR:
                return self.request[i]
        for i, p in enumerate(confidence):
            if p < CONFIRM_THRESHOLD:
                return self.confirm[i]
        return self.offer

    def __call__(self, features: np.ndarray) -> int:
        if self.p_blunder > 0.0 and self.rng.random() < self.p_blunder:
            return int(self.rng.integers(len(self.space.actions)))
        return self.decide(features)


class RandomPolicy:
    def __init__(self, n_actions: int, rng: np.random.Generator):
        self.n_actions = n_actions
        self.rng = rng

    def __call__(self, features) -> int:
        return int(self.rng.integers(self.n_actions))


@dataclass(frozen=True)
class BlunderSchedule:
    """Mixture of per-dialogue blunder rates; weights need not sum to one.

    The default mix is calibrated so roughly a third of generated dialogues
    earn the top rating under the default channel noise.
    """

    mix: tuple = ((0.27, 0.0), (0.26, 0.12), (0.26, 0.28), (0.21, 0.55))

    def draw(self, rng: np.random.Generator) -> float:
        weights = np.array([w for w, _ in self.mix], dtype=float)
        i = int(rng.choice(len(self.mix), p=weights / weights.sum()))
        return self.mix[i][1]


def grounded_fraction(log: EpisodeLog) -> float:
    """Share of constraint slots the final belief pins to a concrete value."""
    final = np.asarray(log.final_features, dtype=float)
    confidence = SPACES[log.space].slot_confidence(final)
    return sum(1 for p in confidence if p >= GROUNDED) / len(CONSTRAINT_SLOTS)


def count_blunders(log: EpisodeLog) -> int:
    rule = HandcraftedPolicy(log.space)
    return sum(1 for rec in log.records
               if rec.action != rule.decide(np.asarray(rec.features)))


def rate(dialogue: CorpusDialogue | EpisodeLog) -> int:
    """Deterministic 0-3 quality proxy, a pure function of the log.

    3: success with no off-rule turns; 2: success with at most two;
    1: failure with at least half the constraints grounded; 0: otherwise.
    """
    log = dialogue.log if isinstance(dialogue, CorpusDialogue) else dialogue
    blunders = count_blunders(log)
    if log.success and blunders == 0:
        return 3
    if log.success and blunders <= 2:
        return 2
    if not log.success and grounded_fraction(log) >= 0.5:
        return 1
    return 0


def generate_corpus(env: DialogueEnv, n: int, seed: int,
                    schedule: BlunderSchedule | None = None) -> Corpus:
    """Run n handcrafted dialogues with per-dialogue blunder rates drawn from
    the schedule; deterministic per seed, parallelizable per dialogue."""
    if n <= 0:
        raise ValueError("corpus size must be positive")
    schedule = schedule or BlunderSchedule()
    dialogues = []
    for i in range(n):
        rng = rng_stream(seed, "corpus", i)
        p_blunder = schedule.draw(rng)
        policy = HandcraftedPolicy(env.config.space, p_blunder=p_blunder,
                                   rng=rng)
        log = run_episode(env, policy, rng)
        provenance = "handcrafted" if p_blunder == 0.0 else "noisy-handcrafted"
        dialogues.append(CorpusDialogue(log=log, rating=rate(log),
                                        provenance=provenance))
    return Corpus(dialogues=dialogues, space=env.config.space,
                  feature_names=list(env.space.feature_names))


def filter_expert(corpus: Corpus) -> Corpus:
    """The rating-3 subset, order preserved."""
    return Corpus(dialogues=[d for d in corpus.dialogues if d.rating == 3],
                  space=corpus.space, feature_names=list(corpus.feature_names))


def _check_dialogue(d: CorpusDialogue, space: str, n_features: int) -> None:
    if d.log.space != space:
        raise CorpusFormatError(
            f"mixed feature layouts: dialogue space {d.log.space!r} in a "
            f"{space!r} corpus")
    for rec in d.log.records:
        if len(rec.features) != n_features:
            raise CorpusFormatError(f"feature length {len(rec.features)} != "
                                    f"manifest {n_features}")


def _check_layout(corpus: Corpus) -> None:
    for d in corpus.dialogues:
        _check_dialogue(d, corpus.space, len(corpus.feature_names))


def to_supervised(corpus: Corpus) -> list[tuple[np.ndarray, int]]:
    """One (features, demonstrated action) pair per system turn."""
    _check_layout(corpus)
    pairs = []
    for d in corpus.dialogues:
        for rec in d.log.records:
            pairs.append((np.asarray(rec.features, dtype=float), rec.action))
    return pairs


def to_transitions(corpus: Corpus) -> list[Transition]:
    _check_layout(corpus)
    out = []
    for d in corpus.dialogues:
        out.extend(d.log.transitions())
    return out


def save_corpus(corpus: Corpus, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": CORPUS_SCHEMA, "version": SCHEMA_VERSION,
                             "space": corpus.space,
                             "feature_names": list(corpus.feature_names)}) + "\n")
        for d in corpus.dialogues:
            fh.write(json.dumps({"rating": d.rating,
                                 "provenance": d.provenance,
                                 "log": d.log.to_dict()}) + "\n")


def load_corpus(path: str) -> Corpus:
    """Read a corpus file; a malformed header or record raises
    CorpusFormatError naming ``path:line`` and the field at fault."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise CorpusFormatError(f"{path}: empty corpus file")
    dialogues = []
    for number, ln in enumerate(lines, 1):
        if number > 1 and not ln.strip():
            continue
        try:
            rec = json.loads(ln)
            if number == 1:
                if (rec.get("schema"), rec.get("version")) != (
                        CORPUS_SCHEMA, SCHEMA_VERSION):
                    raise CorpusFormatError(
                        f"unrecognized corpus header {rec!r}")
                space, feature_names = rec["space"], rec["feature_names"]
                if space not in SPACES:
                    raise CorpusFormatError(f"field 'space': unknown space "
                                            f"{space!r}")
            else:
                dialogues.append(CorpusDialogue(
                    log=EpisodeLog.from_dict(rec["log"]),
                    rating=rec["rating"], provenance=rec["provenance"]))
                _check_dialogue(dialogues[-1], space, len(feature_names))
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{path}:{number}: not JSON: {exc.msg} "
                                    f"at column {exc.colno}") from exc
        except KeyError as exc:
            raise CorpusFormatError(
                f"{path}:{number}: missing field {exc}") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise CorpusFormatError(f"{path}:{number}: {exc}") from exc
    return Corpus(dialogues=dialogues, space=space,
                  feature_names=feature_names)
