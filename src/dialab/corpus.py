"""Dialogue-corpus tooling.

Corpora are generated by a handcrafted controller (optionally degraded by
random action substitutions) and rated 0-3 by a deterministic rubric that
replays the controller's rule table against the logged features. In
memory a dialogue is the tuple of Transitions its rollout yielded. A
corpus file is one JSON header line and one JSON line per dialogue,
written by ``save_corpus`` and read by ``CorpusReader``, which streams it
one dialogue at a time and is the one place a record is checked.
``fill_pool`` stores a reader's dialogues, or a generated corpus's, in a
learner's replay pool, the input of pretraining, one turn at a time
through the pool's ``add``, as online training does. ``load_corpus`` reads
a whole file into memory, for code that needs every dialogue at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cache
from numbers import Real
from typing import Iterator

import numpy as np

from .checkpoint import replace_file
from .environment import SPACES, DialogueEnv, Transition, rollout
from .ontology import CONSTRAINT_SLOTS
from .ranges import check
from .seeding import rng_stream

CORPUS_SCHEMA = "dialab-corpus"
SCHEMA_VERSION = 3

PROVENANCES = ("handcrafted", "noisy-handcrafted", "agent")

REQUEST_BAR = 0.05
CONFIRM_THRESHOLD = 0.7
GROUNDED = 0.5


class CorpusFormatError(ValueError):
    pass


@dataclass
class CorpusDialogue:
    """A dialogue of ``space``: the Transitions its rollout yielded, the
    last one's ``success`` and ``next_features`` the dialogue's, and its
    ``rate`` rating, computed once here and never stored."""

    turns: tuple
    space: str
    provenance: str = "handcrafted"
    rating: int = field(init=False)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise CorpusFormatError(f"unknown provenance '{self.provenance}'")
        self.rating = rate(self.turns, self.space)


@dataclass
class Corpus:
    dialogues: list              # or a stream, for save_corpus alone
    space: str

    def __iter__(self) -> Iterator[CorpusDialogue]:
        return iter(self.dialogues)


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
        if p_blunder > 0.0 and rng is None:
            raise ValueError(f"p_blunder={p_blunder} needs an rng to draw "
                             f"blunders from")
        self.space = SPACES[space]
        self.p_blunder = check("p_blunder", p_blunder, "[0, 1]")
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


def grounded_fraction(turns, space: str) -> float:
    """Share of constraint slots the final belief pins to a concrete value."""
    confidence = SPACES[space].slot_confidence(turns[-1].next_features)
    return sum(1 for p in confidence if p >= GROUNDED) / len(CONSTRAINT_SLOTS)


# each space's blunder-free rule table, built once: it draws nothing
blunder_free_rule = cache(HandcraftedPolicy)


def count_blunders(turns, space: str) -> int:
    rule = blunder_free_rule(space)
    return sum(1 for t in turns if t.action != rule.decide(t.features))


def rate(turns, space: str) -> int:
    """Deterministic 0-3 quality proxy, a pure function of the dialogue.

    3: success with no off-rule turns; 2: success with at most two;
    1: failure with at least half the constraints grounded; 0: otherwise.
    """
    success = turns[-1].success
    blunders = count_blunders(turns, space)
    if success and blunders == 0:
        return 3
    if success and blunders <= 2:
        return 2
    if not success and grounded_fraction(turns, space) >= 0.5:
        return 1
    return 0


def generate_dialogues(env: DialogueEnv, n: int, seed: int,
                       schedule: BlunderSchedule | None = None
                       ) -> Iterator[CorpusDialogue]:
    """Run n handcrafted dialogues with per-dialogue blunder rates drawn from
    the schedule, yielding each rated dialogue as it ends; deterministic per
    seed, parallelizable per dialogue."""
    check("n", n, "[1, inf)")
    schedule = schedule or BlunderSchedule()
    for i in range(n):
        rng = rng_stream(seed, "corpus", i)
        p_blunder = schedule.draw(rng)
        policy = HandcraftedPolicy(env.config.space, p_blunder=p_blunder,
                                   rng=rng)
        provenance = "handcrafted" if p_blunder == 0.0 else "noisy-handcrafted"
        yield CorpusDialogue(tuple(rollout(env, policy, rng)),
                             env.config.space, provenance)


def generate_corpus(env: DialogueEnv, n: int, seed: int,
                    schedule: BlunderSchedule | None = None) -> Corpus:
    """The dialogues of ``generate_dialogues``, all held in memory."""
    return Corpus(list(generate_dialogues(env, n, seed, schedule)),
                  env.config.space)


def fill_pool(corpus, pool) -> np.ndarray:
    """Store the turns of ``corpus``, a CorpusReader or a generated Corpus,
    in the empty replay ``pool``, in order, and return each turn's dialogue
    rating (int64), one per turn of the corpus.

    Each turn is one ``pool.add`` as it arrives, so a streamed corpus is
    held nowhere else. The turns are not checked again: the reader checks
    each dialogue it yields, and a generated corpus holds only dialogues
    its own environment ran.
    The whole corpus is read, but a dialogue is stored only while every
    turn so far fits, so the pool never evicts, and a result longer than
    ``pool.capacity`` means the corpus does not fit.
    """
    if len(pool):
        raise ValueError(f"fill_pool needs an empty pool; it holds "
                         f"{len(pool)} rows")
    ratings, lengths, turns = [], [], 0
    for d in corpus:
        ratings.append(d.rating)
        lengths.append(len(d.turns))
        turns += lengths[-1]
        if turns <= pool.capacity:
            for t in d.turns:
                pool.add(t)
    return np.repeat(np.array(ratings, dtype=np.int64),
                     np.array(lengths, dtype=np.int64))


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write ``corpus`` one dialogue at a time, so its dialogues may be a
    stream; ``path`` appears only once the file is complete. A line keeps
    what the turns' order does not give: see ``CorpusReader._dialogue``."""
    def records():
        yield {"schema": CORPUS_SCHEMA, "version": SCHEMA_VERSION,
               "space": corpus.space,
               "feature_names": list(SPACES[corpus.space].feature_names)}
        for d in corpus.dialogues:
            last = d.turns[-1]
            yield {"provenance": d.provenance, "log": {
                "success": last.success,
                "final_features": last.next_features.tolist(),
                "records": [{"features": t.features.tolist(),
                             "action": t.action, "reward": t.reward}
                            for t in d.turns]}}
    replace_file(path, lambda fh: fh.writelines(
        f"{json.dumps(record)}\n".encode() for record in records()))


class CorpusReader:
    """A corpus file, read one line at a time.

    The header is read and checked on construction, so ``space``, and with
    it the feature layout, is known before any record is read. Each iteration
    reads the file afresh and yields one CorpusDialogue per record line. A
    malformed header or record raises CorpusFormatError naming
    ``path:line`` and the field at fault.
    """

    def __init__(self, path: str):
        self.path = path
        with open(path) as fh:
            header = fh.readline()
        if not header:
            raise CorpusFormatError(f"{path}: empty corpus file")
        self.space = self._parse(1, header, _header)

    def __iter__(self) -> Iterator[CorpusDialogue]:
        with open(self.path) as fh:
            fh.readline()
            for number, line in enumerate(fh, 2):
                if line.strip():
                    yield self._parse(number, line, self._dialogue)

    def _dialogue(self, rec: dict) -> CorpusDialogue:
        """The dialogue a record line's JSON value ``rec`` holds: its
        ``provenance`` and ``log``, the log's ``records`` (each turn's
        ``features``, ``action`` and ``reward``), ``success`` and
        ``final_features`` (the last turn's next state), each checked
        before the dialogue is rated; a field at fault raises naming it."""
        log, provenance = _fields(rec, ("log", "provenance"),
                                  "a dialogue record")
        records, success, final = _fields(
            log, ("records", "success", "final_features"), "the log")
        turns = [_fields(turn, ("features", "action", "reward"), f"turn {k}")
                 for k, turn in enumerate(records)]
        n_features = len(SPACES[self.space].feature_names)
        # turn k goes from state k to state k + 1, the last to the final one
        states = [_vector("features", features, n_features, f" of turn {k}")
                  for k, (features, _, _) in enumerate(turns)]
        states.append(_vector("final_features", final, n_features))
        if type(success) is not bool:
            raise CorpusFormatError(f"field 'success': {success!r} is not a "
                                    f"boolean")
        if not turns:
            raise CorpusFormatError("field 'records': a dialogue with no turns")
        n_actions = len(SPACES[self.space].actions)
        for k, (_, action, reward) in enumerate(turns):
            # an int, not a bool, a float or a string that reads as one
            if type(action) is not int or not 0 <= action < n_actions:
                raise CorpusFormatError(f"field 'action' of turn {k}: "
                                        f"{action!r} is not an action index "
                                        f"in 0..{n_actions - 1}")
            if isinstance(reward, bool) or not isinstance(reward, Real):
                raise CorpusFormatError(f"field 'reward' of turn {k}: "
                                        f"{reward!r} is not a number")
            try:
                finite = math.isfinite(reward)
            except OverflowError:       # an integer too large for a float
                finite = False
            if not finite:
                raise CorpusFormatError(f"field 'reward' of turn {k}: "
                                        f"not finite")
        last = len(turns) - 1
        return CorpusDialogue(tuple(
            Transition(states[k], action, reward, states[k + 1], k == last,
                       k == last and success)
            for k, (_, action, reward) in enumerate(turns)), self.space,
            provenance)

    def _parse(self, number: int, line: str, build):
        """``build`` applied to the line's JSON value; any failure is raised
        as CorpusFormatError naming ``path:number``."""
        try:
            return build(json.loads(line.rstrip("\n")))
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{self.path}:{number}: not JSON: "
                                    f"{exc.msg} at column {exc.colno}") from exc
        except KeyError as exc:
            raise CorpusFormatError(f"{self.path}:{number}: missing field "
                                    f"{exc}") from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise CorpusFormatError(f"{self.path}:{number}: {exc}") from exc


def _fields(d: dict, names: tuple, where: str) -> list:
    """The values of ``d``'s fields ``names``, in order; a field not among
    them raises ValueError naming it, a missing one KeyError."""
    for key in d:
        if key not in names:
            raise ValueError(f"unexpected field {key!r} in {where}")
    return [d[name] for name in names]


def _vector(name: str, values, n: int, turn: str = "") -> np.ndarray:
    """``values``, a JSON list of ``n`` finite numbers, as a float64 vector.
    A boolean, which numpy would take for 0 or 1, is refused, and so are
    NaN, Infinity and an integer too large for a float."""
    try:
        vec = np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"field {name!r}{turn}: not finite") from None
    if vec.ndim != 1:
        raise ValueError(f"field {name!r}: not a flat list of numbers")
    if isinstance(values, list) and bool in map(type, values):
        raise ValueError(f"field {name!r}: a boolean is not a number")
    if len(vec) != n:       # "feature length", "final feature length"
        raise ValueError(f"{name[:-1].replace('_', ' ')} length {len(vec)} "
                         f"!= manifest {n}")
    if not np.isfinite(vec).all():
        raise ValueError(f"field {name!r}{turn}: not finite")
    return vec


def _header(rec: dict) -> str:
    """The space a header line's JSON value ``rec`` names; its
    ``feature_names`` must be that space's, in order."""
    schema, version = rec.get("schema"), rec.get("version")
    if schema == CORPUS_SCHEMA and version in range(1, SCHEMA_VERSION):
        raise CorpusFormatError(
            f"a version-{version} corpus, which stores fields version "
            f"{SCHEMA_VERSION} does not; regenerate it with 'dialab "
            f"generate-corpus'")
    if (schema, version) != (CORPUS_SCHEMA, SCHEMA_VERSION):
        raise CorpusFormatError(f"unrecognized corpus header {rec!r}")
    _, _, space, names = _fields(rec, ("schema", "version", "space",
                                       "feature_names"), "the header")
    if space not in SPACES:
        raise CorpusFormatError(f"field 'space': unknown space {space!r}")
    if type(names) is not list or not all(type(n) is str for n in names):
        raise CorpusFormatError(f"field 'feature_names': {names!r} is not a "
                                f"list of strings")
    expected = list(SPACES[space].feature_names)
    if names != expected:
        raise CorpusFormatError(
            f"field 'feature_names': not the {space} space's layout; " + (
                "the same names in another order"
                if sorted(names) == sorted(expected) else
                f"missing={[n for n in expected if n not in names]} "
                f"extra={[n for n in names if n not in expected]} (corpus "
                f"has {len(names)} features, expected {len(expected)})"))
    return space


def load_corpus(path: str) -> Corpus:
    """Read a whole corpus file into memory; see CorpusReader."""
    reader = CorpusReader(path)
    return Corpus(list(reader), reader.space)
