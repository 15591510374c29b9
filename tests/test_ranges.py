"""The declared range of every numeric config field and the one rule that
checks them: each field's verdicts on the values at and around its bounds,
each refusal at the command line, and a range on every number."""

import json
import math
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from dialab import cli
from dialab.harness import ExperimentConfig, config_from_dict, config_to_dict
from dialab.ontology import GoalConfig
from dialab.ranges import SCALAR_TYPES, ConfigError, check

nan, inf = math.nan, math.inf

# (dotted key, other settings, values accepted, values refused). The values
# are each finite bound, the numbers next to it on both sides, 0, -1, NaN
# and both infinities. A key ``name[entry]`` sets one entry of a mapping
# and leaves the others at their defaults.
VERDICTS = [
    ("max_turns", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("turn_penalty", {}, [0, -1],
     [nan, inf, -inf]),
    ("success_reward", {}, [0, -1],
     [nan, inf, -inf]),
    ("failure_reward", {}, [0, -1],
     [nan, inf, -inf]),
    ("db_size", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("user.p_multi_act", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("user.p_null", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("error.p_confuse", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("error.p_drop", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("error.nbest_size", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("error.concentration", {}, [5e-324, inf],
     [0, -5e-324, -1, nan, -inf]),
    ("goals.satisfiable_frac", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("seed", {}, [0, 1, 4294967295, 4294967294],
     [-1, 4294967296, nan, inf, -inf]),
    ("dialogues", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("eval_period", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("eval_episodes", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("gamma", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("epsilon.rate", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("agent.minibatch", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("agent.target_sync", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("agent.warmup", {}, [0, 1],
     [-1, nan, inf, -inf]),
    ("agent.l2", {}, [0, 5e-324],
     [-5e-324, -1, nan, inf, -inf]),
    ("agent.rho", {}, [5e-324, 0.9999999999999999],
     [0, -5e-324, 1, 1.0000000000000002, -1, nan, inf, -inf]),
    ("agent.eps_num", {}, [5e-324],
     [0, -5e-324, -1, nan, inf, -inf]),
    ("agent.sup_epochs", {}, [0, 1],
     [-1, nan, inf, -inf]),
    ("agent.sup_batch", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("agent.sup_holdout", {}, [0, 5e-324, 0.9999999999999999],
     [-5e-324, 1, 1.0000000000000002, -1, nan, inf, -inf]),
    ("agent.batch_sweeps", {}, [0, 1],
     [-1, nan, inf, -inf]),
    ("gp.length_scale", {}, [5e-324],
     [0, -5e-324, -1, nan, inf, -inf]),
    ("gp.signal_var", {}, [5e-324],
     [0, -5e-324, -1, nan, inf, -inf]),
    ("gp.noise_var", {}, [5e-324],
     [0, -5e-324, -1, nan, inf, -inf]),
    ("gp.nu", {}, [0, 5e-324],
     [-5e-324, -1, nan, inf, -inf]),
    ("gp.max_dictionary", {}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("epsilon.start", {"epsilon.floor": 0}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("epsilon.floor", {"epsilon.start": 1}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("agent.pool_capacity", {"agent.minibatch": 1}, [1, 2],
     [0, -1, nan, inf, -inf]),
    ("goals.constraint_probs[area]", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("goals.constraint_probs[food]", {}, [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("goals.constraint_probs[pricerange]", {},
     [0, 5e-324, 1, 0.9999999999999999],
     [-5e-324, 1.0000000000000002, -1, nan, inf, -inf]),
    ("goals.request_count_weights[1]", {}, [0, 5e-324],
     [-5e-324, -1, nan, inf, -inf]),
    ("goals.request_count_weights[2]", {}, [0, 5e-324],
     [-5e-324, -1, nan, inf, -inf]),
    ("goals.request_count_weights[3]", {}, [0, 5e-324],
     [-5e-324, -1, nan, inf, -inf]),
    ("goals.request_count_weights[4]", {}, [0, 5e-324],
     [-5e-324, -1, nan, inf, -inf]),
]


def config_data(settings: dict) -> dict:
    """The nested config data of ``settings``, dotted keys to values."""
    defaults = config_to_dict(ExperimentConfig())
    data = {}
    for key, value in settings.items():
        name, _, entry = key.rstrip("]").partition("[")
        *sections, last = name.split(".")
        if entry:
            default = defaults
            for part in name.split("."):
                default = default[part]
            value = {**default, entry: value}
        node = data
        for part in sections:
            node = node.setdefault(part, {})
        node[last] = value
    return data


@pytest.mark.parametrize("key, others, accepted, refused", VERDICTS,
                         ids=[f"{row[0]}{row[1] or ''}" for row in VERDICTS])
def test_verdicts_at_and_around_each_bound(key, others, accepted, refused):
    for value in accepted:
        config_from_dict(config_data({**others, key: value}))
    for value in refused:
        with pytest.raises(ConfigError):
            config_from_dict(config_data({**others, key: value}))


REFUSED = [(key, others, value) for key, others, _, refused in VERDICTS
           for value in refused]


@pytest.mark.parametrize("key, others, value", REFUSED,
                         ids=[f"{k}={v}{o or ''}" for k, o, v in REFUSED])
def test_refused_value_exits_2_naming_key_and_value(tmp_path, capsys, key,
                                                    others, value):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"algorithm": "dqn", "dialogues": 2,
                                "eval_period": 1, "eval_episodes": 1}))
    out = tmp_path / "run"
    argv = ["train", "--config", str(path), "--out", str(out)]
    for name, v in config_data({**others, key: value}).items():
        for dotted, x in (((f"{name}.{k}", x) for k, x in v.items())
                          if isinstance(v, dict) else [(name, v)]):
            argv += ["--set", f"{dotted}={json.dumps(x)}"]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    shown = (f"{key}={value}", f"{key}={float(value)}")
    assert any(text in err for text in shown), err
    assert not out.exists()


def section_record(key: str):
    """The record class that holds the dotted ``key``'s field."""
    cls = ExperimentConfig
    for part in key.partition("[")[0].split(".")[:-1]:
        cls = type(default(next(f for f in fields(cls) if f.name == part)))
    return cls


# a value of another type than its scalar field's: (dotted key, other
# settings, value, the type's wording); an integer is no bool and no float
WRONG_TYPES = [
    ("dialogues", {}, 1.5, "an integer"),
    ("seed", {}, 2.5, "an integer"),
    ("seed", {}, 1.0, "an integer"),
    ("seed", {}, True, "an integer"),
    ("agent.minibatch", {}, 3.5, "an integer"),
    ("gp.max_dictionary", {}, "5", "an integer"),
    ("gamma", {}, "0.9", "a number"),
    ("epsilon.start", {}, False, "a number"),
    ("user.p_null", {}, None, "a number"),
    ("space", {}, 1, "a string"),
    ("algorithm", {}, None, "a string"),
    ("pretrain.mode", {}, 0, "a string"),
    ("out", {}, 5, "a string or null"),
    ("out", {}, False, "a string or null"),
    ("pretrain.corpus", {"pretrain.mode": "batch"}, 7, "a string or null"),
]


@pytest.mark.parametrize("key, others, value, kind", WRONG_TYPES,
                         ids=[f"{k}={v!r}" for k, _, v, _ in WRONG_TYPES])
def test_a_value_of_another_type_is_refused_naming_the_field(key, others,
                                                              value, kind):
    with pytest.raises(ConfigError) as refused:
        config_from_dict(config_data({**others, key: value}))
    assert str(refused.value) == f"{key}={value!r} must be {kind}"


def test_an_integer_field_takes_any_integral_value():
    assert ExperimentConfig(seed=np.int64(7), dialogues=np.uint8(3)).seed == 7


def test_every_scalar_field_has_a_checked_type():
    # the checked types are looked up by the annotation as written
    unchecked = [f"{cls.__name__}.{f.name}: {f.type}"
                 for cls in records(ExperimentConfig) for f in fields(cls)
                 if type(default(f)) in (int, float, str, type(None))
                 and f.type not in SCALAR_TYPES]
    assert unchecked == []


RECORD_CASES = REFUSED + [row[:3] for row in WRONG_TYPES]


@pytest.mark.parametrize("key, others, value", RECORD_CASES,
                         ids=[f"{k}={v!r}{o or ''}"
                              for k, o, v in RECORD_CASES])
def test_a_record_built_in_code_refuses_what_the_reader_refuses(key, others,
                                                                value):
    # so that no rule lives only in the config reader
    data = config_data({**others, key: value})
    for part in key.partition("[")[0].split(".")[:-1]:
        data = data[part]
    name = key.rpartition(".")[2].partition("[")[0]
    with pytest.raises(ConfigError, match=f"^{name}"):
        section_record(key)(**data)


# a record's rules on the shape of a field that is no single number: (dotted
# key, the value as code passes it, the record's message)
SHAPES = [
    ("agent.hidden", 5,
     "hidden=5 must be a tuple of positive integer layer sizes"),
    ("agent.hidden", (16, 0),
     "hidden=(16, 0) must be a tuple of positive integer layer sizes"),
    ("agent.hidden", ("a",),
     "hidden=('a',) must be a tuple of positive integer layer sizes"),
    ("agent.hidden", (16, True),
     "hidden=(16, True) must be a tuple of positive integer layer sizes"),
    ("goals.request_count_weights", {"x": 1.0},
     "request_count_weights key 'x' is not an integer request count"),
    ("goals.request_count_weights", {1.5: 1.0},
     "request_count_weights key 1.5 is not an integer request count"),
    ("goals.request_count_weights", {"1": 0.5, "01": 0.5, "2": 1.0},
     "request_count_weights keys '1' and '01' are both the request count 1"),
    # the value types of a mapping field
    ("goals.constraint_probs", {"area": "x"},
     "constraint_probs[area]='x' must be a number"),
    ("goals.constraint_probs", {"area": True},
     "constraint_probs[area]=True must be a number"),
    ("goals.constraint_probs", {"area": [1.0]},
     "constraint_probs[area]=[1.0] must be a number"),
    ("goals.request_count_weights", {"1": None},
     "request_count_weights[1]=None must be a number"),
    ("goals.request_count_weights", 5,
     "request_count_weights=5 must be a mapping"),
    ("goals.constraint_probs", ("area",),
     "constraint_probs=('area',) must be a mapping"),
]


@pytest.mark.parametrize("key, value, message", SHAPES,
                         ids=[f"{k}={v!r}" for k, v, _ in SHAPES])
def test_a_shape_rule_is_its_records_in_code_and_from_the_reader(
        key, value, message):
    section, name = key.split(".")
    with pytest.raises(ConfigError) as built:
        section_record(key)(**{name: value})
    assert str(built.value) == message
    as_read = list(value) if isinstance(value, tuple) else value
    with pytest.raises(ConfigError) as read:
        config_from_dict({section: {name: as_read}})
    assert str(read.value) == f"{section}.{message}"


def test_request_counts_are_ints_however_they_are_given():
    given = {"1": 0.5, 2: 0.25, "3": 0.25}
    assert GoalConfig(request_count_weights=given).request_count_weights == {
        1: 0.5, 2: 0.25, 3: 0.25}


@pytest.mark.parametrize("settings, message", [
    ({"epsilon.floor": 0.6}, "epsilon.floor=0.6 exceeds start=0.5"),
    ({"epsilon.start": 0}, "epsilon.floor=0.05 exceeds start=0"),
    ({"agent.pool_capacity": 2},
     "agent.pool_capacity=2 must be >= minibatch=32"),
    ({"goals.request_count_weights": {"0": 1.0}},
     "goals.request_count_weights={0: 1.0} needs counts >= 1 and weights "
     "of a finite, positive sum"),
    ({"goals.request_count_weights": {"-1": 1.0, "1": 1.0}},
     "goals.request_count_weights={-1: 1.0, 1: 1.0} needs counts >= 1 and "
     "weights of a finite, positive sum"),
    ({"goals.request_count_weights": {}},
     "goals.request_count_weights={} needs counts >= 1 and weights of a "
     "finite, positive sum"),
    ({"goals.request_count_weights": {"1": 1e308, "2": 1e308}},
     "goals.request_count_weights={1: 1e+308, 2: 1e+308} needs counts >= 1 "
     "and weights of a finite, positive sum"),
    ({"goals.constraint_probs": {"areaa": 1.0}},
     "goals.constraint_probs key 'areaa' not in ('area', 'food', "
     "'pricerange')"),
    ({"pretrain.mode": "x"}, "pretrain.mode='x' not in ('none', 'batch', "
     "'sup_full_batch', 'sup_expert_batch')"),
    ({"pretrain.mode": "batch"},
     "pretrain.corpus=None: mode 'batch' needs one"),
    ({"space": "x"}, "space='x' not in ('summary', 'original')"),
    ({"algorithm": "x"},
     "algorithm='x' not in ('gpsarsa', 'dqn', 'ddqn', 'da2c', 'tda2c')"),
    ({"epsilon.mode": "geometric"},
     "unknown key(s) ['mode'] under 'epsilon'"),
    ({"epsilon.unit": "transition"},
     "unknown key(s) ['unit'] under 'epsilon'")])
def test_rules_between_fields_and_choices_name_the_field(settings, message):
    with pytest.raises(ConfigError) as refused:
        config_from_dict(config_data(settings))
    assert str(refused.value) == message


def test_request_counts_above_the_request_slots_are_accepted():
    cfg = config_from_dict(config_data(
        {"goals.request_count_weights": {"5": 1.0, "9": 1.0}}))
    assert cfg.goals.request_count_weights == {5: 1.0, 9: 1.0}


def records(cls):
    """``cls`` and every record class its fields hold, by their defaults."""
    yield cls
    for f in fields(cls):
        if is_dataclass(default(f)):
            yield from records(type(default(f)))


def default(f):
    return f.default if f.default_factory is MISSING else f.default_factory()


def declared_intervals(cls, path=""):
    """(dotted key, interval) of each field of ``cls``'s config tree that
    declares an interval."""
    for f in fields(cls):
        if is_dataclass(default(f)):
            yield from declared_intervals(type(default(f)),
                                          f"{path}{f.name}.")
        elif "range" in f.metadata:
            yield f"{path}{f.name}", f.metadata["range"]


def test_readme_bounds_table_is_the_declared_intervals():
    # every key the table names, each once, with the interval it declares
    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text[text.index("| field | interval |"):].split("\n\n")[0]
    rows = [line.strip("| ").split(" | ") for line in table.splitlines()[2:]]
    documented = [(key, interval) for names, interval in rows
                  for key in re.findall(r"`([^`]+)`", names)]
    assert sorted(documented) == sorted(declared_intervals(ExperimentConfig))


def test_every_number_field_declares_a_range():
    undeclared = [f"{cls.__name__}.{f.name}"
                  for cls in records(ExperimentConfig) for f in fields(cls)
                  if type(default(f)) in (int, float, dict)
                  and "range" not in f.metadata]
    assert undeclared == []


def test_every_record_checks_its_ranges_when_built():
    for cls in records(ExperimentConfig):
        for f in fields(cls):
            if "range" in f.metadata:
                value = default(f)
                value = dict.fromkeys(value, nan) if isinstance(
                    value, dict) else nan
                with pytest.raises(ConfigError, match=f"^{f.name}"):
                    cls(**{f.name: value})


@pytest.mark.parametrize("text, inside, outside", [
    ("[0, 1]", [0, 0.5, 1], [-5e-324, 1.0000000000000002, nan, inf]),
    ("(0, 1)", [5e-324, 0.5], [0, 1, nan]),
    ("(0, inf]", [5e-324, inf], [0, -inf, nan]),
    ("(-inf, inf)", [0, -1e308, 1e308], [inf, -inf, nan]),
    ("[0, 4294967296)", [0, 2 ** 32 - 1], [-1, 2 ** 32])])
def test_check(text, inside, outside):
    for value in inside:
        assert check("x", value, text) is value
    for value in outside:
        with pytest.raises(ConfigError, match=re.escape(
                f"x={value} must be in {text}") + "$"):
            check("x", value, text)
