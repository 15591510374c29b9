"""The one checkpoint format: an npz of named arrays plus ``__meta__``, the
UTF-8 JSON of ``{"format": "dialab", "version": 2, "kind": ...}`` and the
owner's scalars. Loading checks the file against the owner being restored,
so a checkpoint never loads silently into a model it does not fit."""

import json
import os
from dataclasses import dataclass, field
from typing import BinaryIO, Callable

import numpy as np

FORMAT, VERSION, META = "dialab", 2, "__meta__"


class CheckpointError(ValueError):
    """A checkpoint does not fit the owner loading it; names path and field."""


@dataclass
class State:
    """Named arrays; ``spec``, the scalars that define the model and must be
    equal on load; and ``counters``, restored as saved. An array keeps its
    shape and loads in place unless ``shapes`` gives its expected shape: a
    string there stands for any length, the same wherever it recurs and
    equal to the counter of that name if there is one."""

    arrays: dict
    spec: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    shapes: dict = field(default_factory=dict)


def compose(counters: dict, **parts: State) -> State:
    """An agent's state: its counters plus every part's state, each key and
    each length name in ``shapes`` prefixed with ``<part name>.``."""
    out = State({}, counters=dict(counters))
    for name, part in parts.items():
        for key in ("arrays", "spec", "counters"):
            getattr(out, key).update({f"{name}.{k}": v
                                      for k, v in getattr(part, key).items()})
        out.shapes.update({f"{name}.{k}": tuple(
            f"{name}.{s}" if isinstance(s, str) else s for s in shape)
            for k, shape in part.shapes.items()})
    return out


def replace_file(path: str, write: Callable[[BinaryIO], object]) -> None:
    """Write exactly ``path`` with ``write(binary_file)``, through a
    temporary file in the same directory that replaces it only once
    complete, so a kill mid-write leaves any previous file intact."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save(path: str, kind: str, state: State, **run) -> None:
    """Write exactly ``path`` (no suffix is added) with ``replace_file``;
    ``run`` adds a training run's counters to the owner's."""
    meta = {"format": FORMAT, "version": VERSION, "kind": kind,
            **state.spec, **state.counters, **run}
    record = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    replace_file(path, lambda fh: np.savez(fh, **{META: record},
                                           **state.arrays))


def load(path: str, kind: str, expected: State, *run: str) -> State:
    """Read ``path`` and check it against ``expected``, the live state of
    the owner it is for: version, format, kind, every spec value and
    counter, the run counters named in ``run``, and every array by name and
    exact shape; other meta keys are ignored. Arrays of a fixed shape are
    copied into the live ones; the owner takes the others. Returns the
    file's state, ``run``'s counters included."""
    def fail(what: str):
        raise CheckpointError(f"{path}: {what}")

    with np.load(path) as data:
        if META not in data.files:
            fail(f"no {META} record; not a version-{VERSION} dialab checkpoint")
        meta = json.loads(bytes(data[META]).decode())
        for key, want in (("version", VERSION), ("format", FORMAT),
                          ("kind", kind), *expected.spec.items()):
            if meta.get(key) != json.loads(json.dumps(want)):
                fail(f"{key} is {meta.get(key)!r} in the checkpoint, "
                     f"expected {want!r}")
        arrays = {name: data[name] for name in data.files if name != META}
    names = [*expected.counters, *run]
    missing = [k for k in names if k not in meta]
    if missing or arrays.keys() != expected.arrays.keys():
        fail(f"missing counters {missing}; arrays {sorted(arrays)}, "
             f"expected {sorted(expected.arrays)}")
    lengths = {k: meta[k] for k in names}
    for name, live in expected.arrays.items():
        shape, got = expected.shapes.get(name, live.shape), arrays[name].shape
        if len(got) != len(shape) or any(
                n != (lengths.setdefault(s, n) if isinstance(s, str) else s)
                for n, s in zip(got, shape)):
            fail(f"array {name!r} has shape {got}, expected {shape}, "
                 f"where { {s: lengths[s] for s in shape if s in lengths} }")
    for name, live in expected.arrays.items():
        if name not in expected.shapes:
            np.copyto(live, arrays[name])
    return State(arrays, counters={k: meta[k] for k in names})
