"""The one checkpoint format: an npz of named arrays plus ``__meta__``, the
UTF-8 JSON of ``{"format": "dialab", "version": 2, "kind": ...}`` and the
owner's scalars. Loading checks the file against the owner being restored,
so a checkpoint never loads silently into a model it does not fit."""

import json
import os
import zipfile
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
    shape and ``take`` loads it in place unless ``shapes`` gives its owner's
    expected shape: a string there stands for any length, the same wherever
    it recurs and equal to the counter of that name if there is one."""

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


def write_npz(fh: BinaryIO, arrays: dict) -> None:
    """Write ``arrays`` to ``fh`` as the bytes ``np.savez`` writes: one
    stored (uncompressed) zip64 member ``<name>.npy`` per array, in order:
    its npy header, then its buffer. A contiguous array's buffer is written
    as it is, where ``np.savez`` first copies the array with ``tobytes``;
    any other array is copied once."""
    with zipfile.ZipFile(fh, mode="w", compression=zipfile.ZIP_STORED,
                         allowZip64=True) as zf:
        for name, array in arrays.items():
            array = np.asanyarray(array)
            header = np.lib.format.header_data_from_array_1_0(array)
            # the header marks a Fortran-ordered array, whose buffer is
            # then written in its own order
            if array.flags.f_contiguous and not array.flags.c_contiguous:
                array = array.T
            with zf.open(f"{name}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                member.write(np.ascontiguousarray(array).reshape(-1)
                             .view(np.uint8))


def save(path: str, kind: str, state: State, **run) -> None:
    """Write exactly ``path`` (no suffix is added) with ``replace_file``;
    ``run`` adds a training run's counters to the owner's."""
    meta = {"format": FORMAT, "version": VERSION, "kind": kind,
            **state.spec, **state.counters, **run}
    record = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    replace_file(path, lambda fh: write_npz(fh, {META: record,
                                                 **state.arrays}))


def load(path: str, kind: str, expected: State, *run: str) -> State:
    """Read ``path`` and check it against ``expected``, the live state of
    the owner it is for: version, format, kind, every spec value and
    counter, the run counters named in ``run``, and every array by name and
    exact shape; other meta keys are ignored. Returns the file's state,
    ``run``'s counters included, and copies nothing into the owner (see
    ``take``). A file that is not a whole, readable npz (cut short,
    corrupted, or of another kind) is refused too, as is every misfit, with
    a ``CheckpointError`` naming ``path``."""
    def fail(what: str):
        raise CheckpointError(f"{path}: {what}")

    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            fail("not an npz archive; the file is cut short, damaged or "
                 "not a checkpoint")
        fh.seek(0)
        try:
            with np.load(fh) as data:
                if META not in data.files:
                    fail(f"no {META} record; not a version-{VERSION} "
                         "dialab checkpoint")
                meta = json.loads(bytes(data[META]).decode())
                for key, want in (("version", VERSION), ("format", FORMAT),
                                  ("kind", kind), *expected.spec.items()):
                    if meta.get(key) != json.loads(json.dumps(want)):
                        fail(f"{key} is {meta.get(key)!r} in the checkpoint, "
                             f"expected {want!r}")
                arrays = {name: data[name] for name in data.files
                          if name != META}
        except CheckpointError:
            raise
        except (zipfile.BadZipFile, EOFError, ValueError) as exc:
            raise CheckpointError(f"{path}: damaged: {exc}") from exc
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
    return State(arrays, counters={k: meta[k] for k in names})


def take(live: State, loaded: State) -> None:
    """Copy each array of ``loaded`` that ``live.shapes`` leaves out into the
    live one. Owners call it last, so a refused file changes nothing."""
    for name, array in live.arrays.items():
        if name not in live.shapes:
            np.copyto(array, loaded.arrays[name])
