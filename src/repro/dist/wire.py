"""Moving cells and results between coordinator and workers.

The socket worker protocol ships a :class:`~repro.parallel.executor.
CellSpec` as a JSON task document: the cell function travels by name
(``module:qualname``, resolved by import on the worker — the same rule
the process-pool path already imposes, since pickling a function also
ships only its name), and the arguments/results travel as base64-
encoded pickles.  Pickle is the repo's canonical result transport (the
cache stores the same pickles), which is exactly what makes a worker's
ack byte-identical to a local computation.

A task document always carries its ``blob`` inline: every cell of the
six shipped grids encodes to under 520 characters, and the largest
thing a campaign can send — a service script at the sandbox's 64 KiB
cap, incompressible — to under 90,000 (docs/PERFORMANCE.md "What the
socket wire carries").

One bandwidth lever sits on top of that base: a pickle at or past
:data:`COMPRESS_MIN` bytes ships zlib-compressed when that actually
helps, marked by a ``z:`` prefix on the base64 text; plain blobs stay
prefix-free.

Names must be importable where they land.  A campaign module run as
``python -m`` hands its work to its importable copy (see the
``__main__`` block of ``repro.experiments.chaos``), so its cells never
name ``__main__``; a cell that does still runs on forked workers, which
inherit the parent's ``__main__``, and is refused by a subprocess
worker with a terminal nack.

The worker protocol's JSON documents (end of this module) are declared
once for both ends: the coordinator and ``CoordinatorClient`` each
encode what they send and decode what they read with
:mod:`repro.service.codec`.  A claimed task's ``cell`` is checked by
:func:`decode_cell`, so one bad cell is nacked alone.

Trust model: pickle execution means the coordinator and its workers
must trust each other.  The coordinator binds loopback by default and
the docs say so loudly; this layer adds no authentication.
"""

from __future__ import annotations

import base64
import importlib
import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

from ..parallel.executor import CellSpec
from ..service.codec import EMPTY_IS_DEFAULT, NON_EMPTY, POSITIVE

#: Pickles at or past this many bytes are candidates for compression.
COMPRESS_MIN = 512


class WireError(Exception):
    """A task or result document that does not decode."""


def encode_blob(value: Any) -> str:
    """Pickle + base64: JSON-safe transport for arbitrary cell data.

    Pickles at or past :data:`COMPRESS_MIN` bytes go through zlib first
    when that is a net win, marked with a ``z:`` prefix (base64 never
    contains ``:``, so the prefix is unambiguous).
    """
    raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    if len(raw) >= COMPRESS_MIN:
        packed = zlib.compress(raw, 6)
        if len(packed) < len(raw):
            return "z:" + base64.b64encode(packed).decode("ascii")
    return base64.b64encode(raw).decode("ascii")


def decode_blob(text: str) -> Any:
    return decode_blob_ex(text)[0]


def decode_blob_ex(text: str) -> tuple[Any, int, int]:
    """Decode a blob and report ``(value, wire_bytes, raw_bytes)``.

    ``wire_bytes`` is what travelled (the encoded text), ``raw_bytes``
    the decompressed pickle — the pair the coordinator's bytes-on-wire
    metrics are built from.
    """
    try:
        if text.startswith("z:"):
            raw = zlib.decompress(base64.b64decode(text[2:].encode("ascii")))
        else:
            raw = base64.b64decode(text.encode("ascii"))
        return pickle.loads(raw), len(text), len(raw)
    except Exception as exc:  # noqa: BLE001 - decode boundary
        raise WireError(f"undecodable payload: {type(exc).__name__}: {exc}")


def fn_name(fn: Callable[..., Any]) -> str:
    return f"{fn.__module__}:{fn.__qualname__}"


def resolve_fn(name: str) -> Callable[..., Any]:
    """Import ``module:qualname`` back into a callable.

    Only module-level callables resolve — the same restriction
    :func:`~repro.parallel.run_cells` documents for its process pool.
    """
    module_name, _, qualname = name.partition(":")
    if not module_name or not qualname:
        raise WireError(f"bad function name: {name!r}")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise WireError(f"cannot import {module_name!r}: {exc}")
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise WireError(f"no {qualname!r} in module {module_name!r}")
    if not callable(obj):
        raise WireError(f"{name!r} is not callable")
    return obj


def encode_cell(spec: CellSpec) -> dict[str, Any]:
    """The JSON task payload a claim response carries."""
    return {
        "key": spec.key,
        "fn": fn_name(spec.fn),
        "cacheable": spec.cacheable,
        "blob": encode_blob((tuple(spec.args), dict(spec.kwargs))),
    }


def decode_cell(doc: Mapping[str, Any]) -> CellSpec:
    """Rebuild the cell a worker should execute."""
    if not isinstance(doc, Mapping):
        raise WireError("task payload must be an object")
    for name in ("key", "fn", "blob"):
        if not isinstance(doc.get(name), str):
            raise WireError(f"task payload needs string field {name!r}")
    args, kwargs = decode_blob(doc["blob"])
    return CellSpec(
        key=doc["key"],
        fn=resolve_fn(doc["fn"]),
        args=tuple(args),
        kwargs=dict(kwargs),
        cacheable=bool(doc.get("cacheable", True)),
    )


# ---------------------------------------------------------------------------
# The worker protocol's documents (repro.service.codec reads them)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Heartbeat:
    worker: str = field(metadata=NON_EMPTY)


@dataclass(frozen=True)
class ClaimRequest:
    worker: str = field(metadata=NON_EMPTY)
    max: int
    lease: Optional[float] = field(default=None, metadata=POSITIVE)


@dataclass(frozen=True)
class ClaimedTask:
    task_id: str
    attempt: int
    cell: Any = None  # an encode_cell document; decode_cell checks it


@dataclass(frozen=True)
class ClaimReply:
    tasks: tuple[ClaimedTask, ...]


@dataclass(frozen=True)
class Ack:
    task_id: str
    result: str  # an encode_blob text
    source: str = field(default="computed", metadata=EMPTY_IS_DEFAULT)


@dataclass(frozen=True)
class AckBatch:
    worker: str = field(metadata=NON_EMPTY)
    acks: tuple[Ack, ...]


@dataclass(frozen=True)
class AckReply:
    acked: tuple[str, ...]
    stale: tuple[str, ...]
    rejected: tuple[str, ...]


@dataclass(frozen=True)
class Nack:
    task_id: str
    error: str
    requeue: bool = True


@dataclass(frozen=True)
class NackBatch:
    worker: str = field(metadata=NON_EMPTY)
    nacks: tuple[Nack, ...]
