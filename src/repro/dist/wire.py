"""Moving cells and results between coordinator and workers.

The socket worker protocol ships a :class:`~repro.parallel.executor.
CellSpec` as a JSON task document: the cell function travels by name
(``module:qualname``, resolved by import on the worker — the same rule
the process-pool path already imposes, since pickling a function also
ships only its name), and the arguments/results travel as base64-
encoded pickles.  Pickle is the repo's canonical result transport (the
cache stores the same pickles), which is exactly what makes a worker's
ack byte-identical to a local computation.

Two bandwidth levers sit on top of that base:

* **compression** — a pickle at or past :data:`COMPRESS_MIN` bytes
  ships zlib-compressed when that actually helps, marked by a ``z:``
  prefix on the base64 text; plain blobs stay prefix-free;
* **payload digests** — a large cell payload is published once into a
  coordinator-side :class:`PayloadTable` and referenced from the task
  document by its sha256 digest (``blob_digest``).  A worker resolves
  the digest through its :class:`PayloadCache` and fetches a miss from
  ``GET /payload/<digest>`` exactly once, so a campaign of near-
  identical cells ships its heavy arguments per *worker*, not per
  *cell*.

Trust model: pickle execution means the coordinator and its workers
must trust each other.  The coordinator binds loopback by default and
the docs say so loudly; this layer adds no authentication.
"""

from __future__ import annotations

import base64
import hashlib
import importlib
import io
import pickle
import sys
import threading
import zlib
from collections import OrderedDict
from typing import Any, Callable, Mapping, Optional

from ..parallel.executor import CellSpec

#: Pickles at or past this many bytes are candidates for compression.
COMPRESS_MIN = 512

#: Encoded payloads longer than this ship by digest, not inline.
PAYLOAD_INLINE_MAX = 2048

#: Worker-side payload cache budget (bytes of encoded text).
PAYLOAD_CACHE_BYTES = 32 * 1024 * 1024


class WireError(Exception):
    """A task or result document that does not decode."""


def _main_alias() -> Optional[str]:
    """The importable name behind ``__main__``, when there is one.

    ``python -m repro.experiments.chaos`` defines the campaign module's
    classes and functions in ``__main__`` — a module name that means
    something *different* inside a worker process.  runpy records the
    real name on ``__main__.__spec__``; pickling/naming by that makes
    the reference portable.  (``multiprocessing`` does this same fixup
    for its spawned children; the socket wire has to do it itself.)
    """
    spec = getattr(sys.modules.get("__main__"), "__spec__", None)
    name = getattr(spec, "name", None)
    if name and name not in ("__main__", "__mp_main__"):
        return name
    return None


def _lookup(module_name: str, qualname: str) -> Any:
    try:
        obj: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _import_attr(module_name: str, qualname: str) -> Any:
    """Unpickle hook for classes re-homed off ``__main__``."""
    obj = _lookup(module_name, qualname)
    if obj is None:
        raise WireError(f"no {qualname!r} in module {module_name!r}")
    return obj


class _Pickler(pickle.Pickler):
    """Pickles ``__main__``-defined classes by their importable name."""

    def reducer_override(self, obj):
        if (isinstance(obj, type)
                and obj.__module__ in ("__main__", "__mp_main__")):
            real = _main_alias()
            # The importable module may be a *second copy* of __main__
            # (runpy re-executes it), so the twin is an equivalent
            # class, not the identical object — name+kind is the test.
            if real is not None:
                twin = _lookup(real, obj.__qualname__)
                if isinstance(twin, type):
                    return (_import_attr, (real, obj.__qualname__))
        return NotImplemented


def encode_blob(value: Any) -> str:
    """Pickle + base64: JSON-safe transport for arbitrary cell data.

    Pickles at or past :data:`COMPRESS_MIN` bytes go through zlib first
    when that is a net win, marked with a ``z:`` prefix (base64 never
    contains ``:``, so the prefix is unambiguous).
    """
    buffer = io.BytesIO()
    _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    raw = buffer.getvalue()
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


def blob_digest(text: str) -> str:
    """Content address of an encoded blob: sha256 over the wire text."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()


class PayloadTable:
    """Coordinator-side content-addressed store of encoded payloads.

    ``encode_cell`` publishes large blobs here and the coordinator
    serves them at ``GET /payload/<digest>``; the table deduplicates,
    so a thousand cells sharing one parameter pack hold one copy.
    """

    def __init__(self) -> None:
        self._blobs: dict[str, str] = {}
        self._lock = threading.Lock()
        self.served = 0

    def put_text(self, text: str) -> str:
        digest = blob_digest(text)
        with self._lock:
            self._blobs.setdefault(digest, text)
        return digest

    def get(self, digest: str) -> Optional[str]:
        with self._lock:
            text = self._blobs.get(digest)
            if text is not None:
                self.served += 1
            return text

    def __len__(self) -> int:
        with self._lock:
            return len(self._blobs)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "payloads": len(self._blobs),
                "bytes": sum(len(t) for t in self._blobs.values()),
                "served": self.served,
            }


class PayloadCache:
    """Worker-side LRU of payload texts, bounded by encoded bytes.

    A hit is free; a miss falls back to the caller's fetch (one HTTP
    round trip) and is memoized.  Eviction drops least-recently-used
    entries once the byte budget is exceeded — correctness never
    depends on residency, only latency does.
    """

    def __init__(self, max_bytes: int = PAYLOAD_CACHE_BYTES) -> None:
        self.max_bytes = max_bytes
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, digest: str) -> Optional[str]:
        with self._lock:
            text = self._entries.get(digest)
            if text is None:
                self.misses += 1
                return None
            self._entries.move_to_end(digest)
            self.hits += 1
            return text

    def put(self, digest: str, text: str) -> None:
        with self._lock:
            if digest in self._entries:
                self._entries.move_to_end(digest)
                return
            self._entries[digest] = text
            self._bytes += len(text)
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                _, dropped = self._entries.popitem(last=False)
                self._bytes -= len(dropped)
                self.evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


def fn_name(fn: Callable[..., Any]) -> str:
    module = fn.__module__
    if module in ("__main__", "__mp_main__"):
        real = _main_alias()
        if real is not None and callable(_lookup(real, fn.__qualname__)):
            module = real
    return f"{module}:{fn.__qualname__}"


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


def encode_cell(spec: CellSpec, payloads: Optional[PayloadTable] = None,
                inline_max: int = PAYLOAD_INLINE_MAX) -> dict[str, Any]:
    """The JSON task payload a claim response carries.

    With a :class:`PayloadTable`, argument blobs longer than
    ``inline_max`` characters are published to the table and referenced
    by ``blob_digest``; small blobs stay inline — a digest round trip
    would cost more than it saves.
    """
    doc: dict[str, Any] = {
        "key": spec.key,
        "fn": fn_name(spec.fn),
        "cacheable": spec.cacheable,
    }
    blob = encode_blob((tuple(spec.args), dict(spec.kwargs)))
    if payloads is not None and len(blob) > inline_max:
        doc["blob_digest"] = payloads.put_text(blob)
        doc["blob_chars"] = len(blob)
    else:
        doc["blob"] = blob
    return doc


def decode_cell(doc: Mapping[str, Any],
                payloads: Optional[PayloadCache] = None,
                fetch: Optional[Callable[[str], str]] = None) -> CellSpec:
    """Rebuild the cell a worker should execute.

    A document carrying ``blob_digest`` instead of an inline ``blob``
    resolves through ``payloads`` (the worker's LRU) and, on a miss,
    ``fetch`` — one HTTP round trip to ``/payload/<digest>``, verified
    against the digest before use and memoized for the next cell.
    """
    if not isinstance(doc, Mapping):
        raise WireError("task payload must be an object")
    for field in ("key", "fn"):
        if not isinstance(doc.get(field), str):
            raise WireError(f"task payload needs string field {field!r}")
    blob = doc.get("blob")
    if not isinstance(blob, str):
        digest = doc.get("blob_digest")
        if not isinstance(digest, str):
            raise WireError("task payload needs 'blob' or 'blob_digest'")
        blob = payloads.get(digest) if payloads is not None else None
        if blob is None:
            if fetch is None:
                raise WireError(
                    f"no payload fetcher for digest {digest[:12]}...")
            blob = fetch(digest)
            if not isinstance(blob, str) or blob_digest(blob) != digest:
                raise WireError(
                    f"payload digest mismatch for {digest[:12]}...")
            if payloads is not None:
                payloads.put(digest, blob)
    args, kwargs = decode_blob(blob)
    return CellSpec(
        key=doc["key"],
        fn=resolve_fn(doc["fn"]),
        args=tuple(args),
        kwargs=dict(kwargs),
        cacheable=bool(doc.get("cacheable", True)),
    )
