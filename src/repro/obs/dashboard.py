"""A terminal view over a fleet aggregator snapshot.

``python -m repro.obs.dashboard URL`` polls ``GET /obs/fleet`` on the
service plane (which hosts the aggregator) and renders the utilisation
/ collision / backoff rollups as a compact text frame.  With ``--once``
it prints a single frame (the CI mode).

Rendering is pure (snapshot dict in, string out): the same function
backs the live loop, the CI artifact, and the tests.
"""

from __future__ import annotations

import time
from typing import Any, Optional

from ..service.http import BadReply, ErrorBody, HttpTransportError, json_exchange

FLEET_PATH = "/obs/fleet"


def normalize_fleet_url(url: str) -> str:
    """Accept a service root, or the full fleet endpoint, verbatim."""
    trimmed = url.rstrip("/")
    if trimmed.endswith(FLEET_PATH):
        return trimmed
    return trimmed + FLEET_PATH


def fetch_snapshot(url: str, timeout: float = 10.0) -> dict[str, Any]:
    """GET the fleet snapshot: :class:`HttpTransportError` when no reply
    comes, :class:`BadReply` when one is not a 200 JSON object."""
    status, doc = json_exchange(normalize_fleet_url(url), timeout=timeout,
                                retries=2)
    if isinstance(doc, ErrorBody):
        raise BadReply(status, f"{doc.error.code}: {doc.error.message}")
    if status != 200 or not isinstance(doc, dict):
        raise BadReply(status, "not a fleet snapshot (a JSON object)")
    return doc


def _fmt(value: Any, digits: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def _bar(fraction: Optional[float], width: int = 20) -> str:
    if fraction is None:
        return " " * width
    filled = int(round(min(max(fraction, 0.0), 1.0) * width))
    return "#" * filled + "." * (width - filled)


def render_text(snapshot: dict[str, Any], max_sources: int = 12) -> str:
    """One dashboard frame as plain text."""
    totals = snapshot.get("totals", {})
    lines = [
        "repro fleet observability"
        f" (snapshot v{snapshot.get('version', '?')},"
        f" up {_fmt(snapshot.get('uptime_seconds'), 1)}s)",
        "",
        f"  sources {totals.get('sources', 0)}"
        f"  batches {totals.get('batches', 0)}"
        f"  records {totals.get('records', 0)}"
        f"  spans {totals.get('spans', 0)}"
        f"  collisions {_fmt(totals.get('collisions', 0), 0)}"
        f"  malformed {totals.get('malformed', 0)}"
        f"  stale {totals.get('stale_batches', 0)}",
    ]

    disciplines = snapshot.get("disciplines", {})
    if disciplines:
        lines += ["", "  discipline     util  collisions  attempts"
                       "  rate      backoffs  p50/p90/p99 backoff(s)"]
        for name, doc in disciplines.items():
            hist = doc.get("backoff_seconds", {})
            quant = "/".join(_fmt(hist.get(k), 2)
                             for k in ("p50", "p90", "p99"))
            lines.append(
                f"  {name:<13}"
                f" {_fmt(doc.get('utilisation'), 3):>5}"
                f"  {_fmt(doc.get('collisions'), 0):>10}"
                f"  {_fmt(doc.get('attempts'), 0):>8}"
                f"  {_fmt(doc.get('collision_rate'), 4):>8}"
                f"  {_fmt(doc.get('backoffs'), 0):>8}"
                f"  {quant}")

    sources = snapshot.get("sources", {})
    if sources:
        ranked = sorted(
            sources.items(),
            key=lambda kv: -(kv[1].get("utilisation") or 0.0))
        lines += ["", f"  busiest sources"
                      f" ({min(len(ranked), max_sources)}"
                      f" of {len(ranked)}):"]
        for source, doc in ranked[:max_sources]:
            util = doc.get("utilisation")
            lines.append(
                f"    {source:<44.44}"
                f" [{_bar(util)}] {_fmt(util, 3)}"
                f"  busy {_fmt(doc.get('busy_seconds'), 1)}s"
                f"  spans {doc.get('spans', 0)}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.dashboard",
        description="terminal dashboard over the service's fleet aggregator")
    parser.add_argument("url", help="service base URL "
                                    "(e.g. http://127.0.0.1:8042)")
    parser.add_argument("--interval", type=float, default=2.0,
                        help="seconds between frames (default 2)")
    parser.add_argument("--once", action="store_true",
                        help="print one frame and exit")
    parser.add_argument("--max-sources", type=int, default=12,
                        help="busiest sources shown per frame")
    args = parser.parse_args(argv)

    while True:
        try:
            snapshot = fetch_snapshot(args.url)
        except (HttpTransportError, BadReply) as exc:
            print(f"fleet fetch failed: {exc}", flush=True)
            if args.once:
                return 1
            time.sleep(args.interval)
            continue
        frame = render_text(snapshot, max_sources=args.max_sources)
        if not args.once:
            # Clear-and-home keeps the frame in place on ANSI terminals.
            print("\x1b[2J\x1b[H", end="")
        print(frame, flush=True)
        if args.once:
            return 0
        time.sleep(args.interval)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    import sys

    sys.exit(main())
