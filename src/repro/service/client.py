"""Sync client for the service plane, plus the submit CLI.

:class:`ServiceClient` is a thin stdlib HTTP wrapper: each call sends a
:mod:`.schemas` dataclass and reads the declared reply through the
kit's :func:`repro.service.http.json_exchange`, with the codec the
service decodes its requests with (:mod:`.codec`).  Idempotent GETs
retry transient transport failures with capped exponential backoff —
the paper's client discipline applied to our own tooling — while
mutating requests (submit/cancel) are attempted exactly once.  The CLI
(``python -m repro.service.client``) drives the full submit → wait →
fetch loop and is what CI runs against a live server; ``ftsh --submit
URL`` reuses the same client.

Exit codes follow the ftsh contract: 0 the job finished and (for
scripts) the script succeeded, 1 the job failed/was cancelled or the
script failed, 2 the submission was rejected (schema/sandbox/usage).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Iterable, Optional

from .codec import encode
from .http import (
    BadReply,
    ErrorBody,
    HttpTransportError,
    http_request,
    json_exchange,
)
from .schemas import (
    CampaignSubmission,
    EventsReply,
    JobEvent,
    JobResult,
    JobStatus,
    ScriptSubmission,
    SUBMISSION_ROUTES,
    TERMINAL,
)

DEFAULT_URL = "http://127.0.0.1:8042"

#: Transport retries for idempotent (GET) requests.
DEFAULT_GET_RETRIES = 3

#: Longest :meth:`ServiceClient.wait` asks one events long-poll to hold;
#: the service caps a hold at 30 s (``repro.service.app.MAX_EVENT_WAIT``).
FOLLOW_WAIT = 30.0


class ServiceError(Exception):
    """An HTTP error response, decoded from the service's error body."""

    def __init__(self, status: int, code: str, message: str,
                 details: Iterable[str] = ()) -> None:
        self.status = status
        self.code = code
        self.details = list(details)
        super().__init__(f"[{status}/{code}] {message}")


class ServiceClient:
    """Talks to one service endpoint; safe to share across threads.

    ``retries`` applies only to GETs (status, result, events, health,
    metrics): those are idempotent, so a connection the server dropped
    mid-restart is retried with capped exponential backoff instead of
    surfacing as a spurious failure.  POST/DELETE are never retried —
    resubmitting is the caller's decision.
    """

    def __init__(self, url: str = DEFAULT_URL, timeout: float = 30.0,
                 retries: int = DEFAULT_GET_RETRIES) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, reply: Optional[type],
                 request: Any = None,
                 timeout: Optional[float] = None) -> Any:
        """The reply to one exchange, decoded as ``reply`` (or parsed
        JSON); an error reply, a transport failure or a reply that does
        not decode raises :class:`ServiceError`."""
        try:
            status, doc = json_exchange(
                self.url + path, method, request, reply,
                timeout=timeout if timeout is not None else self.timeout,
                retries=self.retries if method == "GET" else 0)
        except HttpTransportError as exc:
            raise ServiceError(
                0, "unreachable", f"{self.url}: {exc.reason}") from None
        except BadReply as exc:
            raise ServiceError(exc.status, "bad-reply", str(exc)) from None
        if isinstance(doc, ErrorBody):
            raise ServiceError(status, doc.error.code, doc.error.message,
                               doc.error.details)
        return doc

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, submission) -> JobStatus:
        """Submit either kind; returns the (possibly deduped) status."""
        for route, kind in SUBMISSION_ROUTES.items():
            if isinstance(submission, kind):
                return self._request("POST", "/" + route, JobStatus,
                                     submission)
        raise TypeError(f"cannot submit {type(submission).__name__}")

    def submit_script(self, script: str,
                      variables: Optional[dict] = None,
                      world: str = "condor",
                      timeout: Optional[float] = None,
                      seed: int = 2003) -> JobStatus:
        return self.submit(ScriptSubmission(
            script=script,
            variables=tuple(sorted((variables or {}).items())),
            world=world, timeout=timeout, seed=seed))

    def submit_campaign(self, scenario: str, *,
                        disciplines: Iterable[str] = (
                            "fixed", "aloha", "ethernet"),
                        fault: Optional[str] = None,
                        levels: Iterable[int] = (),
                        scale: str = "smoke",
                        seed: int = 2003,
                        overrides: Optional[dict] = None) -> JobStatus:
        return self.submit(CampaignSubmission(
            scenario=scenario, disciplines=tuple(disciplines), fault=fault,
            levels=tuple(levels), scale=scale, seed=seed,
            overrides=tuple(sorted((overrides or {}).items()))))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> JobStatus:
        return self._request("GET", f"/jobs/{job_id}", JobStatus)

    def result(self, job_id: str) -> JobResult:
        return self._request("GET", f"/jobs/{job_id}/result", JobResult)

    def events(self, job_id: str, since: int = 0,
               wait: Optional[float] = None) -> list[JobEvent]:
        """Events with ``seq > since``.  ``wait`` long-polls: the server
        holds the request up to that many seconds for a new event, so a
        follower sees progress without hammering the endpoint."""
        path = f"/jobs/{job_id}/events?since={int(since)}"
        timeout = None
        if wait is not None:
            path += f"&wait={float(wait):g}"
            # Leave headroom over the server-side hold.
            timeout = self.timeout + float(wait)
        return list(self._request("GET", path, EventsReply,
                                  timeout=timeout).events)

    def cancel(self, job_id: str) -> JobStatus:
        return self._request("DELETE", f"/jobs/{job_id}", JobStatus)

    def healthz(self) -> dict:
        return self._request("GET", "/healthz", None)

    def metrics(self) -> str:
        """``/metricsz``, the one reply that is Prometheus text, not JSON."""
        try:
            response = http_request(self.url + "/metricsz",
                                    timeout=self.timeout,
                                    retries=self.retries)
        except HttpTransportError as exc:
            raise ServiceError(
                0, "unreachable", f"{self.url}: {exc.reason}") from None
        if response.status != 200:
            raise ServiceError(response.status, "http",
                               f"HTTP {response.status}")
        return response.body.decode()

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobStatus:
        """Follow the job's event stream until a terminal state, then
        return its status; TimeoutError past ``timeout``.

        Each step is an events long-poll, so the call returns as soon as
        the job ends rather than at the next poll tick.  A job's state is
        its latest event's: a resubmitted job's stream still holds the
        previous run's terminal event, followed by the new run's.
        """
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        since = 0
        while True:
            hold = FOLLOW_WAIT
            if deadline is not None:
                hold = min(hold, deadline - time.monotonic())
                if hold <= 0:
                    status = self.status(job_id)
                    if status.state in TERMINAL:
                        return status
                    raise TimeoutError(
                        f"job {job_id} still {status.state} after {timeout:g}s")
            events = self.events(job_id, since=since, wait=hold)
            if events:
                since = events[-1].seq
                if events[-1].state in TERMINAL:
                    return self.status(job_id)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_vars(pairs: Iterable[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq or not name:
            raise SystemExit(f"ftsh-service: bad --var {pair!r} "
                             "(expected NAME=VALUE)")
        out[name] = value
    return out


def _print_doc(doc: Any) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


def finish(client: ServiceClient, status: JobStatus,
           wait_timeout: Optional[float] = None) -> int:
    """Wait for the job and print its result document; return the exit
    code (0 done and succeeded, 1 not done or the script failed).  Both
    this CLI's ``--wait`` and ``ftsh --submit`` end here."""
    final = client.wait(status.job_id, timeout=wait_timeout)
    result = client.result(status.job_id)
    _print_doc(encode(result))
    if final.state != "done":
        print(f"ftsh-service: job {final.state}: {final.error or ''}",
              file=sys.stderr)
        return 1
    if (result.kind == "script" and isinstance(result.result, dict)
            and not result.result.get("success", False)):
        print("ftsh-service: script failed: "
              f"{result.result.get('reason')}", file=sys.stderr)
        return 1
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.client",
        description="submit scripts/campaigns to a repro service")
    parser.add_argument("--url", default=DEFAULT_URL,
                        help=f"service base URL (default {DEFAULT_URL})")
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="submit an ftsh script")
    p_submit.add_argument("script", help="path to the .ftsh script")
    p_submit.add_argument("--var", action="append", default=[],
                          metavar="NAME=VALUE",
                          help="script variable (repeatable)")
    p_submit.add_argument("--world", default="condor",
                          choices=("condor", "replica", "buffer"))
    p_submit.add_argument("--timeout", type=float, default=None,
                          help="simulated-seconds budget for the script")
    p_submit.add_argument("--seed", type=int, default=2003)
    p_submit.add_argument("--wait", action="store_true",
                          help="block until terminal and fetch the result")
    p_submit.add_argument("--wait-timeout", type=float, default=None)

    p_campaign = sub.add_parser("campaign", help="submit a chaos campaign")
    p_campaign.add_argument("scenario")
    p_campaign.add_argument("--discipline", action="append", default=[],
                            help="retry discipline (repeatable; default all)")
    p_campaign.add_argument("--fault", default=None)
    p_campaign.add_argument("--level", action="append", type=int, default=[])
    p_campaign.add_argument("--scale", default="smoke")
    p_campaign.add_argument("--seed", type=int, default=2003)
    p_campaign.add_argument("--override", action="append", default=[],
                            metavar="FIELD=NUMBER",
                            help="scale field override (repeatable)")
    p_campaign.add_argument("--wait", action="store_true")
    p_campaign.add_argument("--wait-timeout", type=float, default=None)

    for name, help_text in (("status", "print a job's status"),
                            ("result", "print a job's result"),
                            ("cancel", "cancel a job"),
                            ("events", "print a job's event stream")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("job_id")
        if name == "events":
            p.add_argument("--since", type=int, default=0)
            p.add_argument("--wait", type=float, default=None,
                           metavar="SECONDS",
                           help="long-poll: hold until a new event or "
                                "SECONDS pass")
    p_wait = sub.add_parser("wait", help="block until a job is terminal")
    p_wait.add_argument("job_id")
    p_wait.add_argument("--wait-timeout", type=float, default=None)
    sub.add_parser("health", help="print the service health document")

    args = parser.parse_args(argv)
    client = ServiceClient(url=args.url)
    try:
        if args.command == "submit":
            try:
                with open(args.script, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                print(f"ftsh-service: {exc}", file=sys.stderr)
                return 2
            status = client.submit_script(
                text, variables=_parse_vars(args.var), world=args.world,
                timeout=args.timeout, seed=args.seed)
            if args.wait:
                return finish(client, status, args.wait_timeout)
            _print_doc(encode(status))
            return 0
        if args.command == "campaign":
            overrides = {}
            for pair in args.override:
                name, eq, value = pair.partition("=")
                if not eq:
                    raise SystemExit(
                        f"ftsh-service: bad --override {pair!r}")
                try:
                    overrides[name] = float(value)
                except ValueError:
                    raise SystemExit(
                        f"ftsh-service: --override {name} needs a number")
            status = client.submit_campaign(
                args.scenario,
                disciplines=(tuple(args.discipline)
                             or ("fixed", "aloha", "ethernet")),
                fault=args.fault, levels=tuple(args.level),
                scale=args.scale, seed=args.seed, overrides=overrides)
            if args.wait:
                return finish(client, status, args.wait_timeout)
            _print_doc(encode(status))
            return 0
        if args.command == "status":
            _print_doc(encode(client.status(args.job_id)))
            return 0
        if args.command == "result":
            _print_doc(encode(client.result(args.job_id)))
            return 0
        if args.command == "cancel":
            _print_doc(encode(client.cancel(args.job_id)))
            return 0
        if args.command == "events":
            for event in client.events(args.job_id, since=args.since,
                                       wait=args.wait):
                print(f"{event.seq}\t{event.ts:.3f}\t{event.state}"
                      f"\t{event.message}")
            return 0
        if args.command == "wait":
            final = client.wait(args.job_id, timeout=args.wait_timeout)
            _print_doc(encode(final))
            return 0 if final.state == "done" else 1
        if args.command == "health":
            _print_doc(client.healthz())
            return 0
    except ServiceError as exc:
        print(f"ftsh-service: {exc}", file=sys.stderr)
        for line in exc.details:
            print(f"  {line}", file=sys.stderr)
        return 2
    except TimeoutError as exc:
        print(f"ftsh-service: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
