"""Network-free request loop: JSONL in, JSONL out.

``repro-scatter serve`` reads one JSON request per line, submits them to
a :class:`~repro.serve.service.PlanService` in windows (so bursts of
identical fingerprints actually coalesce), and emits one JSON response
per request **in input order**.

Request schema (one object per line)::

    {"id": "r1", "n": 815000, "platform": "table1"}
    {"id": "r2", "n": 10000,
     "processors": [{"name": "P1", "alpha": 0.01, "beta": 2e-5},
                    ...,
                    {"name": "root", "alpha": 0.01, "beta": 0.0}]}

* ``n`` — items to scatter (required, positive int);
* ``platform: "table1"`` — the paper's built-in platform; or
* ``processors`` — explicit list, **root last**; each entry takes
  ``alpha`` (compute s/item), ``beta`` (transfer s/item) and optional
  ``comp_intercept``/``comm_intercept`` (affine fixed costs).

Every request is planned with the service's own ``--algorithm``; a
request that names an ``algorithm`` is rejected rather than silently
served by another solver.

Response schema::

    {"id": "r1", "ok": true, "counts": [...], "makespan": 123.4,
     "algorithm": "closed-form", "cached": false, "coalesced": false}
    {"id": "r2", "ok": false, "error": "..."}

Malformed lines produce an ``ok: false`` response instead of killing the
loop.  The response echoes the request's ``id`` whenever the line is a
JSON object, and carries a null ``id`` only when none could be parsed.
Blank lines are skipped.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..core.distribution import Processor, ScatterProblem
from .service import PlanService, PlanTicket

__all__ = ["RequestError", "parse_request", "serve_jsonl"]


class RequestError(ValueError):
    """A malformed request line; ``req_id`` is its id, if one was parsed."""

    def __init__(self, message: str, req_id: Optional[Any] = None) -> None:
        super().__init__(message)
        self.req_id = req_id


def parse_request(line: str) -> Tuple[Optional[Any], ScatterProblem]:
    """Parse one JSONL request line into ``(id, problem)``.

    Raises :class:`RequestError` on malformed input, carrying the line's
    id when it is a JSON object (the loop converts that into an error
    response rather than crashing).
    """
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RequestError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise RequestError(
            f"request must be a JSON object, got {type(doc).__name__}"
        )
    req_id = doc.get("id")
    try:
        return req_id, _request_problem(doc)
    except Exception as exc:
        raise RequestError(str(exc), req_id) from exc


def _request_problem(doc: Dict[str, Any]) -> ScatterProblem:
    """The problem a request object describes (raises on bad fields)."""
    if "algorithm" in doc:
        raise ValueError(
            "requests cannot choose an 'algorithm'; the service plans "
            "every request with its own --algorithm"
        )
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool) or n <= 0:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    if "processors" in doc:
        procs: List[Processor] = []
        entries = doc["processors"]
        if not isinstance(entries, list) or len(entries) < 2:
            raise ValueError("'processors' must list >= 2 entries, root last")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict) or "alpha" not in entry:
                raise ValueError(f"processor #{i} needs at least 'alpha'")
            procs.append(
                Processor.affine(
                    str(entry.get("name", f"P{i + 1}")),
                    entry["alpha"],
                    entry.get("beta", 0),
                    entry.get("comp_intercept", 0),
                    entry.get("comm_intercept", 0),
                )
            )
        return ScatterProblem(procs, n)
    if doc.get("platform", "table1") == "table1":
        from ..workloads.table1 import table1_problem

        return table1_problem(n)
    raise ValueError(f"unknown platform {doc.get('platform')!r}")


def _response(req_id: Optional[Any], ticket: PlanTicket) -> Dict[str, Any]:
    try:
        result = ticket.result()
    except Exception as exc:
        return {"id": req_id, "ok": False, "error": str(exc)}
    return {
        "id": req_id,
        "ok": True,
        "counts": list(result.counts),
        "makespan": result.makespan,
        "algorithm": result.algorithm,
        "cached": ticket.cached,
        "coalesced": ticket.coalesced,
    }


def serve_jsonl(
    lines: Iterable[str],
    service: PlanService,
    *,
    window: int = 64,
) -> Iterator[Dict[str, Any]]:
    """Serve a stream of JSONL requests, yielding response dicts in order.

    Requests are submitted ``window`` at a time before any result is
    awaited, so concurrent identical fingerprints within a window
    coalesce and distinct ones overlap on pool-backed executors.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    batch: List[Tuple[Optional[Any], Optional[PlanTicket], Optional[str]]] = []

    def drain() -> Iterator[Dict[str, Any]]:
        for req_id, ticket, err in batch:
            if ticket is None:
                yield {"id": req_id, "ok": False, "error": err}
            else:
                yield _response(req_id, ticket)
        batch.clear()

    for line in lines:
        line = line.strip()
        if not line:
            continue
        req_id: Optional[Any] = None
        try:
            req_id, problem = parse_request(line)
            batch.append((req_id, service.submit(problem), None))
        except RequestError as exc:
            batch.append((exc.req_id, None, str(exc)))
        except Exception as exc:
            batch.append((req_id, None, str(exc)))
        if len(batch) >= window:
            yield from drain()
    yield from drain()
