"""The wire protocol of the serving tier: newline-delimited JSON.

One request per line, one or more response objects per request, every
object tagged with the request's ``id`` so responses of pipelined
requests can interleave on one connection:

* ``{"type": "frame", ...}`` — a progressive estimate; zero or more
  per query, each carrying ``(estimate, ci_lo, ci_hi, rate)`` of its
  own rung; the last one's interval is the answer's;
* ``{"type": "result", ...}`` — the terminal answer (exactly one per
  accepted request);
* ``{"type": "error", "code": ..., ...}`` — the terminal failure.

Decoding is strict: anything that is not a JSON object with a known
``op``, or whose numbers are booleans, non-finite or out of range,
raises :class:`~repro.errors.ProtocolError`, which the server
answers in-stream without dropping the connection — one malformed line
must not poison the statements behind it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.errors import ProtocolError

#: Request operations the tier understands.
OPS = ("query", "stats", "metrics", "ping", "cancel")

#: Query modes: ``final`` answers once, ``progressive`` streams frames.
MODES = ("final", "progressive")


@dataclass(frozen=True)
class Request:
    """One decoded client request."""

    id: int
    op: str
    statement: str | None = None
    seed: int | None = None
    mode: str = "final"
    deadline_ms: float | None = None
    budget_percent: float | None = None
    confidence: float | None = None
    #: ``cancel`` only: the id of the in-flight request to abandon.
    target: int | None = None


def _require(condition: bool, message: str, code: str = "bad-request") -> None:
    if not condition:
        raise ProtocolError(message, code=code)


def _number(value: object, lo: float, hi: float) -> bool:
    """``value`` is absent, or a finite JSON number (not a boolean)
    strictly between ``lo`` and ``hi``."""
    return value is None or (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and lo < value < hi
    )


def decode_request(line: str | bytes) -> Request:
    """Parse and validate one request line (strict)."""
    if isinstance(line, bytes):
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not JSON: {exc}") from exc
    _require(isinstance(raw, dict), "request must be a JSON object")
    op = raw.get("op", "query")
    _require(op in OPS, f"unknown op {op!r}; expected one of {OPS}")
    rid = raw.get("id")
    _require(
        isinstance(rid, int) and not isinstance(rid, bool),
        "request needs an integer 'id'",
    )
    statement = raw.get("statement")
    if op == "query":
        _require(
            isinstance(statement, str) and bool(statement.strip()),
            "query op needs a non-empty 'statement'",
        )
    mode = raw.get("mode", "final")
    _require(mode in MODES, f"unknown mode {mode!r}; expected one of {MODES}")
    seed = raw.get("seed")
    _require(
        seed is None or (isinstance(seed, int) and not isinstance(seed, bool)),
        "'seed' must be an integer",
    )
    deadline_ms = raw.get("deadline_ms")
    _require(
        _number(deadline_ms, 0.0, math.inf),
        "'deadline_ms' must be a positive finite number",
    )
    # The bound of SQL's ``WITHIN p %``.
    budget_percent = raw.get("budget_percent")
    _require(
        _number(budget_percent, 0.0, 100.0),
        "'budget_percent' must be in (0, 100)",
    )
    confidence = raw.get("confidence")
    _require(_number(confidence, 0.0, 1.0), "'confidence' must be in (0, 1)")
    target = raw.get("target")
    if op == "cancel":
        _require(
            isinstance(target, int) and not isinstance(target, bool),
            "cancel op needs an integer 'target'",
        )
    return Request(
        id=rid,
        op=op,
        statement=statement.strip() if isinstance(statement, str) else None,
        seed=seed,
        mode=mode,
        deadline_ms=float(deadline_ms) if deadline_ms is not None else None,
        budget_percent=(
            float(budget_percent) if budget_percent is not None else None
        ),
        confidence=float(confidence) if confidence is not None else None,
        target=target,
    )


def encode(payload: dict) -> bytes:
    """One response object as a newline-terminated JSON line."""
    return (json.dumps(payload, separators=(",", ":")) + "\n").encode("utf-8")


def frame_payload(rid: int, frame) -> dict:
    """The wire form of a :class:`~repro.serve.progressive.ProgressiveFrame`."""
    return {
        "id": rid,
        "type": "frame",
        "sequence": frame.sequence,
        "stage": frame.stage,
        "alias": frame.alias,
        "estimate": frame.estimate,
        "ci_lo": frame.ci_lo,
        "ci_hi": frame.ci_hi,
        "rate": frame.rate,
        "n_sample": frame.n_sample,
    }


def error_payload(rid: int, message: str, code: str = "error") -> dict:
    return {"id": rid, "type": "error", "code": code, "error": message}
