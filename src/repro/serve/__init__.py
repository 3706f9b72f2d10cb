"""The network serving tier: progressive answers over asyncio.

Layers, transport-independent first:

* :mod:`repro.serve.protocol` — the NDJSON wire format;
* :mod:`repro.serve.progressive` — the escalation ladder as a stream of
  frames, each with its own rung's interval (the last one bit-identical
  to a non-progressive run at the same seed);
* :mod:`repro.serve.admission` — admit / degrade / reject, with the
  Section 8 load shedder as the policy engine;
* :mod:`repro.serve.handler` — the one request lifecycle (admit,
  execute, release) every front-end (TCP, HTTP, the ``repro serve``
  stdin loop) runs;
* :mod:`repro.serve.server` — the asyncio TCP + HTTP tier, both
  listeners over one admit / run-on-the-engine-thread / release
  coroutine;
* :mod:`repro.serve.client` — the async client and the CLI's sync
  one-shot wrapper.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionDecision,
    degrade_statement,
)
from repro.serve.client import ServeClient, query_once
from repro.serve.handler import RequestHandler
from repro.serve.progressive import (
    ProgressiveFrame,
    ProgressiveOutcome,
    run_progressive,
)
from repro.serve.protocol import Request, decode_request, encode
from repro.serve.server import ReproServer, ServeConfig, start_server

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "degrade_statement",
    "ServeClient",
    "query_once",
    "RequestHandler",
    "ProgressiveFrame",
    "ProgressiveOutcome",
    "run_progressive",
    "Request",
    "decode_request",
    "encode",
    "ReproServer",
    "ServeConfig",
    "start_server",
]
