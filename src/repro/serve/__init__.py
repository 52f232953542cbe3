"""SpGEMM-as-a-service: a multi-tenant server on the unified options API.

The serving tier turns the library's warm state — inspector-executor
plans — into amortized state: a long-lived process that answers
``spgemm`` / ``chain`` / ``masked`` / ``app`` jobs over a
newline-delimited JSON protocol (``repro-job/1``), computing each job
inline on a compute thread against one process-wide
:class:`~repro.core.plan.PlanCache` shared by every tenant's requests.

Quick start::

    from repro.serve import serve_in_thread, Client

    with serve_in_thread(concurrency=4) as handle:
        with Client(handle.host, handle.port, tenant="alice") as cli:
            c = cli.spgemm(a, b, algorithm="hash", engine="fast")

Or from a shell: ``python -m repro serve --port 7070 --http-port 7071``
and scrape ``GET /metrics``.  See ``docs/serving.md`` for the protocol,
the admission-control model (bounded queue, per-tenant round-robin,
deadlines measured from admission, graceful drain) and the metrics
schema.
"""

from .client import Client, submit_job
from .metrics import METRICS_SCHEMA, ServerMetrics, validate_metrics_schema
from .options import ServeOptions
from .protocol import (
    JOB_KINDS,
    WIRE_SCHEMA,
    build_job,
    csr_from_wire,
    csr_to_wire,
    decode_message,
    encode_message,
    parse_job,
)
from .server import Server, ServerHandle, serve_in_thread

__all__ = [
    "Server",
    "ServerHandle",
    "serve_in_thread",
    "Client",
    "submit_job",
    "ServeOptions",
    "ServerMetrics",
    "METRICS_SCHEMA",
    "validate_metrics_schema",
    "WIRE_SCHEMA",
    "JOB_KINDS",
    "build_job",
    "parse_job",
    "csr_to_wire",
    "csr_from_wire",
    "encode_message",
    "decode_message",
]
