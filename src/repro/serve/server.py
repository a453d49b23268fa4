"""Wire-protocol helpers of the serving service.

:class:`~repro.serve.service.ServeService` speaks JSON lines — one
request object per line, one or more reply objects out — over TCP or
stdin/stdout (``repro.cli serve``).  This module holds the pieces of
that protocol that do not depend on the front end: the protocol
version, the line-length guard, the identity block ``ping``/``stats``
replies carry, per-request version rejection, and
:class:`DesignResolver`, which turns a predict payload's design
reference into a :class:`~repro.circuit.design.Design` inside each
worker.  ``docs/serving.md`` has the op table.

Version negotiation: any request that *declares* a ``protocol_version``
newer than the server's is rejected per request — an old server never
silently misinterprets a newer client's ops.
"""

from __future__ import annotations

from ..circuit.design import Design
from ..circuit.generator import DesignSpec, generate_design
from ..pipeline import PipelineConfig
from ..pipeline.workloads import load_workload

__all__ = ["DesignResolver", "MAX_LINE_BYTES", "PROTOCOL_VERSION",
           "protocol_version_error", "server_identity"]

#: Version of the JSON-lines protocol this server speaks.  Bumped when
#: ops or reply shapes change incompatibly: v1 was the single-engine
#: protocol (predict/flush/stats/ping/shutdown); v2 added the server
#: identity block, per-request version rejection and the service ops
#: (reload, drain semantics, backpressure replies).
PROTOCOL_VERSION = 2

#: Maximum accepted request-line length.  A line past this is answered
#: with an error instead of being buffered without bound — a malformed
#: (or malicious) client must not balloon server memory.
MAX_LINE_BYTES = 1 << 20

#: Inline-spec fields the generator divides by or sizes arrays with, and
#: the least value each may take.
_SPEC_MINIMA = {"num_movable": 1, "num_clusters": 1, "num_terminals": 0,
                "num_macros": 0, "max_degree": 2}
_SPEC_POSITIVE = ("die_size", "row_height", "utilization", "nets_per_cell",
                  "degree_p", "capacity_factor")


def server_identity() -> dict:
    """The identity block ``ping``/``stats`` replies carry."""
    from .. import __version__
    return {"name": "repro-serve", "version": __version__,
            "protocol_version": PROTOCOL_VERSION, "mode": "service"}


def protocol_version_error(payload: dict) -> str | None:
    """Why a request's declared ``protocol_version`` is unacceptable.

    Returns None when the request declares no version (all versions of
    the protocol are accepted implicitly — ops unknown to this server
    still get per-op errors) or an acceptable one; otherwise the
    rejection message.
    """
    declared = payload.get("protocol_version")
    if declared is None:
        return None
    if not isinstance(declared, int) or isinstance(declared, bool):
        return f"protocol_version must be an integer, got {declared!r}"
    if declared > PROTOCOL_VERSION:
        return (f"request declares protocol version {declared}, newer "
                f"than this server's {PROTOCOL_VERSION}; upgrade the "
                f"server or let the client downgrade")
    return None


def _check_spec(spec: DesignSpec) -> None:
    """Reject inline-spec values the generator cannot build a design from."""
    for name, least in _SPEC_MINIMA.items():
        value = getattr(spec, name)
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value!r}")
    for name in _SPEC_POSITIVE:
        value = getattr(spec, name)
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value!r}")


class DesignResolver:
    """Turns protocol design references into :class:`Design` objects.

    ``{"suite": S, "design": NAME}`` resolves through the workload
    registry (suites are instantiated once and indexed by name);
    ``{"spec": {...}}`` generates a synthetic design on the fly from
    :class:`~repro.circuit.generator.DesignSpec` fields.
    """

    def __init__(self, config: PipelineConfig | None = None,
                 default_suite: str = "superblue"):
        self.config = config or PipelineConfig()
        self.default_suite = default_suite
        self._suites: dict[str, dict[str, Design]] = {}

    def _suite_index(self, suite: str) -> dict[str, Design]:
        if suite not in self._suites:
            designs = load_workload(suite, self.config)
            self._suites[suite] = {d.name: d for d in designs}
        return self._suites[suite]

    def resolve(self, payload: dict) -> Design:
        """The design a predict payload refers to; ValueError when bad."""
        spec = payload.get("spec")
        if spec is not None:
            try:
                design_spec = DesignSpec(**spec)
                _check_spec(design_spec)
                return generate_design(design_spec)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"bad design spec: {exc}") from exc
        name = payload.get("design")
        if not name:
            raise ValueError("predict needs 'design' (+ optional 'suite') "
                             "or an inline 'spec'")
        suite = payload.get("suite", self.default_suite)
        try:
            index = self._suite_index(suite)
        except KeyError as exc:
            # str() of a KeyError is the repr of its argument; unwrap so
            # the user-visible message carries no stray quotes.
            raise ValueError(exc.args[0]) from exc
        if name not in index:
            raise ValueError(f"unknown design {name!r} in suite {suite!r}; "
                             f"choose from {sorted(index)}")
        return index[name]
