"""In-memory spans at the wolfes4 layer boundaries, and the per-layer metrics.

The program's source is never edited: each public function is wrapped where
its caller looks it up (``wolfes4.verify.solve_hd_3d`` as well as
``wolfes4.grid3d.lanczos_lowest``), and the wrappers are removed again after
every traced pass.  A span's layer is the module prefix of its name.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: Per-layer metrics and their units, in the order they are reported.
LAYER_UNITS = {
    "grid3d.solve_s": "s",
    "grid3d.lanczos_s": "s",
    "grid3d.matvecs": "count",
    "grid3d.matvec_s": "s",
    "grid3d.ortho_ritz_s": "s",
    "grid3d.restarts": "count",
    "grid3d.unknowns": "count",
    "grid3d.residual_max": "abs",
    "grid3d.matvec_bytes_computed": "bytes",
    "grid3d.krylov_bytes_computed": "bytes",
    "numsolve.solves": "count",
    "numsolve.busy_s": "s",
    "numsolve.covered_s": "s",
    "numsolve.overlap": "ratio",
    "numsolve.eigen_tridiag_s": "s",
    "numsolve.assembly_s": "s",
    "numsolve.rows": "count",
    "numsolve.richardson_pairs": "count",
    "numsolve.repeat_ratio": "ratio",
    "verify.resolve_s": "s",
    "verify.self_s": "s",
    "verify.checks": "count",
    "verify.checks_failed": "count",
    "model.enumerate_s": "s",
    "model.enumerate_calls": "count",
    "model.triples": "count",
    "cli.render_s": "s",
    "cli.report_bytes": "bytes",
    "cli.self_s": "s",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
}

#: Report-producing functions of ``wolfes4.verify``, as ``wolfes4.cli`` calls them.
VERIFY_FUNCTIONS = ("resolve_formula_offsets", "verify_jacobi_route",
                    "verify_spherical_route", "verify_3d",
                    "hellmann_feynman_check", "bk_audit")

#: float64 arrays of n entries one matvec must touch: input, output, diagonal.
MATVEC_ARRAYS = 3


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent,
                                   threading.get_ident(), attrs))

    def carry(self, fn):
        """``fn`` wrapped so spans it opens on a worker thread keep the caller's span as parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None

        @functools.wraps(fn)
        def run(*args, **kwargs):
            worker_stack = self._stack()
            worker_stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                worker_stack.pop()

        return run

    # -- wrapper factories, each taking the original function ---------------

    def timed(self, name: str, describe=None):
        """One span per call; ``describe(arguments, result)`` adds attributes."""

        def make(fn):
            sig = inspect.signature(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with self.span(name) as attrs:
                    result = fn(*args, **kwargs)
                    if describe is not None:
                        bound = sig.bind(*args, **kwargs)
                        bound.apply_defaults()
                        attrs.update(describe(bound.arguments, result))
                    return result

            return wrapper

        return make

    def outermost(self, name: str):
        """One span for the outermost call of a family; nested calls run bare.

        ``cli.to_json`` calls itself through the module global that is
        patched, tens of thousands of times per report, so only the entry
        into the family is recorded.
        """

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if getattr(self._local, name, False):
                    return fn(*args, **kwargs)
                setattr(self._local, name, True)
                try:
                    with self.span(name):
                        return fn(*args, **kwargs)
                finally:
                    setattr(self._local, name, False)

            return wrapper

        return make

    def carrying(self, pmap):
        """Wrapper for ``verify._pmap(fn, items)`` that carries span parents to its threads."""

        @functools.wraps(pmap)
        def wrapper(fn, items):
            return pmap(self.carry(fn), items)

        return wrapper

    def lanczos(self, fn):
        """Wrapper for ``lanczos_lowest``: times each matvec and counts restart cycles."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            arguments = bound.arguments
            if arguments["history"] is None:
                arguments["history"] = []
            history = arguments["history"]
            n = arguments["n"]
            matvec = arguments["matvec"]

            def traced_matvec(u):
                with self.span("grid3d.matvec"):
                    return matvec(u)

            arguments["matvec"] = traced_matvec
            basis = min(arguments["krylov_dim"], n - 1) + 1
            with self.span("grid3d.lanczos_lowest", n=n,
                           krylov_bytes=basis * n * 8) as attrs:
                start_len = len(history)
                try:
                    result = fn(*bound.args, **bound.kwargs)
                finally:
                    attrs["restarts"] = len(history) - start_len
                attrs["residual_max"] = float(max(result[1]))
                return result

        return wrapper

    # -- installation -------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _checks(arguments, result) -> dict:
    report = result[2] if isinstance(result, tuple) else result
    return {"checks": len(report.checks),
            "failed": sum(not c.passed for c in report.checks)}


def _triples(arguments, table) -> dict:
    return {"triples": sum(lv.degeneracy for lv in table.levels)
            // table.sector_multiplicity}


def _solve_key(arguments, result) -> dict:
    return {"key": tuple(arguments.values())}


def _rows(arguments, result) -> dict:
    return {"rows": arguments["T"].dimension}


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of wolfes4; ``tracer.restore()`` undoes it."""
    from wolfes4 import cli, grid3d, numsolve, verify

    t = tracer
    for name in ("to_json", "to_csv", "render_checks"):
        t.patch(cli, name, t.outermost("cli.render"))
    for owner in (cli, verify):
        t.patch(owner, "enumerate_spectrum",
                t.timed("model.enumerate_spectrum", _triples))
    for name in VERIFY_FUNCTIONS:
        t.patch(cli, name, t.timed("verify." + name, _checks))
    t.patch(verify, "_pmap", t.carrying)
    t.patch(verify, "solve_hd_3d", t.timed("grid3d.solve_hd_3d"))
    t.patch(verify, "solve_channel_extrapolated",
            t.timed("numsolve.solve_channel_extrapolated"))
    for owner in (verify, numsolve):
        t.patch(owner, "solve_channel", t.timed("numsolve.solve_channel", _solve_key))
        t.patch(owner, "richardson", t.timed("numsolve.richardson"))
    t.patch(numsolve, "channel_tridiag", t.timed("numsolve.channel_tridiag"))
    t.patch(numsolve, "eigen_tridiag", t.timed("numsolve.eigen_tridiag", _rows))
    t.patch(grid3d, "lanczos_lowest", t.lanczos)


# -- metrics ----------------------------------------------------------------


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_time(span: Span, children) -> float:
    """Span duration minus the part of its interval its children cover.

    Children on worker threads may overlap each other; their union, clipped
    to the parent's interval, is what is taken away.
    """
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    return span.duration - covered((a, b) for a, b in clipped if b > a)


def layer_metrics(spans: list[Span], report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (the ``trace.*`` entries excluded)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int | None, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)
    index = {s.id: s for s in spans}

    def total(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def self_sum(layer: str, names=None) -> float:
        return sum(self_time(s, children[s.id]) for s in spans
                   if s.layer == layer and (names is None or s.name in names))

    lanczos = by_name["grid3d.lanczos_lowest"]
    matvec_bytes = sum(MATVEC_ARRAYS * 8 * s.attrs["n"]
                       * sum(c.name == "grid3d.matvec" for c in children[s.id])
                       for s in lanczos)

    top_numsolve = [s for s in spans if s.layer == "numsolve"
                    and (s.parent not in index or index[s.parent].layer != "numsolve")]
    busy = sum(s.duration for s in top_numsolve)
    cover = covered((s.start, s.end) for s in top_numsolve)

    solves = sorted(by_name["numsolve.solve_channel"], key=lambda s: s.start)
    seen: set = set()
    repeats = 0
    for s in solves:
        repeats += s.attrs["key"] in seen
        seen.add(s.attrs["key"])

    return {
        "grid3d.solve_s": total("grid3d.solve_hd_3d"),
        "grid3d.lanczos_s": total("grid3d.lanczos_lowest"),
        "grid3d.matvecs": len(by_name["grid3d.matvec"]),
        "grid3d.matvec_s": total("grid3d.matvec"),
        "grid3d.ortho_ritz_s": total("grid3d.lanczos_lowest") - total("grid3d.matvec"),
        "grid3d.restarts": attr_sum("grid3d.lanczos_lowest", "restarts"),
        "grid3d.unknowns": max((s.attrs["n"] for s in lanczos), default=0),
        "grid3d.residual_max": max((s.attrs.get("residual_max", 0.0) for s in lanczos),
                                   default=0.0),
        "grid3d.matvec_bytes_computed": matvec_bytes,
        "grid3d.krylov_bytes_computed": max((s.attrs["krylov_bytes"] for s in lanczos),
                                            default=0),
        "numsolve.solves": len(solves),
        "numsolve.busy_s": busy,
        "numsolve.covered_s": cover,
        "numsolve.overlap": busy / cover if cover > 0 else 0.0,
        "numsolve.eigen_tridiag_s": total("numsolve.eigen_tridiag"),
        "numsolve.assembly_s": total("numsolve.channel_tridiag"),
        "numsolve.rows": attr_sum("numsolve.eigen_tridiag", "rows"),
        "numsolve.richardson_pairs": len(by_name["numsolve.richardson"]),
        "numsolve.repeat_ratio": repeats / len(solves) if solves else 0.0,
        "verify.resolve_s": total("verify.resolve_formula_offsets"),
        "verify.self_s": self_sum("verify"),
        "verify.checks": sum(s.attrs.get("checks", 0) for s in spans if s.layer == "verify"),
        "verify.checks_failed": sum(s.attrs.get("failed", 0) for s in spans
                                    if s.layer == "verify"),
        "model.enumerate_s": total("model.enumerate_spectrum"),
        "model.enumerate_calls": len(by_name["model.enumerate_spectrum"]),
        "model.triples": attr_sum("model.enumerate_spectrum", "triples"),
        "cli.render_s": total("cli.render"),
        "cli.report_bytes": report_bytes,
        "cli.self_s": self_sum("cli", {"cli.main"}),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}


def span_records(spans: list[Span]) -> list[dict]:
    """JSON-ready spans; the repeat key of a solve is dropped, it is not serialisable."""
    return [{"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "thread": s.thread,
             "attrs": {k: v for k, v in s.attrs.items() if k != "key"}}
            for s in spans]
