"""Spans recorded around the calls the pipeline makes into each layer.

The benchmark never edits the package.  While a traced call runs it replaces
the module attributes the pipeline looks up (``metrics.spacing_matrix``,
``loadsolver.min_max_load``, ``cli.hall_check`` and so on) with wrappers that
record a span: name, start, end and parent span.  Spans stay in memory and
are summarised after the call.  A span's self time is its duration minus the
time its direct children cover; a layer's self time is the sum over the spans
named after it.  An attribute missing from the package is skipped; its time
then counts toward the caller's layer instead of failing the run.
"""

from __future__ import annotations

import inspect
import json
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("spacings", "allocation", "loadsolver", "metrics", "limitlaws", "cli")

# Span fields, kept as lists so a span can be closed in place.
NAME, START, END, PARENT, NOTE, FAILED = range(6)


def _bound(fn):
    """Note maker keeping the bound scalar arguments of a call."""
    sig = inspect.signature(fn)

    def note(args, kwargs, result):
        return dict(sig.bind(*args, **kwargs).arguments)

    return note


def _estimate_note(fn):
    sig = inspect.signature(fn)

    def note(args, kwargs, result):
        a = sig.bind(*args, **kwargs).arguments
        return {"kind": a["alloc"].kind, "d": a["alloc"].d, "trials": a["trials"]}

    return note


class Tracer:
    """Span recorder for one call; ``capture_rows`` > 0 also keeps the first
    demand rows and t* values of every ``t_star_batch`` call."""

    def __init__(self, capture_rows: int = 0):
        self.spans: list[list] = []
        self.captured: list[dict] = []
        self.capture_rows = capture_rows
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[FAILED] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    def _t_star_note(self, args, kwargs, result):
        alloc = args[0] if args else kwargs["alloc"]
        demands = args[1] if len(args) > 1 else kwargs["demands"]
        if self.capture_rows:
            m = self.capture_rows
            self.captured.append(
                {"alloc": alloc, "rows": demands[:m].copy(), "t_star": result[:m].copy()}
            )
        return {"kind": alloc.kind, "d": alloc.d, "rows": len(demands)}

    def patches(self, cli, metrics, loadsolver, limitlaws):
        """(module, attribute, span name, note maker) for every wrapped call."""
        sample_note = _bound(metrics.spacing_matrix)
        table = [
            (cli, "_load_config_file", "cli.config", None),
            (cli, "_validate_config", "cli.config", None),
            (cli, "_write_outputs", "cli.report", None),
            (cli, "_render_limit_report", "cli.report", None),
            (cli, "estimate_metrics", "metrics.estimate", _estimate_note(cli.estimate_metrics)),
            (cli, "run_limit_checks", "limitlaws.run", None),
            (cli, "to_matrices", "allocation.to_matrices", None),
            (cli, "validate_regular_balanced", "allocation.validate", None),
            (cli, "hall_check", "allocation.hall_check", None),
            (cli, "overlap_sum", "allocation.overlap_sum", None),
            (cli, "r_gap_radius", "allocation.r_gap", None),
            (cli, "pairwise_overlap_histogram", "allocation.overlap_hist", None),
            (metrics, "t_star_series", "metrics.t_star_series", None),
            (metrics, "spacing_matrix", "spacings.sample", sample_note),
            (metrics, "t_star_batch", "loadsolver.t_star_batch", self._t_star_note),
            (loadsolver, "min_max_load", "loadsolver.lp_solve", None),
            (loadsolver, "to_matrices", "allocation.to_matrices", None),
            (limitlaws, "spacing_matrix", "spacings.sample", sample_note),
            (limitlaws, "window_maxima_line", "spacings.window", None),
            (limitlaws, "window_maxima_circle", "spacings.window", None),
            (limitlaws, "gumbel_ks_checks", "limitlaws.gumbel", None),
            (limitlaws, "circular_line_checks", "limitlaws.circle_line", None),
            (limitlaws, "count_range_checks", "limitlaws.count", None),
        ]
        table += [
            (cli, attr, "allocation.build", None)
            for attr in dir(cli)
            if attr.startswith("build_") and attr != "build_allocation"
        ]
        return table

    @contextmanager
    def patched(self, cli, metrics, loadsolver, limitlaws):
        saved = []
        try:
            for module, attr, name, note in self.patches(cli, metrics, loadsolver, limitlaws):
                orig = getattr(module, attr, None)
                if callable(orig):
                    saved.append((module, attr, orig))
                    setattr(module, attr, self.wrap(name, orig, note))
            if getattr(cli, "json", None) is json:
                saved.append((cli, "json", json))
                cli.json = _JsonProxy(self.wrap("cli.report", json.dumps))
            yield
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def call(self, fn, *args):
        """Run ``fn`` under a root span named ``cli.main``."""
        return self.wrap("cli.main", fn)(*args)

    def dump(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "failed": s[FAILED]}
            for s in self.spans
        ]


class _JsonProxy:
    """Stands in for ``json`` inside ``cli`` so that rendering ``inspect``
    output is timed as report writing; every other name passes through."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


def self_times(spans: list[list]) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def sweep_points(spans: list[list]) -> list[dict]:
    """Route and LP solve count of each ``estimate_metrics`` call."""
    points = {i: dict(s[NOTE], lp_solves=0) for i, s in enumerate(spans)
              if s[NAME] == "metrics.estimate" and s[NOTE]}
    for i, s in enumerate(spans):
        if s[NAME] == "loadsolver.lp_solve":
            for a in _ancestors(spans, i):
                if a in points:
                    points[a]["lp_solves"] += 1
                    break
    for p in points.values():
        p["route"] = "lp" if p["lp_solves"] else "closed_form"
    return [points[i] for i in sorted(points)]


def summarise(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced call that took ``wall`` seconds."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, t in zip(spans, selfs):
        by_name[s[NAME]] = by_name.get(s[NAME], 0.0) + t
        count[s[NAME]] = count.get(s[NAME], 0) + 1

    def total(name):
        return by_name.get(name, 0.0)

    rows = [(s[NOTE]["k"], s[NOTE]["master_seed"], s[NOTE]["trials"],
             s[NOTE].get("start_index", 0)) for s in spans if s[NAME] == "spacings.sample" and s[NOTE]]
    drawn = sum(r[2] for r in rows)
    unique = {(seed, k, i) for k, seed, n, start in rows for i in range(start, start + n)}

    lp = [s for s in spans if s[NAME] == "loadsolver.lp_solve"]
    lp_parents = {s[PARENT] for s in lp}
    closed = [(i, s) for i, s in enumerate(spans)
              if s[NAME] == "loadsolver.t_star_batch" and i not in lp_parents]
    closed_rows = sum(s[NOTE]["rows"] for _, s in closed if s[NOTE])
    points = sweep_points(spans)

    layer = {name: 0.0 for name in LAYERS}
    for s, t in zip(spans, selfs):
        key = s[NAME].split(".", 1)[0]
        layer[key] = layer.get(key, 0.0) + t
    estimate = sum(s[END] - s[START] for s in spans if s[NAME] == "metrics.estimate")

    out = {
        "spacings.sample_s": total("spacings.sample"),
        "spacings.sample_us_per_row": 1e6 * total("spacings.sample") / drawn if drawn else 0.0,
        "spacings.rows_drawn": drawn,
        "spacings.rows_unique_ratio": len(unique) / drawn if drawn else 0.0,
        "spacings.window_s": total("spacings.window"),
        "loadsolver.closed_form_us_per_trial":
            1e6 * sum(selfs[i] for i, _ in closed) / closed_rows if closed_rows else 0.0,
        "loadsolver.lp_ms_per_solve":
            1e3 * sum(s[END] - s[START] for s in lp) / len(lp) if lp else 0.0,
        "loadsolver.lp_solves": len(lp),
        "loadsolver.lp_failures": sum(1 for s in lp if s[FAILED]),
        "loadsolver.lp_points": sum(1 for p in points if p["route"] == "lp"),
        "loadsolver.closed_form_points": sum(1 for p in points if p["route"] == "closed_form"),
        "allocation.to_matrices_s": total("allocation.to_matrices"),
        "allocation.to_matrices_calls": count.get("allocation.to_matrices", 0),
        "allocation.overlap_hist_s": total("allocation.overlap_hist"),
        "allocation.r_gap_s": total("allocation.r_gap"),
        "allocation.hall_check_s": total("allocation.hall_check"),
        "metrics.estimate_s": estimate,
        "metrics.reduce_s": total("metrics.estimate"),
        "metrics.chunks": count.get("loadsolver.t_star_batch", 0),
        "limitlaws.gumbel_s": total("limitlaws.gumbel"),
        "limitlaws.circle_line_s": total("limitlaws.circle_line"),
        "limitlaws.count_s": total("limitlaws.count"),
        "cli.report_s": total("cli.report"),
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - sum(layer.values()),
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = layer[name]
    return out


#: Metrics of ``summarise`` that are counts; they must repeat exactly.
COUNTS = (
    "spacings.rows_drawn",
    "spacings.rows_unique_ratio",
    "loadsolver.lp_solves",
    "loadsolver.lp_failures",
    "loadsolver.lp_points",
    "loadsolver.closed_form_points",
    "allocation.to_matrices_calls",
    "metrics.chunks",
)
