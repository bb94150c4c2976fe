"""Span tracer for the traced benchmark run.

The tracer replaces public functions of ``toptrap`` with timing wrappers at
the attribute their caller looks them up through, for example
``toptrap.sweep.survival_probability`` (what ``run_sweep`` calls) or
``toptrap.cli.to_csv`` (what the CLI calls).  Nothing inside ``src/`` is
edited; the wrappers exist only while :meth:`Tracer.installed` is active.
A site whose module or attribute no longer exists is skipped and every
metric that depends only on missing sites is left out of the report.

Spans are recorded only inside an operation (:meth:`Tracer.op`).  Each span
holds its id, its parent's id, the operation's id, the site, and its start
and end in nanoseconds; they stay in memory until :meth:`Tracer.dump`.
Self time is a span's duration minus the time its child spans cover, so
the layers' self times plus the time no span covers (``unattributed``) add
up to the operations' wall time exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import time

import numpy as np

LAYERS = ("sweep", "closed_form", "geometry", "spin", "integrate", "serialize", "cli")


def _count_sweep(site, args, kwargs, result, self_ns):
    site.units += int(result.table.shape[0])
    spec = args[0] if args else kwargs["spec"]
    site.extra += math.prod(len(a.values) for a in spec.axes if a.name != "t")


def _count_closed(site, args, kwargs, result, self_ns):
    if isinstance(result, np.ndarray):
        site.units += int(result.size)
    else:
        site.scalar_calls += 1
        site.scalar_self_ns += self_ns


def _count_samples(site, args, kwargs, result, self_ns):
    site.units += len(result.times)


def _count_write(site, args, kwargs, result, self_ns):
    site.units += len(args[0].rows)
    site.extra += _text_bytes(result)


def _count_svg(site, args, kwargs, result, self_ns):
    site.extra += _text_bytes(result)


def _count_parse(site, args, kwargs, result, self_ns):
    site.units += len(result.rows)


def _count_exit(site, args, kwargs, result, self_ns):
    site.units += result != 0


def _text_bytes(text: str) -> int:
    return len(text) if text.isascii() else len(text.encode("utf-8"))


# (module, attribute, layer, kind); ``kind`` names the counter and groups
# sites for the per-kind metrics.
SITES = (
    ("toptrap.sweep", "run_sweep", "sweep", "run_sweep"),
    ("toptrap.cli", "figure_dataset", "sweep", "figure"),
    ("toptrap.sweep", "survival_probability", "closed_form", "closed"),
    ("toptrap.sweep", "transition_probability", "closed_form", "closed"),
    ("toptrap.sweep", "tau_of_ratio", "closed_form", "closed"),
    ("toptrap.closed_form", "survival_probability", "closed_form", "closed"),
    ("toptrap.closed_form", "transition_probability", "closed_form", "closed"),
    ("toptrap.cli", "survival_probability", "closed_form", "closed"),
    ("toptrap.cli", "transition_probability", "closed_form", "closed"),
    ("toptrap.cli", "tau_of_ratio", "closed_form", "closed"),
    ("toptrap.cli", "tau_extremum", "closed_form", "closed"),
    ("toptrap.geometry", "larmor_at", "geometry", "geometry"),
    ("toptrap.geometry", "field_angle_at", "geometry", "geometry"),
    ("toptrap.geometry", "confinement_advisor", "geometry", "geometry"),
    ("toptrap.cli", "TrapConfig", "geometry", "geometry"),
    ("toptrap.cli", "hierarchy_check", "geometry", "geometry"),
    ("toptrap.cli", "circle_of_death_radius", "geometry", "geometry"),
    ("toptrap.cli", "spring_constant", "geometry", "geometry"),
    ("toptrap.cli", "oscillation_frequency", "geometry", "geometry"),
    ("toptrap.spin", "DriveParams", "spin", "spin"),
    ("toptrap.sweep", "DriveParams", "spin", "spin"),
    ("toptrap.cli", "DriveParams", "spin", "spin"),
    ("toptrap.sweep", "omega_bar_of", "spin", "spin"),
    ("toptrap.cli", "adiabaticity_parameter", "spin", "spin"),
    ("toptrap.cli", "adiabaticity_matrix_element", "spin", "spin"),
    ("toptrap.spin", "eigensystem_at", "spin", "eigensystem"),
    ("toptrap.integrate", "eigensystem_at", "spin", "eigensystem"),
    ("toptrap.sweep", "evolve_instantaneous_basis", "integrate", "instantaneous"),
    ("toptrap.cli", "evolve_instantaneous_basis", "integrate", "instantaneous"),
    ("toptrap.cli", "evolve_lab_frame", "integrate", "lab"),
    ("toptrap.cli", "evolve_rotating_frame", "integrate", "rotating"),
    ("toptrap.cli", "to_csv", "serialize", "to_csv"),
    ("toptrap.cli", "to_json", "serialize", "to_json"),
    ("toptrap.cli", "render_line_chart", "serialize", "render_svg"),
    ("toptrap.cli", "table_from_sweep", "serialize", "table"),
    ("toptrap.serialize", "parse_csv", "serialize", "parse_csv"),
    ("toptrap.cli", "main", "cli", "main"),
)

COUNTERS = {
    "run_sweep": _count_sweep,
    "closed": _count_closed,
    "instantaneous": _count_samples,
    "lab": _count_samples,
    "rotating": _count_samples,
    "to_csv": _count_write,
    "to_json": _count_write,
    "render_svg": _count_svg,
    "parse_csv": _count_parse,
    "main": _count_exit,
}


class Site:
    """One wrapped attribute and the totals of the spans recorded there."""

    def __init__(self, index, module, attribute, layer, kind):
        self.index = index
        self.module = module
        self.attribute = attribute
        self.layer = layer
        self.kind = kind
        self.count = COUNTERS.get(kind)
        self.owner = None
        self.original = None
        self.calls = 0
        self.dur_ns = 0
        self.self_ns = 0
        self.units = 0
        self.extra = 0
        self.scalar_calls = 0
        self.scalar_self_ns = 0

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attribute}"


class Tracer:
    """Wraps the sites, records spans inside operations, reports per-layer metrics."""

    def __init__(self):
        self.sites = [Site(i, *entry) for i, entry in enumerate(SITES)]
        self.missing = []
        for site in self.sites:
            try:
                module = importlib.import_module(site.module)
            except ImportError:
                module = None
            if module is None or not hasattr(module, site.attribute):
                self.missing.append(site.name)
                continue
            site.owner = module
            site.original = getattr(module, site.attribute)
        self.present = [s for s in self.sites if s.original is not None]
        self.spans = []
        self.recording = False
        self._stack = [[0, 0]]
        self._next_id = 0
        self._op_id = -1
        self.wall_ns = 0
        self.unattributed_ns = 0

    def _wrap(self, site):
        fn = site.original
        count = site.count
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1]
            tracer._next_id += 1
            frame = [tracer._next_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent[1] += duration
                self_ns = duration - frame[1]
                site.calls += 1
                site.dur_ns += duration
                site.self_ns += self_ns
                tracer.spans.append((frame[0], parent[0], tracer._op_id, site.index, start, end))
            if count is not None:
                count(site, args, kwargs, result, self_ns)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Put the wrappers in place for the duration of the block."""
        for site in self.present:
            setattr(site.owner, site.attribute, self._wrap(site))
        try:
            yield self
        finally:
            for site in self.present:
                setattr(site.owner, site.attribute, site.original)

    @contextlib.contextmanager
    def op(self):
        """Record spans for one operation; its wall time is what the block takes."""
        self._op_id += 1
        root = [0, 0]
        self._stack = [root]
        self.recording = True
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            wall = time.perf_counter_ns() - start
            self.recording = False
            self.wall_ns += wall
            self.unattributed_ns += wall - root[1]

    def dump(self, path: str):
        """Write the recorded spans as CSV.

        The first line is a comment mapping site numbers to names; times are
        nanoseconds from the earliest start.
        """
        names = " ".join(f"{site.index}={site.name}" for site in self.sites)
        base = min((span[4] for span in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"# sites: {names}\nspan,parent,op,site,start_ns,end_ns\n")
            for span_id, parent, op_id, index, start, end in self.spans:
                handle.write(f"{span_id},{parent},{op_id},{index},{start - base},{end - base}\n")

    def metrics(self) -> dict:
        """Per-layer metrics ``{name: (value, unit)}``; absent sites drop their metrics."""
        out = {}

        def total(sites, field):
            return sum(getattr(s, field) for s in sites)

        def put(name, sites, value, unit):
            if sites:
                out[name] = (value, unit)

        def per(numerator, denominator, scale):
            return numerator * scale / denominator if denominator else 0.0

        def kind(*names):
            return [s for s in self.present if s.kind in names]

        layers = {layer: [s for s in self.present if s.layer == layer] for layer in LAYERS}
        for layer, sites in layers.items():
            put(f"{layer}.self_s", sites, total(sites, "self_ns") / 1e9, "s")
        for layer in ("sweep", "closed_form", "geometry", "spin", "serialize"):
            put(f"{layer}.calls", layers[layer], total(layers[layer], "calls"), "count")

        sweeps = kind("run_sweep")
        points = total(sweeps, "units")
        put("sweep.self_ns_per_point", sweeps, per(total(layers["sweep"], "self_ns"), points, 1.0), "ns")
        put("sweep.points", sweeps, points, "count")
        put("sweep.combos", sweeps, total(sweeps, "extra"), "count")

        closed = kind("closed")
        scalar_calls = total(closed, "scalar_calls")
        scalar_ns = total(closed, "scalar_self_ns")
        vector_points = total(closed, "units")
        put("closed_form.points", closed, vector_points + scalar_calls, "count")
        put("closed_form.ns_per_point", closed, per(total(closed, "self_ns") - scalar_ns, vector_points, 1.0), "ns")
        put("closed_form.us_per_call", closed, per(scalar_ns, scalar_calls, 1e-3), "us")

        geo = layers["geometry"]
        put("geometry.us_per_call", geo, per(total(geo, "self_ns"), total(geo, "calls"), 1e-3), "us")

        eig = kind("eigensystem")
        put("spin.eigensystem_calls", eig, total(eig, "calls"), "count")
        put("spin.eigensystem_s", eig, total(eig, "dur_ns") / 1e9, "s")

        routes = kind("instantaneous", "lab", "rotating")
        put("integrate.solves", routes, total(routes, "calls"), "count")
        put("integrate.samples", routes, total(routes, "units"), "count")
        for route in ("instantaneous", "lab", "rotating"):
            sites = kind(route)
            seconds = total(sites, "dur_ns") / 1e9
            put(f"integrate.{route}_s", sites, seconds, "s")
            put(f"integrate.{route}_us_per_sample", sites, per(seconds, total(sites, "units"), 1e6), "us")

        writes = kind("to_csv", "to_json")
        parses = kind("parse_csv")
        rows_written = total(writes, "units")
        rows_parsed = total(parses, "units")
        for name in ("to_csv", "to_json", "render_svg", "parse_csv"):
            put(f"serialize.{name}_s", kind(name), total(kind(name), "dur_ns") / 1e9, "s")
        put("serialize.rows_written", writes, rows_written, "count")
        put("serialize.bytes_written", kind("to_csv", "to_json", "render_svg"),
            total(kind("to_csv", "to_json", "render_svg"), "extra"), "bytes")
        put("serialize.us_per_row_write", writes, per(total(writes, "dur_ns"), rows_written, 1e-3), "us")
        put("serialize.rows_parsed", parses, rows_parsed, "count")
        put("serialize.us_per_row_parse", parses, per(total(parses, "dur_ns"), rows_parsed, 1e-3), "us")

        mains = kind("main")
        put("cli.invocations", mains, total(mains, "calls"), "count")
        put("cli.nonzero_exits", mains, total(mains, "units"), "count")

        out["trace.wall_s"] = (self.wall_ns / 1e9, "s")
        out["bench.unattributed_s"] = (self.unattributed_ns / 1e9, "s")
        return out
