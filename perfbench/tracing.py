"""Per-layer spans timed from outside the program.

The tracer replaces the public functions each layer exposes, under the
names the calling modules hold them by, with wrappers that record one span
per call: name, start, end, parent span and item id.  Spans stay in memory
and the layer metrics are computed from them when the run ends.  Nothing
inside the package changes, so a name that a later version no longer has,
or an annotation that no longer fits the call it reads, is reported absent
instead of raising, and removing the wrappers restores the original objects
exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path


def _field_bytes(args, kwargs, result) -> dict:
    """Bytes of the .json header and .bin payload behind a field base path."""
    base = Path(args[0] if args else kwargs["base"])
    return {"bytes": sum(p.stat().st_size for p in
                         (base.with_suffix(".json"), base.with_suffix(".bin")))}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": Path(args[0] if args else kwargs["path"]).stat().st_size}


def _strain_bytes(args, kwargs, result) -> dict:
    """Computed size of the strain array: cells x dim^2 float64 values."""
    grid = (args[0] if args else kwargs["u"]).grid
    return {"bytes": math.prod(grid.cell_shape) * grid.dim ** 2 * 8}


def _cube_counts(args, kwargs, result) -> dict:
    good = int(sum(bool(g) for g in result.covering.good))
    cubes = len(result.covering.cubes)
    return {"cubes": cubes, "good_cubes": good, "bad_cubes": cubes - good}


def _fit_accepted(args, kwargs, result) -> dict:
    return {"accepted": 0 if result.violation else 1}


def _system_dofs(args, kwargs, result) -> dict:
    return {"dofs": args[0].n_dof}


# (holder, attribute, span name, annotation).  A holder is a module, or
# "module:Class" for a method.  Each name is wrapped where its callers look
# it up: the CLI's own imports for the CLI workloads, the defining module
# for the library workloads, which call through module attributes.
TARGETS: list[tuple[str, str, str, object]] = [
    ("smalljump.cli", "main", "cli.main", None),
    ("smalljump.cli", "load_field", "grid.load", _field_bytes),
    ("smalljump.cli", "load_jump", "grid.load", _file_bytes),
    ("smalljump.cli", "save_field", "grid.save", _field_bytes),
    ("smalljump.cli", "save_jump", "grid.save", _file_bytes),
    ("smalljump.cli", "approximate", "approximator.approximate", _cube_counts),
    ("smalljump.cli", "verify_properties", "approximator.verify", None),
    ("smalljump.cli", "boundary_trace_check", "approximator.trace_check", None),
    ("smalljump.cli", "brute_force_minimize", "oracle.brute_force", None),
    ("smalljump.cli", "deviation_psi0", "oracle.psi0", None),
    ("smalljump.cli", "density_lower_bound_check", "oracle.density", None),
    ("smalljump.cli", "symmetric_gradient", "strain", _strain_bytes),
    ("smalljump.cli", "lp_norm_cells", "energy", None),
    ("smalljump.approximator", "approximate", "approximator.approximate",
     _cube_counts),
    ("smalljump.approximator", "verify_properties", "approximator.verify", None),
    ("smalljump.approximator", "symmetric_gradient", "strain", _strain_bytes),
    ("smalljump.approximator", "select_crown", "covering.select_crown", None),
    ("smalljump.approximator", "build_covering", "covering.build", None),
    ("smalljump.approximator", "partition_of_unity", "covering.partition", None),
    ("smalljump.approximator", "extract_exceptional_set", "kornfit.fit",
     _fit_accepted),
    ("smalljump.approximator", "cube_smoothed_field", "kornfit.smooth", None),
    ("smalljump.approximator", "mollify", "mollify", None),
    ("smalljump.approximator", "f_zero", "energy", None),
    ("smalljump.approximator", "lp_norm_cells", "energy", None),
    ("smalljump.approximator", "lp_norm_nodes", "energy", None),
    ("smalljump.covering", "covering_structure_report", "covering.structure",
     None),
    ("smalljump.covering", "neighbor_pairs", "covering.neighbor_pairs", None),
    ("smalljump.covering", "cellwise_pth_power", "energy", None),
    ("smalljump.kornfit", "symmetric_gradient", "strain", _strain_bytes),
    ("smalljump.kornfit", "mollify", "mollify", None),
    ("smalljump.energy", "symmetric_gradient", "strain", _strain_bytes),
    ("smalljump.oracle", "symmetric_gradient", "strain", _strain_bytes),
    ("smalljump.oracle", "energy_G0", "energy", None),
    ("smalljump.oracle", "energy_breakdown", "energy", None),
    ("smalljump.oracle", "f_zero", "energy", None),
    ("smalljump.oracle", "brute_force_minimize", "oracle.brute_force", None),
    ("smalljump.oracle:ElasticSystem", "system_for", "oracle.assemble", None),
    ("smalljump.oracle:ElasticSystem", "solve", "oracle.solve", _system_dofs),
    ("smalljump.generators", "two_motion_crack_field", "generators", None),
    ("smalljump.generators", "random_cracks_field", "generators", None),
    ("smalljump.generators", "rigid_patches_field", "generators", None),
    ("smalljump.generators", "split_target", "generators", None),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str | None
    extra: dict = field(default_factory=dict)


def _lookup(holder: str, attr: str):
    """The holder and its own attribute, None for either that is missing.
    A class yields its plain function, so that a wrapper set on the class
    binds like the method it replaces."""
    module_name, _, cls = holder.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    if cls:
        owner = getattr(owner, cls, None)
    return owner, (vars(owner).get(attr) if owner is not None else None)


class Tracer:
    """Records spans while installed; outside `installed` every target is
    the original object, so untraced runs carry no wrapper cost."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.absent = sorted(f"{h}.{a}" for h, a, _, _ in targets
                             if _lookup(h, a)[1] is None)
        self.unannotated: set[str] = set()
        self._stack: list[int] = []
        self._item: str | None = None

    @contextlib.contextmanager
    def installed(self, item: str | None):
        """Wrap every present target for the duration of the block."""
        self._item = item
        saved = []
        try:
            for holder, attr, name, annotate in self.targets:
                owner, raw = _lookup(holder, attr)
                if raw is None:
                    continue
                saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, name, annotate))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            self._item = None

    def _wrap(self, fn, name: str, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else None, self._item)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if annotate is not None:
                # A later signature or result type costs the metrics read
                # from the annotation, not the item.
                try:
                    span.extra = annotate(args, kwargs, result)
                except Exception:
                    self.unannotated.add(name)
            return result

        return traced

    def absent_metrics(self) -> list[str]:
        """Layer metrics whose span no present target produces, and those
        read from an annotation that raised."""
        present = {name for h, a, name, _ in self.targets
                   if f"{h}.{a}" not in self.absent}
        return [m for m, _, name, how in LAYER_METRICS
                if name not in present
                or (_reads_annotation(how) and name in self.unannotated)]


# Per-layer metrics: (name, unit, span name, reduction).  Reductions, all
# per traced pass unless stated:
#   calls   number of spans;
#   total   summed span durations, children included;
#   self    summed durations minus those of direct child spans, used for the
#           kernels strain, mollify and energy so that nested kernels are
#           not counted twice;
#   +key    summed annotation values (bytes, cube counts);
#   yield   accepted over attempted, from the "accepted" annotation;
#   max     largest "dofs" annotation;
#   mean    total over calls;
#   setup   total per set-up rather than per pass.
LAYER_METRICS: list[tuple[str, str, str, str]] = [
    ("grid.load_s", "s", "grid.load", "total"),
    ("grid.save_s", "s", "grid.save", "total"),
    ("grid.bytes_read", "bytes", "grid.load", "+bytes"),
    ("grid.bytes_written", "bytes", "grid.save", "+bytes"),
    ("strain.calls", "count", "strain", "calls"),
    ("strain.s", "s", "strain", "self"),
    ("strain.bytes", "bytes", "strain", "+bytes"),
    ("mollify.calls", "count", "mollify", "calls"),
    ("mollify.s", "s", "mollify", "self"),
    ("energy.calls", "count", "energy", "calls"),
    ("energy.s", "s", "energy", "self"),
    ("covering.select_crown_s", "s", "covering.select_crown", "total"),
    ("covering.build_s", "s", "covering.build", "total"),
    ("covering.partition_s", "s", "covering.partition", "total"),
    ("covering.structure_s", "s", "covering.structure", "total"),
    ("covering.neighbor_pairs_s", "s", "covering.neighbor_pairs", "total"),
    ("covering.cubes", "count", "approximator.approximate", "+cubes"),
    ("covering.good_cubes", "count", "approximator.approximate", "+good_cubes"),
    ("covering.bad_cubes", "count", "approximator.approximate", "+bad_cubes"),
    ("kornfit.fit_calls", "count", "kornfit.fit", "calls"),
    ("kornfit.fit_s", "s", "kornfit.fit", "total"),
    ("kornfit.fit_yield", "ratio", "kornfit.fit", "yield"),
    ("kornfit.smooth_calls", "count", "kornfit.smooth", "calls"),
    ("kornfit.smooth_s", "s", "kornfit.smooth", "total"),
    ("approximator.approximate_self_s", "s", "approximator.approximate", "self"),
    ("approximator.verify_self_s", "s", "approximator.verify", "self"),
    ("approximator.trace_check_s", "s", "approximator.trace_check", "total"),
    ("oracle.configs", "count", "oracle.solve", "calls"),
    ("oracle.dofs", "count", "oracle.solve", "max"),
    ("oracle.assemble_s", "s", "oracle.assemble", "total"),
    ("oracle.solve_self_s", "s", "oracle.solve", "self"),
    ("oracle.s_per_config", "s", "oracle.solve", "mean"),
    ("oracle.psi0_s", "s", "oracle.psi0", "total"),
    ("oracle.density_s", "s", "oracle.density", "total"),
    ("generators.s", "s", "generators", "setup"),
    ("cli.self_s", "s", "cli.main", "self"),
]


def _reads_annotation(how: str) -> bool:
    return how.startswith("+") or how in ("yield", "max")


def layer_metrics(spans: list[Span], passes: int, setups: int) -> dict:
    """Reduce the spans to the LAYER_METRICS values."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    out = {}
    for metric, _, name, how in LAYER_METRICS:
        idx = by_name.get(name, [])
        total = sum(spans[i].end - spans[i].start for i in idx)
        if how == "calls":
            value = len(idx) / passes
        elif how == "total":
            value = total / passes
        elif how == "self":
            value = (total - sum(child[i] for i in idx)) / passes
        elif how.startswith("+"):
            value = sum(spans[i].extra.get(how[1:], 0) for i in idx) / passes
        elif how == "yield":
            accepted = sum(spans[i].extra.get("accepted", 0) for i in idx)
            value = accepted / len(idx) if idx else 0.0
        elif how == "max":
            value = max((spans[i].extra.get("dofs", 0) for i in idx), default=0)
        elif how == "mean":
            value = total / len(idx) if idx else 0.0
        else:  # setup
            value = total / setups
        out[metric] = value
    return out
