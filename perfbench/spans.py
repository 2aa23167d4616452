"""Span tracing for the benchmark's traced runs, from outside the program.

``install`` wraps the public functions and methods of each module in
place: class methods on the class itself, and free functions in every
``poroscale`` module that holds a binding to them (``from ... import``
copies the reference, so wrapping only the defining module would miss
callers). Spans are kept in memory as ``[name, start, end, parent,
attrs]`` and written out when the run ends; ``attrs`` holds the counts
measured at that boundary (factor fill, bytes, samples, clamps).
"""

import contextlib
import functools
import sys
import time
import weakref
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.active = True
        self.layer_pos = weakref.WeakKeyDictionary()

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block; yields the span's attribute dict."""
        index = self.open(name)
        try:
            yield self.spans[index][4]
        finally:
            self.close(index)


def _wrap(tracer, fn, name, after=None):
    """``name`` is a string or a function of the call's positional args."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        index = tracer.open(name if isinstance(name, str) else name(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer.spans[index][4], args, result)
        return result

    return traced


def _rebind(original, wrapped):
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "poroscale" and not mod_name.startswith("poroscale."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _lu_fill(tracer):
    # building L and U copies the factors; its own span keeps that cost out
    # of the caller's self time and shows it as tracing overhead
    def after(attrs, args, result):
        with tracer.span("trace.lu_fill"):
            lu = args[0]._lu
            attrs["fill"] = int(lu.L.nnz + lu.U.nnz)

    return after


def _read_bytes(attrs, args, result):
    attrs["bytes"] = int(result.nbytes)


def _write_bytes(attrs, args, result):
    attrs["bytes"] = 8 * int(np.asarray(args[1]).size)


def _predict_samples(attrs, args, result):
    attrs["samples"] = int(len(args[1]))


def _spd_clamps(attrs, args, result):
    attrs["clamped"] = int(result[1])
    attrs["checked"] = int(len(args[0]))


def install(tracer):
    """Wrap every traced boundary of the already importable package."""
    import poroscale.arrayio as arrayio
    import poroscale.dataset as dataset
    import poroscale.fem as fem
    import poroscale.homogenize as homogenize
    import poroscale.pipeline  # noqa: F401  (holds rebound names)
    import poroscale.poro as poro
    import poroscale.random_field as random_field
    import poroscale.surrogate.layers as layers
    import poroscale.surrogate.network as network
    import poroscale.surrogate.training as training

    methods = [
        (fem.P1Space, "assemble_mass", "fem.assemble", None),
        (fem.P1Space, "assemble_diffusion", "fem.assemble", None),
        (fem.P1Space, "assemble_elasticity", "fem.assemble", None),
        (fem.P1Space, "assemble_coupling", "fem.assemble", None),
        (fem.LUSolver, "__init__", "fem.lu_factor", _lu_fill(tracer)),
        (fem.LUSolver, "solve", "fem.lu_solve", None),
        (fem.DirichletSystem, "__init__", "fem.dirichlet", None),
        (fem.DirichletSystem, "fold_rhs", "fem.dirichlet", None),
        (network.Adam, "step", "surrogate.adam", None),
    ]
    for cls in (
        layers.Conv,
        layers.ReLU,
        layers.MaxPool,
        layers.Flatten,
        layers.Dense,
        layers.Dropout,
    ):
        for method, suffix in (("forward", "fwd"), ("backward", "bwd")):
            methods.append((cls, method, _layer_namer(tracer, suffix), None))
    for cls, method, name, after in methods:
        setattr(cls, method, _wrap(tracer, getattr(cls, method), name, after))

    functions = [
        (fem.constrain_system, "fem.dirichlet", None),
        (homogenize.extract_patches, "homogenize.extract_patches", None),
        (homogenize.effective_permeability, "homogenize.permeability", None),
        (homogenize.effective_elasticity, "homogenize.elasticity", None),
        (homogenize.homogenize_domain, "homogenize.domain", None),
        (poro.solve_poroelasticity, "poro.solve_fine", None),
        (poro.solve_coarse, "poro.solve_coarse", None),
        (poro.error_norms, "poro.error_norms", None),
        (random_field.build_kl_basis, "random_field.build_kl_basis", None),
        (random_field.sample_field, "random_field.sample_field", None),
        (random_field.field_to_properties, "random_field.to_properties", None),
        (dataset.build_dataset, "dataset.build", None),
        (dataset.save_dataset, "dataset.save", None),
        (dataset.load_dataset, "dataset.load", None),
        (dataset.patch_input_array, "dataset.patch_input", None),
        (arrayio.read_array, "arrayio.read", _read_bytes),
        (arrayio.write_array, "arrayio.write", _write_bytes),
        (network.save_network, "surrogate.save", None),
        (network.load_network, "surrogate.load", _tag_layers(tracer)),
        (network.build_network, "surrogate.build", _tag_layers(tracer)),
        (training.train, "surrogate.train", None),
        (training.evaluate, "surrogate.evaluate", None),
        (training.predict_effective, "surrogate.predict", _predict_samples),
        (training.clamp_spd, "surrogate.clamp_spd", _spd_clamps),
    ]
    for fn, name, after in functions:
        _rebind(fn, _wrap(tracer, fn, name, after))


def _layer_namer(tracer, suffix):
    def name(args):
        layer = args[0]
        pos = tracer.layer_pos.get(layer, "x")
        return f"surrogate.L{pos}.{type(layer).__name__}.{suffix}"

    return name


def _tag_layers(tracer):
    def after(attrs, args, result):
        for i, layer in enumerate(result.layers):
            tracer.layer_pos[layer] = i

    return after


# ----------------------------------------------------------------------
# aggregation


def span_table(spans, key=None):
    """Per span name: count, total, self time and summed counts.

    ``s`` sums only outermost spans of a name, so a name nested in itself
    (``constrain_system`` builds a ``DirichletSystem``) is not counted
    twice; ``self_s`` is duration minus the time child spans cover.
    ``key(spans, i)`` replaces the name as the row key when given.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    table = defaultdict(lambda: defaultdict(float))
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        row = table[name if key is None else key(spans, i)]
        row["count"] += 1
        row["self_s"] += (end - start) - child_time[i]
        if not _has_ancestor(spans, parent, name):
            row["s"] += end - start
        for attr, value in attrs.items():
            row[attr] += value
    return {name: dict(row) for name, row in table.items()}


def parent_key(spans, i):
    """Row key ``<parent name> > <name>`` for the self-time table."""
    parent = spans[i][3]
    return f"{spans[parent][0] if parent is not None else '-'} > {spans[i][0]}"


def _has_ancestor(spans, index, name):
    while index is not None:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def scoped_table(spans, scope):
    """``span_table`` restricted to spans below a span named ``scope``."""
    keep = [False] * len(spans)
    for i, (name, _, _, parent, _) in enumerate(spans):
        keep[i] = parent is not None and (
            keep[parent] or spans[parent][0] == scope
        )
    # re-index the kept spans so parents outside the scope drop out
    new_index = {}
    sub = []
    for i, span in enumerate(spans):
        if keep[i]:
            new_index[i] = len(sub)
            name, start, end, parent, attrs = span
            sub.append([name, start, end, new_index.get(parent), attrs])
    return span_table(sub)
