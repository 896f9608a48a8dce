"""In-memory spans around the calls into each hetsgd module, and self time.

The traced run replaces the names the harness, the workers and the samplers
look up (``hetsgd.harness.local_train``, ``hetsgd.workers.loss_and_grad``,
``hetsgd.data.rng_choose_without_replacement`` ...) with wrappers that record
one span per call: layer name, start, end, parent span and a work count.
Nothing inside the library is edited.  A name a later refactor removes is
skipped at install time, so its layer records zero calls and the benchmark
reports it as unhooked instead of as a layer that costs nothing.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# span record fields
NAME, START, END, PARENT, COUNT = range(5)


def _rows(args, kwargs, out):
    batches = args[2] if len(args) > 2 else kwargs["batches"]
    return sum(len(b) for b in batches)


def _model_bytes(args, kwargs, out):
    models = args[1] if len(args) > 1 else kwargs["models"]
    return sum(m.nbytes for m in models)


# (module, attribute, layer, work count taken from (args, kwargs, result))
HOOKS = (
    ("hetsgd.harness", "run", "harness.run", None),
    ("hetsgd.harness", "write_outputs", "harness.output", None),
    ("hetsgd.harness", "render_csv", "harness.output", None),
    ("hetsgd.config", "parse_config_file", "config.parse", None),
    ("hetsgd.harness", "validate", "config.validate", None),
    ("hetsgd.harness", "make_synthetic", "data.synth", None),
    ("hetsgd.harness", "load_dataset", "data.load", lambda a, k, out: out.n),
    ("hetsgd.harness", "train_val_split", "data.split", None),
    ("hetsgd.harness", "sample_separated", "data.sample", None),
    ("hetsgd.harness", "sample_unified", "data.sample", None),
    ("hetsgd.harness", "sample_uniform", "data.sample", None),
    ("hetsgd.data", "rng_choose_without_replacement", "core.rng_choose",
     lambda a, k, out: len(out)),
    ("hetsgd.harness", "record_losses", "data.ledger_merge", None),
    ("hetsgd.harness", "local_train", "workers.local_train", lambda a, k, out: out[3]),
    ("hetsgd.workers", "Batch", "models.batch", None),
    ("hetsgd.harness", "Batch", "models.batch", None),
    ("hetsgd.workers", "loss_and_grad", "models.loss_and_grad", None),
    ("hetsgd.harness", "accuracy", "models.accuracy", _rows),
    ("hetsgd.harness", "aggregate", "aggregation.aggregate", _model_bytes),
    ("hetsgd.harness", "round_timing", "simclock.round_timing", None),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer, _ in HOOKS))


class Tracer:
    """Collects spans as ``[name, start, end, parent, count]`` lists.

    ``parent`` is the index of the enclosing span in ``spans`` or -1.  The
    library runs serially, so one stack gives every span its parent.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, layer, fn, count=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [layer, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(args, kwargs, out)
            return out

        return traced


@contextmanager
def hooked(tracer):
    """Route every name in HOOKS through ``tracer`` for the ``with`` body.

    Yields the layers that could not be hooked because their name is gone.
    """
    saved, missing = [], []
    try:
        for module_name, attr, layer, count in HOOKS:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                missing.append(layer)
                continue
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(layer, original, count))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Each span's duration minus the part of it that its children cover.

    Children may overlap each other or stick out of their parent; only the
    union of their intervals clipped to the parent is subtracted.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        start, end = span[START], span[END]
        clipped = sorted((max(start, spans[c][START]), min(end, spans[c][END]))
                         for c in kids)
        covered, reach = 0.0, start
        for lo, hi in clipped:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def layer_totals(spans):
    """Per layer: calls, self seconds, inclusive seconds and summed counts.

    Inclusive seconds count only outermost spans of a layer, so a layer
    that calls itself (``write_outputs`` -> ``render_csv``) is not counted
    twice.
    """
    totals = {layer: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "count": 0}
              for layer in LAYERS}
    for span, self_s in zip(spans, self_times(spans)):
        t = totals[span[NAME]]
        t["calls"] += 1
        t["self_s"] += self_s
        t["count"] += span[COUNT]
        parent = span[PARENT]
        if parent < 0 or spans[parent][NAME] != span[NAME]:
            t["incl_s"] += span[END] - span[START]
    return totals


def write_spans(spans_by_op, path):
    """Write every op's spans as CSV lines ``op,id,parent,name,start,end,count``."""
    with open(path, "w") as fh:
        fh.write("op,id,parent,name,start,end,count\n")
        for op_index, spans in enumerate(spans_by_op):
            for i, s in enumerate(spans):
                fh.write(f"{op_index},{i},{s[PARENT]},{s[NAME]},{s[START]!r},{s[END]!r},"
                         f"{s[COUNT]}\n")
