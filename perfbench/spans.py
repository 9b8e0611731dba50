"""Spans around braidinv's public functions, recorded from outside the package.

While a Tracer is active, every public function of the six layer modules is
replaced, in every braidinv namespace that binds it, by a wrapper that
records one span: (id, name, start, end, parent id, item id).  Calls between
public functions, such as alexander_of_closure calling reduced_burau, go
through those namespaces, so spans nest as the calls do and one execution of
an item yields both the composite call and its parts.  Private helpers are
not wrapped; their time counts toward the public function that called them.
Nothing in the package is changed on disk, and nothing is wrapped while the
tracer is inactive.
"""

import itertools
import json
import time
import types
from collections import defaultdict

import braidinv
from braidinv import braids, cli, counting, gauss, polynomials, sequences

LAYERS = (braids, gauss, counting, polynomials, sequences, cli)
LAYER_NAMES = tuple(module.__name__.rsplit(".", 1)[1] for module in LAYERS)

# Outputs kept per traced item for the per-layer work counts.
_KEPT = {
    "gauss.from_braid_closure",
    "gauss.rebase",
    "polynomials.reduced_burau",
    "polynomials.alexander_of_closure",
}


def layer(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._stack: list[int | None] = [None]
        self._item: int | None = None
        self._outputs: list[tuple[str, object]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._bindings = []
        namespaces = (braidinv, *LAYERS)
        for module, prefix in zip(LAYERS, LAYER_NAMES):
            for name in module.__all__:
                fn = getattr(module, name)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._wrap(f"{prefix}.{name}", fn)
                for ns in namespaces:
                    for attr, value in vars(ns).items():
                        if value is fn:
                            self._bindings.append((ns, attr, fn, wrapper))

    def _wrap(self, name, fn):
        ids, stack, spans, outputs = self._ids, self._stack, self.spans, self._outputs
        clock = time.process_time
        keep = name in _KEPT

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, self._item))
            if keep:
                outputs.append((name, result))
            return result

        return traced

    def run_item(self, item_id: int, item):
        """Run `item` with every public function wrapped; returns its checks."""
        self._item = item_id
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.process_time()
        try:
            return item.run()
        finally:
            end = time.process_time()
            self._stack.pop()
            self.spans.append((sid, "item", start, end, None, item_id))
            for ns, attr, original, _ in self._bindings:
                setattr(ns, attr, original)
            self._count_outputs()

    def _count_outputs(self):
        # Runs after the item's span has closed, so it costs no span any time.
        counts = self.counts
        for name, result in self._outputs:
            if name == "gauss.from_braid_closure":
                counts["gauss.arrows"] += result.arrow_count
            elif name == "gauss.rebase":
                counts["gauss.gaps_rebased"] += 1
            elif name == "polynomials.reduced_burau":
                dim = counts["polynomials.matrix_dim"]
                counts["polynomials.matrix_dim"] = max(dim, len(result))
                for row in result:
                    for entry in row:
                        terms = entry.terms()
                        counts["polynomials.burau_terms"] += len(terms)
                        self._coeff_bits(terms)
            else:
                terms = result.terms()
                span = terms[-1][0] - terms[0][0]
                widest = counts["polynomials.alexander_span"]
                counts["polynomials.alexander_span"] = max(widest, span)
                self._coeff_bits(terms)
        self._outputs.clear()

    def _coeff_bits(self, terms):
        bits = max((abs(c).bit_length() for _, c in terms), default=0)
        if bits > self.counts["polynomials.coeff_bits_max"]:
            self.counts["polynomials.coeff_bits_max"] = bits

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name, total time less nested calls into other layers, and self time.

        Children run inside their parent and one after another, so the sum of
        their durations is the time they cover.  Self times exclude every
        nested span and so add up to the time of the item spans.
        """
        names = {s[0]: s[1] for s in self.spans}
        child_all = defaultdict(float)
        child_other = defaultdict(float)
        for _, name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_all[parent] += end - start
                if layer(names[parent]) != layer(name):
                    child_other[parent] += end - start
        in_layer = defaultdict(float)
        own = defaultdict(float)
        for sid, name, start, end, _, _ in self.spans:
            in_layer[name] += end - start - child_other[sid]
            own[name] += end - start - child_all[sid]
        return in_layer, own

    def write(self, path):
        """Write the spans as JSON lines, times in seconds from the first span."""
        origin = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            for sid, name, start, end, parent, item in self.spans:
                out.write(json.dumps({
                    "id": sid, "name": name, "start": round(start - origin, 9),
                    "end": round(end - origin, 9), "parent": parent, "item": item,
                }) + "\n")
