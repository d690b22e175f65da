"""Spans and counts around the module-boundary functions of `aspherical`.

The benchmark wraps the package's public functions from outside; it
never edits `src/`.  Installing a tracer replaces every name binding a
caller resolves: module attributes, names imported by `from x import y`
into other modules (cli imports some functions by name), the package's
re-exports, and the methods set on classes.  Uninstalling restores them.

Only functions at a module boundary are wrapped: per-entry or per-letter
helpers such as `IntMatrix.at`, `exponent_sum` or `multiply` are not,
since a span per entry would cost more than the work it measures.

A span is `[name, start_ns, end_ns, parent, op]`.  A layer's self time
is its spans' durations minus the time their child spans cover.  Counts
are read from return values and recorded after the span has closed; the
time that takes is a `trace.count` span of its own, so it lands in the
tracing overhead and in no layer.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

MODULES = ("word", "fpgroup", "zlinalg", "abhomology", "lefschetz", "fibersum", "asphericity", "cli")


def _max_bits(*matrices) -> int:
    best = 0
    for m in matrices:
        if m.entries:
            best = max(best, max(m.entries).bit_length(), (-min(m.entries)).bit_length())
    return best


def _count_snf(c, args, r):
    c["zlinalg.snf.cells"] += r.d.rows * r.d.cols
    c["zlinalg.snf.max_entry_bits"] = max(c["zlinalg.snf.max_entry_bits"], _max_bits(r.d, r.u, r.v))


def _count_relator_matrix(c, args, r):
    rows = [r.row(i) for i in range(r.rows)]
    nonzero = [row for row in rows if any(row)]
    c["zlinalg.relator_matrix.rows"] += r.rows
    c["zlinalg.relator_matrix.zero_rows"] += r.rows - len(nonzero)
    c["zlinalg.relator_matrix.dup_rows"] += len(nonzero) - len(set(nonzero))


def _count_normalize(c, args, r):
    orders = args[1] if len(args) > 1 else ()
    if hasattr(orders, "__len__"):
        c["zlinalg.fgabelian_normalize.orders_in"] += len(orders)


def _count_kunneth(c, args, r):
    c["abhomology.summands_out"] += r.free_rank + len(r.torsion)


def _count_twists(c, args, r):
    c["lefschetz.twists"] += len(r[0].cycles)


def _count_letters(c, args, r):
    c["word.letters_parsed"] += len(r)


def _count_relator_letters(c, args, r):
    c["fpgroup.relator_letters"] += sum(len(w) for w in r.relators)


# (span name, module, attribute path, counter).  A span name's prefix is
# its layer: the module, or `render` for every render* function.
WRAPPED = [
    ("word.parse_word", "word", "parse_word", _count_letters),
    ("word.exponent_vector", "word", "exponent_vector", None),
    ("word.cyclic_reduce", "word", "cyclic_reduce", None),
    ("render.render_word", "word", "render_word", None),
    ("fpgroup.parse_presentation", "fpgroup", "parse_presentation", _count_relator_letters),
    ("fpgroup.grouphom", "fpgroup", "GroupHom.__post_init__", None),
    ("fpgroup.compose", "fpgroup", "compose", None),
    ("fpgroup.apply_hom", "fpgroup", "apply_hom", None),
    ("fpgroup.free_product", "fpgroup", "free_product", None),
    ("fpgroup.quotient_by_normal_closure", "fpgroup", "quotient_by_normal_closure", None),
    ("fpgroup.abelian_presentation", "fpgroup", "abelian_presentation", None),
    ("fpgroup.pinch_presentation_map", "fpgroup", "pinch_presentation_map", None),
    ("fpgroup.surface_group", "fpgroup", "surface_group", None),
    ("render.render_presentation", "fpgroup", "render_presentation", None),
    ("zlinalg.snf", "zlinalg", "smith_normal_form", _count_snf),
    ("zlinalg.cokernel", "zlinalg", "cokernel", None),
    ("zlinalg.relator_matrix", "zlinalg", "relator_matrix", _count_relator_matrix),
    ("zlinalg.abelianization", "zlinalg", "abelianization", None),
    ("zlinalg.induced_matrix", "zlinalg", "induced_matrix", None),
    ("zlinalg.in_row_lattice", "zlinalg", "in_row_lattice", None),
    ("zlinalg.exists_epimorphism", "zlinalg", "exists_epimorphism", None),
    ("zlinalg.primary_decomposition", "zlinalg", "primary_decomposition", None),
    ("zlinalg.fgabelian_normalize", "zlinalg", "FgAbelian.from_cyclic_orders", _count_normalize),
    ("zlinalg.contains_summand", "zlinalg", "FgAbelian.contains_summand", None),
    ("zlinalg.parse_matrix", "zlinalg", "parse_matrix", None),
    ("zlinalg.mul", "zlinalg", "IntMatrix.mul", None),
    ("render.intmatrix", "zlinalg", "IntMatrix.render", None),
    ("render.fgabelian", "zlinalg", "FgAbelian.render", None),
    ("abhomology.group_homology_graded", "abhomology", "group_homology_graded", None),
    ("abhomology.group_homology", "abhomology", "group_homology", None),
    ("abhomology.kunneth", "abhomology", "kunneth", _count_kunneth),
    ("abhomology.tensor", "abhomology", "tensor", None),
    ("abhomology.tor", "abhomology", "tor", None),
    ("abhomology.factor_homology_sum", "abhomology", "factor_homology_sum", None),
    ("abhomology.real_cohomology_rank", "abhomology", "real_cohomology_rank", None),
    ("lefschetz.parse_factorization", "lefschetz", "parse_factorization", _count_twists),
    ("lefschetz.monodromy_product", "lefschetz", "monodromy_product", None),
    ("lefschetz.homology_trivial", "lefschetz", "homology_trivial", None),
    ("lefschetz.total_space_pi1", "lefschetz", "total_space_pi1", None),
    ("lefschetz.twist_matrix", "lefschetz", "twist_matrix", None),
    ("fibersum.witness", "fibersum", "witness_presentation", None),
    ("fibersum.chain", "fibersum", "presentation_chain_for", None),
    ("fibersum.fiber_sum", "fibersum", "fiber_sum_with_trivial_bundle", None),
    ("asphericity.classify", "asphericity", "classify", None),
    ("asphericity.hopf_obstruction", "asphericity", "hopf_obstruction_dim4", None),
    ("asphericity.realizable_dimensions", "asphericity", "realizable_dimensions", None),
    ("cli.main", "cli", "main", None),
    ("cli.parse_group_spec", "cli", "parse_group_spec", None),
]

COUNT_SPAN = "trace.count"

# Per-layer metrics reported for every workload (BENCHMARK.json `per_layer`).
CALL_METRICS = [
    "zlinalg.fgabelian_normalize",
    "abhomology.kunneth",
    "fpgroup.grouphom",
    "zlinalg.in_row_lattice",
    "word.parse_word",
    "zlinalg.snf",
    "zlinalg.cokernel",
]
SELF_METRICS = CALL_METRICS + [
    "zlinalg.exists_epimorphism",
    "abhomology.tensor",
    "abhomology.tor",
    "asphericity.classify",
    "asphericity.hopf_obstruction",
    "zlinalg.induced_matrix",
    "zlinalg.relator_matrix",
    "lefschetz.parse_factorization",
    "lefschetz.monodromy_product",
    "lefschetz.total_space_pi1",
    "fibersum.witness",
    "fibersum.chain",
    "fibersum.fiber_sum",
    "fpgroup.parse_presentation",
    "cli.parse_group_spec",
]
COUNT_METRICS = [
    "zlinalg.fgabelian_normalize.orders_in",
    "abhomology.summands_out",
    "zlinalg.relator_matrix.rows",
    "zlinalg.relator_matrix.zero_rows",
    "zlinalg.relator_matrix.dup_rows",
    "lefschetz.twists",
    "word.letters_parsed",
    "fpgroup.relator_letters",
    "zlinalg.snf.cells",
    "zlinalg.snf.max_entry_bits",
]

PER_LAYER = (
    [f"{n}.calls" for n in CALL_METRICS]
    + [f"{n}.self_s" for n in SELF_METRICS]
    + [f"{m}.self_s" for m in MODULES]
    + ["render.self_s", "trace.count.self_s"]
    + COUNT_METRICS
    + [
        "zlinalg.relator_matrix.useful_ratio",
        "cli.stdout_bytes",
        "trace.spans",
        "trace.self_sum_s",
        "trace.batch_s",
        "trace.overhead_s",
    ]
)


def unit(name: str) -> str:
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_s"):
        return "s"
    return "count"


def _resolve(owner, path: str):
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counts while installed.  One batch at a time:
    `reset` clears the record, `begin_op` tags the spans that follow."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.op = -1

    def begin_op(self, op: int) -> None:
        self.op = op

    def _wrap(self, fn, name, counter):
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            parent = stack[-1] if stack else -1
            span = [name, perf_counter_ns(), 0, parent, tracer.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                t0 = perf_counter_ns()
                counter(tracer.counts, args, result)
                spans.append([COUNT_SPAN, t0, perf_counter_ns(), parent, tracer.op])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self, cli_module):
        """Patch every binding of each wrapped function, restore on exit."""
        package = sys.modules[cli_module.__name__.rpartition(".")[0]]
        modules = [package] + [sys.modules[f"{package.__name__}.{m}"] for m in MODULES]
        undo = []
        try:
            for name, module, path, counter in WRAPPED:
                owner, attr = _resolve(sys.modules[f"{package.__name__}.{module}"], path)
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapper = self._wrap(fn, name, counter)
                replacement = classmethod(wrapper) if is_classmethod else wrapper
                targets = [owner] if owner not in modules else [
                    m for m in modules if m.__dict__.get(attr) is fn
                ]
                for target in targets:
                    undo.append((target, attr, target.__dict__[attr]))
                    setattr(target, attr, replacement)
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def batch_metrics(self) -> dict[str, float]:
        """Calls, self time and counts of the batch recorded so far."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        layer_ns: defaultdict[str, int] = defaultdict(int)
        for i, s in enumerate(spans):
            own = s[2] - s[1] - child[i]
            calls[s[0]] += 1
            self_ns[s[0]] += own
            layer_ns[s[0] if s[0] == COUNT_SPAN else s[0].split(".", 1)[0]] += own
        out: dict[str, float] = {}
        for name in CALL_METRICS:
            out[f"{name}.calls"] = calls[name]
        for name in SELF_METRICS:
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for layer in MODULES + ("render", COUNT_SPAN):
            out[f"{layer}.self_s"] = layer_ns[layer] / 1e9
        out["trace.self_sum_s"] = sum(layer_ns.values()) / 1e9
        for name in COUNT_METRICS:
            out[name] = self.counts[name]
        rows = out["zlinalg.relator_matrix.rows"]
        wasted = out["zlinalg.relator_matrix.zero_rows"] + out["zlinalg.relator_matrix.dup_rows"]
        out["zlinalg.relator_matrix.useful_ratio"] = 1 - wasted / rows if rows else 1.0
        out["trace.spans"] = len(spans)
        return out

    def write_spans(self, path: Path, op_labels: list[str]) -> None:
        """The last batch's spans, one tab-separated line each, after a
        `# op <index> <label>` line per op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.writelines(f"# op {i} {label}\n" for i, label in enumerate(op_labels))
            f.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
            f.writelines(f"{i}\t{n}\t{s}\t{e}\t{p}\t{o}\n" for i, (n, s, e, p, o) in enumerate(self.spans))


def summarize(per_batch: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced batches.  Counts repeat
    exactly from batch to batch unless the program caches across ops."""
    return {key: statistics.median(b[key] for b in per_batch) for key in per_batch[0]}
