"""Spans and counters recorded from outside the library.

`Tracer.install` replaces every public module-level function of the
measured modules, in every namespace of the package that holds a reference
to it (so `abelian.smith_normal_form` and `cli.bundle_cohomology` are
caught as well as the defining names), plus `IntMatrix.__matmul__`.  The
wrappers record only while an operation is open, so the benchmark's own
correctness checks never show up in the numbers.  Spans stay in memory and
are written once, at the end of the run.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

PACKAGE = "exotic_invariants"
MODULES = ("cli", "brieskorn", "abelian", "snf", "bundles", "tduality", "groups", "hodge")

# Per-value rendering helpers: called once per spectrum value or group, so a
# span each would cost more than the work.  Their time stays in the caller.
UNWRAPPED = {
    "cli.main", "cli.rational_str", "cli.group_json", "cli.graded_json",
    "cli.bundle_json", "cli.fluxed_json",
}


def _matrix_bits(m) -> int:
    return max((abs(x).bit_length() for x in m.entries), default=0)


def _count_snf(counts, args, result):
    m = args[0]
    counts["snf.input_entries"] += m.rows * m.cols
    bits = max(_matrix_bits(x) for x in result)
    counts["snf.max_output_bits"] = max(counts["snf.max_output_bits"], bits)


def _count_lattice(counts, args, result):
    counts["brieskorn.gram_entries"] += result.gram.rows * result.gram.cols


# Counters read off a call's arguments and result after the operation ends.
HOOKS = {"snf.smith_normal_form": _count_snf, "brieskorn.milnor_lattice": _count_lattice}
COUNTERS = ("snf.input_entries", "snf.max_output_bits", "brieskorn.gram_entries")


class Tracer:
    """Wraps the library's public functions and accumulates self time.

    A span's self time is its duration minus the time of the spans it
    opened.  Times are summed per label; calls are counted per label.
    """

    def __init__(self):
        pkg = sys.modules[PACKAGE]
        modules = {name: sys.modules[f"{PACKAGE}.{name}"] for name in MODULES}
        namespaces = [pkg] + list(modules.values())
        self.labels = []
        self.self_s = []
        self.spans = []  # (request, span id, parent id, label index, t0, t1)
        self._patches = []  # (owner, attribute, original, wrapper)
        self._stack = []  # open frames: [span id, child seconds]
        self._pending = []
        self._next_id = 0
        self._request = None
        self._add_label("request")  # label 0: the operation as the client sees it
        for short, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                label = f"{short}.{name}"
                if (
                    isinstance(fn, types.FunctionType)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and label not in UNWRAPPED
                ):
                    wrapper = self._wrap(label, fn)
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is fn:
                                self._patches.append((ns, attr, fn, wrapper))
        matrix = modules["snf"].IntMatrix
        fn = matrix.__dict__["__matmul__"]
        self._patches.append((matrix, "__matmul__", fn, self._wrap("snf.matmul", fn)))
        self.reset_counts()

    def _add_label(self, label: str) -> int:
        self.labels.append(label)
        self.self_s.append(0.0)
        return len(self.labels) - 1

    def _wrap(self, label: str, fn):
        idx = self._add_label(label)
        hook = HOOKS.get(label)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                parent[1] += t1 - t0
                self.self_s[idx] += t1 - t0 - frame[1]
                self.calls[idx] += 1
                self.spans.append((self._request, span_id, parent[0], idx, t0, t1))
            if hook is not None:
                self._pending.append((hook, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin_op(self, request: int) -> None:
        self._request = request
        self._stack.append([self._next_id, 0.0, perf_counter()])
        self._next_id += 1

    def end_op(self) -> None:
        t1 = perf_counter()
        span_id, children, t0 = self._stack.pop()
        self.self_s[0] += t1 - t0 - children
        self.spans.append((self._request, span_id, -1, 0, t0, t1))
        for hook, args, result in self._pending:
            hook(self.counts, args, result)
        self._pending.clear()

    def reset_counts(self) -> None:
        """Start a new pass: zero the per-pass counters and call counts."""
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.calls = [0] * len(self.labels)

    def self_ms_by_label(self) -> dict:
        return {label: s * 1000.0 for label, s in zip(self.labels, self.self_s)}

    def calls_by_label(self) -> dict:
        return dict(zip(self.labels, self.calls))

    def write(self, path, meta: dict) -> None:
        """Write every span as one JSON document: times in microseconds."""
        base = self.spans[0][4] if self.spans else 0.0
        doc = dict(meta)
        doc["labels"] = self.labels
        doc["span_fields"] = ["request", "id", "parent", "label", "start_us", "end_us"]
        doc["spans"] = [
            [req, sid, parent, idx, round((t0 - base) * 1e6, 1), round((t1 - base) * 1e6, 1)]
            for req, sid, parent, idx, t0, t1 in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
