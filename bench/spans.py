"""Span tracer for the benchmark's traced run.

Wrappers go around the public functions of each parikhseq layer, from the
benchmark's side: the program is not changed.  A function is patched in its
defining module and under every name another parikhseq module imported it
by (cli and fuzz import SeqFold, seq_matrix_direct and count_gapped by name,
seqmat imports count_piece); methods are patched on their class.  Each call
records a span (parent span, name, start ns, end ns) in an in-memory array;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name); "Class.method" patches the class
TARGETS = [
    ("parikhseq.cli", "main", "cli.main"),
    ("parikhseq.seqmat", "SeqFold.push", "seqmat.push"),
    ("parikhseq.seqmat", "SeqFold.result", "seqmat.result"),
    ("parikhseq.seqmat", "seq_matrix_direct", "seqmat.direct"),
    ("parikhseq.counting", "count_piece", "counting.count_piece"),
    ("parikhseq.counting", "count_gapped", "counting.count_gapped"),
    ("parikhseq.counting", "count_subword", "counting.count_subword"),
    ("parikhseq.parikh", "ParikhFold.push", "parikh.push"),
    ("parikhseq.intmat", "IntMatrix.__init__", "intmat.new"),
    ("parikhseq.intmat", "IntMatrix.__mul__", "intmat.mul"),
    ("parikhseq.intmat", "IntMatrix.det", "intmat.det"),
    ("parikhseq.minors", "witness_word", "minors.witness_word"),
    ("parikhseq.minors", "special_minor", "minors.special_minor"),
    ("parikhseq.minors", "check_minor_nonneg", "minors.check_minor_nonneg"),
    ("parikhseq.gsh", "linearize", "gsh.linearize"),
    ("parikhseq.gsh", "equivalent_bounded", "gsh.equivalent_bounded"),
    ("parikhseq.gsh", "evaluate", "gsh.evaluate"),
    ("parikhseq.gsh", "red", "gsh.red"),
    ("parikhseq.gsh", "linearize_product", "gsh.linearize_product"),
    ("parikhseq.fuzz", "run_suite", "fuzz.run_suite"),
    ("parikhseq.words", "GapPattern.parse", "words.parse"),
    ("parikhseq.words", "parse_word", "words.parse"),
]

CACHED = ("red", "linearize_product")  # gsh functions with an lru cache


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")  # 4 slots per span: parent, name id, start, end
        self.current = -1
        self.counters: Counter[str] = Counter()
        self.results: list | None = []  # first pass's SeqMatrix results, for max_entry_bits
        self._pass_start = 0  # first span of the pass in progress
        self.passes = 0
        self.first_pass: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.totals: dict[str, list[int]] = {}  # the same over all passes
        self._patches: list[tuple[object, str, object, object]] = []
        gsh = sys.modules["parikhseq.gsh"]
        self.caches = {name: getattr(gsh, name) for name in CACHED}
        for module, attr, name in TARGETS:
            self._patch(module, attr, name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self
        nid = self.name_id(name)
        on_result = self._hooks().get(name)
        keyed = name == "seqmat.push"
        buckets: dict = {}

        def traced(*args, **kwargs):
            span_nid = nid
            if keyed:  # split SeqFold.push by the pattern's (d, k)
                pattern = args[0].pattern
                span_nid = buckets.get(pattern)
                if span_nid is None:
                    d, k = pattern.flat_length - 1, len(set(pattern.flat))
                    span_nid = buckets[pattern] = tracer.name_id(f"seqmat.push[d={d},k={k}]")
            parent = tracer.current
            slot = len(spans)
            tracer.current = slot >> 2
            spans.extend((parent, span_nid, clock(), 0))
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[slot + 3] = clock()
                tracer.current = parent
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _hooks(self) -> dict:
        def keep(result):
            if self.results is not None:
                self.results.append(result)

        def minors(sweep):
            self.counters["minors.minors_checked"] += sweep.minors_checked

        def cases(report):
            self.counters["fuzz.cases"] += report.cases

        return {
            "seqmat.result": keep,
            "seqmat.direct": keep,
            "minors.check_minor_nonneg": minors,
            "fuzz.run_suite": cases,
        }

    def _patch(self, module_name: str, attr: str, name: str) -> None:
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[method]
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapper = self._wrap(raw, name)
            self._patches.append((owner, method, raw, wrapper))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, name)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "parikhseq" or mod_name.startswith("parikhseq."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def cache_stats(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each gsh cache; (0, 0) when it has no cache_info."""
        out = {}
        for name, fn in self.caches.items():
            info = getattr(fn, "cache_info", None)
            out[name] = (info().hits, info().misses) if info else (0, 0)
        return out

    @property
    def span_count(self) -> int:
        return len(self.spans) >> 2

    def end_pass(self) -> None:
        """Fold the pass's spans into the totals.  The first pass's spans are
        kept (they are written out); later passes' spans are dropped, so
        memory does not grow with the run."""
        spans = self.spans
        first, last = self._pass_start, self.span_count
        child = array("q", bytes(8 * (last - first)))
        for i in range(first, last):
            parent = spans[4 * i]
            if parent >= first:
                child[parent - first] += spans[4 * i + 3] - spans[4 * i + 2]
        agg: dict[str, list[int]] = {}
        for i in range(first, last):
            dur = spans[4 * i + 3] - spans[4 * i + 2]
            row = agg.setdefault(self.names[spans[4 * i + 1]], [0, 0, 0])
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i - first]
        for name, row in agg.items():
            total = self.totals.setdefault(name, [0, 0, 0])
            for j in range(3):
                total[j] += row[j]
        self.passes += 1
        if self.passes == 1:
            self.first_pass = agg
            self._pass_start = last
        else:
            del spans[4 * first :]

    def write(self, stem: Path, meta: dict) -> None:
        """The first pass's spans as little-endian int64 quadruples, plus a
        JSON header."""
        spans = self.spans
        if sys.byteorder != "little":
            spans = array("q", spans)
            spans.byteswap()
        with open(stem.with_suffix(".spans"), "wb") as fh:
            spans.tofile(fh)
        header = {
            "fields": ["parent", "name", "start_ns", "end_ns"],
            "dtype": "<i8",
            "names": self.names,
            **meta,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1))
