"""In-memory span tracing installed from outside the library.

The traced run wraps each layer's public entry points at the name its
caller looks up (a class attribute for methods, the importing module's
global for functions), records one span per call, and restores every
original afterwards. Nothing under ``src/`` knows it is being traced.

A span holds its name, start, end, parent span and request id. Spans
are kept in memory and written out once, when the run ends. A layer's
self time is its span's duration minus the time its child spans cover.
Counters are recorded at the same boundaries as the spans, after the
span's clock has stopped.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Span and counter recorder for one process.

    Spans are only recorded while :attr:`active` is set, so correctness
    checks that call the same functions outside the timed windows leave
    no spans behind.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self.active = False
        self.request_id = ""
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.active:
            self.counters[name] += amount

    def gauge_max(self, name: str, value: float) -> None:
        if self.active:
            self.gauges[name] = max(self.gauges.get(name, value), value)

    def _wrap(self, original, name, before=None, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            state = before(args) if before is not None else None
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent, tracer.request_id))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (
                    name, start, end, parent, tracer.request_id
                )
            if after is not None:
                after(tracer, args, result, state)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def install(self, owner, attribute: str, name: str, *, before=None,
                after=None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``before(args)`` runs ahead of the span and its value is passed
        on; ``after(tracer, args, result, state)`` runs after the span's
        clock stops — both for counters, so neither is timed as the
        layer's work.
        """
        original = (
            owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self._installed.append((owner, attribute, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(
                self._wrap(original.__func__, name, before, after)
            )
        else:
            wrapped = self._wrap(original, name, before, after)
        setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def top_level_seconds(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(
            end - start for _, start, end, parent, _ in self.spans
            if parent < 0
        )

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent if parent >= 0 else None,
                    "request": request,
                }) + "\n")


# -- the layer map ---------------------------------------------------------


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _payload_bytes(payload: dict) -> int:
    """UTF-8 bytes of the user data one journal entry carries."""
    if "records" in payload:
        return sum(
            len(rid.encode()) + len((entity or "").encode())
            + sum(len(str(v).encode()) for v in fields.values())
            for rid, fields, entity in payload["records"]
        )
    return len(str(payload.get("record_id", "")).encode())


def _after_pairs(tracer, args, result, state):
    tracer.count("records.candidate_pairs", len(result))


def _after_encoder_init(tracer, args, result, state):
    tracer.gauge_max("semantic.bits", args[0].num_bits)


def _after_blocks(tracer, args, result, state):
    tracer.count("lsh.num_blocks", len(result))
    if result:
        tracer.gauge_max("lsh.max_block", max(len(b) for b in result))


def _after_query(tracer, args, result, state):
    tracer.count("core.queries")
    tracer.count("core.query_candidates", len(result))


def _after_graph(tracer, args, result, state):
    tracer.count("metablocking.edges", result.num_edges)


def _after_prune(tracer, args, result, state):
    tracer.count("metablocking.retained", len(result))


def _after_match(tracer, args, result, state):
    tracer.count("er.decisions", len(result))
    tracer.count("er.matches", sum(d.label == "match" for d in result))


def _before_append(args):
    return _file_size(args[0].path)


def _after_append(tracer, args, result, state):
    tracer.count("store.journal_frames")
    tracer.count("store.wal_bytes", _file_size(args[0].path) - state)
    tracer.count("store.user_bytes", _payload_bytes(args[2]))


def _after_checkpoint(tracer, args, result, state):
    directory = Path(args[0]) / result
    tracer.count(
        "store.checkpoint_bytes",
        sum(_file_size(p) for p in directory.iterdir()),
    )


def _after_replay(tracer, args, result, state):
    tracer.count("store.replay_frames", len(result[0]))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap every layer's public entry points (see README.md)."""
    from repro.core import lsh_blocker, salsh_blocker
    from repro.core.base import BlockingResult
    from repro.er import clustering, resolver
    from repro.er.matching import SimilarityMatcher
    from repro.lsh.index import BandedLSHIndex
    from repro.metablocking import pipeline as metablocking_pipeline
    from repro.minhash.minhash import MinHasher
    from repro.minhash.shingling import Shingler
    from repro.records import io as records_io
    from repro.records import pairs as records_pairs
    from repro.semantic.hashing import WWaySemanticHashFamily
    from repro.semantic.semhash import SemhashEncoder
    from repro.store import journal

    t = tracer
    # records
    t.install(records_io, "read_csv", "records.read_csv_s")
    t.install(BlockingResult, "pair_keys", "records.enumerate_s")
    for module in (records_pairs, metablocking_pipeline):
        t.install(module, "pairs_from_keys", "records.decode_s",
                  after=_after_pairs)
    # minhash
    t.install(Shingler, "shingle_corpus", "minhash.shingle_s")
    t.install(MinHasher, "signature_matrix", "minhash.signature_s")
    # semantic
    t.install(SemhashEncoder, "__init__", "semantic.encode_s",
              after=_after_encoder_init)
    t.install(SemhashEncoder, "signature_matrix", "semantic.encode_s")
    t.install(SemhashEncoder, "encode", "semantic.probe_encode_s")
    t.install(WWaySemanticHashFamily, "gate_entries", "semantic.gate_s")
    # lsh
    for module in (lsh_blocker, salsh_blocker):
        t.install(module, "split_bands_matrix", "lsh.band_s")
    t.install(BandedLSHIndex, "add_many", "lsh.group_s")
    t.install(BandedLSHIndex, "blocks", "lsh.blocks_s", after=_after_blocks)
    # core
    t.install(lsh_blocker.LSHBlocker, "block", "core.block_s")
    t.install(salsh_blocker.SALSHBlocker, "block", "core.block_s")
    for index_class in (lsh_blocker.OnlineLSHIndex,
                        salsh_blocker.OnlineSALSHIndex):
        t.install(index_class, "query", "core.query_s", after=_after_query)
        t.install(index_class, "add_many", "core.index_add_s")
    # metablocking
    t.install(metablocking_pipeline, "build_array_graph",
              "metablocking.graph_s", after=_after_graph)
    t.install(metablocking_pipeline, "compute_weights",
              "metablocking.weights_s")
    t.install(metablocking_pipeline, "prune_array", "metablocking.prune_s",
              after=_after_prune)
    # er
    t.install(SimilarityMatcher, "score_pairs", "er.score_s")
    t.install(SimilarityMatcher, "match_pairs", "er.match_s",
              after=_after_match)
    t.install(SimilarityMatcher, "score_against", "er.score_against_s")
    t.install(clustering, "resolve", "er.cluster_s")
    t.install(resolver.Resolver, "resolve_many", "er.resolve_s")
    t.install(resolver.Resolver, "add_many", "er.write_s")
    t.install(resolver.Resolver, "remove", "er.write_s")
    # store
    t.install(journal.Journal, "append", "store.journal_append_s",
              before=_before_append, after=_after_append)
    t.install(resolver, "write_checkpoint", "store.checkpoint_s",
              after=_after_checkpoint)
    t.install(resolver, "load_checkpoint", "store.load_checkpoint_s")
    t.install(resolver, "read_journal", "store.replay_s",
              after=_after_replay)
    # Journal.open rescans the log through its own module's global.
    t.install(journal, "read_journal", "store.replay_s")
    t.install(resolver.RecordStore, "from_snapshot_state",
              "records.restore_s")


#: Per-layer metrics in report order: name -> unit.
LAYER_METRICS: dict[str, str] = {
    "records.read_csv_s": "s",
    "records.enumerate_s": "s",
    "records.decode_s": "s",
    "records.candidate_pairs": "count",
    "records.restore_s": "s",
    "minhash.shingle_s": "s",
    "minhash.signature_s": "s",
    "semantic.encode_s": "s",
    "semantic.probe_encode_s": "s",
    "semantic.gate_s": "s",
    "semantic.bits": "count",
    "lsh.band_s": "s",
    "lsh.group_s": "s",
    "lsh.blocks_s": "s",
    "lsh.num_blocks": "count",
    "lsh.max_block": "count",
    "core.block_s": "s",
    "core.query_s": "s",
    "core.index_add_s": "s",
    "core.candidates_per_query": "count",
    "metablocking.graph_s": "s",
    "metablocking.weights_s": "s",
    "metablocking.prune_s": "s",
    "metablocking.retained_share": "ratio",
    "er.score_s": "s",
    "er.match_s": "s",
    "er.match_share": "ratio",
    "er.cluster_s": "s",
    "er.resolve_s": "s",
    "er.score_against_s": "s",
    "er.write_s": "s",
    "store.journal_append_s": "s",
    "store.journal_frames": "count",
    "store.wal_bytes_per_user_byte": "ratio",
    "store.checkpoint_s": "s",
    "store.checkpoint_bytes": "bytes",
    "store.load_checkpoint_s": "s",
    "store.replay_s": "s",
    "store.replay_frames": "count",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, passes: int, window_seconds: float,
                  overhead: float) -> dict[str, float]:
    """Per-pass layer figures from a traced run of ``passes`` passes.

    Times are self times and counts are totals, both divided by the
    number of passes; gauges are maxima; shares are whole-run ratios.
    """
    values = {name: 0.0 for name in LAYER_METRICS}
    for name, seconds in tracer.self_times().items():
        values[name] = seconds / passes
    c = tracer.counters
    for name in ("records.candidate_pairs", "lsh.num_blocks",
                 "store.journal_frames", "store.checkpoint_bytes",
                 "store.replay_frames"):
        values[name] = c[name] / passes
    values.update(tracer.gauges)
    values["core.candidates_per_query"] = _ratio(
        c["core.query_candidates"], c["core.queries"]
    )
    values["metablocking.retained_share"] = _ratio(
        c["metablocking.retained"], c["metablocking.edges"]
    )
    values["er.match_share"] = _ratio(c["er.matches"], c["er.decisions"])
    values["store.wal_bytes_per_user_byte"] = _ratio(
        c["store.wal_bytes"], c["store.user_bytes"]
    )
    values["trace.coverage"] = _ratio(
        tracer.top_level_seconds(), window_seconds
    )
    values["trace.overhead"] = overhead
    return values
