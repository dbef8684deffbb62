"""The benchmark's three workloads.

Each workload is a fixed, seeded sequence of calls into the library,
repeated pass after pass. Every pass does the same work on the same
inputs, so the quality figures of one pass must equal those of every
other; only the timings vary. A run repeats passes until its measuring
window is spent (at least ``MIN_PASSES``) and reports medians, so one
slow pass on a shared host cannot move the figure.

A shared host also changes speed for longer than a run lasts, which
no median inside the run removes. So a fixed unit of reference work
(``reference_work``, no library code) is timed between passes, and
every reported timing is scaled to the reference speed: a pass's
times are divided by its ``slowdown``, the reference time around the
pass over ``REFERENCE_S``. The wall times stay in the provenance.

No library call is wrapped or retried: an exception, or a probe
answered with ``tier='error'``, ends the run as a failed check, so a
run that reports metrics had every call succeed.

Inputs are generated from the workload seed before any timing starts;
the library only ever sees the generated records. The minhash seed of
the blockers is part of the blocking configuration, not of the input,
and stays fixed.
"""

from __future__ import annotations

import gc
import hashlib
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import LSHBlocker, SALSHBlocker
from repro.datasets import NCVoterLikeGenerator
from repro.er import Resolver, SimilarityMatcher, clustering
from repro.er.evaluation import evaluate_resolution
from repro.evaluation import evaluate_blocks
from repro.metablocking import run_metablocking
from repro.records import Record
from repro.records import io as records_io
from repro.records import pairs as records_pairs
from repro.semantic import VoterSemanticFunction

#: Blocking and matching attributes of the voter corpus (§6.3.4).
ATTRIBUTES = ("first_name", "last_name")
#: The paper's §6.1 voter parameters.
Q, K, L = 2, 9, 15
#: Fewer rows per band, so pairs co-occur in several bands and
#: meta-blocking has weights to work with.
METABLOCK_K = 4
METABLOCK_SCHEME, METABLOCK_ALGORITHM = "ECBS", "WNP"
#: Minhash/gate seed of every blocker (configuration, not input).
HASH_SEED = 42
MATCH_THRESHOLD, POSSIBLE_THRESHOLD = 0.85, 0.65
FSYNC = "always"

#: Fewest passes a run makes, whatever its measuring window.
MIN_PASSES = 5
#: A run stops after this many passes even inside its window.
MAX_PASSES = 15

#: dedup-salsh / dedup-metablock corpus sizes and duplicate share.
SALSH_RECORDS = 30_000
METABLOCK_RECORDS = 20_000
DUPLICATE_FRACTION = 0.10

#: serve-journaled: initial corpus, held-out duplicate probes, and the
#: per-pass operation mix of the closed-loop client. The mix is an
#: assumption, not taken from a recorded trace; perfbench/README.md
#: gives the reason for each ratio.
SERVE_ENTITIES = 18_000
SERVE_CORPUS_DUPLICATES = 2_000
SERVE_HELD_OUT_DUPLICATES = 4_000
SERVE_READS = 400
SERVE_PROBES_PER_READ = 8
SERVE_WRITES = 400
SERVE_TAIL_WRITES = 100
SERVE_ADD_BATCH = 4
SERVE_REMOVE_SHARE = 0.25
#: Probe mix: duplicates of live entities, fresh entities, exact
#: re-queries of live records.
SERVE_PROBE_MIX = (("duplicate", 0.5), ("fresh", 0.25), ("exact", 0.25))
SERVE_CHECK_PROBES = 64


def sub_seed(seed: int, label: str) -> int:
    """A seed for one input stream, derived from the workload seed."""
    digest = hashlib.blake2b(f"{seed}:{label}".encode(), digest_size=4)
    return int.from_bytes(digest.digest(), "little") & 0x7FFFFFFF


def fingerprint(groups) -> str:
    """Order-sensitive digest of a sequence of id groups."""
    digest = hashlib.blake2b(digest_size=16)
    for group in groups:
        digest.update(",".join(group).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


#: Time ``reference_work`` takes on the build host (a shared 2-vCPU
#: VM) while nothing contends for its cores. It only sets the scale:
#: a timing divided by a pass's slowdown reads as on that host.
REFERENCE_S = 0.12
_REFERENCE_KEYS = np.random.default_rng(0).integers(0, 1 << 62, 200_000)
_REFERENCE_WORDS = [f"w{i * 7919 % 100_003:06d}" for i in range(40_000)]


def reference_work() -> float:
    """Seconds one fixed unit of interpreter and array work takes now.

    It calls no library code, so only the host's speed moves it. The
    interpreter half counts q-grams in a dict, as shingling does; the
    array half sorts and deduplicates 64-bit keys, as LSH grouping
    does.
    """
    started = time.perf_counter()
    counts: dict[str, int] = {}
    for word in _REFERENCE_WORDS:
        for start in range(0, 6, 2):
            gram = word[start:start + 2]
            counts[gram] = counts.get(gram, 0) + 1
    order = np.argsort(_REFERENCE_KEYS, kind="stable")
    np.unique(_REFERENCE_KEYS[order] >> 20)
    return time.perf_counter() - started


def scaled_median(passes: list[dict], key: str) -> float:
    """Median over passes of ``key`` at the reference speed."""
    return statistics.median(p[key] / p["slowdown"] for p in passes)


class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Run:
    """Everything one run measured, for the reporter."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    passes: int = 0
    window_seconds: float = 0.0
    fingerprint: tuple = ()

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


def _voter_matcher() -> SimilarityMatcher:
    return SimilarityMatcher(
        {a: "jaccard_q2" for a in ATTRIBUTES},
        match_threshold=MATCH_THRESHOLD,
        possible_threshold=POSSIBLE_THRESHOLD,
    )


def _salsh_blocker() -> SALSHBlocker:
    return SALSHBlocker(
        ATTRIBUTES, q=Q, k=K, l=L, semantic_function=VoterSemanticFunction(),
        w="all", mode="or", seed=HASH_SEED,
    )


def _passes(seconds: float, one_pass,
            warm_up: bool) -> tuple[dict, list, float]:
    """Run ``one_pass`` until the window is spent (see module doc).

    Returns the first pass, the timed passes and the process's peak RSS
    in MB after the first ``MIN_PASSES`` timed ones, after checking
    that every pass produced the first one's outputs and quality
    figures. The peak is read after a fixed number of passes because
    it creeps up from pass to pass, so a peak over all of them would
    depend on how many passes the host's speed allowed.
    With ``warm_up`` the first pass runs before the window opens and
    only its outputs are used: it pays the process's one-time costs
    (lazy imports, first allocations) that a long-lived user pays
    once. A further pass starts only if it is expected to end inside
    the window, judged by the longest pass so far. Garbage left by the
    previous pass is collected first, so no pass pays for another.
    ``reference_work`` runs before the first pass and after each one;
    a pass's ``slowdown`` is the mean of the two around it over
    ``REFERENCE_S``.
    """
    first = one_pass(0) if warm_up else None
    passes: list[dict] = []
    started = time.perf_counter()
    longest = 0.0
    gc.collect()
    reference = [reference_work()]
    while len(passes) < MAX_PASSES:
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + longest > seconds:
            break
        pass_start = time.perf_counter()
        gc.collect()
        one = one_pass(len(passes) + warm_up)
        gc.collect()
        reference.append(reference_work())
        one["slowdown"] = (reference[-2] + reference[-1]) / (2 * REFERENCE_S)
        passes.append(one)
        longest = max(longest, time.perf_counter() - pass_start)
        if len(passes) == MIN_PASSES:
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                           / 1024)
    first = first or passes[0]
    for number, one in enumerate(passes, start=int(warm_up)):
        check(one["fingerprint"] == first["fingerprint"],
              f"pass {number} produced other outputs than the first")
        check(one["quality"] == first["quality"],
              f"pass {number} produced other quality figures")
    return first, passes, peak_rss_mb


# -- batch workloads ---------------------------------------------------------


class BatchWorkload:
    """Read a corpus CSV, block, match and cluster it, pass after pass.

    Set-up (timed as ``setup_s``) is ``read_csv`` plus blocker and
    matcher construction; the pass (timed for ``records_per_s``) runs
    from the loaded dataset to the clusters.
    """

    name = ""
    num_records = 0
    #: Library calls one pass makes (``read_csv`` and the pipeline).
    calls_per_pass = 0

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.passes_started = 0
        self.corpus_seed = sub_seed(seed, "corpus")
        dataset = NCVoterLikeGenerator(
            num_records=self.num_records,
            duplicate_fraction=DUPLICATE_FRACTION, seed=self.corpus_seed,
        ).generate()
        self.csv_path = work_dir / f"{self.name}-corpus.csv"
        records_io.write_csv(dataset, self.csv_path)

    def build(self):
        raise NotImplementedError

    def pipeline(self, dataset, blocker, matcher):
        """Returns (final candidate result, blocks result, clusters)."""
        raise NotImplementedError

    def extra_checks(self, dataset, blocks_result, final_result) -> str:
        """Further checks on one pass; returns a fingerprint of them."""
        return ""

    def one_pass(self, tracer, number: int) -> dict:
        self.passes_started += 1
        tracer.request_id = f"pass-{number}"
        tracer.active = True
        started = time.perf_counter()
        dataset = records_io.read_csv(self.csv_path)
        blocker, matcher = self.build()
        loaded = time.perf_counter()
        final, blocks, clusters = self.pipeline(dataset, blocker, matcher)
        finished = time.perf_counter()
        tracer.active = False

        blocking = evaluate_blocks(final, dataset)
        resolution = evaluate_resolution(clusters, dataset)
        clustered = sorted(rid for cluster in clusters for rid in cluster)
        check(clustered == sorted(dataset.record_ids),
              "clusters do not partition the corpus")
        return {
            "setup_s": loaded - started,
            "pass_s": finished - loaded,
            "window_s": finished - started,
            "quality": {
                "pc": blocking.pc,
                "pq": blocking.pq,
                "match_precision": resolution.precision,
                "match_recall": resolution.recall,
            },
            "fingerprint": (
                fingerprint(blocks.blocks),
                fingerprint(final.blocks),
                fingerprint(clusters),
                self.extra_checks(dataset, blocks, final),
            ),
            "candidate_pairs": blocking.num_distinct_pairs,
        }

    def run(self, seconds: float, tracer, warm_up: bool = True) -> Run:
        run = Run()
        first, passes, peak_rss_mb = _passes(
            seconds, lambda number: self.one_pass(tracer, number), warm_up
        )
        run.passes = len(passes)
        run.window_seconds = sum(p["window_s"] for p in passes)
        run.fingerprint = first["fingerprint"]
        run.put("setup_s", scaled_median(passes, "setup_s"), "s")
        run.put("records_per_s",
                self.num_records / scaled_median(passes, "pass_s"), "1/s")
        for name, value in first["quality"].items():
            run.put(name, value, "ratio")
        run.put("peak_rss_mb", peak_rss_mb, "MB")
        run.provenance = {
            "corpus": "NCVoterLike", "corpus_records": self.num_records,
            "duplicate_fraction": DUPLICATE_FRACTION,
            "corpus_seed": self.corpus_seed,
            "timed_passes": len(passes),
            "warm_up_passes": int(warm_up),
            "candidate_pairs": first["candidate_pairs"],
            "reference_s": REFERENCE_S,
            "slowdown": [round(p["slowdown"], 4) for p in passes],
            "wall_setup_s": [round(p["setup_s"], 4) for p in passes],
            "wall_pass_s": [round(p["pass_s"], 4) for p in passes],
        }
        return run


class DedupSALSH(BatchWorkload):
    """SA-LSH → pair_keys → pairs_from_keys → match_pairs → resolve."""

    name = "dedup-salsh"
    num_records = SALSH_RECORDS
    calls_per_pass = 6

    def build(self):
        return _salsh_blocker(), _voter_matcher()

    def pipeline(self, dataset, blocker, matcher):
        result = blocker.block(dataset)
        keys = result.pair_keys(dataset)
        pairs = records_pairs.pairs_from_keys(keys, dataset.record_ids)
        decisions = matcher.match_pairs(dataset, pairs)
        matched = [d.pair for d in decisions if d.label == "match"]
        clusters = clustering.resolve(dataset, matched)
        return result, result, clusters


class DedupMetablock(BatchWorkload):
    """LSH (k=4) → meta-blocking (ECBS + WNP) → match_pairs → resolve."""

    name = "dedup-metablock"
    num_records = METABLOCK_RECORDS
    calls_per_pass = 5

    def build(self):
        blocker = LSHBlocker(ATTRIBUTES, q=Q, k=METABLOCK_K, l=L,
                             seed=HASH_SEED)
        return blocker, _voter_matcher()

    def pipeline(self, dataset, blocker, matcher):
        result = blocker.block(dataset)
        meta = run_metablocking(result, METABLOCK_SCHEME, METABLOCK_ALGORITHM)
        decisions = matcher.match_pairs(dataset, list(meta.blocks))
        matched = [d.pair for d in decisions if d.label == "match"]
        clusters = clustering.resolve(dataset, matched)
        return meta, result, clusters

    def extra_checks(self, dataset, blocks_result, final_result) -> str:
        retained = final_result.pair_keys(dataset)
        candidates = blocks_result.pair_keys(dataset)
        check(bool(np.isin(retained, candidates, assume_unique=True).all()),
              "meta-blocking retained a pair that LSH never proposed")
        return hashlib.blake2b(retained.tobytes(), digest_size=16).hexdigest()


# -- the online service ------------------------------------------------------


@dataclass
class Op:
    kind: str  # 'read' | 'add' | 'remove'
    payload: object
    truths: tuple = ()  # read: live true-match ids per probe


def _renamed(records, id_prefix: str, entity_prefix: str) -> list[Record]:
    return [
        Record(f"{id_prefix}{r.record_id}", dict(r.fields),
               entity_id=f"{entity_prefix}{r.entity_id}")
        for r in records
    ]


class ServeJournaled:
    """A durable SA-LSH resolver driven by one closed-loop client.

    Each pass brings the service up — ``Resolver(state_dir=...,
    fsync="always")`` over the initial corpus — then serves the seeded
    request sequence: ``resolve_many`` reads interleaved with journaled
    ``add_many``/``remove`` writes, a ``save()`` checkpoint, and a tail
    of writes after it. It ends with ``close()`` and a ``Resolver.open``
    recovery that loads the checkpoint and replays the tail. Set-up
    (``setup_s``) is construction plus recovery; the request sequence,
    save included, is the service window behind ``records_per_s``.
    """

    name = "serve-journaled"

    @property
    def calls_per_pass(self) -> int:
        """Construction, every request, save, close, open and close."""
        return len(self.ops) + 5

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.passes_started = 0
        self.work_dir = work_dir
        self.seeds = {
            label: sub_seed(seed, label)
            for label in ("corpus", "fresh", "adds", "ops", "check")
        }
        generated = list(NCVoterLikeGenerator(
            num_records=SERVE_ENTITIES + SERVE_CORPUS_DUPLICATES
            + SERVE_HELD_OUT_DUPLICATES,
            duplicate_fraction=(
                (SERVE_CORPUS_DUPLICATES + SERVE_HELD_OUT_DUPLICATES)
                / (SERVE_ENTITIES + SERVE_CORPUS_DUPLICATES
                   + SERVE_HELD_OUT_DUPLICATES)
            ),
            seed=self.seeds["corpus"],
        ).generate())
        split = SERVE_ENTITIES + SERVE_CORPUS_DUPLICATES
        self.corpus = generated[:split]
        held_out = generated[split:]
        num_adds = SERVE_ADD_BATCH * (SERVE_WRITES + SERVE_TAIL_WRITES)
        fresh = NCVoterLikeGenerator(
            num_records=SERVE_READS * SERVE_PROBES_PER_READ,
            duplicate_fraction=0.0, seed=self.seeds["fresh"],
        ).generate()
        adds = NCVoterLikeGenerator(
            num_records=num_adds, duplicate_fraction=DUPLICATE_FRACTION,
            seed=self.seeds["adds"],
        ).generate()
        # save() runs before op ``save_at``; the ops after it are the
        # journal tail that recovery replays.
        self.ops, self.save_at = self._operations(
            held_out, _renamed(fresh, "f", "fresh:"),
            _renamed(adds, "a", "add:"),
        )
        rng = random.Random(self.seeds["check"])
        self.check_probes = [
            Record(f"check{i}", dict(r.fields))
            for i, r in enumerate(rng.sample(self.corpus, SERVE_CHECK_PROBES))
        ]

    def _operations(self, held_out, fresh, adds):
        """The seeded op sequence, with each read's ground truth."""
        rng = random.Random(self.seeds["ops"])
        rng.shuffle(adds)
        live_by_entity: dict[str, set[str]] = {}
        live: list[Record] = []
        position: dict[str, int] = {}

        def add_live(record: Record) -> None:
            position[record.record_id] = len(live)
            live.append(record)
            live_by_entity.setdefault(record.entity_id, set()).add(
                record.record_id
            )

        def remove_live(record_id: str) -> None:
            index = position.pop(record_id)
            live_by_entity[live[index].entity_id].discard(record_id)
            last = live.pop()
            if last.record_id != record_id:
                live[index] = last
                position[last.record_id] = index

        for record in self.corpus:
            add_live(record)
        initial_ids = [r.record_id for r in self.corpus]
        removable = set(initial_ids)
        add_stream = iter(adds)
        fresh_stream = iter(fresh)
        kinds, weights = zip(*SERVE_PROBE_MIX)
        probe_counter = 0

        def write_op() -> Op:
            if rng.random() < SERVE_REMOVE_SHARE:
                while True:
                    victim = initial_ids[rng.randrange(len(initial_ids))]
                    if victim in removable:
                        break
                removable.discard(victim)
                remove_live(victim)
                return Op("remove", victim)
            batch = [next(add_stream) for _ in range(SERVE_ADD_BATCH)]
            for record in batch:
                add_live(record)
            return Op("add", batch)

        def read_op() -> Op:
            nonlocal probe_counter
            probes, truths = [], []
            for kind in rng.choices(kinds, weights, k=SERVE_PROBES_PER_READ):
                if kind == "duplicate":
                    source = held_out[rng.randrange(len(held_out))]
                elif kind == "fresh":
                    source = next(fresh_stream)
                else:
                    source = live[rng.randrange(len(live))]
                probe_counter += 1
                probes.append(Record(f"q{probe_counter:06d}",
                                     dict(source.fields),
                                     entity_id=source.entity_id))
                truths.append(frozenset(
                    live_by_entity.get(source.entity_id, ())
                ))
            return Op("read", probes, tuple(truths))

        tokens = ["read"] * SERVE_READS + ["write"] * SERVE_WRITES
        rng.shuffle(tokens)
        ops = [read_op() if t == "read" else write_op() for t in tokens]
        tail = [write_op() for _ in range(SERVE_TAIL_WRITES)]
        return ops + tail, len(ops)

    @staticmethod
    def _apply(resolver, op: Op):
        if op.kind == "read":
            return resolver.resolve_many(op.payload)
        if op.kind == "add":
            return resolver.add_many(op.payload)
        return resolver.remove(op.payload)

    def _quality(self, answers) -> dict[str, float]:
        with_match = hits = candidates = true_candidates = 0
        match_answers = correct_matches = 0
        for op, resolved in answers:
            for truth, answer in zip(op.truths, resolved):
                check(answer.tier != "error",
                      f"probe {answer.record_id} failed: {answer.error}")
                found = {c.record_id for c in answer.candidates}
                candidates += len(found)
                true_candidates += len(found & truth)
                if truth:
                    with_match += 1
                    hits += bool(found & truth)
                if answer.tier == "match":
                    match_answers += 1
                    correct_matches += answer.best_id in truth
        return {
            "pc": hits / with_match,
            "pq": true_candidates / candidates,
            "match_precision": correct_matches / match_answers,
            "match_recall": correct_matches / with_match,
        }

    def one_pass(self, tracer, number: int) -> dict:
        self.passes_started += 1
        state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=self.work_dir))
        try:
            return self._pass(tracer, number == 0, state_dir)
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)

    def _pass(self, tracer, checked, state_dir) -> dict:
        tracer.request_id = "setup"
        tracer.active = True
        started = time.perf_counter()
        resolver = Resolver(
            _salsh_blocker(), self.corpus, matcher=_voter_matcher(),
            state_dir=state_dir, fsync=FSYNC,
        )
        service_start = time.perf_counter()
        read_ms, write_ms, answers = [], [], []
        records_moved = 0
        for number, op in enumerate(self.ops):
            if number == self.save_at:
                tracer.request_id = "save"
                resolver.save()
            tracer.request_id = f"op-{number}"
            op_start = time.perf_counter()
            result = self._apply(resolver, op)
            elapsed_ms = (time.perf_counter() - op_start) * 1e3
            if op.kind == "read":
                read_ms.append(elapsed_ms)
                answers.append((op, result))
                records_moved += len(op.payload)
            else:
                write_ms.append(elapsed_ms)
                records_moved += len(op.payload) if op.kind == "add" else 1
        service_end = time.perf_counter()
        tracer.active = False

        quality = self._quality(answers)
        live_blocks = resolver.index.blocks()
        live_answers = resolver.resolve_many(self.check_probes)
        resolver.close()

        tracer.request_id = "recover"
        tracer.active = True
        recover_start = time.perf_counter()
        recovered = Resolver.open(state_dir, fsync=FSYNC)
        recover_s = time.perf_counter() - recover_start
        tracer.active = False
        if checked:
            check(recovered.index.blocks() == live_blocks,
                  "recovered index blocks differ from the live ones")
            check(recovered.resolve_many(self.check_probes) == live_answers,
                  "recovered resolver answers differ from the live one")
        recovered.close()
        construct_s = service_start - started
        service_s = service_end - service_start
        return {
            "setup_s": construct_s + recover_s,
            "construct_s": construct_s,
            "recover_s": recover_s,
            "service_s": service_s,
            "window_s": construct_s + service_s + recover_s,
            "records_moved": records_moved,
            "read_ms": read_ms,
            "write_ms": write_ms,
            "quality": quality,
            "fingerprint": (fingerprint(live_blocks),),
        }

    def run(self, seconds: float, tracer, warm_up: bool = True) -> Run:
        run = Run()
        first, passes, peak_rss_mb = _passes(
            seconds, lambda number: self.one_pass(tracer, number), warm_up
        )
        read_ms = [x / p["slowdown"] for p in passes for x in p["read_ms"]]
        write_ms = [x / p["slowdown"] for p in passes
                    for x in p["write_ms"]]
        service_s = scaled_median(passes, "service_s")
        run.passes = len(passes)
        run.window_seconds = sum(p["window_s"] for p in passes)
        run.fingerprint = first["fingerprint"]
        run.put("setup_s", scaled_median(passes, "setup_s"), "s")
        run.put("records_per_s", first["records_moved"] / service_s, "1/s")
        for name, value in first["quality"].items():
            run.put(name, value, "ratio")
        run.put("peak_rss_mb", peak_rss_mb, "MB")
        run.put("ops_per_s", len(self.ops) / service_s, "1/s")
        run.put("resolve_p50_ms", percentile(read_ms, 50), "ms")
        run.put("resolve_p99_ms", percentile(read_ms, 99), "ms")
        run.put("write_p50_ms", percentile(write_ms, 50), "ms")
        run.put("write_p99_ms", percentile(write_ms, 99), "ms")
        run.put("recover_s", scaled_median(passes, "recover_s"), "s")
        run.provenance = {
            "corpus": "NCVoterLike",
            "corpus_records": len(self.corpus),
            "duplicate_fraction": SERVE_CORPUS_DUPLICATES / len(self.corpus),
            "seeds": self.seeds,
            "fsync": FSYNC,
            "clients": 1,
            "loop": "closed",
            "timed_passes": len(passes),
            "warm_up_passes": int(warm_up),
            "ops_per_pass": {
                "reads": SERVE_READS,
                "probes_per_read": SERVE_PROBES_PER_READ,
                "writes": SERVE_WRITES,
                "tail_writes": SERVE_TAIL_WRITES,
                "add_batch": SERVE_ADD_BATCH,
            },
            "reference_s": REFERENCE_S,
            "slowdown": [round(p["slowdown"], 4) for p in passes],
            "wall_construct_s": [round(p["construct_s"], 4) for p in passes],
            "wall_service_s": [round(p["service_s"], 4) for p in passes],
            "wall_recover_s": [round(p["recover_s"], 4) for p in passes],
            "samples": {
                "resolve_ms": len(read_ms),
                "write_ms": len(write_ms),
                "recover_s": len(passes),
                "setup_s": len(passes),
            },
        }
        return run


WORKLOADS = {
    DedupSALSH.name: DedupSALSH,
    DedupMetablock.name: DedupMetablock,
    ServeJournaled.name: ServeJournaled,
}
