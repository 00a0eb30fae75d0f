"""Seeded workloads: which documents are sent, in which order, to which
cluster configuration.

Every document comes from the repository's own corpus generators
(``repro.corpus``), seeded from the benchmark's ``--seed``; the server
only ever receives the bytes.  The same seed gives byte-identical
workloads, a different seed different ones.

* ``full_mixed`` — cache bypassed, triage off; unique documents in
  equal thirds (plain benign, benign with JS, malicious of every
  ``MaliciousKind``), interleaved so any prefix keeps the thirds, and
  within the thirds the script kinds (given round-robin to the JS third)
  and malicious kinds keep their proportions in any prefix too.  The
  warm-up includes the heaviest benign script the generator makes (a
  report built to its 21 MB cap), so every seed's shard peak RSS
  includes it rather than only the seeds that happen to draw one.
* ``triage_repeat`` — ``--triage`` with the per-shard verdict cache;
  the Table V mix (28% malicious, ~5% of benign with JS), each unique
  document sent three times, shuffled within blocks so any prefix
  keeps the one-miss-two-hits ratio.
* ``large_bodies`` — cache bypassed, triage off; one trivial script
  plus seeded incompressible padding, at sizes evenly spaced from the
  7.0 MB to the 19.7 MB Table X tier, cycled in ascending size, so the
  two largest bodies are the heaviest pair in flight on every seed.
  Sixteen distinct bodies spread over the shards by digest evenly
  enough that the shard split varies little between seeds.  Sizes and
  order are the same for every seed (the seed draws the padding):
  with seeded sizes the router's peak RSS moved 14% between seeds.

Pools are sized from ``--seconds`` well above the measured request
rate, so the closed loop only wraps around them (re-sending the first
documents) if the stack gets several times faster.
"""

from __future__ import annotations

import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.core.pipeline import PipelineSettings
from repro.corpus.benign import BenignFactory, BenignKind
from repro.corpus.malicious import MaliciousFactory
from repro.corpus.sized import TABLE_X_SIZES, document_of_size

from perfbench.pool import map_chunked
from perfbench.stack import ClusterSpec

#: Table V: 18,623 benign (994 with JS) and 7,370 malicious documents.
TABLE_V_BENIGN, TABLE_V_BENIGN_JS, TABLE_V_MALICIOUS = 18623, 994, 7370

#: The generator's cap on a benign report script's allocations (MB).
REPORT_CAP_MB = 21
#: Requests per second the pools are sized for (about twice the rate
#: measured on a 2-core host).
POOL_RATE = {"full_mixed": 45.0, "triage_repeat": 80.0}
#: Unique documents per shuffled block of ``triage_repeat`` (each sent
#: ``REPEATS`` times inside its block).
BLOCK, REPEATS = 16, 3
#: Distinct bodies ``large_bodies`` cycles through.
LARGE_DISTINCT = 16
#: Processes that build the large bodies (the benchmark host has 2 cores).
LARGE_BUILDERS = 2
LARGE_MIN = dict(TABLE_X_SIZES)["7.0 MB"]
LARGE_MAX = dict(TABLE_X_SIZES)["19.7 MB"]


@dataclass(frozen=True)
class Doc:
    """One distinct document and the generator class it came from."""

    name: str
    kind: str
    data: bytes


@dataclass
class Workload:
    """Documents, request order and server configuration of one run."""

    name: str
    cluster: ClusterSpec
    #: Requests carry ``nocache=1``.
    bypass_cache: bool
    docs: List[Doc]
    #: Request schedule as indices into ``docs``.
    order: List[int]
    #: Documents outside ``docs`` sent before the measured loop.
    warmup: List[Doc] = field(default_factory=list)

    @property
    def settings(self) -> PipelineSettings:
        """The pipeline settings the cluster's shards run with."""
        return PipelineSettings(triage=self.cluster.triage)

    def path(self, doc: Doc) -> str:
        query = f"name={doc.name}"
        if self.bypass_cache:
            query += "&nocache=1"
        return f"/scan?{query}"

    def schedule(self) -> List[Tuple[str, bytes]]:
        return [(self.path(self.docs[i]), self.docs[i].data) for i in self.order]


def _rng(workload: str, seed: int, stream: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{stream}")


def _factory_seed(rng: random.Random) -> int:
    return rng.getrandbits(24)


#: Script kinds given round-robin to ``full_mixed``'s benign JS third.
JS_KINDS = (BenignKind.FORM_JS, BenignKind.REPORT_JS, BenignKind.DATE_JS,
            BenignKind.PAGENAV_JS, BenignKind.MULTI_JS)


def _benign(seed: int, n: int, with_js: int, prefix: str,
            stratify_js: bool = False) -> List[Doc]:
    factory = BenignFactory(seed=seed)
    specs = factory.specs(n, with_js)
    if stratify_js:
        js_specs = [spec for spec in specs if spec.kind in JS_KINDS]
        for position, spec in enumerate(js_specs):
            spec.kind = JS_KINDS[position % len(JS_KINDS)]
    return [
        Doc(f"{prefix}-{spec.name}", f"benign-{spec.kind.value}", factory.build(spec))
        for spec in specs
    ]


def interleave_kinds(docs: Sequence[Doc]) -> List[Doc]:
    """Reorder ``docs`` so every prefix holds each kind in proportion:
    the i-th of a kind's n documents sorts at (i + 0.5) / n."""
    counts = Counter(doc.kind for doc in docs)
    seen: Counter = Counter()
    keyed = []
    for doc in docs:
        keyed.append(((seen[doc.kind] + 0.5) / counts[doc.kind], doc.kind, doc))
        seen[doc.kind] += 1
    return [doc for _, _, doc in sorted(keyed, key=lambda item: item[:2])]


def _malicious(seed: int, n: int, prefix: str) -> List[Doc]:
    factory = MaliciousFactory(seed=seed)
    return [
        Doc(f"{prefix}-{spec.name}", f"malicious-{spec.kind.value}", factory.build(spec))
        for spec in factory.specs(n)
    ]


def full_mixed(seed: int, seconds: float) -> Workload:
    rng = _rng("full_mixed", seed, "docs")
    third = max(8, math.ceil(POOL_RATE["full_mixed"] * seconds / 3))
    plain = _benign(_factory_seed(rng), third, 0, "plain")
    with_js = interleave_kinds(_benign(_factory_seed(rng), third, third, "js", stratify_js=True))
    malicious = interleave_kinds(_malicious(_factory_seed(rng), third, "mal"))
    docs = [doc for group in zip(plain, with_js, malicious) for doc in group]
    warm = _rng("full_mixed", seed, "warmup")
    heaviest = BenignFactory(seed=_factory_seed(warm))
    spec = replace(heaviest.specs(1, 1)[0], kind=BenignKind.REPORT_JS,
                   js_target_mb=REPORT_CAP_MB)
    warmup = (
        _benign(_factory_seed(warm), 2, 0, "warm-plain")
        + _benign(_factory_seed(warm), 2, 2, "warm-js")
        + _malicious(_factory_seed(warm), 2, "warm-mal")
        + [Doc(f"warm-heaviest-{spec.name}", "benign-report_js", heaviest.build(spec))]
    )
    return Workload(
        name="full_mixed",
        cluster=ClusterSpec(triage=False),
        bypass_cache=True,
        docs=docs,
        order=list(range(len(docs))),
        warmup=warmup,
    )


def table_v_mix(n: int) -> Tuple[int, int, int]:
    """(benign, benign with JS, malicious) for ``n`` documents."""
    total = TABLE_V_BENIGN + TABLE_V_MALICIOUS
    malicious = round(n * TABLE_V_MALICIOUS / total)
    benign = n - malicious
    with_js = max(1, round(benign * TABLE_V_BENIGN_JS / TABLE_V_BENIGN))
    return benign, with_js, malicious


def triage_repeat(seed: int, seconds: float) -> Workload:
    rng = _rng("triage_repeat", seed, "docs")
    unique = BLOCK * max(2, math.ceil(POOL_RATE["triage_repeat"] * seconds / (BLOCK * REPEATS)))
    benign, with_js, malicious = table_v_mix(unique)
    docs = (
        _benign(_factory_seed(rng), benign, with_js, "ben")
        + _malicious(_factory_seed(rng), malicious, "mal")
    )
    rng.shuffle(docs)
    order: List[int] = []
    for start in range(0, len(docs), BLOCK):
        block = list(range(start, min(start + BLOCK, len(docs)))) * REPEATS
        rng.shuffle(block)
        order.extend(block)
    warm = _rng("triage_repeat", seed, "warmup")
    warmup = _benign(_factory_seed(warm), 4, 1, "warm-ben") + _malicious(
        _factory_seed(warm), 2, "warm-mal"
    )
    return Workload(
        name="triage_repeat",
        cluster=ClusterSpec(triage=True),
        bypass_cache=False,
        docs=docs,
        order=order,
        warmup=warmup,
    )


def large_sizes(count: int) -> List[int]:
    """``count`` sizes evenly spaced from the 7.0 MB to the 19.7 MB tier."""
    span = LARGE_MAX - LARGE_MIN
    return [LARGE_MIN + span * step // (count - 1) for step in range(count)]


def _sized_documents(jobs: List[Tuple[int, int]]) -> List[bytes]:
    return [document_of_size(size, seed=seed) for size, seed in jobs]


def large_bodies(seed: int, seconds: float) -> Workload:
    rng = _rng("large_bodies", seed, "docs")
    warm = _rng("large_bodies", seed, "warmup")
    sizes = large_sizes(LARGE_DISTINCT)
    jobs = [(size, _factory_seed(rng)) for size in sizes]
    # Warm-up grows the heaps to the middle of the range; it stops below
    # the largest bodies so the loop, not the warm-up, sets peak RSS.
    jobs += [(size, _factory_seed(warm)) for size in large_sizes(3)[:2]]
    bodies = map_chunked(_sized_documents, jobs, LARGE_BUILDERS)
    docs = [Doc(f"sized-{size}.pdf", "sized", body) for size, body in zip(sizes, bodies)]
    warmup = [
        Doc(f"warm-sized-{i}.pdf", "sized", body)
        for i, body in enumerate(bodies[len(sizes):])
    ]
    return Workload(
        name="large_bodies",
        cluster=ClusterSpec(triage=False),
        bypass_cache=True,
        docs=docs,
        order=list(range(len(docs))),
        warmup=warmup,
    )


WORKLOADS: Dict[str, Callable[[int, float], Workload]] = {
    "full_mixed": full_mixed,
    "triage_repeat": triage_repeat,
    "large_bodies": large_bodies,
}


def composition(docs: Sequence[Doc]) -> Dict[str, Any]:
    """Count per kind and body-size quartiles (bytes) of ``docs``."""
    sizes = sorted(len(doc.data) for doc in docs)
    quartiles: List[float] = []
    if len(sizes) >= 2:
        quartiles = statistics.quantiles(sizes, n=4)
    elif sizes:
        quartiles = [float(sizes[0])] * 3
    return {
        "documents": len(docs),
        "kinds": dict(sorted(Counter(doc.kind for doc in docs).items())),
        "body_bytes": {
            "min": sizes[0] if sizes else 0,
            "q1": quartiles[0] if quartiles else 0,
            "median": quartiles[1] if quartiles else 0,
            "q3": quartiles[2] if quartiles else 0,
            "max": sizes[-1] if sizes else 0,
        },
    }
