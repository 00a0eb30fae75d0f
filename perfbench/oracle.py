"""The verdict oracle: what a bare in-process scan says about each document.

The oracle scans every distinct document once with
``ProtectionPipeline.scan`` under the server's settings with triage
forced off, outside any timed loop.  A verdict is compared on
``(malicious, errored, limit_kind)``; a reply that differs is a
mismatch and counts as a failed request.

One difference is not a mismatch, because the program documents it as
equivalent (``tests/property/test_triage_properties.py``): a reply
that triage *proved* malicious, for a document whose bare scan is
benign only because the reader crashed on the exploit (a crash is a
detection event).  Such replies are counted separately as
``crash_convictions`` and reported with every result, so the
difference from a strict bare-scan tuple stays visible.

The scans run in a few worker subprocesses (:mod:`perfbench.pool`)
so the oracle's cost does not dominate a run; each worker builds its
own pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.pipeline import PipelineSettings

from perfbench.pool import map_chunked

#: ``(malicious, errored, limit_kind)``
VerdictKey = Tuple[bool, bool, Optional[str]]

#: Oracle worker processes (the benchmark host has 2 cores).
ORACLE_PROCESSES = 2


@dataclass(frozen=True)
class Observation:
    """The compared part of one verdict, from any path."""

    key: VerdictKey
    triaged: bool = False


@dataclass(frozen=True)
class Expected:
    """The bare scan's verdict and whether the reader crashed."""

    key: VerdictKey
    crashed: bool = False


def observe_reply(verdict: Mapping[str, Any]) -> Observation:
    """From a reply's ``verdict`` (or ``VerdictSummary.to_dict()``)."""
    key = (bool(verdict.get("malicious")), bool(verdict.get("errored")),
           verdict.get("limit_kind"))
    return Observation(key, bool(verdict.get("triaged")))


def observe_report(report: Any) -> Observation:
    """From an ``OpenReport``."""
    key = (bool(report.verdict.malicious), bool(report.errored), report.limit_kind)
    return Observation(key, bool(report.triaged))


def _scan_chunk(
    settings: PipelineSettings, items: Sequence[Tuple[int, str, bytes]]
) -> List[Tuple[int, Expected]]:
    pipeline = settings.build()
    out = []
    for index, name, data in items:
        report = pipeline.scan(data, name)
        out.append((index, Expected(observe_report(report).key, bool(report.crashed))))
    return out


def compute_oracle(
    items: Sequence[Tuple[int, str, bytes]],
    settings: PipelineSettings,
    processes: int = ORACLE_PROCESSES,
) -> Dict[int, Expected]:
    """Bare-scan verdicts of ``(index, name, data)`` items, by index."""
    settings = replace(settings, triage=False, profile=False)
    if not items:
        return {}
    if len(items) < 2 * processes:
        processes = 1
    return dict(map_chunked(functools.partial(_scan_chunk, settings), items, processes))


def is_crash_conviction(seen: Observation, expected: Expected) -> bool:
    """Triage proved malicious what the bare scan saw crash the reader."""
    return (
        seen.triaged and seen.key[0] and not expected.key[0] and expected.crashed
        and seen.key[1:] == expected.key[1:]
    )


@dataclass
class Judgement:
    #: ``(index, observed, expected)`` of every disagreement.
    mismatches: List[Tuple[int, Optional[Observation], Optional[Expected]]]
    crash_convictions: int


def judge(
    observed: Iterable[Tuple[int, Optional[Observation]]], oracle: Mapping[int, Expected]
) -> Judgement:
    """Compare observations with the oracle; a failed call (None) or a
    missing oracle entry is a mismatch."""
    wrong: List[Tuple[int, Optional[Observation], Optional[Expected]]] = []
    convictions = 0
    for index, seen in observed:
        expected = oracle.get(index)
        if seen is None or expected is None:
            wrong.append((index, seen, expected))
            continue
        if seen.key == expected.key:
            continue
        if is_crash_conviction(seen, expected):
            convictions += 1
            continue
        wrong.append((index, seen, expected))
    return Judgement(wrong, convictions)
