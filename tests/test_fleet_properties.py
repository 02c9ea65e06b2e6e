"""Differential tests: the serving fleet against the serial engine.

Random regex formulas (read anywhere, so a document has many tuples),
a Boolean head and an equality query are registered on one service per
backend and transport, and every batch served through ``submit_all``,
``submit`` and ``submit_counts`` must pickle exactly as each query's
serial ``stream``, document by document — with and without
``truncate`` caps by tuples and by bytes.  The services run under a
fault plan whose only faults are zero-second ``slow`` ones on every
other task: such a task serves its first member through a
:class:`chaos.ChaosEngine`, a solo member, so batches mix solo chunks
with sweep and equality chunks.

A guard test checks the wire: a process worker's ``done`` message
pickles with no reference to :mod:`repro.spans`.
"""

from __future__ import annotations

import pickle
import pickletools

import pytest
from hypothesis import HealthCheck, Phase, given, settings, strategies as st

from chaos import FaultPlan, chaos_service
from repro.queries import CompiledEvaluator
from repro.runtime import CompiledSpanner, SpannerService
from repro.runtime.backends.worker import CAP_PROBE_BATCH, OFFSET_ITEMSIZE
from repro.runtime.cache import LRUCache
from repro.spans import SpanTuple
from test_properties import anywhere_formulas, equality_queries

#: (backend, transport) of each module-wide service.
FLEETS = (
    ("serial", "pipe"),
    ("thread", "pipe"),
    ("process", "pipe"),
    ("process", "shm"),
)

#: Short documents: the equality member enumerates every answer.
fleet_docs = st.lists(
    st.text(alphabet="ab0", max_size=12), min_size=1, max_size=4
)


@pytest.fixture(scope="module", params=FLEETS, ids=lambda f: "-".join(f))
def fleet(request):
    backend, transport = request.param
    plan = FaultPlan()
    for task in range(0, 4000, 2):
        plan.slow(task=task, seconds=0.0)
    service = chaos_service(
        plan,
        workers=2,
        chunk_size=2,
        backend=backend,
        transport=transport,
        on_result_limit="truncate",
    )
    with service:
        yield service


def _byte_prefix(n: int, width: int, max_bytes: int) -> int:
    """How many of ``n`` tuples of ``width`` wire bytes a byte cap
    keeps: whole probe batches, while their running total fits."""
    kept = 0
    while True:
        batch = min(CAP_PROBE_BATCH, n - kept)
        if batch and (kept + batch) * width > max_bytes:
            return kept
        kept += batch
        if batch < CAP_PROBE_BATCH:
            return kept


def _assert_same(got: list, want: list) -> None:
    """Per document: equal, and pickled to the same bytes."""
    assert len(got) == len(want)
    for got_doc, want_doc in zip(got, want):
        assert got_doc == want_doc
        assert pickle.dumps(got_doc) == pickle.dumps(want_doc)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    # No shrinking: each call registers queries and serves five batches,
    # so shrinking a failure runs for minutes.  The engine's own
    # properties (test_properties.py) shrink what fails here too.
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
@given(
    formula=anywhere_formulas(),
    boolean=anywhere_formulas(max_variables=0),
    shaped=equality_queries(),
    docs=fleet_docs,
    max_tuples=st.integers(1, 5),
    max_bytes=st.sampled_from((1, 8, 600, 4000)),
)
def test_fleet_matches_serial_stream(
    fleet, formula, boolean, shaped, docs, max_tuples, max_bytes
):
    engines = [
        CompiledSpanner(formula),
        CompiledSpanner(boolean),
        CompiledEvaluator(LRUCache(8)).equality_runtime(shaped[1]),
    ]
    # Equal formulas register once.
    registered = {fleet.register(engine): engine for engine in engines}
    ids = list(registered)
    serial = {
        qid: [list(engine.stream(doc)) for doc in docs]
        for qid, engine in registered.items()
    }
    width = {
        qid: 2 * len(engine.variables) * OFFSET_ITEMSIZE
        for qid, engine in registered.items()
    }

    fused = fleet.submit_all(docs, queries=ids)
    for qid in ids:
        _assert_same(fused[qid].result(timeout=120), serial[qid])
    _assert_same(fleet.submit(docs, queries=ids[0]).result(timeout=120),
                 serial[ids[0]])
    counts = fleet.submit_counts(docs, queries=ids)
    for qid in ids:
        assert counts[qid].result(timeout=120) == [
            len(tuples) for tuples in serial[qid]
        ]

    capped = fleet.submit_all(docs, queries=ids, max_tuples=max_tuples)
    for qid in ids:
        _assert_same(
            capped[qid].result(timeout=120),
            [tuples[:max_tuples] for tuples in serial[qid]],
        )
    capped = fleet.submit_all(docs, queries=ids, max_result_bytes=max_bytes)
    for qid in ids:
        _assert_same(
            capped[qid].result(timeout=120),
            [
                tuples[: _byte_prefix(len(tuples), width[qid], max_bytes)]
                for tuples in serial[qid]
            ],
        )


def _names_spans_module(data: bytes) -> bool:
    """Whether a pickle refers to anything of :mod:`repro.spans`."""
    return any(
        isinstance(arg, str) and "repro.spans" in arg
        for _op, arg, _pos in pickletools.genops(data)
    )


def test_process_done_message_ships_no_span_objects():
    """A process worker's ``done`` message carries ints, not the
    :class:`SpanTuple` object graph (whose pickle the check flags)."""
    spanner = CompiledSpanner(".*x{[0-9]+}.*")
    docs = ["a1 b22", "none", "333"]
    service = SpannerService(workers=1, backend="process")
    done: list = []
    poll = service._backend.poll

    def spy(timeout):
        msgs = poll(timeout)
        done.extend(msg for msg in msgs if msg[0] == "done")
        return msgs

    service._backend.poll = spy  # before the collector starts polling
    with service:
        qid = service.register(spanner)
        got = service.submit(docs, queries=qid).result(timeout=120)
    assert got == [list(spanner.stream(doc)) for doc in docs]
    assert done
    data = pickle.dumps(done[0], protocol=pickle.HIGHEST_PROTOCOL)
    assert not _names_spans_module(data)
    assert _names_spans_module(pickle.dumps(got[0]))
    assert isinstance(got[0][0], SpanTuple)
