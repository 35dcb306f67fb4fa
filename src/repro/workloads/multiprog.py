"""Multiprogram workload interleaving.

The paper evaluates single-program traces; shared protected structures
(one DL0, one DTLB) also see *interference* when several programs
time-share a core.  This module merges N independent suite streams into
one reference stream the way a coarse-grained multithreading scheduler
would, without materialising any of the inputs:

- ``round_robin`` — each live program runs for ``slice_length``
  references, in program order, until every stream is exhausted;
- ``random_slice`` — the next program is drawn uniformly (seeded, so
  runs are reproducible) and runs for one slice.

Streams are plain iterables, so the interleavers compose with the lazy
generators (:func:`~repro.workloads.generator.iter_address_stream`,
:meth:`~repro.workloads.generator.TraceGenerator.stream`) into fully
bounded-memory multiprogram scenarios.  Duplicate suite names are
distinct programs: each position gets its own ``trace_index``, so two
copies of ``specint2000`` do not share an address sequence.
"""

from __future__ import annotations

import random
from itertools import chain, islice
from typing import Any, Iterable, Iterator, List, Sequence

from repro.workloads.generator import (
    DEFAULT_TRACE_LENGTH,
    TraceGenerator,
    iter_address_stream,
)
from repro.uarch.uop import Uop

#: Interleaving policies accepted by :func:`interleave`.
INTERLEAVE_POLICIES = ("round_robin", "random_slice")


def interleave(
    streams: Sequence[Iterable[Any]],
    policy: str = "round_robin",
    slice_length: int = 64,
    seed: int = 0,
) -> Iterator[Any]:
    """Merge independent streams into one, one slice at a time.

    Every input element appears exactly once; only the order differs
    between policies.  Exhausted streams drop out and the survivors keep
    sharing the output until all are drained.

    Examples
    --------
    >>> list(interleave([iter("AAAA"), iter("BB")], slice_length=2))
    ['A', 'A', 'B', 'B', 'A', 'A']
    """
    if policy not in INTERLEAVE_POLICIES:
        raise ValueError(
            f"unknown interleave policy {policy!r}; choose from "
            f"{', '.join(INTERLEAVE_POLICIES)}"
        )
    if slice_length <= 0:
        raise ValueError("slice_length must be positive")
    iterators = [iter(stream) for stream in streams]
    if not iterators:
        raise ValueError("need at least one stream to interleave")
    if policy == "round_robin":
        slices = _round_robin(iterators, slice_length)
    else:
        slices = _random_slice(iterators, slice_length, seed)
    return chain.from_iterable(slices)


def _round_robin(iterators: List[Iterator[Any]],
                 slice_length: int) -> Iterator[List[Any]]:
    live = list(iterators)
    while live:
        survivors = []
        for iterator in live:
            chunk = list(islice(iterator, slice_length))
            yield chunk
            if len(chunk) == slice_length:
                survivors.append(iterator)
        live = survivors


def _random_slice(iterators: List[Iterator[Any]], slice_length: int,
                  seed: int) -> Iterator[List[Any]]:
    rng = random.Random(f"multiprog/{seed}")
    live = list(iterators)
    while live:
        index = rng.randrange(len(live))
        chunk = list(islice(live[index], slice_length))
        yield chunk
        if len(chunk) < slice_length:
            live.pop(index)


def multiprog_address_stream(
    suites: Sequence[str],
    length: int = 50_000,
    seed: int = 0,
    policy: str = "round_robin",
    slice_length: int = 64,
) -> Iterator[int]:
    """One interference address stream over N programs.

    Each suite contributes a ``length``-reference lazy stream
    (:func:`~repro.workloads.generator.iter_address_stream`); the merged
    stream carries ``length * len(suites)`` references total.
    """
    suites = list(suites)
    if not suites:
        raise ValueError("need at least one suite")
    streams = [
        iter_address_stream(suite, length=length, seed=seed,
                            trace_index=index)
        for index, suite in enumerate(suites)
    ]
    return interleave(streams, policy=policy, slice_length=slice_length,
                      seed=seed)


def multiprog_uop_stream(
    suites: Sequence[str],
    length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    policy: str = "round_robin",
    slice_length: int = 64,
) -> Iterator[Uop]:
    """One interference uop stream over N programs.

    The lazy counterpart for full core runs:
    :meth:`~repro.uarch.core.TraceDrivenCore.run` accepts the returned
    iterator directly.  Uop ``seq`` numbers restart per program (they
    identify the uop within its own trace, not the interleaved order).
    """
    suites = list(suites)
    if not suites:
        raise ValueError("need at least one suite")
    generator = TraceGenerator(seed=seed)
    streams = [
        generator.stream(suite, length=length, trace_index=index)
        for index, suite in enumerate(suites)
    ]
    return interleave(streams, policy=policy, slice_length=slice_length,
                      seed=seed)
