"""Packed-array oracle annotation for the scalar core's hot path.

``OracleAnnotator.annotate`` (:mod:`tests.pipeline.record_annotate`) is called once per dispatched record and
builds a fresh frozen dataclass each time, even though — for a given
configuration — an oracle annotation is fully determined by four bits
of the record: mispredicted-control, I-cache miss, and the two-bit
D-cache miss class. :func:`oracle_annotations` exploits that: it
computes the 4-bit key for every record as one column expression over
the trace's columns and gathers from a table of 16 canonical
:class:`~tests.pipeline.record_annotate.Annotation` instances.

The returned annotations are equal (``==``, frozen-dataclass equality)
to what ``OracleAnnotator`` would produce record by record — the
equivalence suite proves the resulting ``SimulationResult`` is
byte-identical — they are just shared instead of constructed ``n``
times.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.memory.hierarchy import MissClass
from repro.trace.columns import (
    DCODE_L1_HIT,
    DCODE_LONG,
    DCODE_NONE,
    DCODE_SHORT,
    LOAD_CODE,
    STORE_CODE,
    oracle_miss_columns,
)
from repro.pipeline.config import CoreConfig
from repro.trace.stream import Trace

from tests.pipeline.record_annotate import Annotation, load_latency

_DCODE_CLASS = {
    DCODE_L1_HIT: MissClass.L1_HIT,
    DCODE_SHORT: MissClass.SHORT,
    DCODE_LONG: MissClass.LONG,
}


def annotation_table(config: CoreConfig) -> List[Annotation]:
    """The 16 canonical annotations, indexed by
    ``(mispredicted << 3) | (il1_miss << 2) | dcache_code``."""
    table: List[Annotation] = []
    for key in range(16):
        mispredicted = bool(key & 8)
        il1_miss = bool(key & 4)
        dcode = key & 3
        dcache_class = _DCODE_CLASS.get(dcode)
        table.append(
            Annotation(
                mispredicted=mispredicted,
                icache_latency=config.l2_latency if il1_miss else None,
                icache_long=False,
                dcache_class=dcache_class,
                dcache_latency=(
                    load_latency(config, dcache_class)
                    if dcache_class is not None
                    else 0
                ),
            )
        )
    return table


def oracle_annotations(trace: Trace, config: CoreConfig) -> List[Annotation]:
    """Per-record oracle annotations, computed columnarly.

    Equal, record for record, to calling
    ``OracleAnnotator(config).annotate`` on each record.
    """
    mispredicted, il1_miss, _ = oracle_miss_columns(trace)
    # Stores carry a D-cache class too (the timing ignores it).
    op = trace.op
    dcode = np.where(
        (op == LOAD_CODE) | (op == STORE_CODE),
        np.where(
            trace.dl2_miss == 1,
            DCODE_LONG,
            np.where(trace.dl1_miss == 1, DCODE_SHORT, DCODE_L1_HIT),
        ),
        DCODE_NONE,
    )
    keys = (
        (mispredicted.astype(np.int64) << 3)
        | (il1_miss.astype(np.int64) << 2)
        | dcode
    )
    table = annotation_table(config)
    return [table[key] for key in keys.tolist()]
