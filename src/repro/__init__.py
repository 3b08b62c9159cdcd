"""repro — skimmed sketches for data-stream join aggregates.

A from-scratch reproduction of *"Processing Data-Stream Join Aggregates
Using Skimmed Sketches"* (Ganguly, Garofalakis, Rastogi; EDBT 2004):
single-pass, small-space estimation of ``COUNT``/``SUM``/``AVERAGE``
aggregates over joins of update streams (inserts *and* deletes), with the
paper's skimmed-sketch estimator as the headline API and every baseline it
compares against implemented alongside.

Quick start::

    import numpy as np
    from repro import SkimmedSketchSchema

    schema = SkimmedSketchSchema(width=200, depth=11, domain_size=1 << 16,
                                 seed=42)
    f, g = schema.create_sketch(), schema.create_sketch()
    f.update(17)            # insert value 17 into stream F
    g.update(17)
    g.update(23, -1.0)      # delete an occurrence of 23 from stream G
    print(f.est_join_size(g))

Package map (details in DESIGN.md):

* :mod:`repro.core` — skimming + the skimmed-sketch join estimator;
* :mod:`repro.sketches` — AGMS, hash sketches, COUNTSKETCH top-k, dyadic;
* :mod:`repro.hashing` — k-wise independent hash/sign families;
* :mod:`repro.streams` — stream model, generators, query engine, multi-join;
* :mod:`repro.baselines` — exact / sampling / bifocal / partitioned AGMS;
* :mod:`repro.parallel` — sharded parallel ingestion with exact merge;
* :mod:`repro.workloads` — adversarial workload corpus + accuracy gate;
* :mod:`repro.eval` — the paper's evaluation methodology and experiments.
"""

from __future__ import annotations

import importlib
from typing import Any

#: Public name -> the submodule that defines it.  Nothing is imported
#: until a name is first read (PEP 562), so ``import repro.obs`` and its
#: sibling observability packages load without numpy.
_EXPORTS = {
    **dict.fromkeys(
        (
            "DeletionUnsupportedError",
            "DomainError",
            "IncompatibleSketchError",
            "QueryError",
            "ReproError",
        ),
        ".errors",
    ),
    **dict.fromkeys(
        (
            "JoinEstimateBreakdown",
            "SketchParameters",
            "SkimResult",
            "SkimmedSketch",
            "SkimmedSketchSchema",
            "est_skim_join_size",
            "est_sub_join_size",
            "skim_dense",
            "skim_dense_dyadic",
        ),
        ".core",
    ),
    **dict.fromkeys(
        (
            "AGMSSchema",
            "AGMSSketch",
            "DyadicHashSketch",
            "DyadicSketchSchema",
            "HashSketch",
            "HashSketchSchema",
            "StreamSynopsis",
            "TopKSketch",
        ),
        ".sketches",
    ),
    "BulkHashCache": ".hashing",
    "ParallelStreamEngine": ".parallel",
    "ShardedIngestor": ".parallel",
    "FrequencyVector": ".streams",
    "StreamEngine": ".streams",
    "Update": ".streams",
    **dict.fromkeys(
        (
            "SerializationError",
            "load_sketch",
            "merge_sketch_state",
            "save_sketch",
            "sketch_from_spec",
            "sketch_from_state",
            "sketch_spec",
            "sketch_state",
        ),
        ".sketches.serialize",
    ),
}


def __getattr__(name: str) -> Any:
    """Import the submodule behind a public name on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [*sorted(_EXPORTS), "__version__"]
