"""Edge stream analytics (paper §V.B).

"'Edge analytics' leveraging stream operations before reaching remote
storage" is one of the paper's named manifestations of the edge paradigm.
This package provides a small distributed stream-processing substrate:

* :mod:`repro.streams.operators` -- typed operators: sources,
  tumbling-window aggregates, and sinks;
* :mod:`repro.streams.dataflow` -- a dataflow graph of operators placed
  on devices, tuples flowing between hosts over the simulated network,
  with operator re-placement on host failure.

The point the substrate makes measurable: aggregating at the edge
reduces the volume shipped upstream by the windowing factor while keeping
per-tuple latency edge-local.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "Operator": "operators",
    "SinkOperator": "operators",
    "SourceOperator": "operators",
    "StreamTuple": "operators",
    "WindowAggregateOperator": "operators",
    "Dataflow": "dataflow",
    "OperatorPlacement": "dataflow",
}
__all__ = sorted(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
