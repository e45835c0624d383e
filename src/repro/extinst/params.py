"""One parameter object for every selection entry point.

Historically each layer spelled "which selection do I want" differently:
``WorkloadLab.selection(algorithm, select_pfus)``, the engine's
:func:`~repro.engine.pipeline.make_spec` keyword soup, and the module
functions :func:`~repro.extinst.greedy.greedy_select` /
:func:`~repro.extinst.selective.selective_select` each with their own
tunable dataclass.  :class:`SelectionParams` is the single request shape
all of them now accept (legacy positional forms keep working for one
release); :func:`run_selection` is the algorithm-agnostic dispatcher.

Which algorithms exist — and which of these fields each one reads — is
the :mod:`repro.extinst.registry`'s business: validation, dispatch and
:meth:`SelectionParams.normalized` all consult it, so a registered
plugin participates in every entry point without touching this module.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.extinst.extraction import ExtractionParams
from repro.extinst.registry import (
    DEFAULT_GAIN_THRESHOLD,
    DEFAULT_MAX_PASSES,
    DEFAULT_RECONFIG_LATENCY,
    DEFAULT_STALL_PASSES,
    get_selector,
    registered_algorithms,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.extinst.selection import Selection
    from repro.extinst.selective import SelectiveParams
    from repro.profiling.profiler import ProgramProfile

#: Snapshot of the built-in algorithm names (legacy import surface).
#: Prefer :func:`repro.extinst.registry.registered_algorithms`, which
#: also sees plugins registered after import.
ALGORITHMS = registered_algorithms()


@dataclass(frozen=True)
class SelectionParams:
    """A fully specified selection request.

    ``select_pfus`` is the PFU budget the *selection* plans for (distinct
    from the hardware PFU count a later timing run models); ``None``
    means unlimited.  Each algorithm declares the tunables it reads in
    its registry :class:`~repro.extinst.registry.SelectorSpec`; fields
    outside that set are ignored by the algorithm and collapsed by
    :meth:`normalized` (greedy ignores ``select_pfus`` and
    ``gain_threshold`` by design, §4; only isegen reads the KL knobs).
    """

    algorithm: str = "selective"
    select_pfus: int | None = None
    gain_threshold: float = DEFAULT_GAIN_THRESHOLD
    extraction: ExtractionParams = field(default_factory=ExtractionParams)
    #: isegen: latency charged per cold configuration load when scoring.
    reconfig_latency: int = DEFAULT_RECONFIG_LATENCY
    #: isegen: hard cap on KL improvement passes.
    max_passes: int = DEFAULT_MAX_PASSES
    #: isegen: stop after this many consecutive non-improving passes.
    stall_passes: int = DEFAULT_STALL_PASSES

    def __post_init__(self) -> None:
        get_selector(self.algorithm)   # raises naming valid choices

    def normalized(self) -> "SelectionParams":
        """Collapse fields the algorithm ignores (stable cache identity).

        Every field the algorithm's registry spec does not declare as a
        tunable is reset to its default, and ``select_pfus`` is dropped
        for budget-blind algorithms — so two requests differing only in
        ignored knobs share cache keys and scheduler jobs.
        """
        spec = get_selector(self.algorithm)
        collapsed = replace(
            SelectionParams(algorithm=self.algorithm),
            select_pfus=self.select_pfus if spec.uses_select_pfus else None,
            **{t.name: getattr(self, t.name) for t in spec.tunables},
        )
        return self if collapsed == self else collapsed

    def selective_params(self) -> "SelectiveParams":
        """The equivalent :class:`~repro.extinst.selective.SelectiveParams`."""
        from repro.extinst.selective import SelectiveParams

        return SelectiveParams(
            gain_threshold=self.gain_threshold, extraction=self.extraction
        )


def params_to_json(params: SelectionParams) -> dict:
    """A :class:`SelectionParams` as a JSON field dict."""
    return asdict(params)


def params_from_json(doc: dict) -> SelectionParams:
    """Inverse of :func:`params_to_json`."""
    extraction = ExtractionParams(**doc.get("extraction", {}))
    return SelectionParams(**dict(doc, extraction=extraction))


def coerce_selection_params(
    algorithm: "str | SelectionParams",
    select_pfus: int | None = None,
) -> SelectionParams:
    """Normalise the legacy ``(algorithm, select_pfus)`` pair.

    Accepts either a ready :class:`SelectionParams` (``select_pfus`` must
    then be omitted) or the historical string form.
    """
    if isinstance(algorithm, SelectionParams):
        if select_pfus is not None:
            raise ConfigurationError(
                "pass select_pfus inside SelectionParams, not alongside it"
            )
        return algorithm.normalized()
    return SelectionParams(
        algorithm=algorithm, select_pfus=select_pfus
    ).normalized()


def run_selection(
    profile: "ProgramProfile", params: SelectionParams
) -> "Selection":
    """Dispatch ``params`` to its registered algorithm implementation."""
    params = params.normalized()
    return get_selector(params.algorithm).run(profile, params)


__all__ = [
    "ALGORITHMS",
    "DEFAULT_GAIN_THRESHOLD",
    "SelectionParams",
    "coerce_selection_params",
    "params_from_json",
    "params_to_json",
    "run_selection",
]
