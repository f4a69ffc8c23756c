"""Result record shared by the exact and iterative minimum-uncertainty solvers."""

from dataclasses import dataclass, field


@dataclass
class UdeaOutcome:
    """Minimum uncertainty, achieved score and capability for one unit.

    ``upsilon`` is None for incapable units.  The exact path fills
    ``facet``/``facet_index`` and ``attainable`` (False when the attaining
    facet is an output-axis facet, whose threshold is strict); the iterative
    path fills ``trace`` (the (sigma, score) pairs it solved or proved
    efficient, sorted by sigma: grid points probed by the search, then the
    cap if it was tried)
    and ``bracket``, a width-``t`` interval containing the true minimum.
    """

    dmu: int
    upsilon: float = None
    gamma: float = None
    capable: bool = False
    facet: object = None
    facet_index: int = None
    attainable: bool = True
    trace: list = field(default_factory=list)
    bracket: tuple = None
