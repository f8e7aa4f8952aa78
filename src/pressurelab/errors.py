"""Exception taxonomy shared by all pressurelab modules.

Every error that crosses a module boundary is one of these, so the CLI can
map failures to machine-readable records and stable exit codes.
"""


class PressureLabError(Exception):
    """Base class for all library errors."""


class EnumerationBudgetExceeded(PressureLabError):
    """A computation would materialize more items than the enumeration
    budget allows: words, suffixes, depths, tree nodes, horizons or orbit
    symbols, as ``unit`` names. Raised by ``symbolic.check_budget`` alone."""

    def __init__(self, count, budget, unit):
        super().__init__(f"enumeration of {count} {unit} exceeds the budget of {budget}")
        self.count = count
        self.budget = budget
        self.unit = unit


class ScaleTooCoarse(PressureLabError):
    """The requested scale 2^-m is too coarse for this operation."""


class InsufficientDepth(PressureLabError):
    """A word is too short to determine the requested quantity exactly."""


class InadmissibleWord(PressureLabError):
    """A word violates the transition relation (or a potential-table domain)."""


class ReducibleSystem(PressureLabError):
    """The transition structure is not irreducible; restrict to a component."""


class NonInvariantMeasure(PressureLabError):
    """A Markov measure's initial row is not stationary for its transitions."""


class EmptyTarget(PressureLabError):
    """The finite-depth approximation of the target subset contains no words."""


class DepthTooShallow(PressureLabError):
    """The tree depth L is smaller than the minimum ball depth N + m."""


class SchemaError(PressureLabError):
    """A configuration document failed validation.

    Carries the full list of problems so a caller sees every violation at
    once instead of fixing them one by one.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(f"invalid configuration: {lines}")
