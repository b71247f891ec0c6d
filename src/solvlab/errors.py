"""Exception types shared across the package.

Every error raised on purpose by the library derives from SolvLabError, so
callers can catch one base class at the CLI boundary.
"""


class SolvLabError(Exception):
    """Base class for all library errors."""


class MalformedPermutation(SolvLabError):
    """Image sequence is not a bijection on 1..n."""


class DegreeMismatch(SolvLabError):
    """Two permutations (or a permutation and a group) act on different point sets."""


class DegreeTooLarge(SolvLabError):
    """A degree above 256 points, more than a permutation's raw images can hold."""


class CycleSyntaxError(SolvLabError):
    """Cycle notation could not be parsed.

    Attributes:
        offset: byte offset into the input text where parsing failed.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class RepeatedPoint(CycleSyntaxError):
    """A point occurs twice in one permutation's cycle notation."""


class PointOutOfRange(CycleSyntaxError):
    """A point lies outside 1..degree."""


class FormatError(SolvLabError):
    """A group file violates the expected line format.

    Attributes:
        line: 1-based line number of the offending line.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


class InvalidParameter(SolvLabError):
    """Family parameters fail validation (wrong primality, size, divisibility)."""


class OrderExceedsCap(SolvLabError):
    """Enumeration refused: the group order exceeds the configured cap.

    Attributes:
        order: the actual group order.
        cap: the configured limit.
    """

    def __init__(self, order: int, cap: int):
        super().__init__(f"group order {order} exceeds enumeration cap {cap}")
        self.order = order
        self.cap = cap


class NotInGroup(SolvLabError):
    """An element was expected to lie in a given group but does not."""


class NotNormal(SolvLabError):
    """A subgroup passed where a normal subgroup is required."""


class NotSoluble(SolvLabError):
    """An operation defined only for soluble groups was called on an insoluble one."""


class GroupSoluble(SolvLabError):
    """An operation defined only for insoluble groups was called on a soluble one."""


class NotInvariantSet(SolvLabError):
    """The acted-on set is not closed under the acting group's conjugation."""


class SubgroupChainViolated(SolvLabError):
    """The subgroup H does not satisfy C_G(x) <= H <= N_G(<x>)."""


class NormalizerIsWholeGroup(SolvLabError):
    """The bound needs an element outside N_G(<x>), but N_G(<x>) = G."""


class EngineInvariantViolated(SolvLabError):
    """A fact that holds for every input failed; signals an engine bug."""


class BurnsideNonIntegral(EngineInvariantViolated):
    """Fixed-point sum not divisible by the group order; signals an engine bug."""


class InvalidBase(SolvLabError):
    """q is not a prime power >= 2."""


class PrimalityRangeError(SolvLabError):
    """Deterministic primality witnesses are not proven for inputs this large."""


class NotConstructible(SolvLabError):
    """No permutation model of the required group is available within the cap."""
