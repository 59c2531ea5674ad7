"""Built-in MCBound rules; importing this package registers all of them."""

from repro.staticcheck.rules.defaults import MutableDefaultRule
from repro.staticcheck.rules.exceptions import SilentExceptRule
from repro.staticcheck.rules.exports import ExportDriftRule
from repro.staticcheck.rules.floats import FloatEqualityRule
from repro.staticcheck.rules.ordering import UnorderedIterationRule
from repro.staticcheck.rules.randomness import UnseededRngRule
from repro.staticcheck.rules.timing import WallclockTimingRule

__all__ = [
    "ExportDriftRule",
    "FloatEqualityRule",
    "MutableDefaultRule",
    "SilentExceptRule",
    "UnorderedIterationRule",
    "UnseededRngRule",
    "WallclockTimingRule",
]
