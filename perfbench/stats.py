"""Statistics the benchmark reports, kept apart so test_stats.py can pin them.

Rules (see README.md):
  * A percentile is reported only when at least MIN_BEYOND samples lie beyond
    it; asking for p95 of fewer than 200 samples is an error, not a number.
  * Every ratio names its base: per wall second, per round, per delivered
    admissible pair.
  * A round's time is the fastest of its repetitions: the episodes of a run
    repeat the same rounds, so the rest is the host's noise.
  * Metric names use the benchmark contract's charset.
"""

import math
import re

MIN_BEYOND = 10
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class TooFewSamples(ValueError):
    pass


def check_name(name):
    if not NAME_RE.match(name):
        raise ValueError(f"metric name {name!r} outside [A-Za-z0-9_.-], max 64")
    return name


def check_unit(unit):
    if not UNIT_RE.match(unit):
        raise ValueError(f"unit {unit!r} outside [A-Za-z0-9_/%.-], max 16")
    return unit


def samples_beyond(n, p):
    """Samples strictly above the p-th percentile of n samples."""
    return math.floor(n * (100.0 - p) / 100.0 + 1e-9)


def require_beyond(n, p):
    """Refuses a p-th percentile of n samples with too few samples beyond it."""
    if n == 0 or samples_beyond(n, p) < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; {n} samples give "
            f"{samples_beyond(n, p)}")


def percentile(values, p):
    """Linear-interpolated percentile of raw samples (numpy's default)."""
    require_beyond(len(values), p)
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    if not values:
        raise TooFewSamples("median of no samples")
    xs = sorted(values)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2.0


def fastest_per_round(episodes):
    """Per round, the least of its times over the episodes that repeat it."""
    lengths = {len(times) for times in episodes}
    if not episodes or len(lengths) != 1:
        raise ValueError(f"episodes must repeat the same rounds; round counts {sorted(lengths)}")
    return [min(times) for times in zip(*episodes)]


def ratio(numerator, base, base_name):
    """numerator / base, refusing an empty base instead of returning inf."""
    if base <= 0:
        raise ValueError(f"ratio base {base_name} is {base}")
    return numerator / base
