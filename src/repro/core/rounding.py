"""Rounding rational shares to integers (paper §3.3, "Rounding scheme").

The LP heuristic and the §4 closed form both produce an optimal *rational*
distribution ``n_1 .. n_p``.  The paper rounds it to integers ``n'_1 ..
n'_p`` such that ``Σ n'_i = n`` and ``|n'_i − n_i| < 1`` for every ``i`` —
exactly the property needed for the Eq. 4 guarantee

    T_opt  <=  T'  <=  T_opt + Σ_j Tcomm(j, 1) + max_i Tcomp(i, 1).

Two schemes are provided:

* :func:`round_paper` — the paper's scheme: repeatedly round the share
  closest to an integer in the direction that cancels the accumulated
  error, and absorb the final error into the last share.  (The paper's
  text says ``n'_k = n_k + e`` for that last share; the sign convention
  there is a typo — with ``e = Σ (n'_j − n_j)`` the sum-preserving choice
  is ``n'_k = n_k − e``, which is what we implement.)
* :func:`round_largest_remainder` — the classic Hamilton apportionment
  (floor everything, give the leftover units to the largest fractional
  parts), used as an ablation baseline; it satisfies the same invariants.

Both work in integers over one common denominator: the shares are put
over ``D``, the lcm of their denominators, once, so each share is an
integer ``N_i`` with fractional part ``r_i = N_i mod D``.  The paper's
procedure re-scans the pending shares for every pick (O(p²) ``Fraction``
work, kept as :func:`repro.verify.references.round_paper_reference`);
here each of its three orders — nearest the floor, nearest the ceiling,
nearest any integer — is sorted once with the same ``(key, i)``
tie-break, so a call costs O(p log p) integer comparisons and returns
the same counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Sequence, Tuple

__all__ = ["round_paper", "round_largest_remainder", "check_rounding"]


def _over_common_denominator(shares: Sequence[Fraction]) -> Tuple[List[int], int]:
    """``(N, D)`` with ``shares[i] == N[i] / D`` and ``D`` the lcm of denominators."""
    vals = [s if isinstance(s, (int, Fraction)) else Fraction(s) for s in shares]
    denom = math.lcm(*[v.denominator for v in vals])
    return [v.numerator * (denom // v.denominator) for v in vals], denom


def _validate_input(shares: Sequence[Fraction], n: int) -> Tuple[List[int], int]:
    nums, denom = _over_common_denominator(shares)
    if any(v < 0 for v in nums):
        raise ValueError(f"rational shares must be >= 0, got {shares!r}")
    total = sum(nums)
    if total != n * denom:
        raise ValueError(
            f"rational shares sum to {float(Fraction(total, denom))}, expected {n}"
        )
    return nums, denom


def round_paper(shares: Sequence[Fraction], n: int) -> Tuple[int, ...]:
    """The paper's error-cancelling rounding scheme (§3.3).

    Walks the non-integer shares from the one closest to an integer: the
    first is rounded to the nearest integer; each subsequent pick is the
    remaining share closest to its ceiling (when the accumulated error
    ``e = Σ (n'_j − n_j)`` is negative, i.e. we have under-allocated) or to
    its floor (when positive), keeping ``|e| < 1`` throughout.  The very
    last share absorbs the residue exactly.
    """
    nums, denom = _validate_input(shares, n)
    out = [v // denom for v in nums]
    rem = [v % denom for v in nums]
    pending = [i for i, r in enumerate(rem) if r]
    if not pending:
        return tuple(out)

    # Each order lists the pending indices by (distance, index): a stable
    # sort of the ascending ``pending`` keeps the index tie-break.
    by_floor = sorted(pending, key=rem.__getitem__)
    by_ceil = sorted(pending, key=lambda i: denom - rem[i])
    by_nearest = sorted(pending, key=lambda i: min(rem[i], denom - rem[i]))
    orders = (by_nearest, by_ceil, by_floor)
    heads = [0, 0, 0]
    done = [False] * len(nums)

    e = 0  # accumulated error Σ (n'_j − n_j), in units of 1/D
    for _ in range(len(pending) - 1):
        # 1: under-allocated, round up; 2: over-allocated, round down;
        # 0: no error yet, round to the nearest integer (halves go up).
        which = 1 if e < 0 else 2 if e > 0 else 0
        order, k = orders[which], heads[which]
        while done[order[k]]:
            k += 1
        heads[which] = k + 1
        idx = order[k]
        done[idx] = True
        r = rem[idx]
        if which == 1 or (which == 0 and 2 * r >= denom):
            out[idx] += 1
            e += denom - r
        else:
            e -= r

    # Absorb the residue: n'_k = n_k − e keeps the total exactly n.
    last = next(i for i in pending if not done[i])
    final, residue = divmod(nums[last] - e, denom)
    if residue:
        raise AssertionError(
            f"rounding residue is not integral: {Fraction(nums[last] - e, denom)}"
        )
    out[last] = final
    return _check_units(nums, denom, tuple(out), n)


def round_largest_remainder(shares: Sequence[Fraction], n: int) -> Tuple[int, ...]:
    """Hamilton / largest-remainder apportionment (ablation baseline)."""
    nums, denom = _validate_input(shares, n)
    out = [v // denom for v in nums]
    rem = [v % denom for v in nums]
    leftover = n - sum(out)
    # One extra unit to the `leftover` largest remainders, lowest index
    # first among equals (``reverse`` keeps the sort stable).
    for i in sorted(range(len(nums)), key=rem.__getitem__, reverse=True)[:leftover]:
        out[i] += 1
    return _check_units(nums, denom, tuple(out), n)


def _check_units(
    nums: Sequence[int], denom: int, counts: Tuple[int, ...], n: int
) -> Tuple[int, ...]:
    """:func:`check_rounding` on shares already put over ``denom``."""
    if len(nums) != len(counts):
        raise AssertionError("share/count length mismatch")
    if sum(counts) != n:
        raise AssertionError(f"rounded counts sum to {sum(counts)}, expected {n}")
    for i, (v, c) in enumerate(zip(nums, counts)):
        if c < 0:
            raise AssertionError(f"rounded count {i} is negative: {c}")
        if abs(c * denom - v) >= denom:
            share = float(Fraction(v, denom))
            raise AssertionError(
                f"rounded count {i} ({c}) differs from share ({share:.6g}) by >= 1"
            )
    return counts


def check_rounding(
    shares: Sequence[Fraction], counts: Tuple[int, ...], n: int
) -> Tuple[int, ...]:
    """Assert the §3.3 invariants and return ``counts``.

    Invariants: integer counts, non-negative, sum to ``n``, and each within
    one unit of its rational share (the hypothesis of Eq. 4).
    """
    nums, denom = _over_common_denominator(shares)
    return _check_units(nums, denom, counts, n)
