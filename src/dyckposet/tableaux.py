"""Hook lengths and standard Young tableau counting (Robinson-Frame-Thrall),
plus the maximal-chain / staircase-tableau correspondence."""

from __future__ import annotations

from math import comb, factorial
from typing import NamedTuple

from .checks import agree
from .paths import (DyckPath, Partition, cell_stats, enumerate_paths,
                    path_to_partition)
from .poset import build_poset, maximal_chains


class HookDiagram(NamedTuple):
    partition: Partition
    hooks: dict[tuple[int, int], int]

    def multiset(self) -> tuple[int, ...]:
        return tuple(sorted(self.hooks.values()))


def hook_lengths(partition: Partition) -> HookDiagram:
    hooks = {cell: stats.hook
             for cell, stats in cell_stats(partition).items()}
    return HookDiagram(partition=partition, hooks=hooks)


def syt_count(partition: Partition) -> int:
    """|lambda|! / product of hooks, checked to divide exactly."""
    diagram = hook_lengths(partition)
    denom = 1
    for h in diagram.hooks.values():
        denom *= h
    numer = factorial(partition.area)
    count, rem = divmod(numer, denom)
    if rem != 0:
        raise ArithmeticError("hook product does not divide the factorial")
    return count


def staircase_maxchain(n: int) -> int:
    """C(n,2)! / prod_{i=1..n-1} (2i-1)^{n-i}: maximal chains of D_n counted
    as staircase tableaux; 1 at n = 0 (an empty product)."""
    denom = 1
    for i in range(1, n):
        denom *= (2 * i - 1) ** (n - i)
    count, rem = divmod(factorial(comb(n, 2)), denom)
    if rem != 0:
        raise ArithmeticError("staircase hook product does not divide")
    return count


def _chain_to_filling(path_list: list[DyckPath],
                      chain: tuple[int, ...]) -> dict[tuple[int, int], int]:
    # Walk the chain, indices into path_list, downward from the maximum: the
    # diagram above the path grows by one cell per cover step, and that cell
    # gets the next label.
    filling: dict[tuple[int, int], int] = {}
    previous: set[tuple[int, int]] = set()
    step = 0
    for position, idx in enumerate(reversed(chain)):
        cells = set(path_to_partition(path_list[idx]).cells())
        if position > 0:
            added = cells - previous
            step += 1
            agree("cells added by a cover step and one", len(added), 1)
            filling[added.pop()] = step
        previous = cells
    return filling


def _is_standard(filling: dict[tuple[int, int], int],
                 shape: Partition) -> bool:
    if set(filling) != set(shape.cells()):
        return False
    values = sorted(filling.values())
    if values != list(range(1, shape.area + 1)):
        return False
    for (r, c), v in filling.items():
        if (r, c + 1) in filling and filling[(r, c + 1)] <= v:
            return False
        if (r + 1, c) in filling and filling[(r + 1, c)] <= v:
            return False
    return True


def maxchain_tableau_bijection_check(n: int) -> bool:
    """Numbering the cells in chain order turns each maximal chain of D_n
    into a distinct standard staircase tableau, and every tableau arises."""
    # the poset's element i is the i-th path of the canonical order
    path_list = enumerate_paths(n)
    chains = maximal_chains(build_poset(n))
    shape = Partition.staircase(n)
    fillings = set()
    for chain in chains:
        filling = _chain_to_filling(path_list, chain)
        if not _is_standard(filling, shape):
            return False
        fillings.add(frozenset(filling.items()))
    return len(fillings) == len(chains) == syt_count(shape)
