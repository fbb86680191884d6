"""Finite abelian groups Z_{n1} x ... x Z_{nr} used as grading index sets.

Group elements are plain tuples of residues, e.g. (0,) and (1,) for Z_2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups given by their orders."""

    orders: tuple[int, ...]

    def __post_init__(self):
        if not self.orders or any(n < 1 for n in self.orders):
            raise InputError(f"cyclic orders must be positive: {self.orders}")

    @property
    def size(self) -> int:
        out = 1
        for n in self.orders:
            out *= n
        return out

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.orders)

    def elements(self) -> list[tuple[int, ...]]:
        """All elements in lexicographic order."""
        return list(itertools.product(*(range(n) for n in self.orders)))

    def contains(self, el: tuple[int, ...]) -> bool:
        return len(el) == len(self.orders) and all(
            0 <= r < n for r, n in zip(el, self.orders)
        )

    def check(self, el: tuple[int, ...]) -> tuple[int, ...]:
        el = tuple(int(r) for r in el)
        if not self.contains(el):
            raise InputError(f"{el} is not an element of {self}")
        return el

    def add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def addition_table(self) -> list[list[int]]:
        """Entry [a][b] is the position of elements()[a] + elements()[b] in elements()."""
        index = {el: t for t, el in enumerate(self.elements())}
        return [[index[self.add(a, b)] for b in index] for a in index]

    def __str__(self):
        return " x ".join(f"Z{n}" for n in self.orders)


def label_str(el: tuple[int, ...]) -> str:
    """JSON key for a group element: residues joined by commas."""
    return ",".join(str(r) for r in el)


def parse_label(s: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in s.split(","))
    except ValueError as exc:
        raise InputError(f"bad group label {s!r}") from exc
