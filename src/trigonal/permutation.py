"""Permutations of sheet indices.

Sheets are numbered ``1 .. degree``.  One composition convention is used
everywhere in this package: ``compose(p, q)`` applies ``p`` first, then
``q``.  A product of monodromy entries written left to right therefore
acts with the leftmost factor first, and the product-one relation for a
branched cover reads "composing the entries in branch-point order gives
the identity".
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Permutation:
    """A bijection of ``{1, .., n}`` stored as its tuple of images.

    ``images[i - 1]`` is the image of sheet ``i``.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation needs degree at least 1")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection of 1..{n}: {self.images!r}")
        if not isinstance(self.images, tuple):
            object.__setattr__(self, "images", tuple(self.images))

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(1, degree + 1)))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        """Build a permutation from disjoint cycles; unlisted sheets are fixed."""
        images = list(range(1, degree + 1))
        seen: set[int] = set()
        for cycle in cycles:
            if len(cycle) != len(set(cycle)):
                raise ValueError(f"repeated sheet inside cycle {tuple(cycle)!r}")
            for sheet in cycle:
                if not 1 <= sheet <= degree:
                    raise ValueError(f"sheet {sheet} outside 1..{degree}")
                if sheet in seen:
                    raise ValueError(f"sheet {sheet} appears in two cycles")
                seen.add(sheet)
            for pos, sheet in enumerate(cycle):
                images[sheet - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    def __call__(self, sheet: int) -> int:
        return self.images[sheet - 1]

    def is_identity(self) -> bool:
        return all(img == i + 1 for i, img in enumerate(self.images))

    def inverse(self) -> "Permutation":
        images = [0] * self.degree
        for i, img in enumerate(self.images):
            images[img - 1] = i + 1
        return Permutation(tuple(images))

    def cycles(self, include_fixed: bool = False) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition, each cycle starting at its smallest sheet,
        cycles ordered by smallest sheet."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self(nxt)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return tuple(out)

    def cycle_through(self, sheet: int) -> tuple[int, ...]:
        """The cycle containing ``sheet``, rotated to start at its minimum."""
        cycle = [sheet]
        nxt = self(sheet)
        while nxt != sheet:
            cycle.append(nxt)
            nxt = self(nxt)
        pivot = cycle.index(min(cycle))
        return tuple(cycle[pivot:] + cycle[:pivot])

    def cycle_type(self) -> tuple[int, ...]:
        """Cycle lengths including fixed sheets, longest first."""
        lengths = [len(c) for c in self.cycles(include_fixed=True)]
        return tuple(sorted(lengths, reverse=True))

    def __str__(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return f"id[{self.degree}]"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Apply ``p`` first, then ``q``."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} vs {q.degree}")
    return Permutation(tuple(q(p(i)) for i in range(1, p.degree + 1)))


def product(perms: Sequence[Permutation], degree: int | None = None) -> Permutation:
    """Ordered product, leftmost factor applied first."""
    if not perms:
        if degree is None:
            raise ValueError("empty product needs an explicit degree")
        return Permutation.identity(degree)
    acc = perms[0]
    for p in perms[1:]:
        acc = compose(acc, p)
    return acc


def conjugate(p: Permutation, rho: Permutation) -> Permutation:
    """``rho^-1 . p . rho`` in apply-first order: ``x -> rho(p(rho^-1(x)))``."""
    return compose(compose(rho.inverse(), p), rho)


@functools.lru_cache(maxsize=None)
def induced_action(perm: Permutation, points: tuple[tuple[int, ...], ...]) -> Permutation:
    """The permutation ``perm`` induces on ``points``, an ordered tuple of
    sheet sets numbered from 1.

    Raises ``ValueError`` when a point names a sheet outside
    ``1..perm.degree`` or when its image is not one of the points.
    Memoized: every group acting in this package has at most 48
    elements and acts on a few fixed point tuples, and calls that raise
    are not stored, so the memo stays small.
    """
    index = {frozenset(point): i for i, point in enumerate(points, start=1)}
    images = []
    for point in points:
        if not all(1 <= sheet <= perm.degree for sheet in point):
            raise ValueError(f"point {point!r} names a sheet outside 1..{perm.degree}")
        image = tuple(perm(sheet) for sheet in point)
        try:
            images.append(index[frozenset(image)])
        except KeyError:
            raise ValueError(f"point {point!r} maps to {image!r}, which is not a point") from None
    return Permutation(tuple(images))


def orbits(perms: Sequence[Permutation], degree: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Orbits of the group generated by ``perms`` on the sheets.

    Union-find over ``1..degree``; returns sorted tuples ordered by their
    smallest element.  ``degree`` is required when ``perms`` is empty.
    """
    if perms:
        n = perms[0].degree
        if any(p.degree != n for p in perms):
            raise ValueError("orbits requires permutations of equal degree")
        if degree is not None and degree != n:
            raise ValueError(f"degree {degree} does not match permutations of degree {n}")
    elif degree is None:
        raise ValueError("orbits of an empty set needs an explicit degree")
    else:
        n = degree

    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i in range(1, n + 1):
            a, b = find(i), find(p(i))
            if a != b:
                parent[a] = b

    buckets: dict[int, list[int]] = {}
    for i in range(1, n + 1):
        buckets.setdefault(find(i), []).append(i)
    return tuple(tuple(sorted(b)) for b in sorted(buckets.values(), key=min))
