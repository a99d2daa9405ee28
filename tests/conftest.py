import itertools
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, settings
from hypothesis import strategies as st

from trigonal import BlockSystem, BranchedCover, Permutation, conjugate, induced_action, product

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)
settings.load_profile("suite")

FIXTURES = Path(__file__).parent / "fixtures"


def induced_cover(cover, points):
    """The cover induced on ``points``, sheet sets numbered from 1, with
    trivially acting labels dropped: built entry by entry through
    ``induced_action`` and checked by ``BranchedCover``, an oracle for
    the derived covers and components."""
    entries = [(label, induced_action(perm, points)) for label, perm in cover.entries()]
    return BranchedCover.from_pairs(
        len(points), [(label, action) for label, action in entries if not action.is_identity()]
    )


@pytest.fixture(scope="session")
def fixture_doc():
    def load(name):
        return json.loads((FIXTURES / name).read_text())

    return load


@pytest.fixture(scope="session")
def fixture_text():
    def load(name):
        return (FIXTURES / name).read_text()

    return load


def permutations(degree):
    return st.permutations(range(1, degree + 1)).map(lambda seq: Permutation(tuple(seq)))


def nontrivial_permutations(degree):
    return permutations(degree).filter(lambda p: not p.is_identity())


@st.composite
def product_one_tuples(draw, degree, length):
    """length nontrivial permutations multiplying to the identity,
    built by drawing all but the last and solving for it."""
    assert length >= 2
    head = draw(
        st.lists(nontrivial_permutations(degree), min_size=length - 1, max_size=length - 1)
    )
    last = product(head, degree).inverse()
    assume(not last.is_identity())
    return head + [last]


@st.composite
def transitive_covers(draw, degree, length=6):
    perms = draw(product_one_tuples(degree, length))
    cover = BranchedCover.from_pairs(
        degree, [(f"p{i:02d}", perm) for i, perm in enumerate(perms, start=1)]
    )
    if not cover.is_connected():
        # adjoin a full cycle and its inverse to force one orbit
        cycle = Permutation.from_cycles(degree, [tuple(range(1, degree + 1))])
        perms = perms + [cycle, cycle.inverse()]
        cover = BranchedCover.from_pairs(
            degree, [(f"p{i:02d}", perm) for i, perm in enumerate(perms, start=1)]
        )
    return cover


@st.composite
def disconnected_covers(draw, degree):
    """Two transitive covers side by side on disjoint sheets under shared
    labels (a label one side lacks acts trivially there), relabelled by a
    random permutation; ``degree`` is at least 4."""
    left_degree = draw(st.integers(2, degree - 2))
    left = draw(transitive_covers(left_degree))
    right = draw(transitive_covers(degree - left_degree))
    rho = draw(permutations(degree))
    entries = []
    for label in sorted(set(left.labels) | set(right.labels)):
        shifted = tuple(left_degree + s for s in right.perm_at(label).images)
        entries.append((label, conjugate(Permutation(left.perm_at(label).images + shifted), rho)))
    return BranchedCover.from_pairs(degree, entries)


def block_preserving_permutations():
    """Degree-6 permutations preserving the pairing {1,2}{3,4}{5,6}."""
    blocks = ((1, 2), (3, 4), (5, 6))

    def build(action_and_bits):
        action, bits = action_and_bits
        images = [0] * 6
        for b, (x, y) in enumerate(blocks):
            tx, ty = blocks[action[b] - 1]
            if bits[b]:
                tx, ty = ty, tx
            images[x - 1] = tx
            images[y - 1] = ty
        return Permutation(tuple(images))

    return st.tuples(
        st.permutations([1, 2, 3]).map(tuple),
        st.tuples(st.booleans(), st.booleans(), st.booleans()),
    ).map(build)


CANONICAL_BLOCKS = BlockSystem.from_pairs([(1, 2), (3, 4), (5, 6)])


def _preserves_blocks(perm, blocks):
    return {frozenset(map(perm, b)) for b in blocks} == {frozenset(b) for b in blocks}


S6 = tuple(map(Permutation, itertools.permutations(range(1, 7))))


def block_group(blocks):
    """The 48 degree-6 permutations preserving ``blocks``."""
    return tuple(p for p in S6 if _preserves_blocks(p, blocks))


BLOCK_GROUP = block_group(CANONICAL_BLOCKS)


def _pairings(sheets):
    if not sheets:
        yield ()
        return
    for partner in sheets[1:]:
        for rest in _pairings([s for s in sheets[1:] if s != partner]):
            yield ((sheets[0], partner),) + rest


# the fifteen ways to pair the six sheets into blocks
BLOCK_SYSTEMS = tuple(BlockSystem(pairs) for pairs in _pairings(list(range(1, 7))))
S4 = tuple(map(Permutation, itertools.permutations(range(1, 5))))
