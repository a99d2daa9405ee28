"""Regenerate the JSON fixtures under tests/fixtures/.

The three towers are built by hand from explicit permutations so the
fixtures do not depend on the sampler.  Everything else is derived
from them deterministically: the tetragonal fixture is a component of
the sections curve of the split tower, the result fixtures are the
constructions run on the fixtures, and the batch fixture pins a small
seeded run.  ``documents`` builds every payload; the suite compares
their canonical dumps with the files byte for byte.
"""
from __future__ import annotations

import sys
from pathlib import Path

from trigonal import (
    BlockSystem,
    BranchedCover,
    Permutation,
    TetragonalCover,
    construct,
    invert,
    run_batch,
    spread_configs,
    validate_tower,
)
from trigonal.jsonio import (
    batch_report_to_dict,
    cover_to_dict,
    dumps_canonical,
    forward_result_to_dict,
    inverse_result_to_dict,
    tower_to_dict,
)

FIXTURES = Path(__file__).resolve().parent.parent / "tests" / "fixtures"

BLOCKS = BlockSystem.from_pairs([(1, 2), (3, 4), (5, 6)])

# Involutions on six sheets, written as image tuples.  A and A2 both
# swap the first two blocks, C swaps the outer ones, F flips inside
# two blocks at once, F1 and F2 inside one each.
A = Permutation((3, 4, 1, 2, 5, 6))
A2 = Permutation((4, 3, 2, 1, 5, 6))
C = Permutation((5, 6, 3, 4, 1, 2))
F = Permutation((2, 1, 4, 3, 5, 6))
F1 = Permutation((2, 1, 3, 4, 5, 6))
F2 = Permutation((1, 2, 4, 3, 5, 6))


def hand_tower(h_perms, flip_perms):
    labels = [f"h{i:02d}" for i in range(1, len(h_perms) + 1)]
    labels += [f"f{i}" for i in range(1, len(flip_perms) + 1)]
    cover = BranchedCover.from_pairs(6, list(zip(labels, h_perms + flip_perms)))
    return validate_tower(cover, BLOCKS)


def documents() -> dict[str, dict]:
    """Every fixture payload, by file name."""
    etale = hand_tower([A, A2, A, A2, A, A, A, A, C, C], [])
    special = hand_tower([A, A2, A, A, A, A, A, A, C, C], [F])
    general = hand_tower([A, A2, A, A, A, A, A, A, C, C], [F1, F2])
    assert (etale.mode, special.mode, general.mode) == ("etale", "special", "general")
    assert etale.genus == special.genus == general.genus == 3

    part = construct(etale).sections.components[0]
    tetragonal = TetragonalCover(part.cover)
    assert tetragonal.stratum == "m0" and tetragonal.genus == 2

    batch = run_batch(
        "general-props", spread_configs("general-props", 4, 20260822, 3, 6), jobs=1
    )
    assert batch.passed

    return {
        "tower_etale_g3.json": tower_to_dict(etale),
        "tower_special_g3.json": tower_to_dict(special),
        "tower_general_g3.json": tower_to_dict(general),
        "tetragonal_m0_g2.json": cover_to_dict(tetragonal.cover),
        "forward_special_g3.json": forward_result_to_dict(construct(special)),
        "inverse_m0_g2.json": inverse_result_to_dict(invert(tetragonal)),
        "batch_pinned.json": batch_report_to_dict(batch),
    }


def main() -> int:
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, payload in documents().items():
        path = FIXTURES / name
        path.write_text(dumps_canonical(payload))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
