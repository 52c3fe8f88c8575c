"""The seeded test quivers stay the same quivers.

The tests and ``perfbench`` read their sweeps, goldens and digests off
``random_skewed_gentle_quiver`` at fixed seeds and flags, so a change to the
search that picked another quiver would change them all; the printed quiver
of each is pinned here.
"""

import hashlib

import pytest

from sga.parsing import print_quiver
from sga.randquiver import random_skewed_gentle_quiver


@pytest.mark.parametrize("seed, flags, digest", [
    (3, {}, "57461c92bea4dc4a7c984678b6bcc0a0b576e8d9e819964a91c3b5cb2056699b"),
    (7, {}, "602244761bd22c218651e453efbd0907e18111b34ca8c81650f8ef90fde04fb7"),
    (7, {"max_words": 150},
     "a15e682390a9171b35a9f620f9faeea8100df457d0bc46d613e761fe4c01d4fa"),
    (9, {}, "96a408d935e33b5074630d557944fe0ed042b89a355197ac0102000ae22cdec2"),
    (11, {}, "1600362ae05b85865d94373477eae42aee6a25891f80c24096e7548b582934b7"),
    (11, {"forbid_pp": True},
     "1600362ae05b85865d94373477eae42aee6a25891f80c24096e7548b582934b7"),
    (42, {}, "6178fd57225eb173c102edb9ba73eb80dfd19f5c82e2a00228cb8234597e271d"),
])
def test_seeded_quiver_is_pinned(seed, flags, digest):
    text = print_quiver(random_skewed_gentle_quiver(seed, **flags))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
