"""The explicit Hom basis with asymmetric band modules on one side.

Asymmetric bands (symmetric ones fold to doubly punctured strings) carry
the band modules V(m, t). This sweep checks hom_basis_structured, verified
against the nullspace oracle, for every band of a random quiver with
V(m, m+1), m = 1, 2, 3, over GF(5), against every admissible word carrying
its first one-dimensional type-algebra module, in both directions.
"""

from sga.admissible import enumerate_adm
from sga.randquiver import random_skewed_gentle_quiver
from sga.repmod import hom_basis_structured, indecomposables_Ax, module_Vband

P = 5


def test_hom_basis_band_modules_against_all_words():
    q = random_skewed_gentle_quiver(7, max_words=150)
    sets = enumerate_adm(q, 8)
    words = list(sets.strings) + list(sets.bands)
    assert len(words) == 120 and len(sets.bands) == 6
    calls = 0
    for band in sets.bands:
        for m in (1, 2, 3):
            V = module_Vband(m, m + 1, P)
            for x in words:
                X = indecomposables_Ax(x.wtype, 1, P)[0]
                hom_basis_structured(q, band, V, x, X)
                hom_basis_structured(q, x, X, band, V)
                calls += 2
    assert calls == 4320
