"""Exact combinatorics and finite-field representation calculus for
skewed-gentle algebras: strings, bands, admissible words, hom-graphs,
kisses, E-invariants, g-vectors, and tau-reduced component labels."""

from .quiver import (Arrow, Fringing, GabrielPresentation, PolarizedQuiver,
                     auto_fringe, check_fringing, gabriel_presentation,
                     hat_quiver, validate)
from .words import (Letter, Word, enumerate_bands, enumerate_strings_at,
                    format_word, lex_compare, successor, tau_string)
from .admissible import (AdmWord, a_of_w, classify, completion, enumerate_adm,
                         is_admissible, tau_adm)
from .homgraph import (HomGraph, Winding, build_H, build_HQ,
                       classify_components, real_long_bijection)
from .invariants import (e_comb, enumerate_components, g_comb, is_tau_generic,
                         kiss_census, simplified_check, tags_for)

# The GF(p) oracle (homalg and repmod, on gf) loads on first access to one
# of these names (PEP 562), so the word-level commands never pay for
# compiling and importing it on a cold start.
_ORACLE_MODULES = ("gf", "homalg", "repmod")
_ORACLE = {**dict.fromkeys(("Rep", "hom_basis_oracle", "hom_dim_oracle",
                            "iso_witness"), "homalg"),
           **dict.fromkeys(("AxModule", "E_oracle", "build_module", "g_oracle",
                            "hom_basis_structured", "hom_dim_formula",
                            "indecomposables_Ax", "tau_module"), "repmod")}

__all__ = [n for n in dir() if not n.startswith("_")] + \
    list(_ORACLE_MODULES) + list(_ORACLE)
__version__ = "0.1.0"


def __getattr__(name: str):
    import importlib
    if name in _ORACLE_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORACLE:
        return getattr(importlib.import_module(f"{__name__}.{_ORACLE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
