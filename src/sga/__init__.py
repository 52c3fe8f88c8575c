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

__all__ = [
    "AdmWord", "Arrow", "AxModule", "E_oracle", "Fringing", "GabrielPresentation",
    "HomGraph", "Letter", "PolarizedQuiver", "Rep", "Winding", "Word", "a_of_w",
    "admissible", "auto_fringe", "build_H", "build_HQ", "build_module",
    "check_fringing", "classify", "classify_components", "completion", "e_comb",
    "enumerate_adm", "enumerate_bands", "enumerate_components",
    "enumerate_strings_at", "errors", "format_word", "g_comb", "g_oracle",
    "gabriel_presentation", "gf", "hat_quiver", "hom_basis_oracle",
    "hom_basis_structured", "hom_dim_formula", "hom_dim_oracle", "homalg", "homgraph",
    "indecomposables_Ax", "invariants", "is_admissible", "is_tau_generic",
    "iso_witness", "kiss_census", "kisses", "lex_compare", "quiver", "real_long_bijection",
    "repmod", "simplified_check", "successor", "tags_for", "tau_adm", "tau_module",
    "tau_string", "validate", "words",
]
__version__ = "0.1.0"


def __getattr__(name: str):
    import importlib
    if name in _ORACLE_MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORACLE:
        return getattr(importlib.import_module(f"{__name__}.{_ORACLE[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
