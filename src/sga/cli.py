"""Command-line interface.

Exit codes: 0 ok, 2 parse error, 3 precondition violation (a closed
standard output too), 4 a verified identity failed (a
``TheoremViolation``, printed as ``theorem violation: ...``).
"""

from __future__ import annotations

import argparse
import os
import sys

from .admissible import classify, is_admissible
from .errors import ParseError, SgaError, TheoremViolation, route_mismatch
from .homgraph import (build_H, build_HQ, classify_components, generalized_diagonal,
                       real_long_bijection, to_dot, winding_to_dot)
from .invariants import c_set, e_comb, enumerate_components, g_comb
from .parsing import parse_module, parse_quiver, parse_tag, parse_word, print_quiver
from .quiver import as_fringing, auto_fringe, check_fringing, gabriel_presentation, \
    tilde_vertices, validate
from .words import (enumerate_bands, enumerate_strings_at, format_word, is_band,
                    is_string, string_labels, tau_string)


def _load_quiver(path: str):
    """The quiver of the file at path: exit 3 when it cannot be read, 2
    when it is not UTF-8 (naming the offset of the first bad byte) or does
    not parse."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise SgaError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8: byte {data[exc.start]:#04x} "
                         f"at offset {exc.start}") from None
    return parse_quiver(text)


def _slot(text: str):
    v, comma, s = text.rpartition(",")
    if not comma or s.strip() not in ("+", "-"):
        raise ParseError(f"malformed slot {text!r}, expected VERTEX,SIGN")
    return (v, 1 if s.strip() == "+" else -1)


def _max_len(text: str) -> int:
    """argparse type of --max-len: a length budget of at least 1."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


class _Tag(argparse.Action):
    """A parsed tag option; argparse passes the value of ``--tag=--`` as []."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, parse_tag("--" if values == [] else values))
        except ParseError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None


def _note_truncation(truncated: bool) -> None:
    """Tell stderr that --max-len cut off longer words."""
    if truncated:
        print("# truncated at max-len", file=sys.stderr)


def _quiver(args, allow: bool = False):
    """The quiver file; exit 3 unless polarized, and skewed-gentle or ``allow``."""
    q = _load_quiver(args.quiver)
    rep = validate(q)
    if not rep.is_polarized:
        raise SgaError(f"quiver is not polarized: {'; '.join(rep.diagnostics)}")
    if not rep.is_skewed_gentle and not allow:
        raise SgaError("quiver is not skewed-gentle/admissible (use "
                       "--allow-nonadmissible for word-level commands)")
    return q


def _agree(what: str, routes: dict) -> None:
    """Print each route's value, by route name; exit 4 with every route and
    value named unless they all agree."""
    for k in sorted(routes):
        print(f"{k}: {routes[k]}")
    why = route_mismatch(what, routes)
    if why:
        raise TheoremViolation(why)


def _fringing(q, spec_text: str):
    if spec_text == "auto":
        return auto_fringe(q)
    return as_fringing(q, _load_quiver(spec_text))


def _adm_word(q, text: str, allow: bool = False):
    """The word of ``text``; exit 3 unless it is admissible or ``allow`` is set."""
    letters, band = parse_word(q, text)
    x = classify(q, letters, band=band)
    ok, why = (True, "") if allow else is_admissible(q, letters, band=band)
    if not ok:
        raise SgaError(f"not an admissible word ({why}): {x}")
    return x


def _module(text: str, x, p: int):
    """The module literal over GF(p), refused (exit 3) before any route runs
    unless p is an odd prime and it lives over the algebra of x's word type."""
    from .gf import check_prime
    from .repmod import check_module
    check_prime(p)
    X = parse_module(text, p)
    check_module(x, X)
    return X


def cmd_check(args) -> int:
    q = _load_quiver(args.quiver)
    rep = validate(q)
    print(f"polarized:     {rep.is_polarized}")
    print(f"admissible:    {rep.is_admissible}")
    print(f"skewed-gentle: {rep.is_skewed_gentle}")
    print(f"gentle:        {rep.is_gentle}")
    for d in rep.diagnostics:
        print(f"note: {d}")
    gp = None
    if rep.is_skewed_gentle:
        gp = gabriel_presentation(q)
        print(f"split vertices: {len(gp.vertices)}, split arrows: "
              f"{len(gp.arrows)}, relations: {len(gp.relations)}")
    return 0


def cmd_strings(args) -> int:
    q = _quiver(args)
    slot = _slot(args.at)
    words, truncated = enumerate_strings_at(q, slot, args.max_len)
    for w in words:
        labels = string_labels(q, w)
        suffix = ("   [" + " ".join(labels) + "]") if labels else ""
        print(format_word(w) + suffix)
    _note_truncation(truncated)
    return 0


def cmd_bands(args) -> int:
    q = _quiver(args, allow=True)
    for w in enumerate_bands(q, args.max_len):
        print("band: " + format_word(w))
    return 0


def cmd_adm(args) -> int:
    q = _quiver(args, args.allow_nonadmissible)
    if args.word:
        x, band = parse_word(q, args.word)
        ok, why = is_admissible(q, x, band=band)
        print(f"admissible: {ok}" + (f"  ({why})" if why else ""))
        if ok and not band:
            print(f"type: {classify(q, x).wtype}")
        return 0
    from .checks import checked_adm
    sets = checked_adm(q, args.max_len)
    for x in sets.strings:
        print(f"{x.wtype}: {x}")
    for x in sets.bands:
        print(f"b: band: {x}")
    _note_truncation(sets.truncated)
    return 0


def cmd_tau(args) -> int:
    q = _quiver(args)
    if args.adm:
        from .checks import checked_tau
        t = checked_tau(q, _adm_word(q, args.adm))
        print(f"{t.wtype}: {t}")
        return 0
    letters, band = parse_word(q, args.word)
    if not (is_band if band else is_string)(q, letters):
        raise SgaError(f"not a {'band' if band else 'string'} of the quiver: "
                       f"{format_word(letters)}")
    print(("band: " if band else "") + format_word(tau_string(q, letters)))
    return 0


def cmd_hquiver(args) -> int:
    q = _quiver(args, args.allow_nonadmissible)
    x = _adm_word(q, args.x, args.allow_nonadmissible)
    if args.y:
        y = _adm_word(q, args.y, args.allow_nonadmissible)
        g = build_HQ(q, x, y)
        if args.dot:
            print(to_dot(g))
        else:
            rep = classify_components(g)
            real_long_bijection(g, rep)
            for c in rep.plus:
                flags = [k for k in ("real", "dual_real", "hline", "dual_hline",
                                     "kiss", "dual_kiss") if getattr(c, k)]
                if generalized_diagonal(g, c):
                    flags.append("generalized_diagonal")
                print(f"{c.ctype}: {sorted(c.vertices)} {' '.join(flags)}")
        return 0
    h = build_H(q, x)
    if args.dot:
        print(winding_to_dot(h))
    else:
        print(f"shape {h.shape}; labels "
              + " ".join(f"{v}:{h.vlabel[v]}" for v in h.vertices))
    return 0


def cmd_hom(args) -> int:
    from .repmod import build_module, hom_dim_formula, hom_dim_oracle
    q = _quiver(args)
    x = _adm_word(q, args.x)
    y = _adm_word(q, args.y)
    X, Y = _module(args.X, x, args.field), _module(args.Y, y, args.field)
    routes = {}
    if args.mode in ("formula", "both"):
        routes["formula"] = hom_dim_formula(q, x, X, y, Y)
    if args.mode in ("oracle", "both"):
        routes["oracle"] = hom_dim_oracle(build_module(q, x, X), build_module(q, y, Y))
    _agree("HOM", routes)
    return 0


def _require_pair(a, b, name_a: str, name_b: str) -> None:
    if bool(a) != bool(b):
        raise ParseError(f"{name_a} and {name_b} must be given together")


def cmd_einv(args) -> int:
    _require_pair(args.tag_x, args.tag_y, "--tag-x", "--tag-y")
    _require_pair(args.X, args.Y, "--X", "--Y")
    if not (args.tag_x or args.X):
        raise ParseError("einv needs --tag-x/--tag-y or --X/--Y")
    q = _quiver(args)
    fr = _fringing(q, args.fringe)
    x = _adm_word(q, args.x)
    y = _adm_word(q, args.y)
    if args.X:
        X, Y = _module(args.X, x, args.field), _module(args.Y, y, args.field)
    if args.tag_x:
        print(f"e_comb: {e_comb(q, fr, (x, args.tag_x), (y, args.tag_y))}")
    if args.X:
        from .repmod import E_formula, E_oracle
        _agree("E", {"E_formula": E_formula(q, fr, x, X, y, Y),
                     "E_oracle": E_oracle(q, x, X, y, Y)})
    return 0


def cmd_gvec(args) -> int:
    if not (args.tag or args.module):
        raise ParseError("gvec needs --tag or --module")
    q = _quiver(args)
    fr = _fringing(q, args.fringe)
    x = _adm_word(q, args.x)
    if args.module:
        X = _module(args.module, x, args.field)
        if args.tag and not any((X.dim, X.T, X.S) == (C.dim, C.T, C.S)
                                for C in c_set(x, args.tag, args.field)):
            raise SgaError(f"module {X.label} is not in the family of tag "
                           f"{args.tag} on {x}, so no identity relates them")
    routes = {}
    if args.tag:
        routes["comb"] = g_comb(q, fr, x, args.tag)
    if args.module:
        from .repmod import g_oracle
        routes["oracle"] = g_oracle(q, x, X)
    _agree("GVEC", {k: "(" + ",".join(str(g[v]) for v in tilde_vertices(q)) + ")"
                    for k, g in routes.items()})
    return 0


def cmd_fringe(args) -> int:
    q = _quiver(args)
    if args.check:
        ext = _load_quiver(args.check)
        ok = check_fringing(q, ext)
        print(f"valid fringing: {ok}")
        return 0 if ok else 3
    fr = auto_fringe(q)
    sys.stdout.write(print_quiver(fr.extended))
    return 0


def cmd_components(args) -> int:
    q = _quiver(args)
    fr = _fringing(q, args.fringe)
    labels, matrix, truncated = enumerate_components(q, fr, args.max_len)
    order = tilde_vertices(q)
    header = ["id", "word", "tag", "type", "dim", "g"]
    print("\t".join(header))
    for i, l in enumerate(labels):
        dim = ",".join(str(l.dim[k]) for k in order)
        g = ",".join(str(l.g[k]) for k in order)
        word = ("band: " if l.word.wtype == "b" else "") + str(l.word)
        print(f"{i}\t{word}\t{l.tag}\t{l.word.wtype}\t({dim})\t({g})")
    print("# pairwise generic E matrix")
    for row in matrix:
        print("\t".join(str(v) for v in row))
    _note_truncation(truncated)
    return 0


def cmd_selftest(args) -> int:
    from .checks import CHECKS, Budget, checked_adm, verify
    from .gf import check_prime
    q = _quiver(args)
    check_prime(args.field)
    sets = checked_adm(q, args.max_len)
    print(f"adm ok: {len(sets.strings)} strings, {len(sets.bands)} bands")
    _note_truncation(sets.truncated)
    budget = Budget(args.max_len, args.field, 1)
    for check in CHECKS:
        print(check.summary(verify(check, q, budget)))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="sga",
                                 description="skewed-gentle string calculus")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("quiver", help="quiver DSL file")
        p.set_defaults(fn=fn)
        return p

    add("check", cmd_check)
    p = add("strings", cmd_strings)
    p.add_argument("--at", required=True, help="slot, e.g. 1,-")
    p.add_argument("--max-len", type=_max_len, default=20)
    p = add("bands", cmd_bands)
    p.add_argument("--max-len", type=_max_len, default=10)
    p = add("adm", cmd_adm)
    p.add_argument("--max-len", type=_max_len, default=8)
    p.add_argument("--word", help="test a single word instead of enumerating")
    p.add_argument("--allow-nonadmissible", action="store_true")
    p = add("tau", cmd_tau)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--word", help="base-quiver string or band")
    g.add_argument("--adm", help="admissible word over the hat quiver")
    p = add("hquiver", cmd_hquiver)
    p.add_argument("--x", required=True)
    p.add_argument("--y")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--allow-nonadmissible", action="store_true")
    p = add("hom", cmd_hom)
    p.add_argument("--x", required=True)
    p.add_argument("--X", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--Y", required=True)
    p.add_argument("--mode", choices=["formula", "oracle", "both"],
                   default="both")
    p.add_argument("--field", type=int, default=5)
    p = add("einv", cmd_einv)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--tag-x", action=_Tag)
    p.add_argument("--tag-y", action=_Tag)
    p.add_argument("--X")
    p.add_argument("--Y")
    p.add_argument("--fringe", default="auto")
    p.add_argument("--field", type=int, default=5)
    p = add("gvec", cmd_gvec)
    p.add_argument("--x", required=True)
    p.add_argument("--tag", action=_Tag)
    p.add_argument("--module")
    p.add_argument("--fringe", default="auto")
    p.add_argument("--field", type=int, default=5)
    p = add("fringe", cmd_fringe)
    p.add_argument("--check", help="validate this extended quiver instead")
    p = add("components", cmd_components)
    p.add_argument("--max-len", type=_max_len, default=8)
    p.add_argument("--fringe", default="auto")
    p = add("selftest", cmd_selftest)
    p.add_argument("--max-len", type=_max_len, default=6)
    p.add_argument("--field", type=int, default=5)

    args = ap.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()   # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout (``sga components ... | head -1``): point
        # it at os.devnull, as the Python docs advise, so that the flush at
        # exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output closed", file=sys.stderr)
        return 3
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 4
    except SgaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
