"""Text formats: the quiver DSL, word literals, tags, and module labels.

Quiver files are line oriented with '#' comments:

    vertex <id>
    arrow <name> <src>:<+|-> -> <tgt>:<+|->
    special <name> <vertex>

Words are whitespace-separated letters: `a` direct, `a-` inverse, `e*`
special, `1(i,+)` trivial, `1(i,+)-` trivial inverse; a leading `band:`
marks a band.  Tags are `++`, `+-`, `-+`, `--`, `*`, `**`.  Modules are
`Vo`, `V+`, `V-`, `V(m,t)`, `W(m,+)`, `W(m,-)`, `Wchi(m,+)`, `Wchi(m,-)`,
`Vt(m,t)`.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .quiver import Arrow, PolarizedQuiver
from .words import (Letter, Word, invl, ordl, spel, tinvl, trivl)

_ARROW_RE = re.compile(
    r"^arrow\s+(\S+)\s+(\S+):([+-])\s*->\s*(\S+):([+-])\s*$")


def parse_quiver(text: str) -> PolarizedQuiver:
    vertices: list[str] = []
    arrows: list[Arrow] = []
    specials: list[tuple[str, str, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise ParseError("vertex takes exactly one id", ln, 1)
            if parts[1] in vertices:
                raise ParseError(f"duplicate vertex {parts[1]}", ln, 1)
            vertices.append(parts[1])
        elif parts[0] == "arrow":
            m = _ARROW_RE.match(line)
            if not m:
                raise ParseError("malformed arrow line", ln, 1)
            name, src, s_sign, tgt, t_sign = m.groups()
            for v in (src, tgt):
                if v not in vertices:
                    raise ParseError(f"unknown vertex {v}", ln, line.index(v) + 1)
            arrows.append(Arrow(name, src, 1 if s_sign == "+" else -1,
                                tgt, 1 if t_sign == "+" else -1))
        elif parts[0] == "special":
            if len(parts) != 3:
                raise ParseError("special takes a name and a vertex", ln, 1)
            name, v = parts[1], parts[2]
            if v not in vertices:
                raise ParseError(f"unknown vertex {v}", ln, line.index(v) + 1)
            if any(sv == v for _, sv, _ in specials):
                raise ParseError(f"duplicate special at vertex {v}", ln, 1)
            specials.append((name, v, ln))
            arrows.append(Arrow(name, v, -1, v, -1, special=True))
        else:
            raise ParseError(f"unknown directive {parts[0]}", ln, 1)
    return PolarizedQuiver(vertices, arrows)


_TRIV_RE = re.compile(r"^1\((\S+?),([+-])\)(-?)$")


def parse_letter(q: PolarizedQuiver, tok: str) -> Letter:
    m = _TRIV_RE.match(tok)
    if m:
        v, sign, inv = m.groups()
        if v not in q.vertex_set:
            raise ParseError(f"unknown vertex {v} in trivial letter")
        s = 1 if sign == "+" else -1
        return tinvl(v, s) if inv else trivl(v, s)
    if tok.endswith("*"):
        name = tok[:-1]
        a = q.by_name.get(name)
        if a is None or not a.special:
            raise ParseError(f"{name} is not a special arrow")
        return spel(name)
    if tok.endswith("-"):
        name = tok[:-1]
        if name not in q.by_name:
            raise ParseError(f"unknown arrow {name}")
        return invl(name)
    if tok not in q.by_name:
        raise ParseError(f"unknown arrow {tok}")
    return ordl(tok)


def parse_word(q: PolarizedQuiver, text: str) -> tuple[Word, bool]:
    """(letters, is_band); validity is the caller's concern."""
    text = text.strip()
    band = False
    if text.startswith("band:"):
        band = True
        text = text[5:]
    toks = text.split()
    if not toks:
        raise ParseError("empty word")
    return tuple(parse_letter(q, t) for t in toks), band


def parse_tag(text: str) -> str:
    """A tag is its text form."""
    t = text.strip()
    if t not in ("++", "+-", "-+", "--", "*", "**"):
        raise ParseError(f"malformed tag {text}")
    return t


_MOD_RE = re.compile(r"^(Vt|V|W|Wchi)\((\d+),([+-]|\d+)\)$")


def parse_module(text: str, p: int) -> repmod.AxModule:
    from . import repmod
    t = text.strip()
    if t == "Vo":
        return repmod.module_k(p)
    if t == "V+":
        return repmod.module_V(1, p)
    if t == "V-":
        return repmod.module_V(-1, p)
    m = _MOD_RE.match(t)
    if not m:
        raise ParseError(f"malformed module literal {text}")
    kind, a, b = m.groups()
    if kind in ("V", "Vt") and not b.isdigit():
        raise ParseError(f"{kind} takes an integer parameter, not {b}, in {text}")
    if kind in ("W", "Wchi") and b.isdigit():
        raise ParseError(f"{kind} takes a sign, not {b}, in {text}")
    if int(a) < 1:
        raise ParseError(f"module size must be at least 1 in {text}")
    if kind == "V":
        return repmod.module_Vband(int(a), int(b), p)
    if kind == "Vt":
        return repmod.module_Vt(int(a), int(b), p)
    sign = 1 if b == "+" else -1
    return repmod.module_W(int(a), sign, p, chi=(kind == "Wchi"))


def print_quiver(q: PolarizedQuiver) -> str:
    lines = [f"vertex {v}" for v in q.vertices]
    for a in sorted(q.arrows, key=lambda a: a.name):
        if a.special:
            lines.append(f"special {a.name} {a.source}")
        else:
            ss = "+" if a.s_sign > 0 else "-"
            ts = "+" if a.t_sign > 0 else "-"
            lines.append(f"arrow {a.name} {a.source}:{ss} -> {a.target}:{ts}")
    return "\n".join(lines) + "\n"
