"""Text syntax and rendering for diagrams.

Grammar::

    expr   := term (("∘" | ";") term)*
    term   := factor (("⊗" | "*") factor)*
    factor := NAME ["%0" | "%+"] | "id(" INT ")" | "(" expr ")"
    NAME   := mul | comul | unit | counit | swap

";" composes left to right (top to bottom on the page), "∘" right to left.
The canonical printer emits ";" and "*" only.  Parsing always returns the
canonical form of the diagram.
"""

from __future__ import annotations

import re

from .diagram import (
    ARITY,
    ArityMismatch,
    Diagram,
    DiagramError,
    canonicalize,
    compose,
    generator,
    identity,
    tensor,
)


class SyntaxErrorAt(DiagramError):
    """Parse failure carrying the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<name>[a-z]+)(?P<label>%0|%\+)?"
    r"|(?P<int>\d+)"
    r"|(?P<op>[();*∘⊗,]))"
)

_GENERATOR_NAMES = ("mul", "comul", "unit", "counit", "swap")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise SyntaxErrorAt(f"unexpected character {stripped[0]!r}",
                                len(text) - len(stripped))
        if m.lastgroup is None and not m.group().strip():
            pos = m.end()
            continue
        if m.group("name"):
            tokens.append(("name", m.group("name") + (m.group("label") or ""),
                           m.start("name")))
        elif m.group("int"):
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("op"):
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, pos = self.next()
        if kind != "op" or value != op:
            raise SyntaxErrorAt(f"expected {op!r}", pos)

    def parse(self) -> Diagram:
        d = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise SyntaxErrorAt(f"unexpected trailing input {value!r}", pos)
        return d

    def expr(self) -> Diagram:
        d = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in (";", "∘"):
                self.next()
                rhs = self.term()
                try:
                    d = compose(d, rhs) if value == ";" else compose(rhs, d)
                except ArityMismatch as exc:
                    raise ArityMismatch(
                        f"{exc}, composing at position {pos} of {self.text!r}"
                    ) from None
            else:
                break
        return d

    def term(self) -> Diagram:
        d = self.factor()
        while True:
            kind, value, _pos = self.peek()
            if kind == "op" and value in ("*", "⊗"):
                self.next()
                d = tensor(d, self.factor())
            else:
                break
        return d

    def factor(self) -> Diagram:
        kind, value, pos = self.next()
        if kind == "op" and value == "(":
            d = self.expr()
            self.expect_op(")")
            return d
        if kind == "name":
            name, _, label = value.partition("%")
            if name == "id":
                self.expect_op("(")
                tkind, tvalue, tpos = self.next()
                if tkind != "int":
                    raise SyntaxErrorAt("expected wire count after id(", tpos)
                self.expect_op(")")
                return identity(int(tvalue))
            if name not in _GENERATOR_NAMES:
                raise SyntaxErrorAt(f"unknown generator {name!r}", pos)
            return generator(name, label or None)
        raise SyntaxErrorAt(f"expected a diagram factor, got {value!r}", pos)


def parse(text: str) -> Diagram:
    """Parse the DSL and return the canonical diagram."""
    return _Parser(text).parse()


def print_diagram(d: Diagram) -> str:
    """Canonical printing: one term per slice, joined with ';'."""
    d = canonicalize(d)
    if not d.slices:
        return f"id({d.n_in})"
    widths = d.widths()
    parts = []
    for (kind, label, off), w in zip(d.slices, widths):
        k, _m = ARITY[kind]
        name = kind if label is None else f"{kind}%{label}"
        rest = w - off - k
        factors = ([f"id({off})"] if off > 0 else []) + [name] + (
            [f"id({rest})"] if rest > 0 else [])
        parts.append(" * ".join(factors))
    return " ; ".join(parts)


# --- rendering ----------------------------------------------------------

_ASCII_GLYPHS = {
    "mul": "\\_/",
    "comul": "/^\\",
    "unit": "[.]",
    "counit": "[']",
    "swap": " X ",
}


def _ascii_render(d: Diagram) -> str:
    widths = d.widths()
    col = 4  # characters per wire column

    def wire_row(w: int) -> str:
        return "".join("|".center(col) for _ in range(w)).rstrip()

    lines = [wire_row(d.n_in)]
    for (kind, label, off), w in zip(d.slices, widths):
        k, m = ARITY[kind]
        span = max(k, 1)
        glyph = _ASCII_GLYPHS[kind]
        if label:
            glyph = glyph[:-1] + label
        row = ""
        for i in range(w):
            if i == off:
                row += glyph.center(col * span)
            elif off < i < off + k:
                continue
            else:
                row += "|".center(col)
        lines.append(row.rstrip())
        lines.append(wire_row(w - k + m))
    if not d.slices:
        lines.append(wire_row(d.n_in))
    return "\n".join(lines)


def _svg_render(d: Diagram) -> str:
    widths = d.widths()
    step_x, step_y, pad = 40, 40, 20
    max_w = max(widths) if widths else 1
    width = pad * 2 + max(max_w - 1, 0) * step_x + step_x
    height = pad * 2 + (len(d.slices) + 1) * step_y

    def x(i: int) -> float:
        return pad + step_x / 2 + i * step_x

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    y = float(pad)
    w = d.n_in
    for (kind, label, off), w_before in zip(d.slices, widths):
        k, m = ARITY[kind]
        y2 = y + step_y
        w_after = w_before - k + m
        # pass-through wires
        for i in range(w_before):
            if off <= i < off + k:
                continue
            shift = 0 if i < off else (m - k)
            parts.append(
                f'<line x1="{x(i)}" y1="{y}" x2="{x(i + shift)}" y2="{y2}" '
                f'stroke="black"/>'
            )
        cx = x(off) if k == 0 and m == 0 else (
            (x(off) + x(off + max(k, m) - 1)) / 2 if max(k, m) > 1 else x(off)
        )
        if kind == "swap":
            parts.append(f'<line x1="{x(off)}" y1="{y}" x2="{x(off + 1)}" '
                         f'y2="{y2}" stroke="black"/>')
            parts.append(f'<line x1="{x(off + 1)}" y1="{y}" x2="{x(off)}" '
                         f'y2="{y2}" stroke="black"/>')
        else:
            mid = y + step_y / 2
            for i in range(k):
                parts.append(f'<line x1="{x(off + i)}" y1="{y}" x2="{cx}" '
                             f'y2="{mid}" stroke="black"/>')
            for i in range(m):
                parts.append(f'<line x1="{cx}" y1="{mid}" x2="{x(off + i)}" '
                             f'y2="{y2}" stroke="black"/>')
            parts.append(f'<circle cx="{cx}" cy="{mid}" r="4" fill="black"/>')
            if label:
                parts.append(
                    f'<text x="{cx + 6}" y="{mid - 6}" font-size="10">'
                    f'{label}</text>'
                )
        y = y2
        w = w_after
    for i in range(w):
        parts.append(f'<line x1="{x(i)}" y1="{y}" x2="{x(i)}" '
                     f'y2="{y + step_y}" stroke="black"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def _tikz_render(d: Diagram) -> str:
    widths = d.widths()
    lines = [r"\begin{tikzpicture}[yscale=-1]"]
    y = 0.0
    w = d.n_in
    for (kind, label, off), w_before in zip(d.slices, widths):
        k, m = ARITY[kind]
        y2 = y + 1.0
        for i in range(w_before):
            if off <= i < off + k:
                continue
            shift = 0 if i < off else (m - k)
            lines.append(rf"\draw ({i},{y}) -- ({i + shift},{y2});")
        if kind == "swap":
            lines.append(rf"\draw ({off},{y}) -- ({off + 1},{y2});")
            lines.append(rf"\draw ({off + 1},{y}) -- ({off},{y2});")
        else:
            cx = off + (max(k, m) - 1) / 2
            mid = y + 0.5
            for i in range(k):
                lines.append(rf"\draw ({off + i},{y}) -- ({cx},{mid});")
            for i in range(m):
                lines.append(rf"\draw ({cx},{mid}) -- ({off + i},{y2});")
            tag = kind if not label else f"{kind}{label}"
            lines.append(rf"\node[fill=black,circle,inner sep=1.5pt,"
                         rf"label=right:{{{tag}}}] at ({cx},{mid}) {{}};")
        y = y2
        w = w_before - k + m
    for i in range(w):
        lines.append(rf"\draw ({i},{y}) -- ({i},{y + 1.0});")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines)


def render(d: Diagram, format: str = "ascii") -> str:
    """Deterministic drawing of a canonical diagram, slices top to bottom."""
    d = canonicalize(d)
    if format == "ascii":
        return _ascii_render(d)
    if format == "svg":
        return _svg_render(d)
    if format == "tikz":
        return _tikz_render(d)
    raise DiagramError(f"unknown render format {format!r}")
