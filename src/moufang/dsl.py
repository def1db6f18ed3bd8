"""Text syntax and rendering for diagrams.

Grammar::

    expr   := term (("∘" | ";") term)*
    term   := factor (("⊗" | "*") factor)*
    factor := NAME ["%0" | "%+"] | "id(" INT ")" | "(" expr ")"
    NAME   := mul | comul | unit | counit | swap

";" composes left to right (top to bottom on the page), "∘" right to left.
The canonical printer emits ";" and "*" only.  A parse builds one port
graph for the whole text and returns its canonical form: one slicer run.
"""

from __future__ import annotations

import re

from .diagram import (
    ARITY,
    MAX_WIRES,
    ArityMismatch,
    Diagram,
    DiagramError,
    _canonical_from_graph,
    _check_generator,
    _Graph,
    canonicalize,
    identity,
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


class _Wiring:
    """A piece of the one port graph a parse builds, numbered as in
    `diagram._Graph`.  Each piece is read once, so `join` extends the
    left operand's lists in place."""

    def __init__(self, n_in: int, nodes: list, rows: list, outs: list):
        self.n_in, self.nodes, self.rows, self.outs = n_in, nodes, rows, outs

    def join(self, other: "_Wiring", beside: bool) -> "_Wiring":
        """`other` beside this piece or below it: its nodes follow these,
        and its boundary inputs move past these or read these outputs."""
        shift, n, outs = 2 * len(self.nodes), self.n_in, self.outs

        def port(p: int) -> int:
            return p + shift if p >= 0 else p - n if beside else outs[~p]

        self.nodes += other.nodes
        self.rows += [tuple(map(port, row)) for row in other.rows]
        self.outs = (outs if beside else []) + [port(p) for p in other.outs]
        if beside:
            self.n_in += other.n_in
            if max(self.n_in, len(self.outs)) > MAX_WIRES:
                raise DiagramError(
                    f"diagram exceeds {MAX_WIRES} parallel wires")
        return self


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
        w = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise SyntaxErrorAt(f"unexpected trailing input {value!r}", pos)
        return _canonical_from_graph(_Graph(
            w.n_in, len(w.outs), w.nodes, w.rows, tuple(w.outs)))

    def expr(self) -> _Wiring:
        w = self.term()
        while True:
            kind, value, pos = self.peek()
            if kind == "op" and value in (";", "∘"):
                self.next()
                rhs = self.term()
                first, second = (w, rhs) if value == ";" else (rhs, w)
                if len(first.outs) != second.n_in:
                    raise ArityMismatch(
                        f"cannot compose: first factor has {len(first.outs)} "
                        f"outputs, second expects {second.n_in} inputs, "
                        f"composing at position {pos} of {self.text!r}")
                w = first.join(second, False)
            else:
                break
        return w

    def term(self) -> _Wiring:
        w = self.factor()
        while True:
            kind, value, _pos = self.peek()
            if kind == "op" and value in ("*", "⊗"):
                self.next()
                w = w.join(self.factor(), True)
            else:
                break
        return w

    def factor(self) -> _Wiring:
        kind, value, pos = self.next()
        if kind == "op" and value == "(":
            w = self.expr()
            self.expect_op(")")
            return w
        if kind == "name":
            name, _, label = value.partition("%")
            if name == "id":
                self.expect_op("(")
                tkind, tvalue, tpos = self.next()
                if tkind != "int":
                    raise SyntaxErrorAt("expected wire count after id(", tpos)
                self.expect_op(")")
                n = identity(int(tvalue)).n_in  # refuses a width out of range
                return _Wiring(n, [], [], [~i for i in range(n)])
            if name not in ARITY:
                raise SyntaxErrorAt(f"unknown generator {name!r}", pos)
            _check_generator(name, label or None)
            if name == "swap":
                return _Wiring(2, [], [], [~1, ~0])
            k, m = ARITY[name]
            return _Wiring(k, [(name, label or None)],
                           [tuple(~i for i in range(k))], list(range(m)))
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


def _strokes(d: Diagram):
    """The drawing of a diagram in grid units (wire column, slice row), top
    to bottom: ``("line", x1, y1, x2, y2)`` and ``("node", x, y, kind,
    label)``.  Wire columns are ints; rows and node centres are floats."""
    y = 0.0
    for (kind, label, off), w in zip(d.slices, d.widths()):
        k, m = ARITY[kind]
        for i in range(w):  # pass-through wires
            if not off <= i < off + k:
                yield "line", i, y, i if i < off else i + m - k, y + 1
        if kind == "swap":
            yield "line", off, y, off + 1, y + 1
            yield "line", off + 1, y, off, y + 1
        else:
            cx, mid = off + (max(k, m) - 1) / 2, y + 0.5
            for i in range(k):
                yield "line", off + i, y, cx, mid
            for i in range(m):
                yield "line", cx, mid, off + i, y + 1
            yield "node", cx, mid, kind, label
        y += 1
    for i in range(d.n_out):
        yield "line", i, y, i, y + 1


def _svg_render(d: Diagram) -> str:
    step, pad = 40, 20
    width = pad * 2 + max([1, *d.widths()]) * step
    height = pad * 2 + (len(d.slices) + 1) * step

    def x(i: float) -> float:
        return pad + step / 2 + i * step

    def y(r: float) -> float:
        return pad + r * step

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
    ]
    for shape, x1, y1, *rest in _strokes(d):
        if shape == "line":
            x2, y2 = rest
            parts.append(f'<line x1="{x(x1)}" y1="{y(y1)}" x2="{x(x2)}" '
                         f'y2="{y(y2)}" stroke="black"/>')
            continue
        cx, cy, label = x(x1), y(y1), rest[1]
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="black"/>')
        if label:
            parts.append(f'<text x="{cx + 6}" y="{cy - 6}" font-size="10">'
                         f'{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _tikz_render(d: Diagram) -> str:
    lines = [r"\begin{tikzpicture}[yscale=-1]"]
    for shape, x1, y1, *rest in _strokes(d):
        if shape == "line":
            x2, y2 = rest
            lines.append(rf"\draw ({x1},{y1}) -- ({x2},{y2});")
        else:
            kind, label = rest
            lines.append(rf"\node[fill=black,circle,inner sep=1.5pt,"
                         rf"label=right:{{{kind}{label or ''}}}] "
                         rf"at ({x1},{y1}) {{}};")
    lines.append(r"\end{tikzpicture}")
    return "\n".join(lines)


RENDERERS = {"ascii": _ascii_render, "svg": _svg_render, "tikz": _tikz_render}


def render(d: Diagram, format: str = "ascii") -> str:
    """Deterministic drawing of a canonical diagram, slices top to bottom."""
    d = canonicalize(d)
    if format not in RENDERERS:
        raise DiagramError(f"unknown render format {format!r}")
    return RENDERERS[format](d)
