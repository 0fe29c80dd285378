"""Text grammars for algebra elements, group specs, module parameters
and action-table files.

Element grammar (recursive descent, 1-based error offsets):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := [coeff '*'] atom
    atom     := 'd(' rational ')' | 'I(' rational ')' | 'CD' | 'CDI' | 'CI'
    coeff    := rational
    rational := int ['/' posint]

The single token ``0`` denotes the zero element.  Group specs: ``0``,
``cyclic:<rational>``, ``qk:<k>``, ``sn:<p>^<e|inf>[,...]``, ``Q``.
Module parameters: ``alpha,beta,F@<groupspec>``.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .algebra import CD, CDI, CI, AlgebraElement, I, d
from .analysis import ActionTable, Window, _entry_order
from .errors import ParseError
from .groups import FULL_Q, TRIVIAL, Cyclic, cyclic, qk, supernatural
from .intermediate import ModuleParams

__all__ = [
    "parse_rational",
    "parse_element",
    "parse_group",
    "parse_params",
    "parse_table",
    "format_table",
]


# Longest digit run accepted in one rational literal: Python's default
# limit for int-string conversion, so every literal it converts parses.
MAX_LITERAL_DIGITS = 4300


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message, pos=None):
        raise ParseError(message, (self.pos if pos is None else pos) + 1)

    def at_end(self):
        return self.pos >= len(self.text)

    def peek(self):
        return "" if self.at_end() else self.text[self.pos]

    def skip_ws(self):
        while not self.at_end() and self.text[self.pos] in " \t":
            self.pos += 1

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def digits(self):
        start = self.pos
        while not self.at_end() and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a digit")
        if self.pos - start > MAX_LITERAL_DIGITS:
            self.error(
                "literal of %d digits exceeds the cap of %d digits"
                % (self.pos - start, MAX_LITERAL_DIGITS),
                start,
            )
        return self.text[start:self.pos]

    def rational(self):
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        elif self.peek() == "+":
            self.pos += 1
        num = int(self.digits())
        if self.peek() == "/":
            self.pos += 1
            den_pos = self.pos
            den = int(self.digits())
            if den == 0:
                self.error("denominator must be positive", den_pos)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def word(self):
        start = self.pos
        while not self.at_end() and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


def parse_rational(text):
    """Parse a full string as an exact rational."""
    s = _Scanner(text)
    s.skip_ws()
    value = s.rational()
    s.skip_ws()
    if not s.at_end():
        s.error("trailing input after rational")
    return value


def _parse_atom(s):
    start = s.pos
    name = s.word()
    if name in ("d", "I"):
        s.expect("(")
        index = s.rational()
        s.expect(")")
        return d(index) if name == "d" else I(index)
    if name == "CD":
        return CD
    if name == "CDI":
        return CDI
    if name == "CI":
        return CI
    s.error("expected a basis symbol", start)


def parse_element(text):
    """Parse the element grammar into canonical pruned form."""
    s = _Scanner(text)
    s.skip_ws()
    if s.peek() == "0":
        mark = s.pos
        s.pos += 1
        s.skip_ws()
        if s.at_end():
            return AlgebraElement()
        s.pos = mark
    if s.at_end():
        s.error("empty element")
    terms = []
    sign = 1
    if s.peek() == "-":
        sign = -1
        s.pos += 1
    elif s.peek() == "+":
        s.pos += 1
    while True:
        s.skip_ws()
        if s.peek().isdigit():
            coeff = s.rational()
            s.skip_ws()
            s.expect("*")
            s.skip_ws()
        else:
            coeff = Fraction(1)
        key = _parse_atom(s)
        terms.append((key, sign * coeff))
        s.skip_ws()
        if s.at_end():
            break
        ch = s.peek()
        if ch == "+":
            sign = 1
        elif ch == "-":
            sign = -1
        else:
            s.error("expected '+' or '-' between terms")
        s.pos += 1
    return AlgebraElement(terms)


def parse_group(text):
    """Parse and canonicalize a subgroup spec."""
    t = text.strip()
    if t == "0":
        return TRIVIAL
    if t == "Q":
        return FULL_Q
    if t.startswith("cyclic:"):
        body = t[len("cyclic:"):]
        try:
            return cyclic(parse_rational(body))
        except ValueError as exc:
            raise ParseError("bad cyclic spec %r: %s" % (t, exc)) from exc
    if t.startswith("qk:"):
        body = t[len("qk:"):]
        if not body.isdigit():
            raise ParseError("qk spec needs a non-negative integer, got %r" % body)
        return qk(int(body))
    if t.startswith("sn:"):
        body = t[len("sn:"):]
        exponents = {}
        for chunk in body.split(","):
            if "^" not in chunk:
                raise ParseError("supernatural entry %r needs prime^exponent" % chunk)
            p_text, e_text = chunk.split("^", 1)
            if not p_text.isdigit():
                raise ParseError("bad prime %r in supernatural spec" % p_text)
            p = int(p_text)
            if e_text == "inf":
                e = inf
            elif e_text.isdigit() and int(e_text) >= 1:
                e = int(e_text)
            else:
                raise ParseError("bad exponent %r in supernatural spec" % e_text)
            if p in exponents:
                raise ParseError("duplicate prime %d in supernatural spec" % p)
            exponents[p] = e
        try:
            return supernatural(exponents)
        except ValueError as exc:
            raise ParseError("bad supernatural spec %r: %s" % (t, exc)) from exc
    raise ParseError("unknown group spec %r" % t)


def parse_params(text):
    """Parse ``alpha,beta,F@<groupspec>`` into module parameters."""
    if "@" not in text:
        raise ParseError("module parameters need the form alpha,beta,F@groupspec")
    triple, group_text = text.rsplit("@", 1)
    fields = triple.split(",")
    if len(fields) != 3:
        raise ParseError("expected three comma-separated rationals before '@'")
    alpha, beta, f = (parse_rational(field) for field in fields)
    group = parse_group(group_text)
    try:
        return ModuleParams(alpha, beta, f, group)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_generator(text):
    s = _Scanner(text)
    s.skip_ws()
    key = _parse_atom(s)
    s.skip_ws()
    if not s.at_end():
        s.error("trailing input after generator")
    if key.is_central:
        raise ParseError("table generators must be d(...) or I(...) symbols")
    return key


def parse_table(text):
    """Parse an action-table file.

    The first non-blank line is ``window <groupspec> <bound>``; every
    following non-blank line is ``<generator> <source> <target>
    <coefficient>`` with whitespace-separated fields.
    """
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("empty table")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "window":
        raise ParseError("table header must be 'window <groupspec> <bound>'")
    group = parse_group(header[1])
    if not isinstance(group, Cyclic):
        raise ParseError("table windows require a cyclic group spec")
    if not header[2].isdigit():
        raise ParseError("table window bound must be a positive integer")
    window = Window(group, int(header[2]))
    entries = {}
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise ParseError("table line needs 4 fields, got %r" % line)
        key = _parse_generator(fields[0])
        src = parse_rational(fields[1])
        tgt = parse_rational(fields[2])
        coeff = parse_rational(fields[3])
        if (key, src) in entries:
            raise ParseError("duplicate table entry for %s at %s" % (key, src))
        entries[(key, src)] = (tgt, coeff)
    try:
        return ActionTable(window, entries)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_table(table):
    """Inverse of :func:`parse_table` for the same file format."""
    lines = ["window %s %d" % (table.window.group, table.window.bound)]
    for (key, src), (tgt, coeff) in sorted(table.entries.items(), key=_entry_order):
        lines.append("%s %s %s %s" % (key, src, tgt, coeff))
    return "\n".join(lines) + "\n"
