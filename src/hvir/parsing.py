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
Module parameters: ``alpha,beta,F@<groupspec>``.  Every integer of the
input, the CLI's integer options included, is a run of at most
``groups.MAX_DIGITS`` ASCII digits read by ``_Scanner.digits``.
Windows come from ``hvir.groups``; the functions that read and print
tables import ``hvir.analysis`` when they run, so the other grammars do
not load it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import inf

from .algebra import AlgebraElement, BasisKey
from .errors import ParseError
from .groups import FULL_Q, MAX_DIGITS, TRIVIAL, Cyclic, Window, _reduced, cyclic, qk, supernatural
from .intermediate import ModuleParams

__all__ = [
    "parse_rational",
    "parse_element",
    "parse_group",
    "parse_params",
    "parse_table",
    "format_table",
]

# the blanks a field may have around its value and between its tokens
_BLANKS = " \t"


class _Scanner:
    """Cursor over one field of input text; ``digits`` reads every integer
    of the input and ``sign`` every sign, with 1-based offsets in errors."""

    def __init__(self, text, pos=0):
        self.text = text
        self.pos = pos

    def error(self, message, pos=None):
        raise ParseError(message, (self.pos if pos is None else pos) + 1)

    def at_end(self):
        return self.pos >= len(self.text)

    def peek(self):
        return "" if self.at_end() else self.text[self.pos]

    def skip_ws(self):
        text, pos = self.text, self.pos
        while pos < len(text) and text[pos] in _BLANKS:
            pos += 1
        self.pos = pos

    def expect(self, ch):
        if self.peek() != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def finish(self, value, what):
        """``value``, provided only blanks are left."""
        self.skip_ws()
        if not self.at_end():
            self.error("trailing input after %s" % what)
        return value

    def digits(self, what="a digit"):
        text = self.text
        start = pos = self.pos
        while pos < len(text) and "0" <= text[pos] <= "9":
            pos += 1
        self.pos = pos
        if pos == start:
            self.error("expected %s" % what)
        if pos - start > MAX_DIGITS:
            self.error(
                "literal of %d digits exceeds the cap of %d digits"
                % (pos - start, MAX_DIGITS),
                start,
            )
        return int(text[start:pos])

    def sign(self):
        """-1 after a ``-``, else 1; reads an optional ``+`` or ``-``."""
        ch = self.peek()
        if ch in ("+", "-"):
            self.pos += 1
        return -1 if ch == "-" else 1

    def integer(self):
        return self.sign() * self.digits()

    def ratio(self):
        """A rational as its reduced pair (num, den), den > 0."""
        num, den = self.integer(), 1
        if self.peek() == "/":
            self.pos += 1
            den_pos = self.pos
            den = self.digits()
            if den == 0:
                self.error("denominator must be positive", den_pos)
        return _reduced(num, den)

    def rational(self):
        return Fraction(*self.ratio())

    def word(self):
        start = self.pos
        while not self.at_end() and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


def _field(text, read, what):
    """``read(scanner)`` over the whole of ``text``, which may have blanks
    around the value and nothing else."""
    s = _Scanner(text)
    s.skip_ws()
    return s.finish(read(s), what)


def parse_rational(text):
    """Parse a full string as an exact rational."""
    return _field(text, _Scanner.rational, "rational")


def _parse_ratio(text):
    """Parse a full string as a rational's reduced pair (num, den)."""
    return _field(text, _Scanner.ratio, "rational")


def parse_natural(text, what):
    """Parse a full string as an unsigned run of digits."""
    return _field(text, _Scanner.digits, what)


def parse_integer(text, what):
    """Parse a full string as a run of digits with an optional sign."""
    return _field(text, _Scanner.integer, what)


def _parse_atom(s):
    start = s.pos
    name = s.word()
    if name in ("d", "I"):
        s.expect("(")
        index = s.rational()
        s.expect(")")
        return BasisKey(name, index)
    if name in ("CD", "CDI", "CI"):
        return BasisKey(name)
    s.error("expected a basis symbol", start)


def parse_element(text):
    """Parse the element grammar into canonical pruned form."""
    if text.strip(_BLANKS) == "0":
        return AlgebraElement()
    s = _Scanner(text)
    s.skip_ws()
    if s.at_end():
        s.error("empty element")
    terms = []
    sign = s.sign()
    while True:
        s.skip_ws()
        if "0" <= s.peek() <= "9":
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
        if s.peek() not in ("+", "-"):
            s.error("expected '+' or '-' between terms")
        sign = s.sign()
    return AlgebraElement(terms)


def _read_exponents(s):
    """The ``<p>^<e|inf>[,...]`` list of an ``sn:`` spec, read to its end."""
    exponents = {}
    while True:
        p_pos = s.pos
        p = s.digits()
        s.expect("^")
        e_pos = s.pos
        if s.text.startswith("inf", e_pos):
            s.pos += len("inf")
            e = inf
        else:
            e = s.digits("a digit or 'inf'")
            if e == 0:
                s.error("supernatural exponent must be positive", e_pos)
        if p in exponents:
            s.error("duplicate prime %d in supernatural spec" % p, p_pos)
        exponents[p] = e
        if s.at_end():
            return exponents
        s.expect(",")
        s.skip_ws()


def parse_group(text):
    """Parse and canonicalize a subgroup spec.  Error offsets count from
    the first non-blank character of the spec."""
    t = text.strip(_BLANKS)
    if t == "0":
        return TRIVIAL
    if t == "Q":
        return FULL_Q
    kind, colon, _ = t.partition(":")
    s = _Scanner(t, len(kind) + 1)
    s.skip_ws()
    if colon and kind == "qk":
        return qk(s.finish(s.digits(), "qk order"))
    if colon and kind == "cyclic":
        value, build, name = s.finish(s.rational(), "rational"), cyclic, "cyclic"
    elif colon and kind == "sn":
        value, build, name = _read_exponents(s), supernatural, "supernatural"
    else:
        raise ParseError("unknown group spec %r" % t)
    try:
        return build(value)
    except ValueError as exc:
        raise ParseError("bad %s spec %r: %s" % (name, t, exc)) from exc


def parse_qk_window(text):
    """Parse ``<k>:<bound>`` into the window of that bound over qk:<k>."""
    s = _Scanner(text)
    s.skip_ws()
    k = s.digits()
    s.expect(":")
    bound = s.finish(s.digits(), "window bound")
    return Window(qk(k), bound)


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


def parse_table(text):
    """Parse an action-table file.

    The first non-blank line is ``window <groupspec> <bound>``; every
    following non-blank line is ``<generator> <source> <target>
    <coefficient>`` with whitespace-separated fields.  Per-call
    ``functools.cache`` readers read each distinct generator field to its
    ints (r, g) once, each distinct source or target field to its window
    position once, and each distinct coefficient field to its reduced
    integer pair (num, den) once; the entries are checked by the one
    check of ``ActionTable``.
    """
    from .analysis import ActionTable, _checked_entries, _generator, _generator_key

    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if not lines:
        raise ParseError("empty table")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "window":
        raise ParseError("table header must be 'window <groupspec> <bound>'")
    bound = parse_natural(header[2], "table window bound")
    group = parse_group(header[1])
    if not isinstance(group, Cyclic):
        raise ParseError("table windows require a cyclic group spec")
    window = Window(group, bound)
    entries = {}
    generators = cache(lambda text: _generator(window, _field(text, _parse_atom, "generator")))
    positions = cache(lambda text: window._position(parse_rational(text)))
    coefficients = cache(_parse_ratio)
    for line in lines[1:]:
        fields = line.split()
        if len(fields) != 4:
            raise ParseError("table line needs 4 fields, got %r" % line)
        key = (*generators(fields[0]), positions(fields[1]))
        value = (positions(fields[2]), coefficients(fields[3]))
        if key in entries:
            raise ParseError("duplicate table entry for %s at %s"
                             % (_generator_key(window, *key[:2]), key[2] * window.step))
        entries[key] = value
    try:
        return ActionTable._trusted(window, _checked_entries(window, entries.items()))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_table(table):
    """Inverse of :func:`parse_table` for the same file format.  Each
    index and, through a per-call ``functools.cache``, each distinct
    coefficient pair is printed once."""
    from .analysis import _printed_order

    window = table.window
    lines = ["window %s %d" % (window.group, window.bound)]
    # the printed index of each position
    labels = {n: str(q) for n, q in enumerate(window.indices(), -window.bound)}
    # a reduced pair prints as its Fraction does
    texts = cache(lambda coeff: str(coeff[0]) if coeff[1] == 1 else "%d/%d" % coeff)
    for name, _, n, m, coeff in _printed_order(window, table._entries.items()):
        lines.append("%s %s %s %s" % (name, labels[n], labels[m], texts(coeff)))
    return "\n".join(lines) + "\n"
