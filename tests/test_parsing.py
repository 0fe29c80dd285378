"""Grammars: elements, groups, parameters, tables, and round-trips."""

from fractions import Fraction
from math import inf
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import hvir.parsing as parsing

from hvir import (
    AlgebraElement,
    BasisKey,
    CD,
    CDI,
    CI,
    Cyclic,
    FULL_Q,
    I,
    ModuleParams,
    ParseError,
    Supernatural,
    TRIVIAL,
    cyclic,
    d,
    format_table,
    intermediate_series_table,
    parse_element,
    parse_group,
    parse_params,
    parse_rational,
    parse_table,
    qk,
    supernatural,
    Window,
)
from helpers import ReferenceScanner

F = Fraction


class TestRational:
    def test_integer(self):
        assert parse_rational("-7") == F(-7)

    def test_literals_up_to_the_digit_cap(self):
        assert parse_rational("-" + "9" * 4300) == -(10 ** 4300 - 1)
        assert parse_rational("1/" + "0" * 4299 + "1") == F(1)
        with pytest.raises(ParseError, match="literal of 4301 digits exceeds the cap of "
                                             "4300 digits at offset 4$"):
            parse_rational("12/" + "3" * 4301)

    def test_fraction(self):
        assert parse_rational("22/8") == F(11, 4)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_rational("1/2x")


class TestElement:
    def test_two_terms(self):
        parsed = parse_element("d(1/2) - 3*I(-2)")
        assert parsed == AlgebraElement([(d(F(1, 2)), 1), (I(-2), -3)])

    def test_bare_central(self):
        assert parse_element("CD") == AlgebraElement.basis(CD)

    def test_unbalanced_paren_position(self):
        with pytest.raises(ParseError) as info:
            parse_element("d(1/2")
        assert "offset 6" in str(info.value)
        assert info.value.position == 6

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_element("e(1)")

    def test_leading_minus(self):
        parsed = parse_element("-4*d(0) + 1/2*CD")
        assert parsed == AlgebraElement([(d(0), -4), (CD, F(1, 2))])

    def test_zero(self):
        assert parse_element("0").is_zero()
        assert parse_element(" 0 ").is_zero()

    def test_coefficient_without_star_rejected(self):
        with pytest.raises(ParseError):
            parse_element("3 d(1)")

    def test_all_atoms(self):
        parsed = parse_element("d(1) + I(1) + CD + CDI + CI")
        assert parsed == AlgebraElement(
            [(d(1), 1), (I(1), 1), (CD, 1), (CDI, 1), (CI, 1)]
        )

    def test_terms_merge(self):
        assert parse_element("d(1) + d(1)") == AlgebraElement([(d(1), 2)])
        assert parse_element("d(1) - d(1)").is_zero()


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
keys = st.one_of(
    rationals.map(d),
    rationals.map(I),
    st.sampled_from([CD, CDI, CI]),
)
elements = st.lists(st.tuples(keys, rationals), max_size=6).map(AlgebraElement)
groups = st.one_of(
    st.sampled_from([TRIVIAL, FULL_Q, qk(3)]),
    st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12).map(cyclic),
    st.dictionaries(
        st.sampled_from([2, 3, 5, 7]),
        st.one_of(st.just(inf), st.integers(1, 3)),
        min_size=1,
    ).map(supernatural),
)


class TestRoundTrip:
    @given(elements)
    def test_print_parse_round_trip(self, element):
        assert parse_element(str(element)) == element

    def test_golden_round_trips(self):
        for text in ("0", "d(1/2) - 3*I(-2) + 1/2*CD", "-4*d(0) + 1/2*CD"):
            assert str(parse_element(text)) == text

    @given(groups, st.sampled_from([" ", "\t", " \t "]))
    def test_blanks_after_colon_and_comma(self, group, blank):
        text = str(group).replace(":", ":" + blank).replace(",", "," + blank)
        assert parse_group(str(group)) == group
        assert parse_group(text) == group


class TestGroup:
    def test_trivial(self):
        assert parse_group("0") == TRIVIAL

    def test_full(self):
        assert parse_group("Q") == FULL_Q

    def test_cyclic(self):
        assert parse_group("cyclic:3/4") == cyclic(F(3, 4))

    def test_qk_canonicalizes(self):
        assert parse_group("qk:3") == Cyclic(F(1, 6))

    def test_supernatural(self):
        assert parse_group("sn:2^inf,3^2") == Supernatural(((2, inf), (3, 2)))

    def test_supernatural_collapse(self):
        assert parse_group("sn:2^2,3^1") == cyclic(F(1, 12))

    def test_cyclic_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_group("cyclic:0")

    def test_nonprime_rejected(self):
        with pytest.raises(ParseError):
            parse_group("sn:6^inf")

    def test_duplicate_prime_rejected(self):
        with pytest.raises(ParseError):
            parse_group("sn:2^inf,2^3")

    def test_unknown_tag(self):
        with pytest.raises(ParseError):
            parse_group("lattice:1")

    def test_round_trip_text(self):
        for text in ("0", "Q", "cyclic:3/4", "sn:2^inf,3^2"):
            assert str(parse_group(text)) == text


class TestParams:
    def test_basic(self):
        p = parse_params("1/5,2,3@qk:3")
        assert p == ModuleParams(F(1, 5), F(2), F(3), cyclic(F(1, 6)))

    def test_normalization_applies(self):
        p = parse_params("3/2,1,0@cyclic:1/2")
        assert p.alpha == 0

    def test_trivial_group_rejected(self):
        with pytest.raises(ParseError):
            parse_params("0,1,0@0")

    def test_missing_at_rejected(self):
        with pytest.raises(ParseError):
            parse_params("0,1,0")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError):
            parse_params("0,1@Q")


class TestTableFiles:
    def test_round_trip(self):
        p = ModuleParams(F(1, 5), F(2), F(3), qk(0))
        table = intermediate_series_table(p, Window(qk(0), 3))
        assert parse_table(format_table(table)) == table

    def test_header_required(self):
        with pytest.raises(ParseError):
            parse_table("d(1) 0 1 2\n")

    def test_duplicate_entry_rejected(self):
        text = "window cyclic:1 2\nd(1) 0 1 2\nd(1) 0 1 3\n"
        with pytest.raises(ParseError):
            parse_table(text)

    def test_central_generator_rejected(self):
        text = "window cyclic:1 2\nCD 0 0 1\n"
        with pytest.raises(ParseError):
            parse_table(text)

    def test_entry_outside_window_rejected(self):
        text = "window cyclic:1 2\nd(1) 2 3 5\n"
        with pytest.raises(ParseError):
            parse_table(text)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([qk(0), cyclic(F(1, 2)), qk(2)]), st.integers(1, 4), st.data())
    def test_scaled_round_trip(self, group, bound, data):
        window = Window(group, bound)
        fractions = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
        params = ModuleParams(data.draw(fractions), data.draw(fractions), data.draw(fractions),
                              group)
        scales = {q: data.draw(fractions.filter(bool)) for q in window.indices()}
        table = intermediate_series_table(params, window, scales)
        assert parse_table(format_table(table)) == table

    def test_blank_lines_ignored(self):
        text = "\nwindow cyclic:1 2\n\nd(1) 0 1 2\n\n"
        table = parse_table(text)
        assert len(table) == 1

    def test_each_distinct_field_is_parsed_once_per_call(self, monkeypatch):
        # index fields are read to rationals, coefficient fields to pairs
        rationals, ratios, generators = [], [], []
        parse_rational, parse_ratio = parsing.parse_rational, parsing._parse_ratio
        parse_atom = parsing._parse_atom
        monkeypatch.setattr(parsing, "parse_rational",
                            lambda text: rationals.append(text) or parse_rational(text))
        monkeypatch.setattr(parsing, "_parse_ratio",
                            lambda text: ratios.append(text) or parse_ratio(text))
        monkeypatch.setattr(parsing, "_parse_atom",
                            lambda s: generators.append(s.text) or parse_atom(s))
        text = "window cyclic:1 1\nd(0) -1 -1 1\nd(0) 0 0 1\nd(0) 1 1 2/4\nd(1) 0 1 1\n"
        for calls in (1, 2):
            assert len(parse_table(text)) == 4
            assert rationals == ["-1", "0", "1"] * calls
            assert ratios == ["1", "2/4"] * calls
            assert generators == ["d(0)", "d(1)"] * calls

    def test_each_distinct_generator_is_printed_once_per_call(self, monkeypatch):
        table = intermediate_series_table(ModuleParams(F(1, 5), 2, 3, qk(0)), Window(qk(0), 1))
        printed = []
        to_text = BasisKey.__str__
        monkeypatch.setattr(BasisKey, "__str__", lambda key: printed.append(key) or to_text(key))
        for calls in (1, 2):
            format_table(table)
            # d(g) and I(g) for each step g between the three indices
            assert len(printed) == 2 * 5 * calls
            assert len(set(printed)) == 2 * 5


def scan_outcome(parse, text):
    """The value of ``parse(text)``, or its ParseError message and offset."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.position


# blanks, ASCII and non-ASCII digits, operators, brackets and letters
SCANNER_ALPHABET = " \t0123456789٣²/+-*()dICDx"
scanner_texts = st.one_of(
    st.text(SCANNER_ALPHABET, max_size=12),
    st.lists(st.sampled_from(["d(", "I(", ")", "CD", "CDI", "CI", "*", "+", "-", "/",
                              " ", "\t", "0", "3", "12", "٣", "²", "x"]),
             max_size=10).map("".join),
)


class TestScannerOracle:
    """``parse_rational`` and ``parse_element`` read the same values and
    raise the same messages at the same offsets as with the per-character
    scanner."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from([parse_rational, parse_element]), scanner_texts)
    @example(parse_rational, " -" + "9" * 4300 + "/7\t")
    @example(parse_rational, "1/" + "3" * 4301)
    @example(parse_element, "\t" + "1" * 4301 + "*d(1)")
    def test_matches_per_character_scanner(self, parse, text):
        fast = scan_outcome(parse, text)
        with mock.patch.object(parsing, "_Scanner", ReferenceScanner):
            slow = scan_outcome(parse, text)
        assert fast == slow


class TestDigitReader:
    """One digit reader for every integer: ASCII 0-9, at most 4300
    digits, offsets counted within the parsed field."""

    @pytest.mark.parametrize("text", ["١", "1²", "１", "٣/2", "1/٢"])
    def test_non_ascii_digits_rejected(self, text):
        with pytest.raises(ParseError):
            parse_rational(text)

    def test_non_ascii_coefficient_is_not_a_number(self):
        with pytest.raises(ParseError, match="expected a basis symbol at offset 1$"):
            parse_element("٣*d(1)")

    @pytest.mark.parametrize("text,message", [
        ("qk:٣", "expected a digit at offset 4$"),
        ("qk:3 ", None),
        ("qk: 3", None),
        ("qk:\t3", None),
        ("sn: \u0662^inf", "expected a digit at offset 5$"),
        ("sn:2^inf, 2^3", "duplicate prime 2 in supernatural spec at offset 11$"),
        ("sn:2^inf ,3^2", "expected ',' at offset 9$"),
        ("qk:-1", "expected a digit at offset 4$"),
        ("qk:" + "1" * 4301, "literal of 4301 digits exceeds the cap of 4300 digits at offset 4$"),
        ("sn:2^" + "1" * 4301, "literal of 4301 digits exceeds the cap of 4300 digits at offset 6$"),
        ("sn:٢^inf", "expected a digit at offset 4$"),
        ("sn:2^inf,3", "expected '\\^' at offset 11$"),
        ("sn:2^0", "supernatural exponent must be positive at offset 6$"),
        ("sn:2^inf,2^3", "duplicate prime 2 in supernatural spec at offset 10$"),
        ("sn:2^infinity", "expected ',' at offset 9$"),
        ("cyclic:1/0", "denominator must be positive at offset 10$"),
        ("cyclic:1/2x", "trailing input after rational at offset 11$"),
    ])
    def test_group_spec_integers(self, text, message):
        if message is None:
            assert parse_group(text) == qk(3)
            return
        with pytest.raises(ParseError, match=message):
            parse_group(text)

    def test_group_spec_messages_kept(self):
        with pytest.raises(ValueError, match="^qk index 20000 exceeds the cap of 500$"):
            parse_group("qk:20000")
        assert parse_group(" cyclic: 3/4 ") == cyclic(F(3, 4))
        assert parse_group("sn:3^2,2^inf") == Supernatural(((2, inf), (3, 2)))
        assert parse_group("sn: 2^inf") == Supernatural(((2, inf),))
        assert parse_group("sn:2^inf, 3^2") == Supernatural(((2, inf), (3, 2)))

    @pytest.mark.parametrize("bound", ["٢", "+2", "2.0", "0x2"])
    def test_table_header_bound(self, bound):
        with pytest.raises(ParseError):
            parse_table("window qk:0 %s\nd(0) 0 0 1\n" % bound)
