"""The __slots__ value classes behave as the dataclasses they replaced.

Each class is compared with its dataclass oracle from ``helpers`` on
drawn field values: construction (positional, keyword, defaults),
validation errors, ``==``, ``hash``, ``repr``, ``str``, immutability and
``pickle``/``copy.deepcopy`` round trips.  A start-up test checks that
importing the CLI loads neither ``dataclasses`` nor ``inspect``, nor
``json``, which only structured output needs.
"""

import copy
import dataclasses
import pickle
import subprocess
import sys
from fractions import Fraction
from math import inf

from hypothesis import given, settings, strategies as st

from hvir import (
    CENTERLESS,
    EXACT_CENTRAL,
    FULL_Q,
    TRIVIAL,
    BasisKey,
    Classification,
    Cyclic,
    FullQ,
    IndexPredicate,
    ModuleParams,
    RescalingMap,
    Supernatural,
    Trivial,
    Window,
    act,
    basis_vector,
    cyclic,
    d,
    qk,
    supernatural,
)

from helpers import (
    ReferenceBasisKey,
    ReferenceClassification,
    ReferenceCyclic,
    ReferenceFullQ,
    ReferenceIndexPredicate,
    ReferenceModuleParams,
    ReferenceRescalingMap,
    ReferenceSupernatural,
    ReferenceTrivial,
    ReferenceWindow,
)

rationals = st.one_of(
    st.integers(-20, 20),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
# inexact or non-numeric values that the checks must reject
junk = st.sampled_from([1.5, "1", None, (1,)])
groups = st.sampled_from([
    TRIVIAL, FULL_Q, qk(0), qk(1), qk(3), cyclic(Fraction(2, 3)),
    supernatural({2: inf}), supernatural({3: 2, 5: inf}), "Q",
])
primes = st.sampled_from([2, 3, 5, 7, 4, 2.0])
exponents = st.sampled_from([1, 2, 3, inf, 0, -1, 1.5])

# (class, oracle, strategy for the positional arguments, number of
# trailing arguments that have defaults)
CASES = {
    "Trivial": (Trivial, ReferenceTrivial, st.just(()), 0),
    "FullQ": (FullQ, ReferenceFullQ, st.just(()), 0),
    "Cyclic": (Cyclic, ReferenceCyclic, st.tuples(st.one_of(rationals, junk)), 0),
    "Supernatural": (
        Supernatural, ReferenceSupernatural,
        st.tuples(st.lists(st.tuples(primes, exponents), max_size=4).map(tuple)), 0),
    "BasisKey": (
        BasisKey, ReferenceBasisKey,
        st.tuples(st.sampled_from(["d", "I", "CD", "CDI", "CI", "x"]),
                  st.one_of(st.none(), rationals, junk)), 1),
    "RescalingMap": (
        RescalingMap, ReferenceRescalingMap,
        st.tuples(st.one_of(st.sampled_from([0, 1, 500, 501]), st.integers(-2, 600), junk),
                  st.sampled_from([EXACT_CENTRAL, CENTERLESS, "other"])), 1),
    "ModuleParams": (
        ModuleParams, ReferenceModuleParams,
        st.tuples(st.one_of(rationals, junk), rationals, rationals, groups), 0),
    "Classification": (
        Classification, ReferenceClassification, st.tuples(st.text(), st.text()), 0),
    "IndexPredicate": (
        IndexPredicate, ReferenceIndexPredicate,
        st.tuples(st.sampled_from(["zero-only", "nonzero", "other", 0])), 0),
    "Window": (
        Window, ReferenceWindow,
        st.tuples(groups, st.one_of(st.sampled_from([0, 1, 2048, 2049]),
                                    st.integers(-1, 2100), junk)), 0),
}


def build(cls, args, kwargs=None):
    """The value, or the type and message of what its constructor raised."""
    try:
        return cls(*args, **(kwargs or {}))
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def oracle_repr(value):
    # the oracle class names carry a Reference prefix, and only there
    return repr(value).replace("Reference", "", 1)


def raised(action):
    try:
        action()
    except AttributeError as exc:
        return str(exc)
    return None


@st.composite
def case_and_arguments(draw):
    name = draw(st.sampled_from(sorted(CASES)))
    cls, oracle, arguments, _ = CASES[name]
    return cls, oracle, draw(arguments), draw(arguments)


@settings(max_examples=600, deadline=None)
@given(case_and_arguments())
def test_value_class_matches_its_dataclass_oracle(case):
    cls, oracle, args, fresh = case
    value, reference = build(cls, args), build(oracle, args)
    if isinstance(reference, tuple):
        assert value == reference
        return
    names = [field.name for field in dataclasses.fields(oracle)]
    assert cls.__match_args__ == tuple(names)
    assert build(cls, (), dict(zip(names, args))) == value
    assert repr(value) == oracle_repr(reference)
    assert str(value) == (oracle_repr(reference) if str(reference) == repr(reference)
                          else str(reference))
    assert hash(value) == hash(reference)
    assert value == value and not value != value
    assert value != reference and reference != value

    # values that differ from this one in one field each
    for i in range(len(args)):
        other_args = args[:i] + (fresh[i],) + args[i + 1:]
        other, other_reference = build(cls, other_args), build(oracle, other_args)
        if not isinstance(other_reference, tuple):
            assert (value == other) == (reference == other_reference)
            assert (value != other) == (reference != other_reference)

    for name in names + ["other"]:
        assert raised(lambda: setattr(value, name, 0)) == \
            raised(lambda: setattr(reference, name, 0)) == \
            "cannot assign to field %r" % name
        assert raised(lambda: delattr(value, name)) == \
            raised(lambda: delattr(reference, name)) == \
            "cannot delete field %r" % name

    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        back = round_trip(value)
        assert back.__class__ is cls
        # the copy is a slots value too: it gains no instance dict
        assert not hasattr(back, "__dict__")
        assert back == value and hash(back) == hash(value)
        assert repr(back) == repr(value)
        assert round_trip(reference) == reference


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(name for name, case in CASES.items() if case[3])), st.data())
def test_defaults_match_the_oracle(name, data):
    cls, oracle, arguments, defaults = CASES[name]
    args = data.draw(arguments)[:-defaults]
    value, reference = build(cls, args), build(oracle, args)
    if isinstance(reference, tuple):
        assert value == reference
    else:
        assert repr(value) == oracle_repr(reference)
        assert hash(value) == hash(reference)


def test_the_integer_form_is_not_a_field():
    # ModuleParams keeps the unit-step integer form of its d-action and the
    # integers of f in the slot _ints, filled by its constructor, and act
    # reads them; being no field, the slot leaves ==, hash, repr, pattern
    # matching and pickling as they were
    params = ModuleParams(Fraction(-2, 7), Fraction(3, 4), Fraction(5, 6), cyclic(Fraction(1, 2)))
    before = hash(params)
    act(params, d(Fraction(1, 2)), basis_vector(params, 1))
    fresh = ModuleParams(Fraction(-2, 7), Fraction(3, 4), Fraction(5, 6), cyclic(Fraction(1, 2)))
    assert params == fresh and hash(params) == hash(fresh) == before
    assert repr(params) == repr(fresh)
    assert ModuleParams.__match_args__ == ("alpha", "beta", "f", "group")
    assert params._ints == fresh._ints == (28, -8, 21, 28, 5, 6)
    # the pickled state is the four fields alone
    assert params.__reduce__() == (ModuleParams, (params.alpha, params.beta, params.f,
                                                  params.group))
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        back = round_trip(params)
        assert back.__class__ is ModuleParams
        assert back == fresh and hash(back) == before and repr(back) == repr(fresh)
        # the constructor fills the cache again
        assert back._ints == fresh._ints
        assert act(back, d(Fraction(1, 2)), basis_vector(back, 1)) == \
            act(fresh, d(Fraction(1, 2)), basis_vector(fresh, 1))


def test_window_indices_are_not_a_field():
    # Window keeps its indices, in window order, as the keys of the dict in
    # the slot _indices, filled by its constructor, and scans read it;
    # being no field, the slot leaves ==, hash, repr, pattern matching and
    # pickling as they were
    window = Window(cyclic(Fraction(1, 2)), 3)
    fresh = Window(cyclic(Fraction(1, 2)), 3)
    expected = [Fraction(n, 2) for n in range(-3, 4)]
    assert window == fresh and hash(window) == hash(fresh) == hash((window.group, 3))
    assert repr(window) == repr(fresh) == "Window(group=Cyclic(generator=Fraction(1, 2)), bound=3)"
    assert Window.__match_args__ == ("group", "bound")
    assert list(window._indices) == expected
    # the pickled state is the two fields alone
    assert window.__reduce__() == (Window, (window.group, 3))
    for round_trip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        back = round_trip(window)
        assert back.__class__ is Window
        assert back == fresh and hash(back) == hash(fresh) and repr(back) == repr(fresh)
        # the constructor fills the cache again
        assert back._indices is not window._indices
        assert list(back._indices) == expected and back.indices() == expected
    # indices() hands out a new list each time, so changing one leaves the
    # cache as it was
    listed = window.indices()
    listed[0] = Fraction(9)
    listed.append(Fraction(2))
    assert window.indices() == expected and window.indices() is not window.indices()
    assert list(window._indices) == expected


def test_pickled_hash_is_recomputed_in_another_process():
    # str hashes are salted per process, so the reading process hashes anew
    key = BasisKey("CD")
    hash(key)
    script = ("import pickle, sys; key = pickle.loads(sys.stdin.buffer.read()); "
              "print(hash(key) == hash(('CD', None)))")
    out = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(key),
                         capture_output=True, check=True)
    assert out.stdout.strip() == b"True"


def test_a_window_pickled_under_hvir_analysis_still_loads():
    # pickle.dumps(Window(cyclic(1/2), 3), protocol=0) as written while
    # Window was defined in hvir.analysis, which still exports it
    old = (b"chvir.analysis\nWindow\np0\n(chvir.groups\nCyclic\np1\n(cfractions\nFraction\n"
           b"p2\n(I1\nI2\ntp3\nRp4\ntp5\nRp6\nI3\ntp7\nRp8\n.")
    window = pickle.loads(old)
    assert window.__class__ is Window and Window.__module__ == "hvir.groups"
    assert window == Window(cyclic(Fraction(1, 2)), 3)
    assert repr(window) == "Window(group=Cyclic(generator=Fraction(1, 2)), bound=3)"


def test_cli_start_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys; "
             "print(' '.join(sorted(set(sys.modules) & {'dataclasses', 'inspect', 'json'})))")

    def loaded(preamble):
        out = subprocess.run([sys.executable, "-c", preamble + probe],
                             capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    # a site that loads them on this host is not hvir's doing
    assert loaded("import hvir.cli; ") <= loaded("")
