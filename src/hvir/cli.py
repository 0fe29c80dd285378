"""Command-line front end.

Verbs: bracket, jacobi, act, classify, iso, phi, closure, scan,
restrict, recover.  Text output is the default; ``--structured`` prints
a JSON report whose keys appear in a fixed documented order (params,
window, verdict, dimensions, basisIndices, cosets, then verb-specific
extras).  All outputs are deterministic: identical invocations print
identical bytes, and the CLI keeps no state between runs.  Only the
verbs that run the engine, closure, scan, restrict and recover, import
``hvir.analysis``, inside their handlers, so the others, jacobi's
``--window`` included, do not compile it at start-up.

Errors are reported as ``error[<code>]: <message>`` on stderr with exit
status 1; usage errors exit with status 2.  A stdout closed by its
reader ends the run with status 1 and no message.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from bisect import bisect_right
from math import comb

from .algebra import (
    CD,
    CDI,
    CI,
    CENTERLESS,
    EXACT_CENTRAL,
    I,
    RescalingMap,
    apply_phi,
    bracket,
    d,
    jacobiator,
)
from .errors import HvirError
from .groups import Window
from .intermediate import _rescaling_power, act, basis_vector, classify, iso_check
from .parsing import (parse_element, parse_group, parse_integer, parse_natural, parse_params,
                      parse_qk_window, parse_rational, parse_table)

_REPORT_KEYS = ("params", "window", "verdict", "dimensions", "basisIndices", "cosets")

# Largest number of triples one ``jacobi`` call checks, swept or sampled.
# It admits the 23 426-triple sweep of ``--window 3:12``; at about 0.2 ms
# per triple a call at the cap takes about 6 s.
MAX_JACOBI_TRIPLES = 25_000


def _emit(args, lines, **fields):
    """Print the text lines, or under ``--structured`` a JSON report: the
    fixed keys first (null when not given), then the verb's own fields in
    call order."""
    if args.structured:
        import json  # only structured output pays for it at start-up

        report = {key: fields.pop(key, None) for key in _REPORT_KEYS}
        report.update(fields)
        print(json.dumps(report, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_bracket(args):
    result = bracket(parse_element(args.left), parse_element(args.right))
    _emit(args, [str(result)], element=str(result))
    return 0


def _basis_keys(window):
    keys = [d(g) for g in window.indices()]
    keys += [I(g) for g in window.indices()]
    keys += [CD, CDI, CI]
    return keys


def _sample_ranks(size, samples, seed):
    """Ranks of ``samples`` distinct 3-subsets of range(size), drawn as
    ``random.Random(seed).sample`` draws from the list of all of them."""
    total = comb(size, 3)
    return random.Random(seed).sample(range(total), min(samples, total))


def _unrank_triple(rank, size):
    """The 3-subset of range(size) at ``rank`` in the order of
    ``itertools.combinations``.

    Mirroring each element x to size-1-x turns that lexicographic order
    into reversed colexicographic order, whose ranks are the combinatorial
    number system: N = C(c3,3) + C(c2,2) + C(c1,1) with c3 > c2 > c1.
    """
    n = comb(size, 3) - 1 - rank
    triple = []
    for k in (3, 2, 1):
        c = bisect_right(range(size), n, key=lambda x: comb(x, k)) - 1
        n -= comb(c, k)
        triple.append(size - 1 - c)
    return triple


def _cmd_jacobi(args):
    window = parse_qk_window(args.window)
    samples = None if args.samples is None else parse_integer(args.samples, "sample count")
    seed = parse_integer(args.seed, "seed")
    # d(g) and I(g) at each window index, then CD, CDI and CI
    count = comb(2 * window.size + 3, 3)
    if samples is not None:
        if samples < 0:
            raise ValueError("--samples must be non-negative, got %d" % samples)
        count = min(samples, count)
    if count > MAX_JACOBI_TRIPLES:
        raise ValueError(
            "jacobi check of %d triples exceeds the cap of %d" % (count, MAX_JACOBI_TRIPLES)
        )
    keys = _basis_keys(window)
    # a sweep visits every rank in the order of itertools.combinations
    ranks = range(count) if samples is None else _sample_ranks(len(keys), samples, seed)
    for rank in ranks:
        x, y, z = (keys[i] for i in _unrank_triple(rank, len(keys)))
        value = jacobiator(x, y, z)
        if not value.is_zero():
            print("jacobi FAILED on (%s, %s, %s): %s" % (x, y, z, value))
            return 1
    _emit(args, ["jacobi: OK (%d triples checked)" % count],
          window=str(window), checked=count)
    return 0


def _cmd_act(args):
    params = parse_params(args.params)
    element = parse_element(args.element)
    vector = basis_vector(params, parse_rational(args.at))
    result = act(params, element, vector)
    _emit(args, [str(result)], params=str(params), vector=str(result))
    return 0


def _cmd_classify(args):
    params = parse_params(args.params)
    result = classify(params)
    _emit(
        args,
        ["verdict: %s" % result.verdict, "subquotient: %s" % result.subquotient_note],
        params=str(params),
        verdict=result.verdict,
        note=result.subquotient_note,
    )
    return 0


def _cmd_iso(args):
    p1 = parse_params(args.left)
    p2 = parse_params(args.right)
    flag, shift = iso_check(p1, p2)
    lines = ["isomorphic: %s" % ("true" if flag else "false")]
    extra = {}
    if flag:
        lines.append("witness: %s" % shift)
        # the isomorphism maps v(q) to (alpha + q)**power u(q - shift)
        power = _rescaling_power(p1, p2)
        if power:
            rule = "v(q) -> (%s + q) u(q)" if power > 0 else "v(q) -> u(q)/(%s + q)"
            extra["rescaling"] = rule % p1.alpha
            lines.append("rescaling: %s" % extra["rescaling"])
    _emit(
        args,
        lines,
        params=str(p1),
        other=str(p2),
        isomorphic=flag,
        witness=str(shift) if flag else None,
        **extra,
    )
    return 0


def _cmd_phi(args):
    rescaling = RescalingMap(parse_natural(args.m, "rescaling order"), args.variant)
    result = apply_phi(rescaling, parse_element(args.element))
    _emit(args, [str(result)], element=str(result))
    return 0


def _window(params, text):
    return Window(params.group, parse_natural(text, "window bound"))


def _cmd_closure(args):
    from .analysis import closure

    params = parse_params(args.params)
    window = _window(params, args.window)
    seeds = [basis_vector(params, parse_rational(q)) for q in args.seed.split(",")]
    span = closure(params, window, seeds)
    pivots = [str(p) for p in span.pivots()]
    _emit(
        args,
        [
            "dimension: %d" % span.dimension,
            "window size: %d" % window.size,
            "indices: %s" % ", ".join(pivots),
        ],
        params=str(params),
        window=str(window),
        dimensions={"span": span.dimension, "window": window.size},
        basisIndices=pivots,
    )
    return 0


def _cmd_scan(args):
    from .analysis import scan_details

    params = parse_params(args.params)
    window = _window(params, args.window)
    classification, dims, proper = scan_details(params, window)
    dims_text = ", ".join("%s:%d" % (q, dim) for q, dim in dims.items())
    lines = [
        "verdict: %s" % classification.verdict,
        "note: %s" % classification.subquotient_note,
        "dimensions: %s" % dims_text,
    ]
    _emit(
        args,
        lines,
        params=str(params),
        window=str(window),
        verdict=classification.verdict,
        dimensions={str(q): dim for q, dim in dims.items()},
        basisIndices=None if proper is None else [str(p) for p in proper],
        note=classification.subquotient_note,
    )
    return 0


def _cmd_restrict(args):
    from .analysis import restriction_report

    params = parse_params(args.params)
    window = _window(params, args.window)
    subgroup = parse_group(args.subgroup)
    report = restriction_report(params, subgroup, window)
    lines = ["%s -> %s" % (rep, sub_params) for rep, sub_params in report]
    _emit(
        args,
        lines,
        params=str(params),
        window=str(window),
        cosets=[{"rep": str(rep), "params": str(p)} for rep, p in report],
    )
    return 0


def _cmd_recover(args):
    from .analysis import recover_params

    with open(args.table, "r", encoding="utf-8") as handle:
        table = parse_table(handle.read())
    params, scales = recover_params(table)
    scale_text = ", ".join("%s=%s" % (q, c) for q, c in scales.items())
    _emit(
        args,
        ["params: %s" % params, "scales: %s" % scale_text],
        params=str(params),
        window=str(table.window),
        scales={str(q): str(c) for q, c in scales.items()},
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hvir",
        description="Exact computations in the rational Heisenberg-Virasoro "
        "algebras and their intermediate-series modules.",
    )
    parser.add_argument(
        "--structured",
        action="store_true",
        help="emit a JSON report with a fixed key order instead of text",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("bracket", help="bracket of two elements")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("jacobi", help="verify the Jacobi identity on a window")
    p.add_argument("--window", required=True, metavar="K:BOUND")
    p.add_argument("--samples")
    p.add_argument("--seed", default="0")

    p = sub.add_parser("act", help="act an element on a basis vector")
    p.add_argument("params")
    p.add_argument("element")
    p.add_argument("--at", required=True, metavar="INDEX")

    p = sub.add_parser("classify", help="reducibility verdict for module parameters")
    p.add_argument("params")

    p = sub.add_parser("iso", help="isomorphism test for two parameter sets")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("phi", help="apply the index rescaling map")
    p.add_argument("--m", required=True)
    p.add_argument("--variant", choices=(EXACT_CENTRAL, CENTERLESS), required=True)
    p.add_argument("element")

    p = sub.add_parser("closure", help="submodule closure of seed vectors")
    p.add_argument("params")
    p.add_argument("--window", required=True, metavar="BOUND")
    p.add_argument("--seed", required=True, metavar="INDEX[,INDEX]*")

    p = sub.add_parser("scan", help="empirical reducibility scan")
    p.add_argument("params")
    p.add_argument("--window", required=True, metavar="BOUND")

    p = sub.add_parser("restrict", help="coset decomposition along a subgroup")
    p.add_argument("params")
    p.add_argument("--subgroup", required=True, metavar="GROUPSPEC")
    p.add_argument("--window", required=True, metavar="BOUND")

    p = sub.add_parser("recover", help="recover parameters from a table file")
    p.add_argument("--table", required=True, metavar="FILE")

    # a word that begins with one "-" and names no option of its verb, such
    # as -1/3,1,0@Q or -2*d(1), is a value: argparse takes a word for a
    # value when no option matches it and this pattern, meant for negative
    # numbers, does
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile("-[^-]")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # every input is capped, so every printed value has bounded size: lift
    # Python's int-string limit (there from 3.10.7 on) so none fails to print
    int_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_int_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_int_digits(0)
    try:
        # the verb's handler is _cmd_<verb>
        status = globals()["_cmd_" + args.verb](args)
        # flush here, so that a closed stdout fails inside this try
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed stdout, which is no input error: point stdout
        # at devnull so the flush at exit fails no more, and report nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except HvirError as exc:
        print("error[%s]: %s" % (exc.code, exc), file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print("error[invalid-input]: %s" % exc, file=sys.stderr)
        return 1
    finally:
        set_int_digits(int_digits)


if __name__ == "__main__":
    sys.exit(main())
