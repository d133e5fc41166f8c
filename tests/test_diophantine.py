import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adiophantine.diophantine import (
    EVALUATION_LIMIT,
    SLAB_POINTS,
    CoefficientRangeError,
    EvaluationRangeError,
    ExponentRangeError,
    MinOverBox,
    ParseError,
    Polynomial,
    VariableSemantics,
    WorkCapExceeded,
    box_slabs,
    brute_force_search,
    evaluate,
    min_over_box,
    parse_equation,
    substitute_shift,
    to_text,
)


# -- parsing -----------------------------------------------------------------


def test_parse_linear_two_vars():
    p = parse_equation("x + y - 5")
    assert p.variable_names == ("x", "y")
    assert p.num_vars == 2
    assert dict(p.terms) == {(1, 0): 1, (0, 1): 1, (0, 0): -5}


def test_parse_binomial_expansion():
    p = parse_equation("(x+1)^3 - 8")
    assert dict(p.terms) == {(3,): 1, (2,): 3, (1,): 3, (0,): -7}


def test_parse_coefficient_times_var():
    p = parse_equation("2*x - 3")
    assert p.num_vars == 1
    assert dict(p.terms) == {(1,): 2, (0,): -3}


def test_parse_equals_normalization():
    assert parse_equation("x + y = 5") == parse_equation("x + y - 5")
    assert parse_equation("x^2 = 4") == parse_equation("x^2 - 4")


def test_parse_leading_minus():
    assert parse_equation("-x + 7") == parse_equation("7 - x")


def test_parse_non_literal_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse_equation("x^y")
    assert err.value.position == 2


@pytest.mark.parametrize(
    "text, position",
    # the grammar's digits are ASCII only, though "²" and "٣" pass str.isdigit
    [
        ("x + * y", 4),
        ("x^²", 2),
        ("x - ٣", 4),
        # more digits than Python converts to an int
        pytest.param("1" * 5001, 0, id="5001-digit-literal"),
        pytest.param("x^" + "1" * 5001, 2, id="5001-digit-exponent"),
    ],
)
def test_parse_syntax_error_position(text, position):
    with pytest.raises(ParseError) as err:
        parse_equation(text)
    assert err.value.position == position


def test_parse_unexpected_character():
    with pytest.raises(ParseError):
        parse_equation("x + $")


def test_parse_adjacent_factors_need_star():
    with pytest.raises(ParseError):
        parse_equation("2x - 3")


def test_parse_variable_cap():
    ok = "a+b+c+d+e+f+g+h"
    assert parse_equation(ok).num_vars == 8
    with pytest.raises(ParseError):
        parse_equation(ok + "+i")


def test_parse_coefficient_overflow():
    # the polynomial arithmetic raises; parse_equation reports the token
    with pytest.raises(CoefficientRangeError):
        Polynomial.constant(2**63)
    with pytest.raises(CoefficientRangeError):
        (Polynomial.variable("x") + 1) ** 100
    assert dict(parse_equation(str(2**63 - 1)).terms) == {(): 2**63 - 1}
    assert dict(parse_equation(f"-{2**63 - 1}").terms) == {(): 1 - 2**63}


@pytest.mark.parametrize(
    "text, position",
    [
        # literals, bare and under a unary sign
        (str(2**64), 0),
        (str(2**63), 0),
        (f"-{2**63}", 1),
        (f"x + {2**63}", 4),
        # a sum, a difference and the normalization of LHS = RHS
        (f"{2**63 - 1} + 1", 20),
        (f"x - {2**63 - 1} - 2", 24),
        (f"-{2**63 - 1} = 2", 21),
        # a product, bare and under a unary sign
        (f"{2**63 - 1}*x*2", 21),
        (f"-{2**62}*x*2 + 1", 22),
        # a power, at its exponent literal as for an exponent out of range
        ("2^64", 2),
        ("(x+1)^100", 6),
        ("-(x+1)^100", 7),
    ],
)
def test_parse_coefficient_overflow_position(text, position):
    message = "^coefficient -?[0-9]+ of .* exceeds the signed 64-bit range"
    with pytest.raises(ParseError, match=message) as err:
        parse_equation(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, position",
    [
        (f"x^{2**63} - 1", 2),
        # built by a product or a power of exponents that are in range
        (f"x^{2**62}*x^{2**62}", 21),
        (f"(x^{2**62})^2", 24),
        # two 4300-digit exponents, whose product to_text could not print
        ("x^" + "9" * 4300 + "*x^" + "9" * 4300, 2),
    ],
)
def test_parse_exponent_overflow(text, position):
    # the message names the exponent's bits, not its digits
    with pytest.raises(ParseError, match="^64-bit exponent exceeds") as err:
        parse_equation(text)
    assert err.value.position == position


def test_exponent_range():
    top = 2**63 - 1
    assert dict(parse_equation(f"x^{top} - 1").terms) == {(0,): -1, (top,): 1}
    with pytest.raises(ExponentRangeError, match="^65-bit exponent"):
        Polynomial.from_terms({(0, 2**64): 1}, ("x", "y"))


def test_parse_constant_and_zero():
    five = parse_equation("5")
    assert five.num_vars == 0
    assert dict(five.terms) == {(): 5}
    zero = parse_equation("x - x")
    assert not zero.terms
    assert zero.num_vars == 0
    assert to_text(zero) == "0"
    assert parse_equation("0") == zero


def test_canonical_variable_order_is_lexicographic():
    assert parse_equation("y + x").variable_names == ("x", "y")
    assert parse_equation("y + x") == parse_equation("x + y")


def test_cancelled_variable_is_dropped():
    p = parse_equation("x + y - y")
    assert p.variable_names == ("x",)


def test_round_trip_examples():
    for text in ["x + y - 5", "(x+1)^3 - 8", "2*x - 3", "x^2 - 4", "-x + 7"]:
        p = parse_equation(text)
        assert parse_equation(to_text(p)) == p


# -- hypothesis strategies ---------------------------------------------------

_names = st.lists(
    st.sampled_from(["x", "y", "z", "u", "v"]), min_size=1, max_size=3, unique=True
)


@st.composite
def polynomials(draw, names=None):
    if names is None:
        names = draw(_names)
    k = len(names)
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        e = tuple(draw(st.integers(0, 3)) for _ in range(k))
        c = draw(st.integers(-50, 50))
        terms[e] = c
    return Polynomial.from_terms(terms, names)


@st.composite
def wide_polynomials(draw):
    """One or two terms with coefficients near 2^62 and exponents up to 40,
    plus small terms that can cancel to zeros.  At bound >= 2 the box bound
    sum |c| * bound^deg reaches 2^63, so boxes are evaluated in Python ints,
    and high-degree terms reach the 2^127 evaluation limit."""
    names = draw(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=2, unique=True))
    terms = {(0,) * len(names): draw(st.integers(-4, 4))}
    for _ in range(draw(st.integers(0, 2))):
        e = tuple(draw(st.integers(0, 2)) for _ in names)
        terms[e] = terms.get(e, 0) + draw(st.sampled_from([-2, -1, 1, 2]))
    for _ in range(draw(st.integers(1, 2))):
        e = tuple(draw(st.sampled_from([0, 1, 20, 33, 40])) for _ in names)
        sign = draw(st.sampled_from([-1, 1]))
        terms[e] = sign * draw(st.integers(2**62 - 2**20, 2**62))
    return Polynomial.from_terms(terms, names)


@settings(max_examples=150, deadline=None)
@given(polynomials())
def test_round_trip_property(p):
    assert parse_equation(to_text(p)) == p


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_ring_axioms(data):
    names = data.draw(_names)
    p = data.draw(polynomials(names=names))
    q = data.draw(polynomials(names=names))
    point = tuple(data.draw(st.integers(0, 5)) for _ in names)

    def at(poly):
        # operands may have dropped different unused variables
        full = {n: v for n, v in zip(names, point)}
        return evaluate(poly, tuple(full[n] for n in poly.variable_names))

    assert at(p + q) == at(p) + at(q)
    assert at(p * q) == at(p) * at(q)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_positive_shift_matches_shifted_evaluation(data):
    p = data.draw(polynomials())
    point = tuple(data.draw(st.integers(0, 4)) for _ in p.variable_names)
    shifted = substitute_shift(p, VariableSemantics.POSITIVE)
    assert evaluate(shifted, point) == evaluate(p, tuple(v + 1 for v in point))


# -- shift -------------------------------------------------------------------


def test_shift_examples():
    p = parse_equation("x - 1")
    assert substitute_shift(p, VariableSemantics.POSITIVE) == parse_equation("x")
    assert substitute_shift(p, VariableSemantics.NON_NEGATIVE) == p
    q = parse_equation("x^2 - 4")
    assert substitute_shift(q, VariableSemantics.POSITIVE) == parse_equation(
        "x^2 + 2*x - 3"
    )


# -- evaluation --------------------------------------------------------------


def test_evaluate_examples():
    assert evaluate(parse_equation("x + y - 5"), (2, 3)) == 0
    assert evaluate(parse_equation("2*x - 3"), (1,)) == -1
    cubes = parse_equation("(x+1)^3 + (y+1)^3 - (z+1)^3")
    assert evaluate(cubes, (2, 3, 4)) == 3**3 + 4**3 - 5**3 == -34


def test_evaluate_arity_and_domain():
    p = parse_equation("x + y")
    with pytest.raises(ValueError):
        evaluate(p, (1,))
    with pytest.raises(ValueError):
        evaluate(p, (1, -2))


def test_evaluate_range_guard():
    p = parse_equation("x^2")
    assert evaluate(p, (2**63,)) == 2**126
    with pytest.raises(EvaluationRangeError):
        evaluate(p, (2**64,))
    # refused before the power is taken, with no digits of it in the message
    for text in ("x^100000 - 1", "x^1000000000 - 1"):
        with pytest.raises(EvaluationRangeError, match="at least 127 factors of 2"):
            evaluate(parse_equation(text), (2,))
    # the largest exponent: 2 * (2^63 - 1) factors of 2
    huge = parse_equation(f"x^{2**63 - 1}")
    with pytest.raises(EvaluationRangeError, match="at least 127 factors of 2"):
        evaluate(huge, (4,))
    # a zero factor makes the term zero, however large the others
    assert evaluate(parse_equation("x^200*y"), (2, 0)) == 0


# -- brute-force search ------------------------------------------------------


def test_search_linear():
    assert brute_force_search(parse_equation("x + y - 5"), 10) == (0, 5)


def test_search_parity_unsolvable():
    assert brute_force_search(parse_equation("2*x - 3"), 100) is None


def test_search_pythagorean_shifted():
    # independent oracle: exhaustive scan picking the graded-lex first zero
    p = parse_equation("(x+1)^2 + (y+1)^2 - (z+1)^2")
    expected = None
    for point in sorted(
        itertools.product(range(7), repeat=3), key=lambda t: (sum(t), t)
    ):
        x, y, z = point
        if (x + 1) ** 2 + (y + 1) ** 2 - (z + 1) ** 2 == 0:
            expected = point
            break
    assert expected == (2, 3, 4)
    assert brute_force_search(p, 6) == expected


def test_search_certificate_and_exhaustiveness():
    for text, bound in [("x^2 - 3*x + 2", 5), ("x*y - 7", 9), ("x^2 + 1", 9)]:
        p = parse_equation(text)
        witness = brute_force_search(p, bound)
        box = itertools.product(range(bound + 1), repeat=p.num_vars)
        zeros = [v for v in box if evaluate(p, v) == 0]
        if witness is None:
            assert zeros == []
        else:
            assert evaluate(p, witness) == 0
            assert witness == min(zeros, key=lambda t: (sum(t), t))


def test_work_cap():
    p = parse_equation("a + b + c + d")
    with pytest.raises(WorkCapExceeded):
        brute_force_search(p, 100)
    with pytest.raises(WorkCapExceeded):
        min_over_box(p, 100)


# -- min over box ------------------------------------------------------------


def test_min_over_box_examples():
    assert min_over_box(parse_equation("x - 1"), 3) == MinOverBox(0, (1,), 1)
    assert min_over_box(parse_equation("2*x - 3"), 3) == MinOverBox(1, (1,), 2)
    assert min_over_box(parse_equation("x + y - 5"), 7) == MinOverBox(0, (0, 5), 6)


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.integers(0, 4))
def test_min_zero_iff_witness(p, bound):
    result = min_over_box(p, bound)
    witness = brute_force_search(p, bound)
    if result.value == 0:
        assert witness is not None and witness == result.argmin
    else:
        assert witness is None


# -- box evaluator against the scalar reference --------------------------------


def _graded_box(p, bound):
    return sorted(
        itertools.product(range(bound + 1), repeat=p.num_vars),
        key=lambda t: (sum(t), t),
    )


def _reference_values(p, bound):
    """(point, value) in graded order, value None where ``evaluate`` raises."""
    out = []
    for point in _graded_box(p, bound):
        try:
            out.append((point, evaluate(p, point)))
        except EvaluationRangeError:
            out.append((point, None))
    return out


def _check_against_reference(p, bound):
    values = _reference_values(p, bound)
    if all(v is not None for _, v in values):
        squares = [(v * v, point) for point, v in values]
        best = min(s for s, _ in squares)
        argmin = next(point for s, point in squares if s == best)
        count = sum(1 for s, _ in squares if s == best)
        assert min_over_box(p, bound) == MinOverBox(best, argmin, count)
        zero = next((point for point, v in values if v == 0), None)
        assert brute_force_search(p, bound) == zero
        return
    with pytest.raises(EvaluationRangeError):
        min_over_box(p, bound)
    # the graded scan meets a zero or an out-of-range point first; a zero
    # may be returned, since the growing cube that proves it first need not
    # reach the later out-of-range points
    first = next((point, v) for point, v in values if v is None or v == 0)
    if first[1] is None:
        with pytest.raises(EvaluationRangeError):
            brute_force_search(p, bound)
    else:
        try:
            assert brute_force_search(p, bound) == first[0]
        except EvaluationRangeError:
            pass


@settings(max_examples=200, deadline=None)
@given(polynomials(), st.integers(0, 5))
def test_box_evaluator_matches_scalar_reference(p, bound):
    _check_against_reference(p, bound)


@settings(max_examples=100, deadline=None)
@given(wide_polynomials(), st.integers(1, 3))
def test_box_evaluator_matches_scalar_reference_on_wide_integers(p, bound):
    _check_against_reference(p, bound)


@st.composite
def products_of_linear_factors(draw):
    """Polynomials with many zeros of different coordinate sums, where the
    lexicographically and the graded-lexicographically first zero differ."""
    names = st.sampled_from(["x", "y", "z"])
    p = Polynomial.constant(1)
    for _ in range(draw(st.integers(1, 3))):
        factor = Polynomial.constant(-draw(st.integers(0, 6)))
        for name in draw(st.lists(names, min_size=1, max_size=2, unique=True)):
            factor = factor + draw(st.integers(1, 2)) * Polynomial.variable(name)
        p = p * factor
    return p


@settings(max_examples=300, deadline=None)
@given(products_of_linear_factors(), st.integers(0, 7))
def test_box_evaluator_matches_scalar_reference_on_many_zeros(p, bound):
    _check_against_reference(p, bound)


def test_box_evaluator_picks_the_graded_first_point():
    # C order meets the zero (0, 5) first; the graded-lex first is (1, 0)
    p = parse_equation("(x - 1)*(y - 5)")
    assert min_over_box(p, 6) == MinOverBox(0, (1, 0), 13)
    assert brute_force_search(p, 6) == (1, 0)


@pytest.mark.parametrize("text", ["0", "7", "-3", "x - x"])
@pytest.mark.parametrize("bound", [0, 3])
def test_box_evaluator_on_constants(text, bound):
    p = parse_equation(text)
    assert p.num_vars == 0
    _check_against_reference(p, bound)


def test_box_slabs_cover_the_box_in_c_order():
    # 41^3 points: more than one slab, each a run of whole x-planes
    p = parse_equation("x^3 - 2*x*y + z^2 - 5")
    offsets, values = zip(*box_slabs(p, 40))
    assert len(values) > 1 and max(v.size for v in values) <= SLAB_POINTS
    assert list(offsets) == [0, *itertools.accumulate(v.size for v in values[:-1])]
    box = itertools.product(range(41), repeat=3)
    assert np.concatenate(values).tolist() == [evaluate(p, t) for t in box]
    # 101^4 points: a slab fixes x and takes a run of y-planes
    q = parse_equation("a + b - c*d")
    offset, first = next(box_slabs(q, 100))
    assert offset == 0 and first.size <= SLAB_POINTS and first.dtype == np.int64
    head = itertools.islice(itertools.product(range(101), repeat=4), first.size)
    assert first.tolist() == [evaluate(q, t) for t in head]


def test_box_slabs_choose_the_integer_width_from_the_bound():
    def dtype(p, bound):
        return next(box_slabs(p, bound))[1].dtype

    # sum |c| * bound^deg: 2^62 * 1 + 2^62 < 2^63 is int64; one more is not
    assert dtype(parse_equation(f"{2**62}*x + {2**62 - 1}"), 1) == np.int64
    assert dtype(parse_equation(f"{2**62}*x + {2**62}"), 1) == object
    assert dtype(parse_equation("x^62"), 2) == np.int64
    assert dtype(parse_equation("x^63"), 2) == object
    wide = parse_equation("x^63 - 2*x^62")
    assert dtype(wide, 2) == object
    assert min_over_box(wide, 2) == MinOverBox(0, (0,), 2)


def test_box_range_guard():
    p = Polynomial.from_terms({(65,): 2**62}, ("x",))
    assert 2**62 * 2**65 == EVALUATION_LIMIT
    with pytest.raises(EvaluationRangeError):
        min_over_box(p, 2)
    with pytest.raises(EvaluationRangeError):
        brute_force_search(p + 1, 2)
    # a zero at x = 0 is proved by the first cube, before x = 2 is reached
    assert brute_force_search(p, 2) == (0,)
    # a term that must reach 2^127 is refused before its powers are built
    for text in ("x^100000 - 1", "x^1000000000 - 1"):
        with pytest.raises(EvaluationRangeError, match="at least 127 factors of 2"):
            min_over_box(parse_equation(text), 2)
    with pytest.raises(EvaluationRangeError, match="at least 127 factors of 2"):
        brute_force_search(parse_equation("x^100000 + 1"), 2)
    assert brute_force_search(parse_equation("x^1000000000 - 1"), 1) == (1,)
    assert brute_force_search(parse_equation("x^1000000000 - 1"), 2) == (1,)


def test_search_raises_on_a_cube_beyond_its_zero():
    # graded order reaches the zero (0, 2) before (2, 0), where the term
    # 2^62 * x^65 reaches 2^127; the cube [0, 2]^2 that proves the zero
    # holds both, so the search raises where a point-by-point scan would not
    p = Polynomial.from_terms({(65, 0): 2**62, (0, 1): 1, (0, 0): -2}, ("x", "y"))
    assert evaluate(p, (0, 2)) == 0
    with pytest.raises(EvaluationRangeError):
        evaluate(p, (2, 0))
    with pytest.raises(EvaluationRangeError):
        brute_force_search(p, 2)
