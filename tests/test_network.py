import json
import pickle
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crnkit import (
    NetworkSyntaxError,
    NetworkValidationError,
    PolynomialSystem,
    ReactionNetwork,
    UnboundParameterError,
    canonical_realization,
    parse_network,
    parse_polynomial,
    parse_system,
)
from crnkit import network
from crnkit.network import Complex, ReactionStep, resolve_rate
from crnkit.numbers import MAX_EXPONENT
from crnkit.poly import MAX_DEGREE

from .support import (
    edited_dsl_text,
    network_dsl_text,
    network_parse_outcome,
    random_network,
    reference_parse_network,
)


def step_tuples(net: ReactionNetwork):
    return [
        (s.reactant.as_dict(), s.product.as_dict(), s.rate) for s in net.steps
    ]


def named_step_tuples(net: ReactionNetwork):
    def by_name(cplx):
        return {net.species[i]: c for i, c in cplx.as_dict().items()}

    return [(by_name(s.reactant), by_name(s.product), s.rate) for s in net.steps]


def test_single_step():
    net = parse_network("X + Y ->[2] X")
    assert net.species == ("X", "Y")
    assert len(net.steps) == 1
    step = net.steps[0]
    assert step.reactant.coefficient(0) == 1
    assert step.reactant.coefficient(1) == 1
    assert step.product.coefficient(1) == 0
    assert step.rate == 2


def test_symbolic_rate():
    net = parse_network("A ->[k1] B")
    assert net.steps[0].rate == "k1"
    assert net.rate_parameters() == ("k1",)


def test_reversible_expands_to_two_steps():
    net = parse_network("A <=>[2,3] B")
    assert len(net.steps) == 2
    assert (net.steps[0].rate, net.steps[1].rate) == (Fraction(2), Fraction(3))
    assert net.steps[0].reactant.coefficient(0) == 1
    assert net.steps[1].reactant.coefficient(1) == 1


def test_backward_arrow():
    net = parse_network("A <-[5] B")
    step = net.steps[0]
    assert step.reactant.coefficient(1) == 1
    assert step.product.coefficient(0) == 1
    assert step.rate == 5


def test_chain_with_mixed_arrows():
    # middle complex feeds both ends
    net = parse_network("X <-[a] X + Y ->[b] Y")
    assert len(net.steps) == 2
    first, second = net.steps
    assert first.reactant.as_dict() == {0: 1, 1: 1}
    assert first.product.as_dict() == {0: 1}
    assert second.reactant.as_dict() == {0: 1, 1: 1}
    assert second.product.as_dict() == {1: 1}


def test_empty_complex_and_fractional_product():
    net = parse_network("0 ->[1] X\nX ->[2] 1/2Y")
    assert net.steps[0].reactant.is_empty
    assert net.steps[1].product.coefficient(1) == Fraction(1, 2)


def test_fractional_reactant_rejected():
    with pytest.raises(NetworkSyntaxError):
        parse_network("1/2X ->[1] Y")


def test_reactant_degree_is_capped():
    at_cap = parse_network(f"{MAX_DEGREE - 1}A + B ->[1] C")
    assert at_cap.steps[0].reactant.as_dict() == {0: MAX_DEGREE - 1, 1: 1}
    for text in (
        f"{MAX_DEGREE}A + B ->[1] C",
        f"C <-[1] {MAX_DEGREE + 1}A",
        "C <=>[1, 1] 100000000000A",
        f"A ->[1] {MAX_DEGREE + 1}B ->[1] C",
    ):
        with pytest.raises(NetworkSyntaxError, match=f"above MAX_DEGREE = {MAX_DEGREE}"):
            parse_network(text)
    # product coefficients are not exponents
    assert parse_network(f"A ->[1] {MAX_DEGREE + 1}B").steps[0].product.coefficient(1) == MAX_DEGREE + 1


def test_semicolon_and_comments():
    net = parse_network("# leading comment\nA ->[1] B; B ->[2] A  # trailing")
    assert len(net.steps) == 2


def test_species_numbered_by_first_appearance():
    net = parse_network("B ->[1] A\nC ->[1] B")
    assert net.species == ("B", "A", "C")


def test_duplicate_steps_merge_with_warning():
    with pytest.warns(UserWarning, match="merged"):
        net = parse_network("A ->[1] B\nA ->[2] B")
    assert len(net.steps) == 1
    assert net.steps[0].rate == 3


def test_duplicate_symbolic_steps_merge():
    with pytest.warns(UserWarning):
        net = parse_network("A ->[k1] B\nA ->[k2] B")
    assert len(net.steps) == 1
    assert net.steps[0].rate == "k1+k2"
    assert set(net.rate_parameters()) == {"k1", "k2"}
    # a numeric rate merged with a symbolic one keeps its text
    with pytest.warns(UserWarning):
        net = parse_network("A ->[1/2] B\nA ->[k] B")
    assert net.steps[0].rate == "1/2+k"
    assert resolve_rate(net.steps[0].rate, {"k": Fraction(1)}) == Fraction(3, 2)


def test_rate_sums_in_text():
    net = parse_network("A ->[k1 + 2] B; B ->[1 + 1/2] A")
    assert net.steps[0].rate == "k1+2"
    assert resolve_rate(net.steps[0].rate, {"k1": Fraction(1)}) == 3
    assert net.steps[1].rate == Fraction(3, 2)


def test_self_loop_rejected():
    with pytest.raises(NetworkSyntaxError):
        parse_network("A + B ->[1] A + B")


def test_error_carries_position():
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network("A ->[1] B\nA -> B")
    assert info.value.line == 2


def test_error_column_counts_from_line_start_after_semicolon():
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network("A ->[1] B; C ->[x$] D")
    assert (info.value.line, info.value.column) == (1, 18)
    with pytest.raises(NetworkSyntaxError, match="line 1, column 19: expected a complex"):
        parse_network("A ->[1] B;; C ->[1] ; D ->[2] E")


def test_zero_rate_rejected():
    with pytest.raises(NetworkSyntaxError):
        parse_network("A ->[0] B")


def test_bad_species_name_rejected():
    with pytest.raises(NetworkValidationError):
        ReactionNetwork(
            ("9bad",),
            (
                ReactionStep(
                    Complex.from_mapping({0: Fraction(1)}),
                    Complex.from_mapping({0: Fraction(2)}),
                    Fraction(1),
                ),
            ),
        )


def test_stoichiometric_matrices(cascade_network):
    alpha, beta, gamma = cascade_network.stoichiometric_matrices()
    # 9 species x 10 steps, checked against the hand-built step vectors
    expected_gamma = [
        [-1, 1, 0, 0, 0, -1, 0, 0, 0, 0],
        [-1, 1, 0, 0, 0, -1, 0, 0, 0, 0],
        [1, -1, -1, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, -1, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, -1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, -1, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 1, -1, 1, 0],
        [0, 0, 0, 0, 0, 0, 0, 2, -2, -2],
    ]
    assert gamma == [[Fraction(v) for v in row] for row in expected_gamma]
    for m in range(9):
        for r in range(10):
            assert gamma[m][r] == beta[m][r] - alpha[m][r]
            assert alpha[m][r] >= 0 and beta[m][r] >= 0


def test_net_change_is_the_sparse_column_of_gamma(cascade_network):
    _, _, gamma = cascade_network.stoichiometric_matrices()
    for r, step in enumerate(cascade_network.steps):
        change = step.net_change
        assert change == {m: gamma[m][r] for m in range(9) if gamma[m][r]}
        assert all(type(v) is Fraction for v in change.values())
        with pytest.raises(TypeError):
            change[0] = Fraction(1)
    catalysed = parse_network("A + E ->[1] B + E").steps[0]
    assert catalysed.net_change == {0: -1, 2: 1}


def test_network_pickles_after_its_net_changes_are_read(cascade_network):
    assert [step.net_change for step in cascade_network.steps]
    assert pickle.loads(pickle.dumps(cascade_network)) == cascade_network


def test_render_parse_identity(cascade_network):
    again = parse_network(cascade_network.render())
    assert again.species == cascade_network.species
    assert step_tuples(again) == step_tuples(cascade_network)


def test_render_parse_identity_randomized():
    # render drops species that no step mentions, so compare by name
    rng = random.Random(2024)
    for _ in range(25):
        net = random_network(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = parse_network(net.render())
        assert named_step_tuples(again) == named_step_tuples(net)
        if net.is_proper:
            assert set(again.species) == set(net.species)


def test_json_round_trip(example_network):
    data = json.loads(example_network.to_json())
    again = ReactionNetwork.from_dict(data)
    assert again.species == example_network.species
    assert step_tuples(again) == step_tuples(example_network)


def test_unused_species_and_proper():
    net = ReactionNetwork(
        ("A", "B", "C"),
        (
            ReactionStep(
                Complex.from_mapping({0: Fraction(1)}),
                Complex.from_mapping({1: Fraction(1)}),
                Fraction(1),
            ),
        ),
    )
    assert net.unused_species() == ("C",)
    assert not net.is_proper
    full = parse_network("A ->[1] B")
    assert full.is_proper


# -- the parser against the public constructors -------------------------------

F = Fraction

# spellings of "value times species {s}" in a complex
COEFFICIENT_SPELLINGS = {
    F(1): ["{s}", "1{s}", "1.0{s}"],
    F(2): ["2{s}", "2.0{s}", "4/2{s}", "{s} + {s}"],
    F(1, 2): ["1/2{s}", "0.5{s}"],
    F(3, 2): ["3/2{s}", "1.5{s}", "{s} + 1/2{s}"],
}
RATE_SPELLINGS = [("1+2", F(3)), ("0.5", F(1, 2)), ("3/4", F(3, 4)), ("7", F(7)),
                  ("k", "k"), ("k+1", "k+1")]


@st.composite
def spelled_networks(draw):
    """(text, species, steps): network text with mixed spellings of each value,
    the species in order of first appearance, and the (reactant, product, rate)
    triples it denotes, duplicates included, keyed by species name."""
    names = draw(st.permutations(["A", "B", "C2", "Xy"]))[: draw(st.integers(1, 4))]
    species: list[str] = []

    def spell(coeffs):
        parts = []
        for name in draw(st.permutations(sorted(coeffs))):
            if name not in species:
                species.append(name)
            spelling = draw(st.sampled_from(COEFFICIENT_SPELLINGS[coeffs[name]]))
            parts.append(spelling.format(s=name))
        return " + ".join(parts) or "0"

    def complexes(values):
        return st.dictionaries(st.sampled_from(names), st.sampled_from(values), max_size=2)

    integral, rational = complexes([F(1), F(2)]), complexes(sorted(COEFFICIENT_SPELLINGS))
    lines, steps = [], []
    for _ in range(draw(st.integers(1, 5))):
        reactant = draw(integral)
        arrow = draw(st.sampled_from(["->", "<-", "<=>"]))
        product = draw(integral if arrow == "<=>" else rational)
        if reactant == product:
            continue
        for _ in range(draw(st.sampled_from([1, 1, 2]))):  # 2: a duplicate step
            (k, rate), (kb, back) = draw(st.tuples(*[st.sampled_from(RATE_SPELLINGS)] * 2))
            if arrow == "->":
                lines.append(f"{spell(reactant)} ->[{k}] {spell(product)}")
            elif arrow == "<-":
                lines.append(f"{spell(product)} <-[{k}] {spell(reactant)}")
            else:
                lines.append(f"{spell(reactant)} <=>[{k},{kb}] {spell(product)}")
            steps.append((reactant, product, rate))
            if arrow == "<=>":
                steps.append((product, reactant, back))
    return "\n".join(lines), species, steps


def build_publicly(species, steps):
    index = {name: i for i, name in enumerate(species)}

    def complex_(coeffs):
        return Complex(tuple((index[name], c) for name, c in coeffs.items()))

    built = [ReactionStep(complex_(r), complex_(p), k) for r, p, k in steps]
    return ReactionNetwork(species, built)


def warned(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build()
    return result, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(spelled=spelled_networks())
def test_parser_matches_public_constructors(spelled):
    text, species, steps = spelled
    if not steps:
        return
    parsed, parse_warnings = warned(lambda: parse_network(text))
    expected, expected_warnings = warned(lambda: build_publicly(species, steps))
    assert parse_warnings == expected_warnings
    rebuilt = ReactionNetwork.from_dict(json.loads(parsed.to_json()))
    for other in (expected, rebuilt):
        assert parsed == other
        assert parsed.to_json() == other.to_json()
        assert [dict(s.net_change) for s in parsed.steps] == [
            dict(s.net_change) for s in other.steps
        ]
    for step in parsed.steps:
        assert type(step.rate) in (Fraction, str)
        values = [c for _, c in step.reactant.entries + step.product.entries]
        assert all(type(c) is Fraction for c in [*values, *step.net_change.values()])


def test_parser_duplicate_warning_text():
    _, messages = warned(lambda: parse_network("2A ->[1+2] B\nA + A ->[k] 1.0B"))
    assert messages == ["duplicate step 2A ->[k] B merged by summing rates"]


@pytest.mark.parametrize(
    "text, message",
    [
        ("A ->[1] B; $C ->[1] D", "line 1, column 12: unexpected character '$'"),
        ("A ->[1] B;\t; C ->[1] D@", "line 1, column 23: unexpected character '@'"),
        ("A\t@ ->[1] B", "line 1, column 3: unexpected character '@'"),
        ("A ->[1]\tB\t\u00e9", "line 1, column 11: unexpected character '\u00e9'"),
        ("A ->[1] B + \u00e9", "line 1, column 13: unexpected character '\u00e9'"),
        ("A ->[1] B!", "line 1, column 10: unexpected character '!'"),
        ("A ->[1] B ->[2] C #ok\nC ->[1] D%", "line 2, column 10: unexpected character '%'"),
    ],
)
def test_an_unexpected_character_is_refused_at_its_column(text, message):
    """After ';', after a tab, non-ASCII, and at the end of a line."""
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network(text)
    assert str(info.value) == message


# hypothesis draws only a seed: a plain generator writes the texts many times
# faster than drawing each choice through hypothesis would
@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_parser_matches_the_reference_parser(seed):
    # a generated text and four edits of it: the same network, or the same
    # refusal at the same line and column, and the same warnings
    rng = random.Random(seed)
    text = network_dsl_text(rng)
    for edited in [text] + [edited_dsl_text(rng, text) for _ in range(4)]:
        expected = network_parse_outcome(reference_parse_network, edited)
        assert network_parse_outcome(parse_network, edited) == expected, edited


def _planted_duplicates(rng: random.Random, text: str) -> str:
    """`text` with copies of some of its chains, each on a line of its own or
    before a ';' at the start of a line, so their steps are duplicates."""
    lines = text.split("\n")
    chains = [chain for line in lines for chain in line.split("#", 1)[0].split(";") if chain.strip()]
    for chain in rng.sample(chains, rng.randint(1, len(chains))) if chains else ():
        at = rng.randrange(len(lines) + 1)
        if at < len(lines) and rng.random() < 0.5:
            lines[at] = chain + ";" + lines[at]
        else:
            lines.insert(at, chain)
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64))
def test_planted_duplicates_merge_as_the_public_constructor_merges_them(seed):
    # the same network and warnings as the reference parser, which builds
    # through ReactionNetwork(...), and no two steps left with one key
    rng = random.Random(seed)
    text = _planted_duplicates(rng, network_dsl_text(rng))
    outcome = network_parse_outcome(parse_network, text)
    assert outcome == network_parse_outcome(reference_parse_network, text), text
    result, _ = outcome
    if isinstance(result[1], list):  # parsed: the species and the steps
        keys = [(reactant, product) for reactant, product, *_ in result[1]]
        assert len(set(keys)) == len(keys), text


def test_a_merge_warning_points_at_the_caller():
    for build in (
        lambda: parse_network("A ->[1] B\nA ->[2] B"),
        lambda: ReactionNetwork(["A", "B"], parse_network("A ->[1] B").steps * 2),
    ):
        with pytest.warns(UserWarning, match="merged by summing rates") as record:
            build()
        assert [warning.filename for warning in record] == [__file__]


def test_parsing_literal_rates_builds_no_step_through_the_constructor(monkeypatch):
    built = []
    post_init = ReactionStep.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ReactionStep, "__post_init__", counted)
    net = parse_network("A + B <=>[1, 1/2] 2C ->[3+0.5] 0\n1/2 A <-[2] 0; C ->[7/3] B + B")
    assert len(net.steps) == 5 and all(type(step.rate) is Fraction for step in net.steps)
    assert built == []


def test_merged_duplicates_keep_their_warnings_and_rate_order():
    net, messages = warned(
        lambda: parse_network("A ->[k2] B\nC ->[1] D\nA ->[k1] B; A ->[3] B\nC ->[1/2] D")
    )
    assert net.render() == "A ->[k2+k1+3] B\nC ->[3/2] D"
    assert messages == [
        "duplicate step A ->[k1] B merged by summing rates",
        "duplicate step A ->[3] B merged by summing rates",
        "duplicate step C ->[1/2] D merged by summing rates",
    ]
    # the same step object given twice is a duplicate too
    step = ReactionStep(Complex(((0, Fraction(1)),)), Complex(((1, Fraction(1)),)), "k")
    net, messages = warned(lambda: ReactionNetwork(["A", "B"], [step, step, step]))
    assert net.render() == "A ->[k+k+k] B"
    assert messages == ["duplicate step A ->[k] B merged by summing rates"] * 2


# -- rates: one rule for every spelling -------------------------------------------

A = Complex(((0, Fraction(1)),))
B = Complex(((1, Fraction(1)),))


def _json_network(rate) -> dict:
    return {"species": ["A", "B"], "steps": [{"reactant": {"A": "1"}, "product": {"B": "1"}, "rate": rate}]}


@pytest.mark.parametrize(
    "rate, message",
    [
        ("", "invalid rate ''"),
        ("k++1", "invalid rate 'k++1'"),
        ("k+", "invalid rate 'k+'"),
        ("k+-1", "invalid rate parameter '-1'"),
        ("k+.5", "invalid rate parameter '.5'"),
        ("k\n", "invalid rate parameter 'k\\n'"),
        ("2k+k", "invalid rational literal '2k'"),
        ("1/0+k", "invalid rational literal '1/0'"),
        ("0+k", "rate must be positive, got 0"),
        ("k+1/-2", "rate must be positive, got 1/-2"),
        (-2, "rate must be positive, got -2"),
        (Fraction(0), "rate must be positive, got 0"),
        (2.0, "rate must be a Fraction, an int or a str, got float"),
        (True, "rate must be a Fraction, an int or a str, got bool"),
    ],
)
def test_step_refuses_a_rate_outside_the_part_rule(rate, message):
    with pytest.raises(NetworkValidationError) as info:
        ReactionStep(A, B, rate)
    assert str(info.value) == message


def test_step_keeps_rates_inside_the_part_rule():
    rate = ReactionStep(A, B, 2).rate
    assert rate == 2 and type(rate) is Fraction
    for rate in ("k", "k1+2", "k_2+k"):
        assert ReactionStep(A, B, rate).rate == rate
    assert ReactionStep(A, B, "1/2+k+2.5e-3").rate == "1/2+k+1/400"
    assert resolve_rate(ReactionStep(A, B, "1/2+k").rate, {"k": Fraction(1)}) == Fraction(3, 2)


@pytest.mark.parametrize(
    "rate, message",
    [
        ("2k+k", "invalid rational literal '2k'"),
        ("1/0+k", "invalid rational literal '1/0'"),
        ("0+1", "rate must be positive, got 0"),
        ("0+k", "rate must be positive, got 0"),
        ("k + -1", "invalid rate parameter '-1'"),
        ("k++1", "invalid rate 'k++1'"),
    ],
)
def test_json_refuses_a_rate_outside_the_part_rule(rate, message):
    with pytest.raises(NetworkValidationError) as info:
        ReactionNetwork.from_dict(_json_network(rate))
    assert str(info.value) == f"network JSON step 1: {message}"


@pytest.mark.parametrize(
    "rate, expected",
    [(1e-07, Fraction(1, 10**7)), (3, Fraction(3)), ("1/2 + 1/3", Fraction(5, 6)), ("k + 2", "k+2"),
     (1e20, Fraction(10**20)), (2.5e-300, Fraction(25, 10**301)), (10**30, Fraction(10**30))],
)
def test_json_loads_rates_inside_the_part_rule(rate, expected):
    assert ReactionNetwork.from_dict(_json_network(rate)).steps[0].rate == expected


@pytest.mark.parametrize(
    "rate, message",
    [
        (float("nan"), "invalid rational literal 'nan'"),
        (float("inf"), "invalid rational literal 'inf'"),
        (float("-inf"), "invalid rational literal '-inf'"),
        (-1, "rate must be positive, got -1"),
        (0.0, "rate must be positive, got 0"),
    ],
)
def test_json_number_rate_is_one_literal(rate, message):
    """A JSON number is read as one literal, never split on the '+' of its
    exponent nor taken for a parameter name."""
    with pytest.raises(NetworkValidationError) as info:
        ReactionNetwork.from_dict(_json_network(rate))
    assert str(info.value) == f"network JSON step 1: {message}"


def test_cli_parse_reads_a_json_number_rate_as_one_literal(tmp_path, capsys):
    from crnkit.cli import main

    path = tmp_path / "rates.json"
    path.write_text('{"species": ["A", "B"], "steps": [{"reactant": {"A": 1}, "product": {"B": 1}, "rate": 1e20}]}')
    assert main(["parse", str(path)]) == 0
    assert "A ->[100000000000000000000] B" in capsys.readouterr().out
    path.write_text('{"species": ["A", "B"], "steps": [{"reactant": {"A": 1}, "product": {"B": 1}, "rate": Infinity}]}')
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == "error: network JSON step 1: invalid rational literal 'inf'\n"


def test_cli_parse_refuses_a_rate_it_could_not_resolve(tmp_path, capsys):
    from crnkit.cli import main

    path = tmp_path / "rates.json"
    path.write_text(json.dumps(_json_network("2k+k")))
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == "error: network JSON step 1: invalid rational literal '2k'\n"


# -- malformed input: each refusal with its type and message ---------------------


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: Complex(((0, Fraction(1)), (0, Fraction(2)))),
            NetworkValidationError,
            "species index 0 repeated in complex",
            id="repeated-index",
        ),
        pytest.param(
            lambda: parse_network("A + ->[1] B"),
            NetworkSyntaxError,
            "line 1, column 5: expected species term, found '->['",
            id="species-term",
        ),
        pytest.param(
            lambda: parse_network("A ->[1"),
            NetworkSyntaxError,
            "line 1, column 6: unexpected end of line",
            id="end-of-line",
        ),
        pytest.param(
            lambda: parse_network("0A ->[1] B"),
            NetworkSyntaxError,
            "line 1, column 1: stoichiometric coefficient must be positive, got 0",
            id="zero-coefficient",
        ),
        pytest.param(
            lambda: ReactionStep(A, B, Fraction(-1, 2)),
            NetworkValidationError,
            "rate must be positive, got -1/2",
            id="negative-rate",
        ),
        pytest.param(
            lambda: ReactionNetwork(("A", "A"), ()),
            NetworkValidationError,
            "duplicate species names",
            id="duplicate-species",
        ),
        pytest.param(
            lambda: ReactionNetwork(("A",), (ReactionStep(A, B, Fraction(1)),)),
            NetworkValidationError,
            "species index 1 out of range for 1 species",
            id="index-out-of-range",
        ),
        pytest.param(
            lambda: ReactionNetwork.from_dict({"species": ["A"]}),
            ValueError,
            "network JSON needs 'species' and 'steps'",
            id="json-keys",
        ),
    ],
)
def test_malformed_network_input_is_refused(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


# -- one reader per input rule ---------------------------------------------------

BIG = "1" + "0" * 1001  # a digit string longer than MAX_EXPONENT, above its bound


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        ("A ->[1/0] B", 1, 6, "invalid rational literal '1/0'"),
        ("1/0A ->[1] B", 1, 1, "invalid rational literal '1/0'"),
        ("A ->[k] 2/0B", 1, 9, "invalid rational literal '2/0'"),
        ("A ->[k] B\nB <=>[2, k+3/0] C", 2, 12, "invalid rational literal '3/0'"),
        (f"A ->[{BIG}] B", 1, 6,
         f"rational literal '{BIG}' has decimal exponent 1001, outside +-MAX_EXPONENT = 1000"),
        (f"A ->[1] B; {BIG}C ->[1] B", 1, 12,
         f"rational literal '{BIG}' has decimal exponent 1001, outside +-MAX_EXPONENT = 1000"),
    ],
    ids=["rate", "coefficient", "product", "second-line", "long-rate", "long-coefficient"],
)
def test_dsl_literal_errors_carry_their_location(text, line, column, message):
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


def test_cli_exits_2_on_a_dsl_literal_error(tmp_path, capsys):
    from crnkit.cli import main

    path = tmp_path / "bad.txt"
    path.write_text("A ->[1/0] B\n")
    assert main(["parse", str(path)]) == 2
    assert capsys.readouterr().err == "error: line 1, column 6: invalid rational literal '1/0'\n"


# -- the literal bound: what a network stores, its text can spell -----------------

TOP = 10 ** (MAX_EXPONENT + 1)  # the least integer the literal bound refuses
WIDE = "a numerator or denominator of more than 1001 digits, outside +-MAX_EXPONENT = 1000"


@pytest.mark.parametrize("rate", [Fraction(TOP - 1), Fraction(1, TOP - 1), Fraction(TOP - 1, TOP - 2)])
def test_values_inside_the_literal_bound_round_trip_through_text(rate):
    a, b = Complex(((0, Fraction(1)),)), Complex(((1, rate),))
    net = ReactionNetwork(["A", "B"], [ReactionStep(a, b, rate)])
    assert parse_network(net.render()) == net
    assert ReactionNetwork.from_dict(json.loads(net.to_json())) == net


def _refusal(build) -> str:
    with pytest.raises(NetworkValidationError) as info:
        build()
    return str(info.value)


@pytest.mark.parametrize("value", [Fraction(TOP), Fraction(1, TOP), Fraction(TOP + 1, 2)])
def test_python_built_values_outside_the_literal_bound_are_refused(value):
    a, b = Complex(((0, Fraction(1)),)), Complex(((1, Fraction(1)),))
    assert _refusal(lambda: ReactionStep(a, b, value)) == f"rate has {WIDE}"
    assert _refusal(lambda: Complex(((1, value),))) == f"stoichiometric coefficient has {WIDE}"
    # a sum of parts inside the bound, and a merge, are held to it too
    half = Fraction(TOP // 2 + 1)
    assert _refusal(lambda: ReactionStep(a, b, f"{half}+{half}")) == f"rate has {WIDE}"
    with pytest.warns(UserWarning):
        merged = _refusal(
            lambda: ReactionNetwork(["A", "B"], [ReactionStep(a, b, half), ReactionStep(a, b, half)])
        )
    assert merged == f"rate has {WIDE}"


@pytest.mark.parametrize("coeff, kind", [(1.5, "float"), ("2", "str"), (None, "NoneType")])
def test_a_coefficient_must_be_rational(coeff, kind):
    """A float, a str or None is refused by its type, before any comparison."""
    assert _refusal(lambda: Complex(((0, coeff),))) == (
        f"stoichiometric coefficient must be a Fraction or an int, got {kind}"
    )


@pytest.mark.parametrize(
    "entries",
    [((0, 2),), ((1, 1), (0, 3)), ((2, True), (0, Fraction(3))), ((0, 1), (1, 7), (2, 90))],
    ids=repr,
)
def test_int_coefficients_are_stored_as_fractions(entries):
    as_fractions = tuple((index, Fraction(coeff)) for index, coeff in entries)
    built, expected = Complex(entries), Complex(as_fractions)
    assert all(type(coeff) is Fraction for _, coeff in built.entries)
    assert built.entries == expected.entries
    assert built == expected and hash(built) == hash(expected)
    species = ("A", "B", "C")
    assert built.render(species) == expected.render(species)
    other = Complex(((3, 1),))
    for reactant, product in ((built, other), (other, built)):
        step = ReactionStep(reactant, product, 1)
        assert all(type(change) is Fraction for change in step.net_change.values())
        net = ReactionNetwork(("A", "B", "C", "D"), [step])
        reference = ReactionNetwork(
            ("A", "B", "C", "D"),
            [ReactionStep(*(expected if c is built else c for c in (reactant, product)), 1)],
        )
        assert net.to_dict() == reference.to_dict()
        assert dict(step.net_change) == dict(reference.steps[0].net_change)


@pytest.mark.parametrize("coeff, kind", [(0.1, "float"), ("1/2", "str")])
def test_from_mapping_refuses_what_the_constructor_refuses(coeff, kind):
    message = f"stoichiometric coefficient must be a Fraction or an int, got {kind}"
    assert _refusal(lambda: Complex(((0, coeff),))) == message
    assert _refusal(lambda: Complex.from_mapping({1: 1, 0: coeff})) == message


def test_from_mapping_stores_an_int_as_a_fraction_and_drops_zeros():
    built = Complex.from_mapping({2: 3, 0: Fraction(1, 2), 1: 0})
    assert built.entries == ((0, Fraction(1, 2)), (2, Fraction(3)))
    assert all(type(coeff) is Fraction for _, coeff in built.entries)
    assert built == Complex(((2, 3), (0, Fraction(1, 2))))


@pytest.mark.parametrize(
    "text, column, literal",
    [
        (f"A ->[{TOP}/1] B", 6, f"{TOP}/1"),
        (f"A ->[1] {TOP}/3B", 9, f"{TOP}/3"),
        (f"A ->[k + 2/{TOP}] B", 10, f"2/{TOP}"),
        ("A ->[1] 1." + "0" * MAX_EXPONENT + "1B", 9, "1." + "0" * MAX_EXPONENT + "1"),
    ],
    ids=["rate", "coefficient", "rate-part", "long-decimal"],
)
def test_dsl_literals_outside_the_literal_bound_are_refused(text, column, literal):
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network(text)
    assert str(info.value) == f"line 1, column {column}: rational literal {literal!r} has {WIDE}"


def test_dsl_sums_outside_the_literal_bound_are_refused():
    nines = "9" * (MAX_EXPONENT + 1)  # TOP - 1, inside the bound
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network(f"A ->[1] {nines}B + {nines}B")
    assert str(info.value) == f"line 1, column {1014}: stoichiometric coefficient has {WIDE}"
    with pytest.raises(NetworkSyntaxError) as info:
        parse_network(f"A ->[{nines} + {nines}] B")
    assert str(info.value) == f"line 1, column 3: rate has {WIDE}"


@pytest.mark.parametrize("where", ["rate", "coefficient"])
def test_json_literals_outside_the_literal_bound_are_refused(where):
    doc = _json_network(f"{TOP}/1" if where == "rate" else "1")
    if where == "coefficient":
        doc["steps"][0]["product"]["B"] = f"{TOP}/1"
    with pytest.raises(ValueError) as info:
        ReactionNetwork.from_dict(doc)
    assert str(info.value) == f"network JSON step 1: rational literal '{TOP}/1' has {WIDE}"


def test_realize_refuses_a_coefficient_outside_the_literal_bound(tmp_path, capsys):
    from crnkit.cli import main

    nines = "9" * 900
    system = parse_system(f"vars x y\n{nines}*{nines}*y - x\nx - y\n")
    assert _refusal(lambda: canonical_realization(system)) == (
        f"component 1: coefficient of y has {WIDE}"
    )
    path = tmp_path / "sys.txt"
    path.write_text(f"vars x y\n{nines}*{nines}*y - x\nx - y\n")
    assert main(["realize", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: component 1: coefficient of y has {WIDE}\n"


NAMES = st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,3}", fullmatch=True)
# literal parts of a symbolic rate, spelled as the text format reads them
LITERAL_PARTS = st.sampled_from(["1", "2", "7", "1/2", "3/4", "0.5", "2.25", "10"])
JSON_NUMBERS = st.one_of(
    st.integers(1, 1000), st.floats(1e-6, 1e6), st.sampled_from([1e-07, 0.1, 2.5])
)


@st.composite
def json_networks(draw):
    """A network document whose steps may repeat, with literal, symbolic and
    numeric rates; the species are listed in order of first appearance."""
    names = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    coefficient = st.sampled_from(["1", "2", "1/2", "3/2"])

    def complex_(values):
        return draw(st.dictionaries(st.sampled_from(names), values, max_size=2))

    def rate():
        kind = draw(st.sampled_from(["literal", "symbolic", "number"]))
        if kind == "number":
            return draw(JSON_NUMBERS)
        parts = draw(st.lists(st.one_of(LITERAL_PARTS, NAMES), min_size=1, max_size=3))
        if kind == "symbolic":
            parts.append(draw(NAMES))
        return draw(st.sampled_from(["+", " + "])).join(parts)

    steps = []
    for _ in range(draw(st.integers(1, 5))):
        reactant, product = complex_(st.sampled_from(["1", "2"])), complex_(coefficient)
        if reactant == product:
            continue
        for _ in range(draw(st.sampled_from([1, 1, 2]))):  # 2: a step that merges
            steps.append({"reactant": reactant, "product": product, "rate": rate()})
    return {"species": names, "steps": steps}


def by_first_appearance(document):
    """The document with its species reordered as render() first writes them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        net = ReactionNetwork.from_dict(document)
    order = []
    for step in net.steps:
        for index, _ in step.reactant.entries + step.product.entries:
            if net.species[index] not in order:
                order.append(net.species[index])
    return {"species": order, "steps": document["steps"]}


@settings(max_examples=150, deadline=None)
@given(document=json_networks())
def test_json_networks_round_trip_through_text(document):
    if not document["steps"]:
        return
    document = by_first_appearance(document)
    net, messages = warned(lambda: ReactionNetwork.from_dict(document))
    assert len(messages) == len(document["steps"]) - len(net.steps)
    again = parse_network(net.render())
    assert again == net
    assert again.to_dict() == net.to_dict()
    assert ReactionNetwork.from_dict(json.loads(net.to_json())) == net


# literal spellings parse_rational reads but the text format's number token
# does not, with their values
SPELLED_LITERALS = {"2.5e-3": F(1, 400), "1_000": F(1000), "0.50": F(1, 2), "007": F(7),
                    "6/4": F(3, 2), "1.": F(1), "1 /2": F(1, 2), "3": F(3)}
SPELLED_RATES = st.lists(st.one_of(st.sampled_from(sorted(SPELLED_LITERALS)), NAMES),
                         min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(
    rates=st.lists(SPELLED_RATES, min_size=1, max_size=6),
    merges=st.lists(st.integers(0, 5), max_size=3),
    built_by=st.sampled_from(["step", "json"]),
)
def test_stored_rates_round_trip_whatever_their_spelling(rates, merges, built_by):
    # rates[i] are the parts of the rate of S_i -> S_{i+1}; a merge repeats one of those steps
    chosen = list(enumerate(rates))
    chosen += [(i % len(rates), rates[(i + 1) % len(rates)]) for i in merges]
    species = [f"S{i}" for i in range(len(rates) + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if built_by == "step":
            net = ReactionNetwork(species, [
                ReactionStep(Complex(((i, F(1)),)), Complex(((i + 1, F(1)),)), "+".join(parts))
                for i, parts in chosen
            ])
        else:
            net = ReactionNetwork.from_dict({"species": species, "steps": [
                {"reactant": {f"S{i}": 1}, "product": {f"S{i + 1}": 1}, "rate": "+".join(parts)}
                for i, parts in chosen
            ]})
    binding = {name: F(len(name), 3) for parts in rates for name in parts}
    for i, step in enumerate(net.steps):
        parts = [part for j, merged in chosen if j == i for part in merged]
        if all(part in SPELLED_LITERALS for part in parts):
            assert type(step.rate) is F
        else:
            # each stored part is one token the text format reads as a number or a name
            for part in step.rate.split("+"):
                assert network._NET_LEXER.split(part) == [part], part
                assert part[0].isdecimal() or network._NAME_RE.fullmatch(part), part
        expected = sum(SPELLED_LITERALS.get(part) or binding[part] for part in parts)
        assert resolve_rate(step.rate, binding) == expected
    assert parse_network(net.render()) == net
    assert ReactionNetwork.from_dict(net.to_dict()) == net


@pytest.mark.parametrize(
    "rate, name", [(True, "bool"), (None, "NoneType"), ([1], "list"), ({"k": 1}, "dict")]
)
def test_json_refuses_a_rate_that_is_neither_string_nor_number(rate, name):
    with pytest.raises(ValueError) as info:
        ReactionNetwork.from_dict(_json_network(rate))
    assert type(info.value) is ValueError
    assert str(info.value) == f"network JSON step 1 'rate' must be a string or a number, got {name}"


@pytest.mark.parametrize(
    "rate, expected", [(1, Fraction(1)), (1e-07, Fraction(1, 10**7)), ("k + 2", "k+2"),
                       ("1/2+k", "1/2+k")]
)
def test_json_rates_keep_their_reading(rate, expected):
    loaded = ReactionNetwork.from_dict(_json_network(rate)).steps[0].rate
    assert loaded == expected and type(loaded) is type(expected)


def test_names_with_a_trailing_newline_are_refused():
    document = _json_network("1")
    document["species"] = ["A\n", "B"]
    document["steps"][0]["reactant"] = {"A\n": "1"}
    with pytest.raises(NetworkValidationError, match=r"^invalid species name 'A\\n'$"):
        ReactionNetwork.from_dict(document)
    with pytest.raises(NetworkValidationError, match=r"^invalid species name 'A\\n'$"):
        ReactionNetwork(("A\n", "B"), (ReactionStep(A, B, 1),))
    system = PolynomialSystem(("x\n",), (parse_polynomial("-x", ("x",)),))
    with pytest.raises(NetworkValidationError, match=r"^invalid species name 'X\\n'$"):
        canonical_realization(system)


@st.composite
def rate_texts(draw):
    """(text, literal values, names) of a valid str rate, parts in order."""
    literals = st.sampled_from([("3", F(3)), ("1/2", F(1, 2)), ("0.25", F(1, 4)),
                                ("2.5e-3", F(1, 400)), ("6/4", F(3, 2)), ("007", F(7))])
    parts = draw(st.lists(st.one_of(literals, NAMES), min_size=1, max_size=5))
    text = "+".join(p if isinstance(p, str) else p[0] for p in parts)
    return text, [p[1] for p in parts if not isinstance(p, str)], [
        p for p in parts if isinstance(p, str)
    ]


@settings(max_examples=200, deadline=None)
@given(rates=st.lists(rate_texts(), min_size=1, max_size=4), seed=st.integers(0, 2**16))
def test_rates_resolve_and_list_their_parameters_by_one_reading(rates, seed):
    rng = random.Random(seed)
    steps, expected_names = [], []
    for number, (text, values, names) in enumerate(rates):
        binding = {name: F(rng.randint(1, 9), rng.randint(1, 9)) for name in names}
        expected = sum(values, F(0)) + sum(binding[name] for name in names)
        assert resolve_rate(text, binding) == expected
        if names:
            with pytest.raises(UnboundParameterError):
                resolve_rate(text, {})
        # species i -> i + 1 keeps every step distinct
        steps.append(ReactionStep(Complex(((number, F(1)),)), Complex(((number + 1, F(1)),)), text))
        for name in names:
            if name not in expected_names:
                expected_names.append(name)
    net = ReactionNetwork([f"S{i}" for i in range(len(rates) + 1)], steps)
    assert net.rate_parameters() == tuple(expected_names)


@pytest.mark.parametrize(
    "rate, message",
    [("0+k", "rate must be positive, got 0"), ("k\n", "invalid rate parameter 'k\\n'"),
     ("k++1", "invalid rate 'k++1'"), ("2k", "invalid rational literal '2k'")],
)
def test_resolve_rate_refuses_a_malformed_string(rate, message):
    with pytest.raises(NetworkValidationError) as info:
        resolve_rate(rate, {"k": F(1)})
    assert str(info.value) == message


def test_equal_networks_hash_equal_and_a_non_network_is_unequal():
    text = "A + B ->[k] C\nC ->[1] A + B\n"
    first, second = parse_network(text), parse_network(text)
    from_json = ReactionNetwork.from_dict(json.loads(first.to_json()))
    assert first is not second and first == second == from_json
    assert hash(first) == hash(second) == hash(from_json)
    assert len({first, second, from_json}) == 1
    assert len({first, parse_network("A + B ->[k] C\n")}) == 2
    assert (first == text) is False and (first == 1) is False
    assert first != text
