"""The four benchmark workloads: inputs from a seed, one timed operation, checks.

Every workload hands crnkit only plain data (DSL text, coefficient tuples,
parameter tuples or files) and builds the crnkit objects inside the timed
operation.  Inputs come from fixed pools: item ``i`` of a pool is a pure
function of ``i``, and ``--seed`` only chooses which pool items a run visits
and in what order.  That keeps each run free of repeated inputs and lets
``decisions.json`` pin, for every pool item, the answers that are unique
mathematically (found or not, basis dimension, signature, exit code).

An operation's result is checked after the timed loop, against verification
calls into crnkit itself, closed-form oracles, and the stored decisions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter_ns

# -- shared fixtures ----------------------------------------------------------

# The two-species example network; with a=2, b=3 its ODE conserves x^2 + y^2.
EXAMPLE_NETWORK_TEXT = """\
X <-[a] X + Y ->[b] Y
2X ->[b] 2X + Y
2Y ->[a] X + 2Y
"""

# The nine-species catalytic cascade.  With all rates 1 its ODE conserves
# rho = (1, 2, 4, 1, 4, 5, 2, 2, 1) kinetically but not stoichiometrically.
CASCADE_TEXT = """\
A + B ->[1] C
C ->[1] A + B
C ->[1] D + E
D + E ->[1] F
F ->[1] D + E
A + B ->[1] G
G ->[1] H
H ->[1] 2J
2J ->[1] H
2J ->[1] G
"""
CASCADE_RHO = (1, 2, 4, 1, 4, 5, 2, 2, 1)

# The 3-D diagonal-family fixture of acceptance criterion 8 (conserves
# x^2 + y^2 + z^2): f_m = sum_p K[m][p] x_p^2 - K[p][m] x_m x_p.
DIAG3_COUPLING = ((0, 2, 3), (4, 0, 5), (6, 7, 0))

DRIFT_BOUND = 1e-6  # acceptance criterion 8


def _pool_rng(pool: str, index: int) -> random.Random:
    return random.Random(f"perfbench:{pool}:{index}")


def _rate_text(rng: random.Random) -> str:
    value = F(rng.randint(1, 5), rng.choice((1, 1, 2, 3)))
    return str(value)


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


class Workload:
    """Defaults shared by the workloads.

    ``block`` is the number of operations that make up one full mix of input
    classes; a run ends only at a block boundary.
    """

    block = 1

    def untimed_ns(self, output) -> int:
        """Part of an operation's time that is not counted as its time."""
        return 0

    def after(self, data, output):
        """Collect what the output left outside the process, untimed."""
        return output

    def token(self, key, data, output) -> str:
        """The stored decision of one operation; empty when nothing is stored."""
        return ""


def _system_from_terms(api, variables, terms):
    """Build a PolynomialSystem from plain ``{exponents: coefficient}`` dicts."""
    dim = len(variables)
    return api.PolynomialSystem(
        tuple(variables), tuple(api.Polynomial(dim, t) for t in terms)
    )


def _planar_terms(coeffs):
    a1, b1, c1, a2, b2, c2 = coeffs
    return (
        {(2, 0): a1, (1, 1): b1, (0, 2): c1},
        {(2, 0): a2, (1, 1): b2, (0, 2): c2},
    )


# -- closed-form oracles for planar homogeneous quadratic systems ----------------

def planar_diagonal_oracle(coeffs) -> bool:
    """Does f match the template conserving w1 x^2 + w2 y^2 (w > 0)?

    f1 = w2 K12 y^2 - w2 K21 x y,  f2 = w1 K21 x^2 - w1 K12 x y
    with K12, K21 >= 0: no own-square terms, signs fixed, and when both
    couplings are active the cross products agree.
    """
    a1, b1, c1, a2, b2, c2 = coeffs
    if a1 != 0 or c2 != 0:
        return False
    if c1 < 0 or a2 < 0 or b1 > 0 or b2 > 0:
        return False
    if (c1 == 0) != (b2 == 0) or (a2 == 0) != (b1 == 0):
        return False
    return b1 * b2 == c1 * a2


def planar_conservation_oracle(coeffs) -> bool:
    """Is rho1 f1 + rho2 f2 = 0 for some rho > 0?  (f2 = -t f1 with t > 0.)"""
    f1, f2 = coeffs[:3], coeffs[3:]
    if not any(f1):
        return not any(f2)
    pivot = next(i for i, v in enumerate(f1) if v != 0)
    ratio = F(f2[pivot]) / f1[pivot]
    return ratio < 0 and all(b == ratio * a for a, b in zip(f1, f2))


def _bool_token(value) -> str:
    return "1" if value else "0"


SIGNATURE_CODES = {
    None: "-",
    "positive-definite diagonal": "p",
    "definite": "d",
    "indefinite": "i",
    "degenerate": "g",
}


# -- screen ------------------------------------------------------------------------

GRID_FREE = (F(0), F(1, 2), F(1), F(2), F(-1, 2), F(-1), F(-2))
GRID_NONNEG = (F(0), F(1, 2), F(1), F(2))
# slot order a1 b1 c1 a2 b2 c2; the cross slots c1 and a2 stay nonnegative,
# so every grid system is kinetic
GRID_RADICES = (GRID_FREE, GRID_FREE, GRID_NONNEG, GRID_NONNEG, GRID_FREE, GRID_FREE)
GRID_SIZE = math.prod(len(r) for r in GRID_RADICES)  # 38,416
FEASIBLE_POOL = 6000
FEASIBLE_EVERY = 8  # one operation in eight takes the witness-found path


def grid_coeffs(index: int) -> tuple[F, ...]:
    out = []
    for radix in reversed(GRID_RADICES):
        index, digit = divmod(index, len(radix))
        out.append(radix[digit])
    return tuple(reversed(out))


def feasible_params(index: int):
    """Diagonal-family draws in 3-4 D and positive-diagonal binary forms."""
    rng = _pool_rng("screen-feasible", index)
    if index % 2 == 0:
        m = rng.randint(3, 4)
        weights = tuple(F(rng.randint(1, 6), rng.randint(1, 4)) for _ in range(m))
        coupling = tuple(
            tuple(
                F(0) if i == j else F(rng.randint(0, 4), rng.choice((1, 2, 3)))
                for j in range(m)
            )
            for i in range(m)
        )
        return ("diagonal", weights, coupling)
    a = F(rng.randint(1, 6), rng.randint(1, 3))
    c = F(rng.randint(1, 6), rng.randint(1, 3))
    k = F(rng.randint(0, 4), rng.choice((1, 2)))
    l = F(rng.randint(0, 4), rng.choice((1, 2)))
    return ("ellipse", a, c, k, l)


class Screen(Workload):
    """Many tiny exact problems: criterion 4's signed grid plus feasible draws."""

    name = "screen"
    block = FEASIBLE_EVERY

    def schedule(self, seed: int) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        grid = rng.sample(range(GRID_SIZE), GRID_SIZE)
        feasible = rng.sample(range(FEASIBLE_POOL), FEASIBLE_POOL)
        out = []
        gi = fi = 0
        while gi < len(grid) and fi < len(feasible):
            if len(out) % FEASIBLE_EVERY == FEASIBLE_EVERY - 1:
                out.append(("screen-feasible", feasible[fi]))
                fi += 1
            else:
                out.append(("screen-grid", grid[gi]))
                gi += 1
        return out

    def plain(self, key):
        pool, index = key
        if pool == "screen-grid":
            return grid_coeffs(index)
        return feasible_params(index)

    def build(self, api, key, data):
        pool, _ = key
        if pool == "screen-grid":
            return _system_from_terms(api, ("x", "y"), _planar_terms(data))
        if data[0] == "diagonal":
            return api.generate_diagonal_system(api.DiagonalParams(data[1], data[2]))
        _, a, c, k, l = data
        return api.generate_binary_form_system(
            api.BinaryFormParams(family="ellipse_hyperbola", a=a, b=F(0), c=c, k=k, l=l)
        )

    def run(self, api, key, data, spans):
        if key[0] == "screen-grid":
            with spans("poly.system_build"):
                system = self.build(api, key, data)
        else:
            system = self.build(api, key, data)
        cross = api.negative_cross_effect(system)
        conservation = api.kinetic_conservation(system)
        report = api.find_quadratic_first_integrals(system, "positive-diagonal")
        return cross, conservation, report

    def token(self, key, data, result) -> str:
        _, conservation, report = result
        return (
            _bool_token(conservation is not None)
            + _bool_token(report.found)
            + str(len(report.basis))
        )

    def check(self, crnkit, key, data, result):
        cross, conservation, report = result
        system = self.build(crnkit, key, data)
        require(cross.is_kinetic, "kinetic system reported as not kinetic")
        if conservation is not None:
            require(
                crnkit.verify_conservation(conservation, system),
                "kinetic conservation witness does not verify",
            )
        for element in report.basis:
            require(crnkit.is_first_integral(element, system), "basis element is no first integral")
        if report.found:
            require(report.candidate is not None, "found without a candidate")
            require(
                crnkit.is_first_integral(report.candidate, system),
                "positive-diagonal candidate is no first integral",
            )
            require(
                report.candidate.signature() == "positive-definite diagonal",
                "candidate is not positive-definite diagonal",
            )
        if key[0] == "screen-grid":
            require(
                report.found == planar_diagonal_oracle(data),
                "QFI decision disagrees with the closed-form oracle",
            )
            require(
                (conservation is not None) == planar_conservation_oracle(data),
                "conservation decision disagrees with the closed-form oracle",
            )
        else:
            require(report.found, "feasible draw reported without a witness")


# -- networks ----------------------------------------------------------------------

NETWORK_SIZES = (3, 4, 5, 6, 7, 8, 9)
NETWORK_POOL_PER_CLASS = 128  # a power of two, for stratified_order
# each networks pool's items from cheapest to dearest, as measured by
# record_decisions.py
NETWORK_COSTS = Path(__file__).with_name("network_costs.json")
SPECIES_LETTERS = "ABCDEFGHI"


def _complex_text(entries) -> str:
    if not entries:
        return "0"
    return " + ".join(
        (f"{c}{SPECIES_LETTERS[i]}" if c > 1 else SPECIES_LETTERS[i]) for i, c in entries
    )


def random_network_text(n: int, index: int) -> str:
    """n + 2 steps: n of the form Xi + Xj -> Xk, two of the form Xi -> Xj + Xk.

    Reactant complexes are distinct and no species is on both sides, so each
    step adds exactly three terms to the ODE: every network of a size has the
    same number of terms, and the cost of one network of a given size stays
    steady.  A quarter of the steps are written with the reverse arrow.
    """
    rng = _pool_rng(f"networks-{n}", index)
    pairs = rng.sample([(i, j) for i in range(n) for j in range(i + 1, n)], n)
    singles = rng.sample(range(n), 2)
    steps = []
    for i, j in pairs:
        k = rng.choice([s for s in range(n) if s not in (i, j)])
        steps.append((((i, 1), (j, 1)), ((k, 1),)))
    for i in singles:
        j, k = sorted(rng.sample([s for s in range(n) if s != i], 2))
        steps.append((((i, 1),), ((j, 1), (k, 1))))
    rng.shuffle(steps)
    lines = []
    for reactant, prod in steps:
        if rng.random() < 0.25:
            lines.append(
                f"{_complex_text(prod)} <-[{_rate_text(rng)}] {_complex_text(reactant)}"
            )
        else:
            lines.append(
                f"{_complex_text(reactant)} ->[{_rate_text(rng)}] {_complex_text(prod)}"
            )
    return "\n".join(lines) + "\n"


def stratified_order(ranked: list[int], rng: random.Random) -> list[int]:
    """A pool's items in an order whose every prefix spans the cost ranks evenly.

    ``ranked`` lists the items from cheapest to dearest.  Position k takes
    rank (offset + k with its bits reversed) mod n, so the first m items
    sample the whole cost range about evenly, and the seed only picks the
    offset.  With plain random orders, two seeds could draw mostly cheap or
    mostly dear networks, which moved the networks metrics by 6-9 % from seed
    to seed.
    """
    n = len(ranked)
    bits = n.bit_length() - 1
    offset = rng.randrange(n)
    return [ranked[(offset + int(f"{k:0{bits}b}"[::-1], 2)) % n] for k in range(n)]


def cascade_text(index: int) -> str:
    """The cascade's structure with seeded rational rates (index 0: all 1)."""
    if index == 0:
        return CASCADE_TEXT
    rng = _pool_rng("networks-cascade", index)
    return "".join(
        line.replace("[1]", f"[{_rate_text(rng)}]") + "\n"
        for line in CASCADE_TEXT.splitlines()
    )


class Networks(Workload):
    """Full analysis of single networks with 3-9 species plus the cascade."""

    name = "networks"
    # One block: one network of each size 3-8, then a random 9-species
    # network or the cascade, in turn, shuffled.  Each of the seven slots holds
    # 1/7 of the operations, so the median falls inside the 6-species class
    # instead of between two classes.
    block = len(NETWORK_SIZES)

    def schedule(self, seed: int) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        ranked = json.loads(NETWORK_COSTS.read_text())
        pools = [f"networks-{n}" for n in NETWORK_SIZES] + ["networks-cascade"]
        orders = {pool: iter(stratified_order(ranked[pool], rng)) for pool in pools}
        out = []
        for b in range(NETWORK_POOL_PER_CLASS):
            largest = pools[-1 - b % 2]
            block = [(pool, next(orders[pool])) for pool in pools[:-2] + [largest]]
            rng.shuffle(block)
            out.extend(block)
        return out

    def plain(self, key):
        pool, index = key
        if pool == "networks-cascade":
            return cascade_text(index)
        return random_network_text(int(pool.rsplit("-", 1)[1]), index)

    def run(self, api, key, text, spans):
        network = api.parse_network(text)
        system = api.induced_kinetic_ode(network)
        stoich = api.stoichiometric_conservation(network)
        kinetic = api.kinetic_conservation(system)
        full = api.find_quadratic_first_integrals(system)
        diagonal = api.find_quadratic_first_integrals(system, "positive-diagonal")
        realized = api.canonical_realization(system)
        round_trip = api.induced_kinetic_ode(realized)
        return network, system, stoich, kinetic, full, diagonal, round_trip

    def token(self, key, text, result) -> str:
        _, _, stoich, kinetic, full, diagonal, _ = result
        return ",".join((
            _bool_token(stoich is not None),
            _bool_token(kinetic is not None),
            _bool_token(full.found),
            str(len(full.basis)),
            SIGNATURE_CODES[full.signature],
            _bool_token(diagonal.found),
            str(len(diagonal.basis)),
        ))

    def check(self, crnkit, key, text, result):
        network, system, stoich, kinetic, full, diagonal, round_trip = result
        require(network == crnkit.parse_network(text), "parse is not deterministic")
        require(system == crnkit.induced_kinetic_ode(network), "ODE is not deterministic")
        if stoich is not None:
            require(crnkit.verify_conservation(stoich, network), "stoichiometric witness fails")
            as_kinetic = crnkit.ConservationVector(stoich.rho, "kinetic")
            require(
                crnkit.verify_conservation(as_kinetic, system),
                "stoichiometric witness fails kinetically (criterion 9)",
            )
            require(kinetic is not None, "stoichiometric law found but no kinetic one")
        if kinetic is not None:
            require(crnkit.verify_conservation(kinetic, system), "kinetic witness fails")
        for report in (full, diagonal):
            for element in report.basis:
                require(crnkit.is_first_integral(element, system), "basis element is no first integral")
            if report.candidate is not None:
                require(
                    crnkit.is_first_integral(report.candidate, system),
                    "candidate is no first integral",
                )
        require(full.found == bool(full.basis), "full search: found disagrees with basis")
        if diagonal.found:
            require(full.found, "diagonal integral found but full search found none")
            require(
                diagonal.candidate.signature() == "positive-definite diagonal",
                "diagonal candidate has the wrong signature",
            )
        require(round_trip == system, "realization does not round-trip")
        if key == ("networks-cascade", 0):
            rho = tuple(F(v) for v in CASCADE_RHO)
            require(
                crnkit.verify_conservation(crnkit.ConservationVector(rho, "kinetic"), system),
                "cascade loses its known kinetic law",
            )
            require(kinetic is not None, "cascade lost its kinetic witness")


# -- simulate ----------------------------------------------------------------------

SIM_CASES = ("2d-rk4", "2d-rk4-project", "3d-rk4", "9d-rk4", "9d-rkf45")
SIM_T_END = 1.0
SIM_DT = 1e-3
SIM_TOL = 1e-9


def _diag3_terms():
    n = 3
    terms = []
    for m in range(n):
        t = {}
        for p in range(n):
            if p == m:
                continue
            sq = tuple(2 if i == p else 0 for i in range(n))
            cross = tuple(1 if i in (m, p) else 0 for i in range(n))
            t[sq] = t.get(sq, 0) + F(DIAG3_COUPLING[m][p])
            t[cross] = t.get(cross, 0) - F(DIAG3_COUPLING[p][m])
        terms.append(t)
    return tuple(terms)


DIAG3_TERMS = _diag3_terms()


class Simulate(Workload):
    """Seeded trajectories on the conserved fixtures, RK4 and RKF45."""

    name = "simulate"
    block = len(SIM_CASES)

    def schedule(self, seed: int) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        # x0 is drawn from the seed, so no trajectory repeats within a run
        return [(SIM_CASES[i % len(SIM_CASES)], rng.getrandbits(48)) for i in range(100_000)]

    def plain(self, key):
        case, draw = key
        rng = random.Random(draw)
        if case.startswith("2d"):
            angle = rng.uniform(0.15, 1.4)
            radius = rng.uniform(0.5, 1.0)
            return (radius * math.cos(angle), radius * math.sin(angle))
        if case == "3d-rk4":
            v = [rng.uniform(0.1, 1.0) for _ in range(3)]
            norm = math.sqrt(sum(x * x for x in v))
            return tuple(x / norm for x in v)
        return tuple(rng.uniform(0.1, 1.0) for _ in range(9))

    def fixture(self, api, case, spans):
        """System (built from plain data) and invariant for one case."""
        if case.startswith("2d"):
            network = api.parse_network(EXAMPLE_NETWORK_TEXT)
            system = api.induced_kinetic_ode(network, {"a": F(2), "b": F(3)})
            return system, api.QuadraticCandidate.diagonal((F(1), F(1)))
        if case == "3d-rk4":
            with spans("poly.system_build"):
                system = _system_from_terms(api, ("x", "y", "z"), DIAG3_TERMS)
            return system, api.QuadraticCandidate.diagonal((F(1), F(1), F(1)))
        system = api.induced_kinetic_ode(api.parse_network(CASCADE_TEXT))
        zero = tuple((F(0),) * 9 for _ in range(9))
        return system, api.QuadraticCandidate(zero, tuple(F(v) for v in CASCADE_RHO))

    def config(self, api, case):
        return api.SimConfig(
            method="rkf45_adaptive" if case.endswith("rkf45") else "rk4_fixed",
            step=SIM_DT,
            tolerance=SIM_TOL,
            t_end=SIM_T_END,
            projection="level_set" if case.endswith("project") else "off",
        )

    def run(self, api, key, x0, spans):
        case = key[0]
        system, invariant = self.fixture(api, case, spans)
        trajectory = api.integrate(system, x0, self.config(api, case), invariant)
        drift = api.drift_report(trajectory)
        steps = len(trajectory.times) - 1
        return steps, trajectory.times[-1], trajectory.states[-1], drift

    def steps(self, result) -> int:
        return result[0]

    def check(self, crnkit, key, x0, result):
        steps, t_last, final, drift = result
        case = key[0]
        require(abs(t_last - SIM_T_END) < 1e-9, "trajectory stops short of t_end")
        require(all(math.isfinite(v) and v >= 0 for v in final), "final state leaves the orthant")
        if case.endswith("rk4") or case.endswith("project"):
            require(steps == round(SIM_T_END / SIM_DT), "RK4 took the wrong number of steps")
        require(steps > 0, "no steps taken")
        require(
            drift["max_abs_drift"] <= DRIFT_BOUND,
            f"invariant drift {drift['max_abs_drift']:.3e} exceeds {DRIFT_BOUND}",
        )


# -- cli -----------------------------------------------------------------------------

CLI_POOL = 1024  # sessions
CLI_NETWORK_OFFSET = 1_000_000
CLI_KINDS = (
    "parse", "odes", "check-kinetic", "check-conserve-stoich",
    "check-conserve-kinetic", "check-qfi", "check-qfi-diagonal", "check-log-lv",
    "check-no-periodic", "generate-diagonal", "generate-ellipse", "realize",
    "simulate", "bad-network", "bad-system", "bad-generate",
)
# payload field holding each subcommand's decision
CLI_DECISION_FIELD = {
    "check-kinetic": "is_kinetic",
    "check-conserve-stoich": "exists",
    "check-conserve-kinetic": "exists",
    "check-qfi": "found",
    "check-qfi-diagonal": "found",
    "check-log-lv": "log_integral",
    "check-no-periodic": "verdict",
    "realize": "realizable",
}


def _term_text(coeff, names, exps) -> str:
    return "*".join([str(coeff)] + [(v if e == 1 else f"{v}^{e}") for v, e in zip(names, exps) if e])


def _sum_text(terms) -> str:
    return " + ".join(terms).replace("+ -", "- ")


def _random_exponents(rng: random.Random, dim: int, max_degree: int) -> list[int]:
    exps = [0] * dim
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(dim)] += 1
    return exps


def _poly_text(rng: random.Random, names) -> str:
    """A random polynomial of degree <= 2 with coefficients of either sign."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        coeff = F(rng.randint(1, 4), rng.choice((1, 2)))
        if rng.random() < 0.4:
            coeff = -coeff
        terms.append(_term_text(coeff, names, _random_exponents(rng, len(names), 2)))
    return _sum_text(terms)


def _kinetic_system_text(rng: random.Random, names) -> list[str]:
    """Random components made kinetic: negative terms carry their own variable."""
    comps = []
    for m in range(len(names)):
        terms = []
        for _ in range(rng.randint(1, 3)):
            exps = _random_exponents(rng, len(names), 2)
            coeff = F(rng.randint(1, 4), rng.choice((1, 2)))
            if rng.random() < 0.5:
                exps[m] = max(exps[m], 1)
                coeff = -coeff
            terms.append(_term_text(coeff, names, exps))
        comps.append(_sum_text(terms))
    return comps


def cli_item(index: int, kind: str) -> dict:
    """One CLI invocation: subcommand arguments and the input file's text."""
    rng = _pool_rng(f"cli-{kind}", index)
    item = {"kind": kind, "text": None, "args": []}
    # networks drawn here stay apart from the networks workload's pools
    network_index = CLI_NETWORK_OFFSET + index
    if kind in ("parse", "odes", "check-conserve-stoich", "check-conserve-kinetic"):
        item["text"] = random_network_text(rng.randint(3, 5), network_index)
    elif kind in ("check-kinetic", "realize"):
        names = ("x", "y", "z")[: rng.randint(2, 3)]
        comps = (
            _kinetic_system_text(rng, names)
            if rng.random() < 0.6
            else [_poly_text(rng, names) for _ in names]
        )
        item["text"] = "vars " + " ".join(names) + "\n" + "\n".join(comps) + "\n"
    elif kind in ("check-qfi", "check-qfi-diagonal", "check-log-lv", "check-no-periodic"):
        if kind == "check-log-lv" and rng.random() < 0.5:
            c = F(rng.randint(1, 4), rng.choice((1, 2)))
            comps = [f"{c}*x*y - {c}*x", f"-{c}*x*y + {c}*y"]
        elif rng.random() < 0.5:
            coeffs = grid_coeffs(rng.randrange(GRID_SIZE))
            comps = [
                _sum_text(f"{v}*{m}" for v, m in zip(part, ("x^2", "x*y", "y^2")))
                for part in (coeffs[:3], coeffs[3:])
            ]
        else:
            comps = _kinetic_system_text(rng, ("x", "y"))
        item["text"] = "vars x y\n" + "\n".join(comps) + "\n"
        if kind == "check-qfi-diagonal":
            item["args"] = ["--filter", "positive-diagonal"]
    elif kind == "generate-diagonal":
        m = rng.randint(2, 3)
        weights = ",".join(str(F(rng.randint(1, 5), rng.randint(1, 3))) for _ in range(m))
        coupling = ";".join(
            ",".join("0" if i == j else str(rng.randint(0, 3)) for j in range(m))
            for i in range(m)
        )
        item["args"] = ["--family", "diagonal", "--weights", weights, "--coupling", coupling]
    elif kind == "generate-ellipse":
        a, c = rng.randint(1, 5), rng.randint(1, 5)
        b = rng.choice([v for v in range(-2, 3) if v * v != a * c])
        item["args"] = [
            "--family", "ellipse-hyperbola", "--a", str(a), "--b", str(b), "--c", str(c),
            "--k", str(rng.randint(0, 3)), "--l", str(rng.randint(0, 3)),
        ]
    elif kind == "simulate":
        item["text"] = "vars x y\n2*y^2 - 3*x*y\n3*x^2 - 2*x*y\n"
        x0 = f"{rng.uniform(0.3, 0.7):.6f},{rng.uniform(0.3, 0.7):.6f}"
        item["args"] = ["--x0", x0, "--t-end", "0.05", "--invariant", "x^2 + y^2"]
    elif kind == "bad-network":
        bad = rng.choice(("A + ->[1] B", "A ->[0] B", "A ->[1]", "1/2A ->[1] B",
                          "A -> B", "A ->[k B", "A ->[1] B ->"))
        item["text"] = random_network_text(3, network_index) + bad + "\n"
    elif kind == "bad-system":
        item["text"] = "vars x y\n" + rng.choice(
            ("x + q\ny\n", "x^\ny\n", "x*y\n", "2*x -\ny\n", "x^1.5\ny\n")
        )
    else:  # bad-generate
        item["args"] = ["--family", "diagonal", "--weights", f"-{rng.randint(1, 3)},1",
                        "--coupling", "0,1;1,0"]
    return item


FILESYSTEM_CALLS = ("read_text", "read_bytes", "write_bytes", "mkdir")


@contextlib.contextmanager
def filesystem_timer():
    """Sum the ns spent in the pathlib calls crnkit's CLI does all its I/O with."""
    spent = [0]
    originals = {name: getattr(Path, name) for name in FILESYSTEM_CALLS}

    def timed(fn):
        def wrapper(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[0] += perf_counter_ns() - start

        return wrapper

    for name, fn in originals.items():
        setattr(Path, name, timed(fn))
    try:
        yield spent
    finally:
        for name, fn in originals.items():
            setattr(Path, name, fn)


def cli_argv(item: dict, target: str | None, out: str) -> list[str]:
    kind = item["kind"]
    if kind in ("parse", "odes", "realize", "simulate"):
        head = [kind, target]
    elif kind == "bad-network":
        head = ["parse", target]
    elif kind == "bad-system":
        head = ["check", target, "--property", "kinetic"]
    elif kind.startswith("check-"):
        prop = {"check-qfi-diagonal": "qfi"}.get(kind, kind[len("check-"):])
        head = ["check", target, "--property", prop]
    else:
        head = ["generate"]
    return head + item["args"] + ["--json", "--out", out]


class Cli(Workload):
    """In-process ``crnkit.cli.main`` over a seeded mix of subcommands.

    One operation is a session: every subcommand kind once, in a seeded
    order, each on its own freshly generated input, as a script driving the
    CLI over a batch of files would.  Single calls of 3-7 ms would put the
    tail at the filesystem's occasional 10 ms write stalls; a session's time
    is mostly crnkit's.  Each input file is written before the session to a
    path per kind, and each call writes its ``--out`` directory over the one
    of the same kind from the session before, as when a user re-runs a
    command into the same directory: creating a directory with its files
    costs about 2.4 ms on the filesystems measured, against 0.5 ms to
    overwrite, and varies from minute to minute.  The outputs are read back
    after the session, outside its time.
    """

    name = "cli"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def schedule(self, seed: int) -> list[tuple[str, int]]:
        rng = random.Random(seed)
        return [("cli", i) for i in rng.sample(range(CLI_POOL), CLI_POOL)]

    def plain(self, key):
        """Write the session's input files; the files are part of the plain input."""
        index = key[1]
        kinds = list(CLI_KINDS)
        _pool_rng("cli-session", index).shuffle(kinds)
        calls = []
        for kind in kinds:
            item = cli_item(index, kind)
            target = None
            if item["text"] is not None:
                target = str(self.workdir / f"in-{kind}.txt")
                Path(target).write_text(item["text"])
            out = str(self.workdir / f"out-{kind}")
            calls.append({**item, "argv": cli_argv(item, target, out), "out": out})
        return calls

    def run(self, api, key, calls, spans):
        outcomes = []
        with filesystem_timer() as filesystem_ns:
            for call in calls:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    try:
                        code = api.cli.main(list(call["argv"]))
                    except SystemExit as exc:  # argparse rejects bad arguments this way
                        code = exc.code
                outcomes.append((code, stdout.getvalue(), stderr.getvalue()))
        return {"outcomes": outcomes, "filesystem_ns": filesystem_ns[0]}

    def untimed_ns(self, output) -> int:
        return output["filesystem_ns"]

    def after(self, calls, output):
        """Read back each --out directory before the next session overwrites it.

        Appends to each call's outcome the bytes written and the first output
        whose manifest digest is wrong.
        """
        collected = []
        for call, (code, stdout, stderr) in zip(calls, output["outcomes"]):
            written, mismatch = 0, None
            if code != 2:
                out = Path(call["out"])
                manifest_bytes = (out / "manifest.json").read_bytes()
                written = len(manifest_bytes)
                for name, digest in json.loads(manifest_bytes)["outputs"].items():
                    body = (out / name).read_bytes()
                    written += len(body)
                    if hashlib.sha256(body).hexdigest() != digest:
                        mismatch = mismatch or name
            collected.append((code, stdout, stderr, written, mismatch))
        return collected

    def token(self, key, calls, outcomes) -> str:
        return "".join(str(outcome[0]) for outcome in outcomes)

    def expected(self, crnkit, data):
        """(exit code, decision) computed through the API for the same input."""
        kind, text = data["kind"], data["text"]
        if kind.startswith("bad-"):
            return 2, None
        if kind == "parse":
            return 0, None
        if kind == "odes":
            system = crnkit.induced_kinetic_ode(crnkit.parse_network(text))
            return 0, system.to_dict()
        if kind == "check-conserve-stoich":
            found = crnkit.stoichiometric_conservation(crnkit.parse_network(text))
            return (0 if found else 1), found is not None
        if kind == "check-conserve-kinetic":
            system = crnkit.induced_kinetic_ode(crnkit.parse_network(text))
            found = crnkit.kinetic_conservation(system)
            return (0 if found else 1), found is not None
        if kind.startswith("generate-") or kind == "simulate":
            return 0, None
        system = crnkit.parse_system(text)
        if kind == "check-kinetic":
            ok = crnkit.negative_cross_effect(system).is_kinetic
            return (0 if ok else 1), ok
        if kind == "realize":
            ok = crnkit.negative_cross_effect(system).is_kinetic
            return (0 if ok else 1), ok
        if kind in ("check-qfi", "check-qfi-diagonal"):
            flt = "positive-diagonal" if kind == "check-qfi-diagonal" else None
            found = crnkit.find_quadratic_first_integrals(system, flt).found
            return (0 if found else 1), found
        if kind == "check-log-lv":
            ok = crnkit.lotka_volterra_log_check(system)
            return (0 if ok else 1), ok
        cert = crnkit.no_periodic_orbit_certificate(system)
        return (0 if cert.holds else 1), cert.verdict

    def check(self, crnkit, key, calls, outcomes):
        require(len(outcomes) == len(calls), "a call of the session is missing")
        for call, outcome in zip(calls, outcomes):
            self.check_call(crnkit, call, outcome)

    def check_call(self, crnkit, data, outcome):
        code, stdout, stderr, _, mismatch = outcome
        want_code, want_decision = self.expected(crnkit, data)
        require(code == want_code, f"{data['kind']}: exit {code}, expected {want_code}")
        if code == 2:
            require(stderr.strip() and not stdout.strip(), "exit 2 without an error message")
            return
        payload = json.loads(stdout)
        kind = data["kind"]
        if kind in CLI_DECISION_FIELD:
            require(
                payload[CLI_DECISION_FIELD[kind]] == want_decision,
                f"{kind}: --json decision disagrees with the API",
            )
        elif kind == "parse":
            network = crnkit.parse_network(data["text"])
            require(payload == network.to_dict(), "parse payload disagrees with the API")
        elif kind == "odes":
            require(payload == want_decision, "odes payload disagrees with the API")
        elif kind.startswith("generate-"):
            require(all(payload["checks"].values()), "generated system fails its checks")
        elif kind == "simulate":
            require(payload["drift"]["max_abs_drift"] <= DRIFT_BOUND, "CLI simulate drifts")
        require(mismatch is None, f"manifest digest of {mismatch} is wrong")


def make(name: str, workdir: Path):
    if name == "screen":
        return Screen()
    if name == "networks":
        return Networks()
    if name == "simulate":
        return Simulate()
    if name == "cli":
        return Cli(workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOAD_NAMES = ("screen", "networks", "simulate", "cli")
