"""From networks to polynomial dynamics and back.

The induced mass-action ODE of a network assigns each species the polynomial

    f_m = sum over steps r of (beta[m,r] - alpha[m,r]) * k_r * prod_p x_p^alpha[p,r]

A polynomial system arises this way from some network exactly when no
component f_m carries a negatively-signed term whose monomial omits x_m (a
"negative cross-effect").  The constructive converse realizes each term as a
single reaction step, which fixes one canonical network per kinetic system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .network import (
    Complex,
    NetworkValidationError,
    ReactionNetwork,
    ReactionStep,
    UnboundParameterError,
    check_reactant_degree,
    check_species_names,
    resolve_rate,
)
from .numbers import exceeds_literal_bound, format_rational, outside_literal_bound
from .poly import SMALL_FRACTIONS, Exponents, Polynomial, PolynomialSystem, grlex_key

_ONE, _MINUS_ONE = SMALL_FRACTIONS[1], Fraction(-1)


def ode_variable_names(species: Sequence[str]) -> tuple[str, ...]:
    """Concentration variable names for a species list.

    Species written in the conventional uppercase style (X, Y, NO2) get
    lowercase concentration names; anything else is kept verbatim.  The
    lowering is skipped entirely if it would collide.
    """
    if all(name[:1].isupper() for name in species):
        lowered = tuple(name.lower() for name in species)
        if len(set(lowered)) == len(lowered):
            return lowered
    return tuple(species)


def species_names_for_variables(variables: Sequence[str]) -> tuple[str, ...]:
    """Inverse convention of `ode_variable_names` for realized networks."""
    if all(name[:1].islower() for name in variables):
        raised = tuple(name[0].upper() + name[1:] for name in variables)
        if len(set(raised)) == len(raised):
            return raised
    return tuple(variables)


def induced_kinetic_ode(
    network: ReactionNetwork, params: Mapping[str, Fraction] | None = None
) -> PolynomialSystem:
    """Mass-action ODE system of a network, with all rates bound to rationals.

    A Fraction rate is used as it is: `ReactionStep` has checked it is > 0.
    A str rate names a parameter, so it is resolved against `params`:
    UnboundParameterError for an unbound name, ValueError when the bound sum
    is not > 0.  A net change of +-1 contributes +-k as is.
    """
    m = network.num_species
    variables = ode_variable_names(network.species)
    terms: list[dict[Exponents, Fraction]] = [dict() for _ in range(m)]
    for step in network.steps:
        k = step.rate
        if isinstance(k, str):
            k = resolve_rate(k, params)
            if k <= 0:
                raise ValueError(
                    f"rate of step {step.render(network.species)} resolves to {k}; "
                    "must be positive"
                )
        exponents = [0] * m
        for index, coeff in step.reactant.entries:
            exponents[index] = coeff.numerator
        mono = tuple(exponents)
        for index, change in step.net_change.items():
            term = k if change == 1 else -k if change == -1 else change * k
            bucket = terms[index]
            old = bucket.get(mono)
            bucket[mono] = term if old is None else old + term
    # opposite steps cancel: drop the zero sums
    components = tuple(
        Polynomial._from_clean(m, {e: c for e, c in t.items() if c}) for t in terms
    )
    return PolynomialSystem(variables, components)


# -- negative cross-effects -------------------------------------------------

@dataclass(frozen=True)
class CrossEffectViolation:
    """A negatively-signed term whose monomial omits the component's variable."""

    component: int  # 0-based index into the system
    exponents: Exponents
    coefficient: Fraction

    def describe(self, variables: Sequence[str]) -> str:
        mono = Polynomial.monomial(len(variables), self.exponents).render(variables)
        return (
            f"component {self.component + 1}: term {format_rational(self.coefficient)}"
            f"*{mono} has no {variables[self.component]} factor"
        )


@dataclass(frozen=True)
class CrossEffectReport:
    """Outcome of the term-wise negative-cross-effect test."""

    variables: tuple[str, ...]
    violations: tuple[CrossEffectViolation, ...]

    @property
    def is_kinetic(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "is_kinetic": self.is_kinetic,
            "violations": [
                {
                    "component": v.component + 1,
                    "monomial": Polynomial.monomial(
                        len(self.variables), v.exponents
                    ).render(self.variables),
                    "coefficient": format_rational(v.coefficient),
                }
                for v in self.violations
            ],
        }


def negative_cross_effect(system: PolynomialSystem) -> CrossEffectReport:
    """Find every negative term of f_m whose monomial has x_m-exponent zero.

    Violations come by component, then in descending graded-lex order of
    their monomials.  Each component's terms are scanned unsorted, and only
    the violations found are sorted.
    """
    violations = []
    for m, component in enumerate(system.components):
        found = [
            (expts, coeff)
            for expts, coeff in component.terms().items()
            if expts[m] == 0 and coeff < 0
        ]
        found.sort(key=lambda term: grlex_key(term[0]), reverse=True)
        violations.extend(CrossEffectViolation(m, expts, coeff) for expts, coeff in found)
    return CrossEffectReport(system.variables, tuple(violations))


class NotKineticError(ValueError):
    """The system has negative cross-effects and admits no realization."""

    def __init__(self, report: CrossEffectReport):
        details = "; ".join(
            v.describe(report.variables) for v in report.violations
        )
        super().__init__(f"system is not kinetic: {details}")
        self.report = report


def canonical_realization(system: PolynomialSystem) -> ReactionNetwork:
    """The one-step-per-term network whose induced ODE is `system`.

    A positive term c*x^alpha of f_m becomes  alpha -> alpha + e_m  with rate
    c; a negative term becomes  alpha -> alpha - e_m  with rate -c (the
    cross-effect condition guarantees alpha_m >= 1).  Steps are ordered by
    component, then by descending graded-lex monomial.  The zero system maps
    to a network with no steps, flagged improper.

    Every value is built through the trusted constructors: entries come
    sorted and positive, the two complexes differ by +-e_m, the rate is
    |c| > 0, and distinct (component, monomial) pairs give distinct steps.
    What the system does not guarantee is checked: a monomial's degree, by
    the `check_reactant_degree` that `ReactionStep` uses, each |c| against
    the literal bound `ReactionStep` applies (NetworkValidationError), and
    the species names.
    """
    report = negative_cross_effect(system)
    if not report.is_kinetic:
        raise NotKineticError(report)
    species = species_names_for_variables(system.variables)
    reactants: dict[Exponents, Complex] = {}
    steps: list[ReactionStep] = []
    for index, component in enumerate(system.components):
        for expts, coeff in component.sorted_terms():
            reactant = reactants.get(expts)
            if reactant is None:
                check_reactant_degree(sum(expts))
                reactant = reactants[expts] = Complex._from_clean(
                    tuple((i, SMALL_FRACTIONS[e]) for i, e in enumerate(expts) if e)
                )
            positive = coeff.numerator > 0
            shifted = list(expts)
            shifted[index] += 1 if positive else -1
            product = Complex._from_clean(
                tuple((i, SMALL_FRACTIONS[e]) for i, e in enumerate(shifted) if e)
            )
            rate, change = (coeff, _ONE) if positive else (-coeff, _MINUS_ONE)
            if exceeds_literal_bound(rate):
                mono = Polynomial.monomial(system.dim, expts).render(system.variables)
                raise NetworkValidationError(
                    outside_literal_bound(f"component {index + 1}: coefficient of {mono}")
                )
            steps.append(ReactionStep._from_clean(reactant, product, rate, {index: change}))
    check_species_names(species)
    return ReactionNetwork._from_clean(species, tuple(steps))
