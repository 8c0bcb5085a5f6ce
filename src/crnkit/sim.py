"""Floating-point trajectory integration with first-integral monitoring.

Two integrators are provided: classical fixed-step RK4 and adaptive
Runge-Kutta-Fehlberg 4(5).  Each step is generated as straight-line code for
the system's dimension, giving the same results as the textbook
per-component loops, so trajectories are bit-identical to theirs.  The
generated right-hand side and invariant make two rewrites that are exact in
IEEE 754: a term leaves out a factor 1.0 (`x0*x1`, not `1.0*x0*x1`), and its
sign goes into the join (`s - 2.0*x0`, not `s + -2.0*x0`).  The right-hand
side makes a third: a power that two terms use is computed once, and so is
a component whose terms are written as an earlier component's.  The step
also reports whether its result lies in the closed positive orthant, so the
loop inspects the state only when it does not.  The right-hand side and the
invariant are compiled once per system and kept in a bounded cache, so
integrating a system again reuses its evaluators.  When a
quadratic invariant is attached, its value is recorded along the trajectory
so conservation drift can be reported.  For positive-definite diagonal
invariants an optional level-set projection rescales the state back onto the
initial level surface after every step.  A state that is not finite, before
or after projection, aborts the run, so the invariant is evaluated at finite
states only.
"""

from __future__ import annotations

import io
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import sub
from typing import Callable, Sequence, TextIO

from .poly import Polynomial, PolynomialSystem
from .qfi import QuadraticCandidate

CLAMP_TOLERANCE = 1e-12
# Largest t_end / step a fixed-step run may take (10^4 times a 1,000-step run).
# Without a bound a tiny step runs until killed: once it is below half an ulp
# of t, t + step == t and the loop cannot end.
MAX_FIXED_STEPS = 10**7
# Most samples a run may store after the initial state: a 2-D sample holds
# about 160 bytes, so 10^6 of them take about 160 MB (100 times a 10,000-step run).
MAX_SAMPLES = 10**6
# `0.0 <= x <= MAX_FLOAT` holds exactly for the finite x >= 0 (and -0.0)
MAX_FLOAT = sys.float_info.max
_BLOW_UP = "state became nonfinite (blow-up)"
# Most terms of one `+` chain in a generated right-hand side component.  CPython's
# compiler recurses once per `+`, and a chain of about 3,000 terms exhausts its
# recursion limit.
SUM_CHUNK = 1000


class SimulationError(RuntimeError):
    """Integration aborted; carries the last valid time."""

    def __init__(self, message: str, last_time: float):
        super().__init__(f"{message} (last valid time t={last_time:.6g})")
        self.last_time = last_time


@dataclass(frozen=True)
class SimConfig:
    """Integration settings.

    method is "rk4_fixed" (uses `step`) or "rkf45_adaptive" (uses
    `tolerance`); `stride` keeps every k-th accepted step in the output;
    projection is "off" or "level_set".  An "rk4_fixed" run may take at most
    MAX_FIXED_STEPS steps (t_end / step) and store at most MAX_SAMPLES
    samples (t_end / (step * stride)); an RKF45 run aborts when it would
    store more.  The fields are checked once, on construction, so they
    cannot be assigned afterwards; `dataclasses.replace` builds a checked copy.
    """

    method: str = "rk4_fixed"
    step: float = 1e-3
    tolerance: float = 1e-9
    t_end: float = 10.0
    stride: int = 1
    projection: str = "off"

    def __post_init__(self):
        if self.method not in ("rk4_fixed", "rkf45_adaptive"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.projection not in ("off", "level_set"):
            raise ValueError(f"unknown projection {self.projection!r}")
        if not all(map(math.isfinite, (self.step, self.tolerance, self.t_end))):
            raise ValueError("step, tolerance and t_end must be finite")
        if self.step <= 0 or self.tolerance <= 0 or self.t_end <= 0:
            raise ValueError("step, tolerance and t_end must be positive")
        if self.stride < 1:
            raise ValueError("stride must be at least 1")
        steps = self.t_end / self.step
        if self.method == "rk4_fixed" and steps > MAX_FIXED_STEPS:
            raise ValueError(
                f"rk4_fixed with step {self.step:g} to t_end {self.t_end:g} takes "
                f"{steps:.3g} steps, more than the limit of {MAX_FIXED_STEPS:.0e}"
            )
        samples = steps / self.stride
        if self.method == "rk4_fixed" and samples > MAX_SAMPLES:
            raise ValueError(
                f"rk4_fixed with step {self.step:g} to t_end {self.t_end:g} and stride "
                f"{self.stride} stores {samples:.3g} samples, more than the limit of "
                f"{MAX_SAMPLES:.0e}; raise the stride"
            )


@dataclass
class Trajectory:
    """Sampled solution with optional invariant values and positivity log.

    `rejected_steps` counts RKF45 steps retried with a smaller step size.
    It is a step-control statistic, not a sample, and stays out of the repr.
    """

    variables: tuple[str, ...]
    times: list[float]
    states: list[list[float]]
    invariant_values: list[float] | None = None
    positivity_events: list[tuple[float, int, float]] = field(default_factory=list)
    rejected_steps: int = field(default=0, repr=False)

    def write_csv(self, stream: TextIO):
        header = ["t"] + list(self.variables)
        if self.invariant_values is not None:
            header.append("V")
        stream.write(",".join(header) + "\n")
        for i, (t, state) in enumerate(zip(self.times, self.states)):
            row = [repr(t)] + [repr(v) for v in state]
            if self.invariant_values is not None:
                row.append(repr(self.invariant_values[i]))
            stream.write(",".join(row) + "\n")

    def to_csv(self) -> str:
        buf = io.StringIO()
        self.write_csv(buf)
        return buf.getvalue()


def _to_float(value, describe: Callable[[], str]) -> float:
    """float(value); a value too large for a float raises ValueError naming it."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{describe()} is too large for a float") from None


def _compile(signature: str, lines: Sequence[str], **namespace) -> Callable:
    """Define `def signature:` with the given body lines; return the function."""
    src = f"def {signature}:\n" + "".join(f"    {line}\n" for line in lines)
    exec(src, namespace)  # generated from our own AST; no external input
    return namespace[signature.partition("(")[0]]


def _term(value: float, factors: Sequence[str]) -> tuple[bool, str]:
    """(negative, text) for the float product `value*f1*f2...`, text written with |value|.

    The factor |value| is left out when it is 1.0 and a factor remains, as
    `1.0*x == x`.  negative is value's sign bit, set for -0.0 too.  Negation
    is exact and commutes with rounding, so the product is `-text`, and
    `s + product` is `s - text`, bit for bit.
    """
    negative = math.copysign(1.0, value) < 0
    magnitude = abs(value)
    if magnitude != 1.0 or not factors:
        factors = [repr(magnitude), *factors]
    return negative, "*".join(factors)


def _join(terms: Sequence[tuple[bool, str]], head: str = "") -> str:
    """The chain `head + t1 - t2 ...` of `_term`s; with no head, `t1` or `-t1` starts it."""
    signs = [" - " if negative else " + " for negative, _ in terms]
    if signs and not head:
        signs[0] = "-" if terms[0][0] else ""
    return head + "".join(sign + text for sign, (_, text) in zip(signs, terms))


def _sum(name: str, terms: Sequence[tuple[bool, str]]) -> tuple[list[str], str]:
    """(lines, expression) for the left-to-right float sum of `_term`s.

    Up to SUM_CHUNK terms the expression is the one chain `t1 + ... - tk`,
    with no lines.  A longer sum binds `name` a chunk at a time,
    `name = t1 + ... - tk` then `name = name + tk+1 - ...`, which does the
    same additions in the same order, and the expression is `name`.
    """
    if len(terms) <= SUM_CHUNK:
        return [], _join(terms)
    lines = [f"{name} = {_join(terms[:SUM_CHUNK])}"]
    for start in range(SUM_CHUNK, len(terms), SUM_CHUNK):
        lines.append(f"{name} = {_join(terms[start:start + SUM_CHUNK], name)}")
    return lines, name


def _unpack(names: Sequence[str], value: str) -> str:
    """`a, b, = value`, or the bare expression when there is nothing to bind."""
    return f"{', '.join(names)}, = {value}" if names else value


@lru_cache(maxsize=32)
def compile_rhs(system: PolynomialSystem) -> Callable[[Sequence[float]], list[float]]:
    """Generate a fast float evaluator for the system's right-hand side.

    Each component is the left-to-right sum of its terms in `sorted_terms`
    order, each term `c*x0*x1**2` factor by factor, with the two exact
    rewrites of `_term`: `-x0*x1 + 2.0*x2 - 0.5` for the terms -1, 2 and
    -1/2 in that order.  A third exact rewrite computes repeated work once:
    a power `x{i}**{e}` that two or more terms use is bound after the state
    is unpacked (`c*x**e` parses as `c*(x**e)`, so `c*x_e` is the same
    float), and a component whose written terms equal an earlier
    component's returns that component's value.  Every bound power was
    evaluated before too, so a float `**` overflow raises the same
    OverflowError.  For the cascade (A + B -> C gives f_A = f_B)

        x0, ..., x8, = state
        x8_2 = x8**2
        s0 = -2.0*x0*x1 + x2
        ...
        return [s0, s0, x0*x1 - 2.0*x2, ..., -4.0*x8_2 + 2.0*x7]

    A system with no repeated power or component compiles to the plain
    chains.  Cached per system: equal systems (same exact terms, same
    variable names) share one evaluator.
    """
    n = system.dim
    components = []
    for var, component in zip(system.variables, system.components):
        terms = []
        for expts, coeff in component.sorted_terms():
            value = _to_float(
                coeff,
                lambda: "coefficient of "
                f"{Polynomial.monomial(n, expts).render(system.variables)} in d{var}/dt",
            )
            factors = [f"x{i}" if e == 1 else f"x{i}**{e}" for i, e in enumerate(expts) if e]
            terms.append((value, factors))
        components.append(terms)
    # keyed on the written terms, not on float values: 0.0 == -0.0, but _term
    # writes them differently
    keys = [tuple(_term(value, factors) for value, factors in terms) for terms in components]
    first = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    powers = Counter(
        f for k in first.values() for _, factors in components[k] for f in factors if "**" in f
    )
    bound = {power: power.replace("**", "_") for power, count in powers.items() if count > 1}
    lines = [f"{name} = {power}" for power, name in bound.items()]
    repeats = Counter(keys)
    exprs = []
    for k, (key, terms) in enumerate(zip(keys, components)):
        if first[key] < k:
            exprs.append(exprs[first[key]])
            continue
        parts = [_term(value, [bound.get(f, f) for f in factors]) for value, factors in terms]
        sums, expr = _sum(f"s{k}", parts)
        if repeats[key] > 1 and expr and not expr.isidentifier():
            sums, expr = [f"s{k} = {expr}"], f"s{k}"
        lines += sums
        exprs.append(expr or "0.0")
    unpack = _unpack([f"x{i}" for i in range(n)], "state")
    return _compile("_rhs(state)", [unpack, *lines, f"return [{', '.join(exprs)}]"])


@lru_cache(maxsize=32)
def compile_invariant(candidate: QuadraticCandidate) -> Callable[[Sequence[float]], float]:
    """Generate a float evaluator for V(x) = x^T Q x + linear . x + constant.

    Cached per candidate, like `compile_rhs`.

    For n = 2 with Q = diag(1, -3), linear part (0, 2) and no constant the
    generated code is

        def _invariant(state):
            x0, x1, = state
            return 0.0 + x0*x0 + 2.0*x1 - 3.0*x1*x1

    The order is that of the dense double loop: the constant, then per i the
    linear term and the row-i terms q[i][j] * x_i * x_j, with the exact
    rewrites of `_term` (no factor 1.0, the sign in the join), in chunks
    as `compile_rhs` sums them.  Entries that are zero as floats are left
    out.  At a finite state a zero term adds +-0.0, and a float sum is -0.0
    only when both addends are, so leaving it out changes the total only
    when the sum starts from a -0.0 constant; then every entry is kept.  The
    value is bit-identical to the dense loop at every finite state, the only
    states `integrate` evaluates it at.
    """
    n = candidate.dim
    constant = _to_float(candidate.constant, lambda: "constant term of the invariant")
    linear = [
        _to_float(v, lambda: f"linear coefficient {i} of the invariant")
        for i, v in enumerate(candidate.linear)
    ]
    q = [
        [_to_float(v, lambda: f"coefficient q[{i}][{j}] of the invariant") for j, v in enumerate(row)]
        for i, row in enumerate(candidate.q)
    ]
    # a -0.0 constant is the one start where adding +0.0 changes the sum
    keep_zeros = constant == 0 and math.copysign(1.0, constant) < 0
    terms = [_term(constant, [])]
    for i in range(n):
        if linear[i] or keep_zeros:
            terms.append(_term(linear[i], [f"x{i}"]))
        for j in range(n):
            if q[i][j] or keep_zeros:
                terms.append(_term(q[i][j], [f"x{i}", f"x{j}"]))
    lines, expr = _sum("total", terms)
    unpack = _unpack([f"x{i}" for i in range(n)], "state")
    return _compile("_invariant(state)", [unpack, *lines, f"return {expr}"])


_RKF_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_RKF_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_RKF_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


def _return_step(n: int, error: str) -> str:
    """`return [z0, ...], error, inside`: inside is true when every z_i is finite and >= 0."""
    z = [f"z{i}" for i in range(n)]
    inside = " and ".join(f"0.0 <= {zi} <= {MAX_FLOAT!r}" for zi in z) or "True"
    return f"return [{', '.join(z)}], {error}, {inside}"


def _rk4_source(n: int) -> list[str]:
    x = [f"x{i}" for i in range(n)]
    a, b, c, d = ([f"{s}{i}" for i in range(n)] for s in "abcd")

    def probe(scale, k):
        return "[" + ", ".join(f"{xi} + {scale} * {ki}" for xi, ki in zip(x, k)) + "]"

    return [
        "hh = 0.5 * h",
        _unpack(a, "rhs(state)"),
        _unpack(b, f"rhs({probe('hh', a)})"),
        _unpack(c, f"rhs({probe('hh', b)})"),
        _unpack(d, f"rhs({probe('h', c)})"),
        "h6 = h / 6.0",
        # 2.0, not 2: int * float takes CPython's generic multiply, and 2 * y == 2.0 * y
        *(f"z{i} = {x[i]} + h6 * ({a[i]} + 2.0 * {b[i]} + 2.0 * {c[i]} + {d[i]})" for i in range(n)),
        _return_step(n, "0.0"),
    ]


def _rkf45_source(n: int) -> list[str]:
    x = [f"x{i}" for i in range(n)]
    ks = [[f"k{s}_{i}" for i in range(n)] for s in range(6)]

    def increment(weights, i):
        # sum() starts from the int 0; 0.0 + y is the same float operation
        return "0.0" + "".join(f" + {w!r} * {ks[s][i]}" for s, w in enumerate(weights))

    lines = [_unpack(ks[0], "rhs(state)")]
    for stage in range(1, 6):
        probe = ", ".join(f"{x[i]} + h * ({increment(_RKF_A[stage], i)})" for i in range(n))
        lines.append(_unpack(ks[stage], f"rhs([{probe}])"))
    for i in range(n):
        lines.append(f"y{i} = {x[i]} + h * ({increment(_RKF_B4, i)})")
        lines.append(f"z{i} = {x[i]} + h * ({increment(_RKF_B5, i)})")
    errors = [f"abs(y{i} - z{i})" for i in range(n)]
    if n > 1:
        error = f"max({', '.join(errors)})"
    else:
        error = errors[0] if errors else "0.0"
    lines.append(_return_step(n, error))
    return lines


@lru_cache(maxsize=32)
def _step_function(method: str, n: int) -> Callable:
    """step(rhs, state, h) -> (new_state, error estimate, inside), straight-line in n.

    RK4 reports an error estimate of 0.0; RKF45 returns the fifth-order
    solution and the largest component difference to the fourth-order one.
    `inside` is true when every component of new_state is finite and >= 0.
    """
    body = _rk4_source(n) if method == "rk4_fixed" else _rkf45_source(n)
    return _compile("_step(rhs, state, h)", [_unpack([f"x{i}" for i in range(n)], "state")] + body)


def _nonfinite(state: Sequence[float]) -> bool:
    """True when some component of state is nan or infinite."""
    # the sum of finite floats is finite or overflows; a nonfinite one is nan or inf
    return not math.isfinite(sum(state)) and not all(map(math.isfinite, state))


def integrate(
    system: PolynomialSystem,
    x0: Sequence[float],
    config: SimConfig,
    invariant: QuadraticCandidate | None = None,
) -> Trajectory:
    """Integrate x' = f(x) from x0 over [0, t_end].

    States are kept in the closed positive orthant: overshoot below zero by
    at most CLAMP_TOLERANCE is clamped (and logged as a positivity event);
    anything larger aborts with SimulationError, as does a nonfinite state,
    before or after level-set projection.  At the RKF45 step-size floor
    (1e-12 * t_end) a step above tolerance is kept; the step size that
    follows is below the floor, so the run aborts after it with "step size
    underflow".
    """
    n = system.dim
    if len(x0) != n:
        raise ValueError(f"initial state has length {len(x0)}, expected {n}")
    state = [
        _to_float(v, lambda: f"initial value of {system.variables[i]}")
        for i, v in enumerate(x0)
    ]
    if not all(map(math.isfinite, state)):
        raise ValueError("initial state must be finite")
    if any(v < 0 for v in state):
        raise ValueError("initial state must be nonnegative")
    if invariant is not None and invariant.dim != n:
        raise ValueError("invariant dimension does not match system")
    if config.projection == "level_set":
        if invariant is None or invariant.signature() != "positive-definite diagonal":
            raise ValueError(
                "level-set projection needs a positive-definite diagonal invariant"
            )

    rhs = compile_rhs(system)
    step = _step_function(config.method, n)
    v_func = compile_invariant(invariant) if invariant is not None else None
    v0 = v_func(state) if v_func is not None else None
    # `not V <= 0`: a nan V projects the state to nan, which aborts the step
    project = config.projection == "level_set" and not v0 <= 0

    times = [0.0]
    states = [state]
    values = [v0] if v_func is not None else None
    events: list[tuple[float, int, float]] = []
    t_end = config.t_end
    end = t_end - 1e-12 * max(1.0, t_end)
    stride = config.stride
    tolerance = config.tolerance
    adaptive = config.method == "rkf45_adaptive"
    if adaptive:
        h = min(config.step, t_end)
        h_min = 1e-12 * t_end
    else:
        h = config.step
        h_min = 0.0  # a fixed step never shrinks
    t = 0.0
    accepted = rejected = 0
    append_time, append_state = times.append, states.append
    append_value = values.append if values is not None else None
    while t < end:
        step_h = t_end - t
        if not step_h < h:  # min(h, t_end - t), which keeps h on a tie
            step_h = h
        try:
            new_state, error, inside = step(rhs, state, step_h)
        except OverflowError:
            raise SimulationError(_BLOW_UP, t) from None
        if adaptive:
            bound = tolerance * max(1.0, max(map(abs, state), default=1.0))
            if error != 0:  # nan shrinks the step, as max(0.2, nan) is 0.2
                factor = 0.9 * (bound / error) ** 0.2
                h = step_h * min(5.0, max(0.2, factor))
            else:
                h = step_h * 5.0
            if not error <= bound and step_h > h_min:
                rejected += 1
                if h < h_min:
                    raise SimulationError("step size underflow", t)
                continue
        new_t = t + step_h
        if not inside:
            if _nonfinite(new_state):
                raise SimulationError(_BLOW_UP, t)
            if min(new_state, default=0.0) < 0:
                for i, value in enumerate(new_state):
                    if value < 0:
                        if value < -CLAMP_TOLERANCE:
                            raise SimulationError(
                                f"component {system.variables[i]} went negative ({value:.3e})", t
                            )
                        events.append((new_t, i, value))
                        new_state[i] = 0.0
        if project:
            current = v_func(new_state)
            if not current <= 0:
                ratio = math.sqrt(v0 / current)
                new_state = [ratio * v for v in new_state]
                if _nonfinite(new_state):
                    raise SimulationError(_BLOW_UP, t)
        t = new_t
        state = new_state
        accepted += 1
        if t >= end or accepted % stride == 0:
            # SimConfig has bounded a fixed-step run's samples before it started
            if adaptive and len(times) > MAX_SAMPLES:
                raise SimulationError(
                    f"more than {MAX_SAMPLES:.0e} samples to store; raise the stride", t
                )
            append_time(t)
            append_state(state)
            if append_value is not None:
                append_value(v_func(state))
        if h < h_min:
            raise SimulationError("step size underflow", t)
    return Trajectory(
        variables=system.variables,
        times=times,
        states=states,
        invariant_values=values,
        positivity_events=events,
        rejected_steps=rejected,
    )


def drift_report(trajectory: Trajectory) -> dict:
    """Summarize invariant drift: max and final deviation from the start."""
    if trajectory.invariant_values is None:
        raise ValueError("trajectory has no invariant attached")
    values = trajectory.invariant_values
    v0 = values[0]
    return {
        "max_abs_drift": max(map(abs, map(sub, values, repeat(v0)))),
        "final_drift": values[-1] - v0,
        "positivity_events": len(trajectory.positivity_events),
    }
