"""Command-line interface.

Subcommands: parse, odes, check, generate, realize, simulate.  Exit codes:
0 when the requested property holds or the operation succeeds, 1 when a
check fails or a search comes up empty, 2 on malformed input or bad
arguments.  Each value of --property, --family and --method is one entry of
one table (`_CHECKS`, `_FAMILIES`, `_METHODS`): the options it reads, then
what runs it.  The parser offers the table's keys, and an option the chosen
value does not read is refused.  Set CRNKIT_NO_COLOR to disable ANSI
colors.  When --out DIR is given, results and a reproducibility manifest
are written there; rerunning the same command on the same inputs produces
byte-identical files.  Every JSON report, --out file and manifest is
written by `network.json_text`, which gives the bytes of
`json.dumps(value, indent=2, sort_keys=True)`.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

from . import __version__
from .conservation import (
    ConservationVector,
    kinetic_conservation,
    kinetic_residual,
    stoichiometric_conservation,
    stoichiometric_residual,
    verify_conservation,
)
from .kinetics import (
    NotKineticError,
    canonical_realization,
    induced_kinetic_ode,
    negative_cross_effect,
)
from .network import ReactionNetwork, json_text, parse_network
from .numbers import format_rational, parse_rational
from .poly import PolynomialSystem, parse_polynomial, parse_system
from .qfi import (
    BINARY_FORM_FAMILIES,
    BinaryFormParams,
    DiagonalParams,
    MixedSignParams,
    QuadraticCandidate,
    find_quadratic_first_integrals,
    generate_binary_form_system,
    generate_diagonal_system,
    generate_mixed_sign_system,
    generate_shifted_system,
    is_first_integral,
    lotka_volterra_log_check,
    no_periodic_orbit_certificate,
)
from .sim import SimConfig, SimulationError, drift_report, integrate


def _use_color() -> bool:
    return sys.stdout.isatty() and not os.environ.get("CRNKIT_NO_COLOR")


def _verdict(ok: bool, yes: str = "yes", no: str = "no") -> str:
    text = yes if ok else no
    if _use_color():
        code = "32" if ok else "31"
        return f"\x1b[{code}m{text}\x1b[0m"
    return text


def _parse_params(groups: list[list[str]] | None) -> dict[str, Fraction]:
    """The bindings of the one --params; a second --params or a name bound twice is refused."""
    if not groups:
        return {}
    if len(groups) > 1:
        raise ValueError("--params is given more than once; give every binding in one --params")
    binding: dict[str, Fraction] = {}
    for item in groups[0]:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"parameter binding {item!r} must look like name=value")
        name = name.strip()
        if name in binding:
            raise ValueError(f"parameter {name!r} is bound more than once in --params")
        binding[name] = parse_rational(value)
    return binding


def _parse_vector(text: str) -> list[Fraction]:
    """Comma-separated rationals; a blank text is the empty vector."""
    if not text.strip():
        return []
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise ValueError(f"blank entry in comma-separated list {text!r}")
    return [parse_rational(p) for p in parts]


def _parse_matrix(text: str) -> list[list[Fraction]]:
    return [_parse_vector(row) for row in text.split(";")]


def _refuse_unread(args, choice: str, table: dict[str, tuple]) -> None:
    """Refuse an option given that the chosen value of --`choice` does not read.

    `table` maps each value of --`choice` to an entry whose first item names
    the options it reads, by dest; the options only other values read are
    refused, in the table's order.
    """
    value = getattr(args, choice)
    reads = table[value][0]
    for dest in dict.fromkeys(dest for entry in table.values() for dest in entry[0]):
        if dest not in reads and getattr(args, dest) is not None:
            raise ValueError(f"--{choice} {value} does not read --{dest.replace('_', '-')}")


def _load_target(args) -> ReactionNetwork | PolynomialSystem:
    """Read args.target as a network or a system, sniffing the format.

    The file is read once.  Its bytes are hashed into args.target_sha256 for
    the manifest and decoded as `Path.read_text` would decode them (locale
    encoding, universal newlines), so the manifest describes what was parsed.
    """
    path = args.target
    raw = Path(path).read_bytes()
    args.target_sha256 = hashlib.sha256(raw).hexdigest()
    text = io.TextIOWrapper(io.BytesIO(raw)).read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except RecursionError:
            raise ValueError(f"{path}: JSON is nested too deeply") from None
        if "species" in data:
            return ReactionNetwork.from_dict(data)
        if "variables" in data:
            return PolynomialSystem.from_dict(data)
        raise ValueError(f"{path}: JSON has neither 'species' nor 'variables'")
    first = next(
        (line.strip() for line in text.splitlines() if line.split("#", 1)[0].strip()),
        "",
    )
    if first.split()[:1] == ["vars"]:
        return parse_system(text)
    return parse_network(text)


def _load(args, induce: bool = True, network_only: str | None = None):
    """args.target, with the --params binding checked against it.

    With `network_only`, a refusal text, a target that is not a reaction
    network is refused with it before the binding is read, so every command
    refuses the kind of its target first.  With `induce`, a network is
    replaced by its induced mass-action ODE under the binding.
    """
    target = _load_target(args)
    is_network = isinstance(target, ReactionNetwork)
    if network_only and not is_network:
        raise ValueError(network_only)
    params = _parse_params(getattr(args, "params", None))
    used = target.rate_parameters() if is_network else ()
    for name in params:
        if name not in used:
            why = ("which no rate of the network uses" if is_network
                   else "but a polynomial system has no rate parameters")
            raise ValueError(f"--params binds {name!r}, {why}")
    if induce and is_network:
        return induced_kinetic_ode(target, params)
    return target


def _read_invariant(text: str, system: PolynomialSystem) -> QuadraticCandidate:
    poly = parse_polynomial(text, system.variables)
    if poly.degree() > 2:
        raise ValueError(f"invariant {text!r} has degree > 2")
    return QuadraticCandidate.from_polynomial(poly)


def _emit(args, payload: dict, lines, files: dict[str, str | dict]) -> None:
    """Print the text lines or the JSON report; write --out and its manifest.

    `lines` is a list of text lines, or a function that builds them, called
    only when they are printed.  `files` maps extra --out files to their
    text, or to dicts encoded like the report.
    """
    report = json_text(payload) if args.json or args.out else None
    if args.json:
        print(report)
    else:
        print("\n".join(lines() if callable(lines) else lines))
    if not args.out:
        return
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    files["report.json"] = payload
    digests = {}
    for name, content in sorted(files.items()):
        if isinstance(content, dict):
            content = (report if content is payload else json_text(content)) + "\n"
        data = content.encode()
        (outdir / name).write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    target = getattr(args, "target", None)
    manifest = {
        "command": args.command_line,
        "version": __version__,
        "seed": args.seed,
        "inputs": {target: args.target_sha256} if target else {},
        "outputs": digests,
    }
    data = (json_text(manifest) + "\n").encode()
    (outdir / "manifest.json").write_bytes(data)


# -- subcommands ------------------------------------------------------------
#
# Each returns (exit code, JSON payload, text lines, extra --out files); text
# that costs a rendering comes as a function, which `_emit` calls only to print.

def cmd_parse(args):
    network = _load(
        args, induce=False, network_only=f"{args.command} expects a reaction network file"
    )

    def lines():
        text = [f"species: {' '.join(network.species)}", network.render()]
        if not network.is_proper:
            unused = ", ".join(network.unused_species()) or "no steps"
            text.append(f"note: network is degenerate ({unused})")
        return text

    payload = network.to_dict()
    return 0, payload, lines, {"network.json": payload}


def cmd_odes(args):
    system = _load(args, network_only=f"{args.command} expects a reaction network file")
    return 0, system.to_dict(), lambda: [system.render()], {}


# -- check: each property maps (target, args) to (holds, payload, text lines)

def _check_kinetic(system, args):
    report = negative_cross_effect(system)
    lines = [f"kinetic: {_verdict(report.is_kinetic)}"]
    lines += ["  " + v.describe(system.variables) for v in report.violations]
    return report.is_kinetic, report.to_dict(), lines


def _check_conservation(target, args):
    """Stoichiometric conservation of a network, kinetic conservation of a system."""
    if isinstance(target, ReactionNetwork):
        mode, search = "stoichiometric", stoichiometric_conservation
    else:
        mode, search = "kinetic", kinetic_conservation
    candidate = None
    if args.candidate:
        candidate = ConservationVector(tuple(_parse_vector(args.candidate)), mode)
    found = search(target)
    holds = found is not None
    payload: dict = {"mode": mode, "exists": holds}
    details = []
    if found is not None:
        payload["witness"] = [format_rational(v) for v in found.rho]
        details.append("  witness: " + " ".join(payload["witness"]))
    if candidate is not None:
        payload["candidate"] = [format_rational(v) for v in candidate.rho]
        # verify_conservation's test, made on the residual the payload shows
        if mode == "stoichiometric":
            residual = stoichiometric_residual(candidate.rho, target)
            holds, payload["residual"] = not any(residual), [format_rational(v) for v in residual]
        else:
            residual = kinetic_residual(candidate.rho, target)
            holds, payload["residual"] = residual.is_zero(), residual.render(target.variables)
        payload["candidate_valid"] = holds
        details.append("  candidate valid: " + _verdict(holds))
    return holds, payload, [f"mass conserving ({mode}): {_verdict(holds)}", *details]


def _check_qfi(system, args):
    report = find_quadratic_first_integrals(system, args.filter)
    payload = report.to_dict(system.variables)
    lines = [f"quadratic first integral: {_verdict(report.found, 'found', 'none')}"]
    if report.candidate is not None:
        lines.append(f"  candidate: {payload['candidate']}")
        lines.append(f"  signature: {report.signature}")
    if report.basis:
        lines.append(f"  solution space dimension: {len(report.basis)}")
    return report.found, payload, lines


def _check_log_lv(system, args):
    holds = lotka_volterra_log_check(system)
    return holds, {"log_integral": holds}, [f"conserves x + y - ln x - ln y: {_verdict(holds)}"]


def _check_no_periodic(system, args):
    invariant = None
    if args.invariant and args.invariant != "auto":
        invariant = _read_invariant(args.invariant, system)
    cert = no_periodic_orbit_certificate(system, invariant)
    payload = cert.to_dict(system.variables)
    lines = [
        "no periodic orbit in the open positive orthant: "
        + _verdict(cert.holds, "yes", "inconclusive"),
        f"  divergence: {payload['divergence']}",
        f"  divergence nonpositive and nonzero: {_verdict(cert.divergence_negative)}",
    ]
    rejected = cert.invariant_rejected
    if rejected is not None:
        lines.append(f"  supplied first integral verified but not used: {rejected}")
    if rejected is None or cert.first_integral is not None:
        lines.append(f"  first integral known: {_verdict(cert.first_integral is not None)}")
    return cert.holds, payload, lines


# Each property of check: (the options it reads, whether a network target is
# replaced by its induced ODE, else the target must be a network, the check).
_CHECKS = {
    "kinetic": ((), True, _check_kinetic),
    "conserve-stoich": (("candidate",), False, _check_conservation),
    "conserve-kinetic": (("candidate",), True, _check_conservation),
    "qfi": (("filter",), True, _check_qfi),
    "log-lv": ((), True, _check_log_lv),
    "no-periodic": (("invariant",), True, _check_no_periodic),
}


def cmd_check(args):
    _refuse_unread(args, "property", _CHECKS)
    _, induce, check = _CHECKS[args.property]
    target = _load(args, induce, None if induce else f"{args.property} needs a reaction network")
    holds, payload, lines = check(target, args)
    return (0 if holds else 1), {"property": args.property, **payload}, lines, {}


def _scalar(args, name: str, default: Fraction = Fraction(0)) -> Fraction:
    """A scalar option: `default` when absent, else parse_rational of its text."""
    raw = getattr(args, name)
    return default if raw is None else parse_rational(raw)


# -- generate: each family builder maps args to (system, invariant, conservation or None)

def _diagonal(args):
    if not args.weights or not args.coupling:
        raise ValueError("diagonal family needs --weights and --coupling")
    params = DiagonalParams(
        tuple(_parse_vector(args.weights)),
        tuple(tuple(row) for row in _parse_matrix(args.coupling)),
    )
    return generate_diagonal_system(params), params.invariant(), None


def _mixed_sign(args):
    needed = (args.plus_weights, args.minus_weights, args.coupling, args.rho_plus, args.rho_minus)
    if any(v is None for v in needed):
        raise ValueError(
            "mixed-sign family needs --plus-weights, --minus-weights, "
            "--coupling, --rho-plus and --rho-minus"
        )
    params = MixedSignParams(
        tuple(_parse_vector(args.plus_weights)),
        tuple(_parse_vector(args.minus_weights)),
        tuple(tuple(row) for row in _parse_matrix(args.coupling)),
        tuple(_parse_vector(args.rho_plus)),
        tuple(_parse_vector(args.rho_minus)),
        _scalar(args, "rho_z", Fraction(1)),
    )
    return generate_mixed_sign_system(params), params.invariant(), params.conservation()


# The scalars of the binary-form families; BinaryFormParams refuses a nonzero
# one that its family does not use.
_BINARY_FORM_OPTIONS = ("a", "b", "c", "k", "l", "m", "n", "r", "s")


def _binary_form(args):
    if args.a is None or args.b is None:
        raise ValueError(f"family {args.family} needs --a and --b")
    rest = {name: _scalar(args, name) for name in _BINARY_FORM_OPTIONS[2:]}
    family = args.family.replace("-", "_")
    params = BinaryFormParams(family, _scalar(args, "a"), _scalar(args, "b"), **rest)
    return generate_binary_form_system(params), params.invariant(), None


def _shifted(args):
    A, B, a, b = (_scalar(args, name) for name in ("rate_A", "rate_B", "shift_a", "shift_b"))
    system = generate_shifted_system(A, B, a, b)
    return system, QuadraticCandidate.shifted_sum_of_squares(a, b), None


# Each family of generate, in the parser's order: (the options it reads, its builder).
_FAMILIES = {
    "diagonal": (("weights", "coupling"), _diagonal),
    "mixed-sign": (
        ("plus_weights", "minus_weights", "coupling", "rho_plus", "rho_minus", "rho_z"),
        _mixed_sign,
    ),
    **{
        family.replace("_", "-"): (_BINARY_FORM_OPTIONS, _binary_form)
        for family in BINARY_FORM_FAMILIES
    },
    "shifted": (("rate_A", "rate_B", "shift_a", "shift_b"), _shifted),
}


def cmd_generate(args):
    _refuse_unread(args, "family", _FAMILIES)
    system, invariant, conservation = _FAMILIES[args.family][1](args)
    network = canonical_realization(system)
    checks = {
        "kinetic": negative_cross_effect(system).is_kinetic,
        "lie_derivative_zero": is_first_integral(invariant, system),
        "realization_round_trip": induced_kinetic_ode(network) == system,
    }
    if conservation is not None:
        checks["kinetically_conserving"] = verify_conservation(conservation, system)
    payload = {
        "family": args.family,
        "system": system.to_dict(),
        "invariant": invariant.render(system.variables),
        "realization": network.to_dict(),
        "checks": checks,
    }

    def lines():
        rendered = network.render()
        return [
            f"system: {system.render()}",
            f"invariant: {payload['invariant']}",
            "realization:",
            "  " + rendered.replace("\n", "\n  ") if rendered else "  (no steps)",
            "verified: " + " ".join(f"{k}={_verdict(v)}" for k, v in checks.items()),
        ]

    return 0, payload, lines, {}


def cmd_realize(args):
    system = _load(args)
    try:
        network = canonical_realization(system)
    except NotKineticError as exc:
        lines = [f"realizable: {_verdict(False)}"]
        lines += ["  " + v.describe(system.variables) for v in exc.report.violations]
        return 1, {"realizable": False, **exc.report.to_dict()}, lines, {}
    as_dict = network.to_dict()
    payload = {"realizable": True, "proper": network.is_proper, **as_dict}

    def lines():
        text = [
            f"species: {' '.join(network.species)}",
            network.render() if network.steps else "(no steps)",
        ]
        if not network.is_proper:
            text.append("note: degenerate realization (zero system or unused species)")
        return text

    return 0, payload, lines, {"network.json": as_dict}


# Each method of simulate: (the options it reads beyond --dt, which both read,
# its SimConfig.method).
_METHODS = {"rk4": ((), "rk4_fixed"), "rkf45": (("tol",), "rkf45_adaptive")}


def cmd_simulate(args):
    _refuse_unread(args, "method", _METHODS)
    system = _load(args)
    x0 = _parse_vector(args.x0)
    config = SimConfig(
        method=_METHODS[args.method][1],
        step=args.dt,
        tolerance=SimConfig.tolerance if args.tol is None else args.tol,
        t_end=args.t_end,
        stride=args.stride,
        projection="level_set" if args.project else "off",
    )
    invariant = None
    if args.invariant == "auto":
        report = find_quadratic_first_integrals(system, "positive-diagonal")
        if not report.found:
            report = find_quadratic_first_integrals(system)
        if not report.found:
            raise ValueError("no quadratic first integral found for --invariant auto")
        invariant = report.candidate
    elif args.invariant:
        invariant = _read_invariant(args.invariant, system)
        if not is_first_integral(invariant, system):
            raise ValueError("supplied invariant is not a first integral of the system")

    trajectory = integrate(system, x0, config, invariant)
    payload: dict = {
        "method": config.method,
        "t_end": config.t_end,
        "samples": len(trajectory.times),
    }
    files = {"trajectory.csv": trajectory.to_csv()}
    lines = [f"integrated to t={trajectory.times[-1]:.6g} with {len(trajectory.times)} samples"]
    if invariant is not None:
        drift = drift_report(trajectory)
        payload["invariant"] = invariant.render(system.variables)
        payload["drift"] = drift
        files["drift.json"] = drift
        lines.append(
            f"invariant drift: max {drift['max_abs_drift']:.3e}, "
            f"final {drift['final_drift']:.3e}, "
            f"positivity events {drift['positivity_events']}"
        )
    return 0, payload, lines, files


# -- parser -----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every `main` call.

    Parsing never writes to it: each `parse_args` returns a fresh Namespace.
    """
    parser = argparse.ArgumentParser(
        prog="crnkit",
        description="Exact analysis of mass-action reaction networks and their quadratic first integrals.",
    )
    parser.add_argument("--version", action="version", version=f"crnkit {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print a JSON report")
    common.add_argument("--out", metavar="DIR", help="write results and a manifest here")
    common.add_argument("--seed", type=int, help="seed recorded in the manifest")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[common], help="parse a reaction network file")
    p.add_argument("target")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("odes", parents=[common], help="print the induced mass-action ODE")
    p.add_argument("target")
    p.add_argument("--params", nargs="*", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_odes)

    p = sub.add_parser("check", parents=[common], help="decide a property of a network or system")
    p.add_argument("target")
    p.add_argument(
        "--property",
        required=True,
        choices=list(_CHECKS),
    )
    p.add_argument("--params", nargs="*", action="append", metavar="NAME=VALUE")
    p.add_argument("--candidate", metavar="RHO", help="comma-separated conservation vector to verify")
    p.add_argument(
        "--filter",
        choices=["positive-diagonal"],
        help="restrict the qfi search to positive-definite diagonal forms",
    )
    p.add_argument("--invariant", metavar="EXPR", help="first integral for no-periodic")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", parents=[common], help="emit a conserving family instance")
    p.add_argument("--family", required=True, choices=list(_FAMILIES))
    for opt in _BINARY_FORM_OPTIONS:
        p.add_argument(f"--{opt}", metavar="Q")
    p.add_argument("--weights", metavar="V", help="diagonal family: comma-separated a_m")
    p.add_argument("--coupling", metavar="M", help="matrix rows separated by ';'")
    p.add_argument("--plus-weights", metavar="V")
    p.add_argument("--minus-weights", metavar="V")
    p.add_argument("--rho-plus", metavar="V")
    p.add_argument("--rho-minus", metavar="V")
    p.add_argument("--rho-z", metavar="Q")
    p.add_argument("--rate-A", metavar="Q", help="shifted family rate A")
    p.add_argument("--rate-B", metavar="Q", help="shifted family rate B")
    p.add_argument("--shift-a", metavar="Q", help="shifted family x offset")
    p.add_argument("--shift-b", metavar="Q", help="shifted family y offset")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("realize", parents=[common], help="canonical network realization of a system")
    p.add_argument("target")
    p.add_argument("--params", nargs="*", action="append", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("simulate", parents=[common], help="integrate trajectories")
    p.add_argument("target")
    p.add_argument("--params", nargs="*", action="append", metavar="NAME=VALUE")
    p.add_argument("--x0", required=True, metavar="V", help="comma-separated initial state")
    p.add_argument("--method", choices=list(_METHODS), default="rk4")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--invariant", metavar="EXPR", help="polynomial expression or 'auto'")
    p.add_argument("--project", action="store_true", help="project back onto the initial level set")
    p.set_defaults(func=cmd_simulate)

    # argparse reads "-1" and "-0.5" as values but "-1/2" and "-2,1" as
    # unknown options; no option starts with "-<digit>", so every token that
    # does is a value, e.g. "--s -1/2" or "--x0 -0.5,1"
    for subparser in sub.choices.values():
        subparser._negative_number_matcher = re.compile(r"^-\d")
    return parser


def _run(args: argparse.Namespace):
    """args.func(args), printing each warning it raises as a `warning:` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            return args.func(args)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.command_line = list(argv) if argv is not None else sys.argv[1:]
    try:
        code, payload, lines, files = _run(args)
        _emit(args, payload, lines, files)
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def entry_point():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
