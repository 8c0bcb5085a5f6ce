"""Command-line interface.

Subcommands: parse, odes, check, generate, realize, simulate.  Exit codes:
0 when the requested property holds or the operation succeeds, 1 when a
check fails or a search comes up empty, 2 on malformed input or bad
arguments.  Set CRNKIT_NO_COLOR to disable ANSI colors.  When --out DIR is
given, results and a reproducibility manifest are written there; rerunning
the same command on the same inputs produces byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .conservation import (
    ConservationVector,
    conservation_report,
    verify_conservation,
)
from .kinetics import (
    NotKineticError,
    canonical_realization,
    divergence,
    induced_kinetic_ode,
    negative_cross_effect,
    no_periodic_orbit_certificate,
)
from .network import ReactionNetwork, parse_network
from .numbers import parse_rational
from .poly import PolynomialSystem, parse_polynomial, parse_system
from .qfi import (
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


def _parse_params(items: list[str] | None) -> dict[str, Fraction]:
    binding: dict[str, Fraction] = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep or not name:
            raise ValueError(f"parameter binding {item!r} must look like name=value")
        binding[name.strip()] = parse_rational(value)
    return binding


def _parse_vector(text: str) -> list[Fraction]:
    return [parse_rational(p) for p in text.split(",") if p.strip()]


def _parse_matrix(text: str) -> list[list[Fraction]]:
    return [_parse_vector(row) for row in text.split(";")]


def _load_target(args):
    """Read args.target as ("network", net) or ("system", sys), sniffing the format.

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
        data = json.loads(text)
        if "species" in data:
            return "network", ReactionNetwork.from_dict(data)
        if "variables" in data:
            return "system", PolynomialSystem.from_dict(data)
        raise ValueError(f"{path}: JSON has neither 'species' nor 'variables'")
    first = next(
        (line.strip() for line in text.splitlines() if line.split("#", 1)[0].strip()),
        "",
    )
    if first.split()[:1] == ["vars"]:
        return "system", parse_system(text)
    return "network", parse_network(text)


def _as_system(args, params: dict[str, Fraction]) -> PolynomialSystem:
    kind, obj = _load_target(args)
    if kind == "system":
        return obj
    return induced_kinetic_ode(obj, params)


class _Output:
    """Collects printable text and files for the optional --out directory."""

    def __init__(self, args):
        self.outdir = Path(args.out) if getattr(args, "out", None) else None
        self.files: dict[str, str] = {}
        self.args = args

    def add_file(self, name: str, content: str):
        self.files[name] = content

    def finish(self, payload: dict):
        json_mode = getattr(self.args, "json", False)
        if not json_mode and self.outdir is None:
            return
        report = json.dumps(payload, indent=2, sort_keys=True)
        if json_mode:
            print(report)
        if self.outdir is None:
            return
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.files.setdefault("report.json", report + "\n")
        digests = {}
        for name, content in sorted(self.files.items()):
            data = content.encode()
            (self.outdir / name).write_bytes(data)
            digests[name] = hashlib.sha256(data).hexdigest()
        inputs = {}
        target = getattr(self.args, "target", None)
        if target:
            inputs[target] = self.args.target_sha256
        manifest = {
            "command": self.args.command_line,
            "version": __version__,
            "seed": getattr(self.args, "seed", None),
            "inputs": inputs,
            "outputs": digests,
        }
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        (self.outdir / "manifest.json").write_bytes(data)


# -- subcommands ------------------------------------------------------------

def cmd_parse(args) -> int:
    _, obj = _load_target(args)
    if not isinstance(obj, ReactionNetwork):
        raise ValueError("parse expects a reaction network file")
    out = _Output(args)
    if not args.json:
        print(f"species: {' '.join(obj.species)}")
        print(obj.render())
        if not obj.is_proper:
            unused = ", ".join(obj.unused_species()) or "no steps"
            print(f"note: network is degenerate ({unused})")
    out.add_file("network.json", obj.to_json() + "\n")
    out.finish(obj.to_dict())
    return 0


def cmd_odes(args) -> int:
    kind, obj = _load_target(args)
    if kind != "network":
        raise ValueError("odes expects a reaction network file")
    system = induced_kinetic_ode(obj, _parse_params(args.params))
    out = _Output(args)
    if not args.json:
        print(system.render())
    out.finish(system.to_dict())
    return 0


def _check_kinetic(system, args, payload):
    report = negative_cross_effect(system)
    payload.update(report.to_dict())
    if not args.json:
        print(f"kinetic: {_verdict(report.is_kinetic)}")
        for violation in report.violations:
            print("  " + violation.describe(system.variables))
    return 0 if report.is_kinetic else 1


def _check_conservation(target, args, payload, mode):
    candidate = None
    if args.candidate:
        candidate = ConservationVector(tuple(_parse_vector(args.candidate)), mode)
    report = conservation_report(target, mode, candidate)
    payload.update(report)
    if candidate is not None:
        holds = report["candidate_valid"]
    else:
        holds = report["exists"]
    if not args.json:
        label = "mass conserving (%s)" % mode
        print(f"{label}: {_verdict(holds)}")
        if "witness" in report:
            print("  witness: " + " ".join(report["witness"]))
        if candidate is not None:
            print(
                "  candidate valid: "
                + _verdict(report["candidate_valid"])
            )
    return 0 if holds else 1


def _check_qfi(system, args, payload):
    report = find_quadratic_first_integrals(system, args.filter)
    payload.update(report.to_dict(system.variables))
    if not args.json:
        print(f"quadratic first integral: {_verdict(report.found, 'found', 'none')}")
        if report.candidate is not None:
            print(f"  candidate: {report.candidate.render(system.variables)}")
            print(f"  signature: {report.signature}")
        if report.basis:
            print(f"  solution space dimension: {len(report.basis)}")
    return 0 if report.found else 1


def _check_log_lv(system, args, payload):
    holds = lotka_volterra_log_check(system)
    payload["log_integral"] = holds
    if not args.json:
        print(f"conserves x + y - ln x - ln y: {_verdict(holds)}")
    return 0 if holds else 1


def _check_no_periodic(system, args, payload):
    invariant = None
    if args.invariant and args.invariant != "auto":
        invariant = _invariant_from_expression(args.invariant, system)
    cert = no_periodic_orbit_certificate(system, invariant)
    payload.update(
        {
            "verdict": cert.verdict,
            "divergence": cert.divergence.render(system.variables),
            "divergence_negative": cert.divergence_negative,
            "first_integral": (
                cert.first_integral.render(system.variables)
                if cert.first_integral is not None
                else None
            ),
        }
    )
    if not args.json:
        print(f"no periodic orbit in the open positive orthant: {_verdict(cert.holds, 'yes', 'inconclusive')}")
        print(f"  divergence: {cert.divergence.render(system.variables)}")
        print(f"  divergence nonpositive and nonzero: {_verdict(cert.divergence_negative)}")
        known = cert.first_integral is not None
        print(f"  first integral known: {_verdict(known)}")
    return 0 if cert.holds else 1


# handlers for the properties decided on the ODE; conserve-stoich needs the network
_SYSTEM_CHECKS = {
    "kinetic": _check_kinetic,
    "conserve-kinetic": functools.partial(_check_conservation, mode="kinetic"),
    "qfi": _check_qfi,
    "log-lv": _check_log_lv,
    "no-periodic": _check_no_periodic,
}


def cmd_check(args) -> int:
    kind, obj = _load_target(args)
    params = _parse_params(args.params)
    payload: dict = {"property": args.property}
    if args.property == "conserve-stoich":
        if kind != "network":
            raise ValueError("conserve-stoich needs a reaction network")
        code = _check_conservation(obj, args, payload, "stoichiometric")
    else:
        system = obj if kind == "system" else induced_kinetic_ode(obj, params)
        code = _SYSTEM_CHECKS[args.property](system, args, payload)
    _Output(args).finish(payload)
    return code


def _invariant_from_expression(text: str, system: PolynomialSystem) -> QuadraticCandidate:
    poly = parse_polynomial(text, system.variables)
    n = system.dim
    q = [[Fraction(0)] * n for _ in range(n)]
    linear = [Fraction(0)] * n
    constant = Fraction(0)
    for expts, coeff in poly.sorted_terms():
        degree = sum(expts)
        if degree > 2:
            raise ValueError(f"invariant {text!r} has degree > 2")
        support = [i for i, e in enumerate(expts) if e]
        if degree == 0:
            constant = coeff
        elif degree == 1:
            linear[support[0]] = coeff
        elif len(support) == 1:
            q[support[0]][support[0]] = coeff
        else:
            i, j = support
            q[i][j] = q[j][i] = coeff / 2
    return QuadraticCandidate(tuple(map(tuple, q)), tuple(linear), constant)


def _generate_family(args):
    """Build the requested family instance: (system, invariant, conservation or None)."""
    fam = args.family
    if fam == "diagonal":
        if not args.weights or not args.coupling:
            raise ValueError("diagonal family needs --weights and --coupling")
        params = DiagonalParams(
            tuple(_parse_vector(args.weights)),
            tuple(tuple(row) for row in _parse_matrix(args.coupling)),
        )
        return generate_diagonal_system(params), params.invariant(), None
    if fam == "mixed-sign":
        needed = (args.plus_weights, args.minus_weights, args.coupling,
                  args.rho_plus, args.rho_minus)
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
            parse_rational(args.rho_z) if args.rho_z else Fraction(1),
        )
        return generate_mixed_sign_system(params), params.invariant(), params.conservation()
    if fam == "shifted":
        values = {}
        for name in ("A", "B", "a", "b"):
            raw = getattr(args, "rate_A" if name == "A" else "rate_B" if name == "B" else f"shift_{name}")
            values[name] = parse_rational(raw) if raw else Fraction(0)
        system = generate_shifted_system(values["A"], values["B"], values["a"], values["b"])
        return system, QuadraticCandidate.shifted_sum_of_squares(values["a"], values["b"]), None
    # binary-form families
    if args.a is None or args.b is None:
        raise ValueError(f"family {fam} needs --a and --b")
    kwargs = {}
    for name in ("c", "k", "l", "m", "n", "r", "s"):
        raw = getattr(args, name)
        if raw is not None:
            kwargs[name] = parse_rational(raw)
    params = BinaryFormParams(
        family=fam.replace("-", "_"),
        a=parse_rational(args.a),
        b=parse_rational(args.b),
        **kwargs,
    )
    return generate_binary_form_system(params), params.invariant(), None


def cmd_generate(args) -> int:
    system, invariant, conservation = _generate_family(args)
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
    out = _Output(args)
    if not args.json:
        print(f"system: {system.render()}")
        print(f"invariant: {invariant.render(system.variables)}")
        print("realization:")
        rendered = network.render()
        print("  " + rendered.replace("\n", "\n  ") if rendered else "  (no steps)")
        flags = " ".join(f"{k}={_verdict(v)}" for k, v in checks.items())
        print(f"verified: {flags}")
    out.finish(payload)
    return 0


def cmd_realize(args) -> int:
    system = _as_system(args, _parse_params(args.params))
    out = _Output(args)
    try:
        network = canonical_realization(system)
    except NotKineticError as exc:
        payload = {"realizable": False, **exc.report.to_dict()}
        if not args.json:
            print(f"realizable: {_verdict(False)}")
            for violation in exc.report.violations:
                print("  " + violation.describe(system.variables))
        out.finish(payload)
        return 1
    payload = {
        "realizable": True,
        "proper": network.is_proper,
        **network.to_dict(),
    }
    if not args.json:
        print(f"species: {' '.join(network.species)}")
        print(network.render() if network.steps else "(no steps)")
        if not network.is_proper:
            print("note: degenerate realization (zero system or unused species)")
    out.add_file("network.json", network.to_json() + "\n")
    out.finish(payload)
    return 0


def cmd_simulate(args) -> int:
    system = _as_system(args, _parse_params(args.params))
    x0 = _parse_vector(args.x0)
    method = {"rk4": "rk4_fixed", "rkf45": "rkf45_adaptive"}[args.method]
    config = SimConfig(
        method=method,
        step=args.dt,
        tolerance=args.tol,
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
        invariant = _invariant_from_expression(args.invariant, system)
        if not is_first_integral(invariant, system):
            raise ValueError("supplied invariant is not a first integral of the system")

    try:
        trajectory = integrate(system, x0, config, invariant)
    except SimulationError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return 1

    payload: dict = {
        "method": config.method,
        "t_end": config.t_end,
        "samples": len(trajectory.times),
    }
    out = _Output(args)
    out.add_file("trajectory.csv", trajectory.to_csv())
    if invariant is not None:
        drift = drift_report(trajectory)
        payload["invariant"] = invariant.render(system.variables)
        payload["drift"] = drift
        out.add_file("drift.json", json.dumps(drift, indent=2, sort_keys=True) + "\n")
    if not args.json:
        print(f"integrated to t={trajectory.times[-1]:.6g} with {len(trajectory.times)} samples")
        if invariant is not None:
            print(
                f"invariant drift: max {drift['max_abs_drift']:.3e}, "
                f"final {drift['final_drift']:.3e}, "
                f"positivity events {drift['positivity_events']}"
            )
    out.finish(payload)
    return 0


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
    p.add_argument("--params", nargs="*", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_odes)

    p = sub.add_parser("check", parents=[common], help="decide a property of a network or system")
    p.add_argument("target")
    p.add_argument(
        "--property",
        required=True,
        choices=["kinetic", "conserve-stoich", "conserve-kinetic", "qfi", "log-lv", "no-periodic"],
    )
    p.add_argument("--params", nargs="*", metavar="NAME=VALUE")
    p.add_argument("--candidate", metavar="RHO", help="comma-separated conservation vector to verify")
    p.add_argument(
        "--filter",
        choices=["positive-diagonal"],
        help="restrict the qfi search to positive-definite diagonal forms",
    )
    p.add_argument("--invariant", metavar="EXPR", help="first integral for no-periodic")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("generate", parents=[common], help="emit a conserving family instance")
    p.add_argument(
        "--family",
        required=True,
        choices=[
            "diagonal",
            "mixed-sign",
            "ellipse-hyperbola",
            "parabolic-plus",
            "parabolic-minus",
            "indefinite",
            "rank-one",
            "shifted",
        ],
    )
    for opt in ("a", "b", "c", "k", "l", "m", "n", "r", "s"):
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
    p.add_argument("--params", nargs="*", metavar="NAME=VALUE")
    p.set_defaults(func=cmd_realize)

    p = sub.add_parser("simulate", parents=[common], help="integrate trajectories")
    p.add_argument("target")
    p.add_argument("--params", nargs="*", metavar="NAME=VALUE")
    p.add_argument("--x0", required=True, metavar="V", help="comma-separated initial state")
    p.add_argument("--method", choices=["rk4", "rkf45"], default="rk4")
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--t-end", type=float, default=10.0)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--invariant", metavar="EXPR", help="polynomial expression or 'auto'")
    p.add_argument("--project", action="store_true", help="project back onto the initial level set")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.command_line = list(argv) if argv is not None else sys.argv[1:]
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point():  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
