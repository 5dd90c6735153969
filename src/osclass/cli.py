"""Batch command-line front end.

Every subcommand reads JSON inputs, dispatches to the compute modules, and
prints a single machine-readable report with certificates, seeds, and
tolerances.  Exit codes: 0 computed, 2 invalid input, 4 capacity exceeded.
Each subcommand's parser declaration names its handler and, for ``unitary-cois``,
``deg1`` and ``family``, the certificate replay ``verify`` runs, defined beside it.
A replay decodes the stored certificate and hands it, with the inputs its
handler decoded in the same call (:func:`_decoded`), to its route's check.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time

import numpy as np

from . import degree1, formulas, io, metric, osdist, unitary
from .errors import CapacityError, InputFormatError, OsclassError
from .linalg import TOL_NUM
from .opsys import amplified_norm

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 4


def _tolerance(text: str) -> float:
    value = float(text)
    if not np.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing does not change it."""
    parser = argparse.ArgumentParser(prog="osclass", description=__doc__)
    parser.add_argument("--timing", action="store_true",
                        help="include wall time in the report (breaks byte-identical output)")
    sub = parser.add_subparsers(dest="command", required=True)
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("left")
    pair.add_argument("right")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=TOL_NUM)

    def command(name, handler, summary, *parents, replay=None):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(handler=handler, replay=replay, decoded=None)
        return p

    p = command("spectrum", _cmd_spectrum, "spectrum of a unitary as sorted circle angles", tol)
    p.add_argument("matrix")

    p = command("canon", _cmd_canon, "canonical necklace of a unitary's spectrum", tol)
    p.add_argument("matrix")

    p = command("unitary-cois", _cmd_unitary_cois,
                "complete order isomorphism decision for two unitaries", pair, tol,
                replay=_replay_unitary_cois)
    p.add_argument("--oracle", action="store_true", help="ignored; every size is decided exactly")

    p = command("deg1", _cmd_deg1, "degree-1 homeomorphism decision for two point sets",
                pair, tol, replay=_replay_deg1)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--via-opsys", action="store_true",
                   help="decide through the operator-system function spans")

    p = command("norm", _cmd_norm, "amplified norm of an element of M_n(X)")
    p.add_argument("system")
    p.add_argument("--element", required=True)
    p.add_argument("--level", type=int, default=None)

    p = command("osdist", _cmd_osdist, "weighted distance estimate between two systems", pair)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = command("family", _cmd_family, "classification within a parametrized family",
                replay=_replay_family)
    p.add_argument("name", choices=["wt"])
    p.add_argument("--variant", choices=["3x3", "2x2"], default="3x3")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="ignored; echoed in the report")
    p.add_argument("--restarts", type=int, default=128, help="ignored")

    p = command("gh-dist", _cmd_gh_dist, "brute-force weighted distance between structures", pair)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--cap", type=int, default=metric.DEFAULT_DK_CAP)

    p = command("gh-theory", _cmd_gh_theory, "universal-theory fingerprint of a structure")
    p.add_argument("structure")
    p.add_argument("--depth", type=int, default=3)

    p = command("verify", _cmd_verify, "re-run a report's command and replay its certificates")
    p.add_argument("report")

    return parser


def _cmd_spectrum(args) -> tuple[dict, int]:
    s = unitary.spectrum(io.parse_matrix(io.load_json(args.matrix)), tol=args.tol)
    return {"angles": list(s.angles), "size": s.size, "tolerances": {"tol": args.tol}}, EXIT_OK


def _cmd_canon(args) -> tuple[dict, int]:
    s = unitary.spectrum(io.parse_matrix(io.load_json(args.matrix)), tol=args.tol)
    neck = unitary.canonical_form(s)
    return {
        "gaps": list(neck.gaps),
        "reflected": neck.reflected,
        "size": s.size,
        "tolerances": {"tol": args.tol},
    }, EXIT_OK


def _decoded(args, decode):
    """``decode(args)``, run once per parsed command: ``verify``'s replay
    reads what its re-run of the command decoded, and nothing outlives the
    parsed arguments."""
    if args.decoded is None:
        args.decoded = decode(args)
    return args.decoded


def _unitary_spectra(args) -> tuple:
    u = io.parse_matrix(io.load_json(args.left))
    v = io.parse_matrix(io.load_json(args.right))
    return unitary.spectrum(u, tol=args.tol), unitary.spectrum(v, tol=args.tol)


def _cmd_unitary_cois(args) -> tuple[dict, int]:
    # the spectra are extracted once and shared by the decision, the
    # obstruction and the replay
    ss, tt = _decoded(args, _unitary_spectra)
    dec = unitary.cois_unitary_theorem(ss, tt, tol=args.tol)
    payload = {**vars(dec), "tolerances": {"tol": args.tol}}
    # the theorem calls the oracle on two 4-point spectra only
    if dec.verdict == "NotIsomorphic" and dec.method == "oracle":
        payload["obstruction"] = unitary.four_point_obstruction(ss, tt, tol=args.tol)
    return payload, EXIT_OK


def _replay_unitary_cois(args, report: dict) -> list:
    cert = report.get("certificate")
    if not (report.get("verdict") == "Isomorphic" and isinstance(cert, dict)
            and ("bijection" in cert or "motion" in cert)):
        return []
    ss, tt = _decoded(args, _unitary_spectra)
    if "motion" in cert:
        motion = cert["motion"]
        decoded = {"motion": {"rotation": io.parse_real(motion["rotation"]),
                              "reflect": io.parse_boolean(motion["reflect"], "motion reflect")}}
    else:
        decoded = {"bijection": io.parse_bijection(cert["bijection"], ss.size)}
        for key in ("forward_coeffs", "backward_coeffs"):
            decoded[key] = np.array([io.parse_complex(x) for x in cert[key]])
    return unitary._certificate_checks(ss, tt, decoded)


def _point_sets(args) -> tuple:
    return io.parse_point_set(io.load_json(args.left)), io.parse_point_set(io.load_json(args.right))


def _cmd_deg1(args) -> tuple[dict, int]:
    d, e = _decoded(args, _point_sets)
    decide = degree1.deg1_via_opsys if args.via_opsys else degree1.degree_one_homeomorphic
    dec = decide(d, e, tol=args.tol, cap=args.cap)
    return {**vars(dec), "tolerances": {"tol": args.tol, "cap": args.cap}}, EXIT_OK


def _replay_deg1(args, report: dict) -> list:
    witness = report.get("witness")
    if not (report.get("homeomorphic") and isinstance(witness, dict)):
        return []
    d, e = _decoded(args, _point_sets)
    decoded = {"bijection": io.parse_bijection(witness["bijection"], d.size)}
    if not args.via_opsys:  # the opsys route's witness is the bijection alone
        for half, src in (("forward", d), ("backward", e)):
            coeffs = io._numbers(witness[half]["coeffs"], 2, io.parse_complex)
            decoded[half] = degree1.DegreeOneMap(ambient=src.ambient, coeffs=coeffs)
    return degree1._certificate_checks(d, e, decoded)


def _cmd_norm(args) -> tuple[dict, int]:
    system = io.parse_system(io.load_json(args.system))
    element = io.parse_element(io.load_json(args.element))
    if args.level is not None and args.level != element.level:
        raise InputFormatError(f"--level {args.level} does not match element level {element.level}")
    value = amplified_norm(system, element)
    return {"norm": value, "level": element.level, "system_dim": system.dim}, EXIT_OK


def _cmd_osdist(args) -> tuple[dict, int]:
    x = io.parse_system(io.load_json(args.left))
    y = io.parse_system(io.load_json(args.right))
    report = osdist.dgh_weighted(x, y, n_max=args.levels, restarts=args.restarts, seed=args.seed)
    return {
        "weighted": report.weighted,
        "per_level": [
            {"level": r["level"], "estimate": r["estimate"], "map": r["map"],
             "restarts": r["restarts"]}
            for r in report.per_level
        ],
        "seed": args.seed,
        "note": "best-found estimates, not certified bounds",
    }, EXIT_OK


def _cmd_family(args) -> tuple[dict, int]:
    variant = "three_by_three" if args.variant == "3x3" else "two_by_two"
    dec = osdist.wt_classify(args.t, args.s, variant, restarts=args.restarts, seed=args.seed)
    return {**vars(dec), "t": args.t, "s": args.s, "variant": args.variant,
            "seed": args.seed}, EXIT_OK


def _replay_family(args, report: dict) -> list:
    cert = report.get("certificate")
    if not (args.variant == "2x2" and isinstance(cert, dict)):
        return []
    decoded = {"unitary": io.parse_matrix({"rows": cert["unitary"]}),
               "coefficients": np.array([io.parse_complex(x) for x in cert["coefficients"]])}
    return osdist._certificate_checks(args.t, args.s, decoded)


def _cmd_gh_dist(args) -> tuple[dict, int]:
    m = io.parse_structure(io.load_json(args.left))
    n = io.parse_structure(io.load_json(args.right))
    value, levels = metric._weighted_dk(m, n, args.kmax, args.cap)
    per_level = {str(k): v for k, v in enumerate(levels, start=1)}
    return {"distance": value, "per_level": per_level,
            "tolerances": {"kmax": args.kmax, "cap": args.cap}}, EXIT_OK


def _cmd_gh_theory(args) -> tuple[dict, int]:
    m = io.parse_structure(io.load_json(args.structure))
    fp = formulas.universal_fingerprint(m, depth=args.depth)
    return {"fingerprint": list(fp), "depth": args.depth, "length": int(fp.size)}, EXIT_OK


def _cmd_verify(args) -> tuple[dict, int]:
    text, stored = io.read_json(args.report)
    argv = stored.get("command") if isinstance(stored, dict) else None
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise InputFormatError("report carries no command echo to replay")
    try:
        # stdout holds the one report; argparse's help for an echoed --help goes aside
        with contextlib.redirect_stdout(sys.stderr):
            echoed = _build_parser().parse_args(argv)
    except SystemExit as exc:
        raise InputFormatError(f"cannot parse the echoed command {argv}") from exc
    if echoed.command == "verify":
        # the echo of a verify report can name that very file, and replaying
        # it would then recurse without end
        raise InputFormatError("the echoed command is verify; verify the report it checked")
    fresh, _ = _report(argv, echoed)
    identical = fresh == text.strip()
    checks = io.as_input_error(echoed.replay)(echoed, stored) if echoed.replay else []
    ok = identical and all(c["pass"] for c in checks)
    return {
        "replay_identical": identical,
        "certificate_checks": checks,
        "verified": ok,
    }, EXIT_OK if ok else EXIT_INVALID


def _report(argv: list, args) -> tuple[str, int]:
    """The canonical report of the parsed command ``args`` and its exit code."""
    start = time.monotonic()
    try:
        payload, code = args.handler(args)
    except CapacityError as exc:
        payload, code = {"error": {"kind": "capacity", "message": str(exc)}}, EXIT_CAPACITY
    except (OsclassError, OSError) as exc:
        payload, code = {"error": {"kind": type(exc).__name__, "message": str(exc)}}, EXIT_INVALID
    # echo from the subcommand onward: the timing flag is a runtime detail
    # and must not perturb the report bytes
    report = {"command": argv[argv.index(args.command):], **payload}
    if args.timing:
        report["wall_time_s"] = time.monotonic() - start
    return io.canonical_report(report), code


def run(argv=None, stdout=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    text, code = _report(argv, args)
    print(text, file=stdout)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
