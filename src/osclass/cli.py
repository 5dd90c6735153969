"""Batch command-line front end.

Every subcommand reads JSON inputs, dispatches to the compute modules, and
prints a single machine-readable report with certificates, seeds, and
tolerances.  Exit codes: 0 computed, 2 invalid input, 4 capacity exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from . import degree1, formulas, io, metric, osdist, unitary
from .errors import CapacityError, InputFormatError, OsclassError
from .linalg import TOL_NUM, FactoredSpan, gram_rank
from .opsys import amplified_norm

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 4

#: A replayed certificate value passes within this of the expected one, times
#: the largest expected magnitude when that exceeds 1.
REPLAY_BOUND = 1e-7


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

    p = sub.add_parser("spectrum", help="spectrum of a unitary as sorted circle angles")
    p.add_argument("matrix")
    p.add_argument("--tol", type=_tolerance, default=TOL_NUM)

    p = sub.add_parser("canon", help="canonical necklace of a unitary's spectrum")
    p.add_argument("matrix")
    p.add_argument("--tol", type=_tolerance, default=TOL_NUM)

    p = sub.add_parser("unitary-cois", help="complete order isomorphism decision for two unitaries")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--oracle", action="store_true", help="ignored; every size is decided exactly")
    p.add_argument("--tol", type=_tolerance, default=TOL_NUM)
    p.add_argument("--cap", type=int, default=20, help="ignored; echoed in the report")

    p = sub.add_parser("deg1", help="degree-1 homeomorphism decision for two point sets")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--tol", type=_tolerance, default=TOL_NUM)
    p.add_argument("--via-opsys", action="store_true",
                   help="decide through the operator-system function spans")

    p = sub.add_parser("norm", help="amplified norm of an element of M_n(X)")
    p.add_argument("system")
    p.add_argument("--element", required=True)
    p.add_argument("--level", type=int, default=None)

    p = sub.add_parser("osdist", help="weighted distance estimate between two systems")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("family", help="classification within a parametrized family")
    p.add_argument("name", choices=["wt"])
    p.add_argument("--variant", choices=["3x3", "2x2"], default="3x3")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--seed", type=int, default=0, help="ignored; echoed in the report")
    p.add_argument("--restarts", type=int, default=128, help="ignored")

    p = sub.add_parser("gh-dist", help="brute-force weighted distance between structures")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--cap", type=int, default=metric.DEFAULT_DK_CAP)

    p = sub.add_parser("gh-theory", help="universal-theory fingerprint of a structure")
    p.add_argument("structure")
    p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser("verify", help="re-run a report's command and replay its certificates")
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


def _cmd_unitary_cois(args) -> tuple[dict, int]:
    u = io.parse_matrix(io.load_json(args.left))
    v = io.parse_matrix(io.load_json(args.right))
    # the spectra are extracted once and shared by the decision and the obstruction
    ss, tt = unitary.spectrum(u, tol=args.tol), unitary.spectrum(v, tol=args.tol)
    dec = unitary.cois_unitary_theorem(ss, tt, tol=args.tol)
    payload = {**vars(dec), "tolerances": {"tol": args.tol, "cap": args.cap}}
    # the theorem calls the oracle on two 4-point spectra only
    if dec.verdict == "NotIsomorphic" and dec.method == "oracle":
        payload["obstruction"] = unitary.four_point_obstruction(ss, tt, tol=args.tol)
    return payload, EXIT_OK


def _cmd_deg1(args) -> tuple[dict, int]:
    d = io.parse_point_set(io.load_json(args.left))
    e = io.parse_point_set(io.load_json(args.right))
    decide = degree1.deg1_via_opsys if args.via_opsys else degree1.degree_one_homeomorphic
    dec = decide(d, e, tol=args.tol, cap=args.cap)
    return {**vars(dec), "tolerances": {"tol": args.tol, "cap": args.cap}}, EXIT_OK


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


def _check(name: str, predicted: np.ndarray, expected: np.ndarray) -> dict:
    resid = float(np.max(np.abs(predicted - expected)))  # relative past values of size 1
    bound = REPLAY_BOUND * max(1.0, float(np.max(np.abs(expected))))
    return {"check": name, "residual": resid, "pass": resid <= bound}


@io.as_input_error
def _replay_certificates(report: dict, args) -> list:
    """Re-check both halves of the replayable certificates embedded in a report."""
    checks = []
    cert = report.get("certificate")
    witness = report.get("witness")
    if (args.command == "unitary-cois" and report.get("verdict") == "Isomorphic"
            and isinstance(cert, dict) and ("bijection" in cert or "motion" in cert)):
        ss = unitary.spectrum(io.parse_matrix(io.load_json(args.left)), args.tol)
        tt = unitary.spectrum(io.parse_matrix(io.load_json(args.right)), args.tol)
        if "motion" in cert:
            rotation, reflect = cert["motion"]["rotation"], cert["motion"]["reflect"]
            motion = unitary.RigidMotion(io.parse_real(rotation),
                                         io.parse_boolean(reflect, "motion reflect"))
            resid = unitary._hausdorff_angles(motion.apply_angles(tt.angles), ss.angles)
            checks.append(_check("rigid motion", np.array(resid), np.array(0.0)))
        else:
            zs, ws = ss.points(), tt.points()
            perm = io.parse_bijection(cert["bijection"], zs.size)
            for half, src, dst in (("forward", zs, ws[perm]),
                                   ("backward", ws, zs[np.argsort(perm)])):
                a, b, c = (io.parse_complex(x) for x in cert[f"{half}_coeffs"])
                checks.append(_check(f"{half} span coefficients",
                                     a + b * src + c * src.conj(), dst))
    if (args.command == "deg1" and report.get("homeomorphic")
            and isinstance(witness, dict) and "forward" in witness):
        d = io.parse_point_set(io.load_json(args.left))
        e = io.parse_point_set(io.load_json(args.right))
        perm = io.parse_bijection(witness["bijection"], d.size)
        for half, src, dst in (("forward", d, e.points[perm]),
                               ("backward", e, d.points[np.argsort(perm)])):
            coeffs = io._numbers(witness[half]["coeffs"], 2, io.parse_complex)
            out = degree1.DegreeOneMap(ambient=src.ambient, coeffs=coeffs).apply(src)
            checks.append(_check(f"degree-1 {half} map", out, dst))
            # a degree-1 map also has every product out_k conj(out_l) in the span
            mono = degree1.monomial_matrix(src)
            prods = degree1._coords_and_products(out)[:, src.ambient:]
            fit, _, _ = FactoredSpan(mono).fit(prods)
            checks.append(_check(f"degree-1 {half} products", mono @ fit, prods))
    if args.command == "family" and args.variant == "2x2" and isinstance(cert, dict):
        u = io.parse_matrix({"rows": cert["unitary"]})
        a, b, c = (io.parse_complex(x) for x in cert["coefficients"])
        wt, ws = (osdist.wt_matrix(osdist.WtParams(x, "two_by_two")) for x in (args.t, args.s))
        eye = np.eye(2)
        moved = [u @ g @ u.conj().T for g in (eye, wt, wt.conj().T)]
        onto = gram_rank([g.reshape(-1) for g in [eye, ws, ws.conj().T] + moved])
        checks.append(_check("W_t unitary", u.conj().T @ u, eye))
        checks.append(_check("W_t coefficients", moved[1], a * eye + b * ws + c * ws.conj().T))
        checks.append(_check("W_t onto rank", np.array(onto), np.array(3)))
    return checks


def _cmd_verify(args) -> tuple[dict, int]:
    stored = io.load_json(args.report)
    argv = stored.get("command") if isinstance(stored, dict) else None
    if not (isinstance(argv, list) and argv and all(isinstance(a, str) for a in argv)):
        raise InputFormatError("report carries no command echo to replay")
    try:
        echoed = _build_parser().parse_args(argv)
    except SystemExit as exc:
        raise InputFormatError(f"cannot parse the echoed command {argv}") from exc
    if echoed.command == "verify":
        # the echo of a verify report can name that very file, and replaying
        # it would then recurse without end
        raise InputFormatError("the echoed command is verify; verify the report it checked")
    from io import StringIO

    buf = StringIO()
    code = run(argv, stdout=buf)
    fresh = buf.getvalue().strip()
    with open(args.report, "r", encoding="utf-8") as fh:
        original = fh.read().strip()
    identical = fresh == original
    checks = _replay_certificates(stored, echoed)
    ok = identical and all(c["pass"] for c in checks)
    return {
        "replay_identical": identical,
        "certificate_checks": checks,
        "verified": ok,
    }, EXIT_OK if ok else EXIT_INVALID


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "canon": _cmd_canon,
    "unitary-cois": _cmd_unitary_cois,
    "deg1": _cmd_deg1,
    "norm": _cmd_norm,
    "osdist": _cmd_osdist,
    "family": _cmd_family,
    "gh-dist": _cmd_gh_dist,
    "gh-theory": _cmd_gh_theory,
    "verify": _cmd_verify,
}


def run(argv=None, stdout=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code else EXIT_OK
    start = time.monotonic()
    try:
        payload, code = _HANDLERS[args.command](args)
    except CapacityError as exc:
        payload, code = {"error": {"kind": "capacity", "message": str(exc)}}, EXIT_CAPACITY
    except (OsclassError, OSError) as exc:
        payload, code = {"error": {"kind": type(exc).__name__, "message": str(exc)}}, EXIT_INVALID
    # echo from the subcommand onward: the timing flag is a runtime detail
    # and must not perturb the report bytes
    echo = argv[argv.index(args.command):]
    report = {"command": echo}
    report.update(payload)
    if args.timing:
        report["wall_time_s"] = time.monotonic() - start
    print(io.canonical_report(report), file=out)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
