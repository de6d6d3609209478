"""Command line front end.

Matrices are dense CSV (one row per line, "%.17g"), signal sets travel as a
JSON descriptor; every subcommand prints a JSON report to stdout (or --report
PATH). --dump-program PREFIX writes every conic program solved along the
way to PREFIX.<k>.json, in the (c, G, h, dims) form the solver receives, for
external cross-checking. Bad input exits 2 with a message, and so does an
ESTIMATOR_SOLVER_TOL that is not a finite positive number: that variable is
the interior-point duality-gap target of every solve
(solver.ipm.gap_tolerance), and main checks it before any subcommand runs.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io
from .estimator import EstimationProblem, build_linear_estimate
from .experiments import (
    BOX,
    ELLIPSOID,
    PENDULUM,
    ScenarioConfig,
    check_invariants,
    run_pendulum_experiment,
    run_suboptimality_experiment,
)
from .lower_bound import (
    DEFAULT_DELTA_GRID,
    RHO_FAMILY,
    CONTRACTION,
    QUADRATIC_APPROX,
    PARALLELOTOPE,
    best_refined_lower_bound,
    lower_bound_rho_family,
    m_star,
    near_optimality_factor,
)
from .robust import UncertaintyModel, build_robust_estimate, verify_robust_feasibility
from .s_risk import (
    SRiskProblem,
    build_srisk_estimate,
    optimize_S_bisection,
    whole_space_estimate,
)
from .sdp_relaxation import factor_bound, solve_and_round
from .solver import SolverError, set_program_dump
from .solver.ipm import gap_tolerance

METHODS = (RHO_FAMILY, CONTRACTION, QUADRATIC_APPROX, PARALLELOTOPE)


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _emit(report: dict, path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fp:
            fp.write(text + "\n")
    else:
        print(text)


def cmd_estimate(args) -> int:
    A, B = io.read_matrix(args.A), io.read_matrix(args.B)
    ell = io.read_ellitope(args.ellitope)
    est = build_linear_estimate(EstimationProblem(A, B, args.sigma, ell))
    io.write_matrix(args.out_h, est.H)
    _emit({
        "opt": est.opt,
        "risk_bound": est.risk_bound,
        "lambda": est.lam.tolist(),
        "residuals": {"primal": est.solution.pres, "dual": est.solution.dres,
                      "compl": est.solution.gap},
        "H_path": args.out_h,
    }, args.report)
    return 0


def cmd_lower_bound(args) -> int:
    if args.delta is not None and args.method == RHO_FAMILY:
        raise ValueError("--delta applies to the refined methods; --method rho_family "
                         "scans its own delta")
    if args.rho_grid is not None and args.method != RHO_FAMILY:
        raise ValueError(f"--rho-grid applies only to --method rho_family, not {args.method}")
    if args.delta is not None and not 0 < args.delta <= 0.2:
        raise ValueError(f"--delta must lie in (0, 0.2], got {args.delta}")
    grid = _floats(args.rho_grid) if args.rho_grid else None
    if grid is not None and not (grid and all(0 < r <= 1 for r in grid)):
        raise ValueError(f"--rho-grid values must lie in (0, 1], got {args.rho_grid!r}")
    A, B = io.read_matrix(args.A), io.read_matrix(args.B)
    ell = io.read_ellitope(args.ellitope)
    prob = EstimationProblem(A, B, args.sigma, ell)
    est = build_linear_estimate(prob)
    ms = m_star(B, ell)
    if args.method == RHO_FAMILY:
        rep = lower_bound_rho_family(est.opt, ms, ell.K, rho_grid=grid)
    else:
        deltas = (args.delta,) if args.delta is not None else DEFAULT_DELTA_GRID
        rep = best_refined_lower_bound(prob, args.method, deltas=deltas,
                                       opt=est.opt, mstar=ms)
    fe = near_optimality_factor(est.opt, ms, ell.K,
                                risk_opt=rep.lb if rep.lb > 0 else None)
    _emit({
        "method": rep.method,
        "lb": rep.lb,
        "rho": rep.rho,
        "delta": rep.delta,
        "delta_refined": rep.delta_refined,
        "opt_upper": est.risk_bound,
        "m_star": ms,
        "factor_numeric": est.risk_bound / rep.lb if rep.lb > 0 else None,
        "factor_computable": fe.factor_computable,
        "factor_theorem": fe.factor_theorem,
    }, args.report)
    return 0


def cmd_srisk(args) -> int:
    if args.optimize_S:
        for flag, given in (("--whole-space", args.whole_space), ("--S", args.S is not None),
                            ("--ellitope", args.ellitope is not None)):
            if given:
                raise ValueError(f"{flag} does not apply to --optimize-S")
    elif args.whole_space and args.ellitope is not None:
        raise ValueError("--ellitope does not apply to --whole-space")
    A, B = io.read_matrix(args.A), io.read_matrix(args.B)
    n = A.shape[1]
    report = {}
    if args.optimize_S:
        S, H, tau = optimize_S_bisection(A, B, args.sigma, trace_cap=args.trace_cap)
        report["mode"] = "optimize_S"
        io.write_matrix(args.out_s, S)
        report["S_path"] = args.out_s
        eigs, bound = np.linalg.eigvalsh(S), float(np.sqrt(tau))
    elif args.whole_space:
        if args.S is None:
            raise ValueError("--whole-space needs --S")
        S = io.read_matrix(args.S)
        est = whole_space_estimate(A, B, args.sigma, S)
        H, tau, bound = est.H, est.tau, est.srisk_bound
        report["mode"] = "whole_space"
        eigs = np.linalg.eigvalsh(S)
    else:
        if args.S is None or args.ellitope is None:
            raise ValueError("fixed-S mode needs --S and --ellitope")
        S = io.read_matrix(args.S)
        ell = io.read_ellitope(args.ellitope)
        sp = SRiskProblem(EstimationProblem(A, B, args.sigma, ell), S)
        est = build_srisk_estimate(sp)
        H, tau, bound = est.H, est.tau, est.srisk_bound
        report["mode"] = "ellitope"
        eigs = np.linalg.eigvalsh(S)
    io.write_matrix(args.out_h, H)
    report.update({
        "tau": float(tau),
        "srisk_bound": float(bound),
        "S_eigenvalues": np.sort(eigs)[::-1].tolist(),
        "H_path": args.out_h,
        "n": n,
    })
    _emit(report, args.report)
    return 0


def cmd_robust(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples: N must be at least 1, got {args.samples}")
    A, B = io.read_matrix(args.A), io.read_matrix(args.B)
    ell = io.read_ellitope(args.ellitope)
    E, F = io.read_matrix(args.E), io.read_matrix(args.F)
    S = io.read_matrix(args.S) if args.S else np.zeros((ell.n, ell.n))
    um = UncertaintyModel(A, B, E, F, args.radius)
    H, lam, mu, rob_opt = build_robust_estimate(um, args.sigma, S, ell)
    frac = verify_robust_feasibility(H, lam, rob_opt, um, S, ell,
                                     N=args.samples, seed=args.seed)
    io.write_matrix(args.out_h, H)
    _emit({
        "rob_opt": float(rob_opt),
        "risk_bound": float(np.sqrt(rob_opt)),
        "mu": float(mu),
        "feasible_fraction": frac,
        "lambda": lam.tolist(),
        "H_path": args.out_h,
    }, args.report)
    return 0


def cmd_sdprelax(args) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be at least 1, got {args.budget}")
    C = io.read_matrix(args.C)
    ell = io.read_ellitope(args.ellitope)
    res = solve_and_round(C, ell, seed=args.seed, budget=args.budget)
    if args.out_x:
        io.write_matrix(args.out_x, res.x_hat[None, :])
    _emit({
        "opt": res.opt,
        "val_hat": res.val_hat,
        "ratio": res.ratio,
        "factor_bound": factor_bound(ell.K),
        "trials_used": res.trials_used,
    }, args.report)
    return 0


def cmd_experiment(args) -> int:
    kw = {"scenario": args.scenario, "seed": args.seed, "out_dir": args.out}
    if args.n:
        kw["n_grid"] = _ints(args.n)
    if args.sigma_grid:
        kw["sigma_grid"] = _floats(args.sigma_grid)
    elif args.scenario == PENDULUM:
        kw["sigma_grid"] = (0.075,)
    if args.scenario == PENDULUM:
        kw.update(horizon=args.horizon, trace_cap=args.trace_cap)
    if args.refine_deltas:
        kw["refine_deltas"] = _floats(args.refine_deltas)
    cfg = ScenarioConfig(**kw)
    runner = run_pendulum_experiment if args.scenario == PENDULUM \
        else run_suboptimality_experiment
    records = runner(cfg)
    violations = check_invariants(records, cfg)
    _emit({
        "scenario": cfg.scenario,
        "records": len(records),
        "rows_with_errors": sum(1 for r in records if r.error),
        "violations": violations,
        "out_dir": args.out,
    }, args.report)
    for v in violations:
        print(f"invariant violation: {v}", file=sys.stderr)
    return 0 if not violations else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ellest",
        description="Minimax linear estimation over ellitopes: designs, risk "
                    "lower bounds, S-risk and robust variants, quadratic "
                    "maximization, and experiment harness.")
    p.add_argument("--dump-program", metavar="PREFIX", default=None,
                   help="write every conic program solved to PREFIX.<k>.json")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common_io(q):
        q.add_argument("A", help="sensing matrix CSV")
        q.add_argument("B", help="target matrix CSV")
        q.add_argument("ellitope", help="signal-set descriptor JSON")
        q.add_argument("--sigma", type=float, required=True, help="noise level")
        q.add_argument("--report", default=None, help="write the JSON report here")

    q = sub.add_parser("estimate", help="minimax linear estimate on an ellitope")
    common_io(q)
    q.add_argument("--out-h", default="H.csv", help="estimation matrix output")
    q.set_defaults(fn=cmd_estimate)

    q = sub.add_parser("lower-bound", help="lower bound on the minimax risk")
    common_io(q)
    q.add_argument("--method", choices=METHODS, default=RHO_FAMILY)
    q.add_argument("--delta", type=float, default=None,
                   help="confidence parameter for the refined methods")
    q.add_argument("--rho-grid", default=None,
                   help="comma-separated rho values for the rho-family scan")
    q.set_defaults(fn=cmd_lower_bound)

    q = sub.add_parser("srisk", help="risk normalized by 1 + x'Sx")
    q.add_argument("A")
    q.add_argument("B")
    q.add_argument("--sigma", type=float, required=True)
    q.add_argument("--ellitope", default=None, help="signal-set descriptor JSON (fixed-S mode)")
    q.add_argument("--S", default=None, help="weight matrix CSV (fixed-S and --whole-space)")
    q.add_argument("--whole-space", action="store_true",
                   help="minimax over all of R^n instead of an ellitope; takes --S")
    q.add_argument("--optimize-S", action="store_true",
                   help="optimize S under --trace-cap over R^n; writes --out-s")
    q.add_argument("--trace-cap", type=float, default=1.0)
    q.add_argument("--out-h", default="H.csv")
    q.add_argument("--out-s", default="S_opt.csv")
    q.add_argument("--report", default=None)
    q.set_defaults(fn=cmd_srisk)

    q = sub.add_parser("robust", help="estimate under norm-bounded matrix uncertainty")
    common_io(q)
    q.add_argument("E", help="left perturbation factor CSV, p x (m+nu)")
    q.add_argument("F", help="right perturbation factor CSV, p x n")
    q.add_argument("--radius", type=float, required=True, help="spectral-norm bound on Delta")
    q.add_argument("--S", default=None, help="optional S-risk weight (default 0)")
    q.add_argument("--samples", type=int, default=1000,
                   help="perturbations sampled for the feasibility check")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out-h", default="H.csv")
    q.set_defaults(fn=cmd_robust)

    q = sub.add_parser("sdprelax", help="relax and round quadratic maximization")
    q.add_argument("C", help="symmetric objective CSV")
    q.add_argument("ellitope")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--budget", type=int, default=200)
    q.add_argument("--out-x", default=None, help="write the rounded point here")
    q.add_argument("--report", default=None)
    q.set_defaults(fn=cmd_sdprelax)

    q = sub.add_parser("experiment", help="reproduction studies, CSV + JSON out")
    q.add_argument("scenario", choices=(ELLIPSOID, BOX, PENDULUM))
    q.add_argument("--n", default=None, help="comma-separated dimensions")
    q.add_argument("--sigma-grid", default=None, help="comma-separated noise levels")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True, help="output directory")
    q.add_argument("--horizon", type=int, default=32, help="pendulum steps T")
    q.add_argument("--trace-cap", type=float, default=1.0)
    q.add_argument("--refine-deltas", default=None,
                   help="comma-separated deltas for the refined bounds")
    q.add_argument("--report", default=None)
    q.set_defaults(fn=cmd_experiment)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    set_program_dump(args.dump_program)
    try:
        # a bad ESTIMATOR_SOLVER_TOL exits 2 here, not as per-row errors
        gap_tolerance()
        return args.fn(args)
    except (SolverError, ValueError, NotImplementedError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        set_program_dump(None)


if __name__ == "__main__":
    sys.exit(main())
