"""Command-line interface.

Subcommands
-----------

- ``norm``     evaluate a unitarily invariant norm of a matrix
- ``map``      apply one of the sphere maps to a matrix and write an artifact
- ``verify``   run randomized verification suites and write reports
- ``modulus``  profile the modulus of continuity of a sphere map

Exit codes: 0 success, 1 at least one checked inequality or bound failed,
2 usage / configuration / parse problem, 3 numerical failure, 4 violated
mathematical precondition.

Determinism: given the same seed, configuration, and pinned ``--timestamp``,
every artifact the CLI writes is byte-identical across runs and thread
counts.  The seed defaults to the ``SPECTRAL_MAZUR_SEED`` environment
variable, then 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .entropy import EntropyMinReport, entropy_min_general, entropy_min_mat, norming_state
from .errors import (
    ConfigError,
    NotPositive,
    NotUnitTraceNorm,
    NumericalFailure,
    PreconditionError,
    ZeroMatrix,
)
from .gauge import convexify, parse_gauge
from .matnorm import _eigh_psd, matrix_to_json, norm_ui, read_matrix, trace_norm
from .mazur import MazurParams, mazur_forward, mazur_inverse
from .verify import (
    MAP_NAMES,
    SUITE_NAMES,
    SuiteConfig,
    dumps_json,
    estimate_modulus,
    run_inequality_suite,
)

__all__ = ["RunManifest", "main", "entry"]

_ENV_SEED = "SPECTRAL_MAZUR_SEED"


@dataclass(frozen=True)
class RunManifest:
    """Provenance block attached to every written artifact.

    ``command`` is the logical invocation (subcommand plus positionals);
    performance-only options such as thread count are excluded so that the
    manifest bytes cannot depend on them.  Pass ``--timestamp`` to pin the
    timestamp when byte-identical reruns are required.
    """

    command: str
    config: dict
    input_paths: tuple[str, ...]
    output_path: str | None
    version: str
    timestamp: str

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "input_paths": list(self.input_paths),
            "output_path": self.output_path,
            "version": self.version,
            "timestamp": self.timestamp,
        }


def _timestamp(args) -> str:
    if args.timestamp is not None:
        return args.timestamp
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ConfigError(f"--dims expects a comma-separated list of integers, got {text!r}") from None


def _check_p(p: float | None) -> None:
    """``--p`` is written into the manifest, so it must be finite even where unused."""
    if p is not None and not math.isfinite(p):
        raise ConfigError(f"--p must be a finite number, got {p}")


def _load_matrix(path: str):
    try:
        return read_matrix(path)
    except OSError as exc:
        raise ConfigError(f"cannot read matrix file {path!r}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8")


def _build_config(args) -> SuiteConfig:
    """Assemble the suite configuration: flags > config file > env > defaults."""
    data: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must contain a JSON object")
        data = dict(data)
    if args.seed is not None:
        data["seed"] = args.seed
    elif "seed" not in data:
        env = os.environ.get(_ENV_SEED)
        if env is not None:
            try:
                data["seed"] = int(env)
            except ValueError:
                raise ConfigError(f"{_ENV_SEED} must be an integer, got {env!r}") from None
    if args.dims is not None:
        data["dims"] = list(_parse_dims(args.dims))
    if args.samples is not None:
        data["samples_per_case"] = args.samples
    if args.rel_tol is not None:
        data["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        data["abs_tol"] = args.abs_tol
    return SuiteConfig.from_json(data)


def _build_parser() -> argparse.ArgumentParser:
    # each subcommand is offered only the flags it reads, so that an unread
    # flag is a usage error rather than silently ignored
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--seed", type=int, default=None, help=f"random seed (default: ${_ENV_SEED} or 1)")
    sampled.add_argument("--dims", type=str, default=None, help="comma-separated matrix dimensions")
    sampled.add_argument("--samples", type=int, default=None, help="random samples per (suite, dimension)")
    sampled.add_argument("--rel-tol", type=float, default=None, help="relative tolerance for inequality checks")
    sampled.add_argument("--abs-tol", type=float, default=None, help="absolute tolerance for inequality checks")
    written = argparse.ArgumentParser(add_help=False)
    written.add_argument("--out", type=str, default=None, help="output file, directory, or base path")
    written.add_argument("--timestamp", type=str, default=None, help="pin the manifest timestamp (for reproducible artifacts)")

    parser = argparse.ArgumentParser(
        prog="spectral-mazur",
        description="Unitarily invariant matrix norms, nonlinear sphere maps, and randomized verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_norm = sub.add_parser("norm", help="evaluate a unitarily invariant norm")
    p_norm.add_argument("matrix", help="path to a matrix JSON file")
    p_norm.add_argument("--gauge", required=True, help="gauge descriptor, e.g. lp:2, kyfan:3, conv:2:lp:1, dual:lp:3")

    p_map = sub.add_parser("map", parents=[written], help="apply a sphere map to a matrix")
    p_map.add_argument("kind", choices=("mazur", "mazur-inv", "entropy-min", "gmap"))
    p_map.add_argument("matrix", help="path to a matrix JSON file")
    p_map.add_argument("--gauge", required=True, help="gauge descriptor")
    p_map.add_argument("--p", type=float, default=None, help="exponent for the power maps")
    p_map.add_argument(
        "--project",
        action="store_true",
        help="rescale the input onto the map's domain sphere first",
    )

    p_verify = sub.add_parser("verify", parents=[sampled, written], help="run verification suites")
    p_verify.add_argument("suite", help=f"suite name or 'all'; suites: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--config", type=str, default=None, help="JSON file with a base suite configuration")
    p_verify.add_argument("--threads", type=int, default=1, help="worker threads (never affects results)")

    p_mod = sub.add_parser("modulus", parents=[sampled, written], help="profile a map's modulus of continuity")
    p_mod.add_argument("map", choices=MAP_NAMES)
    p_mod.add_argument("--gauge", required=True, help="gauge descriptor")
    p_mod.add_argument("--p", type=float, default=None, help="exponent for the power maps")

    return parser


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_norm(args) -> int:
    g = parse_gauge(args.gauge)
    m = _load_matrix(args.matrix)
    print(f"{norm_ui(g, m):.15g}")
    return 0


def _project(kind: str, g, p, m):
    if kind == "mazur":
        nrm = norm_ui(convexify(g, p), m)
    elif kind == "entropy-min":
        nrm = trace_norm(m)
    else:  # mazur-inv, gmap: the base-gauge sphere
        nrm = norm_ui(g, m)
    if nrm <= 0.0:
        raise ZeroMatrix("cannot project the zero matrix onto a sphere")
    return m / nrm


def _cmd_map(args) -> int:
    _check_p(args.p)
    g = parse_gauge(args.gauge)
    m = _load_matrix(args.matrix)
    kind = args.kind
    if kind in ("mazur", "mazur-inv"):
        if args.p is None:
            raise ConfigError(f"map kind {kind!r} requires --p")
        params = MazurParams(g, args.p)
    if args.project:
        m = _project(kind, g, args.p, m)

    report: EntropyMinReport | None = None
    if kind == "mazur":
        result = mazur_forward(params, m)
    elif kind == "mazur-inv":
        result = mazur_inverse(params, m)
    elif kind == "entropy-min":
        try:
            _eigh_psd(m)
        except NotPositive:
            result = entropy_min_general(g, m)
        else:
            tn = trace_norm(m)
            if abs(tn - 1.0) > 1e-9:
                raise NotUnitTraceNorm(f"input must have unit trace norm, got {tn!r}")
            report = entropy_min_mat(g, m / tn)
            result = report.minimizer
    else:  # gmap
        result = norming_state(g, m)

    manifest = RunManifest(
        command=f"spectral-mazur map {kind}",
        config={
            "gauge": args.gauge,
            "p": args.p,
            "project": bool(args.project),
        },
        input_paths=(args.matrix,),
        output_path=args.out,
        version=__version__,
        timestamp=_timestamp(args),
    )
    artifact = {"manifest": manifest.to_dict(), "matrix": matrix_to_json(result)}
    if report is not None:
        rep = report.to_json()
        rep.pop("minimizer", None)
        artifact["report"] = rep
    text = dumps_json(artifact)
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    if args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    cfg = _build_config(args)
    if args.suite == "all":
        names = SUITE_NAMES
    elif args.suite in SUITE_NAMES:
        names = (args.suite,)
    else:
        raise ConfigError(f"unknown suite {args.suite!r}; choose from {list(SUITE_NAMES)} or 'all'")
    out_dir = args.out or "reports"

    failed = False
    for name in names:
        report = run_inequality_suite(name, cfg, threads=args.threads)
        path = str(Path(out_dir) / f"{name}.report.json")
        _write_text(path, dumps_json(report.to_json()))
        status = "PASS" if report.passed else "FAIL"
        print(
            f"{name}: {status} cases={report.cases_run} "
            f"violations={len(report.violations)} worst_ratio={report.worst_ratio:.12g}"
        )
        failed = failed or not report.passed
    manifest = RunManifest(
        command=f"spectral-mazur verify {args.suite}",
        config=cfg.to_json(),
        input_paths=tuple([args.config] if args.config else []),
        output_path=out_dir,
        version=__version__,
        timestamp=_timestamp(args),
    )
    _write_text(str(Path(out_dir) / "manifest.json"), dumps_json(manifest.to_dict()))
    return 1 if failed else 0


def _cmd_modulus(args) -> int:
    _check_p(args.p)
    cfg = _build_config(args)
    g = parse_gauge(args.gauge)
    profile = estimate_modulus(args.map, cfg, g, p=args.p)
    base = args.out or "modulus"
    manifest = RunManifest(
        command=f"spectral-mazur modulus {args.map}",
        config={
            "gauge": args.gauge,
            "p": args.p,
            "seed": cfg.seed,
            "dims": list(cfg.dims),
            "samples_per_case": cfg.samples_per_case,
            "rel_tol": cfg.rel_tol,
            "abs_tol": cfg.abs_tol,
        },
        input_paths=(),
        output_path=base,
        version=__version__,
        timestamp=_timestamp(args),
    )
    _write_text(f"{base}.json", dumps_json({"manifest": manifest.to_dict(), "profile": profile.to_json()}))
    manifest_line = json.dumps(manifest.to_dict(), ensure_ascii=False)
    _write_text(f"{base}.csv", f"# manifest: {manifest_line}\n{profile.to_csv()}")
    print(f"{args.map}: bound_violations={profile.bound_violations} wrote {base}.json {base}.csv")
    return 1 if profile.bound_violations else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        if args.subcommand == "norm":
            return _cmd_norm(args)
        if args.subcommand == "map":
            return _cmd_map(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
        return _cmd_modulus(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc.name}: {exc}", file=sys.stderr)
        return 4
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
