"""Command line interface.

Subcommands: analyze | mask | spectrum | eval | verify | report.
Exit codes: 0 pass, 1 property failure, 2 config error, 3 non-isotropic
matrix, 4 mask pole at a digit point; an out-of-memory exits 2 too.  All
outputs are deterministic for a fixed config, seed, numpy/BLAS build and
BLAS thread count, at any CPU count; files are written atomically.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import cascade, digits, ioutils, matana, properties, spectral, trigpoly
from .errors import (ConfigError, MaskPoleAtDigit, NotExpanding, NotIsotropic,
                     NumericalBreakdown, SingularMatrix)

EXIT_OK = 0
EXIT_PROPERTY_FAILURE = 1
EXIT_CONFIG = 2
EXIT_NOT_ISOTROPIC = 3
EXIT_MASK_POLE = 4


@dataclass
class JobConfig:
    matrix: list
    m: int = 1
    J: int = 5
    grid_n: int = 128
    tol: float = 1e-9
    out: str | None = None
    seed: int = 0

    def validate(self):
        M = self.matrix
        if not M or any(len(row) != len(M) for row in M):
            raise ConfigError("matrix must be square")
        if not all(-2 ** 63 <= v < 2 ** 63 for row in M for v in row):
            raise ConfigError("matrix entries must fit in int64")
        for name in ("m", "J", "grid_n", "seed"):
            if type(getattr(self, name)) is not int:  # bools are rejected too
                raise ConfigError(f"{name} must be an integer")
        if type(self.tol) not in (int, float):  # bools are rejected too
            raise ConfigError("tol must be a real number")
        for failed, message in (
                (self.m < 1, "m must be >= 1"),
                (self.J < 0, "J must be >= 0"),
                # An int tol must fit a double too; NaN fails both comparisons.
                (not 0 < self.tol <= sys.float_info.max, "tol must be finite and > 0"),
                (self.grid_n < 32, "grid_n must be >= 32"),
                (self.seed < 0, "seed must be >= 0"),
                (self.out is not None and not isinstance(self.out, str), "out must be a string")):
            if failed:
                raise ConfigError(message)


def parse_matrix(text: str) -> list:
    try:
        return [[int(v) for v in row.split(",")] for row in text.strip().split(";")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse matrix {text!r}: {exc}") from exc


def load_config(path: str | None, args) -> JobConfig:
    """Strict config: file first, flags override, unknown keys rejected."""
    allowed = {f.name for f in fields(JobConfig)}
    data = {}
    if path is not None:
        with open(path) as fh:
            raw = json.load(fh)
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data.update(raw)
    if args.matrix is not None:
        data["matrix"] = parse_matrix(args.matrix)
    for name in ("m", "J", "grid_n", "tol", "out", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            data[name] = val
    if "matrix" not in data:
        raise ConfigError("no matrix given (use --matrix or a config file)")
    cfg = JobConfig(**data)
    cfg.validate()
    return cfg


def _emit(cfg: JobConfig, code: int, outputs: list) -> int:
    """Write each (file name, text) of `outputs` to --out, or print it; return `code`."""
    for name, text in outputs:
        if cfg.out:
            ioutils.atomic_write(os.path.join(cfg.out, name), text)
        else:
            sys.stdout.write(text)
    return code


def _profile(cfg: JobConfig) -> spectral.SpectralProfile:
    return spectral.make_profile(cfg.matrix, m=cfg.m, tol=cfg.tol)


def _profile_and_B(cfg: JobConfig):
    """The profile and its B at --grid-n, once level J is known to fit."""
    profile = _profile(cfg)
    # An oversize level is rejected before any grid, the B grid included.
    cascade.grid_bounds(profile.A, profile.refinement[1], cfg.J)
    return profile, spectral.estimate_B(profile, cfg.grid_n)


# Each command returns (exit code, [(file name, text), ...]); main writes them.

def cmd_analyze(cfg: JobConfig):
    A = matana.validate_dilation(cfg.matrix)
    cert = matana.certify_isotropy(A)
    if not cert.isotropic:
        doc = {"matrix": cfg.matrix, "isotropic": False,
               "failure_reason": cert.failure_reason}
        return EXIT_NOT_ISOTROPIC, [("analyze.json", ioutils.emit_json(doc))]
    qf = cert.witness
    op = matana.orthogonal_part(A, qf)
    doc = {
        "matrix": cfg.matrix,
        "d": A.d,
        "q": A.q,
        "isotropic": True,
        "Q2": [[float(v) for v in row] for row in qf.Q2],
        "degenerate_solution_space": qf.degenerate,
        "U": [[float(v) for v in row] for row in op.U],
        "digits_A": digits.digits_to_json(digits.digit_set(A.entries)),
        "digits_AT": digits.digits_to_json(digits.digit_set(A.entries.T)),
    }
    return EXIT_OK, [("analyze.json", ioutils.emit_json(doc))]


def cmd_mask(cfg: JobConfig, profile: spectral.SpectralProfile):
    mask = profile.mask
    cosine = trigpoly.render_cosine(mask)
    doc = {
        "matrix": cfg.matrix,
        "m": cfg.m,
        "coefficients": trigpoly.mask_to_json(mask),
        "cosine_form": cosine,
    }
    outputs = [("mask.json", ioutils.emit_json(doc))]
    if cfg.out:
        outputs.append(("mask.txt", cosine + "\n"))
    return EXIT_OK, outputs


def cmd_spectrum(cfg: JobConfig, profile: spectral.SpectralProfile, B: float,
                 dump_csv: bool = False):
    doc = spectral.spectrum_report(profile, B, cfg.grid_n)
    doc = {"matrix": cfg.matrix, "m": cfg.m, **doc}
    outputs = [("spectrum.json", ioutils.emit_json(doc))]
    if dump_csv and cfg.out:
        n = min(cfg.grid_n, 64)
        axes = [np.linspace(-2 * math.pi, 2 * math.pi, n) for _ in range(profile.d)]
        pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, profile.d)
        head = "# " + ",".join(f"xi_{i + 1}" for i in range(profile.d))
        outputs.append(("mu.csv", ioutils.field_csv(pts, spectral.mu(profile, pts), head + ",mu")))
        outputs.append(("phi_hat.csv", ioutils.field_csv(pts, spectral.phi_hat(profile, pts),
                                                         head + ",phi_hat")))
    return EXIT_OK, outputs


def cmd_eval(cfg: JobConfig):
    profile = _profile(cfg)
    grid = cascade.sample_phi(profile.A, *profile.refinement, cfg.J)
    return EXIT_OK, [("grid.csv", ioutils.grid_csv(grid))]


def cmd_verify(cfg: JobConfig, profile: spectral.SpectralProfile, B: float):
    report = properties.run_all(profile, B, cfg.J, cfg.seed)
    doc = {"seed": cfg.seed, "J": cfg.J, **report.to_json()}
    code = EXIT_OK if report.passed else EXIT_PROPERTY_FAILURE
    return code, [("verify.json", ioutils.emit_json(doc))]


def cmd_report(cfg: JobConfig):
    """analyze, mask, spectrum and verify on one profile and one B.

    All four documents are computed before main writes the first, so an
    error in any of them leaves no output behind.  A matrix with no profile
    gets its analyze.json, then the error that stopped the profile.
    """
    try:
        profile, B = _profile_and_B(cfg)
    except (NotIsotropic, MaskPoleAtDigit, NumericalBreakdown):
        _emit(cfg, *cmd_analyze(cfg))
        raise
    results = [cmd_analyze(cfg), cmd_mask(cfg, profile), cmd_spectrum(cfg, profile, B),
               cmd_verify(cfg, profile, B)]
    return max(code for code, _ in results), [o for _, outputs in results for o in outputs]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ellipsf",
        description="Elliptic scaling functions: masks, spectra, lattice values, verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "mask", "spectrum", "eval", "verify", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--matrix", type=str, default=None,
                       help='integer rows, e.g. "1,-1;1,1"')
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--J", type=int, default=None)
        p.add_argument("--grid-n", dest="grid_n", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        if name == "spectrum":
            p.add_argument("--csv", action="store_true")
    return parser


def _join_matrix_values(argv: list) -> list:
    """Spell each "--matrix VALUE" as "--matrix=VALUE".

    argparse takes a value that starts with "-", as in "-1,1;-1,-1", for an
    option and reports --matrix as missing its argument; joined, it parses.
    """
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok == "--matrix" else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_join_matrix_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = load_config(args.config, args)
    except (ConfigError, OSError, json.JSONDecodeError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "analyze":
            result = cmd_analyze(cfg)
        elif args.command == "mask":
            result = cmd_mask(cfg, _profile(cfg))
        elif args.command == "spectrum":
            profile = _profile(cfg)
            result = cmd_spectrum(cfg, profile, spectral.estimate_B(profile, cfg.grid_n),
                                  dump_csv=args.csv)
        elif args.command == "eval":
            result = cmd_eval(cfg)
        elif args.command == "verify":
            result = cmd_verify(cfg, *_profile_and_B(cfg))
        else:
            result = cmd_report(cfg)
        return _emit(cfg, *result)
    except NotIsotropic as exc:
        print(f"not isotropic: {exc}", file=sys.stderr)
        return EXIT_NOT_ISOTROPIC
    except MaskPoleAtDigit as exc:
        print(f"mask pole: {exc}", file=sys.stderr)
        return EXIT_MASK_POLE
    except NumericalBreakdown as exc:
        print(f"numerical breakdown: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SingularMatrix, NotExpanding, ValueError) as exc:
        print(f"invalid matrix: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
