"""Command-line front end emitting CSV/JSON artifacts for all constructions.

Outputs are deterministic: identical configuration yields byte-identical
files.  Tables and profiles are written straight to their destination in
slices of ``CHUNK_ROWS`` rows, so the memory an output takes beyond its
arrays does not grow with the row count.  Exit codes: 0 success,
2 configuration errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import astuple, dataclass
from typing import Optional

import numpy as np

from . import godunov, keyfitz_kranzer as kk, triangular, variation
from .errors import ConfigError, NumericsError
from .families import cell_profile, family_profile, make_packet, power_law_family, shock_cell_family
from .flux import Decay, power_law_flux
from .source import parse_alpha
from .waves import riemann_shock, speed_bound

SCHEMA = 1
# Arguments that argparse reads as numbers rather than options.  Its own
# pattern takes only -\d+ and -\d*\.\d+, which leaves "-1e5" to be read
# as an option.  Infinities and NaN match too, and _finite_float refuses them.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

# rows formatted and written at a time by the CSV and profile JSON writers
CHUNK_ROWS = 1024


@dataclass(frozen=True)
class RunConfig:
    command: str
    options: dict
    out: Optional[str]
    format: str


def _finite_float(text: str) -> float:
    """argparse type for float options: rejects nan and inf (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _order(text: str) -> float:
    """argparse type for a fractional order s, which must lie in (0, 1]."""
    value = _finite_float(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"order must lie in (0, 1], got {text!r}")
    return value


def _int_at_least(minimum: int, what: str):
    """argparse type for integer counts of at least ``minimum`` (exit 2 otherwise)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return parse


_positive_int = _int_at_least(1, "a positive integer")
_sample_count = _int_at_least(2, "an integer >= 2")


def _open_out(out: Optional[str]):
    """The file ``out``, opened for writing, or stdout (left open) when None."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w", newline="")


def _write_text(out: Optional[str], text: str) -> None:
    with _open_out(out) as fh:
        fh.write(text)


def _row_slices(columns):
    """The columns, as arrays, ``CHUNK_ROWS`` rows at a time."""
    columns = [np.asarray(column) for column in columns]
    rows = len(columns[0]) if columns else 0
    for lo in range(0, rows, CHUNK_ROWS):
        yield [column[lo : lo + CHUNK_ROWS] for column in columns]


def _write_csv(out: Optional[str], header, columns) -> None:
    """CSV, one column per sequence, one line per row; every cell is the repr of its value."""
    _write_csv_slices(out, header, _row_slices(columns))


def _write_csv_slices(out: Optional[str], header, slices) -> None:
    """:func:`_write_csv` of the columns that ``slices`` yields, a few rows at a time.

    Slices are converted with ``tolist()``, so numpy floats print as the
    shortest repr that round-trips and integers print plainly.
    """
    with _open_out(out) as fh:
        fh.write(",".join(header) + "\n")
        for columns in slices:
            cells = [map(repr, column.tolist()) for column in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_text(payload: dict) -> str:
    payload = {"schema": SCHEMA, **payload}
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _write_profile_json(out: Optional[str], xs: np.ndarray, us: np.ndarray) -> None:
    """The bytes of ``_json_text({"x": xs.tolist(), "u": us.tolist()})``,
    written in row slices: one value per line, keys in sorted order."""
    if not (np.isfinite(xs).all() and np.isfinite(us).all()):
        raise NumericsError("Out of range float values are not JSON compliant")
    with _open_out(out) as fh:
        fh.write(f'{{\n  "schema": {SCHEMA},\n')
        for key, values, end in (("u", us, ","), ("x", xs, "")):
            fh.write(f'  "{key}": [')
            lead = "\n    "
            for (column,) in _row_slices([values]):
                fh.write(lead + ",\n    ".join(map(repr, column.tolist())))
                lead = ",\n    "
            fh.write(("\n  ]" if values.size else "]") + end + "\n")
        fh.write("}\n")


def _cmd_riemann(cfg: RunConfig) -> int:
    o = cfg.options
    source = parse_alpha(o["alpha"])
    flux = power_law_flux(o["p"], M=max(abs(o["wl"]), abs(o["wr"]), 1e-12))
    position, left, right = riemann_shock(flux, source, o["wl"], o["wr"], o["x0"], o["t"])
    _write_text(cfg.out, _json_text({"position": position, "left": left, "right": right}))
    return 0


def _build_family(o: dict):
    source = parse_alpha(o["alpha"])
    if o["kind"] == "powerlaw":
        return power_law_family(o["p"], source, o["N"])
    flux = power_law_flux(o["p"], M=1.0, decay=Decay(q=o["p"], C=1.0, r=1.0))
    return shock_cell_family(flux, source, o["t0"], o["N"])


def _cells(o: dict):
    """(flux, (7, n) cell columns, exact profile as a function of t) of the packet or family ``o["kind"]``."""
    if o["kind"] == "packet":
        source = parse_alpha(o["alpha"])
        flux = power_law_flux(o["p"], M=o["delta"])
        packet = make_packet(flux, source, o["center"], o["dx"], o["delta"])
        return flux, np.array([astuple(packet)]).T, functools.partial(cell_profile, packet, flux, source)
    family = _build_family(o)
    return family.flux, family.columns, functools.partial(family_profile, family)


def _cmd_profile(cfg: RunConfig) -> int:
    o = cfg.options
    _, _, profile = _cells(o)
    sampled = variation.sample_profile(profile(o["t"]), fan_points=o["samples"])
    if cfg.format == "csv":
        _write_csv(cfg.out, ["x", "u"], [sampled.xs, sampled.vs])
    else:
        _write_profile_json(cfg.out, sampled.xs, sampled.vs)
    return 0


def _cmd_assp(cfg: RunConfig) -> int:
    o = cfg.options
    family = _build_family({**o, "kind": "assp"})
    cells = [
        {"n": c.index, "A": c.A, "B": c.B, "a": c.a, "b": c.b, "tau": c.tau}
        for c in family.cells
    ]
    _write_text(cfg.out, _json_text({"t0": family.t0, "n0": family.n0, "cells": cells}))
    return 0


def _cmd_variation(cfg: RunConfig) -> int:
    o = cfg.options
    sampled = variation.load_profile_csv(o["input"])
    report = variation.p_variation(sampled, 1.0 / o["s"])
    _write_text(
        cfg.out,
        _json_text(
            {
                "s": o["s"],
                "p": report.p,
                "value": report.value,
                "subdivision": list(report.subdivision),
            }
        ),
    )
    return 0


def _cmd_diverge(cfg: RunConfig) -> int:
    o = cfg.options
    family = _build_family(o)
    rows = variation.family_variation_lower_bounds(family, o["t"], o["s"], o["N"])
    _write_csv(cfg.out, ["n", "bound", "cumulative"], zip(*rows))
    return 0


def _cells_at_zero(columns, xs):
    """Initial data of the cell columns at ``xs``: a on [A, tau), b on [tau, B], zero elsewhere."""
    _, A, B, a, b, tau, _ = columns
    i = np.searchsorted(A, xs, side="right") - 1  # the supports are disjoint and in order
    out = np.where(xs < tau[i], a[i], np.where(xs <= B[i], b[i], 0.0))
    return np.where(i >= 0, out, 0.0)


def _cmd_oracle(cfg: RunConfig) -> int:
    o = cfg.options
    source = parse_alpha(o["alpha"])
    if o["init"] == "riemann":
        flux = power_law_flux(o["p"], M=max(abs(o["wl"]), abs(o["wr"])))
        top = speed_bound(flux, source, o["t"])
        span = top * o["t"] * 2.0 + 1.0
        domain = (o["x0"] - span, o["x0"] + span)

        def initial(xs):
            return np.where(xs < o["x0"], o["wl"], o["wr"])

        def exact(xs, t):
            pos, left, right = riemann_shock(flux, source, o["wl"], o["wr"], o["x0"], t)
            return np.where(xs < pos, left, right)

    else:
        packet = o["init"] == "packet"
        flux, columns, profile = _cells({**o, "kind": "packet" if packet else "powerlaw"})
        _, A, B, *_ = columns
        lo, hi = float(A[0]), float(B[-1])
        pad = 0.5 * o["dx"] if packet else 0.1 * (hi - lo)
        domain = (lo - pad, hi + pad)
        initial = functools.partial(_cells_at_zero, columns)

        def exact(xs, t):
            return profile(t).evaluate(xs)

    run = godunov.MeshRun(
        domain=domain, cells=o["cells"], cfl=o["cfl"], t_end=o["t"], snapshots=(o["t"],)
    )
    centers = run.centers()
    # Riemann data is nonzero at the boundary, so the zero-exterior ghost
    # state launches waves inward; compare outside their physical cone plus
    # the first-order diffusive tail.  Compact-support inits never touch the
    # boundary, so the whole domain is clean.
    if o["init"] == "riemann":
        reach = top * o["t"] + 10.0 * math.sqrt(run.dx * max(top, 1e-12) * o["t"]) + 8.0 * run.dx
        if domain[0] + reach >= domain[1] - reach:
            raise NumericsError(
                f"empty comparison window: the boundary waves reach {reach} into the "
                f"domain {list(domain)}; use more cells"
            )
    else:
        reach = 0.0
    # the reference first, so data whose reference cannot be built is
    # refused before the solve rather than after it
    reference = exact(centers, o["t"])
    [(t_snap, u)] = godunov.godunov_solve(flux, source, initial(centers), run)
    window = (centers >= domain[0] + reach) & (centers <= domain[1] - reach)
    errors = [
        {
            "t": t_snap,
            "l1_error": godunov.l1_distance(u[window], reference[window], run.dx),
            "window": [float(domain[0] + reach), float(domain[1] - reach)],
        }
    ]
    _write_csv(cfg.out, ["t", "x", "u"], [np.full(run.cells, t_snap), centers, u])
    if cfg.out is not None:
        sys.stdout.write(_json_text({"errors": errors}))
    return 0


def _cmd_triangular(cfg: RunConfig) -> int:
    o = cfg.options
    setup = triangular.TriangularSetup(p=o["p"], T=o["T"], N=o["N"])
    sums = {}
    for s_prime in o["sprime"]:
        sums[repr(float(s_prime))] = triangular.transported_variation_sums(setup, o["t"], s_prime, o["N"])
    payload = {
        "t": o["t"],
        "divergence_sums": sums,
        "expected_per_term": {k: 2.0 ** (1.0 / float(k)) for k in sums},
        "continuity_defect": triangular.continuity_defect(setup, max(o["t"], 1e-3)),
        "hyperbolicity_gap": setup.strict_hyperbolicity_gap(),
    }
    _write_text(cfg.out, _json_text(payload))
    return 0


def _grid_slices(centers, eta, omega, rows):
    """Columns x, y, eta, wx, wy of the dense grid, ``CHUNK_ROWS`` rows at a time.

    Rows run over x within each y, as the grid is indexed [iy, ix].  Each
    slice is cut from the distinct rows ``eta`` and ``omega`` and the grid
    row index ``rows`` as it is written, so the res^2 columns are never
    built whole.
    """
    cells = centers.size * centers.size
    for lo in range(0, cells, CHUNK_ROWS):
        iy, ix = np.divmod(np.arange(lo, min(lo + CHUNK_ROWS, cells)), centers.size)
        distinct = rows[iy]
        yield [centers[ix], centers[iy], eta[distinct, ix], omega[distinct, ix, 0], omega[distinct, ix, 1]]


def _cmd_kk(cfg: RunConfig) -> int:
    o = cfg.options
    setup = kk.KKSetup(p=o["p"], delta=o["delta"], n=o["n"], i_max=o["imax"])
    payload = {
        "sup_distance_bound": setup.sup_distance_bound(),
        "jump_sum_10": kk.jump_sum_lower_bound(setup, o["t"], 10),
        "jump_sum_N": kk.jump_sum_lower_bound(setup, o["t"], o["Ni"]),
        "M": setup.M,
    }
    try:
        eta, omega, rows = kk.build_initial_data(setup, o["res"])
        u0 = eta[..., None] * omega
        box = (-2 * setup.M, 2 * setup.M, -2 * setup.M, 2 * setup.M)
        b_vec = np.asarray(setup.b, dtype=float)
        payload["bv_norm_u0_minus_b"] = kk.bv_grid_norm(u0 - b_vec, rows, box)
        payload["sup_distance"] = float(
            np.max(np.sqrt(np.sum((u0 - b_vec) ** 2, axis=-1)))
        )
        if o["grid_out"]:
            centers, _ = kk.grid_axes(setup, o["res"])
            slices = _grid_slices(centers, eta, omega, rows)
            _write_csv_slices(o["grid_out"], ["x", "y", "eta", "wx", "wy"], slices)
    except ValueError as exc:
        payload["grid"] = f"unresolved: {exc}"
    _write_text(cfg.out, _json_text(payload))
    return 0


def _cmd_bound(cfg: RunConfig) -> int:
    o = cfg.options
    source = parse_alpha(o["alpha"])
    flux = power_law_flux(o["p"], M=o["M"])
    value = variation.smoothing_upper_bound(flux, source, o["t"], o["a"], o["b"], o["T"])
    _write_text(cfg.out, _json_text({"value": value}))
    return 0


_COMMANDS = {
    "packet": _cmd_profile,
    "riemann": _cmd_riemann,
    "family": _cmd_profile,
    "assp": _cmd_assp,
    "variation": _cmd_variation,
    "diverge": _cmd_diverge,
    "oracle": _cmd_oracle,
    "triangular": _cmd_triangular,
    "kk": _cmd_kk,
    "bound": _cmd_bound,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbv",
        description="Exact balance-law solutions and fractional variation diagnostics",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default: stdout)")
    # only the profile commands, packet and family, have a choice of format
    profile = argparse.ArgumentParser(add_help=False, parents=[common])
    profile.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("packet", parents=[profile], help="single antisymmetric packet profile", description=(
        "Profile of +delta on [center - dx, center), -delta on [center, center + dx]: the two-state cell a = -b = delta."
    ))
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--dx", type=_finite_float, required=True)
    sp.add_argument("--delta", type=_finite_float, required=True)
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--samples", type=_sample_count, default=64, help="samples per fan region")
    sp.add_argument("--center", type=_finite_float, default=0.0)
    sp.set_defaults(kind="packet")  # for _cells; not an option

    sp = sub.add_parser("riemann", parents=[common], help="single shock position and states")
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--wl", type=_finite_float, required=True)
    sp.add_argument("--wr", type=_finite_float, required=True)
    sp.add_argument("--x0", type=_finite_float, default=0.0)
    sp.add_argument("--t", type=_finite_float, required=True)

    sp = sub.add_parser("family", parents=[profile], help="truncated counterexample family profile")
    sp.add_argument("--kind", choices=("powerlaw", "assp"), default="powerlaw")
    sp.add_argument("--p", "--q", dest="p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--N", type=_positive_int, required=True)
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--t0", type=_finite_float, default=1.0)
    sp.add_argument("--samples", type=_sample_count, default=64)

    sp = sub.add_parser("assp", parents=[common], help="two-state cell table (JSON)")
    sp.add_argument("--q", "--p", dest="p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--t0", type=_finite_float, default=1.0)
    sp.add_argument("--N", type=_positive_int, required=True)

    sp = sub.add_parser("variation", parents=[common], help="fractional variation of a CSV profile")
    sp.add_argument("--s", type=_order, required=True)
    sp.add_argument("--input", required=True)

    sp = sub.add_parser("diverge", parents=[common], help="per-packet lower bounds and partial sums")
    sp.add_argument("--kind", choices=("powerlaw", "assp"), default="powerlaw", dest="kind")
    sp.add_argument("--p", "--q", dest="p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--s", type=_order, required=True)
    sp.add_argument("--N", type=_positive_int, required=True)
    sp.add_argument("--t", type=_finite_float, default=1.0)
    sp.add_argument("--t0", type=_finite_float, default=1.0)

    sp = sub.add_parser("oracle", parents=[common], help="finite-volume run with error table")
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--init", choices=("riemann", "packet", "family"), required=True)
    sp.add_argument("--cells", type=int, required=True)
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--cfl", type=_finite_float, default=0.45)
    sp.add_argument("--wl", type=_finite_float, default=1.0)
    sp.add_argument("--wr", type=_finite_float, default=-1.0)
    sp.add_argument("--x0", type=_finite_float, default=0.0)
    sp.add_argument("--dx", type=_finite_float, default=0.1)
    sp.add_argument("--delta", type=_finite_float, default=0.5)
    sp.add_argument("--center", type=_finite_float, default=0.0)
    sp.add_argument("--N", type=_positive_int, default=4)

    sp = sub.add_parser("triangular", parents=[common], help="transport divergence diagnostics")
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--T", type=_finite_float, required=True)
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--sprime", type=_finite_float, nargs="+", required=True)
    sp.add_argument("--dt-log2", dest="dt_log2", type=int, default=10, help="ignored: the characteristic flow is exact")

    sp = sub.add_parser("kk", parents=[common], help="planar direction-oscillation diagnostics")
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--delta", type=_finite_float, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--res", type=_positive_int, required=True, help=(
        "grid cells across [-2M, 2M]; the grid and its BV norm take O(k res) memory for k distinct rows, "
        "so the least resolved res at imax 4 (32256 at p = 2, delta = 0.1) runs in under 100 MiB"
    ))
    sp.add_argument("--imax", type=int, default=None)
    sp.add_argument("--Ni", type=int, default=1000)
    sp.add_argument("--grid-out", dest="grid_out", default=None)

    sp = sub.add_parser("bound", parents=[common], help="analytic variation upper bound")
    sp.add_argument("--p", type=_finite_float, required=True)
    sp.add_argument("--alpha", default="zero")
    sp.add_argument("--t", type=_finite_float, required=True)
    sp.add_argument("--a", type=_finite_float, required=True)
    sp.add_argument("--b", type=_finite_float, required=True)
    sp.add_argument("--T", type=_finite_float, required=True)
    sp.add_argument("--M", type=_finite_float, default=1.0)

    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def dispatch(config: RunConfig) -> int:
    """Run the named command; exit 0 on success, 2 config error, 3 numerics."""
    handler = _COMMANDS.get(config.command)
    if handler is None:
        sys.stderr.write(_json_text({"error": f"unknown command {config.command!r}"}))
        return 2
    try:
        return handler(config)
    except ConfigError as exc:
        sys.stderr.write(_json_text({"error": str(exc), "kind": "config"}))
        return 2
    except (NumericsError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(_json_text({"error": str(exc), "kind": "numerical"}))
        return 3


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run the command; return its exit code.

    The argument parser is built on the first call and reused by every later
    call in the process: parsing reads it and never changes it, so each call
    behaves as in a fresh process.  Rejected arguments raise SystemExit(2)
    from argparse.
    """
    options = vars(_parser().parse_args(argv))
    command, out, fmt = options.pop("command"), options.pop("out"), options.pop("format", "csv")
    if command == "kk" and options.get("imax") is None:
        options["imax"] = max(options["n"], 4)
    config = RunConfig(command=command, options=options, out=out, format=fmt)
    return dispatch(config)


if __name__ == "__main__":
    sys.exit(main())
