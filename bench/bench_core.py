"""Shared pieces of the benchmark: timed program calls, checks, the round loop.

A *check* is one verification a user of ``fracbv`` would run: a few calls
into the program's public entry points, then a verification of their
outputs against a computation made apart from the program.  Only the
program calls are timed (``Env.cli`` and ``Env.call``); everything else in
a check is verification and runs outside the timed span.

The host's vCPUs change speed by up to a factor of two within minutes, so
the end-to-end times are reported at a fixed host speed: between checks the
benchmark times ``reference_s``, a fixed task that touches no ``fracbv``
code, and scales each check's time by ``REFERENCE_S`` over the mean of the
reference times just before and just after it.

Nothing here imports ``fracbv`` at module level: ``load_program`` puts the
checkout's ``src`` first on ``sys.path`` and refuses any other copy.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Sequence

import numpy as np

from bench_trace import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# what ``reference_s`` takes on an unloaded vCPU of the host the bounds were
# set on (2.1 GHz); a time scaled by REFERENCE_S / reference_s() reads in
# seconds of that host at that speed
REFERENCE_S = 0.030
SETUP_REFERENCES = 5  # reference runs that scale one process's set-up time
_REFERENCE_DATA = np.random.default_rng(0).standard_normal(100_000)
_REFERENCE_BUFFERS = (np.empty(100_000), np.empty(99_999))


class CheckFailed(Exception):
    """A verification of the program's outputs did not hold."""


class ProgramError(Exception):
    """The program exited with a non-zero code or raised."""


class KnownFault(CheckFailed):
    """A verification failed in the one way a fault named in ``CHANGES.md`` makes it fail.

    Raised only where a check tests for that fault's exact symptom; it is
    counted in ``failed`` but does not make the run incorrect.  Any other
    failure of the same check still does.
    """


def reference_s() -> float:
    """Wall time of a fixed task, interpreter loop and numpy, that calls no ``fracbv`` code.

    The numpy part allocates nothing: with temporaries, its time followed
    the allocator's state that the checks before it left behind (50 % slower
    in ``oracle`` than in ``systems``), not the host's speed.
    """
    data, (work, diffs) = _REFERENCE_DATA, _REFERENCE_BUFFERS
    start = time.perf_counter()
    acc = 0.0
    for k in range(200_000):
        acc += k * 0.5
    for _ in range(20):
        np.copyto(work, data)
        work.sort()
        np.subtract(work[1:], work[:-1], out=diffs)
        np.abs(diffs, out=diffs)
        acc += float(diffs.sum())
    return time.perf_counter() - start


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def require_close(got: float, want: float, rel: float, what: str, abs_tol: float = 0.0) -> None:
    tol = rel * abs(want) + abs_tol
    require(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{what}: got {got!r}, want {want!r} (tolerance {tol:.3g})",
    )


def load_program():
    """Import ``fracbv`` from this checkout's ``src``; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "fracbv" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import fracbv
    import fracbv.cli

    if Path(fracbv.__file__).resolve().parent != (src / "fracbv").resolve():
        raise SystemExit(f"error: imported fracbv from {fracbv.__file__}, not {src}")
    return fracbv


# --------------------------------------------------------------------------
# The source coefficient alpha, computed apart from fracbv.source


@dataclass(frozen=True)
class Alpha:
    """alpha(t) as a right-continuous step function; the last piece is unbounded."""

    breakpoints: tuple
    values: tuple

    @classmethod
    def zero(cls) -> "Alpha":
        return cls((0.0,), (0.0,))

    def spec(self) -> str:
        """The ``--alpha`` argument of the CLI."""
        if len(self.values) == 1:
            return "zero" if self.values[0] == 0.0 else f"constant:{self.values[0]!r}"
        return "pw:" + ",".join(f"{b!r}:{v!r}" for b, v in zip(self.breakpoints, self.values))

    def _pieces(self):
        rights = self.breakpoints[1:] + (math.inf,)
        return zip(self.breakpoints, self.values, rights)

    def B(self, t: float) -> float:
        return sum(v * (min(t, r) - l) for l, v, r in self._pieces() if t > l)

    def max_B(self, t: float) -> float:
        return max([0.0, self.B(t)] + [self.B(b) for b in self.breakpoints if b < t])

    def G(self, p: float, t: float) -> float:
        """integral of exp(p B) over [0, t], exact on each piece."""
        total = 0.0
        for l, v, r in self._pieces():
            if t <= l:
                break
            span = min(t, r) - l
            base = math.exp(p * self.B(l))
            total += base * span if v == 0.0 else base * math.expm1(p * v * span) / (p * v)
        return total

    def G_limit(self, p: float) -> float:
        last = self.breakpoints[-1]
        if self.values[-1] >= 0.0:
            return math.inf
        return self.G(p, last) + math.exp(p * self.B(last)) / (p * -self.values[-1])

    def G_inverse(self, p: float, target: float) -> float:
        """The t with G(p, t) = target, by bisection on the increasing G."""
        if not target < self.G_limit(p):
            raise ValueError("target effective time is never reached")
        lo, hi = 0.0, 1.0
        while self.G(p, hi) < target:
            lo, hi = hi, 2.0 * hi
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if self.G(p, mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def draw_alpha(rng: np.random.Generator, kind: str, p: float, reach: float, pieces: int = 3) -> Alpha:
    """alpha of one kind whose effective time G_p passes ``reach`` with room to spare.

    'zero'; 'constant', a negative constant; 'piecewise', ``pieces`` pieces
    with breakpoints in (0.1, 0.9) * reach.  The kind and the number of
    pieces are fixed by the caller, because the cost of every source
    primitive grows with the number of pieces.
    """
    if kind == "zero":
        return Alpha.zero()
    if kind == "constant":
        return Alpha((0.0,), (-float(rng.uniform(0.1, 0.6)) * min(1.0, 1.0 / (1.5 * p * reach)),))
    while True:
        cuts = np.sort(rng.uniform(0.1, 0.9, size=pieces - 1)) * reach
        values = rng.uniform(-0.8, 0.5, size=pieces)
        alpha = Alpha((0.0,) + tuple(float(c) for c in cuts), tuple(float(v) for v in values))
        if alpha.G_limit(p) > 1.5 * reach:
            return alpha


# --------------------------------------------------------------------------
# The power-law family geometry (half-widths, centres, amplitudes), own copy


def packet_width(n):
    n = np.asarray(n, dtype=float)
    return 1.0 / (n * np.log(n + 1.0) ** 2)


def packet_amplitude(n, p: float):
    n = np.asarray(n, dtype=float)
    return (n * np.log(n + 1.0) ** 3) ** (-1.0 / p)


def packet_centers(N: int) -> np.ndarray:
    w = packet_width(np.arange(1, N + 1))
    before = np.concatenate(([0.0], np.cumsum(w)[:-1]))
    return 4.0 * before + 2.0 * w


# --------------------------------------------------------------------------
# Reading outputs


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def subdivision_sum(vs: np.ndarray, subdivision: Sequence[int], p: float) -> float:
    idx = np.asarray(subdivision, dtype=np.int64)
    return float(np.sum(np.abs(np.diff(vs[idx])) ** p))


# --------------------------------------------------------------------------
# Checks and the environment they run in


@dataclass(frozen=True)
class Check:
    """One check: ``run(env)`` makes the timed calls and raises on a failed verification."""

    kind: str
    run: Callable


@dataclass
class Record:
    kind: str
    seconds: float
    ok: bool
    known_fault: bool
    message: str = ""
    reference_s: float = math.nan  # mean of ``reference_s()`` just before and just after the check

    @property
    def scaled_s(self) -> float:
        return self.seconds * REFERENCE_S / self.reference_s


class Env:
    """Times program calls and owns the scratch directory checks write into."""

    def __init__(self, program, workdir: Path, tracer=None):
        self.program = program
        self.workdir = workdir
        self.tracer = tracer
        self.timed = 0.0
        self.check_id = -1

    def path(self, name: str) -> Path:
        return self.workdir / name

    def call(self, fn, *args, **kwargs):
        """A timed call into the program."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin(self.check_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.timed += time.perf_counter() - start
            if tracer is not None:
                tracer.end()

    def cli(self, *argv) -> str:
        """A timed in-process ``fracbv`` invocation; returns what it wrote to stdout."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()

        def invoke():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    return self.program.cli.main(argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    return exc.code

        code = self.call(invoke)
        if self.tracer is not None:
            written = sum(
                Path(argv[i + 1]).stat().st_size
                for i, a in enumerate(argv[:-1])
                if a in ("--out", "--grid-out") and Path(argv[i + 1]).exists()
            )
            self.tracer.count("cli.bytes_out", written + len(out.getvalue()) + len(err.getvalue()))
        if code != 0:
            raise ProgramError(f"fracbv {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def run_check(self, check: Check, check_id: int) -> Record:
        self.timed = 0.0
        self.check_id = check_id
        try:
            check.run(self)
        except (CheckFailed, ProgramError) as exc:
            return Record(check.kind, self.timed, False, isinstance(exc, KnownFault), str(exc))
        except Exception as exc:  # the program raised: the check failed, the run goes on
            return Record(check.kind, self.timed, False, False, f"{type(exc).__name__}: {exc}")
        return Record(check.kind, self.timed, True, False)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(
    module,
    seed: int,
    seconds: float,
    trace: bool,
    spawned_at: float,
    smoke: bool = False,
    setup_only: bool = False,
) -> dict:
    """Set up, warm up, then run whole rounds of checks until ``seconds`` have passed.

    Round ``r`` draws its inputs from ``default_rng([seed, r])``; every round
    holds the same checks in the same order.  The smoke mode runs one round.
    """
    program = load_program()
    tracer = Tracer(program) if trace else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        env = Env(program, workdir, tracer)
        checks = module.round_checks(program, np.random.default_rng([seed, 0]), smoke)
        env.run_check(checks[0], -1)  # untimed warm-up
        reference_s()  # warm-up
        setup_wall_s = time.monotonic() - spawned_at
        references = [reference_s() for _ in range(SETUP_REFERENCES)]
        setup_s = setup_wall_s * REFERENCE_S / statistics.median(references)
        if setup_only:
            return {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
        before = references[-1]
        records: List[Record] = []
        start = time.monotonic()
        rounds = 0
        while True:
            if rounds:
                checks = module.round_checks(program, np.random.default_rng([seed, rounds]), smoke)
            for check in checks:
                record = env.run_check(check, len(records))
                after = reference_s()
                record.reference_s = 0.5 * (before + after)
                before = after
                records.append(record)
            rounds += 1
            if smoke or time.monotonic() - start >= seconds:
                break
        result = summarize(records, rounds, setup_s)
        result["setup_wall_s"] = setup_wall_s
        if tracer is not None:
            result["layers"] = tracer.metrics(rounds)
            tracer.save(OUT_DIR / f"spans-{module.NAME}-{seed}.npz")
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def summarize(records: List[Record], rounds: int, setup_s: float) -> dict:
    """The metrics of a run; times at the reference speed, and as measured under ``wall``."""
    scaled = [r.scaled_s for r in records]
    wall = [r.seconds for r in records]
    return {
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "correct": all(r.ok for r in records if not r.known_fault),
        "rounds": rounds,
        "setup_s": setup_s,
        "checks_per_s": len(records) / sum(scaled),
        "check_p50_s": statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb(),
        "wall": {
            "checks_per_s": len(records) / sum(wall),
            "check_p50_s": statistics.median(wall),
            "reference_p50_s": statistics.median(r.reference_s for r in records),
        },
        "failures": sorted({f"{r.kind}: {r.message}" for r in records if not r.ok}),
        "by_kind": {
            kind: statistics.median(r.scaled_s for r in records if r.kind == kind)
            for kind in dict.fromkeys(r.kind for r in records)
        },
    }
