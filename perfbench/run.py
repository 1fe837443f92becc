"""End-to-end benchmark of ``python -m repro.bench``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gap_profiles --seed 1 \\
        --seconds 36 --trace 0

Every workload runs the experiment CLI the way a user does: fresh
``python -m repro.bench`` processes with ``--jobs 1``, the default kernel
thread count, and a fresh benchmark-owned ``REPRO_CACHE_DIR`` under
``.bench_build/``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of ``perfbench/tracer.py`` plus the
tracing overhead.  Every command's output is checked against the digests
in ``perfbench/digests.json``.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

The surrogate graphs are fixed by the generator seeds in
``repro/datasets/catalog.py``, so ``--seed`` is recorded but cannot vary
the inputs yet: every seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DIGESTS = HERE / "digests.json"
#: the benchmark's declaration: metric names and their units.
SPEC = ROOT / "BENCHMARK.json"

#: a whole run must end well inside the 180 s the benchmark is allowed.
RUN_BUDGET_S = 165.0
#: least number of set-up + sample rounds of an untraced run.
MIN_ROUNDS = 3

#: one surrogate per family: road, delaunay, social, web, affiliation,
#: random.
GAP_DATASETS = (
    "euroroad", "delaunay_n11", "hamster_small", "google_plus",
    "twitter_lists", "vsp",
)
#: web, road and social-community inputs of the large set.
APP_DATASETS = ("livemocha", "ca_roadnet", "orkut")
QUICK_DATASETS = ("euroroad",)

#: scheme lists of repro.bench.experiments (FIG9_SCHEMES, FIG11_SCHEMES).
FIG9_SCHEMES = ("grappolo", "rcm", "natural", "degree_sort")
FIG11_SCHEMES = FIG9_SCHEMES + ("metis", "rabbit")
PAPER_SCHEME_COUNT = 11


def declared_units(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric section of ``BENCHMARK.json``."""
    spec = json.loads(SPEC.read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


@dataclass(frozen=True)
class Workload:
    """One workload: set-up commands, then timed commands."""

    name: str
    setup: tuple[str, ...]
    timed: tuple[str, ...]
    datasets: tuple[str, ...]
    #: timed commands start on an empty ordering store (graphs kept).
    fresh_orderings: bool
    #: ``--schemes`` passed to the set-up command, if any.
    setup_schemes: tuple[str, ...] = ()

    def cells(self, experiment: str) -> int:
        """Grid cells per dataset of one experiment of this workload."""
        return {
            "table1": 1,
            "fig4": len(self.setup_schemes),
            "fig5": PAPER_SCHEME_COUNT,
            "fig6a": PAPER_SCHEME_COUNT,
            "fig9": len(FIG9_SCHEMES),
            "fig11": len(FIG11_SCHEMES),
        }[experiment]


WORKLOADS = {
    "gap_profiles": Workload(
        "gap_profiles", setup=("table1",), timed=("fig5", "fig6a"),
        datasets=GAP_DATASETS, fresh_orderings=True,
    ),
    "community": Workload(
        "community", setup=("fig4",), timed=("fig9",),
        datasets=APP_DATASETS, fresh_orderings=False,
        setup_schemes=FIG9_SCHEMES,
    ),
    "influence": Workload(
        "influence", setup=("fig4",), timed=("fig11",),
        datasets=APP_DATASETS, fresh_orderings=False,
        setup_schemes=FIG11_SCHEMES,
    ),
}

_STAMP = re.compile(r" \(\d+(?:\.\d+)?s\)(?= ==$)", re.MULTILINE)
_NAN = re.compile(r"\bnan\b", re.IGNORECASE)


def strip_stamps(stdout: str) -> str:
    """Drop the ``(N.Ns)`` timing stamps of the experiment headers."""
    return _STAMP.sub("", stdout)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def command_args(
    workload: Workload, experiment: str, datasets: tuple[str, ...]
) -> list[str]:
    """The ``python -m repro.bench`` arguments of one command."""
    args = [experiment, "--jobs", "1", "--datasets", ",".join(datasets)]
    if experiment in workload.setup and workload.setup_schemes:
        args += ["--schemes", ",".join(workload.setup_schemes)]
    return args


@dataclass
class Outcome:
    """One finished command."""

    args: list[str]
    status: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    spans: dict | None = None

    @property
    def key(self) -> str:
        return " ".join(self.args)


def failed_cells(
    outcome: Outcome, cells: int, expected: str | None
) -> tuple[int, str]:
    """``(failed cells, reason)`` of one command's output check.

    A non-zero exit or an output that differs from the recorded digest
    fails every cell of the command; NaN cells are counted one by one.
    """
    if outcome.status != 0:
        return cells, f"exit status {outcome.status}"
    stripped = strip_stamps(outcome.stdout)
    nans = len(_NAN.findall(stripped))
    if nans:
        return min(cells, nans), f"{nans} NaN cell(s)"
    if expected is None:
        return cells, "no recorded digest"
    if digest(stripped) != expected:
        return cells, "output differs from the recorded digest"
    return 0, ""


def store_digest(cache: Path) -> str:
    """Digest of every cached permutation (and its cost) in a store."""
    import numpy as np

    root = cache / "orderings"
    parts = []
    for path in sorted(root.rglob("*.npz")):
        with np.load(path, allow_pickle=False) as bundle:
            perm = np.ascontiguousarray(bundle["permutation"], np.int64)
            parts.append(
                f"{path.relative_to(root)}:{int(bundle['cost'])}:"
                f"{hashlib.sha256(perm.tobytes()).hexdigest()}"
            )
    return digest("\n".join(parts))


class Runner:
    """Launches the benchmark's child processes under one deadline."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self._serial = 0

    def env(self, cache: Path | None) -> dict[str, str]:
        env = {
            k: v for k, v in os.environ.items()
            if not k.startswith(("REPRO_", "PYTHON"))
        }
        env["PYTHONPATH"] = str(ROOT / "src")
        env["XDG_CACHE_HOME"] = str(BUILD / "xdg")
        if cache is not None:
            env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def run(
        self, argv: list[str], cache: Path | None, *, traced: bool = False
    ) -> Outcome:
        """Run ``python -m repro.bench ARGS`` (or its traced twin)."""
        self._serial += 1
        out_path = self.work / f"cmd{self._serial}.out"
        err_path = self.work / f"cmd{self._serial}.err"
        span_path = self.work / f"cmd{self._serial}.spans.json"
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"),
                   "--out", str(span_path), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "repro.bench", *argv]
        env = self.env(cache)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time budget exhausted")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            env["PERFBENCH_LAUNCH_NS"] = str(time.time_ns())
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, stdout=out, stderr=err, env=env, cwd=ROOT
            )
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        outcome = Outcome(
            args=list(argv),
            status=proc.returncode,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_text(encoding="utf-8", errors="replace"),
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )
        if traced and proc.returncode == 0:
            outcome.spans = json.loads(span_path.read_text())
        return outcome

    def fresh_dir(self, label: str) -> Path:
        self._serial += 1
        path = self.work / f"{label}{self._serial}"
        path.mkdir(parents=True)
        return path


@dataclass
class Tally:
    """Attempted/failed grid cells and the first few failure reasons."""

    workload: Workload
    datasets: tuple[str, ...]
    expected: dict[str, str]
    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    observed: dict[str, str] = field(default_factory=dict)

    def _reason(self, text: str) -> None:
        if len(self.reasons) < 5:
            self.reasons.append(text)

    def count(self, outcomes: list[Outcome], mismatches=()) -> None:
        """Count the cells of one set-up or sample.

        Each command's cells pass or fail on its own output check; a
        failed whole-sample check (``mismatches``) fails every cell of
        the sample.
        """
        cells = bad = 0
        for outcome in outcomes:
            n = self.workload.cells(outcome.args[0]) * len(self.datasets)
            failed, reason = failed_cells(
                outcome, n, self.expected.get(outcome.key)
            )
            self.observed[outcome.key] = digest(strip_stamps(outcome.stdout))
            cells += n
            bad += failed
            if failed:
                tail = outcome.stderr.strip().splitlines()[-1:] or [""]
                self._reason(f"{outcome.key}: {reason} {tail[0]}")
        if mismatches:
            bad = cells
            for label in mismatches:
                self._reason(f"{label} differ")
        self.attempted += cells
        self.failed += bad

    def sample(self, outcomes, store: str, reference=None) -> None:
        """Count one timed sample and check its cached permutations.

        ``reference`` is the untraced ``(outcomes, store)`` a traced
        sample must reproduce.
        """
        key = "orderings " + ",".join(self.datasets)
        self.observed[key] = store
        mismatches = []
        if store != self.expected.get(key):
            mismatches.append(f"{key}: cached permutations")
        if reference is not None:
            plain, plain_store = reference
            for a, b in zip(plain, outcomes):
                if strip_stamps(a.stdout) != strip_stamps(b.stdout):
                    mismatches.append(f"{b.key}: traced and untraced outputs")
            if store != plain_store:
                mismatches.append("traced and untraced cached permutations")
        self.count(outcomes, mismatches)


def _copy_cache(src: Path, dst: Path, *, graphs_only: bool) -> None:
    if graphs_only:
        shutil.copytree(src / "graphs", dst / "graphs")
    else:
        shutil.copytree(src, dst, dirs_exist_ok=True)


def run_setup(runner, tally, workload, datasets) -> tuple[float, Path]:
    """Fill a fresh cache; returns (wall seconds, cache dir)."""
    cache = runner.fresh_dir("setup")
    outcomes = [
        runner.run(command_args(workload, experiment, datasets), cache)
        for experiment in workload.setup
    ]
    tally.count(outcomes)
    return sum(o.wall_s for o in outcomes), cache


def run_sample(runner, workload, datasets, warm, *, traced=False):
    """One timed pass over the workload's commands on a copy of ``warm``.

    Returns the outcomes and the digest of the store they left.
    """
    cache = runner.fresh_dir("sample")
    _copy_cache(warm, cache, graphs_only=workload.fresh_orderings)
    outcomes = [
        runner.run(command_args(workload, experiment, datasets), cache,
                   traced=traced)
        for experiment in workload.timed
    ]
    store = store_digest(cache)
    shutil.rmtree(cache)
    return outcomes, store


def _samples(values: list[float]) -> str:
    """Sample count, quartiles and the values themselves, for the log."""
    listed = " ".join(f"{v:.4f}" for v in values)
    if len(values) < 2:
        return f"n=1 [{listed}]"
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} [{listed}]"


PROBE = (
    "import json, platform, numpy\n"
    "from repro._native import build_info_all\n"
    "from repro._native.core import native_threads\n"
    "info = build_info_all()\n"
    "print(json.dumps({'python': platform.python_version(),"
    " 'numpy': numpy.__version__, 'kernel_threads': native_threads(),"
    " 'kernels': {k: {'tier': 'native' if v['available'] else"
    " 'fallback: ' + str(v['fallback']), 'compiler':"
    " v.get('compiler_version')} for k, v in info.items()}}))\n"
)


def provenance(runner: Runner, workload: Workload, datasets, seed) -> dict:
    """Host, toolchain and configuration of this run (compiles kernels)."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=runner.env(None), cwd=ROOT,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed: {proc.stderr.strip()[-500:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compilers = sorted({
        k["compiler"] for k in probe["kernels"].values() if k["compiler"]
    })
    return {
        "workload": workload.name,
        "seed": seed,
        "datasets": list(datasets),
        "commands": [
            "python -m repro.bench " + " ".join(
                command_args(workload, e, datasets))
            for e in workload.setup + workload.timed
        ],
        "jobs": 1,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "compiler": compilers,
        "kernel_threads": probe["kernel_threads"],
        "kernel_tiers": {k: v["tier"] for k, v in probe["kernels"].items()},
        "repro_env": {
            k: v.replace(f"{ROOT}{os.sep}", "")
            for k, v in runner.env(runner.work / "<cache>").items()
            if k.startswith("REPRO_")
        },
    }


def measure(args, workload: Workload, datasets, runner: Runner) -> dict:
    """Run the workload; the result object (last stdout line)."""
    expected = {}
    if DIGESTS.is_file():
        expected = json.loads(DIGESTS.read_text()).get(workload.name, {})
    tally = Tally(workload, datasets, expected)
    metrics: dict[str, float] = {}
    # An untraced run sets up afresh before every sample, so that its
    # set-ups are spread over the run as its samples are; a traced run
    # sets up once.
    min_rounds = 1 if args.trace or args.quick else MIN_ROUNDS
    setup_times = []
    warm = None
    start = time.monotonic()
    longest = 0.0
    plain: list[list[Outcome]] = []
    traced: list[list[Outcome]] = []

    def another_round() -> bool:
        if not plain:
            return True
        now = time.monotonic()
        if args.quick or now + longest * 1.5 >= runner.deadline:
            return False
        return (len(plain) < min_rounds
                or now - start + longest / 2 < args.seconds)

    while another_round():
        t0 = time.monotonic()
        if warm is None or not args.trace:
            if warm is not None:
                shutil.rmtree(warm)
            seconds, warm = run_setup(runner, tally, workload, datasets)
            setup_times.append(seconds)
        outcomes, store = run_sample(runner, workload, datasets, warm)
        tally.sample(outcomes, store)
        plain.append(outcomes)
        if args.trace:
            outcomes_t, store_t = run_sample(
                runner, workload, datasets, warm, traced=True
            )
            tally.sample(outcomes_t, store_t, reference=(outcomes, store))
            traced.append(outcomes_t)
        longest = max(longest, time.monotonic() - t0)
    shutil.rmtree(warm)

    walls = [sum(o.wall_s for o in s) for s in plain]
    if not args.trace:
        metrics["run_s"] = statistics.median(walls)
        metrics["cpu_s"] = statistics.median(
            [sum(o.cpu_s for o in s) for s in plain]
        )
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = statistics.median(
            [max(o.rss_mb for o in s) for s in plain]
        )
        metrics["ok_frac"] = 1.0 - tally.failed / max(1, tally.attempted)
        units = declared_units("end_to_end")
        print(f"run_s samples: {_samples(walls)}")
        print(f"setup_s samples: {_samples(setup_times)}")
        print(f"failed_frac = {tally.failed}/{tally.attempted} cells")
    else:
        import tracer

        per_sample = []
        for sample in traced:
            if any(o.spans is None for o in sample):
                continue
            per_sample.append(tracer.summarize(
                [o.spans for o in sample], sum(o.wall_s for o in sample)
            ))
        if not per_sample:
            tally.failed += 1
            tally.reasons.append("no traced sample completed")
            per_sample.append(tracer.summarize([], 0.0))
        for name in tracer.METRICS:
            values = [s.get(name, 0.0) for s in per_sample]
            metrics[name] = statistics.median(values)
        metrics["trace.untraced_run_s"] = statistics.median(walls)
        metrics["trace.overhead_pct"] = (
            100.0 * (metrics["trace.run_s"] / metrics["trace.untraced_run_s"]
                     - 1.0)
        )
        units = declared_units("per_layer")
    for reason in tally.reasons:
        print(f"FAILED {reason}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    if args.record_digests:
        recorded = {}
        if DIGESTS.is_file():
            recorded = json.loads(DIGESTS.read_text())
        recorded.setdefault(workload.name, {}).update(tally.observed)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="one tiny input, one set-up and one sample (self-test)",
    )
    parser.add_argument(
        "--record-digests", action="store_true",
        help="write the observed output digests to perfbench/digests.json",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "bench" / "__main__.py").is_file():
        print("perfbench: no repro source tree next to perfbench/",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    datasets = QUICK_DATASETS if args.quick else workload.datasets
    deadline = time.monotonic() + RUN_BUDGET_S
    work = BUILD / "perfbench" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, deadline)
    try:
        print("provenance " + json.dumps(
            provenance(runner, workload, datasets, args.seed),
            sort_keys=True,
        ))
        result = measure(args, workload, datasets, runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
