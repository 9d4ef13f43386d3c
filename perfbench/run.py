#!/usr/bin/env python3
"""migrec benchmark: seeded synthetic corpora through extract, years and eval.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload noisy --seed 3 --seconds 30 --trace 0

One client runs one command at a time (a closed loop) on a corpus that
``migrec.synth`` generates from ``--seed``: ``cmd_extract`` with one worker
and with one worker per CPU, ``cmd_years`` and ``cmd_eval``, repeated for
``--seconds`` seconds.  After every command the run checks that serial and
parallel records are byte-identical and that every output hashes as it
did the first time; records and page years are scored against the
generator's gold.  ``--trace 1`` instead runs serial passes alternately
untraced and traced (see ``tracing.py``) and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the output hashes, the machine and the sample counts.  Corpora are
written under ``.perfbench_work/`` in the checkout and removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up is repeated and its median reported, so one slow write does not
# decide the figure.
SETUP_REPEATS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("extract_serial.openings_per_s", "1/s"),
    ("extract_parallel.openings_per_s", "1/s"),
    ("years.openings_per_s", "1/s"),
    ("eval.openings_per_s", "1/s"),
    ("extract.peak_rss_mb", "MB"),
    ("completed_share", "share"),
    ("records.exact_share", "share"),
    ("records.parish_share", "share"),
    ("years.page_share", "share"),
)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_revision() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


class Runner:
    """Runs the commands on one corpus and collects times, failures and problems."""

    def __init__(self, corpus, out_dir: Path, workers: int) -> None:
        from migrec import cli

        self.cli = cli
        self.corpus = corpus
        self.workers = workers
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] | None = None
        out_dir.mkdir(parents=True, exist_ok=True)
        self.records = str(out_dir / "records_w1.jsonl")
        self.parallel_records = str(out_dir / f"records_w{workers}.jsonl")
        self.years = str(out_dir / "years.csv")
        self.eval_dir = str(out_dir / "eval")

    def _timed(self, name: str, call) -> float:
        """Run one command; returns its wall time and tallies its failures."""
        gc.collect()
        self.attempted += self.corpus.openings
        start = perf_counter()
        try:
            code = call()
        except Exception as exc:  # a command that raises fails every opening
            self.failed += self.corpus.openings
            self.problems.append(f"{name} raised {type(exc).__name__}: {exc}")
            return perf_counter() - start
        elapsed = perf_counter() - start
        if code != self.cli.EXIT_OK:
            self.problems.append(f"{name} exited with {code}")
        return elapsed

    def extract(self, workers: int) -> float:
        out = self.records if workers == 1 else self.parallel_records
        summary = out + ".summary.json"
        Path(summary).unlink(missing_ok=True)
        elapsed = self._timed(
            f"extract/{workers}",
            lambda: self.cli.cmd_extract(
                self.corpus.paths["observed"], out, self.corpus.options,
                workers=workers, records_format="jsonl", summary_path=summary,
            ),
        )
        if Path(summary).exists():
            failures = json.loads(Path(summary).read_text(encoding="utf-8"))["failures"]
            # _timed counted a clean exit; failed openings come from the summary
            self.failed += len(failures)
        return elapsed

    def years_cmd(self) -> float:
        return self._timed(
            "years",
            lambda: self.cli.cmd_years(self.corpus.paths["observed"], self.years, self.corpus.options.chrono),
        )

    def eval_cmd(self) -> float:
        return self._timed(
            "eval",
            lambda: self.cli.cmd_eval(self.corpus.paths["observed"], self.corpus.paths["gold"], self.eval_dir),
        )

    def check_outputs(self, label: str, parallel: bool) -> None:
        """Serial and parallel records byte-identical; hashes as first seen."""
        from scoring import output_hashes, sha256_file

        try:
            hashes = output_hashes(self.records, self.years, self.eval_dir)
            if parallel and sha256_file(self.parallel_records) != hashes["records"]:
                self.problems.append(f"{label}: serial and parallel records differ")
        except OSError as exc:
            self.problems.append(f"{label}: missing output ({exc})")
            return
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            changed = sorted(k for k in hashes if hashes[k] != self.hashes.get(k))
            self.problems.append(f"{label}: outputs changed between passes: {changed}")

    def commands(self) -> dict:
        """The timed commands, each returning its wall time."""
        return {
            "extract_serial": lambda: self.extract(1),
            "extract_parallel": lambda: self.extract(self.workers),
            "years": self.years_cmd,
            "eval": self.eval_cmd,
        }


def run_cycle(runner: Runner) -> None:
    for call in runner.commands().values():
        call()
    runner.check_outputs("cycle", parallel=True)


def peak_rss_mb(corpus, out_path: Path) -> float | None:
    """Peak RSS of a fresh process running serial extract on the corpus."""
    done = subprocess.run(
        [sys.executable, str(HERE / "rss_probe.py"), corpus.paths["observed"],
         corpus.paths["schemas"], corpus.paths["gazetteer"], str(out_path)],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    return int(done.stdout.strip().splitlines()[-1]) / 1024.0


def setup(workload, seed: int, work: Path) -> tuple[object, list[float]]:
    from corpora import build_corpus

    times = []
    corpus = None
    for i in range(SETUP_REPEATS):
        target = work / f"corpus{i}"
        start = perf_counter()
        corpus = build_corpus(workload, seed, target)
        times.append(perf_counter() - start)
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(target)
    gc.collect()
    return corpus, times


def warm_up(workload, work: Path, workers: int) -> list[str]:
    """One untimed cycle on a small corpus of another seed block.

    It takes the first-run costs (imports, code paths, pool start, file
    cache) out of the timed cycles without filling any cache with the
    measured corpus.  Returns the problems the cycle found.
    """
    from corpora import build_warmup_corpus

    corpus = build_warmup_corpus(workload, work / "warmup")
    runner = Runner(corpus, work / "warmup_out", workers)
    run_cycle(runner)
    shutil.rmtree(work / "warmup")
    shutil.rmtree(work / "warmup_out")
    return [f"warm-up: {problem}" for problem in runner.problems]


def measure(runner: Runner, seconds: float) -> dict[str, list[float]]:
    """Closed loop for ``seconds``, one command at a time.

    The command with the least busy time so far runs next, so each gets
    about a quarter of the window, spread across all of it: a shared
    machine's speed drifts over seconds, and a command timed in one stretch
    of the window would read only that stretch's speed.  The loop ends when the next
    command, as long as its last run, would overrun the window.
    """
    commands = runner.commands()
    samples: dict[str, list[float]] = {name: [] for name in commands}
    deadline = perf_counter() + seconds
    while True:
        name = min(commands, key=lambda n: sum(samples[n]))
        if samples[name] and perf_counter() + samples[name][-1] > deadline:
            break
        samples[name].append(commands[name]())
        if all(samples.values()):
            runner.check_outputs("loop", parallel=True)
    return samples


def timed_run(workload, seed: int, seconds: float, work: Path, workers: int):
    from scoring import score_record_files, score_years

    corpus, setup_times = setup(workload, seed, work)
    warm_problems = warm_up(workload, work, workers)
    runner = Runner(corpus, work / "out", workers)
    runner.problems += warm_problems
    samples = measure(runner, seconds)
    rss = peak_rss_mb(corpus, work / "rss_records.jsonl")
    if rss is None:
        runner.problems.append("peak RSS probe failed")

    metrics = {"setup_s": statistics.median(setup_times)}
    for name, values in samples.items():
        # openings done over busy time: every stretch of the window counts
        metrics[f"{name}.openings_per_s"] = corpus.openings * len(values) / sum(values)
    metrics["extract.peak_rss_mb"] = rss if rss is not None else float("nan")
    metrics["completed_share"] = 1.0 - runner.failed / runner.attempted
    if runner.hashes is not None:
        metrics.update(score_record_files(runner.records, corpus.paths["records"]))
        metrics["years.page_share"] = score_years(runner.years, corpus.paths["years"])
    if workload.name == "clean":
        # A clean corpus is reproduced field for field (criterion 8) except
        # for years: when a book's first page also mentions the next year,
        # the year DP can resolve the page to it.  years.page_share and
        # records.exact_share report that; everything else must be exact.
        for key in ("records.exact_share_but_year", "records.parish_share"):
            if metrics.get(key) != 1.0:
                runner.problems.append(f"clean corpus scored {key}={metrics.get(key)}")
    info = {"setup_s": setup_times, "seconds": samples}
    units = dict(END_TO_END)
    return runner, {k: (metrics.get(k, float("nan")), units[k]) for k, _ in END_TO_END}, info


def traced_run(workload, seed: int, seconds: float, work: Path, workers: int):
    import tracing

    corpus, _ = setup(workload, seed, work)
    warm_problems = warm_up(workload, work, workers)
    runner = Runner(corpus, work / "out", workers)
    runner.problems += warm_problems
    runner.extract(workers)  # the determinism check needs parallel records once
    untraced: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    layer: list[dict[str, float]] = []
    deadline = perf_counter() + seconds
    while True:
        start = perf_counter()
        for command, run in (("extract", lambda: runner.extract(1)),
                             ("years", runner.years_cmd), ("eval", runner.eval_cmd)):
            untraced.setdefault(command, []).append(run())
        runner.check_outputs("untraced pass", parallel=not layer)
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            runner.extract(1)
            runner.years_cmd()
            runner.eval_cmd()
        runner.check_outputs("traced pass", parallel=False)
        for root, elapsed in tracing.root_durations(tracer).items():
            traced.setdefault(root[len("cmd_"):], []).append(elapsed)
        layer.append(tracing.layer_metrics(tracer))
        if perf_counter() + (perf_counter() - start) > deadline:
            break

    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    for command in untraced:
        metrics[f"trace.overhead_share.{command}"] = (
            statistics.median(traced[command]) / statistics.median(untraced[command]) - 1.0
        )
    units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
    info = {"passes": len(layer), "spans": tracing.span_summary(tracer)}
    return runner, {k: (metrics.get(k, float("nan")), units[k]) for k in units}, info


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "migrec" / "__init__.py").is_file():
        print(f"perfbench: no migrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from corpora import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    quiet = logging.getLogger("migrec")
    quiet.addHandler(logging.NullHandler())
    quiet.propagate = False
    quiet.setLevel(logging.WARNING)

    workers = cpu_count()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=scratch))
    try:
        run = traced_run if args.trace else timed_run
        runner, metrics, info = run(workload, args.seed, args.seconds, work, workers)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = list(runner.problems)
    problems += [f"metric {k} not measured" for k, (v, _) in metrics.items() if v != v]
    if runner.failed:
        problems.append(f"{runner.failed} of {runner.attempted} openings failed")
    provenance = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "openings": workload.openings,
        "books": workload.books,
        "nproc": workers,
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "hashes": runner.hashes,
        "problems": problems,
        **info,
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value if value == value else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
