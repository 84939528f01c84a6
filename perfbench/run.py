"""Benchmark of the boardpile CLI.

    python3 perfbench/run.py --workload census --seed 0 --seconds 25 --trace 0

Run from the root of a boardpile checkout; the program is taken from its
src/ directory.  One client drives the CLI as subprocesses, one job at a
time (a closed loop), repeating the workload's job list until --seconds
have passed.  Every output is checked against reference answers computed
beforehand (oracles.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 the job list also runs in-process
through cli.main under the span recorder (tracing.py) and the metrics are
the per-layer ones.  Run metadata goes on the line before the result and,
with the spans, into .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_ARGV = ["enumerate", "--n", "1", "--count-only"]
PROBES_PER_REP = 4
JOB_TIMEOUT_S = 60
IMPORT_PROBES = 5
# The reference computation's time on a quiet host (Python 3.11, x86-64);
# end-to-end times are reported scaled to that speed.  See reference.py.
REFERENCE_NOMINAL_S = 0.35
OUT_DIR = ".perfbench-out"


class SetupFailed(Exception):
    """The CLI cannot run here at all; no result is printed."""


def _tail(data: bytes, limit: int = 300) -> str:
    return data.decode("utf-8", "replace").strip()[-limit:]


class Cli:
    """Runs `python -m boardpile` jobs through the spawner helper."""

    def __init__(self, root: Path, workdir: Path):
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cwd = root
        self.out_path = workdir / "job.out"
        self.err_path = workdir / "job.err"
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=self.env, cwd=self.cwd,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=JOB_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.spawner.kill()
            self.spawner.wait()
        self.spawner.stdout.close()

    def run(self, args: list[str]) -> tuple[float, float, int, bytes, bytes]:
        """(wall_s, peak_rss_mb, exit_code, stdout, stderr) of `python <args>`.

        The peak RSS is the job's own, from its rusage at wait4, not the
        RUSAGE_CHILDREN high-water mark over every child reaped so far.
        """
        request = {
            "argv": [sys.executable, *args],
            "out": str(self.out_path),
            "err": str(self.err_path),
            "timeout": JOB_TIMEOUT_S,
        }
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise SetupFailed(f"spawner helper exited with code {self.spawner.wait()}")
        reply = json.loads(line)
        return (
            reply["wall_s"],
            reply["maxrss_kb"] / 1024,
            reply["exit_code"],
            self.out_path.read_bytes(),
            self.err_path.read_bytes(),
        )

    def job(self, argv: list[str]) -> tuple[float, float, int, bytes, bytes]:
        return self.run(["-m", "boardpile", *argv])

    def setup_probe(self) -> float:
        """Cold start on a job with no work; raises SetupFailed if it fails."""
        wall, _, code, out, err = self.job(SETUP_ARGV)
        if code != 0 or out.strip() != b"1":
            raise SetupFailed(f"`boardpile {' '.join(SETUP_ARGV)}` exited {code}: {_tail(err)}")
        return wall

    def reference(self) -> float:
        """Time of the fixed reference computation (reference.py)."""
        wall, _, code, out, err = self.run([str(Path(__file__).with_name("reference.py"))])
        if code != 0 or not out.strip():
            raise SetupFailed(f"reference computation exited {code}: {_tail(err)}")
        return wall

    def import_time(self) -> float:
        code = (
            "import time; t = time.perf_counter(); import boardpile.cli; "
            "print(time.perf_counter() - t)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], env=self.env, cwd=self.cwd,
            capture_output=True, timeout=JOB_TIMEOUT_S, check=True,
        )
        return float(result.stdout)


class Ledger:
    """Judges every job outcome and keeps the per-job record for metadata."""

    def __init__(self, jobs: list[workloads.Job], root: Path):
        self.verified: dict[str, set[bytes]] = {job.name: set() for job in jobs}
        self.records = {
            job.name: {
                "group": job.group,
                "argv": [_relative(a, root) for a in job.argv],
                "exit_codes": [],
                "problems": [],
            }
            for job in jobs
        }
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def judge(self, job: workloads.Job, code: int, out: bytes, err: bytes) -> bool:
        """True when the job exited 0 with an output that passes its check."""
        self.attempted += 1
        record = self.records[job.name]
        record["exit_codes"].append(code)
        problem = None
        if code != 0:
            problem = f"exit {code}: {_tail(err)}"
        else:
            digest = hashlib.sha256(out).digest()
            if digest not in self.verified[job.name]:
                try:
                    problem = job.check(out)
                except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
                    problem = f"unreadable output: {exc!r}"
                if problem is None:
                    self.verified[job.name].add(digest)
                else:
                    self.wrong += 1
        if problem is None:
            return True
        self.failed += 1
        if problem not in record["problems"]:
            record["problems"].append(problem)
        return False


def _relative(arg: str, root: Path) -> str:
    path = Path(arg)
    return str(path.relative_to(root)) if path.is_absolute() else arg


def run_subprocess_rep(cli: Cli, jobs, ledger: Ledger) -> dict:
    rep = {"wall_s": 0.0, "main_s": 0.0, "side_s": 0.0, "peak_rss_mb": 0.0, "ok": 0,
           "jobs": len(jobs)}
    commands: dict[str, float] = {}
    for job in jobs:
        wall, rss, code, out, err = cli.job(job.argv)
        rep["wall_s"] += wall
        rep[f"{job.group}_s"] += wall
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
        rep["ok"] += ledger.judge(job, code, out, err)
        commands[job.argv[0]] = commands.get(job.argv[0], 0.0) + wall
    rep["commands_s"] = commands
    return rep


def run_traced_rep(tracer: tracing.Tracer, jobs, ledger: Ledger, rep_index: int):
    tracer.reset()
    wall = 0.0
    bytes_in = bytes_out = errors = 0
    for job in jobs:
        tracer.job = f"{rep_index}:{job.name}"
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tracer.call("cli.main", "cli", tracer.package.cli.main, job.argv)
            except Exception:  # an escaped exception is a failed job, like a traceback
                traceback.print_exc()
                code = 1
        wall += time.perf_counter() - start
        data = out.getvalue().encode("utf-8")
        bytes_in += sum(os.path.getsize(p) for p in job.inputs)
        bytes_out += len(data)
        errors += code != 0
        ledger.judge(job, code, data, err.getvalue().encode("utf-8"))
    metrics = tracing.layer_metrics(tracer)
    metrics.update({"cli.bytes_in": bytes_in, "cli.bytes_out": bytes_out, "cli.errors": errors})
    return wall, metrics


def end_to_end_metrics(reps: list[dict], setup: list[list[float]], refs: list[float]) -> dict:
    """Medians over the repetitions, with times scaled to the reference speed.

    Repetition i (its cold starts and its job list) ran between reference
    samples i and i + 1; its times are scaled by REFERENCE_NOMINAL_S over
    the mean of those two samples.
    """
    scales = [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]

    def scaled(key: str) -> float:
        return median([scale * r[key] for scale, r in zip(scales, reps)])

    jobs = sum(r["jobs"] for r in reps)
    return {
        "wall_s": (scaled("wall_s"), "s"),
        "setup_s": (median([scale * t for scale, ts in zip(scales, setup) for t in ts]), "s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in reps]), "MB"),
        "ok_ratio": (sum(r["ok"] for r in reps) / jobs, "ratio"),
        "main_s": (scaled("main_s"), "s"),
        "side_s": (scaled("side_s"), "s"),
    }


def per_layer_metrics(reps: list[dict], traced: list[tuple[float, dict]], cli: Cli) -> dict:
    metrics = {
        name: (median([m[name] for _, m in traced]), unit)
        for name, unit in PER_LAYER_UNITS.items()
        if name not in ("cli.import_s", "trace.overhead_ratio")
    }
    metrics["cli.import_s"] = (median([cli.import_time() for _ in range(IMPORT_PROBES)]), "s")
    untraced_wall = median([r["wall_s"] for r in reps])
    metrics["trace.overhead_ratio"] = (median([w for w, _ in traced]) / untraced_wall, "ratio")
    return metrics


def _git_commit(root: Path) -> str:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import boardpile.cli

    return boardpile


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (result, metadata)."""
    if not (root / "src" / "boardpile" / "__init__.py").is_file():
        raise SetupFailed(f"no boardpile sources under {root / 'src'}")
    workdir = root / OUT_DIR / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    cli = Cli(root, workdir)  # before this process grows: see spawner.py
    try:
        jobs = workloads.build(workload, seed, workdir, tiny=tiny)
        ledger = Ledger(jobs, root)
        cli.setup_probe()  # warm-up: writes the bytecode cache once
        tracer = tracing.Tracer(_import_package(root)) if trace else None
        refs, setup, reps, traced = [cli.reference()], [], [], []
        start = time.perf_counter()
        while True:
            if reps and workload in workloads.RESAMPLED:
                jobs = workloads.build(workload, seed, workdir, tiny=tiny, rep=len(reps))
            setup.append([cli.setup_probe() for _ in range(PROBES_PER_REP)])
            reps.append(run_subprocess_rep(cli, jobs, ledger))
            refs.append(cli.reference())
            if trace:
                tracer.install()
                try:
                    traced.append(run_traced_rep(tracer, jobs, ledger, len(reps)))
                finally:
                    tracer.uninstall()
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / len(reps) >= seconds:
                break
        if trace:
            metrics = per_layer_metrics(reps, traced, cli)
        else:
            metrics = end_to_end_metrics(reps, setup, refs)
        result = {
            "correct": ledger.wrong == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        metadata = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": sys.version,
            "commit": _git_commit(root),
            "nproc": os.cpu_count(),
            "reps": len(reps),
            "setup_samples_s": setup,
            "reference_samples_s": refs,
            "rep_values": reps,
            "traced_walls_s": [wall for wall, _ in traced],
            "fail_ratio": 1 - sum(r["ok"] for r in reps) / sum(r["jobs"] for r in reps),
            "jobs": ledger.records,
        }
        if trace:
            metadata["spans"] = tracer.span_records()
        return result, metadata
    finally:
        cli.close()
        shutil.rmtree(workdir, ignore_errors=True)


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.bytes_in": "bytes",
    "cli.bytes_out": "bytes",
    "cli.errors": "count",
    "graphs.build_s": "s",
    "graphs.build_calls": "count",
    "graphs.edges_built": "count",
    "diffusion.fire_s": "s",
    "diffusion.fire_calls": "count",
    "diffusion.edge_visits": "count",
    "diffusion.edge_visits_per_s": "1/s",
    "diffusion.detect_period_s": "s",
    "diffusion.steps": "count",
    "diffusion.configs_held_peak": "count",
    "diffusion.budget_failures": "count",
    "diffusion.run_s": "s",
    "diffusion.run_steps": "count",
    "diffusion.fire_complete_s": "s",
    "diffusion.fire_complete_calls": "count",
    "diffusion.fire_complete_values": "count",
    "polyomino.enumerate_s": "s",
    "polyomino.yielded": "count",
    "polyomino.yielded_per_s": "1/s",
    "polyomino.reflect_s": "s",
    "polyomino.reflect_calls": "count",
    "polyomino.compositions_s": "s",
    "polyomino.compositions_yielded": "count",
    "bijection.check_fire_reflect_s": "s",
    "bijection.checked": "count",
    "bijection.poly_to_config_s": "s",
    "bijection.poly_to_config_calls": "count",
    "bijection.failures": "count",
    "counting.labelled_s": "s",
    "counting.labelled_terms": "count",
    "counting.recurrence_s": "s",
    "counting.recurrence_terms": "count",
    "counting.gf_s": "s",
    "counting.gf_terms": "count",
    "counting.output_digits": "count",
    "counting.brute_unlabelled_s": "s",
    "counting.brute_scanned": "count",
    "counting.brute_hit_ratio": "ratio",
    "counting.brute_labelled_s": "s",
    "counting.brute_labelled_vectors": "count",
    "counting.brute_labelled_useful_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result, metadata = measure(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except SetupFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    out_file = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"result": result, "metadata": metadata}), encoding="utf-8")
    metadata.pop("spans", None)
    print(json.dumps({"metadata": metadata}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
