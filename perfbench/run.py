"""plurican benchmark: cold `python -m plurican` ops in a closed loop.

    python3 perfbench/run.py --workload census|incidence|torsion \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  One client sends one op at a time and waits for it (a closed loop);
the only parallel op is `verify-lemma-ev --workers 2`, which stays within
the 2 cores it is tuned for.

--trace 0 times the workload: passes over the op list repeat until
--seconds have gone by, and every op's output goes through its correctness
gate.  Three cold `import plurican` runs follow each pass (at least nine
in all); `setup_s` is their median.

--trace 1 replays the workload's ops in this process through
`plurican.cli.main`, in rounds of three replays: untraced, with spans
recorded around each layer's public functions (see tracing.py), and
untraced again.  Rounds repeat until --seconds have gone by.  In each round
every per-layer value is the largest per-op total, i.e. the value for the op
that uses that function most, so the counts of a census op appear as they
are for one `verify-lemma-ev`; a layer the workload does not reach reads 0.
`trace.overhead_ratio` is the traced replay's wall time over the mean of the
two untraced ones.  Each metric is the median over the rounds.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "plurican" / "data"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PER_PASS = 3
MIN_SETUP_SAMPLES = 9
IMPORTTIME_SAMPLES = 5
OP_TIMEOUT_S = 60


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """Client for spawn.py, which runs each op and measures it."""

    def __init__(self, work: Path):
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=_env(), text=True)

    def run(self, argv: list[str]) -> tuple[dict, bytes, bytes]:
        out, err = self.work / "stdout", self.work / "stderr"
        req = {"argv": [sys.executable] + argv, "stdout": str(out), "stderr": str(err),
               "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        return res, out.read_bytes(), err.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Gate:
    """Per-op correctness: exit code, checked JSON, and stdout that is
    identical on every pass and, where asked, to another op's stdout."""

    def __init__(self):
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def judge(self, op: workloads.Op, rc: int, stdout: bytes, this_pass: dict) -> None:
        self.attempted += 1
        why = None
        if rc != op.rc:
            why = f"exit code {rc}, expected {op.rc}"
        elif op.name in self.first:
            if stdout != self.first[op.name]:
                why = "stdout differs from the first pass"
        else:
            try:
                out = json.loads(stdout)
                if out.get("schema") != "plurican/1":
                    raise workloads.CheckFailed("schema plurican/1")
                op.check(out)
            except (ValueError, KeyError, TypeError, workloads.CheckFailed) as exc:
                why = f"wrong output: {type(exc).__name__}: {exc}"
            else:
                self.first[op.name] = stdout
        if why is None and op.same_as is not None and stdout != this_pass.get(op.same_as):
            why = f"stdout differs from {op.same_as}"
        this_pass[op.name] = stdout
        if why is not None:
            self.failed += 1
            print(f"FAIL {op.name}: {why}", file=sys.stderr)


def timed_run(ops: list[workloads.Op], seconds: float, work: Path) -> tuple[Gate, dict]:
    gate = Gate()
    launcher = Launcher(work)
    setup: list[float] = []

    def cold_import() -> None:
        res, _, err = launcher.run(["-c", "import plurican"])
        if res["rc"] != 0:
            raise SystemExit(f"import plurican failed: {err.decode(errors='replace')}")
        setup.append(res["wall_s"])

    try:
        passes, walls, rss = [], [], []
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            this_pass: dict[str, bytes] = {}
            pass_walls = []
            for op in ops:
                res, stdout, _ = launcher.run(["-m", "plurican"] + op.argv)
                gate.judge(op, res["rc"], stdout, this_pass)
                pass_walls.append(res["wall_s"])
                rss.append(res["maxrss_kb"])
            passes.append(pass_walls)
            # set-up samples spread over the whole run, between passes
            for _ in range(SETUP_PER_PASS):
                cold_import()
            walls.extend(pass_walls)
        while len(setup) < MIN_SETUP_SAMPLES:
            cold_import()
    finally:
        launcher.close()
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "run_s": (statistics.median(sum(p) for p in passes), "s"),
        "op_p50_s": (statistics.median(walls), "s"),
        "slowest_op_s": (statistics.median(max(p) for p in passes), "s"),
        "peak_rss_mb": (max(rss) / 1024, "MB"),
        "ok_ratio": ((gate.attempted - gate.failed) / gate.attempted, "ratio"),
    }
    detail = {
        "passes": len(passes), "op_samples": len(walls), "setup_samples": len(setup),
        "pass_s": [sum(p) for p in passes], "setup_samples_s": setup,
        "fail_ratio": gate.failed / gate.attempted,
        "op_median_s": {op.name: statistics.median(p[i] for p in passes)
                        for i, op in enumerate(ops)},
    }
    return gate, {"metrics": metrics, "detail": detail}


def import_times() -> tuple[float, float]:
    """Median cumulative import time of plurican and of numpy, from -X importtime."""
    totals, numpys = [], []
    for _ in range(IMPORTTIME_SAMPLES):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plurican"],
                             env=_env(), capture_output=True, text=True, check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                cumulative[m.group(2)] = int(m.group(1)) / 1e6
        totals.append(cumulative["plurican"])
        numpys.append(cumulative.get("numpy", 0.0))
    return statistics.median(totals), statistics.median(numpys)


def replay(ops, gate: Gate, tracer=None, first_op: int = 0) -> tuple[float, list[int]]:
    """Run every op through plurican.cli.main in this process; return the
    wall time and the stdout size of each op.  The tracer, if any, numbers
    the ops from `first_op`."""
    import plurican.cli

    this_pass: dict[str, bytes] = {}
    sizes, total = [], 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = first_op + i
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            # looked up on every call, since Tracer.install rebinds it
            rc = plurican.cli.main(op.argv)
        total += time.perf_counter() - t0
        stdout = buf.getvalue().encode()
        gate.judge(op, rc, stdout, this_pass)
        sizes.append(len(stdout))
    return total, sizes


TIME_KEYS = (
    "cli.self_s", "pool.filter_deterministic.busy_s", "f2geom.self_s",
    "evenclass.enumerate_totally_even.busy_s", "evenclass.classify_type.busy_s",
    "evenclass.verify_lemma_ev.self_s", "glgroup.enumerate_gl.busy_s",
    "glgroup.point_permutation.busy_s", "glgroup.act.busy_s", "glgroup.orbit_census.self_s",
    "glgroup.burnside_orbit_count.self_s", "arrangements.load_arrangement.busy_s",
    "arrangements.compute_incidences.busy_s", "arrangements.check_campedelli.busy_s",
    "torsion.from_table.busy_s", "torsion.from_matrix.busy_s", "torsion.orbit_count.busy_s",
    "invariants.busy_s")
COUNT_KEYS = (
    "pool.filter_deterministic.items", "evenclass.enumerate_totally_even.candidates",
    "evenclass.enumerate_totally_even.kept", "evenclass.classify_type.calls",
    "glgroup.enumerate_gl.candidates", "glgroup.enumerate_gl.kept",
    "glgroup.point_permutation.calls", "glgroup.act.calls",
    "glgroup.burnside_orbit_count.images", "arrangements.compute_incidences.pairs",
    "arrangements.compute_incidences.points", "torsion.from_table.entries",
    "torsion.orbit_count.elements", "torsion.orbit_count.applications")


def layer_metrics(per_op: dict, op_ids: range) -> dict:
    """Per-layer metrics of one traced replay: each is the largest total of
    one op among `op_ids`, and 0 where no op of the workload reaches it."""
    def top(key: str) -> float:
        values = per_op.get(key, {})
        return max((values.get(i, 0) for i in op_ids), default=0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {key: (top(key), "s") for key in TIME_KEYS}
    metrics.update({key: (top(key), "bytes") for key in ("cli.bytes_in", "cli.bytes_out")})
    metrics.update({key: (top(key), "count") for key in COUNT_KEYS})
    for fn in ("evenclass.enumerate_totally_even", "glgroup.enumerate_gl"):
        metrics[f"{fn}.keep_ratio"] = (ratio(top(f"{fn}.kept"), top(f"{fn}.candidates")),
                                       "ratio")
    busy = per_op.get("arrangements.compute_incidences.busy_s", {})
    pairs = per_op.get("arrangements.compute_incidences.pairs", {})
    metrics["arrangements.compute_incidences.us_per_pair"] = (
        1e6 * ratio(sum(busy.get(i, 0) for i in op_ids), sum(pairs.get(i, 0) for i in op_ids)),
        "us")
    return metrics


def traced_run(workload: str, seed: int, seconds: float, work: Path) -> tuple[Gate, dict]:
    """Rounds of three in-process replays of the workload (untraced, traced,
    untraced) until `seconds` have gone by; each metric is the median over
    the rounds."""
    import tracing

    ops = workloads.build(workload, seed, work, DATA)
    bytes_in = [sum(Path(a).stat().st_size for a in op.argv if os.path.isabs(a)) for op in ops]
    import_total, import_numpy = import_times()

    sys.path.insert(0, str(SRC))
    gate = Gate()
    tracer = tracing.Tracer()
    rounds, untraced_s, traced_s = [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        first = len(rounds) * len(ops)
        # untraced replays on both sides of the traced one, so that warm-up
        # and drift fall evenly on the overhead ratio
        before, _ = replay(ops, gate)
        tracer.install()
        try:
            traced, sizes = replay(ops, gate, tracer, first)
        finally:
            tracer.uninstall()
        after, _ = replay(ops, gate)
        per_op = tracer.per_op()
        per_op["cli.bytes_out"] = {first + i: n for i, n in enumerate(sizes)}
        per_op["cli.bytes_in"] = {first + i: n for i, n in enumerate(bytes_in)}
        metrics = layer_metrics(per_op, range(first, first + len(ops)))
        untraced_s.append((before + after) / 2)
        traced_s.append(traced)
        metrics["trace.overhead_ratio"] = (traced / untraced_s[-1], "ratio")
        rounds.append(metrics)
    WORK.mkdir(exist_ok=True)
    tracer.write(WORK / f"spans-{workload}-seed{seed}.jsonl.gz",
                 [op.name for op in ops] * len(rounds))

    metrics = {"import.total_s": (import_total, "s"), "import.numpy_s": (import_numpy, "s")}
    for key, (_, unit) in rounds[0].items():
        metrics[key] = (statistics.median(r[key][0] for r in rounds), unit)
    detail = {"ops": len(ops), "rounds": len(rounds), "spans": len(tracer.span_name),
              "untraced_s": untraced_s, "traced_s": traced_s}
    return gate, {"metrics": metrics, "detail": detail}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "plurican" / "__init__.py").is_file():
        print(f"no plurican sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        if args.trace:
            gate, result = traced_run(args.workload, args.seed, args.seconds, work)
        else:
            ops = workloads.build(args.workload, args.seed, work, DATA)
            gate, result = timed_run(ops, args.seconds, work)
    finally:
        shutil.rmtree(work)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **result["detail"]}))
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
