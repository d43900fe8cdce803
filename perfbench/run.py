"""Benchmark of the `drinfeld-forge verify` path.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every operation is one child process,
started through the `drinfeld-forge` entry point (`python3 -m
drinfeld_forge.cli`) or, where the CLI has no flag for the input, through
perfbench/child.py on the public API. Each child gets --jobs 1, one BLAS
thread, a wall-clock timeout and an address-space ceiling; an operation
that hits any of them, exits unexpectedly or gives a wrong verdict or
digest is counted as failed and never retried.

--trace 0 prints the end-to-end metrics: verify_s, the wall seconds of one
pass over the workload's operations (median over passes); setup_s, the
wall seconds of a fresh process that imports the package and builds every
instance (median of two probes per pass); peak_rss_mb, the largest
ru_maxrss of any operation. --trace 1 runs the same operations through perfbench/child.py
with a span around every call into a layer and prints the per-layer
metrics. The last line of stdout is the JSON result; perfbench/README.md
says why each workload exists and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ALGEBRAIC = ("jacobi", "closure", "pairing", "reconstruction", "compatibility",
             "selfdual", "forminv", "delta-agree", "cocycle", "cojacobi",
             "subbialg", "coboundary", "cybe", "twist", "chain")
CANONICAL_ONLY = ("delta-agree", "twist")
MIXED = tuple(c for c in ALGEBRAIC if c not in CANONICAL_ONLY)
REPS = ("rep", "casimir")
CUTOFF = 6

# The ROADMAP north-star grid (A7, B5, C5, D6) takes about 117 s for one
# pass of the 15 algebraic checks, and rep,casimir on A4, C4, B5, D6 about
# 28 s; a run has to fit several passes into --seconds. Each grid below
# keeps its series and layers, one or two ranks lower.
GRID = (("A", 4), ("B", 3), ("C", 3), ("D", 4))
FOCK = (("A", 3), ("C", 4), ("B", 4), ("D", 5))
CONTROLS = (("A", 3), ("B", 3), ("C", 3), ("D", 3))

MIN_PASSES = 3
# No operation starts later than LAUNCH_LIMIT_S into a run, and each gets
# the whole OP_TIMEOUT_S, so a run ends within 175 s. A pass starts only if
# its estimate, with half again as margin, ends before LAUNCH_LIMIT_S.
LAUNCH_LIMIT_S = 115.0
OP_TIMEOUT_S = 60.0
PASS_MARGIN = 1.5
MEMORY_LIMIT = 3 << 30
SCALAR_PAIRS = 3000
SCALAR_REPEATS = 5

VERIFIERS = (
    "algebra.verify_jacobi",
    "double.verify_closure",
    "double.verify_pairing",
    "double.verify_reconstruction",
    "double.verify_compatibility",
    "double.verify_self_duality",
    "double.verify_form_invariance",
    "double.verify_casimir_form",
    "bialgebra.verify_delta_agreement",
    "bialgebra.verify_cocycle",
    "bialgebra.verify_cojacobi",
    "bialgebra.verify_subbialgebra",
    "bialgebra.verify_coboundary",
    "bialgebra.verify_cybe",
    "bialgebra.verify_twist",
    "bialgebra.verify_chain_embedding",
    "reps.verify_rep_homomorphism.fermionic",
    "reps.verify_rep_homomorphism.bosonic",
    "reps.verify_casimir_commutes",
    "reps.ad_invariance_report",
)
BUILDERS = (
    "cli.import",
    "algebra.build_series",
    "double.split",
    "double.structure_tensors",
    "bialgebra.cocommutator_from_structure",
    "reps.fermionic_rep",
    "reps.bosonic_rep",
    "serialize.dumps_canonical",
)


def cartan_count(series: str, rank: int) -> int:
    return rank + 1 if series == "A" else rank


def report_count(series: str, checks) -> int:
    """Reports `verify --json` emits: one per check, more for rep/casimir."""
    reps = (series in "ABD") + (series in "AC")
    sizes = {"rep": reps, "casimir": 3 + reps}
    return sum(sizes.get(name, 1) for name in checks)


def mixed_spec(rng: random.Random, series: str, rank: int) -> str:
    """A seeded mixed splitting with as many rotation pairs as fit."""
    n = cartan_count(series, rank)
    picked = rng.sample(range(1, n + 1), 2 * (n // 2))
    pairs = [f"{picked[k]}-{picked[k + 1]}" for k in range(0, len(picked), 2)]
    return "mixed:pairs=" + ",".join(pairs)


# -- operations -------------------------------------------------------------

@dataclass
class Op:
    """One child process of a pass, with the check of its output."""

    op_id: str
    argv: list[str]
    traced_argv: list[str]
    check: Callable[[str], str | None]


@dataclass
class Outcome:
    seconds: float
    rss_kb: int
    error: str | None
    stdout: str = ""
    started: bool = True


def child_argv(mode: str, payload: dict) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), mode,
            json.dumps(payload, sort_keys=True)]


def verify_op(workload, series, rank, spec, checks) -> Op:
    op_id = f"{workload}/{series}{rank}" + ("" if spec == "canonical" else "-mixed")
    cli_argv = ["verify", "--series", series, "--rank", str(rank),
                "--spec", spec, "--checks", ",".join(checks), "--jobs", "1",
                "--cutoff", str(CUTOFF), "--json"]
    argv = [sys.executable, "-m", "drinfeld_forge.cli"] + cli_argv
    payload = {"op": op_id, "argv": cli_argv,
               "structure_tensors": any(c in ALGEBRAIC for c in checks)}
    expected = report_count(series, checks)

    def check(text: str) -> str | None:
        result = json.loads(text)
        if (result["series"], result["rank"]) != (series, rank):
            return "report names another instance"
        if len(result["reports"]) != expected:
            return f"{len(result['reports'])} reports, expected {expected}"
        failing = [r["check"] for r in result["reports"] if not r["pass"]]
        if failing or not result["passed"]:
            return "verdict FAIL on " + ",".join(failing)
        return None

    return Op(op_id, argv, child_argv("verify", payload), check)


def controls_op(series, rank, seed) -> Op:
    op_id = f"controls/{series}{rank}-mutations"
    payload = {"op": op_id, "series": series, "rank": rank, "seed": seed}

    def check(text: str) -> str | None:
        verdicts = json.loads(text)["verdicts"]
        survivors = [f"{v['check']}@{'/'.join(v['position'])}"
                     for v in verdicts if not v["caught"]]
        if len(verdicts) < 12:
            return f"only {len(verdicts)} mutations ran"
        return "mutation survived: " + ", ".join(survivors) if survivors else None

    argv = child_argv("controls", payload)
    return Op(op_id, argv, argv, check)


def workload_ops(name: str, seed: int) -> list[Op]:
    if name == "verify-grid":
        return [verify_op(name, s, r, "canonical", ALGEBRAIC) for s, r in GRID]
    if name == "fock-reps":
        return [verify_op(name, s, r, "canonical", REPS) for s, r in FOCK]
    rng = random.Random(seed)
    ops = []
    for series, rank in CONTROLS:
        ops.append(verify_op(name, series, rank,
                             mixed_spec(rng, series, rank), MIXED))
        ops.append(controls_op(series, rank, seed))
    return ops


def setup_instances(name: str, seed: int) -> list[list]:
    if name == "verify-grid":
        return [[s, r, "canonical"] for s, r in GRID]
    if name == "fock-reps":
        return [[s, r, "canonical"] for s, r in FOCK]
    rng = random.Random(seed)
    out = []
    for series, rank in CONTROLS:
        out.append([series, rank, mixed_spec(rng, series, rank)])
        out.append([series, rank, "canonical"])
    return out


WORKLOADS = ("verify-grid", "fock-reps", "controls")


# -- child processes --------------------------------------------------------

def _limit_child():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv, tag: str, timeout: float) -> Outcome:
    """Run one child to exit; wall time spans launch to reap.

    The harness starts no threads, so preexec_fn is safe; the child is
    reaped with wait4 to read its own ru_maxrss.
    """
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL,
                                preexec_fn=_limit_child)
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            timed_out = not ready
            if timed_out:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            os.close(pidfd)
        seconds = time.perf_counter() - start
    # reaped here, so tell Popen not to wait for it again
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    text = out_path.read_text(encoding="utf-8", errors="replace")
    error = None
    if timed_out:
        error = f"timed out after {timeout:.0f} s"
    elif code < 0:
        error = f"killed by {signal.Signals(-code).name}"
    elif code != 0:
        tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
        error = f"exit code {code}: {' '.join(tail)}"
    return Outcome(seconds, usage.ru_maxrss, error, text)


@dataclass
class Run:
    """Clock, failure tally and the child launcher for one benchmark run."""

    seconds: float
    start: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    tags: int = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def another_pass(self, done: list[float], min_passes: int) -> bool:
        """Whether to start another pass, given the wall seconds of those
        done: always a first one, then while the estimate fits."""
        if not done:
            return True
        estimate = statistics.median(done)
        if self.elapsed() + PASS_MARGIN * estimate > LAUNCH_LIMIT_S:
            return False
        return (len(done) < min_passes
                or self.elapsed() + estimate <= self.seconds)

    def run(self, argv, name: str, check=None) -> Outcome:
        """Launch, check and tally one operation. Past LAUNCH_LIMIT_S it
        is not started, and counts as failed."""
        self.tags += 1
        if self.elapsed() > LAUNCH_LIMIT_S:
            outcome = Outcome(0.0, 0, f"not started: past {LAUNCH_LIMIT_S:.0f} s "
                              "into the run", started=False)
        else:
            outcome = launch(argv, f"{self.tags:04d}", OP_TIMEOUT_S)
        if outcome.error is None and check is not None:
            try:
                outcome.error = check(outcome.stdout)
            except (ValueError, KeyError, TypeError) as exc:
                outcome.error = f"unreadable output: {exc!r}"
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            print(f"FAILED {name}: {outcome.error}", file=sys.stderr)
        return outcome


# -- correctness gates outside the passes -----------------------------------

def load_recorded() -> dict:
    with open(HERE / "digests.json", encoding="ascii") as handle:
        return json.load(handle)


def digest_check(recorded: dict):
    def check(text: str) -> str | None:
        result = json.loads(text)
        bad = [key for key, code in result["codes"].items() if code != 0]
        bad += [key for key, want in recorded["exports"].items()
                if result["digests"].get(key) != want]
        if not result["discrepancies_match_file"]:
            bad.append("DISCREPANCIES.md (file)")
        return "digest mismatch: " + ", ".join(bad) if bad else None
    return check


def run_digests(run: Run, recorded: dict) -> None:
    payload = {"instances": [[s, r] for s, r in GRID], "outdir": str(OUT),
               "discrepancies": str(ROOT / "DISCREPANCIES.md")}
    run.run(child_argv("digests", payload), "digests", digest_check(recorded))


def run_scalars(run: Run, seed: int, recorded: dict) -> dict:
    payload = {"instances": [[s, r] for s, r in GRID], "seed": seed,
               "pairs": SCALAR_PAIRS, "repeats": SCALAR_REPEATS}

    def check(text: str) -> str | None:
        result = json.loads(text)
        if result["canary"] != recorded["scalar_canary"]:
            return "scalar canary digest mismatch"
        if result["wrong"]:
            return f"{result['wrong']} scalar results disagree with the oracle"
        return None

    outcome = run.run(child_argv("scalars", payload), "scalars", check)
    if outcome.error is not None:
        return {}
    return json.loads(outcome.stdout)


# -- passes -----------------------------------------------------------------

@dataclass
class Pass:
    seconds: float = 0.0
    peak_rss_kb: int = 0
    complete: bool = True
    ops: list[dict] = field(default_factory=list)


def complete(passes: list[Pass]) -> list[Pass]:
    """The passes whose every operation ran. A run without one has failed
    already (the operation left out counts as failed); its figures are
    then those of the partial passes."""
    return [p for p in passes if p.complete] or passes


def run_pass(run: Run, ops: list[Op], traced: bool, probe=None) -> Pass:
    """One pass over the operations; probe runs before the first and the
    middle one, so set-up is sampled across the whole run."""
    result = Pass()
    for k, op in enumerate(ops):
        if probe is not None and k in (0, len(ops) // 2):
            probe()
        argv = op.argv
        trace_path = None
        if traced:
            trace_path = OUT / f"span-{run.tags + 1:04d}.json"
            argv = op.traced_argv + [str(trace_path)]
        outcome = run.run(argv, op.op_id, op.check)
        result.seconds += outcome.seconds
        result.peak_rss_kb = max(result.peak_rss_kb, outcome.rss_kb)
        result.complete = result.complete and outcome.started
        record = {"op": op.op_id, "wall_s": outcome.seconds,
                  "rss_kb": outcome.rss_kb, "error": outcome.error}
        if outcome.error is None:
            if traced:
                record["spans"] = json.loads(trace_path.read_text())
            verdicts = json.loads(outcome.stdout).get("verdicts")
            if verdicts is not None:
                record["verdicts"] = verdicts
        result.ops.append(record)
    return result


def layer_metrics(p: Pass) -> dict:
    """Per-layer values of one traced pass, summed over its operations."""
    metrics = {f"{stem}_s": 0.0 for stem in VERIFIERS + BUILDERS}
    for stem in VERIFIERS:
        metrics[f"{stem}_checked"] = 0
        metrics[f"{stem}_violations"] = 0
    metrics.update({"reps.bosonic_space_dim": 0, "reps.matrix_bytes": 0,
                    "controls.mutations_attempted": 0,
                    "controls.mutations_caught": 0})
    verifier_self = reps_self = 0.0
    for record in p.ops:
        spans = record.get("spans", [])
        selfs = self_times(spans)
        held = {}
        for span in spans:
            name, counts = span["name"], span["counts"]
            if f"{name}_s" in metrics:
                metrics[f"{name}_s"] += span["end"] - span["start"]
            if name in VERIFIERS:
                metrics[f"{name}_checked"] += counts["checked"]
                metrics[f"{name}_violations"] += counts["violations"]
                verifier_self += selfs[(span["op"], span["id"])]
            if name.startswith("reps."):
                reps_self += selfs[(span["op"], span["id"])]
            if "matrix_bytes" in counts:
                held[name] = max(held.get(name, 0), counts["matrix_bytes"])
                if name == "reps.bosonic_rep":
                    held["dim"] = max(held.get("dim", 0), counts["space_dim"])
        metrics["reps.bosonic_space_dim"] += held.pop("dim", 0)
        metrics["reps.matrix_bytes"] += sum(held.values())
        for verdict in record.get("verdicts", []):
            metrics["controls.mutations_attempted"] += 1
            metrics["controls.mutations_caught"] += verdict["caught"]
    metrics["trace.verifier_self_share"] = verifier_self / p.seconds
    metrics["trace.reps_self_share"] = reps_self / p.seconds
    return metrics


def layer_unit(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_share", "ratio"),
                         ("_bytes", "B")):
        if name.endswith(suffix):
            return unit
    return "count"


def median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def end_to_end(run: Run, workload: str, seed: int) -> tuple[dict, dict]:
    instances = setup_instances(workload, seed)

    def built(text: str) -> str | None:
        count = json.loads(text)["built"]
        return None if count == len(instances) else f"built {count} instances"

    setups = []

    def probe():
        argv = child_argv("setup", {"instances": instances})
        setups.append(run.run(argv, "setup", built).seconds)

    ops = workload_ops(workload, seed)
    passes, walls = [], []
    while run.another_pass(walls, MIN_PASSES):
        begun = run.elapsed()
        passes.append(run_pass(run, ops, traced=False, probe=probe))
        walls.append(run.elapsed() - begun)
    counted = complete(passes)
    return {
        "verify_s": (statistics.median(p.seconds for p in counted), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(p.peak_rss_kb for p in counted) / 1024, "MB"),
    }, {"setup_s": setups, "passes": [vars(p) for p in passes]}


def traced(run: Run, workload: str, seed: int,
           recorded: dict) -> tuple[dict, dict]:
    scalars = run_scalars(run, seed, recorded)
    ops = workload_ops(workload, seed)
    plain, spanned, walls = [], [], []
    while run.another_pass(walls, 1):
        begun = run.elapsed()
        plain.append(run_pass(run, ops, traced=False))
        spanned.append(run_pass(run, ops, traced=True))
        walls.append(run.elapsed() - begun)
    plain_s = statistics.median(p.seconds for p in complete(plain))
    spanned = complete(spanned)
    traced_s = statistics.median(p.seconds for p in spanned)
    metrics = median_metrics([layer_metrics(p) for p in spanned])
    metrics.update({
        "scalars.mul_per_s": scalars.get("mul_per_s", 0.0),
        "scalars.add_per_s": scalars.get("add_per_s", 0.0),
        "trace.verify_s": traced_s,
        "trace.untraced_verify_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
    })
    return ({key: (value, layer_unit(key)) for key, value in metrics.items()},
            {"scalars": scalars, "untraced": [vars(p) for p in plain],
             "traced": [vars(p) for p in spanned]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "drinfeld_forge" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    recorded = load_recorded()
    run = Run(args.seconds)
    if args.workload == "verify-grid":
        run_digests(run, recorded)
    if args.trace:
        metrics, detail = traced(run, args.workload, args.seed, recorded)
    else:
        metrics, detail = end_to_end(run, args.workload, args.seed)
    trace_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    trace_file.write_text(json.dumps({"workload": args.workload,
                                      "seed": args.seed, **detail}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
