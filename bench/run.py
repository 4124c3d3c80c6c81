"""attrembed benchmark: one workload per invocation, from the checkout root.

    python3 bench/run.py --workload train_full --seed 3 --seconds 20 --trace 0

Each run makes a synthetic dataset from --seed with the program's own
``gen-data`` and ``split``, trains what its workload needs in set-up, then
repeats whole rounds of the same operations in one process, one call
after another, until --seconds have passed.  Afterwards it checks every
output against the float64 reference in ``reference.py`` and prints, as
the last line of standard output, one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
It exits with code 1 when an output check fails, and with code 2 when
the checkout holds no ``src/attrembed`` to measure.

See README.md for the workloads, the metrics and what each should move.
"""

from __future__ import annotations

import os
import sys
import time

_T0 = time.perf_counter()


def _seconds_since_process_start() -> float:
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            stat = f.read()
        ticks = int(stat[stat.rindex(")") + 2 :].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


_STARTED_BEFORE_T0 = _seconds_since_process_start()

# One BLAS thread, set before numpy loads.  The program's matrices are tiny;
# a second OpenBLAS thread only spin-waits, doubling CPU use and the spread
# of the training figures from run to run.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isfile(os.path.join(SRC, "attrembed", "__init__.py")):
    print(f"error: no attrembed sources under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, SRC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import attrembed  # noqa: E402
from attrembed import cli, training  # noqa: E402

import checks  # noqa: E402
import reference as ref  # noqa: E402

if not os.path.abspath(attrembed.__file__).startswith(SRC + os.sep):
    print(f"error: attrembed imported from {attrembed.__file__}, not {SRC}", file=sys.stderr)
    sys.exit(2)

OUT_DIR = os.path.join(ROOT, "bench_out")
TRACE_DIR = os.path.join(ROOT, "bench_traces")

# The acceptance experiment's model and optimiser (tests/test_acceptance.py).
MODEL_CONFIG = {
    "channels": "16",
    "attn_channels": "8",
    "reduction": "4",
    "embed_dim": "16",
    "widths": "12,16",
    "out_spatial": "4",
    "dtype": "float32",
    "margin": "0.4",
    "learning_rate": "0.001",
    "lr_decay": "0.985",
    "batch_size": "16",
}
NOISE = "0.15"
TRIPLET_COUNT = 5000
RERANK_K = 10


def data_seed(seed: int) -> int:
    # gen-data seeds image i with seed ^ i, so seeds below 2000 share most
    # images; multiples of 4096 keep 2000-image sets disjoint.
    return seed * 4096


def train_seed(seed: int, slot: int) -> int:
    # fit seeds epoch e with seed ^ e: multiples of 64 keep epoch streams apart.
    return 64 * (1024 * seed + slot)


class CommandRunner:
    """Runs CLI commands in this process, timing each and, when traced,
    recording one span per command."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def cli(self, *argv: str) -> float:
        self.attempted += 1
        span = self.tracer.open(f"cli.{argv[0]}") if self.traced else None
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        if code != 0:
            self.failed += 1
            self.failures.append(f"{' '.join(argv)} exited {code}: {out.getvalue()[-300:]}")
        return elapsed


class FitProbe:
    """Wraps ``training.fit`` as the CLI calls it, and ``train_epoch`` as
    fit calls it, to time them and keep what the checks need."""

    def __init__(self):
        self.fits: list[dict] = []
        self.phase = "setup"
        fit, train_epoch = cli.fit, training.train_epoch

        def probed_fit(model, annotations, images, config, val_metric_fn, **kwargs):
            record = {"phase": self.phase, "model": model, "initial": model.state_arrays(), "val_s": [], "epoch_rates": [], "lrs": []}
            self.fits.append(record)

            def timed_val(m):
                start = time.perf_counter()
                value = val_metric_fn(m)
                record["val_s"].append(time.perf_counter() - start)
                return value

            start = time.perf_counter()
            best = fit(model, annotations, images, config, timed_val, **kwargs)
            record["fit_s"] = time.perf_counter() - start
            record["best"] = best
            record["final"] = model.state_arrays()
            record["margin"] = config.margin
            return best

        def probed_epoch(model, triplets, images, config, state, lr):
            start = time.perf_counter()
            loss = train_epoch(model, triplets, images, config, state, lr)
            record = self.fits[-1]
            record["epoch_rates"].append(len(triplets) / (time.perf_counter() - start))
            record["lrs"].extend([lr] * -(-len(triplets) // config.batch_size))
            return loss

        cli.fit = probed_fit
        training.train_epoch = probed_epoch


# -- workloads ---------------------------------------------------------------


class Workload:
    """Set-up makes the dataset and trains what the rounds need; a round is
    a fixed list of CLI commands.  The training metrics come from the fits
    of ``measured_fits``: (phase, variant)."""

    ratios = "8,1,1"

    def __init__(self, work: str, seed: int):
        self.work = work
        self.seed = seed
        self.data = os.path.join(work, "data")
        self.manifest = os.path.join(self.data, "manifest.txt")
        self.config = os.path.join(work, "model.cfg")
        self.evals: list[tuple[str, str, str]] = []  # (output dir, fine run, base run)

    def setup(self, s: CommandRunner) -> None:
        s.cli("gen-data", "--out", self.data, "--seed", str(data_seed(self.seed)), "--noise", NOISE)
        s.cli("split", "--manifest", self.manifest, "--out", self.data, "--ratios", self.ratios, "--seed", str(self.seed))
        with open(self.config, "w", encoding="utf-8") as f:
            f.writelines(f"{k}={v}\n" for k, v in MODEL_CONFIG.items())

    def train(self, s: CommandRunner, variant: str, out: str, epochs: int, triplets: int, slot: int) -> float:
        return s.cli(
            "train", "--manifest", self.manifest, "--config", self.config, "--out", out,
            "--variant", variant, "--epochs", str(epochs), "--triplets-per-epoch", str(triplets),
            "--val-stride", "2", "--seed", str(train_seed(self.seed, slot)),
        )

    def evaluate(self, s: CommandRunner, out: str, fine: str, base: str) -> dict:
        self.evals.append((out, fine, base))
        common = ("--manifest", self.manifest, "--out", out)
        return {
            "eval_map_s": s.cli("eval-map", "--run", fine, *common),
            "eval_triplet_s": s.cli("eval-triplet", "--run", fine, "--seed", str(self.seed), "--count", str(TRIPLET_COUNT), *common),
            "rerank_s": s.cli("rerank", "--run", fine, "--base-run", base, "--k", str(RERANK_K), *common),
        }


class TrainWorkload(Workload):
    """Each round trains the variant at the acceptance config, then runs the
    three evaluation commands on the 200-image test split.  Reranking pairs
    the round's run with a run of the other variant trained in set-up,
    full as the fine model and triplet_plain as the base."""

    epochs = 4
    triplets = 500

    def __init__(self, work, seed, variant, other):
        super().__init__(work, seed)
        self.variant, self.other = variant, other
        self.other_run = os.path.join(work, "other")
        self.measured_fits = ("round", variant)

    def setup(self, s):
        super().setup(s)
        self.train(s, self.other, self.other_run, 1, 500, 1023)

    def round(self, s, r):
        out = os.path.join(self.work, f"round{r}")
        run = os.path.join(out, "run")
        times = {"train_s": self.train(s, self.variant, run, self.epochs, self.triplets, r)}
        fine, base = (run, self.other_run) if self.variant == "full" else (self.other_run, run)
        times.update(self.evaluate(s, out, fine, base))
        return times


class RetrieveWorkload(Workload):
    """Set-up trains a short full run, whose fit gives the training metrics,
    and a shorter triplet_plain run; each round evaluates the full run on
    an 800-image test split (160 query images against 640 candidates per
    attribute) and reranks the plain run's top 10 with it.  The rounds run
    forward passes only."""

    ratios = "5,1,4"
    measured_fits = ("setup", "full")

    def setup(self, s):
        super().setup(s)
        self.full = os.path.join(self.work, "full")
        self.plain = os.path.join(self.work, "plain")
        self.train(s, "full", self.full, 6, 300, 1023)
        self.train(s, "triplet_plain", self.plain, 2, 250, 1022)

    def round(self, s, r):
        return self.evaluate(s, os.path.join(self.work, f"round{r}"), self.full, self.plain)


WORKLOADS = {
    "train_full": lambda work, seed: TrainWorkload(work, seed, "full", "triplet_plain"),
    "train_plain": lambda work, seed: TrainWorkload(work, seed, "triplet_plain", "full"),
    "retrieve": lambda work, seed: RetrieveWorkload(work, seed),
}


# -- output checks -----------------------------------------------------------


class Checker:
    """Recomputes every checked output from reference embeddings of the
    val and test images, read from the PPM files the program wrote."""

    def __init__(self, wl: Workload):
        self.wl = wl
        self.m = ref.Manifest(wl.manifest)
        self.n_attr = len(self.m.attributes)
        ids = self.m.ids("val") + self.m.ids("test")
        self.row = {image_id: i for i, image_id in enumerate(ids)}
        self.images = np.stack([ref.read_ppm(os.path.join(wl.data, "images", f"{i}.ppm")) for i in ids])
        self.retrieval = {split: self.m.retrieval(split) for split in ("val", "test")}
        self.sample = np.random.default_rng(wl.seed).choice(len(ids), size=8, replace=False)
        self.heldout = checks.sample_heldout_triplets(self.m.labels, ids, 500, wl.seed, self.n_attr)
        self._run_units: dict[str, np.ndarray] = {}
        self._expected: dict[tuple[str, str], tuple] = {}

    def units(self, state: dict, variant: str) -> np.ndarray:
        return ref.unit(ref.embeddings(self.images, state, variant, self.n_attr))

    def program_embeddings(self, model, units: np.ndarray, label: str) -> None:
        got = np.array([[model.embed_image(self.images[i], a).data for a in range(self.n_attr)] for i in self.sample])
        checks.check_embeddings(got, units[self.sample], label)

    def run_units(self, run_dir: str) -> np.ndarray:
        if run_dir not in self._run_units:
            _, state = ref.read_checkpoint(os.path.join(run_dir, cli.CHECKPOINT_NAME))
            variant = ref.read_run_config(os.path.join(run_dir, cli.RUN_CONFIG_NAME))["variant"]
            units = self.units(state, variant)
            model, _ = cli.load_run(run_dir, self.n_attr)
            self.program_embeddings(model, units, f"{run_dir} embeddings")
            self._run_units[run_dir] = units
        return self._run_units[run_dir]

    def expected_eval(self, fine: str, base: str) -> tuple:
        if (fine, base) not in self._expected:
            queries, pools = self.retrieval["test"]
            fine_units, base_units = self.run_units(fine), self.run_units(base)
            test = [(i, self.m.labels[i]) for i in self.m.ids("test")]
            triplets = training.sample_triplets(test, self.n_attr, TRIPLET_COUNT, self.wl.seed)
            self._expected[(fine, base)] = (
                checks.MapBounds(fine_units, self.row, queries, pools),
                checks.triplet_accuracy_bounds(fine_units, self.row, triplets),
                checks.expected_rerank(fine_units, base_units, self.row, queries, pools, RERANK_K),
            )
        return self._expected[(fine, base)]

    def check_eval(self, out: str, fine: str, base: str) -> None:
        map_bounds, accuracy_bounds, rerank = self.expected_eval(fine, base)
        checks.check_report(os.path.join(out, "report.tsv"), map_bounds, self.m.attributes)
        checks.check_triplet_file(os.path.join(out, "triplet_eval.txt"), accuracy_bounds)
        checks.check_rerank_file(os.path.join(out, "rerank.tsv"), rerank, self.retrieval["test"][0], self.m.attributes)

    def check_fit(self, fit: dict, measured: bool) -> None:
        """Every fit: its validation MAP, embeddings and parameter moves.  The
        measured fits also lower the held-out hinge; the short set-up runs
        (32 Adam steps) need not, as the hinge can rise early in training."""
        variant = fit["model"].config.variant
        queries, pools = self.retrieval["val"]
        best = fit["best"]
        bounds = checks.MapBounds(self.units(best.state, variant), self.row, queries, pools)
        checks.check_in(best.metric, bounds.overall, 0.0, "fit validation MAP")
        checks.check_above_random(best.metric, queries, pools, "fit validation MAP")
        final_units = self.units(fit["final"], variant)
        self.program_embeddings(fit["model"], final_units, "trained model embeddings")
        if measured:
            checks.check_hinge_decreased(
                checks.mean_hinge(self.units(fit["initial"], variant), self.row, self.heldout, fit["margin"]),
                checks.mean_hinge(final_units, self.row, self.heldout, fit["margin"]),
            )
        checks.check_parameter_moves(fit["initial"], fit["final"], variant, fit["lrs"])


def run_checks(wl: Workload, probe: FitProbe) -> list[str]:
    failures = []
    checker = Checker(wl)
    fits = [
        (f"{f['phase']} fit {i} ({f['model'].config.variant})", checker.check_fit, (f, is_measured(wl, f)))
        for i, f in enumerate(probe.fits)
    ]
    evals = [(f"evaluation in {e[0]}", checker.check_eval, e) for e in wl.evals]
    for label, check, args in fits + evals:
        try:
            check(*args)
        except checks.CheckFailed as exc:
            failures.append(f"{label}: {exc}")
    return failures


# -- metrics -----------------------------------------------------------------


def is_measured(wl: Workload, fit: dict) -> bool:
    return (fit["phase"], fit["model"].config.variant) == wl.measured_fits


def end_to_end(wl: Workload, probe: FitProbe, rounds: list[dict], setup_s: float, peak_rss_mb: float) -> dict:
    fits = [f for f in probe.fits if is_measured(wl, f)]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "train_triplets_per_s": (statistics.median(r for f in fits for r in f["epoch_rates"]), "triplets/s"),
        "val_map_s": (statistics.median(v for f in fits for v in f["val_s"]), "s"),
        "fit_s": (statistics.median(f["fit_s"] for f in fits), "s"),
        "eval_map_s": (statistics.median(r["eval_map_s"] for r in rounds), "s"),
        "eval_triplet_s": (statistics.median(r["eval_triplet_s"] for r in rounds), "s"),
        "rerank_s": (statistics.median(r["rerank_s"] for r in rounds), "s"),
    }


def overhead(probe: FitProbe, rounds: list[dict]) -> dict:
    """Traced against untraced figures; round 0 of a traced run is untraced."""
    untraced, traced = rounds[0], rounds[1:]
    out = {
        "round_s": (untraced["round_s"], statistics.median(r["round_s"] for r in traced)),
        "eval_map_s": (untraced["eval_map_s"], statistics.median(r["eval_map_s"] for r in traced)),
    }
    fits = [f["fit_s"] for f in probe.fits if f["phase"] == "round"]
    if len(fits) == len(rounds):
        out["fit_s"] = (fits[0], statistics.median(fits[1:]))
    return out


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="attrembed benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: str) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    wl = WORKLOADS[args.workload](work, args.seed)
    probe = FitProbe()
    runner = CommandRunner(tracer)

    if tracer:
        tracer.install()
        runner.traced = True
        span = tracer.open("bench.setup")
    wl.setup(runner)
    if tracer:
        tracer.close(span)
        tracer.uninstall()
        runner.traced = False
    setup_s = _STARTED_BEFORE_T0 + time.perf_counter() - _T0

    setup_commands = runner.attempted
    if runner.failed:
        print("\n".join(runner.failures), file=sys.stderr)
        return 1

    rounds: list[dict] = []
    probe.phase = "round"
    started = time.perf_counter()
    min_rounds = 2 if tracer else 1
    while len(rounds) < min_rounds or time.perf_counter() - started < args.seconds:
        r = len(rounds)
        if tracer and r == 1:
            tracer.install()
            runner.traced = True
        span = tracer.open("bench.round") if runner.traced else None
        t = time.perf_counter()
        times = wl.round(runner, r)
        times["round_s"] = time.perf_counter() - t
        if span is not None:
            tracer.close(span)
        rounds.append(times)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = list(runner.failures) or run_checks(wl, probe)
    for line in failures:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    if tracer:
        layers = tracer.per_layer()
        ratios = overhead(probe, rounds)
        layers["trace.round_s_ratio"] = (ratios["round_s"][1] / ratios["round_s"][0], "ratio")
        layers["trace.eval_map_s_ratio"] = (ratios["eval_map_s"][1] / ratios["eval_map_s"][0], "ratio")
        metrics = layers
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.save(
            os.path.join(TRACE_DIR, args.workload),
            {"workload": args.workload, "seed": args.seed, "rounds": len(rounds), "traced_rounds": len(rounds) - 1,
             "overhead_untraced_vs_traced": ratios, "per_layer": {k: v[0] for k, v in layers.items()}},
        )
    else:
        metrics = end_to_end(wl, probe, rounds, setup_s, peak_rss_mb)
    print(
        f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, {runner.attempted} commands; "
        f"nproc {NPROC}, BLAS threads {BLAS_THREADS}, Python {platform.python_version()}, numpy {np.__version__}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": runner.attempted - setup_commands,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
