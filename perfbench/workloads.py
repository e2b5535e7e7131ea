"""The three workloads: seeded inputs, their set-up, and the fixed job list
that one pass runs.

csw receives only what the generator produces: inline types, family
parameters, vector strings, welldef seeds and the files written in set-up.
Every job has a key naming its exact input; `expected.json` maps each key
that any seed can produce to the exit code, verdict and sha256 recorded at
the seed commit.

Importing this module needs `csw` on `sys.path`; `run.py` puts the
checkout's `src` there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import csw.cli
from csw import analysis, norming, schemes

TYPES = {
    "d2": "1,2,4;2,3;0,1",
    "d3": "1,2,4,10;2,3,4;0,1,2",
    "d4": "1,2,4,10,46;2,3,4,5;0,1,2,1",
    "d5": "1,2,4,10,46,271;2,3,4,5,6;0,1,2,1,1",
    "w8": "1,8;8;0",
}

# Parameter sets the seed draws from, per lp-basis job kind; within each set
# the basis_constant cost of a job differs by less than the run-to-run noise.
K_CHOICES = ("3/2", "2", "5/2")
EPS_CHOICES = ("1/4", "1/3", "1/2")
WELLDEF_SEEDS = (0, 1, 2, 3)
VECTOR_POOL = 6   # candidate `norm eval` vectors per family file

# lp-basis job slots: (type, space, scale cap); the seed picks the K or eps
# of each.  Ordered by cost: the p50 latency falls in the middle of the d2
# K cap2 jobs (20-60% of samples) and the p75 inside the w8 jobs (60-100%),
# never between two kinds of job.
LP_SLOTS = (
    ("d3", "eps", 0),
    ("d2", "k", 2), ("d2", "k", 2),
    ("w8", "k", 1), ("w8", "k", 1),
)

# cli-roundtrip family files: name -> (universe size, seeded vectors
# evaluated on it per pass, each in both norm modes).
CLI_FAMILIES = {"H5": (271, 2), "K4": (46, 2), "K5": (271, 2)}


def type_spec(name) -> schemes.TypeSpec:
    return schemes.validate_type(*([int(v) for v in part.split(",")]
                                   for part in TYPES[name].split(";")))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_text(doc) -> bytes:
    """A report rendered as `csw analyze` renders its JSON."""
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


@dataclass
class Job:
    """One verdict. `call` is what is timed; `outcome` turns its result into
    (exit code, verdict, sha256) outside the timed window."""
    key: str
    call: Callable[[], object]
    outcome: Callable[[object], tuple]
    baseline: str = ""


def report_outcome(report, extra_meta=None):
    doc = report.to_json()
    if extra_meta:
        doc["meta"] = dict(doc["meta"], **extra_meta)
    return 0, report.passed, sha256(report_text(doc))


class Workload:
    """Defaults for a workload whose jobs run in the benchmark process."""

    rss_source = "this process, getrusage"

    def peak_rss_kib(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def jobs(self, in_process=False):
        """The fixed job list of one pass.  `in_process` asks for csw
        commands to go through `csw.cli.main` instead of fresh processes."""
        raise NotImplementedError

    def baseline_jobs(self):
        """ROADMAP Baseline cases that are not part of the pass; a traced run
        times each once, untraced, after its passes."""
        return []


# ---------------------------------------------------------------------------
# lp-basis


def family_key(type_name, space, cap, param):
    if space == "eps":
        return f"{type_name} eps={param}"
    return f"{type_name} K={param} cap{cap}"


def build_family(type_name, space, cap, param):
    scheme = schemes.build_scheme(type_spec(type_name))
    if space == "eps":
        return norming.build_eps_family(scheme, Fraction(param))
    return norming.build_K_family(scheme, Fraction(param), scale_cap=cap)


def lp_params(seed):
    rng = random.Random(f"lp-basis:{seed}")
    return [rng.choice(EPS_CHOICES if space == "eps" else K_CHOICES)
            for _, space, _ in LP_SLOTS]


def basis_constant_job(label, family, baseline=""):
    def outcome(result):
        return report_outcome(result.report,
                              {"attaining_vector": result.attaining.to_json()})
    return Job(f"basis_constant {label}",
               lambda: analysis.basis_constant(family), outcome, baseline)


def lp_baseline_job():
    return basis_constant_job("d3 K=2 cap1", build_family("d3", "k", 1, "2"),
                              "d3 K cap1 basis_constant")


class LpBasis(Workload):
    """`analysis.basis_constant` on K and eps families with 10 and 24 top
    functionals; set-up builds every family the job list needs."""

    name = "lp-basis"
    min_passes = 8

    def __init__(self, seed, workdir, src):
        slots = [(t, space, cap, p)
                 for (t, space, cap), p in zip(LP_SLOTS, lp_params(seed))]
        self.families = {}
        for slot in slots:
            label = family_key(*slot)
            if label not in self.families:
                self.families[label] = build_family(*slot)
        self.labels = [family_key(*slot) for slot in slots]

    def jobs(self, in_process=False):
        return [basis_constant_job(label, self.families[label])
                for label in self.labels]

    def baseline_jobs(self):
        return [lp_baseline_job()]

    @staticmethod
    def all_keys(workdir, src):
        """Every job any seed can produce."""
        for t, space, cap in sorted(set(LP_SLOTS)):
            for p in (EPS_CHOICES if space == "eps" else K_CHOICES):
                label = family_key(t, space, cap, p)
                yield basis_constant_job(label, build_family(t, space, cap, p))
        yield lp_baseline_job()


# ---------------------------------------------------------------------------
# coherence-sweep


def coherence_jobs(h5, k4, welldef_seeds):
    ws_k4, ws_h5 = welldef_seeds
    return [
        Job("coherence d5 eps=1/2",
            lambda: analysis.coherence_report(h5, lp_every=0),
            report_outcome, "d5 eps coherence"),
        Job("coherence d4 K=2 cap2",
            lambda: analysis.coherence_report(k4, lp_every=0), report_outcome),
        Job(f"welldef d4 K=2 cap2 samples=200 seed={ws_k4}",
            lambda: analysis.well_definedness_report(k4, samples=200, seed=ws_k4),
            report_outcome),
        Job(f"welldef d5 eps=1/2 samples=200 seed={ws_h5}",
            lambda: analysis.well_definedness_report(h5, samples=200, seed=ws_h5),
            report_outcome),
        Job("biorth d5 eps=1/2",
            lambda: analysis.check_biorthogonality(h5), report_outcome),
    ]


class CoherenceSweep(Workload):
    """Coherence, well-definedness and biorthogonality sweeps on the d5 eps
    and d4 K cap2 families; every hull instance takes the direct path."""

    name = "coherence-sweep"
    min_passes = 6

    def __init__(self, seed, workdir, src):
        rng = random.Random(f"coherence-sweep:{seed}")
        self.welldef_seeds = (rng.choice(WELLDEF_SEEDS), rng.choice(WELLDEF_SEEDS))
        self.h5 = build_family("d5", "eps", 0, "1/2")
        self.k4 = build_family("d4", "k", 2, "2")

    def jobs(self, in_process=False):
        return coherence_jobs(self.h5, self.k4, self.welldef_seeds)

    @staticmethod
    def all_keys(workdir, src):
        h5 = build_family("d5", "eps", 0, "1/2")
        k4 = build_family("d4", "k", 2, "2")
        yield from coherence_jobs(h5, k4, (WELLDEF_SEEDS[0], WELLDEF_SEEDS[0]))
        for s in WELLDEF_SEEDS[1:]:   # the two welldef jobs at the other seeds
            yield from coherence_jobs(h5, k4, (s, s))[2:4]


# ---------------------------------------------------------------------------
# cli-roundtrip


def pool_vector(family, index):
    """The index-th candidate vector for a family file: 1 to 6 entries with
    small p/q values, fixed independently of the run's seed."""
    universe = CLI_FAMILIES[family][0]
    rng = random.Random(f"vector:{family}:{index}")
    positions = sorted(rng.sample(range(universe), rng.randint(1, 6)))
    entries = []
    for p in positions:
        num = rng.choice([v for v in range(-9, 10) if v])
        den = rng.randint(1, 9)
        entries.append(f"{p}:{Fraction(num, den)}")
    return ",".join(entries)


def cli_argvs(vectors, welldef_seed):
    """The fixed command sequence of one pass; `vectors` maps each family
    file to the pool indices evaluated on it."""
    argvs = [
        ["scheme", "build", "--type", TYPES["d5"], "--out", "s5.json"],
        ["scheme", "check", "s5.json"],
        ["norming", "build", "--scheme", "s5.json", "--space", "eps",
         "--param", "1/2", "--out", "H5.json"],
        ["norming", "build", "--scheme", "s4.json", "--space", "k",
         "--param", "2", "--scale-cap", "2", "--out", "K4.json"],
        ["norming", "build", "--scheme", "s5.json", "--space", "k",
         "--param", "2", "--scale-cap", "1", "--out", "K5.json"],
    ]
    for family, indices in vectors.items():
        for i in indices:
            for mode in ("local", "all"):
                argvs.append(["norm", "eval", "--family", f"{family}.json",
                              "--vec", pool_vector(family, i), "--norm-mode", mode])
    argvs.append(["analyze", "biorth", "--family", "H5.json"])
    argvs.append(["analyze", "welldef", "--family", "K4.json",
                  "--samples", "200", "--seed", str(welldef_seed)])
    return argvs


def cli_baseline(argv):
    if argv[:2] == ["norming", "build"] and argv[-1] == "K5.json":
        return "k d5 cap1 norming build"
    if argv[:2] == ["norm", "eval"] and argv[3] == "K5.json":
        return f"norm eval on K d5 file ({argv[-1]})"
    return ""


class CliRunner:
    """Runs csw commands in `workdir`, either as fresh processes (`python -m
    csw.cli`) or in-process through `csw.cli.main`."""

    def __init__(self, workdir, src):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        self.peak_child_rss_kib = 0

    def spawn(self, argv):
        proc = subprocess.Popen([sys.executable, "-m", "csw.cli", *argv],
                                cwd=self.workdir, env=self.env,
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_child_rss_kib = max(self.peak_child_rss_kib, usage.ru_maxrss)
        return proc.returncode, out

    def in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = csw.cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
        return code, out.getvalue().encode()

    def outcome(self, argv, result):
        code, out = result
        if "--out" in argv:
            path = os.path.join(self.workdir, argv[argv.index("--out") + 1])
            try:
                with open(path, "rb") as handle:
                    out = handle.read()
            except FileNotFoundError:   # the command failed to write it
                out = b""
        return code, code == 0, sha256(out)

    def job(self, argv, in_process):
        call = self.in_process if in_process else self.spawn
        return Job("csw " + " ".join(argv), lambda: call(argv),
                   lambda result: self.outcome(argv, result), cli_baseline(argv))


def write_scheme_files(workdir):
    os.makedirs(workdir, exist_ok=True)
    scheme = schemes.build_scheme(type_spec("d4"))
    with open(os.path.join(workdir, "s4.json"), "w", encoding="utf-8") as handle:
        handle.write(schemes.scheme_dumps(scheme) + "\n")


class CliRoundtrip(Workload):
    """Real csw processes, one after another: build and check a d5 scheme,
    build three family files, evaluate seeded vectors on each, analyze."""

    name = "cli-roundtrip"
    min_passes = 2
    rss_source = "largest csw child process, wait4"

    def __init__(self, seed, workdir, src):
        rng = random.Random(f"cli-roundtrip:{seed}")
        vectors = {f: sorted(rng.sample(range(VECTOR_POOL), count))
                   for f, (_, count) in CLI_FAMILIES.items()}
        self.argvs = cli_argvs(vectors, rng.choice(WELLDEF_SEEDS))
        write_scheme_files(workdir)
        self.runner = CliRunner(workdir, src)

    def jobs(self, in_process=False):
        return [self.runner.job(argv, in_process) for argv in self.argvs]

    def peak_rss_kib(self):
        return self.runner.peak_child_rss_kib

    @staticmethod
    def all_keys(workdir, src):
        write_scheme_files(workdir)
        runner = CliRunner(workdir, src)
        everything = {f: range(VECTOR_POOL) for f in CLI_FAMILIES}
        argvs = cli_argvs(everything, WELLDEF_SEEDS[0])
        argvs += [cli_argvs({}, s)[-1] for s in WELLDEF_SEEDS[1:]]
        for argv in argvs:
            yield runner.job(argv, in_process=False)


WORKLOADS = {w.name: w for w in (LpBasis, CoherenceSweep, CliRoundtrip)}
