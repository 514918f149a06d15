"""Seeded inputs and the operation of each benchmark workload.

Every workload cycles through a fixed list of operations, one pass after
another.  The list holds the two structures in ``configs/`` and a set of
seeded double-barrier structures.  The seeded structures are fixed design
points spread over the parameter box, each rescaled by the run seed; a
fresh random draw per seed would change which structures need the slow
pole-recovery path, and with it every timing, from seed to seed.
"""

from __future__ import annotations

import os
import random

import checks

MASS_FACTOR = 0.067
BARRIER_EV = (0.2, 0.5)
BARRIER_A = (20.0, 40.0)
WELL_A = (40.0, 120.0)
DESIGN_DRAW = "rtbuildup-designs-1"  # fixed: the seed only rescales the designs
STRETCH = 0.1
TIME_GRID_FS = (0.1, 1.0e4)


class Structure:
    """Piecewise-constant profile as (width_A, height_eV) segments."""

    def __init__(self, name: str, segments, mass_factor: float = MASS_FACTOR):
        self.name = name
        self.segments = [(float(w), float(h)) for w, h in segments]
        self.mass_factor = mass_factor

    @property
    def top_ev(self) -> float:
        return max(h for _, h in self.segments)

    @property
    def length(self) -> float:
        return sum(w for w, _ in self.segments)

    def config_text(self) -> str:
        lines = [f"mass_factor = {self.mass_factor!r}"]
        lines += [f"segment = {w!r} {h!r}" for w, h in self.segments]
        return "\n".join(lines) + "\n"


def load_config(path: str) -> Structure:
    """The benchmark's own reader of the ``key = value`` profile format."""
    segments, mass = [], MASS_FACTOR
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = (part.strip() for part in line.partition("="))
            if key == "mass_factor":
                mass = float(value)
            elif key == "segment":
                width, height = value.split()
                segments.append((float(width), float(height)))
    return Structure(os.path.splitext(os.path.basename(path))[0], segments, mass)


def designs(count: int, salt: str, seed: int) -> list[Structure]:
    """``count`` double barriers from fixed design points, rescaled by ``seed``.

    The design points stratify each parameter over its range (a Latin
    hypercube).  The seed stretches each design by a factor s, widths times
    s and heights over s^2, which leaves the dimensionless problem, and so
    which poles lack a transmission peak, unchanged while the inputs differ.
    """
    draw = random.Random(f"{DESIGN_DRAW}-{salt}")
    ranges = [BARRIER_A, BARRIER_EV, WELL_A, BARRIER_A, BARRIER_EV]
    columns = []
    for lo, hi in ranges:
        strata = [(i + draw.random()) / count for i in range(count)]
        draw.shuffle(strata)
        columns.append([lo + (hi - lo) * u for u in strata])
    stretch = random.Random(f"{seed}-{salt}")
    out = []
    for i, (w1, h1, well, w2, h2) in enumerate(zip(*columns)):
        s = 1.0 + STRETCH * (2.0 * stretch.random() - 1.0)
        segments = [(w1 * s, h1 / s**2), (well * s, 0.0), (w2 * s, h2 / s**2)]
        out.append(Structure(f"{salt}-{i}", segments))
    return out


class Workload:
    """A list of operations (``items``) with set-up, one call each, and a check."""

    # operation time of one pass over ``items`` at the reference speed (see
    # worker.calibrate) at the commit that defined the benchmark; a run makes
    # round(seconds / pass_seconds) passes, so equal settings do equal work
    pass_seconds = 1.0

    def setup(self, rt, tracer) -> None:
        """Work every operation relies on; runs inside the set-up time."""

    def run(self, rt, item, tracer):
        raise NotImplementedError

    def check(self, item, output, tracer) -> list[str]:
        raise NotImplementedError


class _CliWorkload(Workload):
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.csv")

    def setup(self, rt, tracer) -> None:
        for item in self.items:
            structure = item["structure"]
            path = os.path.join(self.workdir, structure.name + ".cfg")
            if not os.path.exists(path):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(structure.config_text())
            item["argv"] = item["argv"] + ["--profile", path, "--out", self.out_path]

    def run(self, rt, item, tracer):
        return tracer.span("cli.main", rt.cli.main, item["argv"])

    def check(self, item, code, tracer):
        # read and remove the output so that a later operation that writes
        # nothing cannot be checked against this one's file
        text = ""
        if os.path.exists(self.out_path):
            with open(self.out_path, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(self.out_path)
            rows = sum(1 for line in text.splitlines()[1:] if not line.startswith("#"))
            tracer.count(csv_rows=rows)
        return self.check_output(item, code, text)


class PolesWide(_CliWorkload):
    """``rtbuildup poles``, to the barrier top (the default) and to 2-4 times it.

    Only the pole search runs.  Structures whose poles all show a
    transmission peak take ~0.1 s; a pole without a peak sends the search
    through the winding-bisection recovery, ~1 s and ~20k transfer-matrix
    calls (``configs/symmetric.cfg`` up to 2 eV is one of these).  Each
    structure is searched with both ceilings, so most operations are fast
    and the median does not sit on the edge between the two groups.
    """

    E_FACTOR = (2.0, 4.0)
    pass_seconds = 8.5

    def __init__(self, workdir, seed, configs, small=False):
        super().__init__(workdir)
        factors = random.Random(f"{DESIGN_DRAW}-poles-factor")
        wide = [(c, c.name, 4.0 * c.top_ev) for c in reversed(configs)]
        for s in designs(0 if small else 14, "poles", seed):
            wide.append((s, None, factors.uniform(*self.E_FACTOR) * s.top_ev))
        self.items = []
        for structure, table, e_max in wide:
            ceilings = [["--e-max-ev", repr(e_max)]] if small else [[], ["--e-max-ev", repr(e_max)]]
            for ceiling in ceilings:
                self.items.append(
                    {"structure": structure, "table": table, "argv": ["poles"] + ceiling}
                )

    def check_output(self, item, code, text):
        if code != 0:
            return [f"exit code {code}"]
        s = item["structure"]
        return checks.check_poles(text, s.segments, s.mass_factor, item["table"])


class Crossover(_CliWorkload):
    """``rtbuildup crossover --resonance n --auto-max`` on the default 24,001-point grid.

    ``local_slopes`` takes ~85% of an operation; the pole search stops at
    the barrier top and takes ~0.1 s unless it needs the recovery.
    """

    pass_seconds = 6.5

    def __init__(self, workdir, seed, configs, small=False):
        super().__init__(workdir)
        pick = random.Random(f"{DESIGN_DRAW}-crossover-resonance")
        symmetric, asymmetric = configs
        self.items = [{"structure": asymmetric, "n": 1}, {"structure": symmetric, "n": 1}]
        for s in designs(0 if small else 4, "crossover", seed):
            self.items.append({"structure": s, "n": pick.choice((1, 2))})
        for item in self.items:
            item["argv"] = ["crossover", "--resonance", str(item["n"]), "--auto-max"]
            if small:
                item["argv"] += ["--points", "4001"]

    def check_output(self, item, code, text):
        return checks.check_crossover(code, text)


class PoleSum(Workload):
    """``evolve_full`` at off-resonance (E, x) on a dense log time grid.

    Set-up runs ``find_poles`` once per structure up to four times its
    barrier top; each operation sums the Moshinsky kernels of every pole
    pair over the grid.
    """

    SAMPLES = 16
    pass_seconds = 1.2

    def __init__(self, workdir, seed, configs, small=False):
        self.seed = seed
        self.structures = list(configs) + designs(0 if small else 2, "polesum", seed)
        self.per_structure = 1 if small else 4
        self.points = 2000 if small else 20000
        self._reference: dict[int, list[complex]] = {}

    def setup(self, rt, tracer) -> None:
        import warnings

        import numpy as np

        # every off-resonance run reports a truncation diagnostic above the
        # default tail tolerance; that is expected and not a failure here
        warnings.simplefilter("ignore", rt.ConvergenceWarning)
        self.t_fs = np.geomspace(*TIME_GRID_FS, self.points)
        rng = random.Random(f"{self.seed}-polesum-inputs")
        self.items = []
        for s in self.structures:
            profile = rt.build_profile(s.segments, mass_factor=s.mass_factor)
            poles = rt.find_poles(profile, 4.0 * s.top_ev)
            eps = [0.0] + [p.eps_ev for p in poles]
            for _ in range(self.per_structure):
                j = rng.randrange(len(eps) - 1)
                energy = eps[j] + rng.uniform(0.3, 0.7) * (eps[j + 1] - eps[j])
                x = rng.uniform(0.05, 0.95) * s.length
                samples = sorted(rng.sample(range(self.points), self.SAMPLES))
                self.items.append({
                    "index": len(self.items), "structure": s, "profile": profile,
                    "poles": poles, "energy": energy, "x": x, "samples": samples,
                })

    def run(self, rt, item, tracer):
        return rt.evolve_full(item["profile"], item["poles"], item["energy"], item["x"], t_fs=self.t_fs)

    def check(self, item, solution, tracer):
        samples = item["samples"]
        reference = self._reference.get(item["index"])
        if reference is None:
            x = item["x"]
            poles = [(p.k, p.u0, p.u(x)) for p in item["poles"]]
            reference = checks.pole_sum_reference(
                item["energy"], item["structure"].mass_factor, solution.phi, poles,
                [float(self.t_fs[i]) for i in samples],
            )
            self._reference[item["index"]] = reference
        return checks.check_pole_sum([complex(solution.psi[i]) for i in samples], reference)


WORKLOADS = {"poles-wide": PolesWide, "crossover": Crossover, "pole-sum": PoleSum}


def make(name: str, workdir: str, seed: int, config_dir: str, small: bool = False) -> Workload:
    configs = [load_config(os.path.join(config_dir, f"{c}.cfg")) for c in ("symmetric", "asymmetric")]
    return WORKLOADS[name](workdir, seed, configs, small)

