"""The benchmark's workloads: what each one runs and the property it relies on.

Each workload is one ``eucbv run`` invocation.  The benchmark's ``--seed``
becomes the CLI's ``--seed`` (the master seed); ``env_seed`` stays at the
library default, so the expt3 arm variances are the paper's.  Sizes are cut
from the paper's horizons so that one invocation takes a few seconds on a
2-core machine and a timed run can repeat it several times.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ELIM_CONFIG = """\
[experiment]
name = elim
horizon = {horizon}
runs = {runs}
checkpoints = {horizon}

[environment]
kind = gaussian
means = 0.5*19, 0.7
variances = 0.25*20

[policy.eucbv]
[policy.ucbv]
[policy.ucb-improved]
[policy.median-elim]
epsilon = 0.5
delta = 0.5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policies: tuple         # the roster the CLI must report, in run order
    home_policies: tuple    # policies whose per-layer metrics come from here
    horizon: int
    runs: int
    threads: int
    checkpoints: int = 200  # the CLI default unless the config sets it
    preset: str | None = None  # None: the benchmark writes ELIM_CONFIG
    timed: bool = True      # False: only the traced run uses it

    @property
    def experiment(self) -> str:
        """Name the CLI gives the output files."""
        return self.preset or "elim"

    def write_inputs(self, work_dir: Path) -> None:
        if self.preset is None:
            (work_dir / "elim.ini").write_text(
                ELIM_CONFIG.format(horizon=self.horizon, runs=self.runs), encoding="utf-8")

    def source_args(self, work_dir: Path) -> list:
        if self.preset is None:
            return ["--config", str(work_dir / "elim.ini")]
        return ["--preset", self.preset, "--runs", str(self.runs),
                "--horizon", str(self.horizon)]

    def cli_args(self, seed: int, work_dir: Path, out_dir: Path) -> list:
        return ["run", *self.source_args(work_dir), "--seed", str(seed),
                "--threads", str(self.threads), "--out", str(out_dir)]

    def probe_args(self, seed: int, work_dir: Path) -> list:
        args = self.source_args(work_dir)
        return args + ["--seed", str(seed)] if self.preset else args

    @property
    def lane_steps(self) -> int:
        return self.runs * self.horizon * len(self.policies)


EXPT1 = Workload(
    name="expt1-bern-k20-par2",
    why=("Bernoulli K=20 through the 2-worker process pool (8 pools, 2 chunks "
         "each); klucb-plus bisection and ts-beta gamma sampling dominate"),
    policies=("eucbv", "ucb1", "ucbv", "moss", "ocucb", "klucb-plus", "ts-beta", "dmed"),
    home_policies=("ucb1", "klucb-plus", "ts-beta", "dmed"),
    horizon=2000, runs=100, threads=2, preset="expt1",
)

EXPT3 = Workload(
    name="expt3-gauss-k100-serial",
    why=("Gaussian K=100 serial baseline; full RxK stats recomputes and normal "
         "draws dominate, and no EUCBV lane commits, so commit-logic changes show none"),
    policies=("eucbv", "ucbv", "moss", "ocucb", "ts-gauss", "bayes-ucb"),
    home_policies=("eucbv", "ucbv", "moss", "ocucb", "ts-gauss", "bayes-ucb"),
    horizon=2000, runs=100, threads=1, preset="expt3",
)

ELIM = Workload(
    name="elim-gauss-k20-fullcurve",
    why=("20 Gaussian arms, one 0.2 better: EUCBV eliminates and commits, ucb-improved "
         "and median-elim finish rounds, full-resolution curves make CSV output count"),
    policies=("eucbv", "ucbv", "ucb-improved", "median-elim"),
    home_policies=("ucb-improved", "median-elim"),
    horizon=13000, runs=100, threads=1, checkpoints=13000, timed=False,
)

WORKLOADS = {w.name: w for w in (EXPT1, EXPT3, ELIM)}

# End-to-end workloads.  elim is traced only: on a shared 2-core VM its wall
# time, dominated by per-step interpreter work, spread 0.13-0.36 (quartile
# distance over median) across ten-run sets, more than any bound allows.
TIMED = {name: w for name, w in WORKLOADS.items() if w.timed}
