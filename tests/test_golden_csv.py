"""Golden bytes: the CLI's curves and summary CSVs, its bounds table and its
lemma report, pinned by sha256.

The digests pin every policy's trajectories bit for bit, so a change that
claims to keep the output exact (incremental per-step state, block
prefetching) is checked here.  They pin numpy 2.4.6 on x86-64 Linux: the uint64 streams are portable, but
the float bytes also depend on the platform's log/cos rounding and the
numpy build, so a different build may legitimately produce other digests.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest

from eucbv.cli import main

PRESET_ARGS = ["--runs", "4", "--horizon", "2000", "--checkpoints", "20", "--seed", "1"]

PRESET_DIGESTS = {
    "expt1": ("fc7415a1b5eaa14065e39946826973e12b93a2a54350c468bac7dd7125cdcb5a",
              "765f9ed78a24101add76071dee35f1a227c810df93993f18424029f4cc6407bf"),
    "expt2": ("e9cd4382283b9560a104bf7c38f5190a01f75776db0301a6182a740d5a151374",
              "72ff7796bf7ff68c3bb9056b281de957a0bb5db55f35fc6a9deb92eaf5fb1818"),
    "expt3": ("def61ec5897f680a1fdba4e80e1b73444c87becd62f180de0cac49d4069a035f",
              "cd0afd02f5a827a1cccd4f3ee90cade0463e885326068cd306d3802a5c478f5f"),
    "expt4": ("95cd5a5845ba73e8d0b7a0893929c9db6a53b5ca12de4fd1246fc94cabbf8f7b",
              "886580bc566ef47ef36277c6e65d2293dbb23afb673d32e0449a65bdd1f3fb87"),
}

# A wide-gap Gaussian testbed on which the eliminating policies act: over 8
# runs median-elim halves 20 arms twice (20 -> 10 -> 5), ucb-improved
# finishes 3-4 rounds with one lane committed, and EUCBV commits in 6 lanes.
ELIM_CONFIG = """\
[experiment]
name = elim
horizon = 8000
runs = 8
master_seed = 1

[environment]
kind = gaussian
means = 0.5*19, 0.7
variances = 0.25*20

[policy.eucbv]

[policy.ucb-improved]

[policy.median-elim]
epsilon = 0.9
delta = 0.9
"""

ELIM_DIGESTS = ("744c4f9f91a8f397ab7f0724fb9d9eb6f8b078ce2359215985e52ac16fea7816",
                "f576f1ce4cebaa8b46ce758a8b1544da4dbed2d401b38d94e2fbaf40f30f4525")


def _digests(out_dir, name):
    return tuple(
        hashlib.sha256((out_dir / f"{name}_{kind}.csv").read_bytes()).hexdigest()
        for kind in ("curves", "summary")
    )


def _run(args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # reduced horizons sit below T = K^2.4
        assert main(args) == 0


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_csv_bytes(tmp_path, preset):
    _run(["run", "--preset", preset, *PRESET_ARGS, "--out", str(tmp_path)])
    assert _digests(tmp_path, preset) == PRESET_DIGESTS[preset], (
        f"CSV bytes changed (digests taken with numpy 2.4.6, running {np.__version__})")


def test_elimination_config_csv_bytes(tmp_path):
    config = tmp_path / "elim.ini"
    config.write_text(ELIM_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    _run(["run", "--config", str(config), "--out", str(out)])
    assert _digests(out, "elim") == ELIM_DIGESTS, (
        f"CSV bytes changed (digests taken with numpy 2.4.6, running {np.__version__})")


# The bounds table and the lemma report, pinned by sha256 like the curves.
BOUNDS_DIGESTS = {
    "preset-expt1": (["--preset", "expt1"],
                     "47423f3c3df8efd4d701a26e9e8805ad816fc75257ceb583cfcebf066751c794"),
    "preset-expt2": (["--preset", "expt2"],
                     "ab6930381be874b44d93a104ffd7fa56d16e908ba5cc10ef583c07998d63874a"),
    "preset-expt3": (["--preset", "expt3"],
                     "0bb441a573875ec4442145c5e2fc97d3d14836600f3696fade8face269c28f30"),
    "preset-expt4": (["--preset", "expt4"],
                     "4d7cd6434727e87ca88ee81931c1adda1bb0b7c8b72e2d07a46ede381611c2db"),
    "K20-T60000": (["--K", "20", "--T", "60000", "--delta", "0.03"],
                   "7ec06cc12e21ebc49f03067da55e89d49b5550a4f2eb2b3e0d0d839eae752c9c"),
    "K7-T5000-sigma-sq": (["--K", "7", "--T", "5000", "--delta", "0.2",
                           "--sigma-sq", "0.05"],
                          "ea6aebbe103201beaf67c170d39e4a02cbb62cef4af4aabe050815b128cfaa45"),
}

LEMMA_DIGESTS = {
    "small": "1ea679bd269ac02803c2baeff7ed1ad80927038c652c0d1f7c67920608a63b4b",
    "full": "ab3407af4fcb7bffb997ea3abd00ab7a2de467b4423a96933f511133dade5c42",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(BOUNDS_DIGESTS))
def test_bounds_csv_bytes(tmp_path, case):
    args, digest = BOUNDS_DIGESTS[case]
    assert main(["bounds", *args, "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "bounds_table1.csv") == digest


@pytest.mark.parametrize("grid", sorted(LEMMA_DIGESTS))
def test_lemma_report_bytes(tmp_path, grid):
    assert main(["verify-lemmas", "--grid", grid, "--tail-samples", "2000",
                 "--out", str(tmp_path)]) == 0
    assert _sha256(tmp_path / "lemma_report.txt") == LEMMA_DIGESTS[grid]
