"""Golden bytes: the CLI's curves and summary CSVs, pinned by sha256.

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
