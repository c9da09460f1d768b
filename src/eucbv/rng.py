"""Counter-based pseudo-random streams with reproducible, portable output.

Every stream is addressed by a 64-bit ``key``; draw number ``j`` (1-based) is

    out_j = mix64((key + j * GOLDEN) mod 2**64)

where ``mix64`` is the splitmix64 output finalizer and ``GOLDEN`` is the
64-bit golden-ratio increment.  Because each draw is a pure function of
``(key, j)``, a stream produces the same values no matter how its draws are
batched, and distinct streams never interact.  Uniforms take the top 53 bits
of ``out_j``; normals use the Box-Muller transform and consume exactly two
uniforms each.  The finalizer is written once, on uint64 arrays
(``_mix64_np``), and one method (``StreamBatch._bases``) forms every block's
stream points ``key + counter * GOLDEN`` and advances the counters.

The same purity means a draw that cannot change a result need not be
computed, only counted.  ``StreamBatch.normal_argmax`` (TS-Gauss's posterior
sample) advances each lane's counter past a whole block of normals but
computes every cell's radius half and the angle half only for the cells
whose bound can reach the lane's maximum.  ``StreamBatch.gamma_block``
(TS-Beta's) counts 3C uniforms per lane for each Marsaglia-Tsang trial the
lane takes, but after the first trial it computes only the cells still
pending.  Every other method computes all the draws it counts.

Stream keys are ``mix64(mix64(mix64(master_seed) ^ run_index) ^ domain)``,
derived for all lanes at once by the same array finalizer, so replication
``k`` of an experiment gets the same reward stream whether 10 or 10000 runs
are requested, and policy-internal randomness (domain 1) never collides with
reward draws (domain 0).
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi

# Stream domains: rewards, policy-internal randomness, environment generation.
DOMAIN_REWARDS = 0
DOMAIN_POLICY = 1
DOMAIN_ENV_GEN = 2

_NP_GOLDEN = np.uint64(_GOLDEN)
_NP_MIX_A = np.uint64(_MIX_A)
_NP_MIX_B = np.uint64(_MIX_B)
_NP_30 = np.uint64(30)
_NP_27 = np.uint64(27)
_NP_31 = np.uint64(31)
_NP_11 = np.uint64(11)

# Uniforms generated and transformed per row tile in ``normal_block``: the
# uint64 and float temporaries stay this size whatever the lane count.
TILE_UNIFORMS = 16384

# StreamBatch.normal_argmax samples the cells with a Box-Muller radius of at
# least PROBE_RADIUS first (a share e**-2, about 13.5%, of the cells) to find
# a threshold, and widens every cell's bound by PRUNE_SLACK.
PROBE_RADIUS = 2.0
PRUNE_SLACK = 1.0 + 2.0 ** -40


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """The splitmix64 output finalizer on a uint64 array, in place (returns
    ``z``)."""
    z ^= z >> _NP_30
    z *= _NP_MIX_A
    z ^= z >> _NP_27
    z *= _NP_MIX_B
    z ^= z >> _NP_31
    return z


def _unit(z: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) at the stream points ``z = key + j * GOLDEN``
    (uint64, overwritten): the top 53 bits of ``mix64(z)``."""
    z = _mix64_np(z)
    z >>= _NP_11
    return z * _INV_2_53


@functools.lru_cache(maxsize=64)
def _golden_steps(n: int) -> np.ndarray:
    """The read-only offsets j * GOLDEN, j = 1..n, of a block of n draws."""
    steps = np.arange(1, n + 1, dtype=np.uint64) * _NP_GOLDEN
    steps.flags.writeable = False
    return steps


def _bm_radius(u1: np.ndarray) -> np.ndarray:
    """Box-Muller radius sqrt(-2 ln(1 - u1)) of uniforms in [0, 1); at most
    about 8.57, reached at u1 = 1 - 2**-53."""
    return np.sqrt(-2.0 * np.log1p(-u1))


def _bm_angle(radius: np.ndarray, u2: np.ndarray, out=None) -> np.ndarray:
    """Box-Muller normals radius * cos(2 pi u2) from radii and uniforms."""
    return np.multiply(radius, np.cos(_TWO_PI * u2), out=out)


def _box_muller(u1: np.ndarray, u2: np.ndarray, out=None) -> np.ndarray:
    """Standard normals from pairs of uniforms in [0, 1)."""
    return _bm_angle(_bm_radius(u1), u2, out=out)


def _sample_cells(scores, cells, points, loc, scale, radius) -> None:
    """Write loc + scale * z into the flat cells ``cells`` of ``scores``, z
    being the cell's normal: its radius and the angle uniform drawn right
    after its radius uniform (stream point ``points`` + GOLDEN)."""
    u2 = _unit(points.take(cells) + _NP_GOLDEN)
    z = _bm_angle(radius.take(cells), u2)
    np.put(scores, cells, loc.take(cells) + scale.take(cells) * z)


def gamma_constants(shape) -> tuple:
    """Marsaglia-Tsang's d = shape - 1/3 and c = 1/sqrt(9 d) per cell of a
    shape array, the inputs of ``StreamBatch.gamma_block``.  Every shape
    must be finite and >= 1: a nan or infinite shape never passes the
    acceptance test, so its trials would never end."""
    shape = np.asarray(shape, dtype=np.float64)
    if not np.all(np.isfinite(shape) & (shape >= 1.0)):
        raise ValueError("gamma shape parameters must be finite and >= 1")
    d = shape - 1.0 / 3.0
    return d, 1.0 / np.sqrt(9.0 * d)


def _mt_trial(u: np.ndarray, d: np.ndarray, c: np.ndarray) -> tuple:
    """One Marsaglia-Tsang trial per cell from its uniforms u[0], u[1] (the
    normal x) and u[2] (the test); ``u`` is overwritten.  Returns the sample
    d*v, v = (1 + c x)^3, and whether the cell accepts:
    ln u3 < x^2/2 + d - d v + d ln v.  A v <= 0 makes ln v nan or -inf, and
    the test false."""
    x = _box_muller(u[0], u[1], out=u[1])
    v = c * x
    v += 1.0
    np.power(v, 3, out=v)
    sample = d * v
    bound = 0.5 * x
    bound *= x
    bound += d
    bound -= sample
    log_v = np.log(v, out=v)
    log_v *= d
    bound += log_v
    return sample, np.log(u[2], out=u[2]) < bound


class StreamBatch:
    """One counter-based stream per lane (lane = one replication).

    All draw methods advance only the counters of the lanes they draw for, so
    a lane's sequence of values is identical to running that lane alone (a
    one-lane batch).  That property is what makes batched execution
    bit-equivalent to serial per-run execution.
    """

    __slots__ = ("keys", "counters")

    def __init__(self, keys: np.ndarray):
        self.keys = np.asarray(keys, dtype=np.uint64)
        self.counters = np.zeros(self.keys.shape[0], dtype=np.uint64)

    @classmethod
    def for_runs(cls, master_seed: int, run_indices, domain: int = DOMAIN_REWARDS) -> "StreamBatch":
        """One lane per run index, keyed by hashing (master_seed, run, domain).

        Each mix64 is a bijection, so distinct run indices (or domains) under
        one master seed always map to distinct keys.
        """
        runs = np.array(run_indices, dtype=np.int64).reshape(-1)
        if runs.size and runs.min() < 0:
            raise ValueError("run_index must be >= 0")
        keys = np.full(runs.size, master_seed & _MASK64, dtype=np.uint64)
        _mix64_np(keys)
        keys ^= runs.astype(np.uint64)
        _mix64_np(keys)
        keys ^= np.uint64(domain)
        return cls(_mix64_np(keys))

    def __len__(self) -> int:
        return self.keys.shape[0]

    def uniform_lanes(self, lanes: np.ndarray) -> np.ndarray:
        """One uniform for each lane index in ``lanes`` only."""
        return self._uniform_block_rows(lanes, 1)[:, 0]

    def uniform_block(self, n: int) -> np.ndarray:
        """``n`` uniforms per lane; shape (R, n); lane r's draws are sequential."""
        return self._uniform_block_rows(slice(None), n)

    def normal_block(self, n: int) -> np.ndarray:
        """``n`` standard normals per lane; shape (R, n); 2n uniforms per lane.

        Lanes are drawn in row tiles of about TILE_UNIFORMS uniforms each.
        A lane's values depend only on its own (key, j), so the tiling
        changes no value, only the size of the temporaries.
        """
        n_runs = len(self)
        out = np.empty((n_runs, n))
        tiles = max(1, -(-2 * n * n_runs // TILE_UNIFORMS))
        rows_per_tile = max(1, -(-n_runs // tiles))
        for lo in range(0, n_runs, rows_per_tile):
            rows = slice(lo, lo + rows_per_tile)
            u = self._uniform_block_rows(rows, 2 * n)
            _box_muller(u[:, 0::2], u[:, 1::2], out=out[rows])
        return out

    def normal_argmax(self, loc: np.ndarray, scale: np.ndarray) -> np.ndarray:
        """Per lane, the column argmax (lowest index on ties) of
        ``loc + scale * normal_block(C)`` for (R, C) arrays ``loc`` and
        ``scale`` (finite, scale >= 0), bit for bit, advancing every lane's
        counter by 2C as that call would.

        Every cell's radius uniform is drawn and transformed, but the angle
        half (its uniform and the cos) runs only for cells that can win.
        |cos| <= 1 and float rounding is monotone, so no sample exceeds its
        cell's bound loc + scale * radius (widened by PRUNE_SLACK, so the
        proof does not rest on cos staying inside [-1, 1] to the last bit).
        The cells with radius >= PROBE_RADIUS are sampled first; their best
        sample is a lower bound on the lane's maximum, and only the other
        cells whose bound reaches it are sampled next.  Every cell that can
        equal the maximum is sampled, so the argmax and its ties are those of
        the full sample; the rest are counted (the counter advances past
        their draws) but never computed.
        """
        n_runs, n = loc.shape
        # Stream points of the radius uniforms, the odd draws of the block;
        # column c's angle uniform is the next draw, one GOLDEN further on.
        points = self._bases(slice(None), 2 * n)[:, None] + _golden_steps(2 * n)[0::2]
        radius = _bm_radius(_unit(points.copy()))
        bound = radius * PRUNE_SLACK
        bound *= scale
        bound += loc
        scores = np.full((n_runs, n), -np.inf)
        probe = radius >= PROBE_RADIUS
        _sample_cells(scores, np.flatnonzero(probe), points, loc, scale, radius)
        rest = bound >= scores.max(axis=1, keepdims=True)
        rest &= ~probe
        _sample_cells(scores, np.flatnonzero(rest), points, loc, scale, radius)
        return np.argmax(scores, axis=1)

    def _bases(self, rows, n: int) -> np.ndarray:
        """The stream points key + counter * GOLDEN of the lanes ``rows`` (an
        index array or slice), whose counters then advance past a block of
        ``n`` draws; draw j of the block is at base + j * GOLDEN.  An index
        array may repeat a lane: each repeat gets the same base, and the
        lane's counter advances once (numpy's ``+=`` through repeated
        indices writes each element once).  The only code that advances
        ``counters``."""
        base = self.counters[rows] * _NP_GOLDEN
        base += self.keys[rows]
        self.counters[rows] += np.uint64(n)
        return base

    def _uniform_block_rows(self, rows, n: int) -> np.ndarray:
        """``n`` uniforms for each lane in ``rows`` (an index array or slice)
        only; shape (len(rows), n)."""
        return _unit(self._bases(rows, n)[:, None] + _golden_steps(n))

    def gamma_block(self, d: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Gamma(shape, 1) per cell of an (R, C) shape array, given its
        Marsaglia-Tsang constants ``d, c = gamma_constants(shape)``.

        Marsaglia-Tsang squeeze in whole-row trials: each trial a lane with
        any still-pending cell counts 3*C uniforms (u1 block, u2 block, u3
        block; cell j reads draws j, C + j and 2C + j), and a cell keeps its
        first accepted value.  A lane's total consumption therefore depends
        only on its own rejections, never on batch mates.  Every lane's
        first trial is drawn whole, as contiguous (3, R, C) planes; a later
        trial computes only the cells still pending (about 1% of them), but
        its lane's counter advances past the whole row.
        """
        n_runs, n = d.shape
        steps = _golden_steps(3 * n).reshape(3, 1, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            base = self._bases(slice(None), 3 * n)
            # a rejected cell's sample is written over by the trial that
            # accepts it, so each trial writes all of its cells
            out, accept = _mt_trial(_unit(base[:, None] + steps), d, c)
            cells = np.flatnonzero(~accept)
            while cells.size:
                rows, cols = np.divmod(cells, n)
                # a lane with several pending cells advances once per trial
                points = self._bases(rows, 3 * n) + steps[:, 0, cols]
                sample, accept = _mt_trial(_unit(points), d.take(cells), c.take(cells))
                np.put(out, cells, sample)
                cells = cells[~accept]
        return out

    def beta_block(self, d: np.ndarray, c: np.ndarray) -> np.ndarray:
        """Beta(a, b) per cell of (R, C) arrays a, b >= 1, via the two-gamma
        ratio X / (X + Y), given the (R, 2C) constants
        ``d, c = gamma_constants([a | b])`` (each row a's C cells, then b's).

        Both gamma batches are drawn in one fused block.
        """
        both = self.gamma_block(d, c)
        n_cols = both.shape[1] // 2
        x = both[:, :n_cols]
        return x / (x + both[:, n_cols:])
