"""Interpretability outputs: per-bin attention heatmaps and gradient-based
effective-receptive-field (ERF) maps.

Heatmap relevance for token k and bin b is the pooling weight A_k times the
magnitude of the bin-b logit gradient along the token's pooled direction,
|classifier_column_b . z_norm_k|, min-max normalized per bin. The ERF map is
the channel-summed absolute gradient of the class-token trunk output with
respect to the embedded token grid, log(1+x) scaled for emission.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .bags import FeatureBag, grid_coords
from .errors import DataError
from .model import ModelConfig, ModelParams, forward
from .rng import substream


@dataclass(frozen=True)
class HeatmapTable:
    """One row per original patch: coordinates plus 4 per-bin weights in [0,1]."""

    coords: np.ndarray  # (N, 2) int32
    weights: np.ndarray  # (N, 4) float64

    def rows(self):
        for (x, y), w in zip(self.coords, self.weights):
            yield int(x), int(y), float(w[0]), float(w[1]), float(w[2]), float(w[3])


@dataclass(frozen=True)
class ErfMap:
    grid: np.ndarray  # (side, side), log1p-scaled intensities
    raw: np.ndarray  # (side, side), raw summed |gradient|

    @property
    def side(self) -> int:
        return self.grid.shape[0]


def _minmax_per_column(values: np.ndarray) -> np.ndarray:
    out = np.zeros_like(values)
    for b in range(values.shape[1]):
        col = values[:, b]
        lo, hi = col.min(), col.max()
        if hi > lo:
            out[:, b] = (col - lo) / (hi - lo)
    return out


def attention_heatmap(bag: FeatureBag, params: ModelParams) -> HeatmapTable:
    """Per-bin patch relevance mapped back onto the bag's coordinates.

    Padding tokens are dropped before emission, so the table has exactly one
    row per original patch, in bag order; a constant relevance column emits
    as all zeros.
    """
    params.check_finite()
    with no_grad():
        _, trace = forward(bag, params)
    clf_w = params["clf.W"].data.astype(np.float64)  # (d_model, 4)
    n = bag.n_patches
    tokens = trace.z_norm[1 : 1 + n]  # grid tokens for real patches
    pool_w = trace.pool_weights[1 : 1 + n]
    relevance = pool_w[:, None] * np.abs(tokens @ clf_w)
    return HeatmapTable(coords=bag.coords.copy(), weights=_minmax_per_column(relevance))


def erf_map(
    bag: FeatureBag | None,
    params: ModelParams,
    config: ModelConfig | None = None,
    side: int = 8,
    seed: int = 0,
) -> ErfMap:
    """ERF of the class-token trunk output over the embedded token grid.

    With ``bag=None`` a synthetic standard-normal grid of ``side`` x ``side``
    patches is generated (seeded). Intensity per grid cell is the sum over
    channels of |d y_c / d token|, where y_c is the channel-summed class-token
    output; the emitted grid is log(1 + intensity).
    """
    params.check_finite()
    if bag is None:
        rng = substream(seed, "erf-grid")
        n = side * side
        bag = FeatureBag(
            slide_id=f"erf-grid-{side}",
            features=rng.standard_normal((n, params.config.d_in)),
            coords=grid_coords(n),
        )
    _, trace = forward(bag, params, config)
    final_seq = trace.tensors["final_seq"]
    y_c = final_seq[0:1].sum()
    y_c.backward()
    embedded = trace.tensors["embedded"]
    if embedded.grad is None:  # the class row always reaches it, unless nothing was recorded
        raise RuntimeError("erf_map needs gradients and cannot run inside no_grad()")
    intensity = token_intensity(embedded.grad[1:])  # skip class row
    grid_side = math.isqrt(trace.n_prime)
    raw = intensity.reshape(grid_side, grid_side)
    if np.isnan(raw).all():
        raise DataError("ERF intensities are all NaN")
    return ErfMap(grid=np.log1p(raw), raw=raw)


def token_intensity(grad_matrix: np.ndarray) -> np.ndarray:
    """Channel-summed absolute gradient per token (the ERF reduction)."""
    return np.abs(np.asarray(grad_matrix)).sum(axis=1).astype(np.float64)


PGM_LEVELS = 255


def _pgm(unit: np.ndarray, comment: str | None) -> str:
    """Plain-text PGM (P2) image of a square grid of values in [0, 1]."""
    side = unit.shape[0]
    lines = ["P2"] + ([f"# {comment}"] if comment else []) + [f"{side} {side}", str(PGM_LEVELS)]
    lines += [" ".join(str(v) for v in row) for row in np.rint(unit * PGM_LEVELS).astype(np.int64)]
    return "\n".join(lines) + "\n"


def erf_to_pgm(erf: ErfMap, comment: str | None = None) -> str:
    """Render the scaled grid, max-normalized, as a PGM image."""
    hi = erf.grid.max()
    return _pgm(np.zeros_like(erf.grid) if hi <= 0 else erf.grid / hi, comment)


def heatmap_to_pgm(table: HeatmapTable, bin_index: int, comment: str | None = None) -> str:
    """Nearest-neighbor binning of one heatmap column onto a square raster
    of side isqrt(n_patches), as a PGM image."""
    if not (0 <= bin_index < 4):
        raise DataError("bin_index must be 0..3")
    coords = table.coords.astype(np.float64)
    side = max(1, math.isqrt(coords.shape[0]))
    raster = np.zeros((side, side))
    counts = np.zeros((side, side))
    spans = coords.max(axis=0) - coords.min(axis=0)
    spans[spans == 0] = 1.0
    norm = (coords - coords.min(axis=0)) / spans
    cells = np.minimum((norm * side).astype(int), side - 1)
    for (cx, cy), w in zip(cells, table.weights[:, bin_index]):
        raster[cy, cx] += w
        counts[cy, cx] += 1
    filled = counts > 0
    raster[filled] /= counts[filled]
    return _pgm(raster, comment)
