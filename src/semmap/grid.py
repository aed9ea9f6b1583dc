"""Occupancy-grid ingestion, tri-state classification and binary morphology.

Grids are stored row-major as numpy arrays of shape (height, width); the cell
at map coordinate (x, y) lives at ``values[y, x]``. Occupancy follows the
white=free convention of typical SLAM exports: a PGM pixel value v maps to
occupancy 1 - v/maxval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np
from scipy import ndimage

from .errors import InvalidThresholds, MalformedFile, UnsupportedFormat

DEFAULT_RESOLUTION = 0.05  # meters per cell
DEFAULT_FREE_BELOW = 0.25
DEFAULT_OCCUPIED_ABOVE = 0.65

# Fixed palette for ClassifiedGrid PGM round-trips.
PALETTE = {0: 0, 1: 128, 2: 255}  # Occupied, Unknown, Free


class CellState(IntEnum):
    """Tri-state classification of an input map cell."""

    OCCUPIED = 0
    UNKNOWN = 1
    FREE = 2


@dataclass(frozen=True)
class OccupancyGrid:
    """Raw occupancy probabilities in [0, 1], row-major."""

    values: np.ndarray
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("grid must be a 2D array with positive dimensions")
        if np.any(v < 0.0) or np.any(v > 1.0):
            raise ValueError("occupancy values must lie in [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ClassifiedGrid:
    """Per-cell CellState values, same frame as the source grid."""

    states: np.ndarray
    resolution: float = DEFAULT_RESOLUTION

    def __post_init__(self):
        s = np.asarray(self.states, dtype=np.int8)
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError("grid must be a 2D array with positive dimensions")
        if np.any((s < 0) | (s > 2)):
            raise ValueError("states must be CellState values")
        s.setflags(write=False)
        object.__setattr__(self, "states", s)

    @property
    def height(self) -> int:
        return self.states.shape[0]

    @property
    def width(self) -> int:
        return self.states.shape[1]


@dataclass
class LabelMap:
    """Connected-component labeling: 0 is background, labels are 1..count."""

    labels: np.ndarray
    count: int
    # per-component (label order): (x0, y0, x1, y1) inclusive bounds and sizes
    bboxes: list = field(default_factory=list)
    sizes: list = field(default_factory=list)


def _read_pgm_tokens(data: bytes, n: int, offset: int):
    """Read n whitespace-separated ASCII integer tokens starting at offset."""
    tokens = []
    i = offset
    while len(tokens) < n and i < len(data):
        while i < len(data) and data[i : i + 1].isspace():
            i += 1
        if i < len(data) and data[i : i + 1] == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j : j + 1].isspace():
            j += 1
        if j > i:
            tokens.append(data[i:j])
        i = j
    if len(tokens) < n:
        raise MalformedFile("truncated PGM header or pixel data")
    return tokens, i


def load_grid(path, resolution: float = DEFAULT_RESOLUTION) -> OccupancyGrid:
    """Load a PGM (P2 ASCII or P5 binary) occupancy map.

    Pixel value v becomes occupancy 1 - v/maxval, so white (maxval) is free
    and black (0) is occupied.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise MalformedFile("file too short for a PGM header")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise UnsupportedFormat(f"not a PGM file (magic {magic!r})")
    try:
        header, pos = _read_pgm_tokens(data, 3, 2)
        width, height, maxval = (int(t) for t in header)
    except (ValueError, MalformedFile) as exc:
        raise MalformedFile(f"bad PGM header: {exc}") from exc
    if width < 1 or height < 1:
        raise MalformedFile("PGM dimensions must be positive")
    if maxval <= 0:
        raise MalformedFile("PGM maxval must be > 0")

    n = width * height
    if magic == b"P2":
        try:
            tokens, _ = _read_pgm_tokens(data, n, pos)
            pixels = np.array([int(t) for t in tokens], dtype=np.float64)
        except (ValueError, MalformedFile) as exc:
            raise MalformedFile(f"bad P2 pixel data: {exc}") from exc
    else:
        if maxval > 255:
            raise UnsupportedFormat("16-bit P5 not supported")
        start = pos + 1  # single whitespace after maxval
        raw = data[start : start + n]
        if len(raw) != n:
            raise MalformedFile("P5 pixel data shorter than width*height")
        pixels = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    if np.any(pixels > maxval):
        raise MalformedFile("pixel value exceeds maxval")
    occ = 1.0 - pixels / float(maxval)
    return OccupancyGrid(occ.reshape(height, width), resolution=resolution)


def save_classified_pgm(cgrid: ClassifiedGrid, path) -> None:
    """Write a ClassifiedGrid as P5 with the palette 0/128/255."""
    lut = np.array([PALETTE[0], PALETTE[1], PALETTE[2]], dtype=np.uint8)
    img = lut[cgrid.states]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cgrid.width} {cgrid.height}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def check_thresholds(free_below: float, occupied_above: float):
    if not (0.0 <= free_below <= occupied_above <= 1.0):
        raise InvalidThresholds(
            f"need 0 <= free_below <= occupied_above <= 1, got {free_below}, {occupied_above}"
        )


def classify(
    grid: OccupancyGrid,
    free_below: float = DEFAULT_FREE_BELOW,
    occupied_above: float = DEFAULT_OCCUPIED_ABOVE,
) -> ClassifiedGrid:
    """Discretize occupancy values into {occupied, unknown, free}."""
    check_thresholds(free_below, occupied_above)
    states = np.full(grid.values.shape, CellState.UNKNOWN, dtype=np.int8)
    states[grid.values < free_below] = CellState.FREE
    states[grid.values > occupied_above] = CellState.OCCUPIED
    return ClassifiedGrid(states, resolution=grid.resolution)


def dilate(mask: np.ndarray, radius: int) -> np.ndarray:
    """Binary dilation with a square (Chebyshev) structuring element.

    Output bit is set iff any input bit lies within Chebyshev distance
    <= radius; radius 0 is the identity.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    mask = np.asarray(mask, dtype=bool)
    if radius == 0:
        return mask.copy()
    size = 2 * radius + 1
    return ndimage.maximum_filter(mask, size=size, mode="constant", cval=False)


def connected_components(mask: np.ndarray, connectivity: int = 4) -> LabelMap:
    """Label connected regions of set bits.

    Labels are assigned in row-major first-encounter order, 1..count.
    """
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    mask = np.asarray(mask, dtype=bool)
    structure = (
        np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
        if connectivity == 4
        else np.ones((3, 3), dtype=int)
    )
    raw, n = ndimage.label(mask, structure=structure)
    if n == 0:
        return LabelMap(labels=np.zeros_like(raw, dtype=np.int32), count=0)

    flat = raw.ravel()
    vals, first_idx = np.unique(flat, return_index=True)
    keep = vals != 0
    vals, first_idx = vals[keep], first_idx[keep]
    order_of = np.zeros(n + 1, dtype=np.int32)
    order_of[vals[np.argsort(first_idx, kind="stable")]] = np.arange(1, n + 1)
    labels = order_of[raw].astype(np.int32)

    bboxes = []
    sizes = []
    slices = ndimage.find_objects(labels, max_label=n)
    for lab in range(1, n + 1):
        sl = slices[lab - 1]
        ys, xs = sl
        bboxes.append((xs.start, ys.start, xs.stop - 1, ys.stop - 1))
        sizes.append(int(np.count_nonzero(labels[sl] == lab)))
    return LabelMap(labels=labels, count=n, bboxes=bboxes, sizes=sizes)


def coverage(cgrid: ClassifiedGrid) -> float:
    """Fraction of known cells inside the bounding box of all known cells.

    Returns 0 for an entirely unknown grid.
    """
    known = cgrid.states != CellState.UNKNOWN
    if not known.any():
        return 0.0
    ys, xs = np.nonzero(known)
    box = known[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    return float(np.count_nonzero(box)) / box.size
