"""The benchmark's inputs: three map generators, their run configs and
rules, written as PGM + truth JSON + config files.

The generators are copies kept here on purpose, so that a change to the
test fixtures or to `semmap.evaluation` cannot silently change what the
benchmark measures. Every generated file is checked against the SHA-256
recorded in `inputs.sha256.json` on every run.

    python3 perfbench/maps.py --update-hashes   # regenerate, record hashes

Workloads and their maps:
  floor        noisy 8-unit synthetic floors (300x200 cells, 0.05 m, 5% class
               flips), map seed = chain seed; seeds 0-9 are recorded
  two_rooms    the two-rooms prior map (130x320 cells, 0.05 m), noise-free;
               the seed is the chain seed
  paper_scale  the 1237x672 paper-scale floor (0.1 m, 3% flips), map seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

import oracle
from oracle import FREE, OCCUPIED, UNKNOWN

HERE = os.path.dirname(os.path.abspath(__file__))
HASH_FILE = os.path.join(HERE, "inputs.sha256.json")
RECORDED_SEEDS = {"floor": range(10), "two_rooms": range(10), "paper_scale": range(1)}

# occupancy written for each class; the PGM pixel is round((1 - v) * 255)
VALUE_OF_CLASS = {OCCUPIED: 0.9, UNKNOWN: 0.5, FREE: 0.1}

DEFAULT_RULES = """\
# basic features
hard :: Adj(p,q) -> Adj(q,p)
hard :: SaLe(p,q) -> SaLe(q,p)
# reasoning on type
hard :: HaLi(p) -> Hall(p)
hard :: HaLi(p) -> !Room(p)
hard :: HaLi(p) -> !Corr(p)
hard :: HaLi(p) -> !Other(p)
hard :: RoLi(p) -> !Hall(p)
hard :: CoLi(p) -> !Hall(p)
2.0 :: RoLi(p) & !MulDoor(p) -> Room(p)
2.0 :: RoLi(p) & !MulDoor(p) -> !Corr(p)
hard :: RoLi(p) & MulDoor(p) -> Other(p)
hard :: CoLi(p) & !MulDoor(p) -> Other(p)
2.0 :: CoLi(p) & MulDoor(p) -> Corr(p)
2.0 :: CoLi(p) & MulDoor(p) -> !Room(p)
# reasoning on SaLe
hard :: !Adj(q,p) -> !SaLe(p,q)
hard :: Room(p) & Room(q) & Adj(p,q) -> SaLe(p,q)
hard :: Room(p) & Hall(q) & Adj(p,q) -> !SaLe(p,q)
hard :: Room(p) & Corr(q) & Adj(p,q) -> !SaLe(p,q)
hard :: Hall(p) & Corr(q) & Adj(p,q) -> !SaLe(p,q)
hard :: Other(p) & Hall(q) & Adj(p,q) -> !SaLe(p,q)
hard :: Other(p) & Corr(q) & Adj(p,q) -> !SaLe(p,q)
hard :: Other(p) & Room(q) & Adj(p,q) -> !SaLe(p,q)
"""
# the same clauses, every one hard
HARD_RULES = "".join(
    "hard ::" + line.split("::", 1)[1] + "\n" for line in DEFAULT_RULES.splitlines() if "::" in line
)


def _kernel_lines(weights) -> str:
    return "".join(f"kernel_weight.{k} = {v}\n" for k, v in weights.items())


def floor_config(seed: int) -> str:
    # the end-to-end recovery configuration: merge-leaning kernel mixture
    return f"seed = {seed}\niterations = 60000\nburn_in = 3000\nhall_area_min_m2 = 25.0\n" + (
        "mln_refresh_structural = 8\nmln_refresh_geometric = 150\n"
    ) + _kernel_lines(
        {"shrink": 0.12, "dilate": 0.12, "interchange": 0.14, "split": 0.22, "merge": 0.18,
         "add": 0.08, "remove": 0.08, "allocate": 0.03, "delete": 0.03}
    )


def two_rooms_config(seed: int) -> str:
    # the prior-suppression configuration: prior on, all-hard rules, refresh
    # cadence 4 structural / 60 geometric accepted moves
    return f"seed = {seed}\niterations = 32000\nburn_in = 5000\nprior_enabled = true\nsigma_len = 3.0\n" + (
        "mln_refresh_structural = 4\nmln_refresh_geometric = 60\nrules_file = {rules}\n"
    ) + _kernel_lines(
        {"shrink": 0.125, "dilate": 0.125, "interchange": 0.2, "split": 0.25, "merge": 0.1,
         "add": 0.1, "remove": 0.05, "allocate": 0.025, "delete": 0.025}
    )


def paper_scale_config(seed: int) -> str:
    # the throughput configuration: defaults, 3000 iterations
    return f"seed = {seed}\niterations = 3000\nburn_in = 500\n"


# ---------------------------------------------------------------------------
# synthetic floors: unit footprints (end-exclusive, walls included), doors on
# shared walls, object blobs and class-conditional flips


def _shared_wall(a, b):
    return max(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), min(a[3], b[3])


def synthesize(spec: dict, seed: int):
    """Rasterize a floor spec; returns (classes, truth world dict)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    t = spec["wall_thickness"]
    rects = [r for _, r in spec["units"]]
    cls = np.full((spec["height"], spec["width"]), UNKNOWN, dtype=np.int8)
    for x0, y0, x1, y1 in rects:
        cls[y0 + t : y1 - t, x0 + t : x1 - t] = FREE
    for x0, y0, x1, y1 in rects:
        band = np.zeros((y1 - y0, x1 - x0), dtype=bool)
        band[:t, :] = band[-t:, :] = band[:, :t] = band[:, -t:] = True
        cls[y0:y1, x0:x1][band] = OCCUPIED
    doors = []
    for i, j, frac, width in spec["doors"]:
        x0, y0, x1, y1 = _shared_wall(rects[i], rects[j])
        if x1 - x0 >= y1 - y0:
            start = x0 + int(round(frac * max(x1 - x0 - width, 0)))
            stop = min(start + int(width), x1)
            cls[y0:y1, start:stop] = FREE
            mid = (y0 + y1) / 2.0
            p0, p1 = (float(start), mid), (float(stop), mid)
        else:
            start = y0 + int(round(frac * max(y1 - y0 - width, 0)))
            stop = min(start + int(width), y1)
            cls[start:stop, x0:x1] = FREE
            mid = (x0 + x1) / 2.0
            p0, p1 = (mid, float(start)), (mid, float(stop))
        doors.append({"units": [i, j], "p0": list(p0), "p1": list(p1), "width": float(stop - start)})
    for _, (x0, y0, x1, y1) in spec["objects"]:
        cls[y0:y1, x0:x1] = UNKNOWN

    clean = cls.copy()
    flip_draw = rng.random(cls.shape)
    target_draw = rng.random(cls.shape)
    p = spec["flip"]
    if p > 0:
        for state in (OCCUPIED, UNKNOWN, FREE):
            sel = (clean == state) & (flip_draw < p)
            others = [s for s in (OCCUPIED, UNKNOWN, FREE) if s != state]
            cls[sel & (target_draw < 0.5)] = others[0]
            cls[sel & (target_draw >= 0.5)] = others[1]

    units = [(i, (r[0] + r[2]) / 2.0, (r[1] + r[3]) / 2.0, (r[2] - r[0]) / 2.0, (r[3] - r[1]) / 2.0, 0.0)
             for i, r in enumerate(rects)]
    types = [name for name, _ in spec["units"]]
    return cls, truth_world(units, types, doors, spec["resolution"], cls.shape)


def floor_spec(seed: int) -> dict:
    """An 8-unit floor at 300x200 cells: a row of rooms (and a hall) over a
    long corridor, three rooms below, one door per unit to the corridor and
    an object blob in the first room."""
    rng = np.random.default_rng(seed)
    units = []
    n_top = 3 + int(rng.integers(2))
    if n_top == 3:
        for _ in range(200):
            widths = [int(rng.integers(60, 85)) for _ in range(n_top)]
            hall_w = 280 - sum(w - 4 for w in widths)
            if 96 <= hall_w <= 150:
                break
        x = 10
        for w in widths:
            units.append(("room", (x, 10, x + w, 124)))
            x += w - 4
        units.append(("hall", (x, 10, x + hall_w, 124)))
    else:
        for _ in range(200):
            widths = [int(rng.integers(64, 81)) for _ in range(n_top - 1)]
            last = 280 - sum(w - 4 for w in widths)
            if 60 <= last <= 84:
                widths.append(last)
                break
        x = 10
        for w in widths:
            units.append(("room", (x, 10, x + w, 124)))
            x += w - 4
    corridor = len(units)
    units.append(("corridor", (10, 120, 290, 152)))
    for _ in range(200):
        bw = [int(rng.integers(80, 109)) for _ in range(2)]
        last = 280 - sum(w - 4 for w in bw)
        if 72 <= last <= 120:
            bw.append(last)
            break
    x = 10
    for w in bw:
        units.append(("room", (x, 148, x + w, 190)))
        x += w - 4
    doors = []
    for i, (kind, _) in enumerate(units):
        if i != corridor:
            doors.append((i, corridor, float(rng.uniform(0.3, 0.7)), 14 if kind == "hall" else 12))
    ix0, iy0, ix1, iy1 = (c + d for c, d in zip(units[0][1], (2, 2, -2, -2)))
    bx = int(rng.integers(ix0 + 4, ix1 - 16))
    by = int(rng.integers(iy0 + 4, iy1 - 16))
    return {"width": 300, "height": 200, "resolution": 0.05, "wall_thickness": 2, "units": units,
            "doors": doors, "objects": [(0, (bx, by, bx + 12, by + 12))], "flip": 0.05}


def paper_scale_spec() -> dict:
    """Eleven rooms in two rows on either side of a corridor, 1237x672 cells
    at 0.1 m, every room with one 18-cell door to the corridor."""
    units, doors = [], []
    x = 20
    for w in (200, 196, 204, 198, 202, 197):
        units.append(("room", (x, 20, x + w, 300)))
        x += w - 4
    corridor = len(units)
    units.append(("corridor", (20, 296, x, 380)))
    xb = 20
    for w in (240, 238, 242, 236, 241):
        units.append(("room", (xb, 376, xb + w, 650)))
        xb += w - 4
    doors = [(i, corridor, 0.5, 18) for i in range(len(units)) if i != corridor]
    return {"width": 1237, "height": 672, "resolution": 0.1, "wall_thickness": 2, "units": units,
            "doors": doors, "objects": [], "flip": 0.03}


# units of the two-rooms map: room R1 beside room A, A's divider against
# the long unit H below runs anywhere in a thick occupied block, tail R3
TWO_ROOMS_UNITS = [
    (990, 30.0, 32.0, 20.0, 22.0, 0.0),  # R1 (10,10,50,54)
    (991, 84.0, 32.0, 34.0, 22.0, 0.0),  # A (50,10,118,54)
    (992, 84.0, 182.0, 34.0, 128.0, 0.0),  # H (50,54,118,310)
    (993, 30.0, 182.0, 20.0, 128.0, 0.0),  # R3 (10,54,50,310)
]
TWO_ROOMS_R1, TWO_ROOMS_A = 0, 1


def two_rooms_map():
    """The prior-suppression map: the likelihood is flat over the position of
    A's divider inside the occupied block, so only the connecting-wall prior
    prefers A as tall as R1's shared wall."""
    cls = np.full((320, 130), UNKNOWN, dtype=np.int8)
    cls[10:310, 48:118] = FREE
    cls[10:310, 48:52] = OCCUPIED
    cls[10:310, 116:118] = OCCUPIED
    cls[10:12, 48:118] = OCCUPIED
    cls[308:310, 48:118] = OCCUPIED
    cls[40:68, 48:118] = OCCUPIED
    cls[10:310, 10:12] = OCCUPIED
    cls[10:12, 10:48] = OCCUPIED
    cls[308:310, 10:48] = OCCUPIED
    cls[52:56, 10:52] = OCCUPIED
    cls[12:52, 12:48] = FREE
    cls[56:308, 12:48] = FREE
    # truth types follow the geometry classifier at hall_area_min 40 m^2
    types = ["room", "room", "hall", "corridor"]
    return cls, truth_world(TWO_ROOMS_UNITS, types, [], 0.05, cls.shape)


def truth_world(units, types, doors, resolution, shape) -> dict:
    """A truth world in the world.json schema; relations use the program's
    adjacency definition at its defaults (radius 3, 4 overlap cells)."""
    n = len(units)
    rel = [[0] * n for _ in range(n)]
    for p in range(n):
        for q in range(p + 1, n):
            if oracle.adjacent(units[p], units[q], shape, radius=3, min_overlap=4):
                rel[p][q] = rel[q][p] = 1
    uid = [u[0] for u in units]
    return {
        "version": 1,
        "resolution": resolution,
        "units": [{"id": u[0], "center": [u[1], u[2]], "half_extent": [u[3], u[4]], "angle": u[5], "type": t}
                  for u, t in zip(units, types)],
        "relations": rel,
        "doors": [dict(d, units=[uid[d["units"][0]], uid[d["units"][1]]]) for d in doors],
        "objects": [],
        "unexplored": [],
    }


# ---------------------------------------------------------------------------
# writing and checking


def pgm_bytes(cls: np.ndarray) -> bytes:
    values = np.empty(cls.shape, dtype=np.float64)
    for state, v in VALUE_OF_CLASS.items():
        values[cls == state] = v
    pixels = np.round((1.0 - values) * 255.0).astype(np.uint8)
    h, w = cls.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.tobytes()


def map_files(workload: str, seed: int) -> dict:
    """Every input file of one map run: {file name: bytes}, plus the PGM
    resolution under the key 'resolution'."""
    if workload == "floor":
        cls, truth = synthesize(floor_spec(seed), seed)
        config, rules = floor_config(seed), DEFAULT_RULES
        name = f"floor-{seed}"
    elif workload == "two_rooms":
        cls, truth = two_rooms_map()
        config, rules = two_rooms_config(seed), HARD_RULES
        name = f"two_rooms-{seed}"
    elif workload == "paper_scale":
        cls, truth = synthesize(paper_scale_spec(), seed)
        config, rules = paper_scale_config(seed), DEFAULT_RULES
        name = f"paper_scale-{seed}"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if "{rules}" in config:
        config = config.replace("{rules}", f"{name}.rules")
    files = {
        f"{name}.pgm": pgm_bytes(cls),
        f"{name}.truth.json": (json.dumps(truth, sort_keys=True, indent=1) + "\n").encode(),
        f"{name}.cfg": config.encode(),
    }
    if "rules_file" in config:
        files[f"{name}.rules"] = rules.encode()
    return files


def write_map(workload: str, seed: int, directory: str, recorded: dict) -> dict:
    """Generate one map's inputs into directory after checking each file
    against its recorded SHA-256; returns their paths by suffix."""
    files = map_files(workload, seed)
    paths = {}
    for fname, data in files.items():
        digest = hashlib.sha256(data).hexdigest()
        want = recorded.get(fname)
        if want is None:
            raise ValueError(f"no recorded hash for {fname}; run maps.py --update-hashes")
        if digest != want:
            raise ValueError(f"{fname}: SHA-256 {digest} differs from the recorded {want}")
        path = os.path.join(directory, fname)
        with open(path, "wb") as fh:
            fh.write(data)
        paths[fname.split(".", 1)[1]] = path
    return paths


def load_hashes() -> dict:
    with open(HASH_FILE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--update-hashes", action="store_true", help="regenerate every recorded map and rewrite the hashes")
    args = parser.parse_args(argv)
    if not args.update_hashes:
        parser.print_help()
        return 2
    hashes = {}
    for workload, seeds in RECORDED_SEEDS.items():
        for seed in seeds:
            for fname, data in map_files(workload, seed).items():
                hashes[fname] = hashlib.sha256(data).hexdigest()
    with open(HASH_FILE, "w", encoding="utf-8") as fh:
        json.dump(hashes, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(f"recorded {len(hashes)} hashes in {HASH_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
