"""Zoned atom-array geometry: physical parameters, zone rectangles, SLM
site grids, and AOD column structure.

Distances are in micrometers, times in microseconds unless noted. The
default layout packs left cache | compute | right cache side by side with
the memory strip under compute; the right cache doubles as readout. Every
zone keeps a 10 um interior margin as a movement corridor: SLM sites and
the compiler's parking slots start 10 um inside each zone. The one
exception is a retreat's last resort, which tucks its column into memory
beside the blocking column and can park it inside memory's margin: on
perfbench `wide` (seed 1), 122 column moves end there, the first taking
column 9 to x = 272.0, 8 um from the right cache, in layer 2. So no
distance between atoms in adjacent zones is promised; ROADMAP item 4
plans the check that would see such a hazard.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace

# Interior margin inside every zone (movement corridor).
ZONE_MARGIN = 10.0
# Pair separation while a CZ executes; must stay below interaction_radius.
INTERACTION_OFFSET = 1.5

GRID_KINDS = ("large-square", "small-square", "triangle", "star")

_GRID_PITCH = {"large-square": 15.0, "small-square": 10.0}
_TRIANGLE_EDGE = 12.0
_STAR_INNER_PITCH = 10.0
_STAR_OUTER_PITCH = 18.0


class GeometryError(ValueError):
    """Raised for invalid parameters or infeasible geometry requests."""


class CapacityError(GeometryError):
    """Raised when a circuit does not fit the machine."""


@dataclass(frozen=True)
class PhysParams:
    trap_change_time: float = 125.0   # us
    aod_speed: float = 55.0           # um/us
    t1: float = 4.0                   # s
    t2: float = 1.49                  # s
    u3_error: float = 0.000127
    cz_error: float = 0.0048
    swap_error: float = 0.0151
    readout_error: float = 0.05
    atom_loss: float = 0.007
    u3_time: float = 2.0              # us
    cz_time: float = 0.8              # us
    interaction_radius: float = 2.0   # um
    crosstalk_radius: float = 10.0    # um
    storage_pitch: float = 2.0        # um
    max_atoms_per_column: int = 4

    def __post_init__(self):
        for name in ("trap_change_time", "aod_speed", "u3_time", "cz_time",
                     "t1", "t2", "interaction_radius", "crosstalk_radius",
                     "storage_pitch"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be > 0")
        for name in ("u3_error", "cz_error", "swap_error", "readout_error",
                     "atom_loss"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise GeometryError(f"{name} must be in [0, 1)")
        if self.interaction_radius >= self.crosstalk_radius:
            raise GeometryError("interaction_radius must be < crosstalk_radius")
        if self.max_atoms_per_column < 1:
            raise GeometryError("max_atoms_per_column must be >= 1")


_PARAM_NAMES = {f.name for f in fields(PhysParams)}


def load_params(source: str | dict | None = None) -> tuple[PhysParams, str | None]:
    """Merge a flat JSON config over the defaults.

    `source` is a path, a pre-parsed dict, or None for pure defaults.
    Returns (params, layout_scale) where layout_scale is the optional
    "layout_scale" override from the file (None if absent). Every problem
    raises a one-line GeometryError: an unreadable file, malformed JSON,
    an unknown key, a value that is not a finite number (or not an integer
    for max_atoms_per_column), or a violated invariant, which names the
    offending field.
    """
    if source is None:
        return PhysParams(), None
    if isinstance(source, dict):
        data = dict(source)
    else:
        try:
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as e:
            raise GeometryError(f"cannot read params file {source}: "
                                f"{e.strerror or e}") from e
        except ValueError as e:  # malformed JSON or not UTF-8
            raise GeometryError(f"params file {source} is not valid JSON: "
                                f"{e}") from e
        if not isinstance(data, dict):
            raise GeometryError("params file must contain a JSON object")
    layout_scale = data.pop("layout_scale", None)
    if layout_scale is not None and layout_scale not in ("default", "doubled", "auto"):
        raise GeometryError(f"invalid layout_scale {layout_scale!r}")
    unknown = sorted(set(data) - _PARAM_NAMES)
    if unknown:
        raise GeometryError(f"unknown parameter key(s): {', '.join(unknown)}")
    for name, value in data.items():
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            raise GeometryError(f"parameter {name} must be a finite number, "
                                f"got {value!r}")
    if "max_atoms_per_column" in data:
        per_col = data["max_atoms_per_column"]
        if per_col != int(per_col):
            raise GeometryError(f"max_atoms_per_column must be an integer, "
                                f"got {per_col!r}")
        data["max_atoms_per_column"] = int(per_col)
    return replace(PhysParams(), **data), layout_scale


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    w: float
    h: float

    @property
    def x1(self) -> float:
        return self.x0 + self.w

    @property
    def y1(self) -> float:
        return self.y0 + self.h

    def contains(self, x: float, y: float) -> bool:
        """Whether (x, y) lies in the rectangle, edges included, to 1e-9."""
        return (self.x0 - 1e-9 <= x <= self.x1 + 1e-9
                and self.y0 - 1e-9 <= y <= self.y1 + 1e-9)

    def contains_rect(self, other: "Rect") -> bool:
        return (self.x0 <= other.x0 and self.y0 <= other.y0
                and other.x1 <= self.x1 and other.y1 <= self.y1)

    def overlaps(self, other: "Rect") -> bool:
        return (self.x0 < other.x1 and other.x0 < self.x1
                and self.y0 < other.y1 and other.y0 < self.y1)


@dataclass(frozen=True)
class ZoneLayout:
    bounds: Rect
    left_cache: Rect
    compute: Rect
    right_cache: Rect
    memory: Rect

    def zones(self) -> list[Rect]:
        return [self.left_cache, self.compute, self.right_cache, self.memory]

    def in_any_zone(self, x: float, y: float) -> bool:
        return any(z.contains(x, y) for z in self.zones())


def _layout(factor: int) -> ZoneLayout:
    cache_w, cache_h = 80.0 * factor, 130.0 * factor
    comp_w, comp_h = 190.0 * factor, 130.0 * factor
    mem_w, mem_h = 190.0 * factor, 50.0 * factor
    bw, bh = 370.0 * factor, 190.0 * factor
    # Center the zone block inside the physical bounds.
    ox = (bw - (2 * cache_w + comp_w)) / 2
    oy = (bh - (cache_h + mem_h)) / 2
    return ZoneLayout(
        bounds=Rect(0.0, 0.0, bw, bh),
        left_cache=Rect(ox, oy + mem_h, cache_w, cache_h),
        compute=Rect(ox + cache_w, oy + mem_h, comp_w, comp_h),
        right_cache=Rect(ox + cache_w + comp_w, oy + mem_h, cache_w, cache_h),
        memory=Rect(ox + cache_w, oy, mem_w, mem_h),
    )


def _slot_count(span: float, pitch: float) -> int:
    usable = span - 2 * ZONE_MARGIN
    if usable < 0:
        return 0
    return int(math.floor(usable / pitch + 1e-9)) + 1


def cache_column_slots(layout: ZoneLayout, params: PhysParams) -> int:
    """Parking slots for AOD columns along one cache's width."""
    return _slot_count(layout.right_cache.w, params.storage_pitch)


def memory_column_slots(layout: ZoneLayout, params: PhysParams) -> int:
    return _slot_count(layout.memory.w, params.storage_pitch)


def memory_rows(layout: ZoneLayout, params: PhysParams) -> int:
    return _slot_count(layout.memory.h, params.storage_pitch)


def aod_capacity(layout: ZoneLayout, params: PhysParams) -> int:
    """Atoms the AOD can hold with all columns parked in one cache."""
    return cache_column_slots(layout, params) * params.max_atoms_per_column


@dataclass(frozen=True)
class SlmGrid:
    kind: str
    sites: tuple[tuple[float, float], ...]

    def __len__(self) -> int:
        return len(self.sites)


def _lattice(rect: Rect, pitch_x: float, pitch_y: float, offset_x: float = 0.0):
    """Row-major lattice inside rect with ZONE_MARGIN, bottom-left first."""
    x0, y0 = rect.x0 + ZONE_MARGIN, rect.y0 + ZONE_MARGIN
    x1, y1 = rect.x1 - ZONE_MARGIN, rect.y1 - ZONE_MARGIN
    sites = []
    ny = int(math.floor((y1 - y0) / pitch_y + 1e-9)) + 1 if y1 >= y0 else 0
    for iy in range(ny):
        y = y0 + iy * pitch_y
        row_x0 = x0 + (offset_x if iy % 2 else 0.0)
        nx = int(math.floor((x1 - row_x0) / pitch_x + 1e-9)) + 1 if x1 >= row_x0 else 0
        for ix in range(nx):
            sites.append((row_x0 + ix * pitch_x, y))
    return sites


def generate_grid(kind: str, layout: ZoneLayout, params: PhysParams) -> SlmGrid:
    """Deterministic SLM site list for one of the four grid styles.

    large-square: 15 um square lattice (crosstalk-safe between any sites).
    small-square: 10 um square lattice, at the crosstalk boundary.
    triangle: triangular lattice, 12 um edges.
    star: 10 um lattice in the central third of compute, 18 um outside it.
    Sites come out row-major, bottom-left first.
    """
    comp = layout.compute
    if kind in _GRID_PITCH:
        p = _GRID_PITCH[kind]
        sites = _lattice(comp, p, p)
    elif kind == "triangle":
        row_h = _TRIANGLE_EDGE * math.sqrt(3) / 2
        sites = _lattice(comp, _TRIANGLE_EDGE, row_h, offset_x=_TRIANGLE_EDGE / 2)
    elif kind == "star":
        inner = Rect(comp.x0 + comp.w / 3, comp.y0 + comp.h / 3, comp.w / 3, comp.h / 3)
        # Inner sites keep the margin relative to compute, not the inner rect.
        dense = [
            (x, y)
            for (x, y) in _lattice(comp, _STAR_INNER_PITCH, _STAR_INNER_PITCH)
            if inner.contains(x, y)
        ]
        sparse = []
        for (x, y) in _lattice(comp, _STAR_OUTER_PITCH, _STAR_OUTER_PITCH):
            if inner.contains(x, y):
                continue
            if all((x - dx) ** 2 + (y - dy) ** 2 >= params.crosstalk_radius ** 2
                   for dx, dy in dense):
                sparse.append((x, y))
        sites = sorted(dense + sparse, key=lambda s: (s[1], s[0]))
    else:
        raise GeometryError(f"unknown grid kind {kind!r}")
    return SlmGrid(kind, tuple(sites))


def pair_clear_sites(grid: SlmGrid, params: PhysParams) -> list[int]:
    """Indices of sites where a CZ pair can form without crosswalk onto
    neighbors, assuming every other selected site may hold an atom.

    The visiting AOD atom sits at (x + INTERACTION_OFFSET, y); both it and
    the site atom must stay >= crosstalk_radius from every other selected
    site. Greedy in site order, so the selection is deterministic. On the
    15 um grid every site passes; on 10 um grids alternate columns drop.
    """
    r2 = params.crosstalk_radius ** 2
    off = INTERACTION_OFFSET
    chosen: list[int] = []

    def clear(a, b) -> bool:
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 >= r2

    for i, (x, y) in enumerate(grid.sites):
        ok = True
        for j in chosen:
            sx, sy = grid.sites[j]
            if not (clear((x + off, y), (sx, sy)) and clear((sx + off, sy), (x, y))):
                ok = False
                break
        if ok:
            chosen.append(i)
    return chosen


def machine_capacity(layout: ZoneLayout, params: PhysParams,
                     grid_kind: str = "large-square") -> int:
    """Qubits the machine holds: one per clear SLM site, plus the AOD's."""
    grid = generate_grid(grid_kind, layout, params)
    return len(pair_clear_sites(grid, params)) + aod_capacity(layout, params)


def build_layout(num_qubits: int, scale: str = "default",
                 params: PhysParams | None = None,
                 grid_kind: str = "large-square") -> ZoneLayout:
    """Build the zone layout, doubling dimensions when `auto` demands it."""
    if num_qubits < 1:
        raise GeometryError("num_qubits must be >= 1")
    params = params or PhysParams()
    if scale == "default":
        return _layout(1)
    if scale == "doubled":
        return _layout(2)
    if scale != "auto":
        raise GeometryError(f"unknown scale {scale!r}")
    default = _layout(1)
    # The AOD alone holds this many, so the SLM sites need not be counted.
    if num_qubits <= aod_capacity(default, params) or \
            num_qubits <= machine_capacity(default, params, grid_kind):
        return default
    doubled = _layout(2)
    capacity = machine_capacity(doubled, params, grid_kind)
    if num_qubits <= capacity:
        return doubled
    raise CapacityError(
        f"{num_qubits} qubits exceed the doubled layout's capacity ({capacity})")


def validate_geometry(layout: ZoneLayout, grid: SlmGrid,
                      params: PhysParams) -> list[str]:
    """All violations of the zone/grid invariants; empty means ok."""
    violations = []
    for name, zone in (("left_cache", layout.left_cache),
                       ("compute", layout.compute),
                       ("right_cache", layout.right_cache),
                       ("memory", layout.memory)):
        if not layout.bounds.contains_rect(zone):
            violations.append(f"zone {name} exceeds bounds")
    zones = layout.zones()
    names = ["left_cache", "compute", "right_cache", "memory"]
    for i in range(len(zones)):
        for j in range(i + 1, len(zones)):
            if zones[i].overlaps(zones[j]):
                violations.append(f"zones {names[i]} and {names[j]} overlap")
    comp = layout.compute
    m = params.crosstalk_radius
    for i, (x, y) in enumerate(grid.sites):
        if not (comp.x0 + m <= x <= comp.x1 - m and comp.y0 < y < comp.y1):
            violations.append(f"site {i} at ({x}, {y}) outside compute margins")
    r_int2 = params.interaction_radius ** 2
    r_ct2 = params.crosstalk_radius ** 2
    sites = grid.sites
    for i in range(len(sites)):
        xi, yi = sites[i]
        for j in range(i + 1, len(sites)):
            d2 = (xi - sites[j][0]) ** 2 + (yi - sites[j][1]) ** 2
            if d2 < r_int2 - 1e-9:
                violations.append(f"site pair ({i},{j}) below interaction radius")
            elif grid.kind == "large-square" and d2 < r_ct2 - 1e-9:
                violations.append(f"site pair ({i},{j}) below crosstalk radius")
    return violations
