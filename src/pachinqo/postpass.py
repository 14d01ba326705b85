"""Decision-free passes over a compile's emitted event list.

`Compiler.emit` appends each move phase as one record, a dict of its
untimed moves by cid, and every other event as it comes. `Compiler.run`
then runs `pack_rotations`, `compose`, `hold_columns` and
`scheduler.retime` on that list, in this order. No pass makes a decision
or keeps a clock: each edits only the event list, so any of them can run
on a copy of saved events. What each reads:

- `pack_rotations(events, n)`: the U3 layers, the atoms each
  illumination pairs and the qubit count;
- `compose(events)`: the move records and whether an event stands
  between two of them;
- `hold_columns(events, layout, params, serial, one_cache)`: every event,
  the zones, the cost model, the movement timing and whether there is
  one cache;
- `scheduler.retime(events, params, serial)`: every event, the cost model
  and the movement timing.
"""
from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field

from .machine import PhysParams, ZoneLayout, hang_y, inner_x, slot_y
from .metrics import move_duration
from .schedule import SLM_TO_AOD, ColumnMove, Illumination, TrapChange, U3LayerEvent


def travels(m: ColumnMove) -> bool:
    """Whether m goes anywhere: its column's x or an atom's y changes."""
    return m.from_x != m.to_x or any(fy != ty for _, fy, ty in m.atoms)


@dataclass
class _Phase:
    """A move phase as `hold_columns` reads and edits it: its record (the
    event list's dict of its moves by cid, which the pass edits in place);
    the index of the state after it; its moves' durations, which the pass
    weighs holds by (`retime` times the phase); and for each column whose
    next move follows with no event involving it in between, that move's
    phase."""

    moves: dict[int, ColumnMove]
    state: int
    durations: dict[int, float] = field(default_factory=dict)
    next_move: dict[int, int] = field(default_factory=dict)


def pack_rotations(events: list, n: int) -> list:
    """Run every rotation of `events`, on n qubits, SWAP steps included, in
    the fewest U3 layers.

    A rotation commutes with every event that leaves its atom alone, so
    its window runs from the first U3 layer after the last illumination
    pairing its atom to the last one before the next; measures follow
    every U3 layer. That holds for a SWAP's steps too: after step 7,
    wire a's last, wire a's atom holds qubit b, which unlocks there
    (`verifier`), so step 8, a U3 on wire b, waits only for the next
    illumination on its own atom. Each atom's rotations keep their
    order, one per layer, and a SWAP's steps keep template order (steps
    2-3 and 5-6 may share a layer). Deadlines tighten backward through
    these orders. Then, by earliest deadline, each rotation takes the
    earliest kept layer at or after the layer its window and orders
    release it at, or else keeps its deadline layer (a greedy interval
    cover). Each layer lists its rotations in their original order,
    which keeps every order within a layer. Returns `events` without the
    layers left empty; the kept layers' rotations are set in place, and
    every other event and layer number stays as it was."""
    entries: list = []  # every rotation, in event order
    release: list[int] = []
    deadline: list[float] = []
    # preds[r]: (rotation, 1 if r runs in a strictly later layer, else 0)
    preds: list[list[tuple[int, int]]] = []
    opened = [0] * n  # first U3 layer after the atom's last illumination
    last: dict[int, int] = {}  # atom -> its last rotation
    # closing[atom]: rotations whose window its next illumination closes
    closing: list[list[int]] = [[] for _ in range(n)]
    step_before: dict[int, int] = {}  # swap id -> its last rotation step
    layers: list[U3LayerEvent] = []  # the U3 layers so far
    for ev in events:
        if isinstance(ev, U3LayerEvent):
            for g in ev.gates:
                r = len(entries)
                entries.append(g)
                release.append(opened[g.atom])
                deadline.append(math.inf)
                pr = [(last[g.atom], 1)] if g.atom in last else []
                last[g.atom] = r
                closing[g.atom].append(r)
                if g.origin is not None:
                    sid = g.origin[0]
                    if sid in step_before:
                        pr.append((step_before[sid], 0))
                    step_before[sid] = r
                preds.append(pr)
            layers.append(ev)
        elif isinstance(ev, Illumination):
            for p in ev.pairs:
                for a in p.atoms:
                    opened[a] = len(layers)
                    for r in closing[a]:
                        deadline[r] = min(deadline[r], len(layers) - 1)
                    closing[a] = []
    deadline = [min(d, len(layers) - 1) for d in deadline]
    for r in reversed(range(len(entries))):
        for p, strict in preds[r]:
            deadline[p] = min(deadline[p], deadline[r] - strict)
    kept: list[int] = []
    at = [0] * len(entries)
    for r in sorted(range(len(entries)), key=lambda r: (deadline[r], r)):
        lo = max([release[r]] + [at[p] + strict for p, strict in preds[r]])
        i = bisect.bisect_left(kept, lo)
        if i == len(kept) or kept[i] > deadline[r]:
            kept.insert(i, deadline[r])
        at[r] = kept[i]
    for ev in layers:
        ev.gates = []
    for r, g in enumerate(entries):
        layers[at[r]].gates.append(g)
    return [ev for ev in events if not isinstance(ev, U3LayerEvent) or ev.gates]


def compose(events: list) -> list:
    """`events` with each run of back-to-back move records composed into
    one: each column keeps its first `from_x` and from-ys and its last
    `to_x` and to-ys, and every move takes the run's last record's layer.
    A move that ends where it began is dropped, and so is a record left
    empty. Both ends are strictly x-ordered states, so the straight moves
    never cross columns, and by the triangle inequality no |dx| or |dy|
    grows. The first move of each column in a run is edited in place."""
    out: list = []
    for ev in events:
        if not isinstance(ev, dict):
            out.append(ev)
            continue
        composed = out.pop() if out and isinstance(out[-1], dict) else {}
        layer = next(iter(ev.values())).layer
        for cid, m in ev.items():
            first = composed.setdefault(cid, m)
            first.to_x = m.to_x
            first.atoms = [(a, fy, ty) for (a, fy, _), (_, _, ty)
                           in zip(first.atoms, m.atoms)]
        composed = {cid: m for cid, m in composed.items() if travels(m)}
        for m in composed.values():
            m.layer = layer
        if composed:
            out.append(composed)
    return out


def hold_columns(events: list, layout: ZoneLayout, params: PhysParams,
                 serial: bool, one_cache: bool) -> list:
    """Let each idle column wait at the nearest legal spot until its next
    move; returns `events`, its move records edited in place.

    Take two consecutive moves of column c: m in phase a (A -> B) and
    m' in phase b (B -> C), with no illumination pair or trap-change
    transfer involving c between the two phases and, with one cache,
    no U3 layer (every column stands home when one runs:
    `Compiler._fire`). The pass lets c wait at a spot W in place of B: it
    emits m as A -> W and m' as W -> C, each atom starting m' from its y
    at W, and drops m where W is A. It tries three spots in turn and
    takes the first legal one: A itself; the memory x nearest the
    segment A..C that leaves a storage pitch of room to c's nearest live
    columns in every state of the span and lies inside memory's margin,
    with the atoms on the hang rows (`hang_y`); and, if a retreat tucked
    c onto memory's bottom rows at B (its storage rows, `slot_y`), B's x
    with the atoms on the hang rows. A spot is legal when every atom of c
    there stands outside compute, so no pulse in between reaches it; its
    x lies strictly between the xs of c's nearest live columns by cid
    after every phase and trap change from a up to b, so no two columns
    cross; phases a and b take no longer than they did under `serial`
    timing; and, for a spot other than A, no atom of c travels further
    and one travels less (A -> C is never longer, by the triangle
    inequality). Candidates are taken in time order, so holds chain, and
    a hold wakes each candidate it may let wait nearer (below): one held
    short of A after a spot was refused for time wakes itself, as its
    hold changed its phases' times. So the pass ends where plain
    repeated passes would: run once more, it changes nothing. A record
    left with no move emits nothing (`retime`). No pair, SWAP, trap
    change or U3 layer changes."""
    comp, mem = layout.compute, layout.memory
    pitch = params.storage_pitch
    # Columns take atoms only in pickups, so these bound every cid.
    width = 1 + max((tr.column for ev in events if isinstance(ev, TrapChange)
                     for tr in ev.transfers if tr.column is not None), default=-1)
    mem_x0, mem_x1 = inner_x(mem)

    def time_without(ph: _Phase, cid: int) -> float:
        """The concurrent time of phase ph without cid's move."""
        return max((v for c, v in ph.durations.items() if c != cid), default=0.0)

    # Replay the events once: the move phases, and after each phase
    # and each trap change the x of every live column by cid (None
    # for a column holding no atom).
    phases: list[_Phase] = []
    states: list[list[float | None]] = []
    xs: list[float | None] = [None] * width
    count = [0] * width
    column_of: dict[int, int] = {}
    last: dict[int, int] = {}  # column -> phase of its last move, if uninvolved since
    for ev in events:
        if isinstance(ev, dict):
            phase = _Phase(ev, state=len(states))
            for cid, m in ev.items():
                phase.durations[cid] = move_duration(
                    m.to_x - m.from_x, [ty - fy for _, fy, ty in m.atoms], params)
                xs[cid] = m.to_x
                if cid in last:
                    phases[last[cid]].next_move[cid] = len(phases)
                last[cid] = len(phases)
            phases.append(phase)
            states.append(list(xs))
        elif isinstance(ev, U3LayerEvent):
            if one_cache:  # every column stands home (`Compiler._fire`)
                last.clear()
        elif isinstance(ev, Illumination):
            for p in ev.pairs:
                for a in p.atoms:
                    last.pop(column_of.get(a), None)
        elif isinstance(ev, TrapChange):
            for tr in ev.transfers:
                if ev.direction == SLM_TO_AOD:
                    cid = column_of[tr.atom] = tr.column
                    count[cid] += 1
                    xs[cid] = tr.x
                else:
                    cid = column_of.pop(tr.atom)
                    count[cid] -= 1
                    if not count[cid]:
                        xs[cid] = None
                last.pop(cid, None)
            states.append(list(xs))

    # The ys of a column's atoms, in slot order, hung (`hang_y`) and
    # tucked onto memory's bottom rows (its storage rows, `slot_y`).
    most = max((len(m.atoms) for ph in phases for m in ph.moves.values()), default=0)
    hang = [hang_y(layout, params, i) for i in range(most)]
    tucked = [slot_y(mem, params, i) for i in range(most)]

    def near(s: int, cid: int) -> tuple[int, int]:
        """The cids of cid's nearest live columns in state s, -1 or
        width where there is none."""
        state, lo, hi = states[s], cid - 1, cid + 1
        while lo >= 0 and state[lo] is None:
            lo -= 1
        while hi < width and state[hi] is None:
            hi += 1
        return lo, hi

    def spots(ma: ColumnMove, lo: float, hi: float):
        """Where the column of ma (A -> B) may wait instead of B, as
        (x, ys), in the order tried: A; the memory x nearest A that
        lies a storage pitch inside (lo, hi) and inside memory's
        margin, on the hang rows; and B on the hang rows, if B is on
        memory's bottom rows. The hang rows lie below compute."""
        n = len(ma.atoms)
        yield ma.from_x, [fy for _, fy, _ in ma.atoms]
        left, right = max(lo + pitch, mem_x0), min(hi - pitch, mem_x1)
        if left <= right:
            yield min(max(ma.from_x, left), right), hang[:n]
        if [ty for *_, ty in ma.atoms] == tucked[:n]:
            yield ma.to_x, hang[:n]

    # Each pass tries, in time order, the candidates (phase, cid) a hold
    # woke; any other would be tried to the same end. A candidate not
    # held at A waits on what could let it wait nearer: the x of its
    # nearest live column on each side at the state where that column
    # comes closest (holds keep liveness, and only that column moving
    # away widens the room), its own moves next to its span and, if a
    # spot was refused for time, its phases. A hold wakes it for this
    # pass if it comes later, else for the next; a candidate held short
    # of A after a refusal for time wakes itself for the next.
    todo = sorted((i, cid) for i, pa in enumerate(phases) for cid in pa.next_move)
    woken, waiting = set(), {}
    while todo or woken:
        if not todo:
            todo, woken = sorted(woken), set()
        key = heapq.heappop(todo)
        pa, cid = phases[key[0]], key[1]
        ma = pa.moves.get(cid)
        # Past the phases whose move of cid a hold dropped.
        j = pa.next_move[cid]
        while cid not in phases[j].moves and cid in phases[j].next_move:
            j = phases[j].next_move[cid]
        pb = phases[j]
        if ma is None or cid not in pb.moves:
            continue
        mb = pb.moves[cid]
        ax, cx = ma.from_x, mb.to_x
        span = range(pa.state, pb.state)
        # The nearest live columns' closest xs over the span, each with
        # the (state, cid) it comes from.
        lo, hi = (-math.inf,), (math.inf,)
        for s in span:
            k, h = near(s, cid)
            if k >= 0 and states[s][k] > lo[0]:
                lo = states[s][k], s, k
            if h < width and states[s][h] < hi[0]:
                hi = states[s][h], s, h
        path = travel = dys = None
        da, db = pa.durations[cid], pb.durations[cid]
        slow = False
        for i, (x, ys) in enumerate(spots(ma, lo[0], hi[0])):
            at_a = i == 0
            if not lo[0] < x < hi[0] or (at_a and any(
                    comp.contains(x, y) for y in ys)):
                continue
            if path is None:
                end = {a: ty for a, _, ty in mb.atoms}
                path = [(a, fy, ty, end[a]) for a, fy, ty in ma.atoms]  # A, B, C
            if not at_a:
                # Each atom's travel now, and its y travel through the
                # hang rows, where both other spots are.
                if travel is None:
                    bx = ma.to_x
                    travel = [abs(ax - bx) + abs(bx - cx) + abs(ya - yb) + abs(yb - yc)
                              for _, ya, yb, yc in path]
                    dys = [abs(ya - y) + abs(y - yc)
                           for (_, ya, _, yc), y in zip(path, ys)]
                dx = abs(ax - x) + abs(x - cx)
                if dx * len(dys) + sum(dys) >= sum(travel) or any(
                        dx + dy > t for dy, t in zip(dys, travel)):
                    continue
            d1 = move_duration(x - ax, [y - ya for (_, ya, _, _), y in zip(path, ys)],
                               params)
            d2 = move_duration(cx - x, [yc - y for (*_, yc), y in zip(path, ys)], params)
            if serial:
                # Phase times are sums, so by the triangle inequality
                # no hold at A lengthens them.
                longer = d1 + d2 > da + db
            else:
                ta, tb = max(pa.durations.values()), max(pb.durations.values())
                longer = (max(time_without(pa, cid), d1) + max(time_without(pb, cid), d2)
                          > ta + tb)
            if longer:
                slow = True
                continue
            if not at_a:
                ma.to_x, ma.atoms = x, [(a, ya, y) for (a, ya, _, _), y in zip(path, ys)]
                pa.durations[cid] = d1
            else:
                del pa.moves[cid], pa.durations[cid]
            at = {a: y for (a, *_), y in zip(path, ys)}
            if cx == x and all(at[a] == ty for a, _, ty in mb.atoms):
                del pb.moves[cid], pb.durations[cid]
            else:
                mb.from_x, mb.atoms = x, [(a, at[a], ty) for a, _, ty in mb.atoms]
                pb.durations[cid] = d2
            for s in span:
                states[s][cid] = x
            for w in [key[0], j] + [(s, cid) for s in span]:
                for k in waiting.pop(w, ()):
                    if k > key:
                        heapq.heappush(todo, k)
                    else:
                        woken.add(k)
            if slow and not at_a:
                woken.add(key)
            break
        if cid not in pa.moves:
            continue
        waits = [(pa.state - 1, cid), (pb.state, cid)] + [
            bound[1:] for bound in (lo, hi) if len(bound) > 1]
        for w in waits + ([key[0], j] if slow else []):
            waiting.setdefault(w, set()).add(key)
    return events
