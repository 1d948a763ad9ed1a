"""Greedy replica-placement planners.

Four planners share one engine.  ``aagg`` repeatedly scans every candidate
flip (placing one object on one server it does not yet hold), scores each by
(access saving - eviction damage - transfer bytes) weighted by the target
server's availability, and commits the best strictly-positive one until none
remains.  ``aagro`` restricts the same scan to one object at a time, visiting
objects once in a seeded random order.  ``gg`` and ``gro`` are the
availability-blind twins: same control flow and the same score, with every
server's weight 1, and no availability admission check.

The aware planners refuse a flip that would lower an availability.  One
comparison, ``costs._fell``, decides it, between an object's availability
over the sorted replicator ids with the flip and without it.  The engine
applies it in two places and nowhere else: under ``literal`` semantics
``_saving`` vetoes each add it refuses (under ``corrected`` semantics an
add only raises availability, so none is refused), and under the
``all_changed_objects`` scope ``_entries`` flags each evictee whose
availability would fall.

When a target server lacks space, non-primary replicas it hosts are evicted
least-damaging-first until the newcomer fits; a candidate whose evictions
cannot free enough space is skipped.  A replica's damage is the cost of
rerouting the servers it serves to their next-cheapest replicator; one
vectorized pass per server prices all its replicas.  Its list carries the
prefix sums of sizes and one price per prefix, the sum of its damages, or
``BLOCKED`` if the prefix holds an eviction the ``all_changed_objects``
scope refuses, so one binary search scores every eviction-needing
candidate on it.  The list is kept sorted by (damage, object) only as far as
its server can evict: its reach, the shortest prefix that makes room for
the catalog's largest object, which the list records.  Ties keep the
lowest (server, object).

Every score starts from one cached M x N matrix, ``net``: the access saving
of the add minus its transfer bytes ``size * d``.  ``net`` also carries the
one eligibility rule: it is 0 in every column at the replica cap and in every
cell where literal availability vetoes the add, and a held cell never saves
anything, so a candidate is eligible exactly where ``net`` is positive.  One
method, ``_columns``, writes it, for every column at set-up (in blocks) and
for a commit's touched columns.  The access saving comes from one per-column
kernel, :func:`_delta`, ``t @ d[:, k] - t @ min(d[:, k, None], l)`` with
``t = traffic[:, k]``, run only below the cap.  A score is ``net`` times the
target server's ``weight``: ``1 - f`` for the aware planners and int64 ones
for the blind ones, whose scores so stay exact integers.

Scores are kept exact and incremental, and a commit costs in proportion to
what it changed.  The engine caches the score matrix of the column window it
sweeps, with each row's maximum and its first column, and picks the winner
from those M row maxima.  An eviction-needing candidate first holds an upper
bound, ``(net - floor) * weight`` clipped at 0, and is scored exactly,
``(net - price) * weight`` clipped at 0, only when that bound reaches the
top of the matrix.  Every eviction on a server includes the first entry of
its list, so the server's floor is the price of that entry alone, and no
bound on it is positive if that price is ``BLOCKED``; a server whose list is
not built yet has floor 0.  A commit on server i that adds object k and
evicts some objects recomputes, before it returns, the ``net`` block of k
and the evictees, scores the window's columns from that block and merges
them into the row maxima; a commit that evicts nothing addresses its one
column as a slice, a view.  Elsewhere only the rows of i and of every server
whose cached evictable list was sorted again can change, and in them only
the cells whose object is larger than the row's free space after the commit.
A row without such a cell is left as it is; the others are re-scored whole.
A row's maximum is recomputed whole only if its row was re-scored, or its
best column was touched and now holds less.  The commit's placement check
covers only row i and the touched columns.  Server i's evictable list keeps
its untouched entries, takes the touched ones afresh and is sorted again by
the rule of its first build.  Another server's list keeps its objects, and
its touched entries are rewritten in place.  It is sorted again, and its row
re-scored, only if one of them lies within its reach or now sorts before the
reach's last entry; otherwise its floor, its reach and every price read from
it stay as they were.  Each step is a few NumPy calls, and none repeats work
another did.

Work whose result cannot change is skipped.  A column's ``net`` depends only
on that column, so a column with no positive entry stays dead until a commit
touches it.  ``run`` reads ``net`` once as it enters a window, and counts a
window with no positive entry as one iteration and does not sweep it.  The
engine is the only implementation of flip scoring, and :func:`solve` its one
entry point.  Availability-weighted scores are floats, so instances whose
scores could reach 2**53 are refused.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import costs
from .errors import ParameterError, StructuralError
from .model import PlacementState, validate_placement
from .topology import _binary, _choice, _count, _index, _items, _rng, _whole

ALGORITHMS = ("aagg", "aagro", "gg", "gro")
SCOPES = ("focal_object", "all_changed_objects")
FLOAT_EXACT_LIMIT = 2**53
SETUP_CELLS = 1 << 16  # set-up computes ``net`` in blocks of about this many cells
BLOCKED = np.iinfo(np.int64).max  # the price of an eviction prefix that is not allowed


@dataclass(frozen=True)
class SolverConfig:
    """Planner knobs; ``max_replicas_per_object=None`` means unlimited."""

    algorithm: str = "aagg"
    max_replicas_per_object: int | None = None
    availability_scope: str = "focal_object"
    availability_semantics: str = "corrected"
    seed: int = 0

    def __post_init__(self):
        _choice(self.algorithm, ALGORITHMS, "algorithm")
        cap = self.max_replicas_per_object
        if cap is not None:
            _count(cap, "max_replicas_per_object", ParameterError)
        object.__setattr__(self, "seed", _whole(self.seed, "seed", ParameterError))
        _choice(self.availability_scope, SCOPES, "availability scope")
        _choice(self.availability_semantics, costs.SEMANTICS, "availability semantics")


@dataclass(frozen=True)
class Add:
    server: int
    object_id: int
    source: int
    transfer_cost: int


@dataclass(frozen=True)
class Evict:
    server: int
    object_id: int


@dataclass(frozen=True)
class StepStat:
    """Bookkeeping for one committed flip (evictions folded in)."""

    server: int
    object_id: int
    c_before: int
    c_after: int
    transfer_cost: int
    benefit: float


@dataclass(eq=False)
class PlacementResult:
    """Outcome of one planner run."""

    x_new: np.ndarray
    schedule: tuple
    steps: tuple
    c_old: int
    c_new: int
    impl_cost_total: int
    benefit_total: float
    iterations: int

    @property
    def flips(self) -> int:
        return sum(1 for a in self.schedule if isinstance(a, Add))

    @property
    def evictions(self) -> int:
        return sum(1 for a in self.schedule if isinstance(a, Evict))

    def to_json_dict(self) -> dict:
        """Every field but ``x_new``, the two counts, and the action and step records."""
        record = {**_record(self), "flips": self.flips, "evictions": self.evictions,
                  "schedule": [action_to_dict(a) for a in self.schedule],
                  "steps": [_record(s) for s in self.steps]}
        del record["x_new"]
        return record


def _key(name: str) -> str:
    """JSON key of a record field: ``object_id`` is written ``object``."""
    return "object" if name == "object_id" else name


def _record(obj) -> dict:
    return {_key(f.name): getattr(obj, f.name) for f in dataclasses.fields(obj)}


def action_to_dict(action) -> dict:
    return {"action": type(action).__name__.lower(), **_record(action)}


def action_from_dict(payload: dict):
    """The ``Add`` or ``Evict`` a schedule record describes; every field must be a whole number."""
    if not isinstance(payload, dict):
        raise ParameterError(f"schedule action must be a JSON object, got {payload!r}")
    for cls in (Add, Evict):
        if payload.get("action") == cls.__name__.lower():
            try:
                return cls(*(_whole(payload[_key(f.name)], f"schedule {_key(f.name)}",
                                    ParameterError) for f in dataclasses.fields(cls)))
            except KeyError as exc:
                raise ParameterError(f"schedule action {payload!r} lacks field {exc}") from exc
    raise ParameterError(f"unknown schedule action {payload.get('action')!r}")


def replay_schedule(x_old, schedule) -> np.ndarray:
    """Re-apply a schedule to a placement; raises if any step is inconsistent.

    ``x_old`` must hold only 0 and 1, and ``schedule`` must be iterable.
    Every server, source and object id must be a whole number indexing
    ``x_old``: a negative id is refused, not read from the end.
    """
    x = np.array(_binary(x_old, "placement"), dtype=np.int8)
    m, n = x.shape
    for action in _items(schedule, "schedule", ParameterError):
        if not isinstance(action, (Add, Evict)):
            raise ParameterError(f"unknown schedule action {action!r}")
        i, k = _index(action.server, m, "server id"), _index(action.object_id, n, "object id")
        if isinstance(action, Add):
            source = _index(action.source, m, "source id")
            if x[source, k] != 1:
                raise StructuralError(
                    f"add of object {k} sources from non-replicator {source}"
                )
            if x[i, k] != 0:
                raise StructuralError(f"object {k} already on server {i}")
            x[i, k] = 1
        else:
            if x[i, k] != 1:
                raise StructuralError(f"evicting object {k} absent from server {i}")
            x[i, k] = 0
    return x


def _delta(state: PlacementState, cols) -> np.ndarray:
    """Access-cost saving of adding each object in ``cols`` to each server.

    ``cols`` is a slice or an index array.  Every server keeps its current
    nearest replicator unless the target server is cheaper, so column k of
    the M x len(cols) int64 result is ``t @ max(d[:, k, None] - l, 0)`` with
    ``t = traffic[:, k]``, computed as ``t @ d[:, k] - t @ min(d[:, k, None], l)``
    to build one M x M matrix per column, not two.  Both terms are at most
    ``max(l) * sum(traffic)``, so the model's headroom check keeps them exact
    in int64.
    """
    d, traffic = state.d[:, cols], state.traffic[:, cols]
    out = np.empty(d.shape, dtype=np.int64)
    for c in range(d.shape[1]):
        t = traffic[:, c]
        out[:, c] = t @ d[:, c] - t @ np.minimum(d[:, c, None], state.l)
    return out


class _Evictables(NamedTuple):
    """One server's evictable (non-primary) replicas, sorted by (damage, object) within its reach.

    The first ``reach`` entries (see ``_GreedyEngine._store``) are the
    smallest by (damage, object), in that order, with exact prefix sums.
    The later entries hold exact objects, damages and flags in any order,
    and ``price`` may be stale there.  An in-place update moves no entry,
    so ``cum_size`` stays exact throughout and a binary search on it stays
    valid.  ``price[t]`` is the damage of evicting entries ``0..t``, or
    ``BLOCKED`` if one of them lowers its object's availability.  One
    sentinel past the end is ``BLOCKED`` too, so a search that runs off
    ``cum_size`` lands on "cannot free enough space".  A price is
    subtracted only from a positive ``net``: ``net - BLOCKED`` wraps
    around in int64 once ``net <= -2``.
    """

    objects: np.ndarray   # int64 object ids
    damages: np.ndarray   # int64 access-cost increase of each eviction alone
    lowers: np.ndarray    # bool: eviction lowers the evictee's availability
    cum_size: np.ndarray  # bytes freed by evicting entries [0..t]
    price: np.ndarray     # damage of evicting entries [0..t], or BLOCKED
    reach: int            # how many entries any flip on the server can evict


class _GreedyEngine:
    def __init__(self, state: PlacementState, config: SolverConfig,
                 on_commit=None, on_mutation=None):
        self.st = state.copy()
        self.cfg = config
        self.use_factor = config.algorithm in ("aagg", "aagro")
        if self.use_factor:  # weighted scores are floats, exact only below 2**53
            costs._check_headroom(self.st.l, self.st.objects.sizes, self.st.traffic,
                                  FLOAT_EXACT_LIMIT)
        self.guard_evictees = (self.use_factor
                               and config.availability_scope == "all_changed_objects")
        # Every score is a net saving times its server's weight: float availability
        # 1 - f for the aware planners, int64 ones (exact integer scores) for the blind.
        self.weight = (1.0 - self.st.servers.failure_probs if self.use_factor
                       else np.ones(self.st.servers.count, dtype=np.int64))
        self.cap_val = config.max_replicas_per_object or self.st.servers.count
        self.on_commit = on_commit
        self.on_mutation = on_mutation
        m, n = self.st.d.shape
        # Positive only where eligible; column-major, as a commit rewrites whole columns.
        self.net = np.zeros((m, n), dtype=np.int64, order="F")
        width = max(1, SETUP_CELLS // m)
        for start in range(0, n, width):
            self._columns(np.arange(start, min(start + width, n)))
        self.c = costs.total_access_cost(self.st.x, self.st.n, self.st.traffic,
                                         self.st.l).total
        self.c_old = self.c
        self.schedule: list = []
        self.steps: list = []
        self.iterations = 0
        self._evict_cache: dict[int, _Evictables] = {}
        # Set by ``_store`` for each server with a cached list: its cheapest eviction's price.
        self._floor = np.zeros(m, dtype=np.int64)
        self._largest = int(self.st.objects.sizes.max())  # the catalog's largest object
        # Scores of the last swept column window, kept across commits.
        self._window: slice | None = None
        self._scores: np.ndarray | None = None   # M x W; an upper bound where pending
        self._pending: np.ndarray | None = None  # bool M x W: eviction damage not yet scored
        self._row_best = np.zeros(m, self.weight.dtype)  # each row's max
        self._row_arg = np.zeros(m, dtype=np.int64)  # its first column in the window

    # -- sweeping ---------------------------------------------------------

    def _sweep(self, cs: slice):
        """Return the best flip ``(i, k, score)`` of the column window ``cs``, or None.

        The window's M x len(cs) score matrix is kept across commits: a new
        window is scored whole, and a commit re-scores what it changed (see
        ``_invalidate``).  A candidate that fits holds its exact score,
        ``net`` times its server's ``weight``.  A candidate that needs space
        holds an upper bound and is marked pending (see ``_score``).

        The first argmax of the matrix wins.  It is read from each row's
        maximum and first column holding it, ``_row_best`` and ``_row_arg``,
        which ``_refresh`` sets on a window switch and ``_resolve`` and
        ``_invalidate`` keep up to date: the first row
        with the highest maximum, at that row's column.  While the winner is
        pending, all of its server's pending candidates are resolved exactly
        (``_resolve``) and the winner is read again.  Bounds never fall
        below exact scores, so a non-pending argmax is also the first argmax
        of the exact scores: ties keep the lowest (server, object).  For the
        same reason no flip is positive once the top score is not, and the
        sweep returns None without resolving anything more.
        """
        if cs != self._window:
            self._window = cs
            self._scores, self._pending = self._score(
                self.net[:, cs], slice(None), self.st.objects.sizes[cs])
            self._refresh(slice(None))
        while True:
            i = int(self._row_best.argmax())
            if self._row_best[i] <= 0:
                return None
            c = int(self._row_arg[i])
            if not self._pending[i, c]:
                return i, cs.start + c, self._row_best[i].item()
            self._resolve(i)

    def _score(self, net, rows, sizes) -> tuple[np.ndarray, np.ndarray]:
        """Scores and pending mask of a ``net`` block: servers ``rows``, objects of ``sizes``.

        ``rows`` is a slice or an index list.  A candidate with a positive
        ``net`` scores ``net`` times its server's ``weight``, and every
        other candidate scores 0.  It is pending if its server lacks the
        space, and then its server's floor (see ``_store``) comes off
        ``net`` first, clipped at 0: every eviction's price is at least the
        floor, so the bound never falls below the exact score.  The floors
        are subtracted in place, only from the positive ``net`` of pending
        cells and only while some list is cached.  Both results are
        row-major, whatever the layout of ``net``: ``_refresh`` scans rows.
        """
        gain = np.maximum(net, 0)
        pending = np.logical_and(net > 0, self.st.free[rows, None] < sizes, order="C")
        if self._evict_cache:  # else every floor is 0
            np.subtract(gain, self._floor[rows, None], out=gain, where=pending)
            np.maximum(gain, 0, out=gain)
        return np.multiply(gain, self.weight[rows, None], order="C"), pending

    def _columns(self, cols) -> np.ndarray:
        """Recompute ``net`` of the columns ``cols``; return their ``net`` block.

        ``cols`` is a slice or an index array.  This is the one eligibility
        rule: ``net`` is ``_saving`` below the replica cap and 0 in a column
        at the cap, where ``_delta`` does not run.  The block is built whole
        and written to ``net`` once; ``run`` reads a window's liveness from
        it.
        """
        st = self.st
        counts = st.replica_counts[cols]
        below = (counts < self.cap_val).nonzero()[0]
        if below.size == counts.size:
            net = self._saving(cols)
        else:  # a slice here is one capped column
            net = np.zeros((st.x.shape[0], counts.size), dtype=np.int64)
            if below.size:
                net[:, below] = self._saving(cols[below])
        self.net[:, cols] = net
        return net

    def _saving(self, cols) -> np.ndarray:
        """``net`` of the columns ``cols``, each below the replica cap.

        It is the access saving ``_delta`` minus the transfer bytes
        ``size * d``, and 0 where literal availability vetoes the add.  A
        held cell is never positive: there ``d[:, k] <= l[:, i]``, so it
        saves nothing.

        The veto is the reference's admission rule: adding i to k's
        replicators must not make ``_fell`` hold for the product over the
        sorted ids, ``_availability`` with row i set, against the product
        without it.  ``before * (1 - f_i)`` rounds to within about M ulps of
        that product, so it decides every cell farther than ``4 M eps
        before`` from the tolerance.  Only a column with a cell that near
        takes the M x M product, one column at a time, so the temporaries
        stay M x M however many columns are near.
        """
        st = self.st
        net = _delta(st, cols)
        net -= st.objects.sizes[cols] * st.d[:, cols]  # in place: one M x W array fewer
        if self.use_factor and self.cfg.availability_semantics == "literal":
            held, probs, m = st.x[:, cols] == 1, st.servers.failure_probs, st.x.shape[0]
            before = costs._availability(held, probs, "literal")
            after, slack = before * self.weight[:, None], 4 * m * np.finfo(float).eps * before
            veto = costs._fell(after + slack, before)  # falls however the product rounds
            near = costs._fell(after - slack, before) ^ veto  # within ``slack`` of the tolerance
            for c in near.any(axis=0).nonzero()[0].tolist():
                exact = costs._availability(held[:, [c]] | np.eye(m, dtype=bool), probs, "literal")
                veto[:, c] = costs._fell(exact, before[c])
            net[veto] = 0
        return net

    def _resolve(self, i: int) -> None:
        """Replace server i's pending bounds in the window by exact scores; refresh its maximum.

        Each candidate evicts the shortest prefix of i's evictable replicas
        (sorted by (damage, object)) whose sizes cover the shortfall: a
        binary search on the prefix sums of sizes finds it, and the score is
        ``max(net - price, 0)`` times ``weight[i]``, the clipped form of
        ``_score``'s bound.  A prefix that frees too little space, or holds an
        eviction the ``all_changed_objects`` scope refuses, is priced
        ``BLOCKED`` and so scores 0; ``net`` is positive in a pending cell,
        so the difference does not wrap.  The clip turns a negative score
        into 0 and changes no plan: a sweep commits only a strictly positive
        top, and a positive cell never ties with one that is not, so only
        the cached maxima of rows that cannot win change.  No object exceeds
        the catalog's largest, so every prefix ends within i's reach, where
        the list is sorted and its prices are exact.
        """
        st = self.st
        local = self._pending[i].nonzero()[0]
        ks = self._window.start + local
        ev = self._evictable(i)
        t = ev.cum_size.searchsorted(st.objects.sizes[ks] - st.free[i])
        self._scores[i, local] = np.maximum(self.net[i, ks] - ev.price[t], 0) * self.weight[i]
        self._pending[i, local] = False
        self._refresh(slice(i, i + 1))

    def _refresh(self, rows) -> None:
        """Set ``_row_best`` and ``_row_arg`` of ``rows``, a slice or an index array.

        One ``argmax`` per row finds its first maximum, and the maximum is
        read at it.
        """
        block = self._scores[rows]
        arg = block.argmax(axis=1)
        self._row_arg[rows] = arg
        self._row_best[rows] = block[np.arange(arg.size), arg]

    def _evictable(self, i: int) -> _Evictables:
        """Server i's evictable replicas with their prefix sums, built on first use."""
        cached = self._evict_cache.get(i)
        if cached is None:
            cached = self._store(i, *self._entries(i, self.st.x[i].nonzero()[0]))
        return cached

    def _entries(self, i: int, objs: np.ndarray) -> tuple:
        """(objects, damages, lowers) of the non-primary replicas among ``objs`` on i.

        The damage of (i, k) is ``sum_j [n[j,k] == i] * (r[j,k] - d[j,k]) * traffic[j,k]``,
        with r[j,k] j's cost to its cheapest replicator of k other than i (second-nearest,
        ties counted twice): one ``reduceat`` over the other replicators' columns, none
        empty as the primary stays.  ``lowers`` compares availability without and with row i.
        """
        st = self.st
        objs = objs[(st.x[i, objs] == 1) & (st.objects.primaries[objs] != i)]
        others = st.x[:, objs] == 1
        others[i] = False
        col, rep = others.T.nonzero()  # grouped by column, servers ascending
        r = np.minimum.reduceat(st.l[:, rep], col.searchsorted(np.arange(objs.size)), axis=1)
        extra = (r - st.d[:, objs]) * st.traffic[:, objs]
        damages = np.where(st.n[:, objs] == i, extra, 0).sum(axis=0)
        lowers = np.zeros(objs.size, dtype=bool)
        if self.guard_evictees:
            both = np.hstack((others, st.x[:, objs] == 1))  # without row i, then with it
            lowers = costs._fell(*np.split(costs._availability(
                both, st.servers.failure_probs, self.cfg.availability_semantics), 2))
        return objs, damages, lowers

    def _store(self, i: int, objs, damages, lowers) -> _Evictables:
        """Sort server i's entries by (damage, object), add prefix sums and reach, cache them.

        Each price from the first entry whose eviction lowers availability
        on, and the sentinel, is ``BLOCKED``.  Every eviction on i includes
        the first entry, so i's floor is ``price[0]``: ``BLOCKED`` if that
        eviction is refused or the list is empty.  The reach, ``1 +
        cum_size.searchsorted(largest - free[i])``, counts the entries any
        flip on i can evict while i's free space stays as it is: no
        shortfall exceeds the catalog's largest object's.
        """
        order = np.lexsort((objs, damages))
        objs, damages, lowers = objs[order], damages[order], lowers[order]
        price = np.empty(objs.size + 1, dtype=np.int64)
        damages.cumsum(out=price[:-1])
        price[np.append(lowers, True).argmax():] = BLOCKED  # from the first blocked entry on
        cum_size = self.st.objects.sizes[objs].cumsum()
        self._floor[i] = price[0]
        cached = self._evict_cache[i] = _Evictables(
            objects=objs,
            damages=damages,
            lowers=lowers,
            cum_size=cum_size,
            price=price,
            reach=int(cum_size.searchsorted(self._largest - self.st.free[i])) + 1,
        )
        return cached

    def _invalidate(self, i: int, k: int, evicted: tuple) -> None:
        """Bring the caches up to date after a commit on server i.

        The commit added object k and evicted the objects ``evicted``.
        Their columns' nearest index, placement and replica counts changed,
        so once all of the commit's mutations are done ``_columns``
        recomputes their ``net``, evictees outside the window included, and
        so whether each window holding them is dead when ``run`` enters it;
        a commit that evicts nothing addresses its one column as a slice, a
        view.  The window's touched columns are scored from the
        block ``_columns`` returns.  An evictable entry's damage and
        availability flag depend only on its own column, so only the cached
        servers holding a touched column have entries to redo (none while
        no list is cached).  Server i's list drops its touched entries,
        appends their new ones and goes back through ``_store``, so it
        keeps the (damage, object) order a first build gives, and takes
        i's new floor and reach.  Another holder j keeps its objects and
        its free space, so the reach its list records.  Its touched
        entries (1 to 3) are rewritten in place.  If none lies within the
        reach and each new (damage, object) sorts after the reach's last
        entry, the reach still holds the smallest entries in order, with
        the same prices, so j's floor and every price read from the list
        stand.  Otherwise the list goes back through ``_store``.

        Outside the touched columns ``net`` and ``weight`` did not change,
        so a cell's score or pending flag can change only in the row of i,
        whose free space changed, and in the rows of the holders whose
        lists went through ``_store``, whose floors changed and whose
        resolved scores were priced with the old order.  In those rows only
        a cell whose object is larger than the row's free space after the
        commit can change.  For a holder that space did not change; for i,
        it is below the catalog's largest object whenever the commit
        evicted, since an eviction frees less than its last evictee's size
        beyond what the add needs, and otherwise it fell.  A smaller object
        fits before and after, so its cell holds ``net`` times ``weight``
        and is not pending.  A row whose free space reaches the largest
        object has no such cell and is left as it is; the others are
        re-scored whole.  Nothing more is re-scored when the touched
        columns cover the window.

        Each touched window column is merged into the row maxima in turn,
        the lower column winning a tie.  A row is refreshed whole if it
        was re-scored, or if its best column was touched and now holds
        less than the row's best.  If that column holds at least as much,
        every other column holds at most the old best, so the merge alone
        is exact.
        """
        st = self.st
        touched = np.array(sorted((k, *evicted)), dtype=np.int64)
        cols = touched if evicted else slice(k, k + 1)
        rows = {i}
        if self._evict_cache:
            for j in st.x[:, cols].any(axis=1).nonzero()[0].tolist():
                ev = self._evict_cache.get(j)
                if ev is None:
                    continue
                hit = touched[:, None] == ev.objects
                new = self._entries(j, touched)
                if j == i:
                    self._store(i, *(np.concatenate((a[~hit.any(axis=0)], b))
                                     for a, b in zip(ev[:3], new)))
                    continue
                objs, damages, lowers = new
                if not objs.size:
                    continue
                pos = hit.nonzero()[1]  # where ``objs`` sit: j's objects did not change
                ev.damages[pos], ev.lowers[pos] = damages, lowers
                if (pos.min() < ev.reach or min(zip(damages.tolist(), objs.tolist()))
                        < (ev.damages[ev.reach - 1], ev.objects[ev.reach - 1])):
                    self._store(j, *ev[:3])
                    rows.add(j)
        net = self._columns(cols)
        cs = self._window  # holds k
        if evicted:  # keep the window's columns
            inside = (cs.start <= touched) & (touched < cs.stop)
            net, touched = net[:, inside], touched[inside]
        scores, pending = self._score(net, slice(None), st.objects.sizes[touched])
        local = touched - cs.start
        self._scores[:, local], self._pending[:, local] = scores, pending
        if local.size == cs.stop - cs.start:
            self._refresh(slice(None))
            return
        rows = [j for j in rows if int(st.free[j]) < self._largest]
        best, arg = self._row_best, self._row_arg
        stale = False  # an array from the first column on; the window holds k
        for c, s in zip(local.tolist(), scores.T):
            stale = stale | ((arg == c) & (s < best))
            wins = (s > best) | ((s == best) & (arg > c))
            best[wins], arg[wins] = s[wins], c
        if rows:  # else every window object fits, before and after
            self._scores[rows], self._pending[rows] = self._score(
                self.net[rows, cs], rows, st.objects.sizes[cs])
            stale[rows] = True
        stale = stale.nonzero()[0]
        if stale.size:
            self._refresh(stale)

    # -- committing -------------------------------------------------------

    def _commit(self, i: int, k: int, score) -> None:
        """Commit flip (i, k), first evicting the prefix ``_resolve`` priced if i lacks space.

        The realized benefit must equal ``score``, the winner's cached score,
        with the prefix's price as the evicted damage.  The availability
        rule is not checked again: a vetoed add has ``net`` 0, so it never
        scores above 0, and a ``BLOCKED`` prefix scores 0.
        The placement check covers only what the commit changed, server i's
        storage and the primaries of k and the evictees: the state was valid
        before, and the commit changed ``x`` only in row i at those columns.
        """
        st = self.st
        c_before = self.c
        size = int(st.objects.sizes[k])
        needed = size - int(st.free[i])
        evicted, damage = (), 0
        if needed > 0:
            ev = self._evictable(i)
            t = int(ev.cum_size.searchsorted(needed))
            evicted = tuple(ev.objects[:t + 1].tolist())
            damage = int(ev.price[t])
        for kk in evicted:
            st.remove_replica(i, kk)
            self.schedule.append(Evict(i, kk))
            if self.on_mutation:
                self.on_mutation(st)
        net = int(self.net[i, k]) - damage
        source = int(st.n[i, k])
        tcost = size * int(st.d[i, k])
        benefit = net * self.weight[i].item()
        if benefit != score:
            raise RuntimeError("committed flip diverged from its score")
        st.add_replica(i, k)
        self.schedule.append(Add(i, k, source, tcost))
        if self.on_mutation:
            self.on_mutation(st)
        bad = validate_placement(st.x, st.servers, st.objects, rows=[i], cols=[k, *evicted])
        if bad:
            raise RuntimeError(f"commit produced an invalid placement: {bad[0].detail}")
        c_after = c_before - (net + tcost)
        step = StepStat(i, k, c_before, c_after, tcost, benefit)
        self.steps.append(step)
        self.c = c_after
        self._invalidate(i, k, evicted)
        if self.on_commit:
            self.on_commit(st, step)

    # -- drivers ----------------------------------------------------------

    def run(self) -> None:
        """Commit each column window's best flip until none is positive.

        The global planners use one window holding every object, the
        random-order planners one window per object, in seeded order.  Each
        sweep counts one iteration, the last one of a window committing
        nothing.  A window whose ``net`` holds no positive entry as ``run``
        enters it cannot commit, so it counts one iteration without being
        swept.  A window that dies after a commit ends with one sweep, which
        reads only the row maxima.
        """
        n = self.st.objects.count
        if self.cfg.algorithm in ("aagg", "gg"):
            windows = [slice(0, n)]
        else:
            order = list(range(n))
            _rng(self.cfg.seed).shuffle(order)
            windows = [slice(k, k + 1) for k in order]
        for window in windows:
            self.iterations += 1
            if self.net[:, window].max() <= 0:
                continue
            while (best := self._sweep(window)) is not None:
                self._commit(*best)
                self.iterations += 1

    def result(self) -> PlacementResult:
        st = self.st
        ground_truth = costs.total_access_cost(st.x, st.n, st.traffic, st.l).total
        if ground_truth != self.c:
            raise RuntimeError("incrementally tracked cost drifted from ground truth")
        return PlacementResult(
            x_new=st.x.copy(),
            schedule=tuple(self.schedule),
            steps=tuple(self.steps),
            c_old=self.c_old,
            c_new=self.c,
            impl_cost_total=sum(s.transfer_cost for s in self.steps),
            # Left to right from 0: builtin sum compensates float sums from Python 3.12.
            benefit_total=functools.reduce(operator.add, (s.benefit for s in self.steps), 0),
            iterations=self.iterations,
        )


def solve(state: PlacementState, config: SolverConfig,
          on_commit: Callable | None = None,
          on_mutation: Callable | None = None) -> PlacementResult:
    """Run the configured planner on a copy of ``state``.

    ``on_mutation(state)`` fires after every replica add/drop and
    ``on_commit(state, step)`` after every committed flip; both observe the
    engine's working state and must not mutate it.
    """
    engine = _GreedyEngine(state, config, on_commit=on_commit, on_mutation=on_mutation)
    engine.run()
    return engine.result()
