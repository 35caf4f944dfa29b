"""§3 — Distance-limited DAG SSSP with ``{0, −1}`` weights (Algorithms 1–2).

The peeling algorithm: round ``i`` identifies and finalises exactly the
vertices at distance ``−i`` from the source.  The frontier is found without
re-running reachability over the whole graph each round: every vertex keeps a
*label* — a maximum-priority live negative-ancestor edge — and only vertices
whose label head was just peeled (tracked through ``SentLabel`` sets) rejoin
the Propagate subroutine, which restores labels priority-by-priority using
the multisource-reachability black box on the still-unlabeled induced
subgraph.

Randomised geometric priorities (§3.1) make each vertex's label change only
``O(log² n)`` times whp (Corollary 6), which bounds total work at ``Õ(m)``
and total span at ``√L·n^(1/2+o(1))`` (Theorem 8).  The instrumentation
fields on :class:`Dag01Result` expose exactly the quantities those claims
bound, for the E1–E4 experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..graph.csr import in_edge_slots
from ..graph.digraph import DiGraph, _per_vertex
from ..graph.validate import check_limit, check_source, is_dag
from ..observability.metrics import metric_inc
from ..observability.tracer import trace_span
from ..reach.multisource import multisource_reachability
from ..resilience.errors import InputValidationError, VerificationError
from ..resilience.faults import current_fault_plan
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.primitives import stable_argsort
from ..runtime.pset import SetVector
from ..runtime.rng import geometric_priorities, make_rng

NO_EDGE = -1


@dataclass
class Dag01Result:
    """Output + instrumentation of the peeling algorithm.

    ``dist[v]`` is ``dist(s,v)`` when it is ``≥ −limit``, ``−inf`` when
    strictly below the limit, and ``+inf`` when ``v`` is unreachable from the
    source.  ``parent_edge[v] = (x, y)`` is a negative ancestor edge with
    ``dist(x) = dist(v) + 1`` and a ``y → v`` path, or ``(−1, −1)``.
    """

    dist: np.ndarray
    parent_edge: np.ndarray          # shape (n, 2)
    priorities: np.ndarray
    rounds: int
    label_changes: np.ndarray        # per-vertex count (Corollary 6)
    propagate_calls: int
    propagate_node_total: int        # Σ |V'| across Propagate calls
    reach_calls: int
    reach_node_total: int            # Σ induced-subgraph sizes (Lemma 7)
    cost: Cost

    def level_sets(self, limit: int) -> list[np.ndarray]:
        """``V_0 … V_limit``: vertices at distance exactly ``−i`` (§6 Step 2)."""
        return [np.flatnonzero(self.dist == -i) for i in range(limit + 1)]


@dataclass
class _State:
    """Mutable per-run peeling state shared by the main loop and Propagate."""

    g: DiGraph
    pri: np.ndarray
    live: np.ndarray                 # bool
    label_eid: np.ndarray            # labelling edge id, NO_EDGE if ⊥
    parent_eid: np.ndarray
    sent: SetVector
    acc: CostAccumulator
    label_changes: np.ndarray
    cap: int = 1                     # the highest priority
    indeg: list[int] = field(default_factory=list)    # per vertex
    degree: list[int] = field(default_factory=list)   # in- plus out-degree
    propagate_calls: int = 0
    propagate_node_total: int = 0
    reach_calls: int = 0
    reach_node_total: int = 0


def dag01_limited_sssp(g: DiGraph, source: int, limit: int, *,
                       seed=0, acc: CostAccumulator | None = None,
                       validate: bool = True,
                       priorities: np.ndarray | None = None
                       ) -> Dag01Result:
    """Solve distance-limited SSSP on a DAG with weights in ``{0, −1}``.

    Parameters
    ----------
    limit : int
        The distance limit ``L``: exact distances are produced for vertices
        with ``dist(s,v) ≥ −L``; farther vertices report ``−inf``.  Read
        by :func:`~repro.graph.validate.check_limit`: a fractional, NaN,
        infinite or negative limit raises :class:`InputValidationError`.
    priorities : optional
        Override the random priorities (ablation A1 uses this): one
        integer per vertex of ``g``, and each of the ``k`` vertices
        reachable from ``source`` needs one in ``[1, k]`` (§3.1).
        Fractional, NaN, infinite, misaligned or out-of-contract ones
        raise :class:`InputValidationError`.
    validate : bool
        Check DAG-ness and the weight alphabet up front (costs O(n+m)).

    The §3.1 priority contract (every priority in ``[1, k]``) is checked
    again on the priorities peeling will use, drawn or perturbed by the
    ambient fault plan (:func:`~repro.resilience.faults.current_fault_plan`,
    site ``"priorities"``); a violation there raises
    :class:`~repro.resilience.errors.VerificationError`, which the
    improvement layer heals by redrawing with a fresh seed.
    """
    source = check_source(g, source)
    limit = check_limit(limit)
    if priorities is not None:
        priorities = _per_vertex(g, priorities, "priorities")
    if validate:
        if g.m and not np.isin(g.w, (0, -1)).all():
            raise InputValidationError("weights must be in {0, -1}")
        if not is_dag(g):
            raise InputValidationError("graph must be acyclic")

    local = CostAccumulator()
    with trace_span("dag01-peeling", acc=local, phase="dag01",
                    n=g.n, m=g.m, limit=limit) as psp:
        # §3 assumes every vertex is reachable from s; restrict to the
        # reachable induced subgraph (one extra black-box call, as the
        # paper suggests).
        reach = multisource_reachability(g, np.array([source]), local)
        reachable = np.flatnonzero(reach.pi >= 0)
        if priorities is not None:
            bad = _priority_violation(priorities[reachable])
            if bad:
                raise InputValidationError(bad)
        dist = np.full(g.n, np.inf)
        parent_edge = np.full((g.n, 2), NO_EDGE, dtype=np.int64)
        priorities_full = np.zeros(g.n, dtype=np.int64)
        label_changes_full = np.zeros(g.n, dtype=np.int64)

        if len(reachable) == g.n:
            sub, ids = g, np.arange(g.n, dtype=np.int64)
            sub_source = source
        else:
            sub, ids = g.induced_subgraph(reachable)
            local.charge(*model.pack_ws(g.m))
            sub_source = int(np.searchsorted(ids, source))

        rng = make_rng(seed)
        if priorities is None:
            pri = geometric_priorities(sub.n, rng)
        else:
            pri = priorities[ids]
        plan = current_fault_plan()
        if plan is not None:
            pri = plan.perturb_priorities(pri)
        bad = _priority_violation(pri)
        if bad:
            raise VerificationError(bad, stage="dag01_peeling")
        local.charge(*model.map_ws(sub.n))

        indeg = sub.rindptr[1:] - sub.rindptr[:-1]
        st = _State(
            g=sub,
            pri=pri,
            live=np.ones(sub.n, dtype=bool),
            label_eid=np.full(sub.n, NO_EDGE, dtype=np.int64),
            parent_eid=np.full(sub.n, NO_EDGE, dtype=np.int64),
            sent=SetVector(sub.n),
            acc=local,
            label_changes=np.zeros(sub.n, dtype=np.int64),
            cap=int(pri.max(initial=1)),
            indeg=indeg.tolist(),
            degree=(indeg + sub.indptr[1:] - sub.indptr[:-1]).tolist(),
        )

        sub_dist = _peel(st, sub_source, limit)

        dist[ids] = sub_dist
        has_parent = st.parent_eid != NO_EDGE
        pe = st.parent_eid[has_parent]
        parent_edge[ids[has_parent], 0] = ids[sub.src[pe]]
        parent_edge[ids[has_parent], 1] = ids[sub.dst[pe]]
        priorities_full[ids] = pri
        label_changes_full[ids] = st.label_changes
        rounds = int(min(limit, -sub_dist[np.isfinite(sub_dist)].min()
                         if np.isfinite(sub_dist).any() else 0))
        psp.set(rounds=rounds)
        psp.count("label_changes", int(st.label_changes.sum()))
        psp.count("propagate_calls", st.propagate_calls)
        psp.count("propagate_nodes", st.propagate_node_total)
        psp.count("reach_calls", st.reach_calls)
        psp.count("reach_nodes", st.reach_node_total)
        metric_inc("repro_peel_rounds_total", rounds)
        metric_inc("repro_label_changes_total",
                   int(st.label_changes.sum()))
        metric_inc("repro_propagate_calls_total", st.propagate_calls)
    if acc is not None:
        acc.charge_cost(local.snapshot())
    return Dag01Result(
        dist=dist,
        parent_edge=parent_edge,
        priorities=priorities_full,
        rounds=rounds,
        label_changes=label_changes_full,
        propagate_calls=st.propagate_calls,
        propagate_node_total=st.propagate_node_total,
        reach_calls=st.reach_calls,
        reach_node_total=st.reach_node_total,
        cost=local.snapshot(),
    )


def _priority_violation(pri: np.ndarray) -> str | None:
    """How ``pri`` breaks the §3.1 contract, every priority in
    ``[1, len(pri)]``, or ``None`` when it keeps it."""
    k = len(pri)
    if k and (pri.min() < 1 or pri.max() > k):
        return ("peeling priorities violate the §3.1 contract "
                f"(range [{int(pri.min())}, {int(pri.max())}], "
                f"need [1, {k}])")
    return None


def _peel(st: _State, source: int, limit: int) -> np.ndarray:
    """Algorithm 1 main loop on a graph fully reachable from ``source``."""
    g, acc, sent = st.g, st.acc, st.sent
    dist = np.full(g.n, -np.inf)

    _propagate(st, np.arange(g.n, dtype=np.int64))
    frontier = (st.label_eid == NO_EDGE).nonzero()[0]
    acc.charge(*model.pack_ws(g.n))

    for i in range(limit + 1):
        if len(frontier) == 0:
            break
        with trace_span("peel-round", acc=acc, phase="dag01",
                        d=i, frontier=len(frontier)) as rsp:
            # R = ∪_{u∈F} SentLabel(u), filtered to labels broken by F
            members = frontier.tolist()
            candidates = sent.gather(members, acc)
            sent.clear_many(members, acc)
            acc.charge(*model.map_ws(len(candidates)))
            if len(candidates):
                labels = st.label_eid[candidates]
                heads = g.src[np.maximum(labels, 0)].tolist()
                peeled = set(members)
                invalid = np.array(sorted({
                    v for v, e, u, alive in zip(
                        candidates.tolist(), labels.tolist(), heads,
                        st.live[candidates].tolist())
                    if e != NO_EDGE and u in peeled and alive}),
                    dtype=np.int64)
            else:
                invalid = candidates
            # invalidate labels of R
            st.label_eid[invalid] = NO_EDGE
            # finalise the frontier at distance −i
            dist[frontier] = -i
            st.live[frontier] = False
            acc.charge(*model.map_ws(len(frontier)))
            rsp.count("finalized", len(frontier))
            rsp.count("invalidated", len(invalid))
            if i == limit:
                break
            _propagate(st, invalid)
            frontier = invalid[st.label_eid[invalid] == NO_EDGE]
            acc.charge(*model.pack_ws(len(invalid)))
    return dist


def _propagate(st: _State, vprime: np.ndarray) -> None:
    """Algorithm 2: restore maximum-priority negative-ancestor labels.

    ``vprime`` is the set of live vertices with invalid (⊥) labels.  After
    the call every live vertex is correctly labeled (Lemma 1).

    GetNearbyLabel runs at each priority from the highest down, and a
    priority at which it labels some vertex then extends those labels
    through ``G[V']`` by one reachability call, and the vertices it
    labels leave ``V'``.  The work is done where labels are set:
    :func:`_in_edge_candidates` keeps only the in-edges of ``V'`` that
    fire, each at the one priority at which it can, so a priority with
    no entry whose target is still in ``V'`` only charges its
    GetNearbyLabel map over the in-edges of ``V'`` and its two packs of
    ``V'``, whose sizes are running sums over the degree lists.
    """
    g, acc = st.g, st.acc
    vprime = vprime[st.live[vprime]] if len(vprime) else vprime
    st.propagate_calls += 1
    st.propagate_node_total += len(vprime)
    if len(vprime) == 0:
        return
    in_vp = np.zeros(g.n, dtype=bool)
    in_vp[vprime] = True
    keys, targets, labels, label_heads = _in_edge_candidates(st, vprime,
                                                             in_vp)
    members = vprime.tolist()
    size = len(members)
    table = sum(map(st.indeg.__getitem__, members))     # in-edges of V'
    incident = sum(map(st.degree.__getitem__, members))
    labeled: list[int] = []      # vertices labeled here, in labeling order
    heads: list[int] = []        # the head of each one's label
    left: set[int] = set()       # vertices that have left V'
    j, k = 0, len(keys)
    map_w, map_s = model.map_ws(table)
    pack_w, pack_s = model.pack_ws(size)
    for p in range(st.cap, 0, -1):
        if not size:
            break
        # GetNearbyLabel at p: the entries keyed p whose target is still
        # in V'; per target the last in reverse-CSR order wins, as in a
        # numpy fancy assignment
        hit: dict[int, int] = {}
        while j < k and keys[j] == p:  # repro: noqa[RS001] GetNearbyLabel's scan of the entries keyed p, covered by the map(T) charge below
            if targets[j] not in left:
                hit[targets[j]] = j
            j += 1
        acc.charge(map_w, map_s)
        acc.charge(pack_w, pack_s)
        if hit:
            sources = sorted(hit)
            acc.charge(*model.pack_ws(incident))
            st.reach_calls += 1
            st.reach_node_total += size
            res = multisource_reachability(
                g, np.array(sources, dtype=np.int64), acc, within=in_vp)
            # every reached vertex is new: it inherits the label of the
            # source that reaches it (π of a source is itself)
            reached = (res.pi >= 0).nonzero()[0]
            entries = [hit[s] for s in res.pi[reached].tolist()]
            new_labels = np.array([labels[e] for e in entries],
                                  dtype=np.int64)
            st.label_eid[reached] = new_labels
            st.parent_eid[reached] = new_labels
            st.label_changes[reached] += 1
            acc.charge(*model.map_ws(len(reached)))
            in_vp[reached] = False
            newly = reached.tolist()
            left.update(newly)
            labeled += newly
            heads += [label_heads[e] for e in entries]
            acc.charge(pack_w, pack_s)
            size -= len(newly)
            table -= sum(map(st.indeg.__getitem__, newly))
            incident -= sum(map(st.degree.__getitem__, newly))
            map_w, map_s = model.map_ws(table)
            pack_w, pack_s = model.pack_ws(size)
        else:
            acc.charge(pack_w, pack_s)
    # update SentLabel sets with all new label assignments, grouped by the
    # label head u (semisort idiom, §3.5)
    if labeled:
        acc.charge(*model.sort_ws(len(labeled)))
        groups: dict[int, list[int]] = {}
        for v, u in zip(labeled, heads):  # repro: noqa[RS001] the semisort's grouping pass, covered by the sort(|labeled|) charge above
            groups.setdefault(u, []).append(v)
        for u in sorted(groups):
            st.sent.add_batch(u, groups[u], acc)


def _in_edge_candidates(st: _State, vprime: np.ndarray, in_vp: np.ndarray
                        ) -> tuple[list[int], list[int], list[int],
                                   list[int]]:
    """The in-edges ``(u, v)`` of ``V'`` at which GetNearbyLabel fires, as
    four lists: the priority at which each fires (its key), ``v``, the
    label it gives ``v``, and that label's head.  Sorted by key
    descending and in reverse-CSR order within one key.

    Case A: a live −1 edge ``(u, v)`` labels ``v`` with itself at
    priority(u).  Case B: a live labeled ``u ∉ V'`` passes its label on
    at the priority of the label's head.  Both priorities are fixed for
    the whole Propagate call.  Liveness, weights and priorities do not
    change during it.  Labels change only inside ``V'``, and every vertex
    labeled at priority ``q`` gets a label of priority ``q`` and leaves
    ``V'``, so at any later priority ``p < q`` it can no more pass its
    label on (case B) than it could while it was in ``V'``.  Case B is
    therefore decided by the labels outside the initial ``V'``, which
    stay put.

    An edge whose cases both fire does so at the larger priority, where
    case A's label wins a tie.  The same argument makes that the only
    priority at which it can label ``v``: it labels ``v`` there unless
    ``v`` has left ``V'`` already, and ``v`` leaves ``V'`` once labeled.
    """
    g = st.g
    slots = in_edge_slots(g, vprime)
    eids = g.reids[slots]
    u = g.src[eids]
    live_u = st.live[u]
    u_label = st.label_eid[u]
    a_pri = np.where(live_u & (g.w[eids] == -1), st.pri[u], 0)
    head_pri = st.pri[g.src[np.maximum(u_label, 0)]]
    b_pri = np.where(live_u & ~in_vp[u] & (u_label != NO_EDGE), head_pri, 0)
    key = np.maximum(a_pri, b_pri)
    fire = key.nonzero()[0]
    key = key[fire]
    order = stable_argsort(st.cap - key, st.cap)
    fire = fire[order]
    key = key[order]
    eids = eids[fire]
    label = np.where(a_pri[fire] == key, eids, u_label[fire])
    return (key.tolist(), g.dst[eids].tolist(), label.tolist(),
            g.src[label].tolist())
