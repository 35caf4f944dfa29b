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

from dataclasses import dataclass

import numpy as np

from ..graph.csr import in_edge_slots
from ..graph.digraph import DiGraph, _per_vertex
from ..graph.validate import check_source, is_dag
from ..observability.metrics import metric_inc
from ..observability.tracer import trace_span
from ..reach.multisource import multisource_reachability
from ..resilience.errors import InputValidationError, VerificationError
from ..runtime import model
from ..runtime.metrics import Cost, CostAccumulator
from ..runtime.primitives import stable_argsort, unique_sorted
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
    propagate_calls: int = 0
    propagate_node_total: int = 0
    reach_calls: int = 0
    reach_node_total: int = 0


def dag01_limited_sssp(g: DiGraph, source: int, limit: int, *,
                       seed=0, acc: CostAccumulator | None = None,
                       validate: bool = True,
                       priorities: np.ndarray | None = None,
                       fault_plan=None) -> Dag01Result:
    """Solve distance-limited SSSP on a DAG with weights in ``{0, −1}``.

    Parameters
    ----------
    limit : int
        The distance limit ``L``: exact distances are produced for vertices
        with ``dist(s,v) ≥ −L``; farther vertices report ``−inf``.
    priorities : optional
        Override the random priorities (ablation A1 uses this): one
        integer per vertex of ``g``; fractional, NaN, infinite or
        misaligned ones raise :class:`InputValidationError`.
    validate : bool
        Check DAG-ness and the weight alphabet up front (costs O(n+m)).
    fault_plan : optional
        Resilience hook (site ``"priorities"``): perturbs the drawn
        priorities so tests can prove the contract check below fires.

    The §3.1 priority contract (every priority in ``[1, n]``) is always
    enforced — whether priorities were drawn, user-supplied, or
    fault-perturbed — and a violation raises
    :class:`~repro.resilience.errors.VerificationError`, which the
    improvement layer heals by redrawing with a fresh seed.
    """
    source = check_source(g, source)
    if limit < 0:
        raise InputValidationError("limit must be nonnegative")
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
        if fault_plan is not None:
            pri = fault_plan.perturb_priorities(pri)
        if sub.n and (pri.min() < 1 or pri.max() > sub.n):
            raise VerificationError(
                "peeling priorities violate the §3.1 contract "
                f"(range [{int(pri.min())}, {int(pri.max())}], "
                f"need [1, {sub.n}])",
                stage="dag01_peeling")
        local.charge(*model.map_ws(sub.n))

        st = _State(
            g=sub,
            pri=pri,
            live=np.ones(sub.n, dtype=bool),
            label_eid=np.full(sub.n, NO_EDGE, dtype=np.int64),
            parent_eid=np.full(sub.n, NO_EDGE, dtype=np.int64),
            sent=SetVector(sub.n),
            acc=local,
            label_changes=np.zeros(sub.n, dtype=np.int64),
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


def _peel(st: _State, source: int, limit: int) -> np.ndarray:
    """Algorithm 1 main loop on a graph fully reachable from ``source``."""
    g, acc = st.g, st.acc
    dist = np.full(g.n, -np.inf)

    _propagate(st, np.arange(g.n, dtype=np.int64))
    frontier = np.flatnonzero(st.label_eid == NO_EDGE)
    acc.charge(*model.pack_ws(g.n))

    for i in range(limit + 1):
        if len(frontier) == 0:
            break
        with trace_span("peel-round", acc=acc, phase="dag01",
                        d=i, frontier=len(frontier)) as rsp:
            # R = ∪_{u∈F} SentLabel(u), filtered to labels broken by F
            candidates = st.sent.gather(frontier, acc)
            st.sent.clear_many(frontier, acc)
            acc.charge(*model.map_ws(len(candidates)))
            in_f = np.zeros(g.n, dtype=bool)
            in_f[frontier] = True
            if len(candidates):
                cand_heads = g.src[st.label_eid[candidates].clip(min=0)]
                broken = (st.label_eid[candidates] != NO_EDGE) & \
                    in_f[cand_heads] & st.live[candidates]
                invalid = unique_sorted(candidates[broken])
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
    """
    g, acc = st.g, st.acc
    vprime = vprime[st.live[vprime]] if len(vprime) else vprime
    st.propagate_calls += 1
    st.propagate_node_total += len(vprime)
    if len(vprime) == 0:
        return
    in_vp = np.zeros(g.n, dtype=bool)
    in_vp[vprime] = True
    near = _in_edge_candidates(st, vprime, in_vp)
    newly_labeled: list[np.ndarray] = []
    cap = int(st.pri.max(initial=1))
    for p in range(cap, 0, -1):
        if len(vprime) == 0:
            break
        pack_w, pack_s = model.pack_ws(len(vprime))
        # V' holds unlabeled vertices only, so when GetNearbyLabel labels
        # none there are no sources and V' stays as it is
        labeled_any = _nearby_labels(st, near, p)
        acc.charge(pack_w, pack_s)
        if labeled_any:
            sources = vprime[st.label_eid[vprime] != NO_EDGE]
            # the model charges building G[V'], which the reach restricted
            # to V' (``within=``) stands in for
            w, s = model.pack_ws(_incident_edges(g, vprime, acc))
            acc.charge(w, s)
            st.reach_calls += 1
            st.reach_node_total += len(vprime)
            res = multisource_reachability(g, sources, acc,
                                           within=in_vp)
            pi = res.pi[vprime]
            reached = pi >= 0
            global_v = vprime[reached]
            global_pi = pi[reached]
            # inherit the label of the reaching source (π of a source is
            # itself, so already-labeled vertices keep their label)
            new_lab = st.label_eid[global_pi]
            changed = st.label_eid[global_v] != new_lab
            st.label_changes[global_v[changed]] += 1
            st.label_eid[global_v] = new_lab
            st.parent_eid[global_v] = new_lab
            w, s = model.map_ws(len(global_v))
            acc.charge(w, s)
            # remove newly labeled vertices from V' and their in-edges
            # from the table
            still = st.label_eid[vprime] == NO_EDGE
            newly_labeled.append(vprime[~still])
            in_vp[newly_labeled[-1]] = False
            vprime = vprime[still]
            near = near[:, in_vp[near[_V]]]
        acc.charge(pack_w, pack_s)
    # update SentLabel sets with all new label assignments, grouped by the
    # label head u (semisort idiom, §3.5)
    if newly_labeled:
        labeled = np.concatenate(newly_labeled)
        heads = g.src[st.label_eid[labeled]]
        acc.charge(*model.sort_ws(len(labeled)))
        order = stable_argsort(heads, g.n)
        heads_s, labeled_s = heads[order], labeled[order]
        bounds = ((heads_s[1:] != heads_s[:-1]).nonzero()[0] + 1).tolist()
        for lo, hi in zip([0, *bounds], [*bounds, len(heads_s)]):
            st.sent.add_batch(int(heads_s[lo]), labeled_s[lo:hi], acc)


# rows of the per-call in-edge table built by ``_in_edge_candidates``
_V, _EID, _ULABEL, _APRI, _BPRI = range(5)


def _in_edge_candidates(st: _State, vprime: np.ndarray,
                        in_vp: np.ndarray) -> np.ndarray:
    """The in-edges ``(u, v)`` of ``V'`` as a ``(5, k)`` int64 table in
    reverse-CSR order: rows ``v``, edge id, ``u``'s label, and the
    priority at which case A and case B of GetNearbyLabel fire on the
    edge (0: never).

    Both priorities are fixed for the whole Propagate call.  Liveness,
    weights and priorities do not change during it.  Labels change only
    inside ``V'``, and every vertex labeled at priority ``q`` gets a label
    of priority ``q`` and leaves ``V'``, so at any later priority
    ``p < q`` it can no more pass its label on (case B) than it could
    while it was in ``V'``.  Case B is therefore decided by the labels
    outside the initial ``V'``, which stay put.
    """
    g = st.g
    slots = in_edge_slots(g, vprime)
    eids = g.reids[slots]
    u = g.src[eids]
    live_u = st.live[u]
    u_label = st.label_eid[u]
    # case A: a live −1 edge (u, v) labels v with itself at priority(u)
    a_pri = np.where(live_u & (g.w[eids] == -1), st.pri[u], 0)
    # case B: a live labeled u outside V' passes its label on at the
    # priority of the label's head
    head_pri = st.pri[g.src[u_label.clip(min=0)]]
    b_pri = np.where(live_u & ~in_vp[u] & (u_label != NO_EDGE), head_pri, 0)
    return np.array((g.dst[eids], eids, u_label, a_pri, b_pri))


def _nearby_labels(st: _State, near: np.ndarray, p: int) -> bool:
    """GetNearbyLabel for every ``v ∈ V'`` at priority ``p`` (vectorised).

    ``near`` is the table of ``V'``'s in-edges from
    :func:`_in_edge_candidates`, restricted to the current ``V'``.
    Case A: an incoming live edge ``(u, v)`` with weight −1 and
    ``priority(u) = p`` labels ``v`` with that edge.
    Case B: an incoming live neighbour ``u ∉ V'`` whose own label has
    priority ``p`` passes that label on.
    Returns whether any vertex got a label.
    """
    acc = st.acc
    acc.charge(*model.map_ws(near.shape[1]))
    case_a = near[_APRI] == p
    hit = case_a | (near[_BPRI] == p)
    if not hit.any():
        return False
    # candidate label per qualifying edge slot
    tv = near[_V, hit]
    tl = np.where(case_a[hit], near[_EID, hit], near[_ULABEL, hit])
    old = st.label_eid[tv]
    st.label_eid[tv] = tl          # any one candidate per v (last wins)
    new = st.label_eid[tv]
    # count distinct vertices whose label changed (dedupe repeated slots)
    st.label_changes[unique_sorted(tv[new != old])] += 1
    st.parent_eid[tv] = new
    return True


def _incident_edges(g: DiGraph, nodes: np.ndarray,
                    acc: CostAccumulator) -> int:
    """Number of edges incident to ``nodes`` (for subgraph-build charging)."""
    deg = (g.indptr[nodes + 1] - g.indptr[nodes]) + \
        (g.rindptr[nodes + 1] - g.rindptr[nodes])
    return int(deg.sum())
