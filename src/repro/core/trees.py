"""Tree-structured scatter schedules (Träff trees) and their planner.

The paper's model is a rank-ordered *flat* scatter: the single-port root
sends every processor its share directly, one message after another
(Eq. 1).  Träff's companion papers — "On Optimal Trees for Irregular
Gather and Scatter Collectives" and "Practical, Linear-time, Fully
Distributed Algorithms for Irregular Gather and Scatter" — lift exactly
this irregular-counts problem onto *trees*: the root ships each subtree's
entire payload to the subtree root in one message, and subtree roots
relay in parallel.  On hierarchical platforms (high-latency inter-site
links) this trades one large message for ``p`` small ones and wins by the
latency-round argument.

Schedule model (store-and-forward, single-port, receiver-priced links)
----------------------------------------------------------------------

A node first receives its whole subtree payload in one message, then
sends each child its child-subtree payload — sequentially, through its
single port, in the tree's child order — and finally computes its own
share.  The cost of the message to child ``c`` carrying ``w`` items is
``Tcomm(c, w)``: the *receiving* processor's link cost, matching the
access-rate bottleneck model of Table 1 (``link(u, v)`` is priced by
``max(access_u, access_v)`` and the grid links all cross the slow side's
access link).  Formally, with ``recv(root) = 0`` and children
``c_1 .. c_k`` of ``v`` holding subtree payloads ``w_1 .. w_k``::

    recv(c_j)  = recv(v) + Σ_{l<=j} Tcomm(c_l, w_l)
    finish(v)  = recv(v) + Σ_{l<=k} Tcomm(c_l, w_l) + Tcomp(v, n_v)

**The flat tree reproduces Eq. 1 exactly**: with the root's children
being ranks ``0 .. p-2`` in order, ``recv(i) = Σ_{j<=i} Tcomm(j, n_j)``
and ``finish(i) = recv(i) + Tcomp(i, n_i)`` — which is why the tree
planner's flat candidate makes its makespan *structurally* ≤ the flat
planner's (the dominance the fuzzer's tree mode asserts).

Constructions
-------------

``flat_tree``
    Root sends every rank directly, in rank order (the paper's schedule).
``binomial_tree``
    The MPICH bcast recursion (cf. ``repro.mpi.collectives.bcast``):
    rank ``r``'s parent clears ``r``'s lowest set relative bit; children
    are served biggest-subtree-first.  Payload-oblivious.
``practical_tree``
    The linear-time construction in the spirit of Träff's distributed
    algorithm: order positive-payload ranks by descending payload, then
    recursively split the sequence near its payload midpoint — the parent
    ships the heavier half to that half's head and keeps splitting the
    remainder, giving O(log p) depth and payload-balanced subtrees.
``optimal_tree``
    The cost-optimal construction: an interval DP over the
    payload-descending order (an optimal tree exists whose subtrees are
    consecutive segments of that order, served left to right), minimizing
    the schedule above.  O(q³) states / O(q⁴) work over the ``q``
    participating ranks, so it is gated by ``opt_limit``.

``tree_lower_bound`` is Träff's communication lower bound specialised to
this model; it is sound for *any* single-port store-and-forward scatter
schedule — flat or tree — and doubles as the ``tree-lower-bound`` oracle
in :mod:`repro.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.profiler import stage_profile
from .distribution import DistributionResult, ScatterProblem, uniform_counts
from .solver import plan_scatter

__all__ = [
    "ScatterTree",
    "TreeSend",
    "TREE_CONSTRUCTIONS",
    "flat_tree",
    "binomial_tree",
    "practical_tree",
    "optimal_tree",
    "build_tree",
    "subtree_items",
    "tree_send_events",
    "tree_finish_times_exact",
    "tree_finish_times",
    "tree_makespan_exact",
    "tree_makespan",
    "tree_depth",
    "tree_lower_bound",
    "plan_scatter_tree",
]

#: Construction names accepted by :func:`build_tree` / the tree planner.
#: ``"auto"`` (planner only) evaluates every candidate and keeps the best.
TREE_CONSTRUCTIONS = ("flat", "binomial", "practical", "optimal")

#: Largest number of participating (positive-payload, non-root) ranks the
#: O(q⁴) optimal DP is attempted on; beyond it the planner's candidate set
#: falls back to the linear-time constructions.
DEFAULT_OPT_LIMIT = 48


@dataclass(frozen=True)
class ScatterTree:
    """A rooted scatter tree over processor positions ``0 .. p-1``.

    ``parent[i]`` is the position of ``i``'s parent (``-1`` for the
    root); ``children[i]`` lists ``i``'s children *in send order* — the
    order is part of the schedule, not just the shape.  Positions are
    indices into the owning :class:`ScatterProblem`'s processor tuple,
    so the root is position ``p - 1`` by the paper's convention.
    """

    parent: Tuple[int, ...]
    children: Tuple[Tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def check_valid(self) -> None:
        """Validate the spanning-rooted-tree invariants.

        Exactly one root, parent/children mutually consistent, and every
        position reaches the root (connected ⇒ acyclic at ``p`` nodes).
        """
        p = self.p
        if len(self.children) != p:
            raise ValueError(
                f"children table has {len(self.children)} rows for p={p}"
            )
        roots = [i for i, par in enumerate(self.parent) if par == -1]
        if len(roots) != 1:
            raise ValueError(f"tree must have exactly one root, got {roots}")
        for i, par in enumerate(self.parent):
            if par == -1:
                continue
            if not 0 <= par < p:
                raise ValueError(f"parent[{i}]={par} out of range")
            if i not in self.children[par]:
                raise ValueError(f"{i} missing from children[{par}]")
        for v, kids in enumerate(self.children):
            if len(set(kids)) != len(kids):
                raise ValueError(f"children[{v}] has duplicates: {kids}")
            for c in kids:
                if self.parent[c] != v:
                    raise ValueError(f"children[{v}] lists {c}, parent[{c}]={self.parent[c]}")
        # Connectivity: walk up from every node; the parent pointers are
        # consistent, so an unreachable node means a cycle off the root.
        root = roots[0]
        for i in range(p):
            hops, v = 0, i
            while v != root:
                v = self.parent[v]
                hops += 1
                if hops > p:
                    raise ValueError(f"position {i} does not reach the root")

    def preorder(self) -> List[int]:
        """Positions in DFS preorder (children visited in send order)."""
        out: List[int] = []
        stack = [self.root]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children[v]))
        return out

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible form (golden snapshots, wire derivation checks)."""
        return {
            "root": self.root,
            "parent": list(self.parent),
            "children": [list(kids) for kids in self.children],
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ScatterTree":
        return ScatterTree(
            parent=tuple(int(x) for x in doc["parent"]),
            children=tuple(tuple(int(c) for c in kids) for kids in doc["children"]),
        )


@dataclass(frozen=True)
class TreeSend:
    """One store-and-forward message of the tree schedule (exact times)."""

    src: int
    dst: int
    items: int
    start: Fraction
    end: Fraction


def _tree_from_children(children: Sequence[Sequence[int]], root: int) -> ScatterTree:
    p = len(children)
    parent = [-1] * p
    for v, kids in enumerate(children):
        for c in kids:
            parent[c] = v
    parent[root] = -1
    return ScatterTree(
        parent=tuple(parent), children=tuple(tuple(kids) for kids in children)
    )


def flat_tree(p: int) -> ScatterTree:
    """The paper's flat schedule as a depth-1 tree (root = last position)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    children: List[List[int]] = [[] for _ in range(p)]
    children[p - 1] = list(range(p - 1))
    return _tree_from_children(children, p - 1)


def binomial_tree(p: int) -> ScatterTree:
    """The MPICH binomial recursion rooted at the last position.

    Mirrors :func:`repro.mpi.collectives.bcast`'s mask arithmetic: with
    ``relative = (rank - root) mod p``, a node's parent clears its lowest
    set relative bit, and children are served in *descending* mask order
    (biggest subtree first), matching the bcast send phase.
    """
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    root = p - 1
    children: List[List[int]] = [[] for _ in range(p)]
    for rank in range(p):
        if rank == root:
            continue
        relative = (rank - root) % p
        mask = relative & -relative  # lowest set bit
        par = ((relative - mask) + root) % p
        children[par].append(rank)
    for v in range(p):
        children[v].sort(key=lambda c: -((c - root) % p))
    return _tree_from_children(children, root)


def _participating(counts: Sequence[int], p: int) -> List[int]:
    """Non-root positions with payload, by descending payload (ties: rank)."""
    return sorted(
        (i for i in range(p - 1) if counts[i] > 0),
        key=lambda i: (-counts[i], i),
    )


def _attach_idle(children: List[List[int]], counts: Sequence[int], p: int) -> None:
    """Zero-payload non-root ranks become trailing direct root children.

    They receive an empty message (cost 0 under the ``T(0) = 0``
    hypothesis) so the collective still spans every rank.
    """
    children[p - 1].extend(i for i in range(p - 1) if counts[i] <= 0)


def practical_tree(problem: ScatterProblem, counts: Sequence[int]) -> ScatterTree:
    """Linear-time payload-balanced construction (Träff's practical trees).

    Positive-payload ranks are ordered by descending payload; a parent
    repeatedly splits the remaining sequence at its payload midpoint,
    ships the heavier half to that half's head in one message, and keeps
    the lighter half for its next send.  Depth and per-node arity are
    both O(log p), and subtree payloads halve along every edge.
    """
    p = problem.p
    counts = problem.validate(counts)
    seq = _participating(counts, p)
    prefix = [0]
    for i in seq:
        prefix.append(prefix[-1] + counts[i])
    children: List[List[int]] = [[] for _ in range(p)]

    # (parent, lo, hi) ranges over seq; iterative to spare the recursion
    # limit on long chains (every split strictly shrinks [lo, hi)).
    stack: List[Tuple[int, int, int]] = [(p - 1, 0, len(seq))]
    while stack:
        par, lo, hi = stack.pop()
        while lo < hi:
            head = seq[lo]
            children[par].append(head)
            if hi - lo == 1:
                break
            total = prefix[hi] - prefix[lo]
            # Smallest k > lo whose prefix payload reaches half the range;
            # the heavy half [lo, k) travels first, headed by seq[lo].
            k = lo + 1
            while k < hi - 1 and 2 * (prefix[k] - prefix[lo]) < total:
                k += 1
            if k > lo + 1:
                stack.append((head, lo + 1, k))
            lo = k
    _attach_idle(children, counts, p)
    return _tree_from_children(children, p - 1)


def optimal_tree(
    problem: ScatterProblem,
    counts: Sequence[int],
    *,
    opt_limit: int = DEFAULT_OPT_LIMIT,
) -> ScatterTree:
    """Cost-optimal tree for ``counts`` via the Träff interval DP.

    Over the payload-descending order of participating ranks there is an
    optimal tree whose subtrees are *consecutive segments* served left to
    right; the DP searches that family exactly.  States: ``T(i, j)`` is
    the best completion offset of segment ``[i, j)`` rooted at position
    ``i`` (measured from the moment ``i`` holds its payload), through the
    helper ``H(i, k, j)`` — ``i`` still has to ship segments covering
    ``[k, j)`` and then compute::

        H(i, j, j) = Tcomp(i, n_i)
        H(i, k, j) = min_{k < m <= j}  Tcomm(k, W[k:m]) + max(T(k, m), H(i, m, j))
        T(i, j)    = H(i, i+1, j)

    The shape search runs in floats (ties break toward the smaller split,
    so it is deterministic); callers re-evaluate the returned tree in
    exact arithmetic.  Raises ``ValueError`` when more than ``opt_limit``
    ranks participate — the planner falls back to :func:`practical_tree`.
    """
    p = problem.p
    counts = problem.validate(counts)
    seq = _participating(counts, p)
    q = len(seq)
    if q > opt_limit:
        raise ValueError(
            f"{q} participating ranks exceed opt_limit={opt_limit}; "
            f"use practical_tree"
        )
    children: List[List[int]] = [[] for _ in range(p)]
    if q:
        payload = [counts[i] for i in seq]
        W = [0]
        for s in payload:
            W.append(W[-1] + s)
        comm = [problem.processors[i].comm for i in seq]
        comp = [float(problem.processors[i].comp(counts[i])) for i in seq]

        # T[(i, j)] and the split chains C[(i, k, j)], by segment length.
        T: Dict[Tuple[int, int], float] = {}
        C: Dict[Tuple[int, int, int], int] = {}
        for length in range(1, q + 1):
            for i in range(q - length + 1):
                j = i + length
                best: Dict[int, float] = {j: comp[i]}
                for k in range(j - 1, i, -1):
                    val, pick = float("inf"), j
                    for m in range(k + 1, j + 1):
                        cand = float(comm[k](W[m] - W[k])) + max(T[(k, m)], best[m])
                        if cand < val:
                            val, pick = cand, m
                    best[k] = val
                    C[(i, k, j)] = pick
                T[(i, j)] = best[i + 1] if length > 1 else comp[i]

        # Root chain: R[k] = best completion with segments [k, q) unsent.
        root_comp = float(problem.root.comp(counts[p - 1]))
        R = [0.0] * (q + 1)
        root_pick = [0] * q
        R[q] = root_comp
        for k in range(q - 1, -1, -1):
            val, pick = float("inf"), q
            for m in range(k + 1, q + 1):
                cand = float(comm[k](W[m] - W[k])) + max(T[(k, m)], R[m])
                if cand < val:
                    val, pick = cand, m
            R[k] = val
            root_pick[k] = pick

        def emit(owner: int, i: int, j: int) -> None:
            """Materialise segment [i, j) rooted at seq[i] under ``owner``."""
            children[owner].append(seq[i])
            k = i + 1
            while k < j:
                m = C[(i, k, j)]
                emit(seq[i], k, m)
                k = m

        k = 0
        while k < q:
            m = root_pick[k]
            emit(p - 1, k, m)
            k = m
    _attach_idle(children, counts, p)
    return _tree_from_children(children, p - 1)


def build_tree(
    construction: str,
    problem: ScatterProblem,
    counts: Sequence[int],
    *,
    opt_limit: int = DEFAULT_OPT_LIMIT,
) -> ScatterTree:
    """Build one named construction (see :data:`TREE_CONSTRUCTIONS`)."""
    if construction == "flat":
        return flat_tree(problem.p)
    if construction == "binomial":
        return binomial_tree(problem.p)
    if construction == "practical":
        return practical_tree(problem, counts)
    if construction == "optimal":
        return optimal_tree(problem, counts, opt_limit=opt_limit)
    raise ValueError(
        f"unknown tree construction {construction!r}; know {TREE_CONSTRUCTIONS}"
    )


# ---------------------------------------------------------------------------
# Schedule evaluation
# ---------------------------------------------------------------------------

def subtree_items(tree: ScatterTree, counts: Sequence[int]) -> Tuple[int, ...]:
    """Per-position subtree payload: own count plus every descendant's."""
    sizes = [int(c) for c in counts]
    for v in reversed(tree.preorder()):
        par = tree.parent[v]
        if par >= 0:
            sizes[par] += sizes[v]
    return tuple(sizes)


def tree_send_events(
    problem: ScatterProblem, tree: ScatterTree, counts: Sequence[int]
) -> List[TreeSend]:
    """The schedule's messages with exact start/end times, in start order.

    Zero-payload edges produce no message (an empty send is free under
    the ``T(0) = 0`` hypothesis and the wire layer still delivers the
    empty chunk).  Per-sender messages are sequential by construction —
    the single-port property the hypothesis suite asserts.
    """
    counts = problem.validate(counts)
    sizes = subtree_items(tree, counts)
    recv = [Fraction(0)] * tree.p
    events: List[TreeSend] = []
    for v in tree.preorder():
        clock = recv[v]
        for c in tree.children[v]:
            if sizes[c] > 0:
                dur = problem.processors[c].comm.exact(sizes[c])
                events.append(
                    TreeSend(src=v, dst=c, items=sizes[c], start=clock, end=clock + dur)
                )
                clock += dur
            recv[c] = clock
    events.sort(key=lambda e: (e.start, e.src, e.dst))
    return events


def _finish_exact(
    problem: ScatterProblem, tree: ScatterTree, counts: Sequence[int]
) -> List[Fraction]:
    counts = problem.validate(counts)
    if tree.p != problem.p:
        raise ValueError(f"tree spans {tree.p} positions, problem has p={problem.p}")
    sizes = subtree_items(tree, counts)
    recv = [Fraction(0)] * tree.p
    finish = [Fraction(0)] * tree.p
    for v in tree.preorder():
        clock = recv[v]
        for c in tree.children[v]:
            if sizes[c] > 0:
                clock += problem.processors[c].comm.exact(sizes[c])
            recv[c] = clock
        finish[v] = clock + problem.processors[v].comp.exact(counts[v])
    return finish


def tree_finish_times_exact(
    problem: ScatterProblem, tree: ScatterTree, counts: Sequence[int]
) -> List[Fraction]:
    """Per-position finish times of the tree schedule, exact."""
    return _finish_exact(problem, tree, counts)


def tree_finish_times(
    problem: ScatterProblem, tree: ScatterTree, counts: Sequence[int]
) -> List[float]:
    """Per-position finish times of the tree schedule, floats."""
    counts = problem.validate(counts)
    if tree.p != problem.p:
        raise ValueError(f"tree spans {tree.p} positions, problem has p={problem.p}")
    sizes = subtree_items(tree, counts)
    recv = [0.0] * tree.p
    finish = [0.0] * tree.p
    for v in tree.preorder():
        clock = recv[v]
        for c in tree.children[v]:
            if sizes[c] > 0:
                clock += problem.processors[c].comm(sizes[c])
            recv[c] = clock
        finish[v] = clock + problem.processors[v].comp(counts[v])
    return finish


def tree_makespan_exact(
    problem: ScatterProblem, tree: ScatterTree, counts: Sequence[int]
) -> Fraction:
    """Makespan of the tree schedule (exact Eq. 2 analogue)."""
    return max(_finish_exact(problem, tree, counts))


def tree_makespan(
    problem: ScatterProblem, tree: ScatterTree, counts: Sequence[int]
) -> float:
    """Makespan of the tree schedule, floats."""
    return max(tree_finish_times(problem, tree, counts))


def tree_depth(tree: ScatterTree) -> int:
    """Longest root-to-leaf edge count (flat tree: 1 for p > 1)."""
    depth = 0
    stack: List[Tuple[int, int]] = [(tree.root, 0)]
    while stack:
        v, d = stack.pop()
        depth = max(depth, d)
        stack.extend((c, d + 1) for c in tree.children[v])
    return depth


# ---------------------------------------------------------------------------
# Träff communication lower bound
# ---------------------------------------------------------------------------

def tree_lower_bound(problem: ScatterProblem, counts: Sequence[int]) -> Fraction:
    """Lower bound on any single-port store-and-forward scatter of ``counts``.

    Three components, each gated by the hypotheses that make it sound:

    * **Per-processor** (always): processor ``i`` computes its ``n_i``
      items, so the makespan is at least ``max_i Tcomp(i, n_i)``.  Under
      increasing costs the message delivering ``i``'s payload carries at
      least ``n_i`` items over ``i``'s link, adding ``Tcomm(i, n_i)`` for
      non-root ``i``.
    * **Root emission** (affine): every non-root item leaves the root's
      single port exactly once, at a marginal rate no better than the
      cheapest non-root link; the root computes its own share after (or
      interleaved with — the port and CPU serialize either way) those
      sends: ``β_min · (n − n_root) + Tcomp(root, n_root)``.
    * **Latency rounds** (affine): with every message paying at least the
      cheapest participating intercept ``α_min``, the set of ranks that
      hold their payload can at most double per ``α_min`` window —
      reaching ``q`` participants needs ``α_min · ⌈log₂ q⌉``.

    The bound is exact (:class:`~fractions.Fraction`); flat Eq. 1
    schedules satisfy it too, which is what lets the ``tree-lower-bound``
    oracle cross-check every planner, flat and tree alike.
    """
    counts = problem.validate(counts)
    p = problem.p
    root = p - 1
    lb = Fraction(0)
    for i, (proc, c) in enumerate(zip(problem.processors, counts)):
        term = proc.comp.exact(c)
        if i != root and problem.is_increasing:
            term += proc.comm.exact(c)
        lb = max(lb, term)
    if problem.is_affine and p > 1:
        remote = problem.n - counts[root]
        if remote > 0:
            beta_min = min(
                proc.comm.rate for proc in problem.processors[: p - 1]
            )
            lb = max(lb, beta_min * remote + problem.root.comp.exact(counts[root]))
        holders = [i for i in range(p - 1) if counts[i] > 0]
        if holders:
            alpha_min = min(
                problem.processors[i].comm.intercept for i in holders
            )
            if alpha_min > 0:
                # q = len(holders) + 1 participants; ⌈log₂ q⌉ = (q-1).bit_length()
                lb = max(lb, alpha_min * len(holders).bit_length())
    return lb


# ---------------------------------------------------------------------------
# Tree-aware planner
# ---------------------------------------------------------------------------

def plan_scatter_tree(
    problem: ScatterProblem,
    *,
    construction: str = "auto",
    algorithm: str = "auto",
    order_policy: Optional[str] = "bandwidth-desc",
    opt_limit: int = DEFAULT_OPT_LIMIT,
) -> DistributionResult:
    """Co-optimize a distribution *and* a scatter tree for it.

    First solves the flat problem (``algorithm``/``order_policy`` are the
    regular :func:`~repro.core.solver.plan_scatter` parameters), then
    evaluates a candidate family — the flat-optimal counts and the
    uniform counts, each under every construction (``optimal`` gated by
    ``opt_limit``) — in exact arithmetic and keeps the best schedule.
    The flat candidate evaluates to exactly the flat makespan (flat-tree
    ≡ Eq. 1), so the returned makespan is **never worse than the flat
    planner's** when ``construction="auto"``.  Pinning ``construction``
    skips the search and builds that tree over the flat-optimal counts.

    The result's ``algorithm`` is ``"tree-<construction>"`` and
    ``info["tree"]`` carries the :class:`ScatterTree`; ``info`` also
    records the flat baseline, the Träff lower bound and the winning
    counts' source (``"solver"`` or ``"uniform"``).
    """
    prof = stage_profile()
    with prof.stage("flat-baseline"):
        flat = plan_scatter(problem, algorithm=algorithm, order_policy=order_policy)
        solved = flat.problem
        flat_exact = solved.makespan_exact(flat.counts)

    p = solved.p
    with prof.stage("tree-search"):
        if construction == "auto":
            count_sources = [("solver", flat.counts)]
            uniform = uniform_counts(solved.n, p)
            if uniform != flat.counts:
                count_sources.append(("uniform", uniform))
            candidates: List[Tuple[str, str, Tuple[int, ...], ScatterTree]] = []
            for source, counts in count_sources:
                for name in TREE_CONSTRUCTIONS:
                    if name == "flat" and source != "solver":
                        continue  # flat/uniform is the paper's §2.2 baseline, never better
                    try:
                        tree = build_tree(name, solved, counts, opt_limit=opt_limit)
                    except ValueError:
                        continue  # optimal DP over the opt_limit gate
                    candidates.append((name, source, counts, tree))
        else:
            tree = build_tree(construction, solved, flat.counts, opt_limit=opt_limit)
            candidates = [(construction, "solver", flat.counts, tree)]

        best: Optional[Tuple[Fraction, str, str, Tuple[int, ...], ScatterTree]] = None
        for name, source, counts, tree in candidates:
            span = tree_makespan_exact(solved, tree, counts)
            if best is None or span < best[0]:
                best = (span, name, source, counts, tree)
        assert best is not None  # the flat candidate always materialises
        span, name, source, counts, tree = best

    info: Dict[str, Any] = {
        "tree": tree,
        "construction": name,
        "counts_source": source,
        "flat_algorithm": flat.algorithm,
        "flat_makespan": float(flat_exact),
        "flat_makespan_exact": flat_exact,
        "lower_bound_exact": tree_lower_bound(solved, counts),
        "subtree_items": subtree_items(tree, counts),
        "depth": tree_depth(tree),
    }
    profile = prof.as_info()
    if profile is not None:
        info["profile"] = profile
    return DistributionResult(
        problem=solved,
        counts=counts,
        makespan=float(span),
        algorithm=f"tree-{name}",
        makespan_exact=span,
        info=info,
    )
