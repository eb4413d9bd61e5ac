"""Pure-Python network simplex — the golden model for the mini-C port.

Uses the same data structures as ``181.mcf`` (and as our mini-C source):
a spanning-tree basis threaded with ``pred`` / ``child`` / ``sibling`` /
``sibling_prev`` pointers, per-node ``orientation`` (UP when the basic arc
points from the node to its parent), ``basic_arc``, ``depth`` and
``potential``; arcs with ``ident`` status (BASIC / AT_LOWER / AT_UPPER).

``refresh_potential`` is the paper's Figure 3 loop, transcribed.

Tested against ``networkx.min_cost_flow`` in
``tests/mcf/test_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import WorkloadError
from .instance import McfInstance

UP = 1
DOWN = 2

BASIC = 0
AT_LOWER = 1
AT_UPPER = 2

BIGM = 1 << 40
BIGCAP = 1 << 40

BASKET_SIZE = 30
GROUP_SIZE = 300


@dataclass(eq=False)
class Node:
    """A network-simplex node (mirrors the mini-C struct)."""
    number: int
    pred: Optional["Node"] = None
    child: Optional["Node"] = None
    sibling: Optional["Node"] = None
    sibling_prev: Optional["Node"] = None
    depth: int = 0
    orientation: int = 0
    basic_arc: Optional["Arc"] = None
    potential: int = 0
    mark: int = 0
    time: int = 0

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.number}>"


@dataclass(eq=False)
class Arc:
    """A network-simplex arc (mirrors the mini-C struct)."""
    tail: Node
    head: Node
    cost: int
    cap: int
    flow: int = 0
    ident: int = AT_LOWER

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Arc {self.tail.number}->{self.head.number}>"


class NetworkSimplex:
    """Primal network simplex with upper bounds and artificial root arcs."""

    def __init__(self, instance: McfInstance) -> None:
        self.instance = instance
        self.iterations = 0
        self.refresh_calls = 0
        self.bea_scans = 0
        self.checksum = 0
        n = instance.n
        self.root = Node(number=0)
        self.nodes = [self.root] + [Node(number=i) for i in range(1, n + 1)]
        self.arcs: list[Arc] = [
            Arc(self.nodes[tail], self.nodes[head], cost, cap)
            for tail, head, cap, cost in instance.arcs
        ]
        self.artificial: list[Arc] = []
        self._build_initial_tree(instance.supplies)
        self._bea_cursor = 0

    # -------------------------------------------------------------- set-up

    def _build_initial_tree(self, supplies) -> None:
        """All-artificial starting basis: node i hangs off the root via an
        artificial arc carrying its supply."""
        root = self.root
        root.potential = 0
        root.depth = 0
        prev_child: Optional[Node] = None
        for i, supply in enumerate(supplies, start=1):
            node = self.nodes[i]
            if supply >= 0:
                arc = Arc(node, root, BIGM, BIGCAP, flow=supply, ident=BASIC)
                node.orientation = UP
            else:
                arc = Arc(root, node, BIGM, BIGCAP, flow=-supply, ident=BASIC)
                node.orientation = DOWN
            self.artificial.append(arc)
            node.pred = root
            node.depth = 1
            node.basic_arc = arc
            node.child = None
            node.sibling = None
            node.sibling_prev = prev_child
            if prev_child is not None:
                prev_child.sibling = node
            else:
                root.child = node
            prev_child = node
        self.refresh_potential()

    # -------------------------------------------- the paper's Figure 3 loop

    def refresh_potential(self) -> int:
        """Recompute all potentials by walking the child/sibling threading
        — the transcription of the paper's Figure 3."""
        self.refresh_calls += 1
        checksum = 0
        root = self.root
        tmp = node = root.child
        while node is not root and node is not None:
            while node is not None:
                if node.orientation == UP:
                    node.potential = node.basic_arc.cost + node.pred.potential
                else:  # == DOWN
                    node.potential = node.pred.potential - node.basic_arc.cost
                    checksum += 1
                tmp = node
                node = node.child
            node = tmp
            while node.pred is not None:
                tmp = node.sibling
                if tmp is not None:
                    node = tmp
                    break
                node = node.pred
            if node.pred is None:
                break
        self.checksum += checksum
        return checksum

    # -------------------------------------------------------------- pricing

    @staticmethod
    def red_cost(arc: Arc) -> int:
        """Reduced cost c - pot(tail) + pot(head)."""
        return arc.cost - arc.tail.potential + arc.head.potential

    @staticmethod
    def _is_candidate(arc: Arc, red: int) -> bool:
        return (arc.ident == AT_LOWER and red < 0) or (
            arc.ident == AT_UPPER and red > 0
        )

    def primal_bea_mpp(self) -> Optional[Arc]:
        """Multiple partial pricing: scan arc groups cyclically from a
        moving cursor, fill a basket, sort it, return the best candidate."""
        arcs = self.arcs
        m = len(arcs)
        if m == 0:
            return None
        basket: list[tuple[int, Arc]] = []
        scanned = 0
        cursor = self._bea_cursor
        while scanned < m:
            limit = min(GROUP_SIZE, m - scanned)
            for _ in range(limit):
                arc = arcs[cursor]
                cursor = cursor + 1
                if cursor == m:
                    cursor = 0
                red = self.red_cost(arc)
                if self._is_candidate(arc, red):
                    basket.append((abs(red), arc))
            scanned += limit
            self.bea_scans += limit
            if len(basket) >= BASKET_SIZE:
                break
            if basket and scanned >= GROUP_SIZE * 2:
                break
        self._bea_cursor = cursor
        if not basket:
            return None
        basket.sort(key=lambda item: item[0], reverse=True)  # sort_basket
        return basket[0][1]

    def price_out_impl(self) -> Optional[Arc]:
        """Full repricing sweep over every arc (the fallback/verification
        scan; in real MCF this prices the implicit arcs)."""
        best: Optional[Arc] = None
        best_abs = 0
        for arc in self.arcs:
            red = self.red_cost(arc)
            if self._is_candidate(arc, red) and abs(red) > best_abs:
                best_abs = abs(red)
                best = arc
        return best

    # ---------------------------------------------------------------- pivot

    @staticmethod
    def _residual_up(node: Node) -> int:
        """Residual for pushing flow from ``node`` toward its parent."""
        arc = node.basic_arc
        if node.orientation == UP:
            return arc.cap - arc.flow
        return arc.flow

    @staticmethod
    def _residual_down(node: Node) -> int:
        """Residual for pushing flow from the parent toward ``node``."""
        arc = node.basic_arc
        if node.orientation == UP:
            return arc.flow
        return arc.cap - arc.flow

    def _find_join(self, t: Node, h: Node) -> Node:
        while t is not h:
            if t.depth >= h.depth:
                t = t.pred
            else:
                h = h.pred
        return t

    def primal_iminus(self, entering: Arc):
        """Find the cycle's max push and the leaving arc.

        Returns (delta, leaving_node_or_None, on_from_side).
        ``leaving_node`` is the tree node whose basic arc leaves; None
        means the entering arc itself bounds the push.
        """
        if entering.ident == AT_LOWER:
            from_node, to_node = entering.tail, entering.head
            delta = entering.cap - entering.flow
        else:
            from_node, to_node = entering.head, entering.tail
            delta = entering.flow
        join = self._find_join(from_node, to_node)
        leaving: Optional[Node] = None
        on_from_side = False

        # the cycle returns through the tree: to_node -> join -> from_node,
        # so the to-side pushes toward the root and the from-side away
        v = from_node
        while v is not join:
            residual = self._residual_down(v)
            if residual < delta:
                delta = residual
                leaving = v
                on_from_side = True
            v = v.pred
        v = to_node
        while v is not join:
            residual = self._residual_up(v)
            if residual < delta:
                delta = residual
                leaving = v
                on_from_side = False
            v = v.pred
        return delta, leaving, on_from_side

    def _apply_flow(self, entering: Arc, delta: int) -> None:
        if entering.ident == AT_LOWER:
            from_node, to_node = entering.tail, entering.head
            entering.flow += delta
        else:
            from_node, to_node = entering.head, entering.tail
            entering.flow -= delta
        join = self._find_join(from_node, to_node)
        # from-side: flow descends join -> from_node (toward each v)
        v = from_node
        while v is not join:
            arc = v.basic_arc
            arc.flow += -delta if v.orientation == UP else delta
            v = v.pred
        # to-side: flow climbs to_node -> join (away from each v)
        v = to_node
        while v is not join:
            arc = v.basic_arc
            arc.flow += delta if v.orientation == UP else -delta
            v = v.pred

    # tree surgery ----------------------------------------------------------

    @staticmethod
    def _detach(node: Node) -> None:
        parent = node.pred
        if parent.child is node:
            parent.child = node.sibling
            if node.sibling is not None:
                node.sibling.sibling_prev = None
        else:
            node.sibling_prev.sibling = node.sibling
            if node.sibling is not None:
                node.sibling.sibling_prev = node.sibling_prev
        node.sibling = None
        node.sibling_prev = None

    @staticmethod
    def _attach(node: Node, parent: Node) -> None:
        node.pred = parent
        node.sibling = parent.child
        node.sibling_prev = None
        if parent.child is not None:
            parent.child.sibling_prev = node
        parent.child = node

    def update_tree(self, entering: Arc, leaving_node: Node, q: Node, h: Node) -> None:
        """Re-root the cut subtree: reverse pred pointers along q..w and
        hang q under h via the entering arc (w = leaving_node)."""
        w = leaving_node
        new_pred = h
        new_arc = entering
        cur: Optional[Node] = q
        while True:
            old_pred = cur.pred
            old_arc = cur.basic_arc
            self._detach(cur)
            self._attach(cur, new_pred)
            cur.basic_arc = new_arc
            cur.orientation = UP if new_arc.tail is cur else DOWN
            if cur is w:
                break
            new_pred = cur
            new_arc = old_arc
            cur = old_pred
        self._refresh_depth(q)

    def _refresh_depth(self, subtree: Node) -> None:
        """Recompute depths below (and including) ``subtree``."""
        subtree.depth = subtree.pred.depth + 1
        node = subtree.child
        while node is not None and node is not subtree:
            node.depth = node.pred.depth + 1
            if node.child is not None:
                node = node.child
                continue
            while node is not subtree and node.sibling is None:
                node = node.pred
            if node is subtree:
                break
            node = node.sibling

    # ----------------------------------------------------------------- solve

    def solve(self, max_iterations: Optional[int] = None,
              refresh_every: int = 1, price_out_every: int = 8) -> int:
        """Run to optimality; returns the optimal cost of the real arcs."""
        limit = max_iterations or 50 * max(len(self.arcs), 1) + 1000
        while True:
            self.iterations += 1
            if self.iterations > limit:
                raise WorkloadError("network simplex iteration limit exceeded")
            if price_out_every and self.iterations % price_out_every == 0:
                entering = self.price_out_impl()
            else:
                entering = self.primal_bea_mpp() or self.price_out_impl()
            if entering is None:
                break
            delta, leaving_node, on_from_side = self.primal_iminus(entering)
            self._apply_flow(entering, delta)
            if leaving_node is None:
                # bound flip: the entering arc saturated
                entering.ident = AT_UPPER if entering.ident == AT_LOWER else AT_LOWER
            else:
                leaving_arc = leaving_node.basic_arc
                leaving_arc.ident = (
                    AT_LOWER if leaving_arc.flow == 0 else AT_UPPER
                )
                if entering.ident == AT_LOWER:
                    from_node, to_node = entering.tail, entering.head
                else:
                    from_node, to_node = entering.head, entering.tail
                q = from_node if on_from_side else to_node
                h = to_node if on_from_side else from_node
                entering.ident = BASIC
                self.update_tree(entering, leaving_node, q, h)
            if refresh_every and self.iterations % refresh_every == 0:
                self.refresh_potential()
        if not self.dual_feasible():
            raise WorkloadError("final basis is not dual feasible")
        return self.flow_cost()

    # ----------------------------------------------------------- validation

    def flow_cost(self) -> int:
        """Total cost of the real arcs' flow."""
        return sum(arc.flow * arc.cost for arc in self.arcs)

    def artificial_flow(self) -> int:
        """Flow remaining on artificial arcs (0 iff feasible)."""
        return sum(arc.flow for arc in self.artificial)

    def dual_feasible(self) -> bool:
        """Do all nonbasic arcs satisfy the optimality signs?"""
        self.refresh_potential()
        for arc in self.arcs:
            red = self.red_cost(arc)
            if arc.ident == AT_LOWER and red < 0:
                return False
            if arc.ident == AT_UPPER and red > 0:
                return False
        return True

    def flows_conserve(self) -> bool:
        """Every node's net outflow equals its supply (includes artificials)."""
        net = [0] * (self.instance.n + 1)
        for arc in list(self.arcs) + self.artificial:
            if arc.flow < 0 or arc.flow > arc.cap:
                return False
            net[arc.tail.number] += arc.flow
            net[arc.head.number] -= arc.flow
        for i, supply in enumerate(self.instance.supplies, start=1):
            if net[i] != supply:
                return False
        return net[0] == 0


def solve_reference(instance: McfInstance, **kwargs) -> int:
    """Solve and return the optimal cost (raises if infeasible artifacts
    remain)."""
    simplex = NetworkSimplex(instance)
    cost = simplex.solve(**kwargs)
    if simplex.artificial_flow() != 0:
        raise WorkloadError("instance infeasible: artificial flow remains")
    return cost


__all__ = [
    "NetworkSimplex",
    "Node",
    "Arc",
    "solve_reference",
    "UP",
    "DOWN",
    "BASIC",
    "AT_LOWER",
    "AT_UPPER",
    "BIGM",
]
