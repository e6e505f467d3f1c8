"""Selectable collective strategies (the chainermn communicator pattern).

The paper's metacomputing applications live or die on how collectives
cross the ~100 km WAN link between Jülich and Sankt Augustin.  One
algorithm family does not fit all of them, so — following chainermn's
``create_communicator`` selection pattern — every
:class:`~repro.metampi.comm.Intracomm` carries a
:class:`CollectiveStrategy` chosen at construction time:

============== ==============================================================
Name           Algorithms
============== ==============================================================
naive          Star trees rooted at the collective's root; direct N²
               alltoall.  Every message is point-to-point with the root,
               so inter-island traffic crosses the WAN once per remote
               rank.  The ablation baseline.
flat           Binomial trees over the plain rank order, topology-blind
               (log-depth, but WAN crossings scattered over the tree).
ring           Chain/ring algorithms: bandwidth-optimal ring allreduce
               and ring reduce-scatter + allgather for large
               ``np.ndarray`` buffers (2(n-1) steps, each moving ~1/n of
               the data), pipeline-chain trees for the rooted ops.
hierarchical   Topology-aware (paper Section 3): island-aware trees, and
               true hierarchical allreduce/allgather/alltoall built on
               per-site subcommunicators — intra-site reduction on the
               fast interconnect, exactly one leader exchange across the
               WAN per direction, intra-site broadcast.
============== ==============================================================

Strategies are stateless singletons shared between communicators and
rank threads.  The topology they need (islands, trees, hierarchical site
parts) is built once per communicator and kept on it (``Intracomm._tree``);
the rest lives on the calling rank's stack.  Every strategy preserves MPI
reduction semantics: ``reduce`` / ``allreduce`` / ``scan`` fold in rank
order, and strategies whose natural message order would reorder the fold
(ring, hierarchical) fall back to an order-preserving path whenever
``op.commutative`` is false (and, for hierarchical, whenever the islands
do not form contiguous rank blocks).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional, Sequence

import numpy as np

from repro.metampi.errors import MetaMpiError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metampi.comm import Intracomm


def _binomial_parent_children(
    n: int,
) -> tuple[dict[int, int], dict[int, list[int]]]:
    """Binomial tree over positions 0..n-1 rooted at position 0."""
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for i in range(1, n):
        p = i - (1 << (i.bit_length() - 1))
        parent[i] = p
        children[p].append(i)
    return parent, children


def _received(data: Any, like: np.ndarray) -> np.ndarray:
    """A peer's buffer partial in the shape of ``like``; a size mismatch
    means the ranks passed send buffers of different sizes."""
    data = np.asarray(data)
    if data.size != like.size:
        raise MetaMpiError(
            f"received {data.size} elements where {like.size} were expected: "
            "send buffers differ in size across ranks"
        )
    return data.reshape(like.shape)


def _is_commutative(op: Any) -> bool:
    """Ops without an explicit flag (plain callables) are assumed
    commutative, matching MPI's default for builtin ops."""
    return bool(getattr(op, "commutative", True))


class _ElementwiseOp:
    """Lift a scalar Op to elementwise application over equal-length
    sequences (for reduce_scatter); forwards commutativity."""

    def __init__(self, op):
        self.op = op

    @property
    def commutative(self) -> bool:
        return _is_commutative(self.op)

    def __call__(self, a, b):
        return [self.op(x, y) for x, y in zip(a, b)]


class CollectiveStrategy:
    """One algorithm family for a communicator's collectives.

    The base class implements every collective generically in terms of
    :meth:`tree` (the fan-in/fan-out shape) plus point-to-point sends;
    subclasses override ``tree`` and any collective for which they have
    a structurally better algorithm.  Methods take the communicator and
    the calling rank's context as their first arguments — strategy
    objects are stateless and shared, and the communicator's public
    method has already checked that the caller is a member.
    """

    name = "abstract"

    # -- topology -----------------------------------------------------------
    def tree(
        self, comm: "Intracomm", root: int
    ) -> tuple[dict[int, int], dict[int, list[int]]]:
        """Parent/children maps (comm-local ranks) rooted at ``root``."""
        raise NotImplementedError

    # -- object collectives -------------------------------------------------
    def bcast(self, comm, ctx, obj: Any, root: int) -> Any:
        tag = comm._coll_tag(ctx)
        parent, children = comm._tree(root)
        me = comm._index[ctx.world_rank]
        if me != root:
            obj = comm._recv_i(ctx, parent[me], tag)
        for child in children[me]:
            comm._send_i(ctx, "obj", obj, child, tag)
        return obj

    def gather(self, comm, ctx, obj: Any, root: int) -> Optional[list]:
        tag = comm._coll_tag(ctx)
        parent, children = comm._tree(root)
        me = comm._index[ctx.world_rank]
        bundle: dict[int, Any] = {me: obj}
        for child in children[me]:
            bundle.update(comm._recv_i(ctx, child, tag))
        if me != root:
            comm._send_i(ctx, "obj", bundle, parent[me], tag)
            return None
        return [bundle[r] for r in range(comm.size)]

    def scatter(self, comm, ctx, values: Optional[Sequence], root: int) -> Any:
        tag = comm._coll_tag(ctx)
        parent, children = comm._tree(root)
        me = comm._index[ctx.world_rank]
        if me == root:  # Intracomm.scatter has checked ``values``
            bundle = {r: values[r] for r in range(comm.size)}
        else:
            bundle = comm._recv_i(ctx, parent[me], tag)

        # Pass each child the slice for its whole subtree.
        def collect_subtree(r: int) -> set:
            s = {r}
            for c in children[r]:
                s |= collect_subtree(c)
            return s

        for child in children[me]:
            keys = collect_subtree(child)
            comm._send_i(ctx, "obj", {k: bundle[k] for k in keys}, child, tag)
        return bundle[me]

    def allgather(self, comm, ctx, obj: Any) -> list:
        return self.bcast(comm, ctx, self.gather(comm, ctx, obj, root=0), root=0)

    def reduce(self, comm, ctx, value: Any, op, root: int) -> Any:
        """Rank-ordered fold at ``root`` (order-correct for every op)."""
        items = self.gather(comm, ctx, value, root)
        if items is None:
            return None
        acc = items[0]
        for item in items[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(self, comm, ctx, value: Any, op) -> Any:
        return self.bcast(comm, ctx, self.reduce(comm, ctx, value, op, root=0), root=0)

    def alltoall(self, comm, ctx, values: Sequence) -> list:
        """Personalized exchange: direct pairwise messages (N²)."""
        tag = comm._coll_tag(ctx)
        me = comm._index[ctx.world_rank]
        for r in range(comm.size):
            if r != me:
                comm._send_i(ctx, "obj", values[r], r, tag)
        out = [None] * comm.size
        out[me] = values[me]
        for r in range(comm.size):
            if r != me:
                out[r] = comm._recv_i(ctx, r, tag)
        return out

    def reduce_scatter(self, comm, ctx, values: Sequence, op) -> Any:
        reduced = self.reduce(comm, ctx, list(values), _ElementwiseOp(op), root=0)
        return self.scatter(comm, ctx, reduced, root=0)

    def scan(self, comm, ctx, value: Any, op) -> Any:
        """Inclusive prefix reduction: a chain along rank order, the same
        under every strategy."""
        tag = comm._coll_tag(ctx)
        me = comm._index[ctx.world_rank]
        acc = value
        if me > 0:
            acc = op(comm._recv_i(ctx, me - 1, tag), value)
        if me < comm.size - 1:
            comm._send_i(ctx, "obj", acc, me + 1, tag)
        return acc

    def exscan(self, comm, ctx, value: Any, op) -> Any:
        """Exclusive prefix reduction (rank 0 gets None), chained like
        :meth:`scan`."""
        tag = comm._coll_tag(ctx)
        me = comm._index[ctx.world_rank]
        prior = None if me == 0 else comm._recv_i(ctx, me - 1, tag)
        if me < comm.size - 1:
            outgoing = value if prior is None else op(prior, value)
            comm._send_i(ctx, "obj", outgoing, me + 1, tag)
        return prior

    def barrier(self, comm, ctx) -> None:
        """Synchronize; afterwards all rank clocks are equal.

        Round 1 (this strategy's allgather) makes every rank transitively
        wait for every other rank, so each post-round-1 clock is >= the
        slowest rank's entry clock.  Round 2 agrees on the common exit
        clock: the maximum of the post-round-1 clocks.  (The second
        round's own sender overheads are idealized away so all exit
        clocks are exactly equal — a µs-scale idealization.)
        """
        self.allgather(comm, ctx, ctx.clock)
        ctx.clock = max(self.allgather(comm, ctx, ctx.clock))

    # -- buffer collectives -------------------------------------------------
    def Bcast(self, comm, ctx, buf: np.ndarray, root: int) -> None:
        tag = comm._coll_tag(ctx)
        parent, children = comm._tree(root)
        me = comm._index[ctx.world_rank]
        if me != root:
            comm._copy_into(buf, comm._recv_i(ctx, parent[me], tag))
        for child in children[me]:
            comm._send_i(ctx, "buf", buf, child, tag)

    def Reduce(
        self,
        comm,
        ctx,
        sendbuf: np.ndarray,
        recvbuf: Optional[np.ndarray],
        op,
        root: int,
    ) -> None:
        if not _is_commutative(op):
            # Order-preserving path: bundle the buffers up the tree and
            # fold in rank order at the root.
            parts = self.gather(comm, ctx, np.array(sendbuf, copy=True), root)
            if comm._index[ctx.world_rank] == root:
                if recvbuf is None:
                    raise MetaMpiError("root must supply recvbuf")
                acc = parts[0]
                for part in parts[1:]:
                    acc = _apply_op(op, acc, _received(part, acc))
                comm._copy_into(recvbuf, acc)
            return
        tag = comm._coll_tag(ctx)
        parent, children = comm._tree(root)
        me = comm._index[ctx.world_rank]
        acc = np.array(sendbuf, copy=True)
        for child in children[me]:
            data = comm._recv_i(ctx, child, tag)
            op.np_ufunc(acc, _received(data, acc), out=acc)
        if me != root:
            comm._send_i(ctx, "buf", acc, parent[me], tag)
        else:
            if recvbuf is None:
                raise MetaMpiError("root must supply recvbuf")
            comm._copy_into(recvbuf, acc)

    def Allreduce(
        self, comm, ctx, sendbuf: np.ndarray, recvbuf: np.ndarray, op
    ) -> None:
        if comm._index[ctx.world_rank] == 0:
            self.Reduce(comm, ctx, sendbuf, recvbuf, op, root=0)
        else:
            self.Reduce(comm, ctx, sendbuf, None, op, root=0)
        self.Bcast(comm, ctx, recvbuf, root=0)


def _apply_op(op, a, b):
    """Apply a reduction op to two array partials, preferring the ufunc."""
    ufunc = getattr(op, "np_ufunc", None)
    if ufunc is not None:
        return ufunc(a, b)
    return op(a, b)


class NaiveStrategy(CollectiveStrategy):
    """Star topology: every rank talks directly to the root.

    The simplest correct algorithms, and the worst over a WAN — every
    remote rank's message crosses the shared external attachment
    individually and serializes behind the others.
    """

    name = "naive"

    def tree(self, comm, root):
        n = comm.size
        parent = {i: root for i in range(n) if i != root}
        children: dict[int, list[int]] = {i: [] for i in range(n)}
        children[root] = [i for i in range(n) if i != root]
        return parent, children


class FlatStrategy(CollectiveStrategy):
    """Binomial trees over the plain rank order, topology-blind."""

    name = "flat"

    def tree(self, comm, root):
        n = comm.size
        order = [(root + i) % n for i in range(n)]
        p_pos, c_pos = _binomial_parent_children(n)
        parent = {order[i]: order[p] for i, p in p_pos.items()}
        children = {order[i]: [order[c] for c in cs] for i, cs in c_pos.items()}
        return parent, children


class RingStrategy(CollectiveStrategy):
    """Ring (bucket) algorithms for the bandwidth-bound collectives.

    ``allreduce``/``Allreduce`` on ``np.ndarray`` data run the classic
    ring reduce-scatter + ring allgather: 2(n-1) steps, each moving only
    ~1/n of the buffer, so the per-rank traffic is ~2x the data size
    independent of rank count — bandwidth-optimal for large buffers.
    Rooted ops use a pipeline chain in rank order.  Ring accumulation
    visits ranks in ring (rotated) order, so non-commutative ops fall
    back to the order-preserving chain path.
    """

    name = "ring"

    def tree(self, comm, root):
        n = comm.size
        order = [(root + i) % n for i in range(n)]
        parent = {order[i]: order[i - 1] for i in range(1, n)}
        children = {
            order[i]: ([order[i + 1]] if i + 1 < n else []) for i in range(n)
        }
        return parent, children

    def _chunk_slices(self, size: int, n: int) -> list[slice]:
        base, extra = divmod(size, n)
        counts = [base + (1 if i < extra else 0) for i in range(n)]
        offsets = [0]
        for c in counts:
            offsets.append(offsets[-1] + c)
        return [slice(offsets[i], offsets[i + 1]) for i in range(n)]

    def _ring_applicable(self, comm, data, op) -> bool:
        return (
            comm.size > 1
            and _is_commutative(op)
            and getattr(op, "np_ufunc", None) is not None
            and isinstance(data, np.ndarray)
            and data.size >= comm.size
        )

    def _ring_allreduce(self, comm, ctx, sendbuf: np.ndarray, op) -> np.ndarray:
        """The reduced buffer, flattened, in ``sendbuf``'s dtype."""
        n, me = comm.size, comm._index[ctx.world_rank]
        nxt, prv = (me + 1) % n, (me - 1) % n
        flat = np.array(sendbuf, copy=True).reshape(-1)
        sl = self._chunk_slices(flat.size, n)
        # Phase 1 — ring reduce-scatter: after n-1 steps rank ``me``
        # holds the fully reduced chunk ``me``.  Chunk c travels
        # (c+1) -> (c+2) -> ... -> c, accumulating as it goes.
        tag = comm._coll_tag(ctx)
        for s in range(n - 1):
            send_c = (me - s - 1) % n
            recv_c = (me - s - 2) % n
            comm._send_i(ctx, "buf", flat[sl[send_c]], nxt, tag)
            chunk = flat[sl[recv_c]]
            op.np_ufunc(chunk, _received(comm._recv_i(ctx, prv, tag), chunk), out=chunk)
        # Phase 2 — ring allgather of the reduced chunks.
        tag = comm._coll_tag(ctx)
        for s in range(n - 1):
            send_c = (me - s) % n
            recv_c = (me - s - 1) % n
            comm._send_i(ctx, "buf", flat[sl[send_c]], nxt, tag)
            flat[sl[recv_c]] = _received(comm._recv_i(ctx, prv, tag), flat[sl[recv_c]])
        return flat

    def allgather(self, comm, ctx, obj):
        n, me = comm.size, comm._index[ctx.world_rank]
        if n == 1:
            return [obj]
        tag = comm._coll_tag(ctx)
        nxt, prv = (me + 1) % n, (me - 1) % n
        out: list = [None] * n
        out[me] = obj
        for s in range(n - 1):
            send_idx = (me - s) % n
            comm._send_i(ctx, "obj", (send_idx, out[send_idx]), nxt, tag)
            idx, item = comm._recv_i(ctx, prv, tag)
            out[idx] = item
        return out

    def allreduce(self, comm, ctx, value, op):
        if self._ring_applicable(comm, value, op):
            return self._ring_allreduce(comm, ctx, value, op).reshape(value.shape)
        return super().allreduce(comm, ctx, value, op)

    def Allreduce(self, comm, ctx, sendbuf, recvbuf, op):
        sendarr = np.asarray(sendbuf)
        if self._ring_applicable(comm, sendarr, op):
            comm._copy_into(recvbuf, self._ring_allreduce(comm, ctx, sendarr, op))
        else:
            super().Allreduce(comm, ctx, sendbuf, recvbuf, op)

    def reduce_scatter(self, comm, ctx, values, op):
        n, me = comm.size, comm._index[ctx.world_rank]
        if n == 1 or not _is_commutative(op):
            return super().reduce_scatter(comm, ctx, values, op)
        # Ring reduce-scatter over the per-rank items: item r circulates
        # (r+1) -> ... -> r accumulating, so rank r ends with the full
        # fold of everyone's values[r].
        tag = comm._coll_tag(ctx)
        nxt, prv = (me + 1) % n, (me - 1) % n
        partials = list(values)
        for s in range(n - 1):
            send_c = (me - s - 1) % n
            recv_c = (me - s - 2) % n
            comm._send_i(ctx, "obj", partials[send_c], nxt, tag)
            incoming = comm._recv_i(ctx, prv, tag)
            partials[recv_c] = op(incoming, partials[recv_c])
        return partials[me]


class HierarchicalStrategy(CollectiveStrategy):
    """Topology-aware algorithms (paper Section 3).

    Rooted collectives use island-aware trees: fan-out/fan-in rides the
    fast internal interconnect, and exactly one message per island
    crosses the WAN.  ``allreduce``/``allgather``/``alltoall`` go
    further, running truly hierarchically on per-site subcommunicators:
    an intra-site phase, one exchange among the island *leaders* across
    the WAN (one crossing per direction on the two-site testbed), and an
    intra-site completion phase.  Subcommunicators are derived
    deterministically (no bootstrap communication) via
    :meth:`~repro.metampi.runtime.Runtime.derived_comm_id`.
    """

    name = "hierarchical"

    def tree(self, comm, root):
        n = comm.size
        # Root's island first; the root leads its island.
        islands = sorted(comm.islands(), key=lambda isl: (root not in isl, isl[0]))
        leaders = []
        for isl in islands:
            leader = root if root in isl else isl[0]
            leaders.append(leader)
        parent: dict[int, int] = {}
        children: dict[int, list[int]] = {r: [] for r in range(n)}
        # Binomial tree over the island leaders (the WAN level).
        lp, lc = _binomial_parent_children(len(leaders))
        for i, p in lp.items():
            parent[leaders[i]] = leaders[p]
        for i, cs in lc.items():
            children[leaders[i]].extend(leaders[c] for c in cs)
        # Binomial tree inside each island (the fast level).
        for isl, leader in zip(islands, leaders):
            members = [leader] + [r for r in isl if r != leader]
            mp, mc = _binomial_parent_children(len(members))
            for i, p in mp.items():
                parent[members[i]] = members[p]
            for i, cs in mc.items():
                children[members[i]].extend(members[c] for c in cs)
        return parent, children

    # -- site decomposition -------------------------------------------------
    def _parts(self, comm, ctx):
        """Island structure plus cached site/leader subcommunicators.

        Returns ``(islands, my_island_index, site_comm, leader_comm)`` for
        the rank ``ctx``; ``leader_comm`` is None on non-leader ranks.
        Computed once per rank and kept in ``comm._subcomm_cache``.
        Subcommunicator ids come from the runtime's deterministic
        derived-id table, so every rank builds identical communicators
        without messaging.
        """
        parts = comm._subcomm_cache.get(("parts", ctx.world_rank))
        if parts is not None:
            return parts
        from repro.metampi.comm import Intracomm  # local import: cycle

        me = comm._index[ctx.world_rank]
        islands = comm.islands()
        my_idx = next(i for i, isl in enumerate(islands) if me in isl)
        members = islands[my_idx]
        leaders = [isl[0] for isl in islands]
        site = comm._subcomm_cache.get(("site", my_idx))
        if site is None:
            site = Intracomm(
                comm.runtime,
                comm.runtime.derived_comm_id(comm.comm_id, f"site-{my_idx}"),
                [comm.group[r] for r in members],
                strategy="flat",
            )
            comm._subcomm_cache[("site", my_idx)] = site
        leader_comm = None
        if me == members[0] and len(islands) > 1:
            leader_comm = comm._subcomm_cache.get("leaders")
            if leader_comm is None:
                leader_comm = Intracomm(
                    comm.runtime,
                    comm.runtime.derived_comm_id(comm.comm_id, "leaders"),
                    [comm.group[r] for r in leaders],
                    strategy="flat",
                )
                comm._subcomm_cache["leaders"] = leader_comm
        parts = comm._subcomm_cache[("parts", ctx.world_rank)] = (
            islands, my_idx, site, leader_comm
        )
        return parts

    @staticmethod
    def _contiguous(islands: list[list[int]], n: int) -> bool:
        """True when the islands partition 0..n-1 into ordered blocks —
        the condition under which an island-by-island fold is rank-ordered."""
        flat = [r for isl in islands for r in isl]
        return flat == list(range(n))

    # -- hierarchical collectives -------------------------------------------
    # A site phase on a one-rank island takes no tag, sends nothing and
    # moves no clock (its result is the rank's own), so it is skipped and
    # the rank goes straight to the leader exchange.  Phases run on the
    # site and leader communicators' strategies directly: the caller is a
    # member by construction and the outer collective labels the traffic.
    def allreduce(self, comm, ctx, value, op):
        islands, my_idx, site, leaders = self._parts(comm, ctx)
        if len(islands) == 1 or (
            not _is_commutative(op) and not self._contiguous(islands, comm.size)
        ):
            # An island-by-island fold would reorder the reduction.
            return super().allreduce(comm, ctx, value, op)
        if not site._single:
            value = site.strategy.reduce(site, ctx, value, op, root=0)
        total = None
        if leaders is not None:
            # Leaders are ordered by their island's lowest rank, so the
            # leader-level fold keeps the global rank order.
            total = leaders.strategy.allreduce(leaders, ctx, value, op)
        return total if site._single else site.strategy.bcast(site, ctx, total, root=0)

    def allgather(self, comm, ctx, obj):
        islands, my_idx, site, leaders = self._parts(comm, ctx)
        if len(islands) == 1:
            return super().allgather(comm, ctx, obj)
        members = islands[my_idx]
        local = [obj] if site._single else site.strategy.gather(site, ctx, obj, root=0)
        out = None
        if leaders is not None:
            out = [None] * comm.size
            gathered = leaders.strategy.allgather(leaders, ctx, (members, local))
            for mranks, vals in gathered:
                for r, v in zip(mranks, vals):
                    out[r] = v
        return out if site._single else site.strategy.bcast(site, ctx, out, root=0)

    def alltoall(self, comm, ctx, values):
        islands, my_idx, site, leaders = self._parts(comm, ctx)
        if len(islands) == 1:
            return super().alltoall(comm, ctx, values)
        members = islands[my_idx]
        # Remote-destined items, bundled per destination island and
        # funneled through the leader: one WAN message per island pair
        # per direction instead of one per rank pair.
        outbound = {
            isl_idx: {dst: values[dst] for dst in isl}
            for isl_idx, isl in enumerate(islands)
            if isl_idx != my_idx
        }
        # Intra-island exchange on the fast interconnect, then the
        # bundles gathered at the leader.
        if site._single:
            local_out, bundles = [values[members[0]]], [outbound]
        else:
            local_out = site.strategy.alltoall(site, ctx, [values[r] for r in members])
            bundles = site.strategy.gather(site, ctx, outbound, root=0)
        scattered = None
        if leaders is not None:
            merged: list[dict] = [{} for _ in islands]
            for member, bundle in zip(members, bundles):
                for isl_idx, items in bundle.items():
                    for dst, item in items.items():
                        merged[isl_idx][(member, dst)] = item
            inbound = leaders.strategy.alltoall(leaders, ctx, merged)
            per_member: dict[int, dict] = {m: {} for m in members}
            for src_isl, items in enumerate(inbound):
                if src_isl == my_idx:
                    continue
                for (src, dst), item in items.items():
                    per_member[dst][src] = item
            scattered = [per_member[m] for m in members]
        if site._single:
            scattered = scattered[0]
        else:
            scattered = site.strategy.scatter(site, ctx, scattered, root=0)
        out: list = [None] * comm.size
        for j, m in enumerate(members):
            out[m] = local_out[j]
        for src, item in scattered.items():
            out[src] = item
        return out

    def Allreduce(self, comm, ctx, sendbuf, recvbuf, op):
        islands, my_idx, site, leaders = self._parts(comm, ctx)
        if len(islands) == 1 or (
            not _is_commutative(op) and not self._contiguous(islands, comm.size)
        ):
            super().Allreduce(comm, ctx, sendbuf, recvbuf, op)
            return
        if site._single:
            # The island's only rank leads it: its buffer is the partial.
            leaders.strategy.Allreduce(leaders, ctx, sendbuf, recvbuf, op)
            return
        if leaders is not None:
            partial = np.array(sendbuf, copy=True)
            site.strategy.Reduce(site, ctx, sendbuf, partial, op, root=0)
            leaders.strategy.Allreduce(leaders, ctx, partial, recvbuf, op)
        else:
            site.strategy.Reduce(site, ctx, sendbuf, None, op, root=0)
        site.strategy.Bcast(site, ctx, recvbuf, root=0)


#: Registered strategy classes, keyed by the name users select.
STRATEGIES: dict[str, type[CollectiveStrategy]] = {
    "naive": NaiveStrategy,
    "flat": FlatStrategy,
    "ring": RingStrategy,
    "hierarchical": HierarchicalStrategy,
}

_INSTANCES: dict[str, CollectiveStrategy] = {}


def create_strategy(name: str = "hierarchical") -> CollectiveStrategy:
    """Return the (shared, stateless) strategy instance for ``name``.

    The selection API follows chainermn's ``create_communicator``: the
    default ``hierarchical`` is expected to perform well on the
    metacomputer; ``naive`` exists for testing and ablations; ``ring``
    pays off for large-buffer allreduce; ``flat`` is the topology-blind
    binomial family.
    """
    try:
        cls = STRATEGIES[name]
    except KeyError:
        raise MetaMpiError(
            f"unknown collective strategy {name!r}; "
            f"available: {sorted(STRATEGIES)}"
        ) from None
    inst = _INSTANCES.get(name)
    if inst is None:
        inst = _INSTANCES[name] = cls()
    return inst


def resolve_strategy(strategy) -> CollectiveStrategy:
    """Coerce a strategy spec (instance, name, or None for the default
    ``hierarchical``) to an instance."""
    if isinstance(strategy, CollectiveStrategy):
        return strategy
    if strategy is None:
        return create_strategy("hierarchical")
    return create_strategy(strategy)
