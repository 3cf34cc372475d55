"""Finite symbolic systems with exact clopen-set calculus.

A finite system is a directed graph on finitely many states in which every
state has at least one successor.  States stand for cylinder/cover classes
of a zero-dimensional system at a chosen resolution; at that resolution
every subset of states is clopen, so closures are identities and all set
operations below are exact.

The shift is a relation, not necessarily a map: a class may contain points
whose images separate only at a finer resolution (an extra successor), and
a class may absorb two one-step histories (an extra predecessor, a "left
special" state).  A finite *function* that is onto is a bijection and can
never exhibit the second phenomenon, so faithful finite approximations are
genuinely relational.  ``preimage``/``image`` are the exact set operators
of the relation; identities that require a deterministic shift (one
successor everywhere) are checked only there, and the tests document which
is which.
"""

from __future__ import annotations

from collections.abc import Sequence

from .records import Frozen
from .words import SubshiftSpec

ClopenSet = frozenset  # of state indices


class FiniteSymbolicSystem(Frozen):
    """Finite directed-graph approximation of a zero-dimensional system.
    Equal systems have equal labels, edges and meta text."""

    __slots__ = ("labels", "succ", "depth_meta", "pred", "_special")
    _fields = ("labels", "succ", "depth_meta")
    labels: Sequence[str]  # read-only; a cover graph builds each label when it is read
    succ: tuple[tuple[int, ...], ...]  # sorted successor lists
    depth_meta: str
    pred: tuple[tuple[int, ...], ...]  # sorted predecessor lists, one tuple per state
    _special: tuple[int, ...]

    def __init__(
        self, labels: Sequence[str], succ: tuple[tuple[int, ...], ...], depth_meta: str = ""
    ):
        n = len(labels)
        if len(succ) != n:
            raise ValueError("labels and successor table disagree")
        if any(not targets for targets in succ):
            raise ValueError("shift relation must be total: a state has no successor")
        # Nearly every state has one predecessor, so a state's first is
        # kept in a flat list and only a merge state gets a list.  s runs
        # upwards, so each list is sorted, and a repeat of s is its last.
        first = [-1] * n
        more: dict[int, list[int]] = {}  # merge state -> its predecessors
        for s, targets in enumerate(succ):
            for t in targets:
                if not (0 <= t < n):
                    raise ValueError(f"edge target out of range: {s} -> {t}")
                was = first[t]
                if was < 0:
                    first[t] = s
                elif was != s:
                    ps = more.setdefault(t, [was])
                    if ps[-1] != s:
                        ps.append(s)
        preds = [(s,) if s >= 0 else () for s in first]
        for t, ps in more.items():
            preds[t] = tuple(ps)
        pred = tuple(preds)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "depth_meta", depth_meta)
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "_special", tuple(sorted(more)))

    # -- basic structure -----------------------------------------------------

    @property
    def num_states(self) -> int:
        return len(self.labels)

    def all_states(self) -> ClopenSet:
        return frozenset(range(self.num_states))

    @property
    def surjective_flag(self) -> bool:
        """Every state has at least one predecessor (the relation is onto)."""
        return all(self.pred)

    @property
    def deterministic(self) -> bool:
        """Exactly one successor everywhere (the shift is a map)."""
        return all(len(t) == 1 for t in self.succ)

    def special_states(self) -> list[int]:
        """States with at least two distinct predecessors, found once."""
        return list(self._special)

    def branch_states(self) -> list[int]:
        """States with at least two distinct successors."""
        return [s for s in range(self.num_states) if len(self.succ[s]) >= 2]

    # -- clopen calculus -----------------------------------------------------

    @staticmethod
    def _walk(step, clopen, n: int) -> ClopenSet:
        """The states ``n`` steps from the set, one step from ``s`` going to ``step[s]``."""
        if n < 0:
            raise ValueError("n must be >= 0")
        cur = set(clopen)
        for _ in range(n):
            cur = {t for s in cur for t in step[s]}
        return frozenset(cur)

    def preimage(self, clopen, n: int = 1) -> ClopenSet:
        """{s : some n-step successor path from s lands in the set}; for a
        deterministic shift this is the usual preimage of a map."""
        return self._walk(self.pred, clopen, n)

    def preimage_levels(self, base, count: int):
        """The first ``count`` preimage levels of ``base``: the base, then
        each one-step preimage of the level before it, so level i equals
        ``preimage(base, i)``.  Lazy: a level is computed only when asked
        for, and a caller that stops early pays for no deeper one.

        On a cover with few left special states nearly every level holds
        one state, so a one-state level steps by state number: its
        preimage is its state's predecessor tuple.  A tuple of two or more
        goes through a set first, as the set walk collects its states, so
        the level is the same set with the same iteration order."""
        pred = self.pred
        level = frozenset(base)
        for i in range(count):
            if i:
                if len(level) == 1:
                    (t,) = level
                    ps = pred[t]
                    level = frozenset(ps if len(ps) == 1 else set(ps))
                else:
                    level = frozenset({s for t in level for s in pred[t]})
            yield level

    def image(self, clopen, n: int = 1) -> ClopenSet:
        """All states reachable from the set along n-step paths."""
        return self._walk(self.succ, clopen, n)

    # -- cycles ---------------------------------------------------------------

    def min_cycle_length(self, bound: int) -> int | None:
        """Length of the shortest cycle if it is <= bound, else None.

        A cycle that meets no branch state runs along unique successors,
        so one walk from each state not yet walked finds it.  A cycle
        through a branch state is found by a breadth-first search from
        it, one level set at a time, cut off at the best length so far.
        A finite graph always has a cycle; the Rokhlin stage decides with
        ``aperiodicity_window_check`` whether it is a real periodic point.
        """
        succ = self.succ
        best = bound + 1
        walked = [False] * self.num_states
        for start in range(self.num_states):
            if walked[start]:
                continue
            path, s = {}, start  # state -> its place on this walk
            while not walked[s] and len(succ[s]) == 1:
                walked[s] = True
                path[s] = len(path)
                s = succ[s][0]
            if s in path:
                best = min(best, len(path) - path[s])
        for b in self.branch_states():
            level = seen = {b}
            for length in range(1, best):
                level = {t for s in level for t in succ[s]}
                if b in level:
                    best = length
                    break
                level -= seen
                if not level:
                    break
                seen |= level
        return best if best <= bound else None

    def without_entries_into(self, window) -> "FiniteSymbolicSystem":
        """Copy of the system with every edge from outside ``window`` into
        it removed (the finite seam where mixed classes feed a discrete
        orbit).  Edges inside the window, and exits from it, survive; a
        state whose successors all lie in the window keeps its edges."""
        window = frozenset(window)
        new_succ = []
        for u, targets in enumerate(self.succ):
            if u in window:
                new_succ.append(targets)
                continue
            kept = tuple(t for t in targets if t not in window)
            new_succ.append(kept if kept else targets)
        return FiniteSymbolicSystem(
            labels=self.labels,
            succ=tuple(new_succ),
            depth_meta=self.depth_meta + f" [entry-free: window {len(window)}]",
        )

    # -- export ----------------------------------------------------------------

    def to_adjacency_text(self) -> str:
        lines = [f"# states: {self.num_states}  meta: {self.depth_meta}"]
        for s in range(self.num_states):
            targets = " ".join(str(t) for t in self.succ[s])
            lines.append(f"{s}\t{self.labels[s]}\t-> {targets}")
        return "\n".join(lines) + "\n"


def overlapping_pair(family) -> tuple[int, int] | None:
    """Indices (i, j), i < j, of two clopen sets of ``family`` that share a
    state, with j as small as possible; None iff the sets are pairwise
    disjoint."""
    seen: dict = {}
    for idx, clopen in enumerate(family):
        for s in clopen:
            if s in seen:
                return seen[s], idx
            seen[s] = idx
    return None


def aperiodicity_window_check(spec: SubshiftSpec, window: int) -> bool:
    """True iff no word of length <= window admits a periodic-point witness.

    A witness is a word w with w.w admissible whose periodic stream w^inf
    is language-consistent out to length 3*window.  Refutations are sound;
    acceptance is relative to the recorded horizon.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    probe = 3 * window
    for length in range(1, window + 1):
        for w in spec.language(length):
            if not spec.is_factor(w + w):
                continue
            reps = -(-probe // length) + 1
            stream = w * reps
            if all(
                spec.is_factor(stream[i : i + probe])
                for i in range(len(stream) - probe + 1)
            ):
                return False
    return True
