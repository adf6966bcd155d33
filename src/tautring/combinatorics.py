"""Union-find, compositions and partitions.

The shared combinatorics of the graph, class and cone modules.  It
imports no other tautring module, so every one of them can use it.
"""


def union_find(n, pairs):
    """Root of each of 0..n-1 after joining every pair (a, b).

    Joining hangs the root of a under the root of b, so the roots, and
    the degree-0 `pp_space` basis order that follows them, depend on the
    pair order.
    """
    parent = list(range(n))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        parent[root(a)] = root(b)
    return [root(a) for a in range(n)]


def compositions(total: int, caps):
    """Tuples t with 0 <= t[i] <= caps[i] summing to total, in
    lexicographic order."""
    if not caps:
        if total == 0:
            yield ()
        return
    room = sum(caps[1:])
    for first in range(max(0, total - room), min(total, caps[0]) + 1):
        for rest in compositions(total - first, caps[1:]):
            yield (first,) + rest


def partitions(k: int, max_part: int | None = None):
    """Partitions of k into parts between 1 and max_part (default k), as
    descending tuples in reverse lexicographic order."""
    if k == 0:
        yield ()
        return
    top = k if max_part is None else min(k, max_part)
    for part in range(top, 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest
