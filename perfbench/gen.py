"""Seeded input generators for the benchmark.

Every generator returns an ``sset-v1`` document as a plain dict, built
directly from a ``random.Random`` so that the workloads do not depend on
``secplex.examples`` or any other part of the package under test.  Vertex,
edge and triangle names are deterministic, so one seed always yields
byte-identical files.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _edge(target: str, source: str) -> list:
    # face 0 of an edge drops vertex 0 (leaves the target), face 1 the source
    return [[[], target], [[], source]]


def _triangle(e12: str, e02: str, e01: str) -> list:
    return [[[], e12], [[], e02], [[], e01]]


def tube_levels(rng: random.Random, count: int) -> list[Fraction]:
    """``count`` strictly increasing rational heights with small denominators."""
    out: list[Fraction] = []
    value = Fraction(rng.randrange(-3, 4), rng.choice((1, 2, 3)))
    for _ in range(count):
        out.append(value)
        value += Fraction(rng.randrange(1, 4), rng.choice((1, 2, 3, 4)))
    return out


def tube(circumference: int, levels: list[Fraction], name: str) -> dict:
    """A subdivided cylinder: one ring of ``circumference`` vertices and
    edges per level, adjacent rings joined by a band of 2 * circumference
    triangles.  Homotopy type of a circle; subdivision number 1."""
    C, L = circumference, len(levels)
    if C < 3 or L < 2:
        raise ValueError("a tube needs circumference >= 3 and two levels")

    def v(i: int, j: int) -> str:
        return f"v{i}.{j % C}"

    def ring(i: int, j: int) -> str:  # v(i, j) -> v(i, j + 1)
        return f"r{i}.{j % C}"

    def rung(i: int, j: int) -> str:  # v(i, j) -> v(i + 1, j)
        return f"u{i}.{j % C}"

    def diag(i: int, j: int) -> str:  # v(i, j) -> v(i + 1, j + 1)
        return f"d{i}.{j % C}"

    vertices = [v(i, j) for i in range(L) for j in range(C)]
    edges: dict[str, list] = {}
    for i in range(L):
        for j in range(C):
            edges[ring(i, j)] = _edge(v(i, j + 1), v(i, j))
    for i in range(L - 1):
        for j in range(C):
            edges[rung(i, j)] = _edge(v(i + 1, j), v(i, j))
            edges[diag(i, j)] = _edge(v(i + 1, j + 1), v(i, j))
    triangles: dict[str, list] = {}
    for i in range(L - 1):
        for j in range(C):
            # (v(i,j), v(i,j+1), v(i+1,j+1)) and (v(i,j), v(i+1,j), v(i+1,j+1))
            triangles[f"a{i}.{j}"] = _triangle(rung(i, j + 1), diag(i, j), ring(i, j))
            triangles[f"b{i}.{j}"] = _triangle(ring(i + 1, j), diag(i, j), rung(i, j))
    return {
        "format": "sset-v1",
        "name": name,
        "generators": [vertices, list(edges), list(triangles)],
        "faces": {**edges, **triangles},
        "heights": {v(i, j): str(levels[i]) for i in range(L) for j in range(C)},
    }


_EDGES = ((0, 1), (0, 2), (1, 2))


def gluing(rng: random.Random, patterns: list[tuple[int, int, int]], name: str) -> dict:
    """A quotient of one triangle per monotone height pattern, e.g. (0, 1, 1).

    Edges whose endpoint heights agree are identified at random (with
    their endpoints, in order), which keeps the height function monotone.
    """
    triangles = len(patterns)
    n_vertices = 3 * triangles
    vparent = list(range(n_vertices))
    eparent = list(range(3 * triangles))

    def find(parent: list[int], a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def height_pair(e: int) -> tuple[int, int]:
        a, b = _EDGES[e % 3]
        return patterns[e // 3][a], patterns[e // 3][b]

    def ends(e: int) -> tuple[int, int]:
        t, (a, b) = e // 3, _EDGES[e % 3]
        return 3 * t + a, 3 * t + b

    candidates = [
        (e, f)
        for e in range(3 * triangles)
        for f in range(e + 1, 3 * triangles)
        if height_pair(e) == height_pair(f)
    ]
    rng.shuffle(candidates)
    for e, f in candidates[: rng.randrange(0, 2 * triangles)]:
        eparent[find(eparent, f)] = find(eparent, e)
        for x, y in zip(ends(e), ends(f)):
            vparent[find(vparent, y)] = find(vparent, x)

    vname = {x: f"p{find(vparent, x)}" for x in range(n_vertices)}
    ename = {e: f"e{find(eparent, e)}" for e in range(3 * triangles)}
    edge_faces: dict[str, list[str]] = {}
    for e in range(3 * triangles):
        a, b = ends(e)
        edge_faces.setdefault(ename[e], [vname[b], vname[a]])
    tri_faces = {
        f"t{t}": [ename[3 * t + 2], ename[3 * t + 1], ename[3 * t]]
        for t in range(triangles)
    }
    vertices = sorted(set(vname.values()), key=lambda s: int(s[1:]))
    heights = {vname[3 * t + k]: str(patterns[t][k]) for t in range(triangles) for k in range(3)}
    return {
        "format": "sset-v1",
        "name": name,
        "generators": [vertices, list(edge_faces), list(tri_faces)],
        "faces": {
            **{e: _edge(*fs) for e, fs in edge_faces.items()},
            **{t: _triangle(*fs) for t, fs in tri_faces.items()},
        },
        "heights": {x: heights[x] for x in vertices},
    }
