"""Checks built apart from the program under test.

Request expressions are held as ``(op, children)`` tuples, where a child is
another tuple or a base-station id. The benchmark renders them to request
text itself, parses the R1-R9 script with its own small parser, and
evaluates them with its own folds, so no check reuses flip's DSL, engines
or audit code.
"""

from __future__ import annotations

import re

REL_TOL = 1e-9

_TOKEN = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9_-]*)|([(),:]))")
_RANGE_END = re.compile(r"([A-Za-z][A-Za-z_-]*)(\d+)\Z")


# -- request expressions ------------------------------------------------------


def render(expr) -> str:
    op, children = expr
    return f"{op}(" + ",".join(c if isinstance(c, str) else render(c) for c in children) + ")"


def leaves(expr) -> list[str]:
    out: list[str] = []
    for child in expr[1]:
        out.extend([child] if isinstance(child, str) else leaves(child))
    return out


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text.rstrip()):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"cannot tokenize {text[pos:pos + 20]!r}")
        out.append(m.group(1) or m.group(2))
        pos = m.end()
    return out


def _expand(lo: str, hi: str) -> list[str]:
    a, b = _RANGE_END.match(lo), _RANGE_END.match(hi)
    if not a or not b or a.group(1) != b.group(1) or int(a.group(2)) > int(b.group(2)):
        raise ValueError(f"bad range {lo}:{hi}")
    return [f"{a.group(1)}{i}" for i in range(int(a.group(2)), int(b.group(2)) + 1)]


def parse_expr(text: str):
    """Parse ``op(child, ...)`` where a child is an expression, ``bsN`` or
    ``bsA:bsB``; ranges expand in ascending order."""
    toks = _tokens(text)
    pos = 0

    def take(*allowed: str) -> str:
        nonlocal pos
        tok = toks[pos]
        if allowed and tok not in allowed:
            raise ValueError(f"expected one of {allowed}, got {tok!r}")
        pos += 1
        return tok

    def expr():
        op = take()
        take("(")
        children: list = []
        while True:
            if toks[pos + 1] == "(":
                children.append(expr())
            else:
                name = take()
                if toks[pos] == ":":
                    take(":")
                    children.extend(_expand(name, take()))
                else:
                    children.append(name)
            if take(",", ")") == ")":
                return (op, children)

    result = expr()
    if pos != len(toks):
        raise ValueError(f"trailing text in {text!r}")
    return result


def parse_script(text: str) -> list[tuple[str, str]]:
    """(expression text, destination) of each line of a datapath_a script."""
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"datapath_a\((.*),destination<-(\w+)\)", line)
        if m is None:
            raise ValueError(f"unsupported request line {line!r}")
        out.append((m.group(1), m.group(2)))
    return out


def evaluate(expr, values: dict[str, float]) -> float:
    """Left folds in operand order, the order the request text gives."""
    op, children = expr
    xs = [values[c] if isinstance(c, str) else evaluate(c, values) for c in children]
    if op == "min":
        return min(xs)
    if op == "max":
        return max(xs)
    acc = xs[0]
    for x in xs[1:]:
        if op in ("sum", "avg"):
            acc += x
        elif op == "sub":
            acc -= x
        elif op == "mul":
            acc *= x
        else:
            raise ValueError(f"unknown operation {op!r}")
    return acc / len(xs) if op == "avg" else acc


def close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-12)


# -- delivered values ------------------------------------------------------------


def failed_values(expected: dict, delivered: list[dict], destination: str) -> int:
    """Count (request, epoch) values that did not reach ``destination``
    exactly once with the expected scalar.

    ``expected`` maps (user, epoch) to the value; ``delivered`` holds the
    fabric's delivery records. A delivery nobody expected, or one made to
    another node, counts as one failure of its own.
    """
    seen: dict[tuple, list[float]] = {}
    failed = 0
    for record in delivered:
        if record["node"] != destination:
            failed += 1
            continue
        value = record["payload"].get("scalar")
        seen.setdefault((record["user"], record["epoch"]), []).append(value)
    failed += sum(1 for key in seen if key not in expected)
    for key, want in expected.items():
        got = seen.get(key, [])
        if len(got) != 1 or got[0] is None or not close(got[0], want):
            failed += 1
    return min(failed, len(expected))


def fabric_clean(fabric) -> bool:
    """Every packet accounted for, nothing dropped, nothing passed through
    an engine unmatched."""
    stats = fabric.stats()
    no_config = sum(c["no_config"] for c in stats.engine_counters.values())
    return fabric.conservation()["balanced"] and stats.dropped == 0 and no_config == 0


# -- plans ----------------------------------------------------------------------


def tree_ok(plan_doc: dict, terminals: set[str], delays: dict) -> bool:
    """The tree's edges are real links, it has no cycle and it connects
    every terminal. ``delays`` maps both orientations of each link to its
    delay."""
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, delay in plan_doc["tree"]["edges"]:
        if delays.get((a, b)) != delay:
            return False
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[rb] = ra
    return len({find(t) for t in terminals}) == 1


def worst_path_ms(plan_doc: dict, leaf_ids: list[str], destination: str, delays: dict) -> float:
    """Worst leaf-to-destination delay along the plan's tree, plus the
    in-and-out engine detour at every switch hosting an operation."""
    adj: dict[str, dict[str, float]] = {}
    for a, b, delay in plan_doc["tree"]["edges"]:
        adj.setdefault(a, {})[b] = delay
        adj.setdefault(b, {})[a] = delay
    detour = {p["switch"]: 2 * delays[(p["switch"], p["engine"])] for p in plan_doc["placements"]}
    best = {destination: detour.get(destination, 0.0)}
    stack = [destination]
    while stack:
        node = stack.pop()
        for nb, delay in adj.get(node, {}).items():
            if nb not in best:
                best[nb] = best[node] + delay + detour.get(nb, 0.0)
                stack.append(nb)
    return max(best[leaf] for leaf in leaf_ids)


def flip_not_above_baseline(flip_counts: dict, base_counts: dict, edge: set[str]) -> bool:
    """Edge switches see every raw sample in both modes; no other switch
    carries more traffic with engines than without."""
    for switch, base in base_counts.items():
        flip = flip_counts.get(switch, 0)
        if (switch in edge and flip != base) or flip > base:
            return False
    return True
