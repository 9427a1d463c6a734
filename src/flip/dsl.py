"""Request language: parse datapath commands and build operation task graphs.

Grammar (one request per line, `#` starts a comment)::

    datapath_a(EXPR, destination<-NODE [, requirement<-{K=V,...}] [, user<-NAME])
    datapath_m(SRC, SRC, ..., switch<-SW, compute<-OP,
               destination<-NODE [, requirement<-{K=V,...}] [, user<-NAME])

    EXPR  := OP "(" ARG ("," ARG)* ")"          nested calls allowed
    OP    := min | max | sum | sub | avg | mul
    ARG   := EXPR | SRC
    SRC   := id | id:id (inclusive range) | sw[engine] | region name
    NODE  := id | sw[engine]
    K=V   := delay=10ms | rate=1s | jitter=5ms

Durations take `ms` or `s` suffixes. `computation<-` is accepted as an alias
for `compute<-`. Manual commands may list engines as sources; automated
requests expand to base stations only. Ranges stay symbolic until
expand_sources resolves them against a topology and coverage map; the
parser checks a range's endpoints without building its names.

The tokenizer is one compiled pattern scanned over the text, giving plain
(kind, value, col, unit) tuples that the parser reads by index. An
identifier starts with a letter (`str.isalpha`) and goes on over letters,
digits, "_" and "-"; a number starts with a digit (`str.isdigit`), goes on
over digits and ".", and takes the letters after it as its unit. `re`
has no class for `isalpha`, and its `\\d` is the narrower `isdecimal`, so
the pattern for a text with characters outside ASCII names that text's
own letters and non-decimal digits in its classes.

Operations nest at most MAX_NESTING deep: a deeper request is a
DslSyntaxError at the first operation past the bound, since the parser,
expansion and the task graph all recurse once per level.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum

from .errors import (
    ArityError,
    DslSyntaxError,
    EmptyRangeError,
    ParseError,
    UnknownNodeError,
    UnknownOperationError,
    UnknownRegionError,
    ValidationError,
)
from .topology import Topology, expand_range, natural_key, parse_range

JITTER_MAX_MS = 25.0  # upper bound accepted for the jitter requirement

# operations nested deeper than this are a syntax error: every stage walks a
# request's operations recursively, and no real request comes near it
MAX_NESTING = 100

DEFAULT_USER = "default"


class OpKind(Enum):
    MIN = "min"
    MAX = "max"
    SUM = "sum"
    SUB = "sub"
    AVG = "avg"
    MUL = "mul"


# sub/mul are left folds over ordered operands, so they need two or more
_MIN_ARITY = {OpKind.SUB: 2, OpKind.MUL: 2}

ORDER_SENSITIVE = (OpKind.SUB, OpKind.MUL)


class RequestMode(Enum):
    AUTOMATED = "automated"
    MANUAL = "manual"


# a request's head names its mode
_MODES = {"datapath_a": RequestMode.AUTOMATED, "datapath_m": RequestMode.MANUAL}


@dataclass
class ExprNode:
    kind: OpKind
    # ExprNode, or a symbolic leaf's text: node id, range, engine
    # reference ("sw5[engine]") or region name
    children: list


@dataclass
class Requirements:
    delay_ms: float | None = None
    rate_ms: float | None = None
    jitter_ms: float | None = None

    def is_empty(self) -> bool:
        return all(v is None for v in (self.delay_ms, self.rate_ms, self.jitter_ms))


@dataclass
class Request:
    mode: RequestMode
    expr: ExprNode
    destination: str  # raw token; may be "sw5[engine]"
    switch: str | None = None
    requirements: Requirements = field(default_factory=Requirements)
    user: str = DEFAULT_USER


# -- tokenizer ----------------------------------------------------------------

_ARROW = "<-"

# A token is a plain tuple (kind, value, col, unit): kind is IDENT, NUMBER,
# ARROW, EOF or the punctuation character itself; unit is a NUMBER's suffix.
Token = tuple[str, str, int, str]


def _token_pattern(letters: str, digits: str) -> re.Pattern:
    """One token per match; a position no alternative matches is
    whitespace, which `finditer` skips.

    `\\w` is exactly `isalnum()` or "_" and `\\S` exactly not `isspace()`,
    but `\\d` is `isdecimal()`, narrower than `isdigit()`, and no class is
    `isalpha()`. So a letter is A-Z, a-z or one of `letters`, and a digit is
    `\\d` or one of `digits`: a text's own letters outside ASCII and its
    digits that are not decimal. Groups: 1 arrow, 2 punctuation,
    3 identifier, 4 number and 5 its unit, 6 any other character.
    """
    letter = f"[A-Za-z{letters}]"
    return re.compile(
        rf"({_ARROW})|([(){{}}\[\],:=])|({letter}[\w-]*)"
        rf"|([\d{digits}][\d.{digits}]*)({letter}*)|(\S)"
    )


_ASCII_TOKEN = _token_pattern("", "")


def _tokenize(text: str) -> list[Token]:
    if text.isascii():
        pattern = _ASCII_TOKEN
    else:
        chars = set(text)
        pattern = _token_pattern(
            re.escape("".join(sorted(c for c in chars if c.isalpha() and not c.isascii()))),
            re.escape("".join(sorted(c for c in chars if c.isdigit() and not c.isdecimal()))),
        )
    tokens: list[Token] = []
    append = tokens.append
    for m in pattern.finditer(text):
        group = m.lastindex
        if group == 3:
            append(("IDENT", m[3], m.start() + 1, ""))
        elif group == 2:
            append((m[2], m[2], m.start() + 1, ""))
        elif group == 5:
            append(("NUMBER", m[4], m.start() + 1, m[5]))
        elif group == 1:
            append(("ARROW", _ARROW, m.start() + 1, ""))
        else:
            raise DslSyntaxError(f"unexpected character {m[6]!r}", col=m.start() + 1)
    append(("EOF", "", len(text) + 1, ""))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def expect(self, kind: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise DslSyntaxError(f"expected {kind!r}, got {tok[1]!r}", col=tok[2])
        self.pos += 1
        return tok

    # request := ident "(" positional part, keywords ")"
    def parse_request(self) -> Request:
        _, head, col, _ = self.expect("IDENT")
        mode = _MODES.get(head)
        if mode is None:
            raise DslSyntaxError(f"expected datapath_a or datapath_m, got {head!r}", col=col)
        self.expect("(")
        automated = mode is RequestMode.AUTOMATED
        expr = self._parse_expr(1) if automated else self._parse_source_list()
        kwargs = self._parse_kwargs()
        if automated:
            for forbidden in ("switch", "compute", "computation"):
                if forbidden in kwargs:
                    raise DslSyntaxError(f"datapath_a does not take {forbidden!r}")
        else:
            compute = kwargs.get("compute", kwargs.get("computation"))
            if compute is None:
                raise DslSyntaxError("datapath_m requires compute<-")
            expr = ExprNode(self._op_kind(compute, col=1), expr)
            self._check_arity(expr, col=1)
        request = Request(
            mode=mode,
            expr=expr,
            destination=self._required(kwargs, "destination"),
            switch=None if automated else self._required(kwargs, "switch"),
            requirements=kwargs.get("requirement", Requirements()),
            user=kwargs.get("user", DEFAULT_USER),
        )
        self.expect(")")
        self.expect("EOF")
        return request

    def _required(self, kwargs: dict, name: str) -> str:
        if name not in kwargs:
            raise DslSyntaxError(f"missing {name}<-")
        return kwargs[name]

    def _op_kind(self, name: str, col: int) -> OpKind:
        try:
            return OpKind(name)
        except ValueError:
            raise UnknownOperationError(f"unknown operation {name!r}", col=col) from None

    def _check_arity(self, expr: ExprNode, col: int) -> None:
        if len(expr.children) < _MIN_ARITY.get(expr.kind, 1):
            raise ArityError(
                f"{expr.kind.value} needs at least {_MIN_ARITY[expr.kind]} arguments",
                col=col,
            )

    def _parse_expr(self, depth: int) -> ExprNode:
        _, name, col, _ = self.expect("IDENT")
        kind = self._op_kind(name, col)
        if depth > MAX_NESTING:
            raise DslSyntaxError(f"operations nested deeper than {MAX_NESTING}", col=col)
        self.expect("(")
        tokens = self.tokens
        children: list = []
        while True:
            tok = tokens[self.pos]
            if tok[0] == "IDENT":
                follow = tokens[self.pos + 1][0]
                if follow == "(":
                    children.append(self._parse_expr(depth + 1))
                elif follow == "," or follow == ")":
                    # a plain node name, the common leaf
                    self.pos += 1
                    children.append(tok[1])
                else:
                    children.append(self._parse_source())
            else:
                children.append(self._parse_source())
            if tokens[self.pos][0] == ",":
                self.pos += 1
                continue
            break
        self.expect(")")
        node = ExprNode(kind, children)
        self._check_arity(node, col)
        return node

    def _parse_source(self) -> str:
        _, name, col, _ = self.expect("IDENT")
        if self.peek() == ":":
            self.pos += 1
            text = f"{name}:{self.expect('IDENT')[1]}"
            try:
                parse_range(text)
            except ValueError as exc:
                raise DslSyntaxError(str(exc), col=col) from None
            return text
        return self._engine_suffix(name)

    def _parse_source_list(self) -> list[str]:
        # manual sources, optionally wrapped in braces: {bs1:bs10}
        sources: list[str] = []
        braced = self.peek() == "{"
        if braced:
            self.pos += 1
        tokens = self.tokens
        while True:
            sources.append(self._parse_source())
            if self.peek() == ",":
                # stop before the keyword section (ident followed by <-)
                if (
                    not braced
                    and tokens[self.pos + 1][0] == "IDENT"
                    and tokens[self.pos + 2][0] == "ARROW"
                ):
                    break
                self.pos += 1
                continue
            break
        if braced:
            self.expect("}")
        return sources

    def _parse_kwargs(self) -> dict:
        kwargs: dict = {}
        while self.peek() == ",":
            self.pos += 1
            _, name, col, _ = self.expect("IDENT")
            self.expect("ARROW")
            if name in kwargs:
                raise DslSyntaxError(f"duplicate keyword {name!r}", col=col)
            if name == "requirement":
                kwargs[name] = self._parse_requirements()
            elif name in ("destination", "switch", "user", "compute", "computation"):
                kwargs[name] = self._engine_suffix(self.expect("IDENT")[1])
            else:
                raise DslSyntaxError(f"unknown keyword {name!r}", col=col)
        return kwargs

    def _engine_suffix(self, name: str) -> str:
        """The name, with an "[engine]" suffix when one follows it."""
        if self.peek() != "[":
            return name
        self.pos += 1
        _, inner, col, _ = self.expect("IDENT")
        if inner != "engine":
            raise DslSyntaxError(f"expected [engine], got [{inner}]", col=col)
        self.expect("]")
        return f"{name}[engine]"

    def _parse_requirements(self) -> Requirements:
        self.expect("{")
        req = Requirements()
        seen = set()
        while True:
            _, key, col, _ = self.expect("IDENT")
            self.expect("=")
            if key in seen:
                raise DslSyntaxError(f"duplicate requirement {key!r}", col=col)
            seen.add(key)
            if key == "delay":
                req.delay_ms = self._parse_duration(key)
            elif key == "rate":
                req.rate_ms = self._parse_duration(key)
            elif key == "jitter":
                req.jitter_ms = self._parse_duration(key, allow_zero=True)
                if req.jitter_ms > JITTER_MAX_MS:
                    raise ValidationError(
                        f"jitter must be within 0..{JITTER_MAX_MS:g} ms, got {req.jitter_ms:g}"
                    )
            else:
                raise DslSyntaxError(f"unknown requirement {key!r}", col=col)
            if self.peek() == ",":
                self.pos += 1
                continue
            break
        self.expect("}")
        return req

    def _parse_duration(self, key: str, allow_zero: bool = False) -> float:
        _, number, col, unit = self.expect("NUMBER")
        try:
            value = float(number)
        except ValueError:
            raise DslSyntaxError(f"bad number {number!r}", col=col) from None
        if unit == "ms":
            ms = value
        elif unit == "s":
            ms = value * 1000.0
        else:
            raise DslSyntaxError(f"{key} needs an ms or s suffix, got {number}{unit}", col=col)
        if not math.isfinite(ms):
            raise ValidationError(f"{key} must be finite, got {ms:g} ms")
        if ms < 0 or (ms == 0 and not allow_zero):
            raise ValidationError(f"{key} must be positive, got {ms:g} ms")
        return ms


def parse_request(text: str) -> Request:
    """Parse one datapath command. Errors carry line/column information."""
    return _Parser(text).parse_request()


def script_lines(text: str) -> list[tuple[int, str]]:
    """(1-based line number, request text) of each line of a request
    script; `#` comments and blank lines are left out."""
    lines = ((n, raw.split("#", 1)[0].strip()) for n, raw in enumerate(text.splitlines(), 1))
    return [(n, line) for n, line in lines if line]


# -- canonical printing -------------------------------------------------------


def _format_duration(ms: float) -> str:
    # every digit and no exponent, so the text parses back to the same float
    return f"{Decimal(repr(ms)).normalize():f}ms"


def _format_requirements(req: Requirements) -> str:
    parts = []
    if req.delay_ms is not None:
        parts.append(f"delay={_format_duration(req.delay_ms)}")
    if req.rate_ms is not None:
        parts.append(f"rate={_format_duration(req.rate_ms)}")
    if req.jitter_ms is not None:
        parts.append(f"jitter={_format_duration(req.jitter_ms)}")
    return "{" + ",".join(parts) + "}"


def _format_expr(node) -> str:
    if isinstance(node, str):
        return node
    inner = ",".join(_format_expr(c) for c in node.children)
    return f"{node.kind.value}({inner})"


def canonical(request: Request) -> str:
    """Canonical single-line form; parse(canonical(r)) == r."""
    tail = [f"destination<-{request.destination}"]
    if not request.requirements.is_empty():
        tail.append(f"requirement<-{_format_requirements(request.requirements)}")
    if request.user != DEFAULT_USER:
        tail.append(f"user<-{request.user}")
    if request.mode is RequestMode.AUTOMATED:
        return f"datapath_a({_format_expr(request.expr)},{','.join(tail)})"
    sources = ",".join(_format_expr(c) for c in request.expr.children)
    head = [sources, f"switch<-{request.switch}", f"compute<-{request.expr.kind.value}"]
    return f"datapath_m({','.join(head + tail)})"


# -- coverage map --------------------------------------------------------------

CoverageMap = dict  # region name -> tuple of node ids


def load_coverage(doc: dict) -> CoverageMap:
    """Coverage document: {"Seoul": ["bs1:bs10", "bs42"], ...}."""
    if not isinstance(doc, dict):
        raise ParseError("coverage document must be an object")
    cov: CoverageMap = {}
    for region, entries in doc.items():
        if not isinstance(entries, list):
            raise ParseError(f"coverage region {region!r} must map to a list")
        ids: list[str] = []
        for entry in entries:
            if not isinstance(entry, str):
                raise ParseError(f"coverage entry {entry!r} must be a string")
            if ":" in entry:
                try:
                    ids.extend(expand_range(entry))
                except ValueError as exc:
                    raise ParseError(str(exc)) from None
            else:
                ids.append(entry)
        cov[region] = tuple(sorted(set(ids), key=natural_key))
    return cov


def translate_coverage(region: str, cov: CoverageMap) -> set[str]:
    """Exact, case-sensitive region lookup."""
    if region not in cov:
        raise UnknownRegionError(f"unknown region {region!r}")
    return set(cov[region])


# -- task graph ----------------------------------------------------------------


@dataclass
class OpNode:
    node_id: str
    kind: OpKind
    children: list  # OpNode | str (concrete leaf id)


class TaskGraph:
    """Rooted operation tree: leaves are source node ids, the root operation
    feeds the destination."""

    def __init__(self, root: OpNode):
        self.root = root
        self._ops: list[OpNode] = []
        self._leaves: list[str] = []
        self._parent: dict[str, OpNode | None] = {}
        self._walk(root, None)

    def _walk(self, node: OpNode, parent: OpNode | None) -> None:
        self._ops.append(node)
        self._parent[node.node_id] = parent
        for child in node.children:
            if isinstance(child, OpNode):
                self._walk(child, node)
            else:
                self._leaves.append(child)

    def ops(self) -> list[OpNode]:
        """Operation nodes in pre-order (document order)."""
        return list(self._ops)

    def parent(self, node: OpNode) -> OpNode | None:
        return self._parent[node.node_id]

    def leafonly_parents(self) -> list[OpNode]:
        """Ops whose children are all leaves, in pre-order."""
        return [
            op for op in self._ops if all(not isinstance(c, OpNode) for c in op.children)
        ]

    def leaves(self) -> list[str]:
        """Leaf source ids in pre-order (document order)."""
        return list(self._leaves)


def _resolve_leaf(
    text: str, t: Topology, cov: CoverageMap | None, allow_engines: bool
) -> list[str]:
    """The leaves of a range, an engine reference or a region, or the error
    for a source that is none of these; `expand_sources` takes a base
    station, or an engine where engines are sources, as it stands."""
    # a base station is the node of the topology's attachment table that
    # is not an engine
    attachments = t.attachments
    if ":" in text:
        try:
            names = expand_range(text)
        except ValueError:
            raise EmptyRangeError(f"empty or malformed range {text!r}") from None
        for name in names:
            attached = attachments.get(name)
            if attached is None or attached[2]:
                unknown = next((n for n in names if not t.has_node(n)), None)
                if unknown is not None:
                    raise UnknownNodeError(f"range {text!r} includes unknown node {unknown!r}")
                raise UnknownNodeError(f"{name!r} in range {text!r} is not a base station")
        return names
    if text.endswith("[engine]"):
        if not allow_engines:
            raise UnknownNodeError(f"engine source {text!r} is only valid in manual requests")
        switch = text[: -len("[engine]")]
        return [t.engine_of(switch)]
    if t.has_node(text):
        raise UnknownNodeError(f"{text!r} is a {t.kind(text).value}, not a valid source")
    if cov and text in cov:
        names = sorted(translate_coverage(text, cov), key=natural_key)
        for name in names:
            attached = attachments.get(name)
            if attached is None or attached[2]:
                raise UnknownNodeError(f"region {text!r} includes unknown node {name!r}")
        return names
    raise UnknownNodeError(f"{text!r} is neither a node nor a known region")


def expand_sources(request: Request, t: Topology, cov: CoverageMap | None = None) -> TaskGraph:
    """Resolve symbolic leaves to concrete node ids and build the TaskGraph.

    Operation node ids are assigned per kind in pre-order (max1, avg1, avg2,
    max2, ...). Duplicate leaves anywhere in one request are rejected: a
    source can feed only one operation.
    """
    allow_engines = request.mode is RequestMode.MANUAL
    attachments = t.attachments
    counters: dict[str, int] = {}
    seen_leaves: set[str] = set()

    def build(node: ExprNode) -> OpNode:
        counters[node.kind.value] = counters.get(node.kind.value, 0) + 1
        node_id = f"{node.kind.value}{counters[node.kind.value]}"
        children: list = []
        for child in node.children:
            if isinstance(child, ExprNode):
                children.append(build(child))
            else:
                # a base station, or an engine where engines are sources,
                # is its own leaf: the common case, one table read
                attached = attachments.get(child)
                if attached is not None and (allow_engines or not attached[2]):
                    leaves = (child,)
                else:
                    leaves = _resolve_leaf(child, t, cov, allow_engines)
                for leaf in leaves:
                    if leaf in seen_leaves:
                        raise ValidationError(f"source {leaf!r} appears more than once")
                    seen_leaves.add(leaf)
                    children.append(leaf)
        return OpNode(node_id, node.kind, children)

    return TaskGraph(build(request.expr))
