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
    K=V   := delay=10ms | rate=1s | jitter=5ms | coverage=Name | datatype=vector

Durations take `ms` or `s` suffixes. `computation<-` is accepted as an alias
for `compute<-`. Manual commands may list engines as sources; automated
requests expand to base stations only. Ranges stay symbolic until
expand_sources resolves them against a topology and coverage map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
from .topology import NodeKind, Topology, expand_range, natural_key

JITTER_MAX_MS = 25.0  # upper bound accepted for the jitter requirement

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


@dataclass(frozen=True)
class SourceRef:
    """A symbolic leaf: node id, range, engine reference, or region name."""

    text: str

    def is_range(self) -> bool:
        return ":" in self.text

    def is_engine_ref(self) -> bool:
        return self.text.endswith("[engine]")


@dataclass
class ExprNode:
    kind: OpKind
    children: list  # ExprNode | SourceRef


@dataclass
class Requirements:
    delay_ms: float | None = None
    rate_ms: float | None = None
    jitter_ms: float | None = None
    coverage: str | None = None
    data_type: str | None = None

    def is_empty(self) -> bool:
        return all(
            v is None
            for v in (self.delay_ms, self.rate_ms, self.jitter_ms, self.coverage, self.data_type)
        )


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


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT NUMBER ARROW ( ) { } [ ] , : = EOF
    value: str
    col: int
    unit: str = ""


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c == "<" and text[i : i + 2] == _ARROW:
            tokens.append(_Token("ARROW", _ARROW, col))
            i += 2
        elif c in "(){}[],:=":
            tokens.append(_Token(c, c, col))
            i += 1
        elif c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_-"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], col))
            i = j
        elif c.isdigit():
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            k = j
            while k < n and text[k].isalpha():
                k += 1
            tokens.append(_Token("NUMBER", text[i:j], col, unit=text[j:k]))
            i = k
        else:
            raise DslSyntaxError(f"unexpected character {c!r}", col=col)
    tokens.append(_Token("EOF", "", n + 1))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise DslSyntaxError(f"expected {kind!r}, got {tok.value!r}", col=tok.col)
        return tok

    # request := ident "(" body ")"
    def parse_request(self) -> Request:
        head = self.expect("IDENT")
        if head.value == "datapath_a":
            mode = RequestMode.AUTOMATED
        elif head.value == "datapath_m":
            mode = RequestMode.MANUAL
        else:
            raise DslSyntaxError(
                f"expected datapath_a or datapath_m, got {head.value!r}", col=head.col
            )
        self.expect("(")
        if mode is RequestMode.AUTOMATED:
            req = self._parse_automated()
        else:
            req = self._parse_manual()
        self.expect(")")
        self.expect("EOF")
        return req

    def _parse_automated(self) -> Request:
        expr = self._parse_expr()
        kwargs = self._parse_kwargs()
        for forbidden in ("switch", "compute", "computation"):
            if forbidden in kwargs:
                raise DslSyntaxError(f"datapath_a does not take {forbidden!r}")
        return Request(
            mode=RequestMode.AUTOMATED,
            expr=expr,
            destination=self._required(kwargs, "destination"),
            requirements=kwargs.get("requirement", Requirements()),
            user=kwargs.get("user", DEFAULT_USER),
        )

    def _parse_manual(self) -> Request:
        sources = self._parse_source_list()
        kwargs = self._parse_kwargs()
        compute = kwargs.get("compute", kwargs.get("computation"))
        if compute is None:
            raise DslSyntaxError("datapath_m requires compute<-")
        op = self._op_kind(compute, col=1)
        expr = ExprNode(op, list(sources))
        self._check_arity(expr, col=1)
        return Request(
            mode=RequestMode.MANUAL,
            expr=expr,
            destination=self._required(kwargs, "destination"),
            switch=self._required(kwargs, "switch"),
            requirements=kwargs.get("requirement", Requirements()),
            user=kwargs.get("user", DEFAULT_USER),
        )

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

    def _parse_expr(self) -> ExprNode:
        tok = self.expect("IDENT")
        kind = self._op_kind(tok.value, tok.col)
        self.expect("(")
        children = []
        while True:
            if self.peek().kind == "IDENT" and self.tokens[self.pos + 1].kind == "(":
                children.append(self._parse_expr())
            else:
                children.append(self._parse_source())
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect(")")
        node = ExprNode(kind, children)
        self._check_arity(node, tok.col)
        return node

    def _parse_source(self) -> SourceRef:
        tok = self.expect("IDENT")
        if self.peek().kind == ":":
            self.next()
            hi = self.expect("IDENT")
            text = f"{tok.value}:{hi.value}"
            try:
                expand_range(text)
            except ValueError as exc:
                raise DslSyntaxError(str(exc), col=tok.col) from None
            return SourceRef(text)
        if self.peek().kind == "[":
            self.next()
            inner = self.expect("IDENT")
            if inner.value != "engine":
                raise DslSyntaxError(f"expected [engine], got [{inner.value}]", col=inner.col)
            self.expect("]")
            return SourceRef(f"{tok.value}[engine]")
        return SourceRef(tok.value)

    def _parse_source_list(self) -> list[SourceRef]:
        # manual sources, optionally wrapped in braces: {bs1:bs10}
        sources: list[SourceRef] = []
        braced = self.peek().kind == "{"
        if braced:
            self.next()
        while True:
            sources.append(self._parse_source())
            if self.peek().kind == ",":
                # stop before the keyword section (ident followed by <-)
                if (
                    not braced
                    and self.tokens[self.pos + 1].kind == "IDENT"
                    and self.tokens[self.pos + 2].kind == "ARROW"
                ):
                    break
                self.next()
                continue
            break
        if braced:
            self.expect("}")
        return sources

    def _parse_kwargs(self) -> dict:
        kwargs: dict = {}
        while self.peek().kind == ",":
            self.next()
            name = self.expect("IDENT")
            self.expect("ARROW")
            if name.value in kwargs:
                raise DslSyntaxError(f"duplicate keyword {name.value!r}", col=name.col)
            if name.value == "requirement":
                kwargs[name.value] = self._parse_requirements()
            elif name.value in ("destination", "switch", "user", "compute", "computation"):
                kwargs[name.value] = self._parse_node_token()
            else:
                raise DslSyntaxError(f"unknown keyword {name.value!r}", col=name.col)
        return kwargs

    def _parse_node_token(self) -> str:
        tok = self.expect("IDENT")
        if self.peek().kind == "[":
            self.next()
            inner = self.expect("IDENT")
            if inner.value != "engine":
                raise DslSyntaxError(f"expected [engine], got [{inner.value}]", col=inner.col)
            self.expect("]")
            return f"{tok.value}[engine]"
        return tok.value

    def _parse_requirements(self) -> Requirements:
        self.expect("{")
        req = Requirements()
        seen = set()
        while True:
            key = self.expect("IDENT")
            self.expect("=")
            if key.value in seen:
                raise DslSyntaxError(f"duplicate requirement {key.value!r}", col=key.col)
            seen.add(key.value)
            if key.value == "delay":
                req.delay_ms = self._parse_duration(key)
            elif key.value == "rate":
                req.rate_ms = self._parse_duration(key)
            elif key.value == "jitter":
                req.jitter_ms = self._parse_duration(key, allow_zero=True)
                if req.jitter_ms > JITTER_MAX_MS:
                    raise ValidationError(
                        f"jitter must be within 0..{JITTER_MAX_MS:g} ms, got {req.jitter_ms:g}"
                    )
            elif key.value == "coverage":
                req.coverage = self.expect("IDENT").value
            elif key.value == "datatype":
                value = self.expect("IDENT").value
                if value not in ("scalar", "vector", "matrix"):
                    raise DslSyntaxError(f"unknown datatype {value!r}", col=key.col)
                req.data_type = value
            else:
                raise DslSyntaxError(f"unknown requirement {key.value!r}", col=key.col)
            if self.peek().kind == ",":
                self.next()
                continue
            break
        self.expect("}")
        return req

    def _parse_duration(self, key: _Token, allow_zero: bool = False) -> float:
        tok = self.expect("NUMBER")
        try:
            value = float(tok.value)
        except ValueError:
            raise DslSyntaxError(f"bad number {tok.value!r}", col=tok.col) from None
        if tok.unit == "ms":
            ms = value
        elif tok.unit == "s":
            ms = value * 1000.0
        else:
            raise DslSyntaxError(
                f"{key.value} needs an ms or s suffix, got {tok.value}{tok.unit}", col=tok.col
            )
        if ms < 0 or (ms == 0 and not allow_zero):
            raise ValidationError(f"{key.value} must be positive, got {ms:g} ms")
        return ms


def parse_request(text: str) -> Request:
    """Parse one datapath command. Errors carry line/column information."""
    return _Parser(text).parse_request()


# -- canonical printing -------------------------------------------------------


def _format_duration(ms: float) -> str:
    return f"{ms:g}ms"


def _format_requirements(req: Requirements) -> str:
    parts = []
    if req.delay_ms is not None:
        parts.append(f"delay={_format_duration(req.delay_ms)}")
    if req.rate_ms is not None:
        parts.append(f"rate={_format_duration(req.rate_ms)}")
    if req.jitter_ms is not None:
        parts.append(f"jitter={_format_duration(req.jitter_ms)}")
    if req.coverage is not None:
        parts.append(f"coverage={req.coverage}")
    if req.data_type is not None:
        parts.append(f"datatype={req.data_type}")
    return "{" + ",".join(parts) + "}"


def _format_expr(node) -> str:
    if isinstance(node, SourceRef):
        return node.text
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

    def __init__(self, root: OpNode, destination: str):
        self.root = root
        self.destination = destination
        self._ops: list[OpNode] = []
        self._parent: dict[str, OpNode | None] = {}
        self._walk(root, None)

    def _walk(self, node: OpNode, parent: OpNode | None) -> None:
        self._ops.append(node)
        self._parent[node.node_id] = parent
        for child in node.children:
            if isinstance(child, OpNode):
                self._walk(child, node)

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
        out: list[str] = []

        def rec(node: OpNode):
            for child in node.children:
                if isinstance(child, OpNode):
                    rec(child)
                else:
                    out.append(child)

        rec(self.root)
        return out

    def op_count(self) -> int:
        return len(self._ops)

    def to_doc(self) -> dict:
        def rec(node: OpNode):
            return {
                "id": node.node_id,
                "op": node.kind.value,
                "children": [rec(c) if isinstance(c, OpNode) else c for c in node.children],
            }

        return {"destination": self.destination, "root": rec(self.root)}


def _resolve_leaf(
    ref: SourceRef, t: Topology, cov: CoverageMap | None, allow_engines: bool
) -> list[str]:
    text = ref.text
    if ref.is_range():
        try:
            names = expand_range(text)
        except ValueError:
            raise EmptyRangeError(f"empty or malformed range {text!r}") from None
        for name in names:
            if not t.has_node(name):
                raise UnknownNodeError(f"range {text!r} includes unknown node {name!r}")
        kinds_ok = (NodeKind.BASE_STATION,)
        for name in names:
            if t.kind(name) not in kinds_ok:
                raise UnknownNodeError(f"{name!r} in range {text!r} is not a base station")
        return names
    if ref.is_engine_ref():
        if not allow_engines:
            raise UnknownNodeError(f"engine source {text!r} is only valid in manual requests")
        switch = text[: -len("[engine]")]
        return [t.engine_of(switch)]
    if t.has_node(text):
        kind = t.kind(text)
        if kind is NodeKind.BASE_STATION:
            return [text]
        if kind is NodeKind.ENGINE and allow_engines:
            return [text]
        raise UnknownNodeError(f"{text!r} is a {kind.value}, not a valid source")
    if cov and text in cov:
        names = sorted(translate_coverage(text, cov), key=natural_key)
        for name in names:
            if not t.has_node(name) or t.kind(name) is not NodeKind.BASE_STATION:
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
                for leaf in _resolve_leaf(child, t, cov, allow_engines):
                    if leaf in seen_leaves:
                        raise ValidationError(f"source {leaf!r} appears more than once")
                    seen_leaves.add(leaf)
                    children.append(leaf)
        return OpNode(node_id, node.kind, children)

    return TaskGraph(build(request.expr), request.destination)
