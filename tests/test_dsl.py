import random

import pytest

from flip import dsl
from flip.dsl import OpKind, RequestMode, SourceRef, canonical, parse_request
from flip.errors import (
    ArityError,
    DslSyntaxError,
    EmptyRangeError,
    FlipError,
    UnknownNodeError,
    UnknownOperationError,
    UnknownRegionError,
    ValidationError,
)
from flip.harness import demo_topology

EQ1 = (
    "datapath_a(max(avg(bs1:bs10),avg(bs11:bs100),"
    "max(min(bs101:bs200),min(bs201:bs300))),destination<-user)"
)


def test_parse_nested_request_shape():
    req = parse_request(EQ1)
    assert req.mode is RequestMode.AUTOMATED
    assert req.destination == "user"
    kinds = []

    def rec(node):
        kinds.append(node.kind)
        for child in node.children:
            if isinstance(child, dsl.ExprNode):
                rec(child)

    rec(req.expr)
    assert kinds == [OpKind.MAX, OpKind.AVG, OpKind.AVG, OpKind.MAX, OpKind.MIN, OpKind.MIN]


def test_parse_degenerate_single_source():
    req = parse_request("datapath_a(max(bs1),destination<-user)")
    assert req.expr.kind is OpKind.MAX
    assert req.expr.children == [SourceRef("bs1")]


def test_unknown_operation_rejected():
    with pytest.raises(UnknownOperationError):
        parse_request("datapath_a(foo(bs1:bs2),destination<-user)")


def test_sub_arity_enforced():
    with pytest.raises(ArityError):
        parse_request("datapath_a(sub(bs1),destination<-user)")
    req = parse_request("datapath_a(sub(bs1,bs2),destination<-user)")
    assert len(req.expr.children) == 2


def test_mul_arity_enforced():
    with pytest.raises(ArityError):
        parse_request("datapath_m(bs1,switch<-sw1,compute<-mul,destination<-user)")


def test_requirements_parsing():
    req = parse_request(
        "datapath_a(max(bs1:bs10),destination<-user,"
        "requirement<-{delay=10ms,rate=1s,jitter=5ms})"
    )
    r = req.requirements
    assert r.delay_ms == 10.0
    assert r.rate_ms == 1000.0
    assert r.jitter_ms == 5.0
    # nothing reads a coverage or a data type, so neither is a requirement
    for removed in ("coverage=Seoul", "datatype=vector"):
        with pytest.raises(DslSyntaxError, match="unknown requirement"):
            parse_request(
                f"datapath_a(max(bs1:bs10),destination<-user,requirement<-{{{removed}}})"
            )


def test_jitter_bound_enforced():
    with pytest.raises(ValidationError):
        parse_request(
            "datapath_a(max(bs1),destination<-user,requirement<-{jitter=26ms})"
        )


def test_duration_needs_unit():
    with pytest.raises(DslSyntaxError):
        parse_request("datapath_a(max(bs1),destination<-user,requirement<-{delay=10})")


def test_manual_request_parses():
    req = parse_request(
        "datapath_m(bs1,bs2,switch<-sw,computation<-sum,destination<-dest)"
    )
    assert req.mode is RequestMode.MANUAL
    assert req.switch == "sw"
    assert req.expr.kind is OpKind.SUM
    assert [c.text for c in req.expr.children] == ["bs1", "bs2"]


def test_manual_engine_sources_and_braces():
    req = parse_request(
        "datapath_m(sw4[engine],sw3[engine],switch<-sw5,compute<-max,destination<-sw3[engine])"
    )
    assert [c.text for c in req.expr.children] == ["sw4[engine]", "sw3[engine]"]
    assert req.destination == "sw3[engine]"
    braced = parse_request(
        "datapath_m({bs201:bs300},switch<-sw4,compute<-min,destination<-sw5[engine])"
    )
    assert braced.expr.children == [SourceRef("bs201:bs300")]


def test_manual_requires_switch_automated_forbids():
    with pytest.raises(DslSyntaxError):
        parse_request("datapath_m(bs1,bs2,compute<-sum,destination<-dest)")
    with pytest.raises(DslSyntaxError):
        parse_request("datapath_a(max(bs1),switch<-sw1,destination<-user)")


def test_user_keyword():
    req = parse_request("datapath_a(max(bs1),destination<-user,user<-maya)")
    assert req.user == "maya"


def test_malformed_inputs_raise_structured_errors():
    bad = [
        "",
        "datapath_a",
        "datapath_a(max(bs1)",
        "datapath_a(max(bs1),destination<-user))",
        "datapath_x(max(bs1),destination<-user)",
        "datapath_a(max(),destination<-user)",
        "datapath_a(max(bs1),destination<-)",
        "datapath_a(max(bs1))",
        "datapath_a(max(bs1),destination<-user,requirement<-{delay=10ms)",
        "datapath_a(max(bs1),destination<-user,requirement<-{speed=1ms})",
        "datapath_a(max(bs1),dest<-user)",
        "datapath_a(max(bs10:bs1),destination<-user)",
        "datapath_a(max(bs1:h10),destination<-user)",
        "datapath_m(bs1,switch<-sw1,destination<-user)",
        "datapath_a(max(bs1),destination<-user,destination<-user)",
        'datapath_a(max(bs1),destination<-user)!',
    ]
    for text in bad:
        with pytest.raises(FlipError):
            parse_request(text)


def test_parser_never_raises_unstructured():
    rng = random.Random(31)
    seeds = [
        EQ1,
        "datapath_m(bs1,bs2,switch<-sw,compute<-sum,destination<-dest)",
        "datapath_a(max(bs1),destination<-user,requirement<-{delay=10ms,rate=1s})",
    ]
    alphabet = "abz019(){}[]<>,=:- \t"
    for _ in range(400):
        text = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 6)):
            op = rng.random()
            pos = rng.randrange(len(text))
            if op < 0.4:
                text[pos] = rng.choice(alphabet)
            elif op < 0.7:
                text.insert(pos, rng.choice(alphabet))
            else:
                del text[pos]
            if not text:
                break
        try:
            parse_request("".join(text))
        except FlipError:
            pass  # structured failure is the contract


def test_roundtrip_canonical_fixed_cases():
    cases = [
        EQ1,
        "datapath_a(max(bs1),destination<-user)",
        "datapath_m(bs1,bs2,switch<-sw,compute<-sum,destination<-dest)",
        "datapath_a(sub(bs1,bs2,bs3),destination<-user,requirement<-{delay=10ms,rate=1000ms})",
    ]
    for text in cases:
        req = parse_request(text)
        printed = canonical(req)
        assert parse_request(printed) == req
        assert canonical(parse_request(printed)) == printed


def test_roundtrip_canonical_random_requests():
    rng = random.Random(3)
    ops = [k.value for k in OpKind]

    def gen_expr(depth):
        op = rng.choice(ops)
        n = rng.randint(2, 3)
        children = []
        for _ in range(n):
            if depth < 2 and rng.random() < 0.4:
                children.append(gen_expr(depth + 1))
            else:
                lo = rng.randint(1, 40)
                hi = lo + rng.randint(0, 5)
                children.append(f"bs{lo}:bs{hi}" if rng.random() < 0.5 else f"bs{lo}")
        return f"{op}({','.join(children)})"

    def many_digits():  # 7 to 12 significant digits
        digits = str(rng.randint(10**6, 10**12))
        point = rng.randint(1, len(digits) - 1)
        return f"{digits[:point]}.{digits[point:]}{rng.choice(['ms', 's'])}"

    def tiny():  # under 1e-4 ms
        return f"0.0000{rng.randint(1, 10**6)}{rng.choice(['ms', 's'])}"

    durations = [
        many_digits,
        tiny,
        lambda: f"{rng.randint(1000, 10**7)}s",  # at least 1e6 ms
        lambda: f"{rng.randint(1, 500) / 4}ms",
    ]
    jitters = [tiny, lambda: f"{rng.randint(1, 25 * 10**6) / 10**6}ms"]

    def gen_requirement():
        keys = [k for k in ("delay", "rate", "jitter") if rng.random() < 0.6] or ["rate"]
        rng.shuffle(keys)
        pairs = [f"{k}={rng.choice(jitters if k == 'jitter' else durations)()}" for k in keys]
        return ",requirement<-{" + ",".join(pairs) + "}"

    for i in range(60):
        tail = gen_requirement() if i % 2 else ""
        text = f"datapath_a({gen_expr(0)},destination<-user{tail})"
        req = parse_request(text)
        assert parse_request(canonical(req)) == req, text


def test_expand_range_and_counts():
    t = demo_topology()
    req = parse_request(EQ1)
    tg = dsl.expand_sources(req, t)
    assert len(tg.leaves()) == 300
    assert len(tg.ops()) == 6
    assert [op.node_id for op in tg.ops()] == ["max1", "avg1", "avg2", "max2", "min1", "min2"]


def test_expand_unit_range():
    t = demo_topology()
    req = parse_request("datapath_a(max(bs7:bs7),destination<-user)")
    tg = dsl.expand_sources(req, t)
    assert tg.leaves() == ["bs7"]


def test_expand_region():
    t = demo_topology()
    cov = dsl.load_coverage({"Seoul": ["bs1", "bs2"]})
    req = parse_request("datapath_a(max(Seoul),destination<-user)")
    tg = dsl.expand_sources(req, t, cov)
    assert tg.leaves() == ["bs1", "bs2"]


def test_expand_unknown_node():
    t = demo_topology()
    req = parse_request("datapath_a(max(bs290:bs310),destination<-user)")
    with pytest.raises(UnknownNodeError):
        dsl.expand_sources(req, t)


def test_expand_duplicate_leaf_rejected():
    t = demo_topology()
    req = parse_request("datapath_a(max(bs1:bs5,bs5),destination<-user)")
    with pytest.raises(ValidationError):
        dsl.expand_sources(req, t)


def test_expand_engine_only_manual():
    t = demo_topology()
    manual = parse_request(
        "datapath_m(sw1[engine],sw2[engine],switch<-sw3,compute<-max,destination<-user)"
    )
    tg = dsl.expand_sources(manual, t)
    assert tg.leaves() == ["e-sw1", "e-sw2"]
    auto = parse_request("datapath_a(max(sw1[engine],bs1),destination<-user)")
    with pytest.raises(UnknownNodeError):
        dsl.expand_sources(auto, t)


def test_empty_range_at_expand():
    t = demo_topology()
    req = dsl.Request(
        mode=RequestMode.AUTOMATED,
        expr=dsl.ExprNode(OpKind.MAX, [SourceRef("bs10:bs1")]),
        destination="user",
    )
    with pytest.raises(EmptyRangeError):
        dsl.expand_sources(req, t)


def test_translate_coverage():
    cov = dsl.load_coverage({"Seoul": ["bs1:bs10"], "Empty": []})
    assert dsl.translate_coverage("Seoul", cov) == {f"bs{i}" for i in range(1, 11)}
    assert dsl.translate_coverage("Empty", cov) == set()
    with pytest.raises(UnknownRegionError):
        dsl.translate_coverage("seoul", cov)


def test_leafonly_parents_shape():
    t = demo_topology()
    tg = dsl.expand_sources(parse_request(EQ1), t)
    assert [op.node_id for op in tg.leafonly_parents()] == ["avg1", "avg2", "min1", "min2"]
    root = tg.root
    assert tg.parent(root) is None
    assert tg.parent(tg.leafonly_parents()[0]).node_id == "max1"
