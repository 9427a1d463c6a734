import random

import pytest

from flip import dsl
from flip.dsl import OpKind, RequestMode, canonical, parse_request
from flip.errors import (
    ArityError,
    DslSyntaxError,
    EmptyRangeError,
    FlipError,
    ParseError,
    UnknownNodeError,
    UnknownOperationError,
    UnknownRegionError,
    ValidationError,
)
from flip.harness import demo_topology

from _oracles import tokenize

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
    assert req.expr.children == ["bs1"]


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
    assert req.expr.children == ["bs1", "bs2"]


def test_manual_engine_sources_and_braces():
    req = parse_request(
        "datapath_m(sw4[engine],sw3[engine],switch<-sw5,compute<-max,destination<-sw3[engine])"
    )
    assert req.expr.children == ["sw4[engine]", "sw3[engine]"]
    assert req.destination == "sw3[engine]"
    braced = parse_request(
        "datapath_m({bs201:bs300},switch<-sw4,compute<-min,destination<-sw5[engine])"
    )
    assert braced.expr.children == ["bs201:bs300"]


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


# every character class the tokenizer tells apart: ASCII letters and digits,
# punctuation, a letter outside ASCII (\u00e9, \u00df), a digit that is
# not decimal (\u00b2), numerics that are neither (\u00bd, \u216b), and
# whitespace, \x1c included
TOKEN_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    "_-.<>:=(){}[],\u00e9\u00df\u00b2\u00bd\u216b \x1c\t\n"
)


def _oracle_tokens(text):
    return [(tok.kind, tok.value, tok.col, tok.unit) for tok in tokenize(text)]


def _tokens_or_error(scan, text):
    try:
        return [tuple(tok) for tok in scan(text)]
    except DslSyntaxError as exc:
        return (type(exc), str(exc), exc.col)


def test_tokenizer_matches_the_character_loop_oracle():
    rng = random.Random(18)
    texts = [EQ1, "datapath_a(max(bs1),destination<-user,requirement<-{delay=1.5ms,rate=2s})"]
    for i in range(6000):
        if i % 3:
            size = rng.choice((1, 2, 3, 5, 8, 13, 30))
            texts.append("".join(rng.choice(TOKEN_ALPHABET) for _ in range(size)))
        else:  # a request with a few characters replaced or inserted
            text = list(rng.choice(texts[:2]))
            for _ in range(rng.randint(1, 4)):
                text.insert(rng.randrange(len(text) + 1), rng.choice(TOKEN_ALPHABET))
            texts.append("".join(text))
    errors = 0
    for text in texts:
        expected = _tokens_or_error(_oracle_tokens, text)
        assert _tokens_or_error(dsl._tokenize, text) == expected, repr(text)
        errors += isinstance(expected, tuple)
    # both outcomes are well represented
    assert 1000 < errors < len(texts) - 1000


def test_tokenizer_edge_cases_match_the_oracle():
    cases = [
        "", " ", "\x1c\t\n", "<", "<-", "<<-", "-", ".", ".5ms", "_a",
        "1.5.2ms", "1\u00b2ms", "\u00b2", "\u00b2.1s", "1\u00bd", "1ms\u00b2", "1m\u00e9s",
        "\u00e9\u00df-1_\u00b2\u216b", "\u216b", "a\u216b", "10ms5", "10m_s", "bs1:bs2",
        "sw1[engine]", "x<y", "a\u00a0b", "\u0663\u0661ms",
    ]
    for text in cases:
        assert _tokens_or_error(dsl._tokenize, text) == _tokens_or_error(_oracle_tokens, text), repr(text)


def _nested(depth: int) -> str:
    return "datapath_a(" + "sum(" * depth + "bs1" + ")" * depth + ",destination<-user)"


def test_nesting_deeper_than_the_bound_is_a_syntax_error_at_its_operation():
    parse_request(_nested(dsl.MAX_NESTING))
    with pytest.raises(DslSyntaxError) as info:
        parse_request(_nested(dsl.MAX_NESTING + 1))
    # the first operation past the bound: "datapath_a(" then 4 columns each
    assert info.value.col == len("datapath_a(") + 4 * dsl.MAX_NESTING + 1
    with pytest.raises(DslSyntaxError):
        parse_request(_nested(5000))


def test_range_is_checked_without_building_its_names(monkeypatch):
    def build(text):
        raise AssertionError(f"the parser built the names of {text!r}")

    monkeypatch.setattr(dsl, "expand_range", build)
    req = parse_request("datapath_a(sum(bs1:bs1000000000),destination<-user)")
    assert req.expr.children == ["bs1:bs1000000000"]
    for text, message, col in [
        ("datapath_a(max(bs10:bs1),destination<-user)", "empty range 'bs10:bs1'", 16),
        ("datapath_a(max(bs1,bs1:h10),destination<-user)", "malformed range 'bs1:h10'", 20),
        ("datapath_m({sw1:sw1x},switch<-sw1,compute<-max,destination<-user)", "malformed range 'sw1:sw1x'", 13),
    ]:
        with pytest.raises(DslSyntaxError) as info:
            parse_request(text)
        assert (str(info.value), info.value.col) == (f"{message} (col {col})", col)


def test_roundtrip_canonical_fixed_cases():
    cases = [
        EQ1,
        "datapath_a(max(bs1),destination<-user)",
        "datapath_m(bs1,bs2,switch<-sw,compute<-sum,destination<-dest)",
        "datapath_a(sub(bs1,bs2,bs3),destination<-user,requirement<-{delay=10ms,rate=1000ms})",
        # a user other than the default, an engine reference and a region name
        "datapath_a(max(Seoul,sw4[engine],bs1:bs3),destination<-user,user<-x)",
        "datapath_m(bs1,sw4[engine],switch<-sw1,compute<-min,destination<-user,user<-x)",
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


def test_expand_names_the_offending_source():
    """Each way a source can fail names it, and a range names its first
    unknown node before its first node that is not a base station."""
    from flip.topology import Link, NodeKind, Topology

    kinds = {"sw1": NodeKind.SWITCH, "e-sw1": NodeKind.ENGINE, "user": NodeKind.DESTINATION}
    kinds |= {"bs1": NodeKind.BASE_STATION, "bs2": NodeKind.DESTINATION, "bs4": NodeKind.BASE_STATION}
    t = Topology(kinds, [Link(n, "sw1", 1.0) for n in kinds if n != "sw1"])
    cov = {"North": ("bs1", "bs2"), "South": ("bs1", "bs9")}
    cases = {
        "bs1:bs4": "range 'bs1:bs4' includes unknown node 'bs3'",
        "bs1:bs2": "'bs2' in range 'bs1:bs2' is not a base station",
        "sw1": "'sw1' is a switch, not a valid source",
        "e-sw1": "'e-sw1' is a engine, not a valid source",
        "bs2": "'bs2' is a destination, not a valid source",
        "sw1[engine]": "engine source 'sw1[engine]' is only valid in manual requests",
        "North": "region 'North' includes unknown node 'bs2'",
        "South": "region 'South' includes unknown node 'bs9'",
        "West": "'West' is neither a node nor a known region",
    }
    for source, message in cases.items():
        req = parse_request(f"datapath_a(max(bs4,{source}),destination<-user)")
        with pytest.raises(UnknownNodeError) as info:
            dsl.expand_sources(req, t, cov)
        assert str(info.value) == message
    manual = parse_request("datapath_m(e-sw1,bs1,switch<-sw1,compute<-max,destination<-user)")
    assert dsl.expand_sources(manual, t).leaves() == ["e-sw1", "bs1"]


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
        expr=dsl.ExprNode(OpKind.MAX, ["bs10:bs1"]),
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


def _parse(requirement="", source="bs1"):
    text = f"datapath_a(max({source}),destination<-user{requirement})"
    return lambda: parse_request(text)


def _coverage(doc):
    return lambda: dsl.load_coverage(doc)


TYPED_ERRORS = {
    # requests
    "engine-tag-not-engine": (_parse(source="bs1[foo]"), DslSyntaxError, "expected [engine], got [foo]"),
    "duplicate-requirement": (
        _parse(",requirement<-{delay=10ms,delay=20ms}"),
        DslSyntaxError,
        "duplicate requirement 'delay'",
    ),
    "number-with-two-points": (_parse(",requirement<-{delay=1.2.3ms}"), DslSyntaxError, "bad number '1.2.3'"),
    "zero-delay": (_parse(",requirement<-{delay=0ms}"), ValidationError, "delay must be positive, got 0 ms"),
    # coverage documents
    "coverage-not-an-object": (_coverage(["bs1:bs10"]), ParseError, "coverage document must be an object"),
    "region-not-a-list": (_coverage({"Seoul": "bs1:bs10"}), ParseError, "region 'Seoul' must map to a list"),
    "entry-not-a-string": (_coverage({"Seoul": [1]}), ParseError, "coverage entry 1 must be a string"),
    "malformed-range": (_coverage({"Seoul": ["bs1:x10"]}), ParseError, "malformed range 'bs1:x10'"),
}


@pytest.mark.parametrize("call, error, fragment", TYPED_ERRORS.values(), ids=TYPED_ERRORS)
def test_bad_input_raises_its_typed_error(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_leafonly_parents_shape():
    t = demo_topology()
    tg = dsl.expand_sources(parse_request(EQ1), t)
    assert [op.node_id for op in tg.leafonly_parents()] == ["avg1", "avg2", "min1", "min2"]
    root = tg.root
    assert tg.parent(root) is None
    assert tg.parent(tg.leafonly_parents()[0]).node_id == "max1"
