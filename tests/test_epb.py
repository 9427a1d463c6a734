import json
import math
import random

import pytest

from _oracles import config_doc, scan_config
from flip.dsl import OpKind
from flip.epb import ConfigStore, Engine, EngineConfig
from flip.errors import ValidationError
from flip.packets import PacketRecord, Scalar


def make_config(**overrides):
    base = dict(
        engine="e-sw1",
        user="maya",
        compute=OpKind.SUM,
        sources=("bs1", "bs2"),
        destination="dest",
        rate_ms=None,
        jitter_ms=None,
    )
    base.update(overrides)
    return EngineConfig(**base)


def packet(source, ts, value=1.0, fd="dest", user="maya", epoch=0):
    return PacketRecord(
        source=source,
        final_destination=fd,
        user=user,
        epoch=epoch,
        timestamp_ms=ts,
        payload=Scalar(value),
    )


# -- config store ---------------------------------------------------------------


def test_set_config_roundtrip():
    store = ConfigStore()
    cfg = make_config(rate_ms=1000.0)
    store.set_config(cfg)
    assert store.configs_for("e-sw1") == [cfg]
    doc = json.loads(json.dumps(store.to_doc()))
    assert EngineConfig.from_doc("e-sw1", "maya", doc["e-sw1"]["maya"][0]) == cfg
    assert doc["e-sw1"]["maya"][0]["compute"] == "sum"
    assert doc["e-sw1"]["maya"][0]["source"] == ["bs1", "bs2"]
    assert doc["e-sw1"]["maya"][0]["rate"] == 1000.0


def test_empty_sources_rejected():
    store = ConfigStore()
    with pytest.raises(ValidationError):
        store.set_config(make_config(sources=()))


def test_same_triple_replaces():
    store = ConfigStore()
    store.set_config(make_config(compute=OpKind.SUM))
    store.set_config(make_config(compute=OpKind.MAX))
    (cfg,) = store.configs_for("e-sw1")
    assert cfg.compute is OpKind.MAX


def test_jitter_cap_enforced():
    with pytest.raises(ValidationError):
        ConfigStore().set_config(make_config(jitter_ms=26.0))


ENGINES = ("e-sw1", "e-sw2", "e-sw3", "e-sw10")
USERS = ("maya", 'u"q', "\u00e9", "zed")
DESTINATIONS = ("dest", "cloud", "e-sw2")
SOURCES = ("bs1", "bs2", "bs3", "bs10", "bs11")


def random_config(rng, engine=None, user=None):
    return EngineConfig(
        engine=engine or rng.choice(ENGINES),
        user=user or rng.choice(USERS),
        compute=rng.choice(list(OpKind)),
        sources=tuple(rng.sample(SOURCES, rng.randint(1, 3))),
        destination=rng.choice(DESTINATIONS),
        rate_ms=rng.choice((None, 100.0, 250.5)),
        jitter_ms=rng.choice((None, 0.0, 5.0)),
        match_destinations=rng.choice(((), ("dest",), ("cloud", "e-sw2"))),
    )


def test_store_matches_the_old_store_over_random_edits():
    """Set and remove at random, emptying a user, an engine and the whole
    store on the way; after every step the document and every lookup agree
    with a plain dict of configs and the old sorted scan. Now and then a new
    store is given the model's configs again, in a random order, as a
    replay would."""
    rng = random.Random(11)
    store = ConfigStore()
    model: dict = {}

    def probe():
        if model and rng.random() < 0.5:
            cfg = model[rng.choice(sorted(model))]
            return (
                cfg.engine,
                rng.choice((cfg.user, rng.choice(USERS))),
                rng.choice(cfg.sources),
                rng.choice(cfg.effective_matches()),
            )
        engine = rng.choice(ENGINES)
        return engine, rng.choice(USERS), rng.choice(SOURCES), rng.choice(DESTINATIONS + (engine,))

    def check():
        assert store.to_doc() == config_doc(model.values())
        for _ in range(10):
            query = probe()
            want = scan_config(model.values(), *query)
            assert store.lookup(*query) == (None if want is None else (want, want.key()))

    def put(cfg):
        store.set_config(cfg)
        model[cfg.key()] = cfg
        check()

    def remove(key):
        assert store.remove(key) == (model.pop(key, None) is not None)
        check()

    for step in range(400):
        if step % 100 == 50:
            # continue from a new store, which starts empty
            store = ConfigStore()
            assert store.to_doc() == {}
            for key in rng.sample(sorted(model), len(model)):
                store.set_config(model[key])
        if not model or rng.random() < 0.6:
            put(random_config(rng))
        elif rng.random() < 0.8:
            remove(rng.choice(sorted(model)))
        else:
            remove((rng.choice(ENGINES), rng.choice(USERS), rng.choice(DESTINATIONS)))
        if step == 150:
            engine, user, _ = rng.choice(sorted(model))
            for key in [k for k in sorted(model) if k[:2] == (engine, user)]:
                remove(key)
            assert user not in store.to_doc().get(engine, {})
        if step == 250:
            engine = rng.choice(sorted(model))[0]
            for key in [k for k in sorted(model) if k[0] == engine]:
                remove(key)
            assert engine not in store.to_doc()
            put(random_config(rng, engine=engine, user='u"q'))
    for key in sorted(model):
        remove(key)
    assert store.to_doc() == {}
    put(random_config(rng, user="\u00e9"))


def test_replacing_or_removing_a_config_changes_the_next_lookup():
    store = ConfigStore()
    store.set_config(make_config(sources=("bs1", "bs2")))
    assert store.lookup("e-sw1", "maya", "bs1", "dest")[0].sources == ("bs1", "bs2")
    store.set_config(make_config(sources=("bs3",)))
    assert store.lookup("e-sw1", "maya", "bs1", "dest") is None
    assert store.lookup("e-sw1", "maya", "bs3", "dest")[0].sources == ("bs3",)
    # an earlier config in (user, destination) order takes the packet over
    earlier = make_config(sources=("bs3",), destination="cloud", match_destinations=("dest",))
    store.set_config(earlier)
    assert store.lookup("e-sw1", "maya", "bs3", "dest") == (earlier, earlier.key())
    store.remove(earlier.key())
    assert store.lookup("e-sw1", "maya", "bs3", "dest")[0].destination == "dest"
    store.remove(make_config().key())
    assert store.lookup("e-sw1", "maya", "bs3", "dest") is None


@pytest.mark.parametrize(
    "doc",
    [
        {"source": ["bs1"], "destination": "user"},
        {"compute": "sum", "destination": "user"},
        {"compute": "sum", "source": ["bs1"]},
        {"compute": "frob", "source": ["bs1"], "destination": "user"},
        [{"compute": "sum", "source": ["bs1"], "destination": "user"}],
        5,
    ],
    ids=["no-compute", "no-source", "no-destination", "unknown-compute", "list", "number"],
)
def test_a_malformed_record_is_a_validation_error(doc):
    with pytest.raises(ValidationError, match="^bad engine config record"):
        EngineConfig.from_doc("e-sw1", "maya", doc)


# -- rate filter ----------------------------------------------------------------


def passes_rate(engine, p):
    """Feed p through the engine; True unless the rate rule dropped it."""
    dropped = engine.counters["rate_dropped"]
    engine.process(p, now=p.timestamp_ms)
    return engine.counters["rate_dropped"] == dropped


def test_rate_filter_one_in_ten():
    engine, _ = pipeline_engine(sources=("bs1",), rate_ms=1000.0)
    passed = sum(passes_rate(engine, packet("bs1", ts=100.0 * k)) for k in range(100))
    assert passed == 10


def test_rate_filter_vacuous_without_rate():
    engine, _ = pipeline_engine(sources=("bs1",))
    assert all(passes_rate(engine, packet("bs1", ts=10.0 * k)) for k in range(20))


def test_rate_filter_window_rule():
    engine, _ = pipeline_engine(sources=("bs1",), rate_ms=1000.0)
    assert passes_rate(engine, packet("bs1", ts=100.0))
    assert not passes_rate(engine, packet("bs1", ts=900.0))
    assert passes_rate(engine, packet("bs1", ts=1000.0))


def test_rate_filter_throughput_bound():
    rng = random.Random(9)
    engine, _ = pipeline_engine(sources=("bs1",), rate_ms=250.0)
    horizon = 5000.0
    ts = 0.0
    passed = 0
    while ts < horizon:
        passed += passes_rate(engine, packet("bs1", ts=ts))
        ts += rng.uniform(10.0, 120.0)
    assert passed <= math.ceil(horizon / 250.0) + 1


# -- dejitter -------------------------------------------------------------------


def dejitter_probe(jitter_ms, offsets):
    """For each offset: whether process keeps an arrival that far from its
    epoch's leader, published at 100 ms."""
    kept = []
    for off in offsets:
        engine, _ = pipeline_engine(jitter_ms=jitter_ms, sources=("bs1", "bs2", "bs3"))
        engine.process(packet("bs1", ts=100.0), now=100.0)
        engine.process(packet("bs2", ts=100.0 + off), now=100.0 + off)
        kept.append(engine.counters["jitter_discarded"] == 0 and engine.pending_arrivals() == 2)
    return kept


def test_dejitter_accepts_within_threshold():
    assert dejitter_probe(5.0, [3.0, -3.0]) == [True, True]


def test_dejitter_discards_beyond_threshold():
    """The boundary is kept."""
    assert dejitter_probe(5.0, [5.0, -5.0, 10.0, -10.0]) == [True, True, False, False]


def test_dejitter_boundary_inclusive():
    assert dejitter_probe(25.0, [25.0, 25.1]) == [True, False]


# -- aggregation ----------------------------------------------------------------


def aggregate(kind, values):
    """The payload an engine emits for one complete epoch whose sources
    bs1, bs2, ... published values in that order. The arrivals come in
    reverse, so a fold in arrival order would differ for sub."""
    sources = tuple(f"bs{i}" for i in range(1, len(values) + 1))
    engine, _ = pipeline_engine(compute=kind, sources=sources)
    results = [
        engine.process(packet(source, ts=0.0, value=value), now=0.0)
        for source, value in reversed(list(zip(sources, values)))
    ]
    assert all(r is None or r.emission is None for r in results[:-1])
    return results[-1].emission.payload


def test_sum_scalars():
    assert aggregate(OpKind.SUM, [3.0, 4.0]) == Scalar(7.0)


def test_min_matches_flat_reference():
    rng = random.Random(1)
    values = [rng.uniform(0, 100) for _ in range(10)]
    assert aggregate(OpKind.MIN, values) == Scalar(min(values))


def test_max_and_avg_scalars():
    assert aggregate(OpKind.MAX, [3.0, 9.0, 4.0]) == Scalar(9.0)
    assert aggregate(OpKind.AVG, [3.0, 9.0, 4.0, 8.0]) == Scalar(6.0)


def test_sub_mul_left_fold_order():
    vals = [10.0, 3.0, 2.0]
    assert aggregate(OpKind.SUB, vals) == Scalar((10.0 - 3.0) - 2.0)
    assert aggregate(OpKind.MUL, vals) == Scalar(60.0)


def test_aggregate_emission_fields():
    """The output packet comes from the engine, goes to the config's
    destination for its user, keeps the epoch and carries the latest
    arrival's timestamp, not the closing one's."""
    engine, _ = pipeline_engine()
    engine.process(packet("bs2", ts=103.0, value=4.0, epoch=7), now=104.0)
    out = engine.process(packet("bs1", ts=100.0, value=3.0, epoch=7), now=105.0).emission
    assert out == PacketRecord("e-sw1", "dest", "maya", 7, 103.0, Scalar(7.0))
    assert out.uid == -1


# -- the pipeline ----------------------------------------------------------------


def pipeline_engine(**overrides):
    store = ConfigStore()
    cfg = make_config(**overrides)
    store.set_config(cfg)
    return Engine("e-sw1", store), cfg


def test_process_buffers_until_complete():
    engine, _ = pipeline_engine()
    first = engine.process(packet("bs1", ts=100.0, value=3.0), now=101.0)
    assert first.emission is None
    assert first.timeout_at is not None
    second = engine.process(packet("bs2", ts=102.0, value=4.0), now=103.0)
    assert second.emission.payload == Scalar(7.0)
    assert second.timeout_at is None


def test_replaced_config_closes_on_its_own_sources():
    """A config replaced in the middle of an epoch keeps the epoch's buffer
    and closes it once the new source list is covered, counting arrivals
    from sources the new config no longer names."""
    engine, _ = pipeline_engine(sources=("bs1", "bs2", "bs3"))
    engine.process(packet("bs1", ts=100.0), now=100.0)
    engine.process(packet("bs2", ts=100.0), now=100.0)
    engine.store.set_config(make_config(sources=("bs3", "bs4")))
    # three arrivals against two sources, but bs4 is still missing
    assert engine.process(packet("bs3", ts=100.0), now=100.0) is None
    assert engine.process(packet("bs4", ts=100.0), now=100.0).emission is not None

    engine, _ = pipeline_engine(sources=("bs1", "bs2"))
    engine.process(packet("bs1", ts=100.0), now=100.0)
    engine.store.set_config(make_config(sources=("bs1", "bs2", "bs3")))
    assert engine.process(packet("bs2", ts=100.0), now=100.0) is None
    assert engine.process(packet("bs3", ts=100.0), now=100.0).emission is not None


def test_process_unconfigured_user_is_a_no_config_discard():
    engine, _ = pipeline_engine()
    assert engine.process(packet("bs1", ts=0.0, user="intruder"), now=0.0) is None
    assert engine.counters["no_config"] == 1 and engine.pending_arrivals() == 0


def test_emission_bound_one_per_epoch():
    engine, _ = pipeline_engine()
    engine.process(packet("bs1", ts=100.0), now=100.0)
    engine.process(packet("bs2", ts=101.0), now=101.0)
    late = engine.process(packet("bs1", ts=102.0), now=102.0)
    assert late is None
    assert engine.counters["late_discarded"] == 1


def test_duplicate_source_discarded():
    engine, _ = pipeline_engine()
    engine.process(packet("bs1", ts=100.0), now=100.0)
    dup = engine.process(packet("bs1", ts=101.0), now=101.0)
    assert dup is None
    assert engine.counters["duplicate_discarded"] == 1


def test_jitter_discard_in_pipeline():
    engine, _ = pipeline_engine(jitter_ms=5.0)
    engine.process(packet("bs1", ts=100.0), now=100.0)
    out = engine.process(packet("bs2", ts=110.0), now=110.0)
    assert out is None
    assert engine.counters["jitter_discarded"] == 1


def test_timeout_partial_emits_for_min():
    engine, cfg = pipeline_engine(compute=OpKind.MIN, sources=("bs1", "bs2"))
    result = engine.process(packet("bs1", ts=100.0, value=9.0), now=100.0)
    token = result.timeout_token
    assert engine.on_timeout(token, now=result.timeout_at).payload == Scalar(9.0)
    # stale timer after emission is a no-op
    assert engine.on_timeout(token, now=result.timeout_at + 1) is None


def test_timeout_rejects_for_sub():
    engine, cfg = pipeline_engine(compute=OpKind.SUB, sources=("bs1", "bs2"))
    result = engine.process(packet("bs1", ts=100.0), now=100.0)
    assert engine.on_timeout(result.timeout_token, now=result.timeout_at) is None
    assert engine.counters["rejected"] == 1


def test_timeout_partial_avg_folds_the_sources_that_arrived():
    """A timer closes a partial epoch over the config's sources that
    arrived, in cfg.sources order, stamped with the latest of them. An
    arrival from a source a replacement config dropped is consumed but
    not folded."""
    engine, _ = pipeline_engine(compute=OpKind.AVG, sources=("bs1", "bs2", "bs3"))
    opened = engine.process(packet("bs3", ts=101.0, value=4.0), now=101.0)
    engine.process(packet("bs1", ts=100.0, value=2.0), now=102.0)
    out = engine.on_timeout(opened.timeout_token, now=opened.timeout_at)
    assert (out.payload, out.timestamp_ms) == (Scalar(3.0), 101.0)
    assert (engine.counters["consumed"], engine.counters["emitted"]) == (2, 1)

    engine, _ = pipeline_engine(compute=OpKind.AVG, sources=("bs1", "bs2", "bs3"))
    opened = engine.process(packet("bs2", ts=100.0, value=2.0), now=100.0)
    engine.process(packet("bs1", ts=105.0, value=100.0), now=105.0)
    engine.store.set_config(make_config(compute=OpKind.AVG, sources=("bs2", "bs3", "bs4")))
    assert engine.process(packet("bs3", ts=102.0, value=4.0), now=106.0) is None
    out = engine.on_timeout(opened.timeout_token, now=opened.timeout_at)
    assert (out.payload, out.timestamp_ms) == (Scalar(3.0), 102.0)
    assert (engine.counters["consumed"], engine.counters["rejected"]) == (3, 0)
    assert engine.pending_arrivals() == 0


def test_timeout_uses_rate_factor():
    engine, cfg = pipeline_engine(rate_ms=500.0)
    result = engine.process(packet("bs1", ts=100.0), now=105.0)
    assert result.timeout_at == 105.0 + 1000.0
    engine2, _ = pipeline_engine()
    result2 = engine2.process(packet("bs1", ts=100.0), now=105.0)
    assert result2.timeout_at == 105.0 + 100.0


def test_pipeline_accounting_identity():
    rng = random.Random(4)
    engine, cfg = pipeline_engine(jitter_ms=2.0, rate_ms=100.0)
    arrivals = 0
    for _ in range(300):
        src = rng.choice(["bs1", "bs2", "bs9"])  # bs9 has no config
        ts = rng.uniform(0, 2000)
        engine.process(packet(src, ts=ts), now=ts)
        arrivals += 1
    c = engine.counters
    assert c["arrivals"] == arrivals
    settled = (
        c["no_config"]
        + c["rate_dropped"]
        + c["jitter_discarded"]
        + c["duplicate_discarded"]
        + c["late_discarded"]
        + c["consumed"]
        + c["rejected"]
    )
    assert settled + engine.pending_arrivals() == arrivals


def test_epoch_uses_rate_window_when_set():
    """The epoch an arrival opens is its rate window with a rate, and the
    packet's own epoch without one."""
    engine, cfg = pipeline_engine(rate_ms=1000.0)
    p = packet("bs1", ts=2500.0, epoch=99)
    assert engine.process(p, now=2500.0).timeout_token == (cfg.key(), 2)
    engine, cfg = pipeline_engine()
    assert engine.process(p, now=2500.0).timeout_token == (cfg.key(), 99)
