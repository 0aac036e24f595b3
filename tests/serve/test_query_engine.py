"""The spectator QueryEngine rebuilds its indexes with every state.

One engine is driven through a low-churn state change (5 % of the rows)
and then through one battle tick (most rows change); after every
``begin`` each query kind must answer exactly as a fresh engine begun on
the same state, and ``begin`` builds what the previous state's queries
probed.  Compiled query sources are cached up to a bound.
"""

import random

from repro.game.battle import BattleSimulation
from repro.serve import queries
from repro.serve.queries import QueryEngine, QueryRequest, unit_ref
from tests.conftest import make_env

TEAM_HP_SQL = """
function TeamHp(p) returns
SELECT Count(*) AS n, Sum(health) AS hp
FROM E e
WHERE e.player = p;
"""


def requests(env, moved_key):
    """Every query kind; unit-centred ones on *moved_key* and two more."""
    by_key = env.by_key()
    moved = by_key[moved_key]
    keys = [moved_key, *sorted(by_key)[:2]]
    out = [
        QueryRequest("aggregate", name=name, args=(unit_ref(key),))
        for name in ("CountFriendlyKnights", "NearestEnemy")
        for key in keys
    ]
    out += [QueryRequest("sgl", source=TEAM_HP_SQL, args=(p,)) for p in (0, 1)]
    out += [
        QueryRequest("team_counts"),
        QueryRequest("hp_histogram", params=(("bucket", 25),)),
        QueryRequest("knn", args=(5, moved["posx"], moved["posy"])),
        QueryRequest("knn", args=(3, 0.5, 0.5)),
    ]
    return out


def assert_answers_fresh(qe, game, env, moved_key):
    fresh = QueryEngine(game.schema, game.registry)
    fresh.begin(env)
    for request in requests(env, moved_key):
        assert qe.answer(request) == fresh.answer(request), request


def moved_unit(old, new):
    """The key of a unit whose position differs between the states."""
    before = old.by_key()
    for row in new.rows:
        was = before.get(row["key"])
        if was is not None and (was["posx"], was["posy"]) != (
            row["posx"],
            row["posy"],
        ):
            return row["key"]
    raise AssertionError("no unit moved")


def test_query_engine_rebuilds_every_state():
    with BattleSimulation(200, seed=8) as sim:
        game = sim.game
        sim.run(2)
        env0 = sim.engine.env.copy()
        qe = QueryEngine(game.schema, game.registry)
        stats = qe.evaluator.stats
        qe.begin(env0)
        assert_answers_fresh(qe, game, env0, env0.rows[0]["key"])

        # low churn: 5 % of the units step one cell and lose 1 hp
        env1 = env0.copy()
        rng = random.Random(2)
        for row in rng.sample(env1.rows, len(env1.rows) // 20):
            row["posx"] = max(row["posx"] - 1, 0)
            row["posy"] = max(row["posy"] - 1, 0)
            row["health"] = max(row["health"] - 1, 1)
        before = dict(stats)
        qe.begin(env1)
        assert stats.get("rebuild_ticks", 0) == before.get("rebuild_ticks", 0) + 1
        assert_answers_fresh(qe, game, env1, moved_unit(env0, env1))

        # one battle tick from env1: most rows change
        sim.engine.restore_state(
            sim.engine.tick_count + 1, [dict(row) for row in env1.rows]
        )
        sim.tick()
        env2 = sim.engine.env
        before = dict(stats)
        qe.begin(env2)
        assert stats.get("rebuild_ticks", 0) == before.get("rebuild_ticks", 0) + 1
        assert_answers_fresh(qe, game, env2, moved_unit(env1, env2))


def builds(qe):
    counts = {k: v for k, v in qe.evaluator.stats.items() if k.startswith("build")}
    return counts, qe.stats.get("knn_builds", 0)


def test_begin_builds_what_the_previous_state_probed():
    """A rebuild happens when a state is adopted, for what the previous
    state's queries probed; the same queries then build nothing."""
    with BattleSimulation(200, seed=8) as sim:
        game = sim.game
        sim.run(1)
        env0 = sim.engine.env.copy()
        qe = QueryEngine(game.schema, game.registry)
        qe.begin(env0)
        asked = [
            QueryRequest(
                "aggregate",
                name="CountFriendlyKnights",
                args=(unit_ref(env0.rows[0]["key"]),),
            ),
            QueryRequest("sgl", source=TEAM_HP_SQL, args=(0,)),
            QueryRequest("knn", args=(5, 3.0, 4.0)),
        ]
        for request in asked:
            qe.answer(request)

        sim.tick()
        env1 = sim.engine.env.copy()
        before = builds(qe)
        qe.begin(env1)
        adopted = builds(qe)
        assert adopted[1] == before[1] + 1  # the k-NN tree
        assert adopted[0]["build_divisible"] > before[0]["build_divisible"]
        assert all(
            qe.answer(request) == fresh
            for request, fresh in zip(asked, fresh_answers(game, env1, asked))
        )
        assert builds(qe) == adopted

        # env2 is adopted with the same builds; nothing is asked there,
        # so adopting env3 builds nothing
        sim.tick()
        env2 = sim.engine.env.copy()
        qe.begin(env2)
        assert builds(qe)[1] == adopted[1] + 1
        built = builds(qe)
        sim.tick()
        env3 = sim.engine.env.copy()
        qe.begin(env3)
        assert builds(qe) == built


def fresh_answers(game, env, requests):
    fresh = QueryEngine(game.schema, game.registry)
    fresh.begin(env)
    return [fresh.answer(request) for request in requests]


def team_measure_sql(i):
    """A distinct compiled query per *i*, each adding its own measure
    to the one (player) selection the registered aggregates share."""
    return f"""
    function Q{i}(p) returns
    SELECT Count(*) AS n, Sum(e.health + {i}) AS hp
    FROM E e
    WHERE e.player = p;
    """


def test_compiled_query_cache_is_bounded(schema, registry):
    env = make_env(schema, n=10, seed=3)
    qe = QueryEngine(schema, registry)
    qe.begin(env)
    ask = lambda i: qe.answer(  # noqa: E731
        QueryRequest("sgl", source=team_measure_sql(i), args=(0,))
    )
    first = ask(0)
    for i in range(1, 300):
        ask(i)
    cap = queries._SGL_CACHE
    evaluator = qe.evaluator
    assert len(qe._sgl) == cap
    assert len(evaluator._compiled) <= cap
    for selection in evaluator._selections.values():
        assert len(selection.terms) <= cap
    assert len(evaluator._div_index) <= len(evaluator._selections)
    # query 0 was evicted long ago: asked again, it compiles afresh
    compiled = qe.stats.get("sgl_compiled")
    assert ask(0) == first
    assert qe.stats.get("sgl_compiled") == compiled + 1
    names = [fn.name for fn in qe._sgl.values()]
    assert len(set(names)) == len(names)  # mangled names never repeat


def test_eviction_keeps_a_shared_selection_answering(schema, registry):
    """Evicting a query that widened a registered aggregate's selection
    lays the selection out anew; the registered aggregate still answers
    as before, and the selection carries only live readers' measures."""
    env = make_env(schema, n=12, seed=4)
    qe = QueryEngine(schema, registry)
    qe.begin(env)
    request = QueryRequest(
        "aggregate", name="CentroidOfFriendlies", args=(unit_ref(0),)
    )
    want = qe.answer(request)
    for i in range(queries._SGL_CACHE + 5):
        qe.answer(QueryRequest("sgl", source=team_measure_sql(i), args=(1,)))
    assert qe.answer(request) == want
    qe.begin(env.copy())
    assert qe.answer(request) == want
    selection = qe.evaluator._selections[((), ("player",), ())]
    # posx, posy for the centroid; one Sum(e.health + i) per cached query
    assert len(selection.terms) == 2 + queries._SGL_CACHE
