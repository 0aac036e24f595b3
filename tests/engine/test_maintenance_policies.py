"""Sweeps that never outlive their tick."""

from repro.engine.evaluator import IndexedEvaluator, NaiveEvaluator
from repro.sgl.evalterm import EvalContext
from tests.conftest import make_env


def make_ctx(env, registry, agg_eval, unit):
    return EvalContext(
        env=env,
        registry=registry,
        agg_eval=agg_eval,
        rng=lambda row, i: 0,
        bindings={"u": unit},
        unit=unit,
    )


class TestSweepBatchReuse:
    """Figure-9 sweeps are never carried across ticks: every tick's
    call-site batch sweeps that tick's sources, so a change touching
    the source partition or the probing units always shows in the
    answers."""

    FN = "WeakestWoundedFriendlyInRange"

    def setup_probe(self, schema):
        env = make_env(schema, n=30, grid=30, seed=9)
        for row in env.rows[:6]:
            row["health"] -= 3  # wounded: the sweep's source partition
        probes = [r for r in env.rows if r["health"] == r["max_health"]][:4]
        return env, {p["key"] for p in probes}

    def probe_all(self, evaluator, env, registry, probe_keys):
        """One call-site batch: every probing unit's call."""
        fn = registry.aggregates[self.FN]
        units = [u for u in env.rows if u["key"] in probe_keys]
        return evaluator.evaluate_batch(
            fn,
            [[u, u["sight"]] for u in units],
            [make_ctx(env, registry, evaluator, u) for u in units],
        )

    def check_next_tick(self, registry, env, new, probe_keys):
        """Sweep tick 1 over *env*, tick 2 over *new*: tick 2 must sweep
        again and answer exactly like the naive evaluator."""
        evaluator = IndexedEvaluator(registry)
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry, probe_keys)
        first = evaluator.stats.get("build_sweep")
        assert first
        evaluator.begin_tick(new)
        got = self.probe_all(evaluator, new, registry, probe_keys)
        want = self.probe_all(NaiveEvaluator(), new, registry, probe_keys)
        assert got == want
        assert evaluator.stats.get("build_sweep") > first
        assert evaluator.stats.get("sweep_reuse", 0) == 0

    def test_source_change_invalidates(self, registry, schema):
        env, probe_keys = self.setup_probe(schema)
        new = env.copy()
        wounded = next(r for r in new.rows if r["health"] < r["max_health"])
        wounded["health"] -= 1
        self.check_next_tick(registry, env, new, probe_keys)

    def test_probe_change_invalidates(self, registry, schema):
        env, probe_keys = self.setup_probe(schema)
        # a probing unit moves: its call's arguments change
        new = env.copy()
        prober = next(r for r in new.rows if r["key"] in probe_keys)
        prober["posx"] = (prober["posx"] + 3) % 30
        self.check_next_tick(registry, env, new, probe_keys)

    def test_probe_group_shrink_invalidates(self, registry, schema):
        env, probe_keys = self.setup_probe(schema)
        evaluator = IndexedEvaluator(registry)
        evaluator.begin_tick(env)
        self.probe_all(evaluator, env, registry, probe_keys)
        # same env, but one probe left the batch
        kept = set(sorted(probe_keys)[:-1])
        evaluator.begin_tick(env.copy())
        got = self.probe_all(evaluator, env, registry, kept)
        want = self.probe_all(NaiveEvaluator(), env, registry, kept)
        assert got == want and len(got) == len(kept)
